//! Structured transition tracing: compact state tags, transition records
//! and the ring buffer both controllers append to.

use dirext_trace::{BlockAddr, NodeId};

use crate::line::CacheState;
use crate::msg::MsgKind;

/// Compact home-directory state: the two stable states plus the transient
/// (pending) states, which the paper's protocol encodes while "the home
/// node is waiting for the completion of a coherence action".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirTag {
    /// The memory copy is valid (no transient operation in flight).
    Clean,
    /// Exactly one cache holds the exclusive copy.
    Modified,
    /// Invalidations outstanding for an ownership request.
    Invalidating,
    /// Fetch outstanding for a read of a dirty block.
    FetchRead,
    /// Fetch-invalidate outstanding for a migratory read.
    FetchMigRead,
    /// Fetch-invalidate outstanding for an ownership transfer.
    FetchOwn,
    /// Fetch-invalidate outstanding to recall a dirty block hit by a
    /// competitive update (CW race).
    RecallForUpdate,
    /// Update fan-out outstanding.
    Updating,
    /// CW+M migratory interrogation outstanding.
    Interrogating,
    /// Invalidations outstanding for an *overflowed* sharer set: the
    /// limited-pointer (Dir_i_B) or directoryless organization broadcast to
    /// every node.
    BcastInval,
    /// Invalidations outstanding for a coarse-vector region multicast.
    McastInval,
    /// Update fan-out outstanding over an overflowed (broadcast) set.
    BcastUpdating,
    /// Update fan-out outstanding over coarse-vector regions.
    McastUpdating,
    /// Dir_i_NB pointer recall outstanding: one tracked copy is being
    /// invalidated to free a pointer for a new sharer.
    Evicting,
}

impl DirTag {
    /// Short label used in trace listings and the generated tables.
    pub fn label(self) -> &'static str {
        match self {
            DirTag::Clean => "CLEAN",
            DirTag::Modified => "MODIFIED",
            DirTag::Invalidating => "P:Inval",
            DirTag::FetchRead => "P:Fetch",
            DirTag::FetchMigRead => "P:FetchMig",
            DirTag::FetchOwn => "P:FetchOwn",
            DirTag::RecallForUpdate => "P:Recall",
            DirTag::Updating => "P:Update",
            DirTag::Interrogating => "P:Interr",
            DirTag::BcastInval => "B:Inval",
            DirTag::McastInval => "R:Inval",
            DirTag::BcastUpdating => "B:Update",
            DirTag::McastUpdating => "R:Update",
            DirTag::Evicting => "P:Evict",
        }
    }
}

/// Compact processor-cache (SLC) line state. `Invalid` is the absent line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTag {
    /// No copy cached.
    Invalid,
    /// Read-only copy.
    Shared,
    /// Exclusive, modified copy.
    Dirty,
    /// Exclusive, unmodified copy (migratory / exclusive-clean grant).
    MigClean,
}

impl CacheTag {
    /// Short label used in trace listings and the generated tables.
    pub fn label(self) -> &'static str {
        match self {
            CacheTag::Invalid => "INVALID",
            CacheTag::Shared => "SHARED",
            CacheTag::Dirty => "DIRTY",
            CacheTag::MigClean => "MigClean",
        }
    }
}

impl From<CacheState> for CacheTag {
    fn from(s: CacheState) -> Self {
        match s {
            CacheState::Shared => CacheTag::Shared,
            CacheState::Dirty => CacheTag::Dirty,
            CacheState::MigClean => CacheTag::MigClean,
        }
    }
}

/// A state tag of either controller layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateTag {
    /// Home-directory state.
    Dir(DirTag),
    /// Processor-cache line state.
    Cache(CacheTag),
}

impl StateTag {
    /// Short label used in trace listings and the generated tables.
    pub fn label(self) -> &'static str {
        match self {
            StateTag::Dir(t) => t.label(),
            StateTag::Cache(t) => t.label(),
        }
    }
}

/// Payload-free mirror of [`MsgKind`]: the message *kind* is what selects a
/// transition-table row; payloads (word masks, data flags) do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // one-to-one with the documented MsgKind variants
pub enum MsgTag {
    ReadReq,
    OwnReq,
    UpdateReq,
    WritebackReq,
    SharedReplHint,
    ReadReply,
    OwnAck,
    UpdateDone,
    WritebackAck,
    Nack,
    Inval,
    Fetch,
    FetchInval,
    Update,
    Interrogate,
    InvalAck,
    FetchReply,
    FetchInvalReply,
    UpdateAck,
    InterrogateReply,
    AcqReq,
    AcqGrant,
    RelReq,
    RelAck,
    BarArrive,
    BarRelease,
}

impl From<MsgKind> for MsgTag {
    fn from(k: MsgKind) -> Self {
        match k {
            MsgKind::ReadReq { .. } => MsgTag::ReadReq,
            MsgKind::OwnReq { .. } => MsgTag::OwnReq,
            MsgKind::UpdateReq { .. } => MsgTag::UpdateReq,
            MsgKind::WritebackReq { .. } => MsgTag::WritebackReq,
            MsgKind::SharedReplHint => MsgTag::SharedReplHint,
            MsgKind::ReadReply { .. } => MsgTag::ReadReply,
            MsgKind::OwnAck { .. } => MsgTag::OwnAck,
            MsgKind::UpdateDone { .. } => MsgTag::UpdateDone,
            MsgKind::WritebackAck => MsgTag::WritebackAck,
            MsgKind::Nack => MsgTag::Nack,
            MsgKind::Inval => MsgTag::Inval,
            MsgKind::Fetch => MsgTag::Fetch,
            MsgKind::FetchInval => MsgTag::FetchInval,
            MsgKind::Update { .. } => MsgTag::Update,
            MsgKind::Interrogate => MsgTag::Interrogate,
            MsgKind::InvalAck => MsgTag::InvalAck,
            MsgKind::FetchReply { .. } => MsgTag::FetchReply,
            MsgKind::FetchInvalReply { .. } => MsgTag::FetchInvalReply,
            MsgKind::UpdateAck { .. } => MsgTag::UpdateAck,
            MsgKind::InterrogateReply { .. } => MsgTag::InterrogateReply,
            MsgKind::AcqReq => MsgTag::AcqReq,
            MsgKind::AcqGrant => MsgTag::AcqGrant,
            MsgKind::RelReq => MsgTag::RelReq,
            MsgKind::RelAck => MsgTag::RelAck,
            MsgKind::BarArrive { .. } => MsgTag::BarArrive,
            MsgKind::BarRelease { .. } => MsgTag::BarRelease,
        }
    }
}

impl MsgTag {
    /// Short label used in trace listings and the generated tables.
    pub fn label(self) -> &'static str {
        match self {
            MsgTag::ReadReq => "ReadReq",
            MsgTag::OwnReq => "OwnReq",
            MsgTag::UpdateReq => "UpdateReq",
            MsgTag::WritebackReq => "WritebackReq",
            MsgTag::SharedReplHint => "SharedReplHint",
            MsgTag::ReadReply => "ReadReply",
            MsgTag::OwnAck => "OwnAck",
            MsgTag::UpdateDone => "UpdateDone",
            MsgTag::WritebackAck => "WritebackAck",
            MsgTag::Nack => "Nack",
            MsgTag::Inval => "Inval",
            MsgTag::Fetch => "Fetch",
            MsgTag::FetchInval => "FetchInval",
            MsgTag::Update => "Update",
            MsgTag::Interrogate => "Interrogate",
            MsgTag::InvalAck => "InvalAck",
            MsgTag::FetchReply => "FetchReply",
            MsgTag::FetchInvalReply => "FetchInvalReply",
            MsgTag::UpdateAck => "UpdateAck",
            MsgTag::InterrogateReply => "InterrogateReply",
            MsgTag::AcqReq => "AcqReq",
            MsgTag::AcqGrant => "AcqGrant",
            MsgTag::RelReq => "RelReq",
            MsgTag::RelAck => "RelAck",
            MsgTag::BarArrive => "BarArrive",
            MsgTag::BarRelease => "BarRelease",
        }
    }
}

/// The input that triggered a transition: a protocol message, a processor
/// access, or a cache replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceInput {
    /// A protocol message arriving at the controller.
    Msg(MsgTag),
    /// A processor read serviced by the local cache.
    CpuRead,
    /// A processor write serviced by the local cache.
    CpuWrite,
    /// A replacement (direct-mapped victim eviction).
    Replace,
    /// A node-crash fault event: the recovery layer purging a dead node's
    /// state (cache wipes, directory purges, synthesized completions).
    Crash,
}

impl TraceInput {
    /// Short label used in trace listings and the generated tables.
    pub fn label(self) -> &'static str {
        match self {
            TraceInput::Msg(m) => m.label(),
            TraceInput::CpuRead => "CpuRead",
            TraceInput::CpuWrite => "CpuWrite",
            TraceInput::Replace => "Replace",
            TraceInput::Crash => "Crash",
        }
    }
}

/// One recorded state transition of either controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Simulated time (cycles) the transition was applied.
    pub time: u64,
    /// The node whose input triggered the transition (message source or
    /// local processor).
    pub node: NodeId,
    /// The block whose state changed.
    pub block: BlockAddr,
    /// State before the input was applied.
    pub from: StateTag,
    /// State after the input was applied.
    pub to: StateTag,
    /// The triggering input.
    pub input: TraceInput,
    /// Name of the extension hook that rewrote the outcome, if any.
    pub ext: Option<&'static str>,
}

impl TransitionRecord {
    /// One-line rendering for trace listings.
    pub fn render(&self) -> String {
        format!(
            "{:>10}  n{:<2} {:>8}  {:10} -> {:10}  on {:16} {}",
            self.time,
            self.node.idx(),
            format!("{:?}", self.block),
            self.from.label(),
            self.to.label(),
            self.input.label(),
            self.ext.map(|e| format!("[{e}]")).unwrap_or_default(),
        )
    }
}

/// A bounded ring buffer of transition records.
///
/// A disabled ring (capacity 0, the default) costs one branch per
/// controller input; an enabled ring keeps the most recent `capacity`
/// records and counts what it overwrote.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    buf: Vec<TransitionRecord>,
    capacity: usize,
    /// Next write position once the buffer is full.
    head: usize,
    /// Transitions recorded over the whole run (≥ `len()`).
    total: u64,
    /// Current time stamp applied to pushed records (the timeless protocol
    /// layer has the machine set this before dispatching each input).
    now: u64,
}

impl TraceRing {
    /// A disabled ring: records nothing.
    pub fn disabled() -> Self {
        TraceRing::default()
    }

    /// An enabled ring keeping the most recent `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            ..TraceRing::default()
        }
    }

    /// Whether the ring records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity != 0
    }

    /// Sets the time stamp applied to subsequently pushed records.
    #[inline]
    pub fn set_now(&mut self, t: u64) {
        self.now = t;
    }

    /// The time stamp applied to pushed records.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Appends a record (dropping the oldest when full). No-op when
    /// disabled.
    pub fn push(&mut self, r: TransitionRecord) {
        if self.capacity == 0 {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(r);
        } else {
            self.buf[self.head] = r;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Records currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TransitionRecord> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records overwritten because the ring was full.
    pub fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64) -> TransitionRecord {
        TransitionRecord {
            time: t,
            node: NodeId(0),
            block: BlockAddr::from_index(0),
            from: StateTag::Dir(DirTag::Clean),
            to: StateTag::Dir(DirTag::Modified),
            input: TraceInput::Msg(MsgTag::OwnReq),
            ext: None,
        }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::disabled();
        assert!(!r.enabled());
        r.push(rec(1));
        assert!(r.is_empty());
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_overwrites() {
        let mut r = TraceRing::with_capacity(3);
        for t in 0..5 {
            r.push(rec(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 2);
        let times: Vec<u64> = r.iter().map(|x| x.time).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }
}
