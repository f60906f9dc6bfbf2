//! The home-node directory controller.
//!
//! One `DirCtrl` instance lives at each node and manages the directory
//! entries of the memory blocks homed there. It is a pure protocol state
//! machine: it consumes `(source, block, MsgKind)` triples and returns the
//! messages the home node must send. Timing, versions and traffic metering
//! are applied by the machine layer.
//!
//! The state encoding matches the paper: two stable memory states (CLEAN,
//! MODIFIED) plus transient states (represented by the internal `Pending`
//! bookkeeping) while "the
//! home node is waiting for the completion of a coherence action"; a
//! sharer set (the paper's full presence-flag vector, or one of the
//! scalable organizations in [`crate::sharer`]); and, for the extensions,
//! a migratory bit, a last-writer pointer (M) and a last-updater pointer
//! (CW+M).
//!
//! All coherence fan-outs (invalidations, updates, interrogations) visit
//! their targets in ascending node-id order — part of the simulator's
//! determinism contract (see [`crate::sharer`]).

use std::collections::VecDeque;

use dirext_trace::{BlockAddr, NodeId};

use crate::blockmap::BlockMap;
use crate::config::{CompetitiveConfig, Consistency, ProtocolConfig};
use crate::error::ProtocolError;
use crate::msg::MsgKind;
use crate::proto::hooks::{Exts, ReadFetch, UpdateRoute};
use crate::proto::table::ExtKind;
use crate::proto::trace::{DirTag, StateTag, TraceInput, TraceRing, TransitionRecord};
use crate::sharer::{AckMask, AddOutcome, DirOrg, DirOrgError, FanoutClass, SharerSet};

/// A message the home node must send in response to an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirAction {
    /// Destination node.
    pub dst: NodeId,
    /// Message to send.
    pub kind: MsgKind,
}

/// Stable directory state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// The memory copy is valid.
    Clean,
    /// Exactly one cache holds the exclusive copy.
    Modified(NodeId),
}

/// Transient directory state: what the home is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    /// Invalidations outstanding for an ownership request.
    Invalidating {
        /// Send the block with the ownership acknowledgment.
        with_data: bool,
    },
    /// Fetch outstanding for a read of a dirty block.
    FetchRead,
    /// Fetch-invalidate outstanding for a migratory read.
    FetchMigRead,
    /// Fetch-invalidate outstanding for an ownership transfer.
    FetchOwn,
    /// Fetch-invalidate outstanding to recall a dirty block hit by a
    /// competitive update (CW+M race).
    RecallForUpdate {
        /// The update to apply once the block is recalled.
        dirty_words: u8,
    },
    /// Update fan-out outstanding.
    Updating,
    /// CW+M migratory interrogation outstanding.
    Interrogating {
        /// The update that triggered the interrogation.
        dirty_words: u8,
    },
    /// Dir_i_NB pointer recall outstanding: one tracked copy is being
    /// invalidated to free a pointer. Completes silently; requests queue
    /// behind it so the recalled node can never read stale data past a
    /// later ownership transfer.
    Evicting,
}

#[derive(Debug, Clone)]
struct Pending {
    kind: PendingKind,
    requester: NodeId,
    /// The node a fetch was sent to, if any (for writeback-crossing races).
    target: Option<NodeId>,
    /// Per-node mask of acknowledgments still outstanding. Tracking acks
    /// by node rather than by count makes duplicate acknowledgments
    /// idempotent: a second ack from the same node finds its bit already
    /// cleared and is dropped as stale.
    awaiting: AckMask,
    /// CW+M: at least one cache voted to keep its copy.
    keep_votes: bool,
    /// How the fan-out that opened this operation related to the true
    /// sharer set (selects the broadcast/multicast trace tags).
    fanout: FanoutClass,
    /// Recovery: the requester died (or this is a purge sweep). The
    /// operation still collects its acknowledgments — the protocol needs
    /// the copies gone — but completes without granting anything. The flag
    /// is sticky: it outlives the node's recovery, because it describes the
    /// dead *incarnation's* operation, not the node.
    abort: bool,
}

impl Pending {
    /// A fetch-style operation (a read of a dirty block, `FetchOwn`,
    /// `RecallForUpdate`): one target, no acknowledgment mask.
    fn fetch(kind: PendingKind, requester: NodeId, target: NodeId) -> Self {
        Self {
            kind,
            requester,
            target: Some(target),
            awaiting: AckMask::Inline(0),
            keep_votes: false,
            fanout: FanoutClass::Exact,
            abort: false,
        }
    }
}

/// One directory entry — the per-block state the extension hooks inspect
/// and adjust (the transient `pending` bookkeeping stays internal to the
/// BASIC core).
#[derive(Debug, Clone)]
pub struct DirEntry {
    /// Stable state.
    pub state: DirState,
    /// The sharer set, in the configured directory organization. May
    /// over-approximate the true copy set (never under-approximate); all
    /// fan-outs iterate it in ascending node-id order.
    pub sharers: SharerSet,
    /// M: the block is classified migratory.
    pub migratory: bool,
    /// M: the node whose write last took the block exclusive.
    pub last_writer: Option<NodeId>,
    /// CW+M: the node whose update the home last fanned out.
    pub last_updater: Option<NodeId>,
    pending: Option<Pending>,
    waiting: VecDeque<(NodeId, MsgKind)>,
}

impl DirEntry {
    /// A fresh CLEAN entry under the given directory organization.
    pub fn new(org: DirOrg) -> Self {
        DirEntry {
            state: DirState::Clean,
            sharers: org.empty_set(),
            migratory: false,
            last_writer: None,
            last_updater: None,
            pending: None,
            waiting: VecDeque::new(),
        }
    }
}

/// Counters kept by the directory controller (aggregated across all blocks
/// homed at one node; the machine sums them over nodes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Ownership requests serviced.
    pub own_reqs: u64,
    /// Update requests serviced.
    pub update_reqs: u64,
    /// Writebacks received.
    pub writebacks: u64,
    /// Invalidations sent.
    pub invals_sent: u64,
    /// Update messages sent to third-party caches.
    pub updates_sent: u64,
    /// Blocks newly classified as migratory.
    pub migratory_detections: u64,
    /// Migratory classifications reverted.
    pub migratory_reverts: u64,
    /// Exclusive (migratory) read grants.
    pub exclusive_grants: u64,
    /// CW+M interrogation rounds started.
    pub interrogations: u64,
    /// Update requests that found the block dirty in a third-party cache
    /// and had to recall it before fanning out (a CW race-state: the owner
    /// gained exclusivity while the update was in flight).
    pub update_recalls: u64,
    /// Read requests serviced in two hops or locally (memory clean) — the
    /// basis of the paper's "remaining coherence misses are shorter under
    /// CW" observation.
    pub reads_clean: u64,
    /// Read requests that required a fetch from a dirty third-party cache.
    pub reads_dirty: u64,
    /// Negative acknowledgments sent (owner re-request racing its own
    /// in-flight writeback).
    pub nacks_sent: u64,
    /// Stale or duplicate messages recognized and dropped (idempotent
    /// duplicate tolerance under fault injection).
    pub stale_drops: u64,
    /// Sharer-set overflows: a limited-pointer entry ran out of pointers
    /// (Dir_i_B degrading to broadcast, or Dir_i_NB evicting a pointer).
    pub dir_overflows: u64,
    /// Coherence fan-outs widened to a full broadcast by an inexact
    /// sharer set (overflowed pointers or the directoryless organization).
    pub dir_broadcasts: u64,
    /// Dir_i_NB pointer recalls: tracked copies invalidated purely to free
    /// a pointer for a new sharer.
    pub dir_recalls: u64,
    /// Recovery: dead nodes removed surgically from exact sharer sets.
    pub purged_sharers: u64,
    /// Recovery: MODIFIED entries whose owner died — memory's last-written
    /// value stands and the entry returns to CLEAN (modeled data loss).
    pub orphan_reclaims: u64,
    /// Recovery: pending operations completed without a grant because the
    /// requester died before the acknowledgments arrived.
    pub aborted_grants: u64,
    /// Recovery: invalidation sweeps opened to purge a dead node from an
    /// inexact sharer set (the set cannot name its members, so every
    /// covered live copy is recalled to restore exactness).
    pub purge_sweeps: u64,
}

/// The directory controller for the blocks homed at one node.
///
/// # Example
///
/// ```
/// use dirext_core::dir::DirCtrl;
/// use dirext_core::msg::MsgKind;
/// use dirext_trace::{BlockAddr, NodeId};
///
/// let mut dir = DirCtrl::new(16, false, false);
/// let b = BlockAddr::from_index(1);
/// // A read miss to a clean block is answered immediately.
/// let actions = dir
///     .handle(NodeId(3), b, MsgKind::ReadReq { prefetch: false })
///     .unwrap();
/// assert_eq!(actions.len(), 1);
/// assert_eq!(actions[0].dst, NodeId(3));
/// assert!(matches!(actions[0].kind, MsgKind::ReadReply { exclusive: false }));
/// ```
#[derive(Debug)]
pub struct DirCtrl {
    nprocs: usize,
    org: DirOrg,
    exts: Exts,
    entries: BlockMap<DirEntry>,
    stats: DirStats,
    trace: TraceRing,
    /// Recycled wide-`AckMask` storage (machines past 64 nodes), so
    /// steady-state fan-out bookkeeping allocates nothing.
    mask_pool: Vec<Box<[u64]>>,
    /// Recovery: nodes currently purged after a crash. Fan-outs skip them
    /// (a dead node holds no copies and sends no acknowledgments); the
    /// machine sets a node at reconstruction and clears it at re-admission.
    dead: Vec<bool>,
    /// Whether the Recovery rule layer is active (a node-fault plan is
    /// installed); selects the conformance rule set.
    recovery: bool,
}

impl DirCtrl {
    /// Creates a controller for a machine of `nprocs` nodes with the given
    /// directory organization and extensions. The BASIC transition core
    /// itself has no extension knowledge: pass [`Exts::default`] for the
    /// pure write-invalidate protocol, or [`Exts::from_protocol`] for a
    /// configured one.
    ///
    /// # Errors
    ///
    /// Returns a [`DirOrgError`] naming the organization and its node
    /// limit when it cannot represent an `nprocs`-node machine.
    pub fn with_org(nprocs: usize, org: DirOrg, exts: Exts) -> Result<Self, DirOrgError> {
        org.validate(nprocs)?;
        Ok(DirCtrl {
            nprocs,
            org,
            exts,
            entries: BlockMap::new(),
            stats: DirStats::default(),
            trace: TraceRing::disabled(),
            mask_pool: Vec::new(),
            dead: vec![false; nprocs],
            recovery: false,
        })
    }

    /// [`DirCtrl::with_org`] with the paper's full-map presence vector.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero or exceeds the 64-node presence vector
    /// (use [`DirCtrl::with_org`] with a scalable organization for larger
    /// machines).
    pub fn with_exts(nprocs: usize, exts: Exts) -> Self {
        DirCtrl::with_org(nprocs, DirOrg::FullMap, exts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience constructor used by unit tests and examples: a machine
    /// of `nprocs` nodes with the full-map organization and the M
    /// (`migratory`) and/or CW (`competitive`) hooks installed.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero or exceeds the 64-node presence vector.
    pub fn new(nprocs: usize, migratory: bool, competitive: bool) -> Self {
        let p = ProtocolConfig {
            migratory,
            competitive: competitive.then(CompetitiveConfig::default),
            ..ProtocolConfig::basic(Consistency::Rc)
        };
        DirCtrl::with_exts(nprocs, Exts::from_protocol(&p))
    }

    /// The configured directory organization.
    pub fn org(&self) -> DirOrg {
        self.org
    }

    /// The machine size this controller serves.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The rule layers a conformance replay of this controller's trace
    /// must enable: the extensions' layers, plus the DIR layer when
    /// the organization can over-approximate (broadcasts, multicasts and
    /// pointer recalls become legal transitions).
    pub fn rule_set(&self) -> crate::proto::table::ExtSet {
        let mut set = self.exts.rule_set();
        if self.org != DirOrg::FullMap {
            set = set.with(ExtKind::DirScale);
        }
        if self.recovery {
            set = set.with(ExtKind::Recovery);
        }
        set
    }

    /// Starts recording state transitions into a ring of `capacity`
    /// records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceRing::with_capacity(capacity);
    }

    /// The transition-trace ring (disabled and empty unless
    /// [`DirCtrl::enable_trace`] was called).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Sets the time stamp applied to subsequently recorded transitions
    /// (the protocol layer is timeless; the machine layer owns the clock).
    #[inline]
    pub fn set_trace_now(&mut self, t: u64) {
        self.trace.set_now(t);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    /// Whether any block has a transient state or queued requests (the
    /// machine asserts this is false at quiescence).
    pub fn has_pending(&self) -> bool {
        self.entries
            .values()
            .any(|e| e.pending.is_some() || !e.waiting.is_empty())
    }

    /// Whether `block` has a transient state or queued requests.
    pub fn pending_op(&self, block: BlockAddr) -> bool {
        self.entries
            .get(block)
            .is_some_and(|e| e.pending.is_some() || !e.waiting.is_empty())
    }

    /// Directory view of one block for invariant checking:
    /// `(modified_owner, presence_bits, migratory)`. `None` if the block
    /// was never referenced. The presence bits cover the first 64 nodes
    /// (exact under the full map; an over-approximation under the scalable
    /// organizations — use [`DirCtrl::covers`] on larger machines).
    pub fn snapshot(&self, block: BlockAddr) -> Option<(Option<NodeId>, u64, bool)> {
        self.entries.get(block).map(|e| {
            let owner = match e.state {
                DirState::Modified(n) => Some(n),
                DirState::Clean => None,
            };
            (owner, e.sharers.low_mask(self.nprocs), e.migratory)
        })
    }

    /// Whether the directory believes node `n` may hold a copy of `block`
    /// (over-approximate: spurious coverage is legal, a missed copy is a
    /// coherence violation).
    pub fn covers(&self, block: BlockAddr, n: NodeId) -> bool {
        self.entries
            .get(block)
            .is_some_and(|e| e.sharers.may_contain(n))
    }

    /// Whether `block`'s sharer set is currently exact (coverage equals
    /// membership). Untouched blocks are trivially exact.
    pub fn entry_exact(&self, block: BlockAddr) -> bool {
        self.entries
            .get(block)
            .is_none_or(|e| e.sharers.exact_count().is_some())
    }

    /// Whether `block`'s sharer set certainly equals exactly `{n}` — only
    /// provable under an exact organization (the invariant checker uses
    /// this for the single-writer property).
    pub fn sole_sharer(&self, block: BlockAddr, n: NodeId) -> bool {
        self.entries
            .get(block)
            .is_some_and(|e| e.sharers.sole_sharer(n))
    }

    /// Iterates over all blocks this controller has entries for, in
    /// ascending block order. The dense entry arena makes this
    /// deterministic across runs and processes — the order feeds invariant
    /// audits and diagnostics, which must not vary with a hasher seed.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.entries.keys()
    }

    /// Describes the in-flight directory operations (transient states and
    /// queued requests) for diagnostic snapshots, sorted by block.
    pub fn pending_ops(&self) -> Vec<(BlockAddr, String)> {
        // BlockMap iteration is already in ascending block order.
        self.entries
            .iter()
            .filter(|(_, e)| e.pending.is_some() || !e.waiting.is_empty())
            .map(|(b, e)| {
                let desc = match &e.pending {
                    Some(p) => format!(
                        "{:?} for {:?} (target {:?}, awaiting {:#x}, {} queued)",
                        p.kind,
                        p.requester,
                        p.target,
                        p.awaiting.low_bits(),
                        e.waiting.len()
                    ),
                    None => format!("{} queued requests", e.waiting.len()),
                };
                (b, desc)
            })
            .collect()
    }

    /// Processes one incoming message and returns the outgoing messages.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] instead of panicking when a message has
    /// no legal transition in the current state. Recognizable *stale
    /// duplicates* (replayed acks and replies whose operation already
    /// completed) are not errors: they are dropped and counted in
    /// [`DirStats::stale_drops`], which is what makes the controller safe
    /// under message duplication by the fault-injection layer.
    pub fn handle(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        kind: MsgKind,
    ) -> Result<Vec<DirAction>, ProtocolError> {
        let mut actions = Vec::new();
        self.handle_into(src, block, kind, &mut actions)?;
        Ok(actions)
    }

    /// [`DirCtrl::handle`], appending the outgoing messages to a
    /// caller-provided buffer instead of allocating a fresh one.
    ///
    /// This is the simulator's hot path: the dispatch loop keeps one
    /// recycled buffer per machine, so steady-state directory processing
    /// performs no heap allocation at all.
    ///
    /// # Errors
    ///
    /// As [`DirCtrl::handle`]. On error the buffer's contents are
    /// unspecified (the caller abandons the transaction anyway).
    pub fn handle_into(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        kind: MsgKind,
        actions: &mut Vec<DirAction>,
    ) -> Result<(), ProtocolError> {
        debug_assert!(src.idx() < self.nprocs);
        // `Option<Option<NodeId>>`: outer = a pending op exists, inner =
        // its fetch target (extracted so the `Pending` itself — which owns
        // an ack mask — is never copied on the hot path).
        let pending_target = self
            .entries
            .get(block)
            .and_then(|e| e.pending.as_ref())
            .map(|p| p.target);

        match kind {
            // Replacement hints bypass the queue entirely. A hint crossing
            // an exclusivity grant (the copy was replaced while the grant
            // was in flight) must not corrupt the MODIFIED entry — the
            // cache resolves that race with an unwritten writeback.
            MsgKind::SharedReplHint => {
                if let Some(e) = self.entries.get_mut(block) {
                    if !matches!(e.state, DirState::Modified(owner) if owner == src) {
                        e.sharers.remove(src);
                    }
                }
                return Ok(());
            }
            // A writeback crossing a fetch we sent to the same node serves
            // as the fetch reply.
            MsgKind::WritebackReq { written } => {
                if let Some(target) = pending_target {
                    if target == Some(src) {
                        self.stats.writebacks += 1;
                        actions.push(DirAction {
                            dst: src,
                            kind: MsgKind::WritebackAck,
                        });
                        // The owner replaced the block: it keeps no copy.
                        let pre = self.pre_tag(block);
                        self.complete_fetch(src, block, None, written, false, actions)?;
                        self.trace_dir(src, block, pre, TraceInput::Msg(kind.into()));
                        self.drain_queue(block, actions)?;
                        return Ok(());
                    }
                    // Unrelated writeback while busy: queue it.
                    self.entry(block).waiting.push_back((src, kind));
                    return Ok(());
                }
                self.process_request(src, block, kind, actions)?;
                self.drain_queue(block, actions)?;
                return Ok(());
            }
            _ => {}
        }

        if kind.queues_at_home() {
            if pending_target.is_some() {
                self.entry(block).waiting.push_back((src, kind));
                return Ok(());
            }
            self.process_request(src, block, kind, actions)?;
        } else {
            self.process_reply(src, block, kind, actions)?;
        }
        self.drain_queue(block, actions)?;
        Ok(())
    }

    fn entry(&mut self, block: BlockAddr) -> &mut DirEntry {
        let org = self.org;
        self.entries
            .get_or_insert_with(block, || DirEntry::new(org))
    }

    /// Retires `block`'s pending operation and hands it back, its wide
    /// ack-mask storage (if any) already returned to the recycle pool.
    fn take_pending(&mut self, block: BlockAddr) -> Option<Pending> {
        let DirCtrl {
            entries,
            mask_pool,
            org,
            ..
        } = self;
        let e = entries.get_or_insert_with(block, || DirEntry::new(*org));
        let mut p = e.pending.take()?;
        std::mem::replace(&mut p.awaiting, AckMask::Inline(0)).recycle(mask_pool);
        Some(p)
    }

    /// Runs a hook with the entry, the extensions and the stats borrowed
    /// simultaneously (split borrow of `self`).
    fn with_entry_exts<R>(
        &mut self,
        block: BlockAddr,
        f: impl FnOnce(&mut DirEntry, &mut Exts, &mut DirStats) -> R,
    ) -> R {
        let DirCtrl {
            entries,
            exts,
            stats,
            org,
            ..
        } = self;
        let e = entries.get_or_insert_with(block, || DirEntry::new(*org));
        f(e, exts, stats)
    }

    /// The transition-table tag for a block's current directory state
    /// (absent entries are CLEAN; a pending operation shadows the stable
    /// state).
    fn dir_tag(&self, block: BlockAddr) -> DirTag {
        match self.entries.get(block) {
            None => DirTag::Clean,
            Some(e) => match &e.pending {
                Some(p) => match p.kind {
                    PendingKind::Invalidating { .. } => match p.fanout {
                        FanoutClass::Exact => DirTag::Invalidating,
                        FanoutClass::Broadcast => DirTag::BcastInval,
                        FanoutClass::Multicast => DirTag::McastInval,
                    },
                    PendingKind::FetchRead => DirTag::FetchRead,
                    PendingKind::FetchMigRead => DirTag::FetchMigRead,
                    PendingKind::FetchOwn => DirTag::FetchOwn,
                    PendingKind::RecallForUpdate { .. } => DirTag::RecallForUpdate,
                    PendingKind::Updating => match p.fanout {
                        FanoutClass::Exact => DirTag::Updating,
                        FanoutClass::Broadcast => DirTag::BcastUpdating,
                        FanoutClass::Multicast => DirTag::McastUpdating,
                    },
                    PendingKind::Interrogating { .. } => DirTag::Interrogating,
                    PendingKind::Evicting => DirTag::Evicting,
                },
                None => match e.state {
                    DirState::Clean => DirTag::Clean,
                    DirState::Modified(_) => DirTag::Modified,
                },
            },
        }
    }

    /// Captures the pre-transition tag; `None` when tracing is off, so the
    /// disabled cost is a single branch.
    #[inline]
    fn pre_tag(&self, block: BlockAddr) -> Option<DirTag> {
        if self.trace.enabled() {
            Some(self.dir_tag(block))
        } else {
            None
        }
    }

    /// Records the state transition caused by one input: a message from
    /// `node`, or the recovery layer's Crash input for dead `node`. Always
    /// drains the extension-attribution slot (even with tracing off) so a
    /// hook firing can never be misattributed to a later request; a Crash
    /// record is never attributed (its completions are synthesized).
    fn trace_dir(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        pre: Option<DirTag>,
        input: TraceInput,
    ) {
        let fired = self.exts.take_fired();
        let Some(pre) = pre else { return };
        let post = self.dir_tag(block);
        if pre == post {
            return;
        }
        let time = self.trace.now();
        self.trace.push(TransitionRecord {
            time,
            node,
            block,
            from: StateTag::Dir(pre),
            to: StateTag::Dir(post),
            input,
            ext: fired.filter(|_| input != TraceInput::Crash),
        });
    }

    fn owner_of(&self, block: BlockAddr) -> Option<NodeId> {
        match self.entries.get(block).map(|e| e.state) {
            Some(DirState::Modified(n)) => Some(n),
            _ => None,
        }
    }

    fn drain_queue(
        &mut self,
        block: BlockAddr,
        actions: &mut Vec<DirAction>,
    ) -> Result<(), ProtocolError> {
        loop {
            let next = {
                let e = self.entry(block);
                if e.pending.is_some() {
                    return Ok(());
                }
                e.waiting.pop_front()
            };
            match next {
                Some((src, kind)) => self.process_request(src, block, kind, actions)?,
                None => return Ok(()),
            }
        }
    }

    fn process_request(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        kind: MsgKind,
        actions: &mut Vec<DirAction>,
    ) -> Result<(), ProtocolError> {
        let pre = self.pre_tag(block);
        let r = self.dispatch_request(src, block, kind, actions);
        self.trace_dir(src, block, pre, TraceInput::Msg(kind.into()));
        r
    }

    fn dispatch_request(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        kind: MsgKind,
        actions: &mut Vec<DirAction>,
    ) -> Result<(), ProtocolError> {
        match kind {
            MsgKind::ReadReq { .. } => self.read_req(src, block, actions),
            MsgKind::OwnReq { need_data } => self.own_req(src, block, need_data, actions),
            MsgKind::UpdateReq { dirty_words } => self.update_req(src, block, dirty_words, actions),
            MsgKind::WritebackReq { written } => {
                if self.owner_of(block) == Some(src) {
                    self.stats.writebacks += 1;
                    self.apply_writeback(src, block, written);
                } else {
                    // Duplicate writeback: the original already cleared
                    // ownership. Acknowledge idempotently.
                    self.stats.stale_drops += 1;
                }
                actions.push(DirAction {
                    dst: src,
                    kind: MsgKind::WritebackAck,
                });
            }
            _ => {
                return Err(ProtocolError::UnexpectedMessage {
                    src,
                    block,
                    kind,
                    context: "home request",
                })
            }
        }
        Ok(())
    }

    fn read_req(&mut self, src: NodeId, block: BlockAddr, actions: &mut Vec<DirAction>) {
        let state = self.entry(block).state;
        match state {
            DirState::Clean => {
                self.stats.reads_clean += 1;
                // BASIC grants a shared copy; extensions (migratory,
                // exclusive-clean) may upgrade the grant.
                let grant = self.with_entry_exts(block, |e, exts, stats| exts.read_clean(e, stats));
                let outcome = {
                    let e = self.entry(block);
                    let outcome = e.sharers.add(src);
                    if grant.exclusive {
                        e.state = DirState::Modified(src);
                        if grant.record_writer {
                            e.last_writer = Some(src);
                        }
                    }
                    outcome
                };
                actions.push(DirAction {
                    dst: src,
                    kind: MsgKind::ReadReply {
                        exclusive: grant.exclusive,
                    },
                });
                self.note_add_outcome(block, outcome, actions);
            }
            DirState::Modified(owner) if owner == src => {
                // The owner's writeback is still in flight: NACK so the
                // cache retries after a backoff, instead of blocking the
                // entry on a message that injected faults may have delayed
                // arbitrarily (or lost — then the retry budget, not this
                // entry, bounds the damage).
                self.stats.nacks_sent += 1;
                actions.push(DirAction {
                    dst: src,
                    kind: MsgKind::Nack,
                });
            }
            DirState::Modified(owner) => {
                self.stats.reads_dirty += 1;
                // BASIC fetches the dirty copy; the migratory extension
                // redirects to a fetch-invalidate that passes the block on.
                let mode = self.with_entry_exts(block, |e, exts, _| exts.read_modified(e));
                let (fetch, pkind) = match mode {
                    ReadFetch::Invalidating => (MsgKind::FetchInval, PendingKind::FetchMigRead),
                    ReadFetch::Plain => (MsgKind::Fetch, PendingKind::FetchRead),
                };
                actions.push(DirAction {
                    dst: owner,
                    kind: fetch,
                });
                self.entry(block).pending = Some(Pending::fetch(pkind, src, owner));
            }
        }
    }

    /// Applies the side effects of a sharer-set [`AddOutcome`]: counts a
    /// Dir_i_B overflow, or opens the Dir_i_NB pointer recall — an `Inval`
    /// to the evicted victim plus an `Evicting` pending that holds the
    /// entry (queueing subsequent requests) until the victim acknowledges,
    /// so the recalled copy can never be read stale past a later ownership
    /// transfer.
    fn note_add_outcome(
        &mut self,
        block: BlockAddr,
        outcome: AddOutcome,
        actions: &mut Vec<DirAction>,
    ) {
        match outcome {
            AddOutcome::Tracked => {}
            AddOutcome::Overflowed => self.stats.dir_overflows += 1,
            AddOutcome::Evicted(victim) => {
                self.stats.dir_overflows += 1;
                self.stats.dir_recalls += 1;
                actions.push(DirAction {
                    dst: victim,
                    kind: MsgKind::Inval,
                });
                let mut awaiting = AckMask::empty(self.nprocs, &mut self.mask_pool);
                awaiting.set(victim);
                let e = self.entry(block);
                debug_assert!(e.pending.is_none(), "recall while an operation is open");
                debug_assert_eq!(e.state, DirState::Clean, "recall from a non-CLEAN entry");
                e.pending = Some(Pending {
                    kind: PendingKind::Evicting,
                    requester: victim,
                    target: None,
                    awaiting,
                    keep_votes: false,
                    fanout: FanoutClass::Exact,
                    abort: false,
                });
            }
        }
    }

    fn own_req(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        need_data: bool,
        actions: &mut Vec<DirAction>,
    ) {
        self.stats.own_reqs += 1;
        // Sharing-pattern detection (the migratory extension watches
        // ownership requests arriving on read-shared blocks).
        self.with_entry_exts(block, |e, exts, stats| exts.on_own_lookup(e, src, stats));
        let state = self.entry(block).state;
        match state {
            DirState::Clean => {
                // Data may be elided only on `certainly_contains`: with an
                // exact set, a copy invalidated while this request was in
                // flight is also *removed* from the set, so membership at
                // processing time proves the copy survived. An inexact set
                // cannot distinguish "still holds it" from spurious
                // coverage (the requester's copy may have died to a
                // broadcast wave after it sent `need_data: false`), so the
                // grant must carry data.
                let had_copy = self.entry(block).sharers.certainly_contains(src);
                let with_data = !had_copy || need_data;
                let invalidating = PendingKind::Invalidating { with_data };
                let (sent, fanout) = self.fan_out(
                    block,
                    Some(src),
                    MsgKind::Inval,
                    invalidating,
                    src,
                    false,
                    actions,
                );
                if sent == 0 {
                    self.grant_exclusive(block, src);
                    actions.push(DirAction {
                        dst: src,
                        kind: MsgKind::OwnAck { with_data },
                    });
                } else {
                    self.stats.invals_sent += sent;
                    if fanout == FanoutClass::Broadcast {
                        self.stats.dir_broadcasts += 1;
                    }
                }
            }
            DirState::Modified(owner) if owner == src => {
                // Owner re-write racing its own in-flight writeback: NACK
                // and let the cache retry (see `read_req`).
                self.stats.nacks_sent += 1;
                actions.push(DirAction {
                    dst: src,
                    kind: MsgKind::Nack,
                });
            }
            DirState::Modified(owner) => {
                actions.push(DirAction {
                    dst: owner,
                    kind: MsgKind::FetchInval,
                });
                self.entry(block).pending = Some(Pending::fetch(PendingKind::FetchOwn, src, owner));
            }
        }
    }

    fn update_req(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        dirty_words: u8,
        actions: &mut Vec<DirAction>,
    ) {
        self.stats.update_reqs += 1;
        let state = self.entry(block).state;
        match state {
            DirState::Modified(owner) if owner == src => {
                // A stale write-cache entry for a block we now own
                // exclusively: the owner's copy is newer, nothing to do.
                actions.push(DirAction {
                    dst: src,
                    kind: MsgKind::UpdateDone { exclusive: false },
                });
            }
            DirState::Modified(owner) => {
                self.stats.update_recalls += 1;
                actions.push(DirAction {
                    dst: owner,
                    kind: MsgKind::FetchInval,
                });
                let recall = PendingKind::RecallForUpdate { dirty_words };
                self.entry(block).pending = Some(Pending::fetch(recall, src, owner));
            }
            DirState::Clean => {
                // BASIC-CW fans the update out; the migratory extension
                // composed with CW reroutes through an interrogation round.
                let route = self.with_entry_exts(block, |e, exts, _| exts.update_route(e, src));
                if route == UpdateRoute::Interrogate {
                    // The M hook only routes here when the sharer count is
                    // exactly known (> 1), so this fan-out is always exact.
                    self.stats.interrogations += 1;
                    let interrogating = PendingKind::Interrogating { dirty_words };
                    let (sent, _) = self.fan_out(
                        block,
                        None,
                        MsgKind::Interrogate,
                        interrogating,
                        src,
                        false,
                        actions,
                    );
                    if sent > 0 {
                        return;
                    }
                    // Every interrogation target was purged: nobody is left
                    // to vote, fall through to the plain fan-out.
                }
                self.start_update_fanout(src, block, dirty_words, actions);
            }
        }
    }

    fn start_update_fanout(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        dirty_words: u8,
        actions: &mut Vec<DirAction>,
    ) {
        let e = self.entry(block);
        e.last_updater = Some(src);
        e.last_writer = Some(src);
        let update = MsgKind::Update { dirty_words };
        let (sent, fanout) = self.fan_out(
            block,
            Some(src),
            update,
            PendingKind::Updating,
            src,
            false,
            actions,
        );
        if sent == 0 {
            actions.push(DirAction {
                dst: src,
                kind: self.finish_update(src, block),
            });
        } else {
            self.stats.updates_sent += sent;
            if fanout == FanoutClass::Broadcast {
                self.stats.dir_broadcasts += 1;
            }
        }
    }

    /// Sends `msg` to every live node `block`'s sharer set covers, except
    /// `except`, in ascending node order, and opens a `kind` operation for
    /// `requester` on their acknowledgments — only when at least one target
    /// was live. Returns the number of targets and how the fan-out related
    /// to the true sharers; the callers keep their own counters.
    #[allow(clippy::too_many_arguments)]
    fn fan_out(
        &mut self,
        block: BlockAddr,
        except: Option<NodeId>,
        msg: MsgKind,
        kind: PendingKind,
        requester: NodeId,
        abort: bool,
        actions: &mut Vec<DirAction>,
    ) -> (u64, FanoutClass) {
        let DirCtrl {
            nprocs,
            entries,
            mask_pool,
            org,
            dead,
            ..
        } = self;
        let e = entries.get_or_insert_with(block, || DirEntry::new(*org));
        let fanout = e.sharers.fanout_class();
        let mut awaiting = AckMask::empty(*nprocs, mask_pool);
        let mut sent = 0u64;
        e.sharers.for_each_target(*nprocs, except, |t| {
            // A purged node holds no copy and would never ack.
            if dead[t.idx()] {
                return;
            }
            actions.push(DirAction { dst: t, kind: msg });
            awaiting.set(t);
            sent += 1;
        });
        if sent == 0 {
            awaiting.recycle(mask_pool);
        } else {
            e.pending = Some(Pending {
                kind,
                requester,
                target: None,
                awaiting,
                keep_votes: false,
                fanout,
                abort,
            });
        }
        (sent, fanout)
    }

    /// Makes `requester` the exclusive owner of `block`: the sharer set
    /// collapses to exactly `{requester}`, and M records the writer.
    fn grant_exclusive(&mut self, block: BlockAddr, requester: NodeId) {
        let e = self.entry(block);
        e.sharers.clear();
        let _ = e.sharers.add(requester);
        e.state = DirState::Modified(requester);
        e.last_writer = Some(requester);
    }

    /// Completes an update with no remaining third-party copies. If the
    /// writer itself still holds a copy, the home grants it exclusive
    /// ownership so that further writes to the (now effectively private)
    /// block need no protocol transactions — the competitive-update
    /// protocol degenerates gracefully to write-invalidate.
    fn finish_update(&mut self, writer: NodeId, block: BlockAddr) -> MsgKind {
        let e = self.entry(block);
        debug_assert_eq!(e.state, DirState::Clean);
        // Exclusivity demands certainty: an inexact organization never
        // answers `sole_sharer`, so CW simply keeps updating under it.
        if e.sharers.sole_sharer(writer) {
            e.state = DirState::Modified(writer);
            e.last_writer = Some(writer);
            MsgKind::UpdateDone { exclusive: true }
        } else {
            MsgKind::UpdateDone { exclusive: false }
        }
    }

    /// Applies an owner's writeback; callers verify `src` is the owner
    /// (duplicate writebacks from past owners are filtered upstream).
    fn apply_writeback(&mut self, src: NodeId, block: BlockAddr, written: bool) {
        {
            let e = self.entry(block);
            debug_assert_eq!(e.state, DirState::Modified(src), "writeback from non-owner");
            e.state = DirState::Clean;
            e.sharers.clear();
        }
        // Self-correction: the migratory extension reverts the
        // classification when the holder never wrote the block.
        self.with_entry_exts(block, |e, exts, stats| exts.on_writeback(e, written, stats));
    }

    /// Completes a Fetch/FetchInval-style pending operation once the data
    /// (fetch reply or crossing writeback) arrives from `from`.
    ///
    /// `reply` is the wire message for actual fetch replies (checked
    /// against the pending kind so a stale duplicate can never complete a
    /// newer mismatched operation) and `None` for a crossing writeback,
    /// which legitimately completes any fetch kind. Anything that does not
    /// line up — no pending op, wrong target, wrong reply kind — is a
    /// stale duplicate: dropped and counted, never applied.
    fn complete_fetch(
        &mut self,
        from: NodeId,
        block: BlockAddr,
        reply: Option<MsgKind>,
        written: bool,
        owner_retains: bool,
        actions: &mut Vec<DirAction>,
    ) -> Result<(), ProtocolError> {
        let (pkind, requester, ptarget, aborted) = match self.entry(block).pending.as_ref() {
            Some(p) => (p.kind, p.requester, p.target, p.abort),
            None => {
                self.stats.stale_drops += 1;
                return Ok(());
            }
        };
        let kind_matches = match reply {
            None => true,
            Some(r) => reply_matches(r, pkind),
        };
        if ptarget != Some(from) || !kind_matches {
            self.stats.stale_drops += 1;
            return Ok(());
        }
        if aborted {
            // The requester died while the fetch was in flight: take the
            // data home (the machine layer already merged the version) but
            // grant nothing. The old owner keeps a shared copy only if the
            // reply was a downgrade rather than an invalidation.
            let e = self.entry(block);
            e.state = DirState::Clean;
            e.sharers.remove(from);
            if owner_retains {
                let _ = e.sharers.add(from);
            }
            self.stats.aborted_grants += 1;
            self.take_pending(block);
            return Ok(());
        }
        // A deferred Dir_i_NB recall: the downgrade re-add below may
        // overflow the pointers, but its eviction pending can only open
        // once this fetch's pending is retired.
        let mut deferred = AddOutcome::Tracked;
        match pkind {
            PendingKind::FetchRead => {
                let e = self.entry(block);
                e.state = DirState::Clean;
                e.sharers.remove(from);
                if owner_retains {
                    // The old owner downgraded to a shared copy.
                    let _ = e.sharers.add(from);
                }
                deferred = e.sharers.add(requester);
                actions.push(DirAction {
                    dst: requester,
                    kind: MsgKind::ReadReply { exclusive: false },
                });
            }
            PendingKind::FetchMigRead => {
                self.entry(block).sharers.remove(from);
                // An unwritten migratory fetch asks the extension whether
                // the classification should self-correct.
                let revert = !written && self.exts.unwritten_migratory_fetch();
                if revert {
                    // The previous holder never wrote: the pattern changed;
                    // revert to ordinary read sharing.
                    let e = self.entry(block);
                    e.migratory = false;
                    e.state = DirState::Clean;
                    e.sharers.clear();
                    let _ = e.sharers.add(requester);
                    self.stats.migratory_reverts += 1;
                    actions.push(DirAction {
                        dst: requester,
                        kind: MsgKind::ReadReply { exclusive: false },
                    });
                } else {
                    // Written (the usual hand-off) or reversion disabled
                    // (ablation): pass the block on exclusively,
                    // invalidations and all.
                    self.grant_exclusive(block, requester);
                    self.stats.exclusive_grants += 1;
                    actions.push(DirAction {
                        dst: requester,
                        kind: MsgKind::ReadReply { exclusive: true },
                    });
                }
            }
            PendingKind::FetchOwn => {
                self.grant_exclusive(block, requester);
                actions.push(DirAction {
                    dst: requester,
                    kind: MsgKind::OwnAck { with_data: true },
                });
            }
            PendingKind::RecallForUpdate { dirty_words } => {
                let e = self.entry(block);
                e.state = DirState::Clean;
                e.sharers.clear();
                if e.migratory {
                    e.migratory = false;
                    self.stats.migratory_reverts += 1;
                }
                self.take_pending(block);
                self.start_update_fanout(requester, block, dirty_words, actions);
                return Ok(());
            }
            // Fan-out pendings never set `target`, so the guard above
            // already rejected them as stale.
            PendingKind::Invalidating { .. }
            | PendingKind::Updating
            | PendingKind::Interrogating { .. }
            | PendingKind::Evicting => {
                self.stats.stale_drops += 1;
                return Ok(());
            }
        }
        self.take_pending(block);
        self.note_add_outcome(block, deferred, actions);
        Ok(())
    }

    /// Collects `src`'s acknowledgment for `block`'s pending operation of
    /// a kind `pred` selects. Without such an operation, or without an
    /// outstanding bit for `src`, the ack is stale: counted and dropped.
    /// Otherwise `drops_copy` removes `src` from the sharer set, `keep`
    /// records a CW+M keep vote and the bit clears; the last ack retires
    /// the operation and hands it back, its wide mask already recycled.
    fn collect_ack(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        pred: fn(PendingKind) -> bool,
        drops_copy: bool,
        keep: bool,
    ) -> Option<Pending> {
        let e = self.entry(block);
        let Some(p) = e
            .pending
            .as_mut()
            .filter(|p| pred(p.kind) && p.awaiting.test(src))
        else {
            self.stats.stale_drops += 1;
            return None;
        };
        if drops_copy {
            e.sharers.remove(src);
        }
        p.keep_votes |= keep;
        p.awaiting.clear(src);
        if !p.awaiting.is_empty() {
            return None;
        }
        self.take_pending(block)
    }

    fn process_reply(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        kind: MsgKind,
        actions: &mut Vec<DirAction>,
    ) -> Result<(), ProtocolError> {
        let pre = self.pre_tag(block);
        let r = self.dispatch_reply(src, block, kind, actions);
        self.trace_dir(src, block, pre, TraceInput::Msg(kind.into()));
        r
    }

    fn dispatch_reply(
        &mut self,
        src: NodeId,
        block: BlockAddr,
        kind: MsgKind,
        actions: &mut Vec<DirAction>,
    ) -> Result<(), ProtocolError> {
        match kind {
            MsgKind::InvalAck => {
                let pred =
                    |k| matches!(k, PendingKind::Evicting | PendingKind::Invalidating { .. });
                let Some(p) = self.collect_ack(src, block, pred, true, false) else {
                    return Ok(());
                };
                match p.kind {
                    // A recall ack retires a Dir_i_NB eviction silently.
                    PendingKind::Evicting => {}
                    // Every covered copy is now invalidated but the
                    // requester died (or this was a purge sweep): the set
                    // collapses to exactly-empty and the entry stays CLEAN
                    // with nothing granted.
                    _ if p.abort => {
                        self.entry(block).sharers.clear();
                        self.stats.aborted_grants += 1;
                    }
                    PendingKind::Invalidating { with_data } => {
                        self.grant_exclusive(block, p.requester);
                        actions.push(DirAction {
                            dst: p.requester,
                            kind: MsgKind::OwnAck { with_data },
                        });
                    }
                    _ => unreachable!("selected by collect_ack"),
                }
            }
            MsgKind::FetchReply { written } => {
                self.complete_fetch(src, block, Some(kind), written, true, actions)?;
            }
            MsgKind::FetchInvalReply { written } => {
                self.complete_fetch(src, block, Some(kind), written, false, actions)?;
            }
            MsgKind::UpdateAck { invalidated } => {
                let pred = |k| matches!(k, PendingKind::Updating);
                let Some(p) = self.collect_ack(src, block, pred, invalidated, false) else {
                    return Ok(());
                };
                if p.abort {
                    // The writer died mid-fan-out: the updates were
                    // applied (or the copies invalidated), nothing to
                    // grant and nobody to tell.
                    self.stats.aborted_grants += 1;
                } else {
                    let done = self.finish_update(p.requester, block);
                    actions.push(DirAction {
                        dst: p.requester,
                        kind: done,
                    });
                }
            }
            MsgKind::InterrogateReply { keep } => {
                let pred = |k| matches!(k, PendingKind::Interrogating { .. });
                let Some(p) = self.collect_ack(src, block, pred, !keep, keep) else {
                    return Ok(());
                };
                let PendingKind::Interrogating { dirty_words } = p.kind else {
                    unreachable!("selected by collect_ack")
                };
                if p.abort {
                    // The interrogating writer died: the votes are moot
                    // and no update follows.
                    self.stats.aborted_grants += 1;
                    return Ok(());
                }
                if !p.keep_votes {
                    // "For the block to be deemed migratory, all caches
                    // must give up their copies."
                    self.entry(block).migratory = true;
                    self.stats.migratory_detections += 1;
                }
                self.start_update_fanout(p.requester, block, dirty_words, actions);
            }
            other => {
                return Err(ProtocolError::UnexpectedMessage {
                    src,
                    block,
                    kind: other,
                    context: "home reply",
                })
            }
        }
        Ok(())
    }

    // ----------------------------------------------------- crash recovery

    /// Enables the Recovery rule layer for conformance replay (called once
    /// when a node-fault plan is installed, so fault-free runs keep the
    /// stricter rule set).
    pub fn enable_recovery(&mut self) {
        self.recovery = true;
    }

    /// Marks node `n` dead (reconstruction) or live again (re-admission).
    /// While dead, fan-outs skip the node: it holds no copies and sends no
    /// acknowledgments.
    pub fn set_node_dead(&mut self, n: NodeId, dead: bool) {
        self.dead[n.idx()] = dead;
    }

    /// Epoch-fenced directory reconstruction after node `n` crashed.
    ///
    /// Call [`DirCtrl::set_node_dead`] first; then, for every block this
    /// directory has an entry for (ascending order, so the purge is
    /// deterministic):
    ///
    /// 1. queued requests from the dead node are discarded;
    /// 2. a pending operation *requested by* the dead node is marked
    ///    aborted — it still collects its acknowledgments, but completes
    ///    without granting anything;
    /// 3. a pending fetch *targeting* the dead node is completed
    ///    synthetically (the reply will never come): the requester is
    ///    served from memory's last-written value;
    /// 4. an outstanding-ack bit held by the dead node is cleared by
    ///    synthesizing the acknowledgment it can no longer send;
    /// 5. a MODIFIED entry owned by the dead node reverts to CLEAN — the
    ///    dirty line is gone, memory's last-written value stands (the
    ///    machine layer records the modeled data loss);
    /// 6. the dead node is removed from the sharer set: surgically under an
    ///    exact representation, via an invalidation sweep of the covered
    ///    live copies under an inexact one (restoring exactness as a
    ///    side effect).
    ///
    /// # Errors
    ///
    /// Propagates a [`ProtocolError`] from a synthesized completion — a
    /// protocol bug, exactly as it would be on the live path.
    pub fn purge_node(
        &mut self,
        n: NodeId,
        out: &mut Vec<(BlockAddr, DirAction)>,
    ) -> Result<(), ProtocolError> {
        debug_assert!(self.dead[n.idx()], "purging a node not marked dead");
        let blocks: Vec<BlockAddr> = self.entries.keys().collect();
        // Unlike `handle_into`, a purge spans many blocks, so each action
        // is returned tagged with the block it belongs to.
        let mut actions: Vec<DirAction> = Vec::new();
        for block in blocks {
            // 1+2: drop the dead node's queued requests, abort its pending.
            {
                let e = self.entry(block);
                let before = e.waiting.len();
                e.waiting.retain(|(s, _)| *s != n);
                let dropped = (before - e.waiting.len()) as u64;
                if let Some(p) = e.pending.as_mut() {
                    if p.requester == n {
                        p.abort = true;
                    }
                }
                self.stats.stale_drops += dropped;
            }
            // 3: a fetch whose target died completes synthetically, as if a
            // crossing unwritten writeback arrived.
            let target_died = matches!(
                self.entries.get(block).and_then(|e| e.pending.as_ref()),
                Some(p) if p.target == Some(n)
            );
            if target_died {
                let pre = self.pre_tag(block);
                self.complete_fetch(n, block, None, false, false, &mut actions)?;
                self.trace_dir(n, block, pre, TraceInput::Crash);
            }
            // 4: synthesize the acknowledgment the dead node can no longer
            // send, so the fan-out completes (or aborts) normally.
            let synth = match self.entries.get(block).and_then(|e| e.pending.as_ref()) {
                Some(p) if p.awaiting.test(n) => match p.kind {
                    PendingKind::Invalidating { .. } | PendingKind::Evicting => {
                        Some(MsgKind::InvalAck)
                    }
                    PendingKind::Updating => Some(MsgKind::UpdateAck { invalidated: true }),
                    PendingKind::Interrogating { .. } => {
                        Some(MsgKind::InterrogateReply { keep: false })
                    }
                    // Fetch-style pendings never set awaiting bits.
                    _ => None,
                },
                _ => None,
            };
            if let Some(kind) = synth {
                let pre = self.pre_tag(block);
                self.dispatch_reply(n, block, kind, &mut actions)?;
                self.trace_dir(n, block, pre, TraceInput::Crash);
            }
            // 5: reclaim an orphaned dirty line.
            if self.owner_of(block) == Some(n)
                && self.entries.get(block).is_some_and(|e| e.pending.is_none())
            {
                let pre = self.pre_tag(block);
                self.apply_writeback(n, block, false);
                self.stats.orphan_reclaims += 1;
                self.trace_dir(n, block, pre, TraceInput::Crash);
            }
            // 6: purge the sharer set.
            let needs_purge = self
                .entries
                .get(block)
                .is_some_and(|e| e.sharers.may_contain(n));
            if needs_purge {
                let exact = self.entry(block).sharers.exact_count().is_some();
                if exact {
                    let contained = {
                        let e = self.entry(block);
                        let c = e.sharers.certainly_contains(n);
                        e.sharers.remove(n);
                        c
                    };
                    if contained {
                        self.stats.purged_sharers += 1;
                    }
                } else if matches!(self.entry(block).state, DirState::Clean)
                    && self.entry(block).pending.is_none()
                {
                    // The set cannot name its members: recall every covered
                    // live copy. When the sweep drains, the set is exactly
                    // empty and no longer covers the dead node.
                    let pre = self.pre_tag(block);
                    let sweep = PendingKind::Invalidating { with_data: false };
                    let (sent, _) =
                        self.fan_out(block, Some(n), MsgKind::Inval, sweep, n, true, &mut actions);
                    if sent == 0 {
                        // Nothing live is covered: collapse directly.
                        self.entry(block).sharers.clear();
                    } else {
                        self.stats.invals_sent += sent;
                        self.stats.purge_sweeps += 1;
                        self.trace_dir(n, block, pre, TraceInput::Crash);
                    }
                }
                // Inexact with a MODIFIED owner or an open operation: the
                // over-approximation is sound (the dead node holds no copy)
                // and fan-outs skip dead targets; the set collapses to
                // exact on the next writeback or completion.
            }
            // Synthesized completions may have unblocked queued requests.
            self.drain_queue(block, &mut actions)?;
            out.extend(actions.drain(..).map(|a| (block, a)));
        }
        Ok(())
    }
}

/// Whether a fetch-style reply kind is the one the pending op is waiting
/// for (`Fetch` elicits `FetchReply`; `FetchInval` elicits
/// `FetchInvalReply`).
fn reply_matches(reply: MsgKind, pending: PendingKind) -> bool {
    match pending {
        PendingKind::FetchRead => matches!(reply, MsgKind::FetchReply { .. }),
        PendingKind::FetchMigRead | PendingKind::FetchOwn | PendingKind::RecallForUpdate { .. } => {
            matches!(reply, MsgKind::FetchInvalReply { .. })
        }
        PendingKind::Invalidating { .. }
        | PendingKind::Updating
        | PendingKind::Interrogating { .. }
        | PendingKind::Evicting => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 16;

    /// Test shorthand: `handle` with the error case unwrapped (no test in
    /// this module drives the controller into a `ProtocolError`).
    trait HandleOk {
        fn h(&mut self, src: NodeId, block: BlockAddr, kind: MsgKind) -> Vec<DirAction>;
    }

    impl HandleOk for DirCtrl {
        fn h(&mut self, src: NodeId, block: BlockAddr, kind: MsgKind) -> Vec<DirAction> {
            self.handle(src, block, kind).unwrap()
        }
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    /// A full-map controller with BASIC plus the given extensions.
    fn dir_with(p: ProtocolConfig) -> DirCtrl {
        DirCtrl::with_exts(N, Exts::from_protocol(&p))
    }

    /// Shorthand: assert a single action with the given destination+kind.
    fn assert_single(actions: &[DirAction], dst: NodeId, kind: MsgKind) {
        assert_eq!(actions, &[DirAction { dst, kind }]);
    }

    #[test]
    fn read_clean_block_two_hop() {
        let mut dir = DirCtrl::new(N, false, false);
        let a = dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
        let (owner, presence, mig) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, 1 << 2);
        assert!(!mig);
        assert_eq!(dir.stats().reads_clean, 1);
    }

    #[test]
    fn write_miss_with_no_sharers_gets_data() {
        let mut dir = DirCtrl::new(N, false, false);
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        assert_single(&a, n(1), MsgKind::OwnAck { with_data: true });
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(1)));
    }

    #[test]
    fn upgrade_from_shared_without_data() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        assert_single(&a, n(1), MsgKind::OwnAck { with_data: false });
    }

    #[test]
    fn ownership_invalidates_all_sharers_then_acks() {
        let mut dir = DirCtrl::new(N, false, false);
        for i in [1u16, 2, 3] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        // Invalidations to 2 and 3 only.
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|x| x.kind == MsgKind::Inval));
        let dsts: Vec<_> = a.iter().map(|x| x.dst).collect();
        assert!(dsts.contains(&n(2)) && dsts.contains(&n(3)));
        // First ack: nothing yet.
        assert!(dir.h(n(2), b(0), MsgKind::InvalAck).is_empty());
        // Second ack completes the ownership transfer.
        let a = dir.h(n(3), b(0), MsgKind::InvalAck);
        assert_single(&a, n(1), MsgKind::OwnAck { with_data: false });
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, Some(n(1)));
        assert_eq!(presence, 1 << 1);
        assert_eq!(dir.stats().invals_sent, 2);
    }

    #[test]
    fn read_of_dirty_block_is_four_hop_through_home() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        let a = dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::Fetch);
        let a = dir.h(n(1), b(0), MsgKind::FetchReply { written: true });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
        // Both the old owner and the requester now share the block.
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, (1 << 1) | (1 << 2));
        assert_eq!(dir.stats().reads_dirty, 1);
    }

    #[test]
    fn requests_queue_behind_transient_state() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        // Node 1 requests ownership -> invalidation of node 2 pending.
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        assert!(dir.has_pending());
        // Node 3's read must queue.
        let a = dir.h(n(3), b(0), MsgKind::ReadReq { prefetch: false });
        assert!(a.is_empty());
        // The ack completes ownership AND services the queued read: the
        // block is now dirty at node 1, so home fetches it.
        let a = dir.h(n(2), b(0), MsgKind::InvalAck);
        assert_eq!(a.len(), 2);
        assert_eq!(
            a[0],
            DirAction {
                dst: n(1),
                kind: MsgKind::OwnAck { with_data: false }
            }
        );
        assert_eq!(
            a[1],
            DirAction {
                dst: n(1),
                kind: MsgKind::Fetch
            }
        );
    }

    #[test]
    fn writeback_clears_ownership() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        let a = dir.h(n(1), b(0), MsgKind::WritebackReq { written: true });
        assert_single(&a, n(1), MsgKind::WritebackAck);
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, 0);
    }

    #[test]
    fn writeback_crossing_fetch_completes_the_read() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        // Node 1's writeback races with the Fetch we just sent it.
        let a = dir.h(n(1), b(0), MsgKind::WritebackReq { written: true });
        assert_eq!(a.len(), 2);
        assert_eq!(
            a[0],
            DirAction {
                dst: n(1),
                kind: MsgKind::WritebackAck
            }
        );
        assert_eq!(
            a[1],
            DirAction {
                dst: n(2),
                kind: MsgKind::ReadReply { exclusive: false }
            }
        );
    }

    #[test]
    fn writeback_crossing_fetch_leaves_no_stale_presence_bit() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        // The owner's writeback crosses the Fetch: node 1 gave up its copy,
        // so only the requester may appear in the presence vector.
        dir.h(n(1), b(0), MsgKind::WritebackReq { written: true });
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, 1 << 2, "old owner must not be re-added");
    }

    #[test]
    fn owner_rereading_after_writeback_in_flight_is_nacked() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        // Owner replaced the block and immediately re-reads; the read
        // arrives first and is NACKed (the cache retries after backoff).
        let a = dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::Nack);
        assert_eq!(dir.stats().nacks_sent, 1);
        // The writeback lands; the retried read then succeeds normally.
        let a = dir.h(n(1), b(0), MsgKind::WritebackReq { written: true });
        assert_single(&a, n(1), MsgKind::WritebackAck);
        let a = dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::ReadReply { exclusive: false });
    }

    #[test]
    fn owner_rewriting_after_writeback_in_flight_is_nacked() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        assert_single(&a, n(1), MsgKind::Nack);
        dir.h(n(1), b(0), MsgKind::WritebackReq { written: true });
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        assert_single(&a, n(1), MsgKind::OwnAck { with_data: true });
    }

    // ------------------------------------------- duplicate/stale tolerance

    #[test]
    fn duplicate_inval_ack_is_dropped() {
        let mut dir = DirCtrl::new(N, false, false);
        for i in [1u16, 2, 3] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        assert!(dir.h(n(2), b(0), MsgKind::InvalAck).is_empty());
        // A replay of node 2's ack must not complete the transfer early.
        assert!(dir.h(n(2), b(0), MsgKind::InvalAck).is_empty());
        assert_eq!(dir.stats().stale_drops, 1);
        let a = dir.h(n(3), b(0), MsgKind::InvalAck);
        assert_single(&a, n(1), MsgKind::OwnAck { with_data: false });
    }

    #[test]
    fn duplicate_fetch_reply_is_dropped() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        let a = dir.h(n(1), b(0), MsgKind::FetchReply { written: true });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
        // The replayed reply finds no pending op: dropped, state intact.
        let a = dir.h(n(1), b(0), MsgKind::FetchReply { written: true });
        assert!(a.is_empty());
        assert_eq!(dir.stats().stale_drops, 1);
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, (1 << 1) | (1 << 2));
    }

    #[test]
    fn duplicate_writeback_is_acked_idempotently() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        dir.h(n(1), b(0), MsgKind::WritebackReq { written: true });
        // Node 2 becomes the new owner; then node 1's writeback is replayed.
        dir.h(n(2), b(0), MsgKind::OwnReq { need_data: true });
        let a = dir.h(n(1), b(0), MsgKind::WritebackReq { written: true });
        assert_single(&a, n(1), MsgKind::WritebackAck);
        assert_eq!(dir.stats().stale_drops, 1);
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(2)), "owner intact");
    }

    #[test]
    fn mismatched_fetch_reply_kind_is_dropped() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        // Pending is FetchRead (a plain Fetch went out); a stray
        // FetchInvalReply must not complete it with invalidate semantics.
        let a = dir.h(n(1), b(0), MsgKind::FetchInvalReply { written: true });
        assert!(a.is_empty());
        assert_eq!(dir.stats().stale_drops, 1);
        let a = dir.h(n(1), b(0), MsgKind::FetchReply { written: true });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
    }

    #[test]
    fn unexpected_message_is_a_structured_error() {
        let mut dir = DirCtrl::new(N, false, false);
        let err = dir
            .handle(n(1), b(0), MsgKind::ReadReply { exclusive: false })
            .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::UnexpectedMessage { src, .. } if src == n(1)
        ));
        assert!(err.to_string().contains("ReadReply"));
    }

    #[test]
    fn pending_ops_reports_transient_blocks() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        let ops = dir.pending_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, b(0));
        assert!(ops[0].1.contains("FetchRead"));
    }

    #[test]
    fn shared_repl_hint_clears_presence_and_prevents_inval() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(2), b(0), MsgKind::SharedReplHint);
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        // No sharers besides node 1 remain: immediate ack, no invalidation.
        assert_single(&a, n(1), MsgKind::OwnAck { with_data: false });
        assert_eq!(dir.stats().invals_sent, 0);
    }

    // ------------------------------------------------------- migratory (M)

    /// Drives the canonical migratory pattern: node i read-misses then
    /// requests ownership, in turn.
    fn migratory_turn(dir: &mut DirCtrl, i: NodeId, block: BlockAddr) -> Vec<DirAction> {
        let mut all = dir.h(i, block, MsgKind::ReadReq { prefetch: false });
        // Resolve any fetch the home sent.
        let fetches: Vec<_> = all
            .iter()
            .filter(|a| matches!(a.kind, MsgKind::Fetch | MsgKind::FetchInval))
            .copied()
            .collect();
        for f in fetches {
            let reply = match f.kind {
                MsgKind::Fetch => MsgKind::FetchReply { written: true },
                MsgKind::FetchInval => MsgKind::FetchInvalReply { written: true },
                _ => unreachable!(),
            };
            all.extend(dir.h(f.dst, block, reply));
        }
        // If the reply was shared, the node writes: ownership request.
        if all
            .iter()
            .any(|a| a.kind == MsgKind::ReadReply { exclusive: false })
        {
            let own = dir.h(i, block, MsgKind::OwnReq { need_data: false });
            for a in &own {
                if a.kind == MsgKind::Inval {
                    all.extend(dir.h(a.dst, block, MsgKind::InvalAck));
                }
            }
            all.extend(own);
        }
        all
    }

    #[test]
    fn migratory_detection_after_two_read_write_sequences() {
        let mut dir = DirCtrl::new(N, true, false);
        migratory_turn(&mut dir, n(0), b(0)); // node 0 reads + writes
        assert!(!dir.snapshot(b(0)).unwrap().2);
        migratory_turn(&mut dir, n(1), b(0)); // node 1 reads + writes
        assert!(dir.snapshot(b(0)).unwrap().2, "block must be migratory now");
        assert_eq!(dir.stats().migratory_detections, 1);
        // Third turn: node 2's read gets an exclusive copy directly.
        let a = dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::FetchInval);
        let a = dir.h(n(1), b(0), MsgKind::FetchInvalReply { written: true });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: true });
        // ...and node 2's subsequent write needs NO ownership request:
        // that's the optimization. (The cache layer verifies silent
        // promotion; here we check the directory granted exclusivity.)
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(2)));
    }

    #[test]
    fn migratory_reverts_when_holder_never_writes() {
        let mut dir = DirCtrl::new(N, true, false);
        migratory_turn(&mut dir, n(0), b(0));
        migratory_turn(&mut dir, n(1), b(0));
        assert!(dir.snapshot(b(0)).unwrap().2);
        // Node 2 reads (exclusive grant), never writes; node 3 then reads.
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        let a = dir.h(n(1), b(0), MsgKind::FetchInvalReply { written: true });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: true });
        let a = dir.h(n(3), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(2), MsgKind::FetchInval);
        let a = dir.h(n(2), b(0), MsgKind::FetchInvalReply { written: false });
        assert_single(&a, n(3), MsgKind::ReadReply { exclusive: false });
        assert!(!dir.snapshot(b(0)).unwrap().2, "migratory bit must revert");
        assert_eq!(dir.stats().migratory_reverts, 1);
    }

    #[test]
    fn revert_disabled_keeps_granting_exclusive() {
        let mut dir = dir_with(ProtocolConfig {
            migratory: true,
            migratory_revert: false,
            ..ProtocolConfig::basic(Consistency::Rc)
        });
        migratory_turn(&mut dir, n(0), b(0));
        migratory_turn(&mut dir, n(1), b(0));
        assert!(dir.snapshot(b(0)).unwrap().2);
        // Node 2 reads (exclusive), never writes; node 3 reads: with
        // reversion off the home hands out another exclusive copy anyway.
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(1), b(0), MsgKind::FetchInvalReply { written: true });
        dir.h(n(3), b(0), MsgKind::ReadReq { prefetch: false });
        let a = dir.h(n(2), b(0), MsgKind::FetchInvalReply { written: false });
        assert_single(&a, n(3), MsgKind::ReadReply { exclusive: true });
        assert!(dir.snapshot(b(0)).unwrap().2, "migratory bit must persist");
        assert_eq!(dir.stats().migratory_reverts, 0);
    }

    #[test]
    fn unwritten_migratory_writeback_reverts() {
        let mut dir = DirCtrl::new(N, true, false);
        migratory_turn(&mut dir, n(0), b(0));
        migratory_turn(&mut dir, n(1), b(0));
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(1), b(0), MsgKind::FetchInvalReply { written: true });
        // Node 2 replaces the unwritten exclusive copy.
        let a = dir.h(n(2), b(0), MsgKind::WritebackReq { written: false });
        assert_single(&a, n(2), MsgKind::WritebackAck);
        assert!(!dir.snapshot(b(0)).unwrap().2);
    }

    #[test]
    fn read_only_sharing_never_detected_as_migratory() {
        let mut dir = DirCtrl::new(N, true, false);
        for i in 0..8u16 {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        assert!(!dir.snapshot(b(0)).unwrap().2);
        assert_eq!(dir.stats().migratory_detections, 0);
    }

    #[test]
    fn three_sharers_not_detected_as_migratory() {
        let mut dir = DirCtrl::new(N, true, false);
        // Nodes 0, 1, 2 all read; node 1 then writes. Presence count is 3,
        // not 2, so this is not the migratory pattern.
        for i in 0..3u16 {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        assert!(!dir.snapshot(b(0)).unwrap().2);
    }

    // --------------------------------------------- MESI exclusive-clean (E)

    #[test]
    fn exclusive_clean_grants_when_no_copies_exist() {
        let mut dir = dir_with(ProtocolConfig {
            exclusive_clean: true,
            ..ProtocolConfig::basic(Consistency::Rc)
        });
        let a = dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::ReadReply { exclusive: true });
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(1)));
        // A second reader forces a fetch-downgrade back to sharing.
        let a = dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::Fetch);
        let a = dir.h(n(1), b(0), MsgKind::FetchReply { written: false });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, (1 << 1) | (1 << 2));
    }

    #[test]
    fn exclusive_clean_not_granted_with_existing_sharers() {
        let mut dir = dir_with(ProtocolConfig {
            exclusive_clean: true,
            ..ProtocolConfig::basic(Consistency::Rc)
        });
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(1), b(0), MsgKind::WritebackReq { written: false });
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        // Node 2 reads while node 1 holds a copy: shared grant... first
        // recall node 1's exclusive copy.
        let a = dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::Fetch);
        dir.h(n(1), b(0), MsgKind::FetchReply { written: false });
        // Node 3 now reads a block with two sharers: plain shared grant.
        let a = dir.h(n(3), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(3), MsgKind::ReadReply { exclusive: false });
    }

    #[test]
    fn exclusive_clean_yields_to_migratory() {
        // Both M and E upgrade a read of a clean block with no copies; M's
        // grant must win once the block is migratory.
        let mut dir = dir_with(ProtocolConfig {
            migratory: true,
            exclusive_clean: true,
            ..ProtocolConfig::basic(Consistency::Rc)
        });
        dir.enable_trace(64);
        let last_ext = |dir: &DirCtrl| dir.trace().iter().last().and_then(|r| r.ext);
        // A first read of an untouched block: E's exclusive grant.
        let a = dir.h(n(0), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(0), MsgKind::ReadReply { exclusive: true });
        assert_eq!(last_ext(&dir), Some("E"));
        // Two read-then-write turns classify the block migratory.
        migratory_turn(&mut dir, n(1), b(0));
        migratory_turn(&mut dir, n(2), b(0));
        assert!(dir.snapshot(b(0)).unwrap().2, "block must be migratory now");
        let a = dir.h(n(2), b(0), MsgKind::WritebackReq { written: true });
        assert_single(&a, n(2), MsgKind::WritebackAck);
        // The block is clean with no copies, but M's grant outranks E's.
        let a = dir.h(n(3), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(3), MsgKind::ReadReply { exclusive: true });
        assert_eq!(last_ext(&dir), Some("M"));
    }

    // ------------------------------------------------- competitive update (CW)

    #[test]
    fn update_with_no_other_copies_completes_immediately() {
        let mut dir = DirCtrl::new(N, false, true);
        // The writer holds no copy either: no exclusivity grant.
        let a = dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 0b1 });
        assert_single(&a, n(1), MsgKind::UpdateDone { exclusive: false });
    }

    #[test]
    fn sole_sharer_update_degenerates_to_ownership() {
        let mut dir = DirCtrl::new(N, false, true);
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        let a = dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 0b1 });
        assert_single(&a, n(1), MsgKind::UpdateDone { exclusive: true });
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(1)));
        // Further writes are silent; a later update from a stale write
        // cache entry is simply dropped.
        let a = dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 0b10 });
        assert_single(&a, n(1), MsgKind::UpdateDone { exclusive: false });
    }

    #[test]
    fn update_fans_out_to_sharers_and_clears_invalidated_copies() {
        let mut dir = DirCtrl::new(N, false, true);
        for i in [1u16, 2, 3] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        let a = dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 0b11 });
        assert_eq!(a.len(), 2);
        assert!(a
            .iter()
            .all(|x| x.kind == MsgKind::Update { dirty_words: 0b11 }));
        // Node 2 keeps its copy; node 3's competitive counter expired.
        assert!(dir
            .h(n(2), b(0), MsgKind::UpdateAck { invalidated: false })
            .is_empty());
        let a = dir.h(n(3), b(0), MsgKind::UpdateAck { invalidated: true });
        assert_single(&a, n(1), MsgKind::UpdateDone { exclusive: false });
        let (_, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(presence, (1 << 1) | (1 << 2));
        assert_eq!(dir.stats().updates_sent, 2);
    }

    #[test]
    fn updates_keep_memory_clean_so_reads_are_two_hop() {
        let mut dir = DirCtrl::new(N, false, true);
        // Two sharers, so the writer keeps the block in update mode.
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 0b1 });
        dir.h(n(2), b(0), MsgKind::UpdateAck { invalidated: false });
        // A later read finds the block clean at home: two-hop service.
        let a = dir.h(n(3), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(3), MsgKind::ReadReply { exclusive: false });
        assert_eq!(dir.stats().reads_dirty, 0);
    }

    // ------------------------------------------------------------ CW+M

    #[test]
    fn cwm_interrogation_detects_migratory_when_all_give_up() {
        let mut dir = DirCtrl::new(N, true, true);
        dir.h(n(0), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        // Node 0 updates first (becomes last_updater).
        let a = dir.h(n(0), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        assert_single(&a, n(1), MsgKind::Update { dirty_words: 1 });
        dir.h(n(1), b(0), MsgKind::UpdateAck { invalidated: false });
        // Node 1 updates next: different updater, two copies -> interrogate.
        let a = dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|x| x.kind == MsgKind::Interrogate));
        assert_eq!(dir.stats().interrogations, 1);
        // Both caches gave up (idle since last update).
        dir.h(n(0), b(0), MsgKind::InterrogateReply { keep: false });
        let a = dir.h(n(1), b(0), MsgKind::InterrogateReply { keep: false });
        // All gave up: migratory; the pending update completes with no
        // remaining copies to update.
        assert_single(&a, n(1), MsgKind::UpdateDone { exclusive: false });
        assert!(dir.snapshot(b(0)).unwrap().2);
        assert_eq!(dir.stats().migratory_detections, 1);
    }

    #[test]
    fn cwm_keep_vote_vetoes_migratory() {
        let mut dir = DirCtrl::new(N, true, true);
        for i in [0u16, 1, 2] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        dir.h(n(0), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        dir.h(n(1), b(0), MsgKind::UpdateAck { invalidated: false });
        dir.h(n(2), b(0), MsgKind::UpdateAck { invalidated: false });
        let a = dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        assert_eq!(a.len(), 3, "interrogate all three copies");
        dir.h(n(0), b(0), MsgKind::InterrogateReply { keep: false });
        dir.h(n(1), b(0), MsgKind::InterrogateReply { keep: false });
        // Node 2 is actively reading: it keeps its copy.
        let a = dir.h(n(2), b(0), MsgKind::InterrogateReply { keep: true });
        assert!(!dir.snapshot(b(0)).unwrap().2, "keep vote vetoes migratory");
        // The update is still delivered to the keeper.
        assert!(a
            .iter()
            .any(|x| x.dst == n(2) && matches!(x.kind, MsgKind::Update { .. })));
    }

    #[test]
    fn cwm_update_to_migratory_modified_block_recalls_owner() {
        let mut dir = DirCtrl::new(N, true, true);
        // Make the block migratory and owned by node 0 via an exclusive read.
        dir.h(n(0), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(1), b(0), MsgKind::ReadReq { prefetch: false });
        dir.h(n(0), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        dir.h(n(1), b(0), MsgKind::UpdateAck { invalidated: true });
        dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        // (single copy now: no interrogation, immediate done)
        // Force migratory via detection path: read by 2 then 3 with writes.
        // Simpler: mark by interrogation is already covered; here exercise
        // the recall path by making the block Modified first.
        let mut dir = DirCtrl::new(N, true, true);
        dir.h(n(0), b(0), MsgKind::OwnReq { need_data: true }); // modified at 0
        let a = dir.h(n(1), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        assert_single(&a, n(0), MsgKind::FetchInval);
        let a = dir.h(n(0), b(0), MsgKind::FetchInvalReply { written: true });
        assert_single(&a, n(1), MsgKind::UpdateDone { exclusive: false });
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, 0);
    }

    #[test]
    fn stale_update_from_current_owner_is_dropped() {
        let mut dir = DirCtrl::new(N, true, true);
        dir.h(n(0), b(0), MsgKind::OwnReq { need_data: true });
        let a = dir.h(n(0), b(0), MsgKind::UpdateReq { dirty_words: 1 });
        assert_single(&a, n(0), MsgKind::UpdateDone { exclusive: false });
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(0)));
    }

    #[test]
    #[should_panic(expected = "supports at most 64 nodes")]
    fn too_many_nodes_rejected() {
        let _ = DirCtrl::new(65, false, false);
    }

    #[test]
    fn large_machines_use_high_presence_bits() {
        let mut dir = DirCtrl::new(64, false, false);
        dir.h(n(63), b(0), MsgKind::ReadReq { prefetch: false });
        let (_, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(presence, 1u64 << 63);
        let a = dir.h(n(63), b(0), MsgKind::OwnReq { need_data: false });
        assert_single(&a, n(63), MsgKind::OwnAck { with_data: false });
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(63)));
    }

    // ------------------------------------------------- crash recovery

    fn purge(dir: &mut DirCtrl, node: NodeId) -> Vec<DirAction> {
        let mut out = Vec::new();
        dir.set_node_dead(node, true);
        dir.purge_node(node, &mut out).unwrap();
        // These tests drive a single block; drop the tag.
        out.into_iter().map(|(_, a)| a).collect()
    }

    #[test]
    fn purge_removes_dead_sharer_from_exact_set() {
        let mut dir = DirCtrl::new(N, false, false);
        for i in [1u16, 2, 3] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        let a = purge(&mut dir, n(2));
        assert!(a.is_empty(), "exact purge is surgical: {a:?}");
        let (_, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(presence, (1 << 1) | (1 << 3));
        assert_eq!(dir.stats().purged_sharers, 1);
        // A later ownership request no longer invalidates the dead node.
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        assert_single(&a, n(3), MsgKind::Inval);
    }

    #[test]
    fn purge_reclaims_orphaned_dirty_line() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        let a = purge(&mut dir, n(1));
        assert!(a.is_empty());
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, 0);
        assert_eq!(dir.stats().orphan_reclaims, 1);
        // The block is readable again, served from memory.
        let a = dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
    }

    #[test]
    fn purge_synthesizes_ack_from_dead_invalidation_target() {
        let mut dir = DirCtrl::new(N, false, false);
        for i in [1u16, 2, 3] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        // Node 1 wants ownership; 2 and 3 owe InvalAcks.
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        // Node 3 dies before acking: the purge synthesizes its ack.
        assert!(purge(&mut dir, n(3)).is_empty());
        // Node 2's real ack now completes the transfer.
        let a = dir.h(n(2), b(0), MsgKind::InvalAck);
        assert_single(&a, n(1), MsgKind::OwnAck { with_data: false });
        assert_eq!(dir.snapshot(b(0)).unwrap().0, Some(n(1)));
    }

    #[test]
    fn purge_completes_fetch_targeting_dead_owner() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        // Node 2's read is waiting on a fetch from owner 1, who dies.
        let a = dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false });
        assert_single(&a, n(1), MsgKind::Fetch);
        let a = purge(&mut dir, n(1));
        // The requester is served from memory's last-written value.
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, 1 << 2);
    }

    #[test]
    fn dead_requester_completion_grants_nothing() {
        let mut dir = DirCtrl::new(N, false, false);
        for i in [1u16, 2, 3] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        // The *requester* dies mid-fan-out; live acks still drain it.
        assert!(purge(&mut dir, n(1)).is_empty());
        assert!(dir.h(n(2), b(0), MsgKind::InvalAck).is_empty());
        let a = dir.h(n(3), b(0), MsgKind::InvalAck);
        assert!(a.is_empty(), "no grant to a dead requester: {a:?}");
        let (owner, presence, _) = dir.snapshot(b(0)).unwrap();
        assert_eq!(owner, None);
        assert_eq!(presence, 0);
        assert_eq!(dir.stats().aborted_grants, 1);
        assert!(!dir.has_pending());
    }

    #[test]
    fn purge_sweeps_inexact_set_and_restores_exactness() {
        let mut dir = DirCtrl::with_org(N, DirOrg::Directoryless, Exts::default()).unwrap();
        for i in [1u16, 2, 3] {
            dir.h(n(i), b(0), MsgKind::ReadReq { prefetch: false });
        }
        let a = purge(&mut dir, n(2));
        // Directoryless covers everyone: every live node gets recalled.
        assert_eq!(a.len(), N - 1);
        assert!(a.iter().all(|x| x.kind == MsgKind::Inval));
        assert!(a.iter().all(|x| x.dst != n(2)));
        assert_eq!(dir.stats().purge_sweeps, 1);
        // A purge sweep counts its invalidations but is no broadcast.
        assert_eq!(dir.stats().invals_sent, (N - 1) as u64);
        assert_eq!(dir.stats().dir_broadcasts, 0);
        // Live holders (and non-holders — the set cannot tell) ack.
        for i in 0..N as u16 {
            if i != 2 {
                assert!(dir.h(n(i), b(0), MsgKind::InvalAck).is_empty());
            }
        }
        assert!(!dir.has_pending());
        assert!(
            !dir.covers(b(0), n(2)),
            "sweep left coverage of the dead node"
        );
        assert_eq!(dir.stats().aborted_grants, 1);
    }

    #[test]
    fn fanouts_skip_dead_nodes_on_inexact_sets() {
        let cw = ProtocolConfig {
            competitive: Some(CompetitiveConfig::default()),
            ..ProtocolConfig::basic(Consistency::Rc)
        };
        let mut dir =
            DirCtrl::with_org(N, DirOrg::Directoryless, Exts::from_protocol(&cw)).unwrap();
        for i in [1u16, 2, 3] {
            for blk in [b(0), b(1)] {
                dir.h(n(i), blk, MsgKind::ReadReq { prefetch: false });
            }
        }
        // Node 2 dies; no purge has run yet, so both sets still cover it.
        dir.set_node_dead(n(2), true);
        let live_except = |me: u16| -> Vec<NodeId> {
            (0..N as u16)
                .filter(|&i| i != me && i != 2)
                .map(n)
                .collect()
        };

        // Ownership: a broadcast to every live node except the requester.
        let a = dir.h(n(1), b(0), MsgKind::OwnReq { need_data: false });
        assert!(a.iter().all(|x| x.kind == MsgKind::Inval));
        let dsts: Vec<NodeId> = a.iter().map(|x| x.dst).collect();
        assert_eq!(dsts, live_except(1));
        assert_eq!(dir.stats().invals_sent, (N - 2) as u64);
        assert_eq!(dir.stats().dir_broadcasts, 1);
        let mut last = Vec::new();
        for t in live_except(1) {
            last = dir.h(t, b(0), MsgKind::InvalAck);
        }
        assert_single(&last, n(1), MsgKind::OwnAck { with_data: true });

        // Update: the same skip, and the live acks alone complete it.
        let a = dir.h(n(3), b(1), MsgKind::UpdateReq { dirty_words: 1 });
        assert!(a
            .iter()
            .all(|x| x.kind == MsgKind::Update { dirty_words: 1 }));
        let dsts: Vec<NodeId> = a.iter().map(|x| x.dst).collect();
        assert_eq!(dsts, live_except(3));
        assert_eq!(dir.stats().updates_sent, (N - 2) as u64);
        assert_eq!(dir.stats().dir_broadcasts, 2);
        let mut last = Vec::new();
        for t in live_except(3) {
            let invalidated = t != n(1);
            last = dir.h(t, b(1), MsgKind::UpdateAck { invalidated });
        }
        assert_single(&last, n(3), MsgKind::UpdateDone { exclusive: false });
        assert!(!dir.has_pending());
    }

    #[test]
    fn purge_drops_dead_nodes_queued_requests() {
        let mut dir = DirCtrl::new(N, false, false);
        dir.h(n(1), b(0), MsgKind::OwnReq { need_data: true });
        dir.h(n(2), b(0), MsgKind::ReadReq { prefetch: false }); // fetch pending
        let a = dir.h(n(3), b(0), MsgKind::ReadReq { prefetch: false }); // queued
        assert!(a.is_empty());
        // Node 3 dies; its queued read must not be serviced at completion.
        assert!(purge(&mut dir, n(3)).is_empty());
        let a = dir.h(n(1), b(0), MsgKind::FetchReply { written: true });
        assert_single(&a, n(2), MsgKind::ReadReply { exclusive: false });
        assert!(!dir.covers(b(0), n(3)));
    }

    #[test]
    fn recovery_rule_set_only_when_enabled() {
        let mut dir = DirCtrl::new(N, false, false);
        assert!(!dir.rule_set().contains(ExtKind::Recovery));
        dir.enable_recovery();
        assert!(dir.rule_set().contains(ExtKind::Recovery));
    }
}
