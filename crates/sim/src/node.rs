//! Per-node cache-side state, laid out as a structure of arrays.
//!
//! [`Nodes`] holds every node's processor/cache/buffer state as parallel
//! columns indexed by node: the event dispatch loop touches only the
//! columns the event class needs (a `Compute` retirement reads `pc`,
//! `pstate` and `stalls`; an FLC probe touches the flattened tag column)
//! instead of dragging whole per-node structs through the cache. Columns
//! that are identical across nodes (`slwb_cap`, `comp_preset`) are plain
//! scalars.

use std::collections::VecDeque;

use dirext_core::blockmap::BlockMap;
use dirext_core::config::{ProtocolConfig, WRITE_CACHE_BLOCKS};
use dirext_core::line::Line;
use dirext_core::proto::Exts;
use dirext_kernel::{Resource, Time};
use dirext_memsys::{Fifo, FlcArray, Slc, SlcGeometry, Timing, WcEntry, WriteCache};
use dirext_stats::{Histogram, StallBreakdown, StallKind};
use dirext_trace::{Addr, BlockAddr, Program};
use std::sync::Arc;

/// What the processor is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Executing (a `ProcStep` event is or will be scheduled).
    Ready,
    /// Blocked; `since` starts the stall account.
    Stalled { kind: StallKind, since: Time },
    /// Program finished.
    Done,
    /// The node is down under an injected crash (no `ProcStep` is live;
    /// the fault timeline re-admits it at its scheduled recovery cycle).
    Crashed,
}

/// An entry of the first-level write buffer: writes, read-miss requests,
/// and (under RC) synchronization operations, all in FIFO program order —
/// "synchronizations bypass the FLC and are inserted ... with other memory
/// requests", which is what orders a release after every earlier write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlwbEntry {
    Read(Addr),
    Write(Addr),
    /// A software prefetch instruction (droppable hint).
    SwPrefetch(Addr, bool),
    Sync(SyncOut),
}

/// A synchronization operation deferred until all previously issued
/// ownership/update requests complete (RC write-release semantics; barriers
/// include a release).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncOut {
    /// A lock release (the lock variable's address).
    Release(Addr),
    /// A barrier arrival (the barrier id).
    Barrier(u32),
}

/// The exact synchronization grant a stalled processor is waiting for.
///
/// Under a faulty network a duplicated grant could resume a processor that
/// has since moved on and stalled on something else. Each node records
/// what it is actually waiting for — for locks, down to the acquire
/// sequence number echoed in the grant's version field, since a node can
/// re-acquire the same lock across episodes. A grant that does not match
/// is a stale duplicate and is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncWait {
    /// Waiting for `AcqGrant` of this lock, for this acquire sequence.
    Lock(BlockAddr, u64),
    /// Waiting for `BarRelease` of this barrier id.
    Barrier(u32),
    /// Waiting for `RelAck` of this lock's release, for the acquire
    /// sequence being released (SC release stall).
    ReleaseAck(BlockAddr, u64),
}

/// A pending request held in the second-level write buffer (the SLWB doubles
/// as the lockup-free cache's miss-status registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlwbOp {
    /// Outstanding read miss or prefetch.
    Read {
        prefetch: bool,
        /// A demand access is blocked on this entry.
        demand_waiting: bool,
        /// When the demand access started waiting (read-latency metering).
        demand_since: Time,
        /// A write to the block arrived while this read was in flight: the
        /// stamp of that write. When the reply arrives, an ownership request
        /// follows (or, if the reply grants an exclusive migratory copy,
        /// the write completes silently).
        upgrade_version: Option<u64>,
        /// The processor is stalled on the upgrading write (SC).
        upgrade_sc: bool,
    },
    /// Outstanding ownership request.
    Own {
        need_data: bool,
        /// Version stamp of the processor write that triggered the request.
        write_version: u64,
        /// The processor is stalled on this write (SC).
        sc_wait: bool,
        /// A demand read is blocked on this entry (its copy was invalidated
        /// while the ownership request was in flight).
        demand_waiting: bool,
        /// When the demand read started waiting.
        demand_since: Time,
    },
    /// Outstanding competitive update.
    Update {
        /// Version stamp carried by the update.
        version: u64,
    },
    /// Outstanding writeback.
    Writeback,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlwbEntry {
    pub block: BlockAddr,
    pub op: SlwbOp,
}

/// Per-node counters that end up in [`dirext_stats::Metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeCounters {
    pub shared_reads: u64,
    pub shared_writes: u64,
    pub slc_misses: u64,
    pub wc_read_hits: u64,
    pub read_miss_cycles: u64,
    pub read_miss_count: u64,
}

/// All nodes' cache-side state as parallel columns (structure of arrays).
///
/// Column `x[i]` is node `i`'s `x`. One processing node comprises:
/// processor + FLC + FLWB + SLC(+SLWB, write cache, prefetcher) + local
/// bus. Grouping is by access pattern: the processor columns are touched
/// on every `ProcStep`, the FLC/FLWB columns on reads/writes, the SLC and
/// write-cache columns only on misses and protocol traffic.
#[derive(Debug)]
pub(crate) struct Nodes {
    // ----- processor columns (every ProcStep) -----
    pub pc: Vec<usize>,
    pub pstate: Vec<ProcState>,
    /// Skip re-charging FLC access time when retrying after a buffer stall.
    pub retry_no_charge: Vec<bool>,
    pub finish: Vec<Option<Time>>,
    pub program: Vec<Arc<Program>>,
    pub stalls: Vec<StallBreakdown>,

    // ----- FLC / FLWB columns (reads and writes) -----
    /// Every node's FLC tag array, flattened node-major.
    pub flc: FlcArray,
    pub flwb: Vec<Fifo<FlwbEntry>>,
    /// A drain chain (`FlwbHead` event) is scheduled.
    pub flwb_active: Vec<bool>,

    // ----- SLC columns (misses and protocol traffic) -----
    pub slc: Vec<Slc<Line>>,
    pub slwb: Vec<Vec<SlwbEntry>>,
    pub slc_res: Vec<Resource>,
    pub bus_res: Vec<Resource>,

    // ----- write-cache columns -----
    pub wc: Vec<Option<WriteCache>>,
    /// Version stamps of write-cache entries (debug coherence check).
    pub wc_version: Vec<BlockMap<u64>>,
    /// Victim write-cache entries waiting for SLWB space.
    pub update_backlog: Vec<VecDeque<(WcEntry, u64)>>,
    /// Evicted dirty blocks waiting for SLWB space: `(block, written,
    /// version)`.
    pub wb_backlog: Vec<VecDeque<(BlockAddr, bool, u64)>>,

    // ----- protocol / synchronization columns -----
    /// Cache-side protocol extensions (prefetch adaptation, write-mode
    /// selection), built from the same configuration as the directories'.
    pub exts: Vec<Exts>,
    /// Outstanding ownership/update requests (release gating).
    pub pending_writes: Vec<u64>,
    /// Releases and barrier arrivals waiting for pending writes to drain.
    pub sync_waiting: Vec<VecDeque<SyncOut>>,
    /// The synchronization grant this processor's stall is waiting for
    /// (guards grant delivery against duplicated messages).
    pub waiting_grant: Vec<Option<SyncWait>>,
    /// Monotone counter stamping each lock acquire this node issues; the
    /// home's duplicate filter and the grant/release matching key on it.
    pub next_lock_seq: Vec<u64>,
    /// Locks this node has been granted and not yet released, with the
    /// acquire sequence of the grant (echoed on the release).
    pub held_locks: Vec<BlockMap<u64>>,

    // ----- metrics columns -----
    pub counters: Vec<NodeCounters>,
    /// Distribution of demand read-miss service times.
    pub read_miss_hist: Vec<Histogram>,

    // ----- machine-wide scalars (identical for every node) -----
    /// SLWB capacity.
    pub slwb_cap: usize,
    /// Competitive counter preset (0 when CW is off — unused).
    pub comp_preset: u8,
}

impl Nodes {
    /// Builds the columns for `programs.len()` nodes.
    pub(crate) fn new(
        programs: Vec<Arc<Program>>,
        protocol: &ProtocolConfig,
        timing: &Timing,
    ) -> Self {
        let n = programs.len();
        let comp_preset = protocol.competitive.map_or(1, |c| c.threshold);
        Nodes {
            pc: vec![0; n],
            pstate: vec![ProcState::Ready; n],
            retry_no_charge: vec![false; n],
            finish: vec![None; n],
            program: programs,
            stalls: vec![StallBreakdown::default(); n],
            flc: FlcArray::new(n, timing.flc_bytes),
            flwb: (0..n).map(|_| Fifo::new(timing.flwb_entries)).collect(),
            flwb_active: vec![false; n],
            slc: (0..n)
                .map(|_| Slc::new(SlcGeometry::from_bytes(timing.slc_bytes)))
                .collect(),
            slwb: (0..n)
                .map(|_| Vec::with_capacity(timing.slwb_entries))
                .collect(),
            slc_res: vec![Resource::new(); n],
            bus_res: vec![Resource::new(); n],
            wc: (0..n)
                .map(|_| {
                    protocol
                        .competitive
                        .filter(|c| c.write_cache)
                        .map(|_| WriteCache::new(WRITE_CACHE_BLOCKS))
                })
                .collect(),
            wc_version: (0..n).map(|_| BlockMap::new()).collect(),
            update_backlog: (0..n).map(|_| VecDeque::new()).collect(),
            wb_backlog: (0..n).map(|_| VecDeque::new()).collect(),
            exts: (0..n).map(|_| Exts::from_protocol(protocol)).collect(),
            pending_writes: vec![0; n],
            sync_waiting: (0..n).map(|_| VecDeque::new()).collect(),
            waiting_grant: vec![None; n],
            next_lock_seq: vec![1; n],
            held_locks: (0..n).map(|_| BlockMap::new()).collect(),
            counters: vec![NodeCounters::default(); n],
            read_miss_hist: (0..n).map(|_| Histogram::new()).collect(),
            slwb_cap: timing.slwb_entries,
            comp_preset,
        }
    }

    /// Finds node `i`'s SLWB entry for `block` matching `pred`.
    pub(crate) fn slwb_find(
        &mut self,
        i: usize,
        block: BlockAddr,
        pred: impl Fn(&SlwbOp) -> bool,
    ) -> Option<&mut SlwbEntry> {
        self.slwb[i]
            .iter_mut()
            .find(|e| e.block == block && pred(&e.op))
    }

    /// Removes and returns node `i`'s SLWB entry for `block` matching
    /// `pred`.
    pub(crate) fn slwb_take(
        &mut self,
        i: usize,
        block: BlockAddr,
        pred: impl Fn(&SlwbOp) -> bool,
    ) -> Option<SlwbEntry> {
        let pos = self.slwb[i]
            .iter()
            .position(|e| e.block == block && pred(&e.op))?;
        Some(self.slwb[i].remove(pos))
    }

    /// Whether node `i`'s SLWB can accept another entry.
    pub(crate) fn slwb_has_space(&self, i: usize) -> bool {
        self.slwb[i].len() < self.slwb_cap
    }

    /// Whether node `i` has any read (demand or prefetch) pending for
    /// `block`.
    pub(crate) fn read_pending(&self, i: usize, block: BlockAddr) -> bool {
        self.slwb[i]
            .iter()
            .any(|e| e.block == block && matches!(e.op, SlwbOp::Read { .. }))
    }

    /// Whether node `i` has an ownership request pending for `block`.
    pub(crate) fn own_pending(&self, i: usize, block: BlockAddr) -> bool {
        self.slwb[i]
            .iter()
            .any(|e| e.block == block && matches!(e.op, SlwbOp::Own { .. }))
    }
}
