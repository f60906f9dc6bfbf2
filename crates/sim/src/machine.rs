//! The whole-machine discrete-event model.

use std::fmt;
use std::fmt::Write as _;

use dirext_core::blockmap::BlockMap;
use dirext_core::config::Consistency;
use dirext_core::dir::DirAction;
use dirext_core::line::CacheState;
use dirext_core::msg::{Msg, MsgKind};
use dirext_core::proto::trace::TraceInput;
use dirext_core::proto::{ExtSet, Exts, TraceRing, TransitionRecord};
use dirext_core::ProtocolError;
use dirext_kernel::{EventQueue, Time};
use dirext_memsys::{BUS_TRANSFER, MEM_ACCESS};
use dirext_network::{FaultyNetwork, Network, TrafficClass};
use dirext_stats::{Metrics, MissClassifier, StallKind};
use dirext_trace::{BlockAddr, NodeId, Workload, WorkloadError};

use crate::home::Home;
use crate::invariants;
use crate::node::{Nodes, ProcState, SlwbOp, SyncWait};
use crate::{MachineConfig, NetworkKind, NodeFaultPlan};

/// Safety valve: a run aborts with [`SimError::EventBudgetExceeded`] after
/// this many simulation events.
const MAX_EVENTS: u64 = 2_000_000_000;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The workload is structurally invalid.
    Workload(WorkloadError),
    /// The event queue drained while processors were still blocked.
    Deadlock {
        /// Human-readable diagnostic of the stuck processors.
        detail: String,
    },
    /// The run exceeded the simulator's event budget (two billion events).
    EventBudgetExceeded,
    /// A coherence invariant failed at quiescence (simulator bug).
    CoherenceViolation(String),
    /// A traced run recorded a state transition the declarative protocol
    /// tables cannot derive from BASIC plus the enabled extensions.
    TransitionConformance {
        /// Renderings of the offending transition records.
        detail: String,
    },
    /// A protocol controller rejected a message sequence with a structured
    /// error (see [`ProtocolError`]).
    Protocol(ProtocolError),
    /// The progress watchdog fired: no processor retired an event for the
    /// configured window while the machine was still live.
    Watchdog {
        /// Diagnostic snapshot of the stuck machine: per-node state,
        /// held locks, partial barriers, in-flight directory operations,
        /// event-queue depth and fault counters.
        detail: String,
    },
    /// The workload's processor count does not match the machine's.
    ProcMismatch {
        /// Processors in the machine.
        machine: usize,
        /// Programs in the workload.
        workload: usize,
    },
    /// The machine configuration is infeasible — e.g. the configured
    /// directory organization cannot serve the requested node count. The
    /// detail names the organization and its limit so the fix is actionable.
    Config {
        /// What is wrong and what the limit is.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Workload(e) => write!(f, "invalid workload: {e}"),
            SimError::Deadlock { detail } => write!(f, "simulation deadlocked: {detail}"),
            SimError::EventBudgetExceeded => write!(f, "event budget exceeded"),
            SimError::CoherenceViolation(d) => write!(f, "coherence violation: {d}"),
            SimError::TransitionConformance { detail } => {
                write!(f, "transition conformance violated: {detail}")
            }
            SimError::Protocol(e) => write!(f, "protocol error: {e}"),
            SimError::Watchdog { detail } => write!(f, "watchdog fired: {detail}"),
            SimError::ProcMismatch { machine, workload } => {
                write!(
                    f,
                    "machine has {machine} processors but workload has {workload} programs"
                )
            }
            SimError::Config { detail } => write!(f, "infeasible configuration: {detail}"),
        }
    }
}

impl SimError {
    /// Whether this failure can plausibly clear on a retry with a rotated
    /// fault seed.
    ///
    /// Under injected faults, NACK storms, watchdog trips and apparent
    /// deadlocks are artifacts of one particular drop/duplicate schedule —
    /// a different seed usually completes. Structural failures (invalid
    /// workloads, coherence violations, conformance breaks, processor
    /// mismatches) reproduce on any schedule and are never worth retrying.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::Watchdog { .. }
                | SimError::Deadlock { .. }
                | SimError::Protocol(ProtocolError::RetryBudgetExhausted { .. })
        )
    }
}

impl std::error::Error for SimError {}

impl From<WorkloadError> for SimError {
    fn from(e: WorkloadError) -> Self {
        SimError::Workload(e)
    }
}

impl From<ProtocolError> for SimError {
    fn from(e: ProtocolError) -> Self {
        SimError::Protocol(e)
    }
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// The processor attempts its next program event. Tagged with the
    /// node's incarnation epoch: a step chain scheduled by a since-crashed
    /// incarnation must not double-drive the recovered processor.
    ProcStep(NodeId, u16),
    /// Try to process the head of a node's first-level write buffer
    /// (epoch-tagged like `ProcStep`).
    FlwbHead(NodeId, u16),
    /// A protocol message arrives at its destination node.
    Deliver(Msg),
    /// Re-send a NACKed request after its backoff expired.
    Retry(Msg),
    /// Periodic progress-watchdog check.
    Watchdog,
    /// A scheduled node-fault tick. All ticks are pushed before the first
    /// `ProcStep`, so each pops before every other event of its cycle.
    Fault(FaultOp, NodeId),
}

/// Whether a message kind is processed by the home (directory/memory) side
/// of the destination node, as opposed to its cache side.
pub(crate) fn is_home_bound(kind: MsgKind) -> bool {
    matches!(
        kind,
        MsgKind::ReadReq { .. }
            | MsgKind::OwnReq { .. }
            | MsgKind::UpdateReq { .. }
            | MsgKind::WritebackReq { .. }
            | MsgKind::SharedReplHint
            | MsgKind::InvalAck
            | MsgKind::FetchReply { .. }
            | MsgKind::FetchInvalReply { .. }
            | MsgKind::UpdateAck { .. }
            | MsgKind::InterrogateReply { .. }
            | MsgKind::AcqReq
            | MsgKind::RelReq
            | MsgKind::BarArrive { .. }
    )
}

/// The node whose liveness and incarnation epoch fence a message's
/// delivery.
///
/// The home half of a node (memory, directory, lock and barrier
/// controllers) survives its processor's crash, so home-bound traffic is
/// fenced by its *source* under fail-stop semantics: everything a dead or
/// previous incarnation put on the wire is lost. No pending directory
/// operation relies on in-flight luck — the reconstruction sweep
/// synthesizes every acknowledgment the dead node can no longer deliver,
/// NACKs its queued requests, and hands its locks onward. Cache-bound
/// traffic is fenced by its *destination*: a dead node receives nothing,
/// and a recovered one receives nothing addressed to its previous life.
fn fenced_endpoint(src: NodeId, dst: NodeId, kind: MsgKind) -> NodeId {
    if is_home_bound(kind) {
        src
    } else {
        dst
    }
}

/// The three phases of a node-fault window, in application order for
/// same-cycle ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FaultOp {
    /// The node dies: caches wiped, traffic fenced.
    Crash,
    /// The homes detect the silence and purge the node.
    Reconstruct,
    /// The node rejoins cold with a bumped epoch.
    Recover,
}

/// What a node's processor was doing at the instant it crashed — the
/// re-admission logic decides from this whether the recovered processor
/// re-executes the interrupted instruction, keeps waiting, or proceeds.
#[derive(Debug, Clone, Copy)]
struct CrashCtx {
    pstate: ProcState,
    wait: Option<SyncWait>,
}

/// One simulated machine, ready to run a workload.
///
/// See the crate-level example. A `Machine` is consumed by [`Machine::run`]
/// (its caches and statistics are meaningful for a single workload).
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    now: Time,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) nodes: Nodes,
    pub(crate) homes: Vec<Home>,
    net: Box<dyn Network>,
    /// Global per-block write counters (the debug "truth" the coherence
    /// check compares cache versions against).
    pub(crate) wcount: BlockMap<u64>,
    pub(crate) classifier: MissClassifier,
    /// Completion time of each barrier episode, in completion order.
    barrier_log: Vec<Time>,
    events: u64,
    /// A fatal error raised inside an event handler; checked by the run
    /// loop after every event (handlers cannot return `Result` because
    /// they are re-entered through the event queue).
    pub(crate) fatal: Option<SimError>,
    /// An infeasible configuration detected at construction (the homes were
    /// not built); surfaced as the run's result instead of a panic.
    config_error: Option<SimError>,
    /// Stale duplicated messages recognized and dropped on the cache side.
    pub(crate) stale_drops: u64,
    /// NACKed requests re-sent after backoff.
    pub(crate) nack_retries: u64,
    /// Consecutive NACKs per outstanding requester/block request, indexed
    /// by requester; cleared when the request completes.
    pub(crate) retry_attempts: Vec<BlockMap<u32>>,
    /// Requests with a scheduled-but-unsent retry, indexed by requester; a
    /// duplicated NACK that lands in this window must not fork a second
    /// retry chain.
    pub(crate) retry_inflight: Vec<BlockMap<()>>,
    /// When a processor last retired a program event (watchdog).
    last_progress: Time,
    /// Recycled buffer for directory transaction records: taken before each
    /// `Directory::handle_into` call and returned after its actions are
    /// dispatched, so steady-state home processing never allocates.
    action_pool: Vec<DirAction>,
    /// Cache-side transition-trace ring (the directory side records into
    /// each home's own ring); disabled unless `cfg.trace_capacity > 0`.
    pub(crate) ctrace: TraceRing,
    /// Node liveness under the node-fault plan (all true without one).
    alive: Vec<bool>,
    /// Per-node incarnation epochs, bumped when a crashed node rejoins.
    pub(crate) epoch: Vec<u16>,
    /// Events and messages dropped because an endpoint was crashed.
    crash_drops: u64,
    /// Events and messages dropped because they were stamped by a previous
    /// incarnation of a since-recovered node.
    stale_epoch_drops: u64,
    /// What each crashed node was doing, for re-admission.
    crash_ctx: Vec<Option<CrashCtx>>,
    /// Blocks whose most recent written value died with a crashed node:
    /// memory legitimately rewound to the last writeback, so the
    /// end-of-run value check treats them as explicitly degraded.
    pub(crate) data_lost: BlockMap<()>,
    /// Count of distinct blocks in `data_lost`.
    data_loss: u64,
    node_crashes: u64,
    node_recoveries: u64,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// An infeasible `dir_org` × `procs` or `network` × `procs` pair (e.g.
    /// the 64-node full map, or the 256-node flat mesh, on a 300-node
    /// machine) does not panic here: the machine is built empty and
    /// [`Machine::run`] returns the structured [`SimError::Config`].
    pub fn new(cfg: MachineConfig) -> Self {
        let config_error = cfg
            .dir_org
            .validate(cfg.procs)
            .map_err(|e| e.to_string())
            .and_then(|()| cfg.network.validate(cfg.procs))
            .err()
            .map(|detail| SimError::Config { detail });
        let mut net = if config_error.is_some() {
            // Never sent on: `run` returns the config error first.
            NetworkKind::Uniform.build(cfg.procs)
        } else {
            cfg.network.build(cfg.procs)
        };
        if let Some(plan) = cfg.fault_plan.filter(|p| p.is_active()) {
            net = Box::new(FaultyNetwork::with_nodes(net, plan, cfg.procs));
        }
        let recovery = cfg
            .node_fault_plan
            .as_ref()
            .is_some_and(NodeFaultPlan::is_active);
        let homes: Vec<Home> = if config_error.is_some() {
            Vec::new()
        } else {
            (0..cfg.procs)
                .map(|_| {
                    let mut h = Home::new(cfg.procs, cfg.dir_org, &cfg.protocol);
                    if cfg.trace_capacity > 0 {
                        h.dir.enable_trace(cfg.trace_capacity);
                    }
                    if recovery {
                        h.dir.enable_recovery();
                    }
                    h
                })
                .collect()
        };
        Machine {
            config_error,
            classifier: MissClassifier::new(cfg.procs),
            now: Time::ZERO,
            queue: EventQueue::with_capacity(256),
            // Replaced when a workload is run.
            nodes: Nodes::new(Vec::new(), &cfg.protocol, &cfg.timing),
            homes,
            net,
            wcount: BlockMap::new(),
            barrier_log: Vec::new(),
            events: 0,
            fatal: None,
            stale_drops: 0,
            nack_retries: 0,
            retry_attempts: (0..cfg.procs).map(|_| BlockMap::new()).collect(),
            retry_inflight: (0..cfg.procs).map(|_| BlockMap::new()).collect(),
            last_progress: Time::ZERO,
            action_pool: Vec::with_capacity(2 * cfg.procs),
            ctrace: if cfg.trace_capacity > 0 {
                TraceRing::with_capacity(cfg.trace_capacity)
            } else {
                TraceRing::disabled()
            },
            alive: vec![true; cfg.procs],
            epoch: vec![0; cfg.procs],
            crash_drops: 0,
            stale_epoch_drops: 0,
            crash_ctx: Vec::new(),
            data_lost: BlockMap::new(),
            data_loss: 0,
            node_crashes: 0,
            node_recoveries: 0,
            cfg,
        }
    }

    /// The home node of a block under round-robin page placement.
    pub(crate) fn home_of(&self, block: BlockAddr) -> NodeId {
        block.page().home(self.cfg.procs)
    }

    /// The home node of a barrier episode.
    pub(crate) fn barrier_home(&self, id: u32) -> NodeId {
        NodeId((id as usize % self.cfg.procs) as u16)
    }

    /// Bumps and returns the global write counter for `block`.
    pub(crate) fn bump_wcount(&mut self, block: BlockAddr) -> u64 {
        let c = self.wcount.get_or_insert_with(block, || 0);
        *c += 1;
        *c
    }

    /// Sends a `kind` message about `block` from `src` to `dst` at time
    /// `t` (plus local bus occupancy), scheduling the delivery event(s).
    /// Under fault injection a message may be delivered late (jitter,
    /// retransmission), twice (duplication) or never (loss after the
    /// retransmission budget) — the watchdog catches the latter.
    ///
    /// Duplicates are delivered to the protocol only for synchronization
    /// messages, which are sequence-tagged and replay-tolerant by design.
    /// Coherence transactions assume exactly-once transport (as in DASH-
    /// style machines, whose directory protocols ride reliable sequenced
    /// virtual channels): their duplicates occupy the wire but are absorbed
    /// by the receiving interface's link-layer sequence check.
    pub(crate) fn send(
        &mut self,
        t: Time,
        src: NodeId,
        dst: NodeId,
        block: BlockAddr,
        kind: MsgKind,
        version: u64,
    ) {
        // Stamp the incarnation epoch of the endpoint the delivery fence
        // checks, so it recognizes mail from (or to) a previous life.
        let msg = Msg {
            src,
            dst,
            block,
            kind,
            version,
            epoch: self.epoch[fenced_endpoint(src, dst, kind).idx()],
        };
        let start = self.nodes.bus_res[src.idx()].acquire(t, BUS_TRANSFER);
        let deliveries = self.net.send_all(start + BUS_TRANSFER, msg.envelope());
        if let Some(arrival) = deliveries.primary {
            self.queue.push(arrival, Ev::Deliver(msg));
        }
        if let Some(arrival) = deliveries.duplicate {
            if msg.kind.class() == TrafficClass::Sync {
                self.queue.push(arrival, Ev::Deliver(msg));
            }
        }
    }

    /// Runs `workload` to completion and returns the metrics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid workloads, deadlocks (which would
    /// indicate a protocol bug), event-budget exhaustion, or coherence
    /// violations detected at quiescence.
    pub fn run(mut self, workload: &Workload) -> Result<Metrics, SimError> {
        self.run_inner(workload)
    }

    /// Like [`Machine::run`], but also returns the recorded transition
    /// trace (time-ordered, cache and directory records merged) and the
    /// enabled table layers, for offline replay. Only meaningful with
    /// `trace_capacity > 0` — otherwise the trace is empty. It borrows the
    /// machine, so [`Machine::trace_overwritten`] stays readable; run a
    /// machine once.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_traced(
        &mut self,
        workload: &Workload,
    ) -> Result<(Metrics, Vec<TransitionRecord>, ExtSet), SimError> {
        let m = self.run_inner(workload)?;
        let trace = self.transition_trace();
        let enabled = self.rule_set();
        Ok((m, trace, enabled))
    }

    /// All recorded state transitions — the cache-side ring merged with
    /// every home directory's ring — ordered by time.
    pub fn transition_trace(&self) -> Vec<TransitionRecord> {
        let mut v: Vec<TransitionRecord> = self.ctrace.iter().copied().collect();
        for h in &self.homes {
            v.extend(h.dir.trace().iter().copied());
        }
        v.sort_by_key(|r| r.time);
        v
    }

    /// Transitions the rings overwrote because they were full: recorded,
    /// but missing from [`Machine::transition_trace`], so never checked.
    pub fn trace_overwritten(&self) -> u64 {
        let homes = self.homes.iter().map(|h| h.dir.trace().overwritten());
        self.ctrace.overwritten() + homes.sum::<u64>()
    }

    /// The transition-table layers enabled by this machine's protocol
    /// configuration and directory organization (an inexact organization
    /// adds the DIR layer, whose rows legalize broadcast invalidations,
    /// region multicasts and pointer recalls).
    pub fn rule_set(&self) -> ExtSet {
        self.homes[0].dir.rule_set()
    }

    fn run_inner(&mut self, workload: &Workload) -> Result<Metrics, SimError> {
        if let Some(e) = self.config_error.take() {
            return Err(e);
        }
        workload.validate()?;
        if workload.procs() != self.cfg.procs {
            return Err(SimError::ProcMismatch {
                machine: self.cfg.procs,
                workload: workload.procs(),
            });
        }
        self.crash_ctx = vec![None; self.cfg.procs];
        if let Some(plan) = self.cfg.node_fault_plan.clone().filter(|p| p.is_active()) {
            if let Err(e) = plan.validate(self.cfg.procs) {
                return Err(SimError::Config {
                    detail: format!("node-fault plan: {e}"),
                });
            }
            let mut ticks: Vec<(u64, NodeId, FaultOp)> = plan
                .events
                .iter()
                .flat_map(|ev| {
                    let detected = ev.crash_at + plan.detect_delay;
                    [
                        (ev.crash_at, ev.node, FaultOp::Crash),
                        (detected, ev.node, FaultOp::Reconstruct),
                        (ev.recover_at, ev.node, FaultOp::Recover),
                    ]
                })
                .collect();
            ticks.sort_by_key(|&(at, node, op)| (at, node.0, op));
            // Pushed ahead of every other event, the ticks come first in
            // push order among the events of their cycles: a tick applies
            // before any event of its cycle, and inline retirement
            // (`proc_step`) sees a pending tick through `peek_time`.
            for (at, node, op) in ticks {
                self.queue.push(Time::from_cycles(at), Ev::Fault(op, node));
            }
        }
        self.nodes = Nodes::new(
            (0..self.cfg.procs)
                .map(|i| workload.program_shared(i))
                .collect(),
            &self.cfg.protocol,
            &self.cfg.timing,
        );
        for i in 0..self.cfg.procs {
            self.queue
                .push(Time::ZERO, Ev::ProcStep(NodeId(i as u16), 0));
        }
        if self.cfg.watchdog_pclocks > 0 {
            self.queue
                .push(Time::from_cycles(self.cfg.watchdog_pclocks), Ev::Watchdog);
        }

        self.run_events()?;

        // Quiescence: every processor must have finished.
        if self.nodes.finish.iter().any(|f| f.is_none()) {
            return Err(SimError::Deadlock {
                detail: self.snapshot(self.now),
            });
        }
        invariants::check(self).map_err(SimError::CoherenceViolation)?;
        if self.cfg.trace_capacity > 0 {
            let violations = invariants::check_conformance(self);
            if !violations.is_empty() {
                let detail = violations
                    .iter()
                    .take(8)
                    .map(dirext_core::proto::Violation::render)
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(SimError::TransitionConformance {
                    detail: format!("{} violation(s): {detail}", violations.len()),
                });
            }
        }
        Ok(self.collect_metrics(workload))
    }

    /// Pops and executes events in time order until the queue drains.
    fn run_events(&mut self) -> Result<(), SimError> {
        loop {
            let Some((t, ev)) = self.queue.pop() else {
                return Ok(());
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            // A fault tick is not a simulation event: it counts toward
            // neither the event budget nor the audit cadence.
            if let Ev::Fault(op, node) = ev {
                self.apply_fault(t, op, node)?;
                continue;
            }
            self.events += 1;
            if self.events > MAX_EVENTS {
                return Err(SimError::EventBudgetExceeded);
            }
            match ev {
                Ev::ProcStep(n, e) => {
                    let i = n.idx();
                    if !self.fence_node_ev(i, e) {
                        let before = (self.nodes.pc[i], self.nodes.finish[i].is_some());
                        self.proc_step(n, t);
                        if (self.nodes.pc[i], self.nodes.finish[i].is_some()) != before {
                            self.last_progress = t;
                        }
                    }
                }
                Ev::FlwbHead(n, e) => {
                    if !self.fence_node_ev(n.idx(), e) {
                        self.flwb_head(n, t);
                    }
                }
                Ev::Deliver(msg) => {
                    let endpoint = fenced_endpoint(msg.src, msg.dst, msg.kind);
                    if !self.fence_node_ev(endpoint.idx(), msg.epoch) {
                        if is_home_bound(msg.kind) {
                            self.home_deliver(msg, t);
                        } else {
                            self.cache_deliver(msg, t);
                        }
                    }
                }
                Ev::Retry(msg) => {
                    let i = msg.src.idx();
                    if !self.fence_node_ev(i, msg.epoch) {
                        self.retry_inflight[i].remove(msg.block);
                        self.send(t, msg.src, msg.dst, msg.block, msg.kind, msg.version);
                    }
                }
                Ev::Watchdog => {
                    self.watchdog_tick(t)?;
                    continue;
                }
                Ev::Fault(..) => unreachable!("fault ticks apply before dispatch"),
            }
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
            if self.cfg.audit_every > 0 && self.events.is_multiple_of(self.cfg.audit_every) {
                invariants::check_midrun(self).map_err(|d| {
                    SimError::CoherenceViolation(format!("mid-run audit at {t}: {d}"))
                })?;
            }
        }
    }

    /// Fences an event stamped with node `i`'s epoch `e` (step chain,
    /// buffer drain, retry, or a delivery through [`fenced_endpoint`])
    /// against the node's liveness and incarnation epoch. Returns `true`
    /// when the event belongs to a dead or previous incarnation and must
    /// be dropped.
    fn fence_node_ev(&mut self, i: usize, e: u16) -> bool {
        if !self.alive[i] {
            self.crash_drops += 1;
            true
        } else if e != self.epoch[i] {
            self.stale_epoch_drops += 1;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------ home side

    fn home_deliver(&mut self, msg: Msg, now: Time) {
        let h = msg.dst.idx();
        let t = now + MEM_ACCESS;
        match msg.kind {
            MsgKind::AcqReq => {
                if self.homes[h].locks.acquire(msg.src, msg.block, msg.version) {
                    let grant = MsgKind::AcqGrant;
                    self.send(t, msg.dst, msg.src, msg.block, grant, msg.version);
                }
            }
            MsgKind::RelReq => {
                let next = self.homes[h].locks.release(msg.src, msg.block, msg.version);
                if let Some((next, seq)) = next {
                    self.send(t, msg.dst, next, msg.block, MsgKind::AcqGrant, seq);
                }
                if self.cfg.protocol.consistency == Consistency::Sc {
                    let ack = MsgKind::RelAck;
                    self.send(t, msg.dst, msg.src, msg.block, ack, msg.version);
                }
            }
            MsgKind::BarArrive { id } => {
                if self.homes[h].barriers.arrive(msg.src, id) {
                    self.barrier_log.push(now);
                    for i in 0..self.cfg.procs {
                        let release = MsgKind::BarRelease { id };
                        self.send(t, msg.dst, NodeId(i as u16), msg.block, release, 0);
                    }
                }
            }
            kind => {
                // Data arriving at home updates the memory image.
                if kind.carries_block() || matches!(kind, MsgKind::UpdateReq { .. }) {
                    self.homes[h].merge_version(msg.block, msg.version);
                }
                // Reuse the pooled transaction buffer; `send_from_home`
                // below needs `&mut self`, so the buffer is taken out for
                // the duration of the dispatch and returned afterwards.
                let mut actions = std::mem::take(&mut self.action_pool);
                actions.clear();
                self.homes[h].dir.set_trace_now(now.cycles());
                if let Err(e) =
                    self.homes[h]
                        .dir
                        .handle_into(msg.src, msg.block, kind, &mut actions)
                {
                    self.fatal = Some(SimError::Protocol(e));
                    return;
                }
                for act in actions.drain(..) {
                    self.send_from_home(h, t, msg.block, act);
                }
                self.action_pool = actions;
            }
        }
    }

    /// Sends one directory action of home `h` about `block`. Data and
    /// update messages carry the home's memory version of the block;
    /// control messages carry 0.
    fn send_from_home(&mut self, h: usize, t: Time, block: BlockAddr, act: DirAction) {
        let carries_payload =
            act.kind.carries_block() || matches!(act.kind, MsgKind::Update { .. });
        let version = if carries_payload {
            self.homes[h].version_of(block)
        } else {
            0
        };
        self.send(t, NodeId(h as u16), act.dst, block, act.kind, version);
    }

    // -------------------------------------------------------- node faults

    /// Kills node `n`'s cache side at time `t`: both cache levels, the
    /// write buffers, the write cache and every in-flight request die with
    /// the processor. Returns the blocks whose most recent written value
    /// may have existed only on the dead node (dirty lines, buffered
    /// writes) — the machine marks these as degraded so the end-of-run
    /// value check knows memory legitimately rewound.
    fn crash_node(&mut self, n: NodeId, t: Time) -> Vec<BlockAddr> {
        let i = n.idx();
        // Close out the stall the crash interrupts, so the stall account
        // stays consistent even though the operation never completes.
        if let ProcState::Stalled { kind, since } = self.nodes.pstate[i] {
            self.nodes.stalls[i].add_stall(kind, t.saturating_sub(since).cycles());
        }
        let mut lost: Vec<BlockAddr> = Vec::new();
        let resident: Vec<(BlockAddr, CacheState)> = self.nodes.slc[i]
            .iter()
            .map(|(b, line)| (b, line.state))
            .collect();
        for &(b, state) in &resident {
            if state == CacheState::Dirty {
                lost.push(b);
            }
        }
        // In-flight writes: ownership/update/writeback requests, upgrades
        // riding a read, write-cache contents and backlogged victims all
        // carry version stamps the global write count already saw.
        for e in &self.nodes.slwb[i] {
            let writes = match e.op {
                SlwbOp::Own { .. } | SlwbOp::Update { .. } | SlwbOp::Writeback => true,
                SlwbOp::Read {
                    upgrade_version, ..
                } => upgrade_version.is_some(),
            };
            if writes {
                lost.push(e.block);
            }
        }
        lost.extend(self.nodes.wc_version[i].keys());
        lost.extend(self.nodes.update_backlog[i].iter().map(|(e, _)| e.block));
        lost.extend(
            self.nodes.wb_backlog[i]
                .iter()
                .filter(|&&(_, written, _)| written)
                .map(|&(b, _, _)| b),
        );
        // Wipe. FLC first (inclusion), then the SLC.
        let flc_resident: Vec<BlockAddr> = self.nodes.flc.resident(i).collect();
        for b in flc_resident {
            self.nodes.flc.invalidate(i, b);
        }
        for &(b, _) in &resident {
            self.nodes.slc[i].remove(b);
        }
        if self.ctrace.enabled() {
            for &(b, state) in &resident {
                self.trace_cache_transition(n, b, state.into(), TraceInput::Crash, t);
            }
        }
        while self.nodes.flwb[i].pop().is_some() {}
        self.nodes.flwb_active[i] = false;
        self.nodes.retry_no_charge[i] = false;
        self.nodes.slwb[i].clear();
        self.nodes.pending_writes[i] = 0;
        self.nodes.update_backlog[i].clear();
        self.nodes.wb_backlog[i].clear();
        if let Some(wc) = self.nodes.wc[i].as_mut() {
            let _ = wc.flush_all();
        }
        self.nodes.wc_version[i] = BlockMap::new();
        self.nodes.sync_waiting[i].clear();
        self.nodes.waiting_grant[i] = None;
        // Held locks are forgotten here and reclaimed at the homes by the
        // reconstruction sweep. The acquire-sequence counter is NOT reset:
        // it must stay monotone across incarnations or the homes' duplicate
        // filters would eat the new life's acquires.
        self.nodes.held_locks[i] = BlockMap::new();
        self.nodes.exts[i] = Exts::from_protocol(&self.cfg.protocol);
        self.retry_attempts[i] = BlockMap::new();
        self.retry_inflight[i] = BlockMap::new();
        if self.nodes.finish[i].is_none() {
            self.nodes.pstate[i] = ProcState::Crashed;
        }
        lost
    }

    /// Runs the epoch-fenced reconstruction of home `h` against dead node
    /// `n` at time `now`: the directory purges the node from every sharer
    /// set (emitting the synthesized completions and recovery fan-outs),
    /// and the lock controller hands the node's locks to their next
    /// waiters.
    fn purge_home(&mut self, h: usize, n: NodeId, now: Time) {
        let t = now + MEM_ACCESS;
        let home = NodeId(h as u16);
        self.homes[h].dir.set_trace_now(now.cycles());
        self.homes[h].dir.set_node_dead(n, true);
        let mut out: Vec<(BlockAddr, DirAction)> = Vec::new();
        if let Err(e) = self.homes[h].dir.purge_node(n, &mut out) {
            self.fatal = Some(SimError::Protocol(e));
            return;
        }
        for (block, act) in out {
            self.send_from_home(h, t, block, act);
        }
        for (lock, next, seq) in self.homes[h].locks.purge_node(n) {
            self.send(t, home, next, lock, MsgKind::AcqGrant, seq);
        }
    }

    /// Applies the node-fault tick `op` of `node` at `at`. Fault ticks
    /// execute between events, so liveness and epochs change atomically
    /// with respect to event dispatch.
    fn apply_fault(&mut self, at: Time, op: FaultOp, node: NodeId) -> Result<(), SimError> {
        // A scheduled outage is not a hang: the machine may be legitimately
        // quiet while a crashed node's peers wait out the detection delay.
        self.last_progress = at;
        match op {
            FaultOp::Crash => self.apply_crash(at, node),
            FaultOp::Reconstruct => self.apply_reconstruct(at, node)?,
            FaultOp::Recover => self.apply_recover(at, node),
        }
        Ok(())
    }

    fn apply_crash(&mut self, t: Time, n: NodeId) {
        let i = n.idx();
        self.crash_ctx[i] = Some(CrashCtx {
            pstate: self.nodes.pstate[i],
            wait: self.nodes.waiting_grant[i],
        });
        let lost = self.crash_node(n, t);
        self.alive[i] = false;
        for b in lost {
            if self.data_lost.get(b).is_none() {
                self.data_lost.get_or_insert_with(b, || ());
                self.data_loss += 1;
            }
        }
        self.node_crashes += 1;
    }

    /// The bounded-timeout detection fires: every home purges the dead
    /// node, in home order, sending each home's synthesized completions
    /// and lock hand-offs through the normal send path.
    fn apply_reconstruct(&mut self, t: Time, n: NodeId) -> Result<(), SimError> {
        for h in 0..self.cfg.procs {
            self.purge_home(h, n, t);
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Re-admits node `n` cold: epoch bumped, directories un-mark it, and
    /// the processor resumes according to what its previous incarnation
    /// was doing when it died.
    fn apply_recover(&mut self, t: Time, n: NodeId) {
        let i = n.idx();
        self.alive[i] = true;
        self.epoch[i] = self.epoch[i].wrapping_add(1);
        for h in &mut self.homes {
            h.dir.set_node_dead(n, false);
        }
        enum Restart {
            /// Proceed with the next instruction.
            Step,
            /// Re-execute the interrupted instruction (its effect died with
            /// the old incarnation).
            Redo,
            /// Keep waiting for a barrier release the old incarnation
            /// already earned an arrival for.
            Rewait(u32),
            /// The program had already finished.
            Done,
        }
        let ctx = self.crash_ctx[i].take();
        let restart = match ctx {
            None => Restart::Step,
            Some(c) => match c.pstate {
                ProcState::Done => Restart::Done,
                ProcState::Ready | ProcState::Crashed => Restart::Step,
                // A buffer stall happens *before* the pc advances, so the
                // pending instruction re-runs without a rollback.
                ProcState::Stalled {
                    kind: StallKind::Buffer,
                    ..
                } => Restart::Step,
                ProcState::Stalled { .. } => match c.wait {
                    Some(SyncWait::Barrier(id)) => {
                        let home = &self.homes[(id as usize) % self.cfg.procs];
                        if home.barriers.is_done(id) {
                            // The episode released during the outage.
                            Restart::Step
                        } else if home.barriers.has_arrived(n, id) {
                            // The pre-crash arrival was counted; the
                            // release broadcast will reach the new
                            // incarnation.
                            Restart::Rewait(id)
                        } else {
                            Restart::Redo
                        }
                    }
                    // The release reached its home before the crash (or the
                    // lock was purged); either way the critical section is
                    // over and the processor moves on.
                    Some(SyncWait::ReleaseAck(..)) => Restart::Step,
                    // Re-acquire with a fresh sequence number.
                    Some(SyncWait::Lock(..)) => Restart::Redo,
                    // A demand read/write: its request state died with the
                    // node, so the instruction re-executes.
                    None => Restart::Redo,
                },
            },
        };
        match restart {
            Restart::Done => self.nodes.pstate[i] = ProcState::Done,
            Restart::Rewait(id) => {
                self.nodes.pstate[i] = ProcState::Stalled {
                    kind: StallKind::Acquire,
                    since: t,
                };
                self.nodes.waiting_grant[i] = Some(SyncWait::Barrier(id));
            }
            Restart::Step | Restart::Redo => {
                if matches!(restart, Restart::Redo) {
                    self.nodes.pc[i] = self.nodes.pc[i].saturating_sub(1);
                }
                self.nodes.pstate[i] = ProcState::Ready;
                self.queue.push(t, Ev::ProcStep(n, self.epoch[i]));
            }
        }
        self.node_recoveries += 1;
    }

    // ------------------------------------------------------------ watchdog

    /// Periodic progress check: if no processor retired a program event for
    /// the configured window while some are still running, the run aborts
    /// with a diagnostic snapshot instead of spinning to the event budget.
    fn watchdog_tick(&mut self, now: Time) -> Result<(), SimError> {
        if self.nodes.finish.iter().all(|f| f.is_some()) {
            return Ok(()); // Quiescing normally; let the queue drain.
        }
        let window = Time::from_cycles(self.cfg.watchdog_pclocks);
        if now.saturating_sub(self.last_progress) >= window {
            Err(SimError::Watchdog {
                detail: self.snapshot(now),
            })
        } else {
            self.queue.push(self.last_progress + window, Ev::Watchdog);
            Ok(())
        }
    }

    /// A diagnostic snapshot of everything that can wedge a run: per-node
    /// processor state and pending requests, held locks, partial barriers,
    /// in-flight directory operations, queue depth and fault counters.
    fn snapshot(&self, now: Time) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "no progress since {} (now {now}, {} queued events)",
            self.last_progress,
            self.queue.len()
        );
        for i in (0..self.cfg.procs).filter(|&i| self.nodes.finish[i].is_none()) {
            let _ = write!(
                out,
                "; {}@pc{} {:?} slwb={:?} pw={} sync={:?} grant={:?} ev={:?}",
                NodeId(i as u16),
                self.nodes.pc[i],
                self.nodes.pstate[i],
                self.nodes.slwb[i],
                self.nodes.pending_writes[i],
                self.nodes.sync_waiting[i],
                self.nodes.waiting_grant[i],
                self.nodes.program[i].get(self.nodes.pc[i].saturating_sub(1)),
            );
        }
        for (i, h) in self.homes.iter().enumerate() {
            let held = h.locks.held();
            let waiting = h.barriers.waiting();
            let pending = h.dir.pending_ops();
            if held.is_empty() && waiting.is_empty() && pending.is_empty() {
                continue;
            }
            let _ = write!(out, "; home{i}:");
            for (lock, holder, queued) in held {
                let _ = write!(out, " lock {lock} held by {holder} (+{queued} queued)");
            }
            for (id, mask) in waiting {
                let _ = write!(out, " barrier {id} arrivals {mask:#b}");
            }
            for (block, op) in pending {
                let _ = write!(out, " dir {block} {op}");
            }
        }
        if let Some(fs) = self.net.fault_stats() {
            let _ = write!(
                out,
                "; faults: {} msgs, {} delayed, {} retx, {} dup, {} lost",
                fs.messages, fs.delayed, fs.retransmitted, fs.duplicated, fs.lost
            );
        }
        out
    }

    // ----------------------------------------------------------- metrics

    fn collect_metrics(&self, workload: &Workload) -> Metrics {
        let mut m = Metrics {
            workload: workload.name().to_owned(),
            protocol: self.cfg.protocol.label(),
            consistency: self.cfg.protocol.consistency.to_string(),
            network: self.net.name().to_owned(),
            procs: self.cfg.procs,
            ..Metrics::default()
        };
        for i in 0..self.cfg.procs {
            let c = &self.nodes.counters[i];
            m.exec_cycles = m
                .exec_cycles
                .max(self.nodes.finish[i].map_or(0, Time::cycles));
            m.stalls.merge(&self.nodes.stalls[i]);
            m.shared_reads += c.shared_reads;
            m.shared_writes += c.shared_writes;
            m.flc_hits += self.nodes.flc.hits(i);
            m.slc_misses += c.slc_misses;
            m.wc_read_hits += c.wc_read_hits;
            m.read_miss_cycles += c.read_miss_cycles;
            m.read_miss_count += c.read_miss_count;
            m.read_miss_hist.merge(&self.nodes.read_miss_hist[i]);
            if let Some(ps) = self.nodes.exts[i].prefetch_stats() {
                m.prefetches_issued += ps.issued;
                m.prefetches_useful += ps.useful;
            }
        }
        m.cold_misses = self.classifier.cold();
        m.coh_misses = self.classifier.coherence();
        m.repl_misses = self.classifier.replacement();
        for h in &self.homes {
            let d = h.dir.stats();
            m.ownership_reqs += d.own_reqs;
            m.update_reqs += d.update_reqs;
            m.updates_fanned_out += d.updates_sent;
            m.invals_sent += d.invals_sent;
            m.writebacks += d.writebacks;
            m.exclusive_grants += d.exclusive_grants;
            m.migratory_detections += d.migratory_detections;
            m.migratory_reverts += d.migratory_reverts;
            m.interrogations += d.interrogations;
            m.update_recalls += d.update_recalls;
            m.reads_clean += d.reads_clean;
            m.reads_dirty += d.reads_dirty;
            m.dir_overflows += d.dir_overflows;
            m.dir_broadcasts += d.dir_broadcasts;
            m.dir_recalls += d.dir_recalls;
            m.nacks_sent += d.nacks_sent;
            m.stale_drops += d.stale_drops;
            m.stale_drops += h.locks.stale_ops() + h.barriers.stale_ops();
            m.lock_acquires += h.locks.acquires();
            m.barrier_episodes += h.barriers.episodes();
            m.dir_purged_sharers += d.purged_sharers;
            m.dir_orphan_reclaims += d.orphan_reclaims;
            m.dir_purge_sweeps += d.purge_sweeps;
            m.crash_aborted_grants += d.aborted_grants;
        }
        m.stale_drops += self.stale_drops;
        m.nack_retries = self.nack_retries;
        m.crash_drops = self.crash_drops;
        m.stale_epoch_drops = self.stale_epoch_drops;
        m.node_crashes = self.node_crashes;
        m.node_recoveries = self.node_recoveries;
        m.data_loss_blocks = self.data_loss;
        if let Some(fs) = self.net.fault_stats() {
            m.fault_delayed = fs.delayed;
            m.fault_retransmitted = fs.retransmitted;
            m.fault_duplicated = fs.duplicated;
            m.fault_lost = fs.lost;
        }
        m.barrier_completion_cycles = self.barrier_log.iter().map(|t| t.cycles()).collect();
        m.per_proc_stalls = self.nodes.stalls.clone();
        let t = self.net.traffic();
        m.net_bytes = t.bytes();
        m.net_msgs = t.msgs();
        m.net_data_bytes = t.bytes_in(TrafficClass::Data);
        m.net_update_bytes = t.bytes_in(TrafficClass::Update);
        m.net_control_bytes = t.bytes_in(TrafficClass::Control);
        m.net_sync_bytes = t.bytes_in(TrafficClass::Sync);
        m
    }
}
