//! Shared run helpers and the crash-safe sweep orchestrator.
//!
//! Every experiment driver lists its rows' [`Cell`]s through [`run_rows`],
//! which hands them to [`run_cells`] as one flat list; `run_cells` layers
//! the robustness machinery over the raw [`super::pool`] fan-out:
//!
//! * **Journaling** — with [`SweepOpts::journal`] set, each completed cell
//!   is appended to the write-ahead [`Journal`](super::journal::Journal)
//!   before the sweep proceeds, and previously-journaled cells are served
//!   from the log instead of re-simulating. Metrics are integer-exact
//!   through the JSON round-trip, so a resumed sweep reassembles
//!   byte-identical artifacts.
//! * **Panic isolation** — each cell runs under `catch_unwind`; a panic
//!   becomes [`SweepError::CellPanicked`] (or a quarantine entry) instead
//!   of tearing down the whole sweep.
//! * **Retry with fault-seed rotation** — transiently-failing cells
//!   ([`SimError::is_transient`] under an active fault plan) are retried
//!   up to [`TRANSIENT_RETRIES`] times with the fault seed rotated by the
//!   attempt number. The rotation is deterministic, so interrupted and
//!   uninterrupted runs agree on every outcome.
//! * **Quarantine** — with [`SweepOpts::keep_going`], failing cells are
//!   collected into a [`Quarantine`] report while their siblings finish;
//!   without it the sweep stops claiming new cells after the first
//!   failure and drains.
//! * **Cooperative cancellation** — [`SweepOpts::cancel`] is checked
//!   between cells; when it trips, in-flight cells finish, the journal is
//!   already flushed, and the sweep returns [`SweepError::Interrupted`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dirext_core::config::Consistency;
use dirext_core::sharer::DirOrg;
use dirext_core::ProtocolKind;
use dirext_network::FaultPlan;
use dirext_stats::Metrics;
use dirext_trace::Workload;

use super::journal::{cell_key, Journal};
use super::pool;
use super::sens::Constraint;
use crate::{Machine, MachineConfig, NetworkKind, NodeFaultPlan, SimError};

/// Extra attempts for a transiently-failing cell under an active fault
/// plan, each with the fault seed rotated by the attempt number.
pub const TRANSIENT_RETRIES: u32 = 2;

/// Options shared by every sweep driver.
///
/// `jobs` sets the worker-thread count for the sweep pool (0 or 1 = run
/// inline); `fault` optionally overlays a fault-injection plan on every
/// run. The remaining fields configure the crash-safety layer — see the
/// module docs.
#[derive(Debug, Clone, Default)]
pub struct SweepOpts {
    /// Worker threads for the sweep (0 or 1 = serial inline).
    pub jobs: usize,
    /// Fault plan applied to every run, if any.
    pub fault: Option<FaultPlan>,
    /// Write-ahead journal: completed cells are recorded and, on resume,
    /// served from the log instead of re-simulating.
    pub journal: Option<Arc<Journal>>,
    /// Collect failing cells into a [`Quarantine`] report instead of
    /// stopping at the first failure.
    pub keep_going: bool,
    /// Cooperative cancellation flag (e.g. armed by a SIGINT handler):
    /// checked between cells, drains in-flight work when set.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Chaos hook: panic inside any cell whose key contains this substring
    /// (exercises the panic-isolation path in tests and CI smoke).
    pub chaos_panic: Option<String>,
}

impl SweepOpts {
    /// Options running on `jobs` worker threads, no fault injection.
    pub fn jobs(jobs: usize) -> Self {
        SweepOpts {
            jobs,
            ..SweepOpts::default()
        }
    }

    /// Returns these options with `fault` overlaid on every run.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Returns these options recording/resuming through `journal`.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Returns these options with failure quarantine enabled.
    pub fn keep_going(mut self) -> Self {
        self.keep_going = true;
        self
    }

    /// Returns these options draining when `cancel` becomes true.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Returns these options panicking in cells whose key contains
    /// `needle` (test/CI chaos hook).
    pub fn with_chaos_panic(mut self, needle: impl Into<String>) -> Self {
        self.chaos_panic = Some(needle.into());
        self
    }
}

/// One simulator configuration of a sweep: the unit of journaling, retry
/// and quarantine.
#[derive(Debug, Clone)]
pub struct Cell<'a> {
    /// The application workload.
    pub workload: &'a Workload,
    /// Protocol under test.
    pub kind: ProtocolKind,
    /// Consistency model.
    pub consistency: Consistency,
    /// Interconnect model.
    pub network: NetworkKind,
    /// The §5.4 constraint this cell runs under, if any: it sets both the
    /// machine's timing and the journal key's variant tag.
    pub constraint: Option<Constraint>,
    /// Directory organization (full-map unless the sweep says otherwise).
    pub dir: DirOrg,
    /// Whole-node crash/recovery schedule for this cell (the `degrade`
    /// sweep varies it per cell; `None` or an inactive plan is the
    /// fault-free path). An active plan is encoded into the journal cell
    /// key, so faulted and fault-free cells never share a record.
    pub node_fault: Option<NodeFaultPlan>,
}

impl<'a> Cell<'a> {
    /// A cell on the default uniform network with paper-default timing.
    pub fn new(workload: &'a Workload, kind: ProtocolKind, consistency: Consistency) -> Self {
        Cell::on(workload, kind, consistency, NetworkKind::Uniform)
    }

    /// A cell on an explicit network.
    pub fn on(
        workload: &'a Workload,
        kind: ProtocolKind,
        consistency: Consistency,
        network: NetworkKind,
    ) -> Self {
        Cell {
            workload,
            kind,
            consistency,
            network,
            constraint: None,
            dir: DirOrg::FullMap,
            node_fault: None,
        }
    }

    /// Returns this cell under a §5.4 constraint.
    pub fn constrained(mut self, constraint: Constraint) -> Self {
        self.constraint = Some(constraint);
        self
    }

    /// Returns this cell under an explicit directory organization.
    pub fn with_dir(mut self, dir: DirOrg) -> Self {
        self.dir = dir;
        self
    }

    /// Returns this cell under a whole-node crash/recovery schedule.
    pub fn with_node_faults(mut self, plan: NodeFaultPlan) -> Self {
        self.node_fault = Some(plan);
        self
    }

    /// Journal-key descriptor of this cell's node-fault schedule: empty
    /// for the fault-free path (so existing journals stay resumable byte
    /// for byte), otherwise a stable rendering of every crash window.
    fn node_fault_key(&self) -> String {
        match &self.node_fault {
            Some(p) if p.is_active() => {
                let windows: Vec<String> = p
                    .events
                    .iter()
                    .map(|e| format!("{}@{}-{}", e.node.0, e.crash_at, e.recover_at))
                    .collect();
                format!("/nf=d{}:{}", p.detect_delay, windows.join(","))
            }
            _ => String::new(),
        }
    }
}

/// One failed cell, as reported in a [`Quarantine`].
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// The journal cell key (self-describing configuration).
    pub key: String,
    /// Rendered error message.
    pub error: String,
    /// The structured simulator error, when the failure was not a panic.
    pub sim: Option<SimError>,
    /// Whether the cell panicked (vs failing with a [`SimError`]).
    pub panicked: bool,
    /// Attempts made (1 = failed on first try).
    pub attempts: u32,
}

/// The failure report of a `--keep-going` sweep: every cell that failed
/// after retries, while its siblings ran to completion.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    /// Failed cells, in sweep (index) order.
    pub failures: Vec<CellFailure>,
    /// Cells that completed successfully.
    pub completed: usize,
    /// Total cells in the sweep.
    pub total: usize,
}

/// A sweep-level failure from [`run_cells`].
#[derive(Debug, Clone)]
pub enum SweepError {
    /// A cell failed with a simulator error (fail-fast mode: lowest index
    /// among the cells that ran).
    Sim {
        /// The failing cell's key.
        key: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The underlying simulator error.
        error: SimError,
    },
    /// A cell panicked (fail-fast mode); the panic was caught at the cell
    /// boundary and the remaining workers drained cleanly.
    CellPanicked {
        /// The panicking cell's key.
        key: String,
        /// The panic payload, rendered.
        detail: String,
    },
    /// `--keep-going`: the sweep completed but some cells failed.
    Quarantined(Quarantine),
    /// The sweep was cancelled cooperatively; completed cells are in the
    /// journal (when one is configured) and a `--resume` run picks up from
    /// there.
    Interrupted {
        /// Cells that completed before the drain.
        completed: usize,
        /// Total cells in the sweep.
        total: usize,
    },
    /// The journal could not be written — the sweep result would not be
    /// resumable, which is treated as a failure rather than silently
    /// degrading.
    Journal(String),
    /// A driver could not assemble its rows from the per-cell results
    /// (internal shape-mismatch guard; indicates a driver bug).
    Assembly(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Sim {
                key,
                attempts,
                error,
            } => {
                write!(f, "cell {key} failed after {attempts} attempt(s): {error}")
            }
            SweepError::CellPanicked { key, detail } => {
                write!(f, "cell {key} panicked: {detail}")
            }
            SweepError::Quarantined(q) => {
                writeln!(
                    f,
                    "{} of {} cells quarantined ({} completed):",
                    q.failures.len(),
                    q.total,
                    q.completed
                )?;
                for failure in &q.failures {
                    let first_line = failure.error.lines().next().unwrap_or("");
                    let what = if failure.panicked { "panic" } else { "error" };
                    writeln!(
                        f,
                        "  {} [{} attempt(s), {what}] {first_line}",
                        failure.key, failure.attempts
                    )?;
                }
                write!(
                    f,
                    "re-run failing cells after fixing; completed cells resume from the journal"
                )
            }
            SweepError::Interrupted { completed, total } => {
                write!(
                    f,
                    "sweep interrupted: {completed} of {total} cells completed"
                )
            }
            SweepError::Journal(detail) => write!(f, "sweep journal failure: {detail}"),
            SweepError::Assembly(detail) => write!(f, "sweep row assembly failed: {detail}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Sim { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl SweepError {
    /// The quarantine report, when this is a `--keep-going` failure.
    pub fn quarantine(&self) -> Option<&Quarantine> {
        match self {
            SweepError::Quarantined(q) => Some(q),
            _ => None,
        }
    }
}

/// Per-cell outcome inside the pool (before sweep-level aggregation).
enum Outcome {
    Ok(Box<Metrics>),
    Failed(CellFailure),
}

/// Runs every cell of a sweep through the crash-safety layer (journal
/// lookup/record, `catch_unwind`, transient retry, quarantine,
/// cancellation — see the module docs) and returns the metrics in cell
/// order.
///
/// `driver` names the sweep in journal keys (`fig2`, `table3`, ...).
///
/// # Errors
///
/// [`SweepError::Sim`]/[`SweepError::CellPanicked`] for the
/// lowest-indexed failure in fail-fast mode, [`SweepError::Quarantined`]
/// with the full failure list under [`SweepOpts::keep_going`],
/// [`SweepError::Interrupted`] when the cancellation flag tripped, and
/// [`SweepError::Journal`] when the write-ahead log broke.
pub fn run_cells(
    driver: &str,
    cells: &[Cell<'_>],
    opts: &SweepOpts,
) -> Result<Vec<Metrics>, SweepError> {
    let total = cells.len();
    let keys: Vec<String> = cells
        .iter()
        .map(|c| {
            let mut key = cell_key(
                driver,
                c.workload,
                c.kind,
                c.consistency,
                c.network,
                c.dir,
                c.constraint.map_or("base", Constraint::tag),
                opts.fault.as_ref(),
            );
            key.push_str(&c.node_fault_key());
            key
        })
        .collect();

    let failed_fast = AtomicBool::new(false);
    let cancelled = || {
        opts.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    };
    let should_stop = || failed_fast.load(Ordering::Relaxed) || cancelled();

    let outcomes = pool::run_collect(opts.jobs, total, &should_stop, |i| {
        let outcome = run_one(&keys[i], &cells[i], opts);
        if matches!(outcome, Outcome::Failed(_)) && !opts.keep_going {
            failed_fast.store(true, Ordering::Relaxed);
        }
        outcome
    });

    let mut metrics = Vec::with_capacity(total);
    let mut failures = Vec::new();
    let mut unclaimed = 0usize;
    for outcome in outcomes {
        match outcome {
            Some(Outcome::Ok(m)) => metrics.push(*m),
            Some(Outcome::Failed(failure)) => failures.push(failure),
            None => unclaimed += 1,
        }
    }
    let completed = metrics.len();

    if let Some(journal) = &opts.journal {
        if let Some(detail) = journal.take_write_error() {
            return Err(SweepError::Journal(detail));
        }
    }
    if !opts.keep_going {
        if let Some(first) = failures.drain(..).next() {
            return Err(if first.panicked {
                SweepError::CellPanicked {
                    key: first.key,
                    detail: first.error,
                }
            } else {
                SweepError::Sim {
                    key: first.key,
                    attempts: first.attempts,
                    error: first.sim.unwrap_or(SimError::EventBudgetExceeded),
                }
            });
        }
    }
    if unclaimed > 0 && cancelled() {
        return Err(SweepError::Interrupted { completed, total });
    }
    if !failures.is_empty() {
        return Err(SweepError::Quarantined(Quarantine {
            failures,
            completed,
            total,
        }));
    }
    if unclaimed > 0 {
        // Unreachable without a failure or cancellation; guard anyway so a
        // pool bug cannot silently return a short row set.
        return Err(SweepError::Assembly(format!(
            "{unclaimed} of {total} cells unclaimed without a recorded cause"
        )));
    }
    Ok(metrics)
}

/// Runs a sweep laid out in rows: `per_row` lists each row's cells, every
/// row's cells run through one [`run_cells`] call in row order, and each
/// row comes back with its own metrics, in the order `per_row` listed its
/// cells.
///
/// # Errors
///
/// As [`run_cells`].
pub(super) fn run_rows<'w, R>(
    driver: &str,
    rows: impl IntoIterator<Item = R>,
    per_row: impl Fn(&R) -> Vec<Cell<'w>>,
    opts: &SweepOpts,
) -> Result<Vec<(R, Vec<Metrics>)>, SweepError> {
    let mut sized = Vec::new();
    let mut cells = Vec::new();
    for row in rows {
        let row_cells = per_row(&row);
        sized.push((row, row_cells.len()));
        cells.extend(row_cells);
    }
    let mut metrics = run_cells(driver, &cells, opts)?.into_iter();
    Ok(sized
        .into_iter()
        .map(|(row, n)| (row, metrics.by_ref().take(n).collect()))
        .collect())
}

/// Runs one cell: journal lookup, chaos hook, `catch_unwind`, bounded
/// retry with fault-seed rotation, journal record.
fn run_one(key: &str, cell: &Cell<'_>, opts: &SweepOpts) -> Outcome {
    if let Some(journal) = &opts.journal {
        if let Some(metrics) = journal.lookup(key) {
            return Outcome::Ok(Box::new(metrics));
        }
    }
    let retryable = opts.fault.is_some_and(|f| f.is_active());
    let max_attempts = if retryable { 1 + TRANSIENT_RETRIES } else { 1 };
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        // Rotate the fault seed on retry: the simulator is deterministic,
        // so replaying the identical drop schedule would fail identically.
        // The rotation itself is deterministic, which keeps resumed and
        // uninterrupted sweeps in exact agreement.
        let fault = opts.fault.map(|f| FaultPlan {
            seed: f.seed.wrapping_add(u64::from(attempt) - 1),
            ..f
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(needle) = &opts.chaos_panic {
                if key.contains(needle.as_str()) {
                    panic!("chaos hook: deliberate panic in cell {key}");
                }
            }
            let mut cfg =
                MachineConfig::new(cell.workload.procs(), cell.kind.config(cell.consistency))
                    .with_network(cell.network)
                    .with_dir_org(cell.dir);
            if let Some(c) = cell.constraint {
                cfg = cfg.with_timing(c.timing());
            }
            if let Some(p) = fault {
                cfg = cfg.with_faults(p);
            }
            if let Some(p) = cell.node_fault.clone() {
                cfg = cfg.with_node_faults(p);
            }
            Machine::new(cfg).run(cell.workload)
        }));
        match result {
            Ok(Ok(metrics)) => {
                if let Some(journal) = &opts.journal {
                    journal.record_ok(key, attempt, &metrics);
                }
                return Outcome::Ok(Box::new(metrics));
            }
            Ok(Err(error)) => {
                if error.is_transient() && attempt < max_attempts {
                    continue;
                }
                let rendered = error.to_string();
                if let Some(journal) = &opts.journal {
                    journal.record_failed(key, attempt, &rendered);
                }
                return Outcome::Failed(CellFailure {
                    key: key.to_owned(),
                    error: rendered,
                    sim: Some(error),
                    panicked: false,
                    attempts: attempt,
                });
            }
            Err(payload) => {
                let detail = panic_message(payload.as_ref());
                if let Some(journal) = &opts.journal {
                    journal.record_failed(key, attempt, &format!("panic: {detail}"));
                }
                return Outcome::Failed(CellFailure {
                    key: key.to_owned(),
                    error: detail,
                    sim: None,
                    panicked: true,
                    attempts: attempt,
                });
            }
        }
    }
}

/// Renders a `catch_unwind` payload (panics carry `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
