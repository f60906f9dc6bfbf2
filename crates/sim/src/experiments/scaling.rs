//! Extension experiment (not in the paper): processor-count scaling.
//!
//! The paper's conclusions are drawn at 16 processors. This sweep reruns
//! the key combinations at 4, 8, 16, 32 and 64 nodes to show how the gains
//! move with scale: invalidation fan-outs and lock contention grow with
//! the machine, so the migratory optimization's ownership elimination and
//! CW's coherence-miss elimination both matter *more* at larger N, while
//! the prefetcher's benefit is scale-neutral. `DESIGN.md` lists this under
//! future-work items the paper's framework supports.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};

/// The node counts swept.
pub const SCALING_PROCS: [usize; 5] = [4, 8, 16, 32, 64];

/// The protocols compared at each scale.
pub const SCALING_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Basic,
    ProtocolKind::P,
    ProtocolKind::PCw,
    ProtocolKind::PM,
];

/// Result of the scaling sweep for one application.
#[derive(Debug)]
pub struct Scaling {
    /// Application name.
    pub app: String,
    /// One row per machine size, in [`SCALING_PROCS`] order.
    pub rows: Vec<ScalingRow>,
}

/// Metrics at one machine size.
#[derive(Debug)]
pub struct ScalingRow {
    /// Processor count.
    pub procs: usize,
    /// Metrics per protocol, in [`SCALING_PROTOCOLS`] order.
    pub metrics: Vec<Metrics>,
}

impl ScalingRow {
    /// Relative execution times vs BASIC at the same machine size.
    pub fn relative_times(&self) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|m| m.relative_time(&self.metrics[0]))
            .collect()
    }
}

/// Runs the scaling sweep. `make_workload` builds the application for a
/// given processor count (workload sizes are per-machine, so the generator
/// is a callback instead of a fixed [`Workload`]).
///
/// The workloads for all machine sizes are generated up front, in
/// [`SCALING_PROCS`] order, and the runs fan out over the worker pool;
/// cloning is avoided because [`Workload`] shares its programs by
/// reference count.
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn scaling<F>(app_name: &str, make_workload: F, opts: &SweepOpts) -> Result<Scaling, SweepError>
where
    F: FnMut(usize) -> Workload,
{
    let workloads: Vec<Workload> = SCALING_PROCS.into_iter().map(make_workload).collect();
    let rows = run_rows(
        "scaling",
        SCALING_PROCS.into_iter().zip(&workloads),
        |&(_, w)| {
            SCALING_PROTOCOLS
                .iter()
                .map(|&kind| Cell::new(w, kind, Consistency::Rc))
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|((procs, _), metrics)| ScalingRow { procs, metrics })
    .collect();
    Ok(Scaling {
        app: app_name.to_owned(),
        rows,
    })
}

impl fmt::Display for Scaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Scaling (extension experiment): {} exec time relative to BASIC at each N (RC)",
            self.app
        )?;
        let mut header = vec!["procs".to_owned(), "BASIC exec".to_owned()];
        header.extend(
            SCALING_PROTOCOLS
                .iter()
                .skip(1)
                .map(|k| k.name().to_owned()),
        );
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let rel = row.relative_times();
            let mut cells = vec![
                row.procs.to_string(),
                row.metrics[0].exec_cycles.to_string(),
            ];
            cells.extend(rel.iter().skip(1).map(|r| format!("{r:.2}")));
            t.row(cells);
        }
        write!(f, "{t}")
    }
}
