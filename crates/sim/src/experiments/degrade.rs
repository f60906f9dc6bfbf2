//! Extension experiment (not in the paper): graceful-degradation sweep
//! under whole-node crash/recovery faults.
//!
//! Crosses the crash-count axis (how many nodes die and rejoin during the
//! run) against every feasible directory organization and the paper's key
//! protocol stacks, and reports what node failure costs each combination:
//! execution-time inflation over the same cell's crash-free row, modeled
//! data loss (dirty blocks whose only up-to-date copy died), and the
//! reconstruction work the directories performed (purged sharers,
//! orphaned-line reclaims). The interesting contrast is organizational:
//! an exact full map purges a dead node surgically, while the inexact
//! organizations must sweep regions or broadcast — the same
//! over-approximation tax the `dirscale` sweep prices, now under faults.
//!
//! Crash schedules come from [`NodeFaultPlan::seeded`], so every cell is
//! deterministic and the whole sweep is journaled, resumable and
//! parallel across `--jobs` through [`super::run_cells`] like every paper
//! artifact; the crash windows are part of each cell's journal key. Like
//! `dirscale`, every cell runs on the two-level mesh
//! ([`DIRSCALE_NETWORK`]) — the one modelled topology that reaches the
//! node counts where the organizations actually diverge.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::sharer::DirOrg;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::dirscale::DIRSCALE_NETWORK;
use super::runner::{run_rows, Cell, SweepError, SweepOpts};
use crate::nodefault::DEFAULT_DETECT_DELAY;
use crate::NodeFaultPlan;

/// The crash-count axis: 0 is the crash-free baseline row the inflation
/// column normalizes against.
pub const DEGRADE_CRASHES: [usize; 4] = [0, 1, 2, 4];

/// The protocol stacks compared under failure: the baseline and the
/// paper's full combination, bracketing the extension space.
pub const DEGRADE_PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::Basic, ProtocolKind::PCwM];

/// Shape of the seeded crash schedules: the plan seed and the
/// detection-delay bound, fixed across the sweep so rows differ only on
/// the crash-count axis.
#[derive(Debug, Clone, Copy)]
pub struct DegradeParams {
    /// Seed for [`NodeFaultPlan::seeded`].
    pub seed: u64,
    /// Detection delay (cycles between a crash and the reconstruction
    /// sweep) applied to every plan.
    pub detect_delay: u64,
}

impl Default for DegradeParams {
    fn default() -> Self {
        DegradeParams {
            seed: 1,
            detect_delay: DEFAULT_DETECT_DELAY,
        }
    }
}

/// Result of the degradation sweep for one application.
#[derive(Debug)]
pub struct Degrade {
    /// Application name.
    pub app: String,
    /// One row per `(crashes, organization)` pair, crash-count-major in
    /// [`DEGRADE_CRASHES`] × feasible-[`DirOrg::ALL`] order.
    pub rows: Vec<DegradeRow>,
}

/// Metrics for one crash count under one directory organization.
#[derive(Debug)]
pub struct DegradeRow {
    /// Scheduled node crashes.
    pub crashes: usize,
    /// Directory organization.
    pub org: DirOrg,
    /// Metrics per protocol, in [`DEGRADE_PROTOCOLS`] order.
    pub metrics: Vec<Metrics>,
}

impl Degrade {
    /// Execution-time inflation of `row` relative to the crash-free row
    /// of the same organization, per protocol (1.0 = no slowdown).
    pub fn inflation(&self, row: &DegradeRow) -> Vec<f64> {
        let base = self
            .rows
            .iter()
            .find(|r| r.crashes == 0 && r.org == row.org)
            .unwrap_or(row);
        row.metrics
            .iter()
            .zip(&base.metrics)
            .map(|(m, b)| m.relative_time(b))
            .collect()
    }
}

impl DegradeRow {
    /// Summed failure telemetry across the row's protocols:
    /// `(recoveries, purged sharers, orphan reclaims, data-loss blocks)`.
    pub fn fault_activity(&self) -> (u64, u64, u64, u64) {
        self.metrics.iter().fold((0, 0, 0, 0), |(r, p, o, d), m| {
            (
                r + m.node_recoveries,
                p + m.dir_purged_sharers,
                o + m.dir_orphan_reclaims,
                d + m.data_loss_blocks,
            )
        })
    }
}

/// The feasible `(crashes, org)` grid for a machine of `procs` nodes, in
/// row order. The crash axis is capped at `procs - 1` survivable crashes
/// (duplicated counts would journal identical cells twice).
fn grid(procs: usize) -> Vec<(usize, DirOrg)> {
    let mut counts: Vec<usize> = DEGRADE_CRASHES
        .into_iter()
        .map(|c| c.min(procs.saturating_sub(1)))
        .collect();
    counts.dedup();
    counts
        .into_iter()
        .flat_map(|crashes| {
            DirOrg::ALL
                .into_iter()
                .filter(move |org| org.validate(procs).is_ok())
                .map(move |org| (crashes, org))
        })
        .collect()
}

/// Runs the degradation sweep on `workload` with the crash schedules
/// shaped by `params`.
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn degrade(
    app_name: &str,
    workload: &Workload,
    params: DegradeParams,
    opts: &SweepOpts,
) -> Result<Degrade, SweepError> {
    let procs = workload.procs();
    let rows = run_rows(
        "degrade",
        grid(procs),
        |&(crashes, org)| {
            DEGRADE_PROTOCOLS
                .iter()
                .map(|&kind| {
                    let mut cell =
                        Cell::on(workload, kind, Consistency::Rc, DIRSCALE_NETWORK).with_dir(org);
                    if crashes > 0 {
                        let mut plan = NodeFaultPlan::seeded(params.seed, procs, crashes);
                        plan.detect_delay = params.detect_delay;
                        cell = cell.with_node_faults(plan);
                    }
                    cell
                })
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|((crashes, org), metrics)| DegradeRow {
        crashes,
        org,
        metrics,
    })
    .collect();
    Ok(Degrade {
        app: app_name.to_owned(),
        rows,
    })
}

impl fmt::Display for Degrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Graceful degradation (extension experiment): {} under seeded node \
             crash/recovery, exec time relative to the same organization's crash-free run (RC)",
            self.app
        )?;
        let mut header = vec!["crashes".to_owned(), "dir".to_owned()];
        header.extend(DEGRADE_PROTOCOLS.iter().map(|k| format!("{} x", k.name())));
        header.extend([
            "recovered".to_owned(),
            "purged".to_owned(),
            "reclaimed".to_owned(),
            "lost-blocks".to_owned(),
        ]);
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let infl = self.inflation(row);
            let (recovered, purged, reclaimed, lost) = row.fault_activity();
            let mut cells = vec![row.crashes.to_string(), row.org.cli_name()];
            cells.extend(infl.iter().map(|r| format!("{r:.2}")));
            cells.extend([
                recovered.to_string(),
                purged.to_string(),
                reclaimed.to_string(),
                lost.to_string(),
            ]);
            t.row(cells);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_caps_crashes_and_skips_infeasible_orgs() {
        // 4 nodes: the 4-crash level collapses into the 3-crash cap, so
        // the axis is [0, 1, 2, 3] with no duplicates.
        let g = grid(4);
        let counts: Vec<usize> = g.iter().map(|&(c, _)| c).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        let mut distinct = counts.clone();
        distinct.dedup();
        assert_eq!(
            distinct,
            vec![0, 1, 2, 3],
            "crash axis must cap at procs - 1 and dedup"
        );
        // 1024 nodes: the full map is infeasible and must be skipped.
        assert!(!grid(1024).iter().any(|&(_, o)| o == DirOrg::FullMap));
    }

    #[test]
    fn degrade_sweep_runs_and_shows_recovery_activity() {
        let w = dirext_workloads::micro::producer_consumer(8, 2, 40);
        let r = degrade("micro", &w, DegradeParams::default(), &SweepOpts::default())
            .expect("degrade sweep must run");
        assert_eq!(r.rows.len(), grid(8).len());
        // The crash-free rows report no failure activity; a faulted row
        // reports exactly its scheduled recoveries per protocol.
        for row in &r.rows {
            let (recovered, ..) = row.fault_activity();
            if row.crashes == 0 {
                assert_eq!(recovered, 0, "{:?}", row.org);
                assert!(r.inflation(row).iter().all(|&x| x == 1.0));
            } else {
                assert_eq!(
                    recovered,
                    (row.crashes * DEGRADE_PROTOCOLS.len()) as u64,
                    "{} crashes under {:?}",
                    row.crashes,
                    row.org
                );
            }
        }
    }
}
