//! Extension experiment (not in the paper): directory-organization
//! scaling sweep.
//!
//! The paper's full-map presence vector is priced for a 16-node machine;
//! at 256 or 1024 nodes the vector itself dominates memory overhead and
//! the organization stops being buildable. This sweep crosses the
//! scalable directory organizations (limited pointers with broadcast or
//! eviction, coarse vectors, directoryless broadcast) against the paper's
//! key protocol combinations at 64, 256 and 1024 nodes on the
//! hierarchical mesh, and reports how much each organization's
//! over-approximation costs: extra invalidation fan-out shows up directly
//! in execution time, and the `ovf`/`bcast`/`recall` columns count the
//! overflow machinery at work.
//!
//! Organizations that cannot serve a machine size (the full map past 64
//! nodes) are skipped rather than failed — the point of the sweep is the
//! feasible frontier. Cells run through [`super::run_cells`], so the
//! sweep is journaled, resumable, parallel across `--jobs` and
//! fault-injectable like every paper artifact.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::sharer::DirOrg;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};
use crate::NetworkKind;

/// The node counts swept (the full map is only feasible at the first).
pub const DIRSCALE_PROCS: [usize; 3] = [64, 256, 1024];

/// The protocol combinations compared under each organization: the
/// baseline plus the paper's P, P+CW and P+M combinations, so the sweep
/// shows whether the extension gains survive an inexact sharer set.
pub const DIRSCALE_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Basic,
    ProtocolKind::P,
    ProtocolKind::PCw,
    ProtocolKind::PM,
];

/// The interconnect every dirscale cell runs on: the two-level mesh is
/// the only modelled topology that reaches 1024 nodes, and using it at
/// every size keeps the organization comparison apples-to-apples.
pub const DIRSCALE_NETWORK: NetworkKind = NetworkKind::HierMesh { link_bits: 64 };

/// Result of the directory-organization scaling sweep for one
/// application.
#[derive(Debug)]
pub struct Dirscale {
    /// Application name.
    pub app: String,
    /// One row per feasible `(procs, organization)` pair, procs-major in
    /// [`DIRSCALE_PROCS`] × [`DirOrg::ALL`] order.
    pub rows: Vec<DirscaleRow>,
}

/// Metrics for one machine size under one directory organization.
#[derive(Debug)]
pub struct DirscaleRow {
    /// Processor count.
    pub procs: usize,
    /// Directory organization.
    pub org: DirOrg,
    /// Metrics per protocol, in [`DIRSCALE_PROTOCOLS`] order.
    pub metrics: Vec<Metrics>,
}

impl DirscaleRow {
    /// Relative execution times vs BASIC under the same organization and
    /// machine size.
    pub fn relative_times(&self) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|m| m.relative_time(&self.metrics[0]))
            .collect()
    }

    /// Summed directory-overflow activity across the row's protocols:
    /// `(overflows, broadcasts, recalls)`.
    pub fn dir_activity(&self) -> (u64, u64, u64) {
        self.metrics.iter().fold((0, 0, 0), |(o, b, r), m| {
            (o + m.dir_overflows, b + m.dir_broadcasts, r + m.dir_recalls)
        })
    }
}

/// The feasible `(procs, org)` grid of the sweep, in row order.
fn grid() -> Vec<(usize, DirOrg)> {
    DIRSCALE_PROCS
        .into_iter()
        .flat_map(|procs| {
            DirOrg::ALL
                .into_iter()
                .filter(move |org| org.validate(procs).is_ok())
                .map(move |org| (procs, org))
        })
        .collect()
}

/// Runs the directory-organization scaling sweep. `make_workload` builds
/// the application for a given processor count (as in
/// [`super::scaling`]).
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn dirscale<F>(
    app_name: &str,
    make_workload: F,
    opts: &SweepOpts,
) -> Result<Dirscale, SweepError>
where
    F: FnMut(usize) -> Workload,
{
    let workloads: Vec<Workload> = DIRSCALE_PROCS.into_iter().map(make_workload).collect();
    let workload_for = |procs: usize| {
        &workloads[DIRSCALE_PROCS
            .iter()
            .position(|&p| p == procs)
            .expect("grid procs come from DIRSCALE_PROCS")]
    };
    let rows = run_rows(
        "dirscale",
        grid(),
        |&(procs, org)| {
            DIRSCALE_PROTOCOLS
                .iter()
                .map(|&kind| {
                    Cell::on(workload_for(procs), kind, Consistency::Rc, DIRSCALE_NETWORK)
                        .with_dir(org)
                })
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|((procs, org), metrics)| DirscaleRow {
        procs,
        org,
        metrics,
    })
    .collect();
    Ok(Dirscale {
        app: app_name.to_owned(),
        rows,
    })
}

impl fmt::Display for Dirscale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Directory organizations (extension experiment): {} exec time relative to BASIC \
             under each organization (RC, hierarchical mesh)",
            self.app
        )?;
        let mut header = vec![
            "procs".to_owned(),
            "dir".to_owned(),
            "BASIC exec".to_owned(),
        ];
        header.extend(
            DIRSCALE_PROTOCOLS
                .iter()
                .skip(1)
                .map(|k| k.name().to_owned()),
        );
        header.extend(["ovf".to_owned(), "bcast".to_owned(), "recall".to_owned()]);
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let rel = row.relative_times();
            let (ovf, bcast, recall) = row.dir_activity();
            let mut cells = vec![
                row.procs.to_string(),
                row.org.cli_name(),
                row.metrics[0].exec_cycles.to_string(),
            ];
            cells.extend(rel.iter().skip(1).map(|r| format!("{r:.2}")));
            cells.extend([ovf.to_string(), bcast.to_string(), recall.to_string()]);
            t.row(cells);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_skips_infeasible_organizations() {
        let g = grid();
        // 64 nodes: every organization; 256/1024: all but the full map.
        assert_eq!(g.len(), DirOrg::ALL.len() + 2 * (DirOrg::ALL.len() - 1));
        assert!(g.contains(&(64, DirOrg::FullMap)));
        assert!(!g.iter().any(|&(p, o)| p > 64 && o == DirOrg::FullMap));
        // Row order is procs-major so resumed sweeps reassemble rows
        // identically.
        let mut sorted = g.clone();
        sorted.sort_by_key(|&(p, _)| p);
        assert_eq!(
            g.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            sorted.iter().map(|&(p, _)| p).collect::<Vec<_>>()
        );
    }
}
