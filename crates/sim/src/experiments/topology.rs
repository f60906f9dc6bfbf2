//! Extension experiment (not in the paper): interconnect topology sweep.
//!
//! Section 5.3 varies mesh link width; this sweep also varies the
//! *topology*, comparing the ideal uniform network, the 4×4 wormhole mesh
//! and a bidirectional ring at equal link width. Rings have roughly half
//! the bisection bandwidth of the mesh at 16 nodes, so they separate the
//! bandwidth-hungry P+CW from the bandwidth-frugal P+M even more sharply
//! than the 16-bit mesh does.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::TextTable;
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};
use crate::NetworkKind;

/// The topologies swept (at 32-bit links for the contended ones).
pub const TOPOLOGIES: [NetworkKind; 3] = [
    NetworkKind::Uniform,
    NetworkKind::Mesh { link_bits: 32 },
    NetworkKind::Ring { link_bits: 32 },
];

/// Result of the topology sweep.
#[derive(Debug)]
pub struct Topology {
    /// One row per application.
    pub rows: Vec<TopologyRow>,
}

/// Per-application execution-time ratios vs BASIC on the same topology.
#[derive(Debug)]
pub struct TopologyRow {
    /// Application name.
    pub app: String,
    /// P+CW / BASIC per topology, in [`TOPOLOGIES`] order.
    pub pcw: [f64; 3],
    /// P+M / BASIC per topology.
    pub pm: [f64; 3],
}

/// The protocols run on each topology (BASIC is the per-network baseline).
const TOPOLOGY_PROTOCOLS: [ProtocolKind; 3] =
    [ProtocolKind::Basic, ProtocolKind::PCw, ProtocolKind::PM];

/// Runs the topology sweep under RC.
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn topology(suite: &[Workload], opts: &SweepOpts) -> Result<Topology, SweepError> {
    // Per app: TOPOLOGIES × {BASIC, P+CW, P+M}.
    let rows = run_rows(
        "topology",
        suite,
        |&w| {
            TOPOLOGIES
                .iter()
                .flat_map(|&network| {
                    TOPOLOGY_PROTOCOLS
                        .iter()
                        .map(move |&kind| Cell::on(w, kind, Consistency::Rc, network))
                })
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, metrics)| {
        let mut pcw = [0.0; 3];
        let mut pm = [0.0; 3];
        for (i, net) in metrics.chunks_exact(TOPOLOGY_PROTOCOLS.len()).enumerate() {
            let base = &net[0];
            pcw[i] = net[1].relative_time(base);
            pm[i] = net[2].relative_time(base);
        }
        TopologyRow {
            app: w.name().to_owned(),
            pcw,
            pm,
        }
    })
    .collect();
    Ok(Topology { rows })
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Topology sweep (extension): exec time vs BASIC on each interconnect (RC, 32-bit links)"
        )?;
        let mut t = TextTable::new(vec![
            "app",
            "P+CW unif",
            "P+CW mesh",
            "P+CW ring",
            "P+M unif",
            "P+M mesh",
            "P+M ring",
        ]);
        for row in &self.rows {
            let vals = [
                row.pcw[0], row.pcw[1], row.pcw[2], row.pm[0], row.pm[1], row.pm[2],
            ];
            t.row_f64(&row.app, &vals, 2);
        }
        write!(f, "{t}")
    }
}
