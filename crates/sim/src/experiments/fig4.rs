//! Figure 4: total network traffic normalized to BASIC.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};

/// The protocols of Figure 4, in the paper's x-axis order.
pub const FIG4_PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::Basic,
    ProtocolKind::P,
    ProtocolKind::Cw,
    ProtocolKind::M,
    ProtocolKind::PCw,
    ProtocolKind::PM,
];

/// Result of the Figure-4 sweep.
#[derive(Debug)]
pub struct Fig4 {
    /// One row per application.
    pub rows: Vec<Fig4Row>,
}

/// One application's traffic data.
#[derive(Debug)]
pub struct Fig4Row {
    /// Application name.
    pub app: String,
    /// Metrics per protocol, in [`FIG4_PROTOCOLS`] order.
    pub metrics: Vec<Metrics>,
}

impl Fig4Row {
    /// Traffic relative to BASIC (= 1.0), in protocol order.
    pub fn relative_traffic(&self) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|m| m.relative_traffic(&self.metrics[0]))
            .collect()
    }
}

/// Runs the Figure-4 sweep (RC, uniform network — traffic is metered even
/// though the ideal network never congests).
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn fig4(suite: &[Workload], opts: &SweepOpts) -> Result<Fig4, SweepError> {
    let rows = run_rows(
        "fig4",
        suite,
        |&w| {
            FIG4_PROTOCOLS
                .iter()
                .map(|&kind| Cell::new(w, kind, Consistency::Rc))
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, metrics)| Fig4Row {
        app: w.name().to_owned(),
        metrics,
    })
    .collect();
    Ok(Fig4 { rows })
}

impl Fig4 {
    /// CSV rendering: `app,protocol,relative_traffic,net_bytes`.
    pub fn csv(&self) -> String {
        let mut out = String::from("app,protocol,relative_traffic,net_bytes\n");
        for row in &self.rows {
            for (kind, m) in FIG4_PROTOCOLS.iter().zip(&row.metrics) {
                out.push_str(&format!(
                    "{},{},{:.4},{}\n",
                    row.app,
                    kind.name(),
                    m.relative_traffic(&row.metrics[0]),
                    m.net_bytes
                ));
            }
        }
        out
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4: network traffic normalized to BASIC (RC, % of BASIC bytes)"
        )?;
        let mut header = vec!["app".to_owned()];
        header.extend(FIG4_PROTOCOLS.iter().map(|k| k.name().to_owned()));
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let vals: Vec<f64> = row.relative_traffic().iter().map(|v| v * 100.0).collect();
            t.row_f64(&row.app, &vals, 0);
        }
        write!(f, "{t}")
    }
}
