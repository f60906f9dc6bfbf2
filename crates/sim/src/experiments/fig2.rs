//! Figure 2: execution times relative to BASIC under release consistency.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};

/// The protocols of Figure 2, in the paper's bar order.
pub const FIG2_PROTOCOLS: [ProtocolKind; 8] = ProtocolKind::ALL;

/// Result of the Figure-2 sweep: for each application, one [`Metrics`] per
/// protocol (BASIC first).
#[derive(Debug)]
pub struct Fig2 {
    /// One row per application.
    pub rows: Vec<Fig2Row>,
}

/// One application's Figure-2 data.
#[derive(Debug)]
pub struct Fig2Row {
    /// Application name.
    pub app: String,
    /// Metrics per protocol, in [`FIG2_PROTOCOLS`] order.
    pub metrics: Vec<Metrics>,
}

impl Fig2Row {
    /// The BASIC run (the normalization baseline).
    pub fn baseline(&self) -> &Metrics {
        &self.metrics[0]
    }

    /// Relative execution times (BASIC = 1.0), in protocol order.
    pub fn relative_times(&self) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|m| m.relative_time(self.baseline()))
            .collect()
    }
}

/// Runs the Figure-2 sweep: all eight protocols under RC on the uniform
/// ("infinite bandwidth") network.
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`] (lowest-indexed failure, or the
/// full quarantine under `keep_going`).
pub fn fig2(suite: &[Workload], opts: &SweepOpts) -> Result<Fig2, SweepError> {
    let rows = run_rows(
        "fig2",
        suite,
        |&w| {
            FIG2_PROTOCOLS
                .iter()
                .map(|&kind| Cell::new(w, kind, Consistency::Rc))
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, metrics)| Fig2Row {
        app: w.name().to_owned(),
        metrics,
    })
    .collect();
    Ok(Fig2 { rows })
}

impl Fig2 {
    /// CSV rendering: `app,protocol,relative_time,exec_cycles`.
    pub fn csv(&self) -> String {
        let mut out = String::from("app,protocol,relative_time,exec_cycles\n");
        for row in &self.rows {
            for (kind, m) in FIG2_PROTOCOLS.iter().zip(&row.metrics) {
                out.push_str(&format!(
                    "{},{},{:.4},{}\n",
                    row.app,
                    kind.name(),
                    m.relative_time(row.baseline()),
                    m.exec_cycles
                ));
            }
        }
        out
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2: execution time relative to BASIC (RC, uniform network)"
        )?;
        let mut header = vec!["app".to_owned()];
        header.extend(FIG2_PROTOCOLS.iter().map(|k| k.name().to_owned()));
        let mut t = TextTable::new(header);
        for row in &self.rows {
            t.row_f64(&row.app, &row.relative_times(), 2);
        }
        write!(f, "{t}")?;
        writeln!(f)?;
        writeln!(f, "decomposition (busy / read / acquire, % of each bar):")?;
        let mut header = vec!["app".to_owned()];
        header.extend(FIG2_PROTOCOLS.iter().map(|k| k.name().to_owned()));
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let cells: Vec<String> = std::iter::once(row.app.clone())
                .chain(row.metrics.iter().map(|m| {
                    let fr = m.stalls.fractions();
                    format!(
                        "{:.0}/{:.0}/{:.0}",
                        fr[0] * 100.0,
                        fr[1] * 100.0,
                        (fr[3] + fr[5]) * 100.0
                    )
                }))
                .collect();
            t.row(cells);
        }
        write!(f, "{t}")
    }
}
