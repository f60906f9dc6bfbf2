//! Figure 3: execution times under sequential consistency.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};

/// The protocols of Figure 3 (all under SC; CW is infeasible under SC).
pub const FIG3_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Basic,
    ProtocolKind::P,
    ProtocolKind::M,
    ProtocolKind::PM,
];

/// Result of the Figure-3 sweep.
#[derive(Debug)]
pub struct Fig3 {
    /// One row per application.
    pub rows: Vec<Fig3Row>,
}

/// One application's Figure-3 data.
#[derive(Debug)]
pub struct Fig3Row {
    /// Application name.
    pub app: String,
    /// Metrics per SC protocol, in [`FIG3_PROTOCOLS`] order
    /// (B-SC, P, M-SC, P+M).
    pub metrics: Vec<Metrics>,
    /// BASIC under RC — the dashed line in the paper's Figure 3.
    pub basic_rc: Metrics,
}

impl Fig3Row {
    /// Relative execution times vs B-SC.
    pub fn relative_times(&self) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|m| m.relative_time(&self.metrics[0]))
            .collect()
    }

    /// P+M under SC relative to BASIC under RC (< 1.0 means the combined
    /// SC protocol beats the relaxed baseline — the paper reports this for
    /// three of the five applications).
    pub fn pm_vs_basic_rc(&self) -> f64 {
        self.metrics[3].relative_time(&self.basic_rc)
    }
}

/// Runs the Figure-3 sweep (SC, uniform network; plus BASIC-RC reference).
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn fig3(suite: &[Workload], opts: &SweepOpts) -> Result<Fig3, SweepError> {
    // Per app: the four SC protocols, then the BASIC-RC reference run.
    let rows = run_rows(
        "fig3",
        suite,
        |&w| {
            FIG3_PROTOCOLS
                .iter()
                .map(|&kind| Cell::new(w, kind, Consistency::Sc))
                .chain([Cell::new(w, ProtocolKind::Basic, Consistency::Rc)])
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, mut metrics)| Fig3Row {
        app: w.name().to_owned(),
        basic_rc: metrics.remove(FIG3_PROTOCOLS.len()),
        metrics,
    })
    .collect();
    Ok(Fig3 { rows })
}

impl Fig3 {
    /// CSV rendering: `app,protocol,relative_time_vs_bsc,vs_basic_rc`.
    pub fn csv(&self) -> String {
        let mut out = String::from("app,protocol,relative_time_vs_bsc,vs_basic_rc\n");
        for row in &self.rows {
            for (kind, m) in FIG3_PROTOCOLS.iter().zip(&row.metrics) {
                out.push_str(&format!(
                    "{},{}-SC,{:.4},{:.4}\n",
                    row.app,
                    kind.name(),
                    m.relative_time(&row.metrics[0]),
                    m.relative_time(&row.basic_rc)
                ));
            }
        }
        out
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: execution time under SC relative to B-SC (uniform network)"
        )?;
        let mut t = TextTable::new(vec!["app", "B-SC", "P", "M-SC", "P+M", "P+M vs BASIC-RC"]);
        for row in &self.rows {
            let mut vals = row.relative_times();
            vals.push(row.pm_vs_basic_rc());
            t.row_f64(&row.app, &vals, 2);
        }
        write!(f, "{t}")?;
        writeln!(f)?;
        writeln!(
            f,
            "decomposition (busy / read / write / acq+rel, % of each bar):"
        )?;
        let mut header = vec!["app".to_owned()];
        header.extend(["B-SC", "P", "M-SC", "P+M"].iter().map(|s| (*s).to_owned()));
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let cells: Vec<String> = std::iter::once(row.app.clone())
                .chain(row.metrics.iter().map(|m| {
                    let fr = m.stalls.fractions();
                    format!(
                        "{:.0}/{:.0}/{:.0}/{:.0}",
                        fr[0] * 100.0,
                        fr[1] * 100.0,
                        fr[2] * 100.0,
                        (fr[3] + fr[4] + fr[5]) * 100.0
                    )
                }))
                .collect();
            t.row(cells);
        }
        write!(f, "{t}")
    }
}
