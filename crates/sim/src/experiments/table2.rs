//! Table 2: cold and coherence miss-rate components.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};

/// The protocols of Table 2, in the paper's column order.
pub const TABLE2_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Basic,
    ProtocolKind::P,
    ProtocolKind::Cw,
    ProtocolKind::PCw,
];

/// Result of the Table-2 sweep.
#[derive(Debug)]
pub struct Table2 {
    /// One row per application.
    pub rows: Vec<Table2Row>,
}

/// One application's miss-rate components per protocol.
#[derive(Debug)]
pub struct Table2Row {
    /// Application name.
    pub app: String,
    /// Metrics per protocol, in [`TABLE2_PROTOCOLS`] order.
    pub metrics: Vec<Metrics>,
}

impl Table2Row {
    /// `(cold %, coherence %)` pairs in protocol order.
    pub fn components(&self) -> Vec<(f64, f64)> {
        self.metrics
            .iter()
            .map(|m| (m.cold_rate_pct(), m.coh_rate_pct()))
            .collect()
    }
}

/// Runs the Table-2 sweep (RC, uniform network).
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn table2(suite: &[Workload], opts: &SweepOpts) -> Result<Table2, SweepError> {
    let rows = run_rows(
        "table2",
        suite,
        |&w| {
            TABLE2_PROTOCOLS
                .iter()
                .map(|&kind| Cell::new(w, kind, Consistency::Rc))
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, metrics)| Table2Row {
        app: w.name().to_owned(),
        metrics,
    })
    .collect();
    Ok(Table2 { rows })
}

impl Table2 {
    /// CSV rendering: `app,protocol,cold_pct,coherence_pct`.
    pub fn csv(&self) -> String {
        let mut out = String::from("app,protocol,cold_pct,coherence_pct\n");
        for row in &self.rows {
            for (kind, m) in TABLE2_PROTOCOLS.iter().zip(&row.metrics) {
                out.push_str(&format!(
                    "{},{},{:.4},{:.4}\n",
                    row.app,
                    kind.name(),
                    m.cold_rate_pct(),
                    m.coh_rate_pct()
                ));
            }
        }
        out
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: cold and coherence miss rates (% of shared references)"
        )?;
        let mut header = vec!["app".to_owned()];
        for k in TABLE2_PROTOCOLS {
            header.push(format!("{} cold", k.name()));
            header.push(format!("{} coh", k.name()));
        }
        let mut t = TextTable::new(header);
        for row in &self.rows {
            let mut vals = Vec::new();
            for (cold, coh) in row.components() {
                vals.push(cold);
                vals.push(coh);
            }
            t.row_f64(&row.app, &vals, 2);
        }
        write!(f, "{t}")
    }
}
