//! Table 3: execution-time ratios on wormhole meshes (network contention).

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::TextTable;
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};
use crate::NetworkKind;

/// The link widths of Section 5.3, in bits.
pub const LINK_WIDTHS: [u32; 3] = [64, 32, 16];

/// Result of the Table-3 sweep.
#[derive(Debug)]
pub struct Table3 {
    /// One row per application.
    pub rows: Vec<Table3Row>,
}

/// Execution-time ratios (protocol / BASIC on the same mesh) per link
/// width, for P+CW and P+M.
#[derive(Debug)]
pub struct Table3Row {
    /// Application name.
    pub app: String,
    /// P+CW / BASIC ratios for 64-, 32- and 16-bit links.
    pub pcw: [f64; 3],
    /// P+M / BASIC ratios for 64-, 32- and 16-bit links.
    pub pm: [f64; 3],
}

impl Table3Row {
    /// How much each combination degrades from the widest to the narrowest
    /// mesh (the paper's observation: P+CW is sensitive to contention, P+M
    /// is not).
    pub fn degradation(&self) -> (f64, f64) {
        (self.pcw[2] - self.pcw[0], self.pm[2] - self.pm[0])
    }
}

/// The protocols run at each link width (BASIC is the per-mesh baseline).
const TABLE3_PROTOCOLS: [ProtocolKind; 3] =
    [ProtocolKind::Basic, ProtocolKind::PCw, ProtocolKind::PM];

/// Runs the Table-3 sweep: {BASIC, P+CW, P+M} × {64, 32, 16}-bit meshes
/// under RC.
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn table3(suite: &[Workload], opts: &SweepOpts) -> Result<Table3, SweepError> {
    // Per app: LINK_WIDTHS × {BASIC, P+CW, P+M}.
    let rows = run_rows(
        "table3",
        suite,
        |&w| {
            LINK_WIDTHS
                .iter()
                .flat_map(|&link_bits| {
                    TABLE3_PROTOCOLS.iter().map(move |&kind| {
                        Cell::on(w, kind, Consistency::Rc, NetworkKind::Mesh { link_bits })
                    })
                })
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, metrics)| {
        let mut pcw = [0.0; 3];
        let mut pm = [0.0; 3];
        for (i, width) in metrics.chunks_exact(TABLE3_PROTOCOLS.len()).enumerate() {
            let base = &width[0];
            pcw[i] = width[1].relative_time(base);
            pm[i] = width[2].relative_time(base);
        }
        Table3Row {
            app: w.name().to_owned(),
            pcw,
            pm,
        }
    })
    .collect();
    Ok(Table3 { rows })
}

impl Table3 {
    /// CSV rendering: `app,protocol,link_bits,exec_ratio_vs_basic`.
    pub fn csv(&self) -> String {
        let mut out = String::from("app,protocol,link_bits,exec_ratio_vs_basic\n");
        for row in &self.rows {
            for (i, bits) in LINK_WIDTHS.iter().enumerate() {
                out.push_str(&format!("{},P+CW,{bits},{:.4}\n", row.app, row.pcw[i]));
                out.push_str(&format!("{},P+M,{bits},{:.4}\n", row.app, row.pm[i]));
            }
        }
        out
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: execution-time ratio vs BASIC on wormhole meshes (RC)"
        )?;
        let mut t = TextTable::new(vec![
            "app", "P+CW 64b", "P+CW 32b", "P+CW 16b", "P+M 64b", "P+M 32b", "P+M 16b",
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
