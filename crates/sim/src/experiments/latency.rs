//! Section 5.1 (E8): average read-miss latency, BASIC vs CW.
//!
//! "We measured the average time to handle a read miss for MP3D and found
//! that it is 41 % shorter under CW than under BASIC" — because under CW
//! the memory copy is more often clean, so the remaining coherence misses
//! are serviced in two hops at the home instead of four through a dirty
//! third-party cache.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};

/// Result of the read-miss-latency comparison.
#[derive(Debug)]
pub struct MissLatency {
    /// One row per application.
    pub rows: Vec<MissLatencyRow>,
}

/// One application's read-miss latencies.
#[derive(Debug)]
pub struct MissLatencyRow {
    /// Application name.
    pub app: String,
    /// BASIC run.
    pub basic: Metrics,
    /// CW run.
    pub cw: Metrics,
}

impl MissLatencyRow {
    /// Fractional latency reduction under CW (0.41 ≈ the paper's MP3D).
    pub fn reduction(&self) -> f64 {
        let b = self.basic.avg_read_miss_latency();
        if b == 0.0 {
            return 0.0;
        }
        1.0 - self.cw.avg_read_miss_latency() / b
    }
}

/// Runs the read-miss-latency comparison (RC, uniform network).
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn miss_latency(suite: &[Workload], opts: &SweepOpts) -> Result<MissLatency, SweepError> {
    let rows = run_rows(
        "miss-latency",
        suite,
        |&w| {
            [ProtocolKind::Basic, ProtocolKind::Cw]
                .into_iter()
                .map(|kind| Cell::new(w, kind, Consistency::Rc))
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, metrics)| MissLatencyRow {
        app: w.name().to_owned(),
        basic: metrics[0].clone(),
        cw: metrics[1].clone(),
    })
    .collect();
    Ok(MissLatency { rows })
}

impl fmt::Display for MissLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Average demand read-miss latency (pclocks), BASIC vs CW (RC)"
        )?;
        let mut t = TextTable::new(vec![
            "app",
            "BASIC",
            "CW",
            "reduction %",
            "clean-reads BASIC %",
            "clean-reads CW %",
            "p95 BASIC",
            "p95 CW",
        ]);
        for row in &self.rows {
            t.row_f64(
                &row.app,
                &[
                    row.basic.avg_read_miss_latency(),
                    row.cw.avg_read_miss_latency(),
                    row.reduction() * 100.0,
                    row.basic.clean_read_fraction() * 100.0,
                    row.cw.clean_read_fraction() * 100.0,
                    row.basic.read_miss_hist.percentile(0.95) as f64,
                    row.cw.read_miss_hist.percentile(0.95) as f64,
                ],
                1,
            );
        }
        write!(f, "{t}")
    }
}
