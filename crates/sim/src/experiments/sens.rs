//! Section 5.4: sensitivity to buffer depth and SLC size.

use std::fmt;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_memsys::Timing;
use dirext_stats::{Metrics, TextTable};
use dirext_trace::Workload;

use super::runner::{run_rows, Cell, SweepError, SweepOpts};

/// The protocols compared in the sensitivity study.
pub const SENS_PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::Basic,
    ProtocolKind::P,
    ProtocolKind::Cw,
    ProtocolKind::M,
    ProtocolKind::PCw,
    ProtocolKind::PM,
];

/// Result of one §5.4 sensitivity sweep.
#[derive(Debug)]
pub struct Sensitivity {
    /// Which variant ran ("FLWB4/SLWB4" or "16-KB SLC").
    pub variant: &'static str,
    /// One row per application.
    pub rows: Vec<SensRow>,
}

/// One application's sensitivity data.
#[derive(Debug)]
pub struct SensRow {
    /// Application name.
    pub app: String,
    /// Baseline-parameter metrics per protocol.
    pub default_metrics: Vec<Metrics>,
    /// Constrained-parameter metrics per protocol.
    pub constrained_metrics: Vec<Metrics>,
}

impl SensRow {
    /// Slowdown of each protocol caused by the constraint
    /// (constrained / default execution time), in protocol order.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.default_metrics
            .iter()
            .zip(&self.constrained_metrics)
            .map(|(d, c)| c.relative_time(d))
            .collect()
    }
}

/// Which §5.4 constraint to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// 4-entry FLWB and SLWB ("only BASIC and P suffered to some extent").
    SmallBuffers,
    /// 16-KB direct-mapped SLC ("the combinations yielding substantial
    /// gains with infinite caches did so too with limited caches").
    SmallSlc,
}

impl Constraint {
    /// The node parameters this constraint runs with.
    pub fn timing(self) -> Timing {
        match self {
            Constraint::SmallBuffers => Timing::paper_default().with_small_buffers(),
            Constraint::SmallSlc => Timing::paper_default().with_limited_slc(),
        }
    }

    /// The variant tag of this constraint's journal cell keys.
    pub fn tag(self) -> &'static str {
        match self {
            Constraint::SmallBuffers => "flwb4-slwb4",
            Constraint::SmallSlc => "slc16k",
        }
    }

    /// How the sweep's heading names this constraint.
    fn label(self) -> &'static str {
        match self {
            Constraint::SmallBuffers => "FLWB4/SLWB4",
            Constraint::SmallSlc => "16-KB SLC",
        }
    }
}

/// Runs a §5.4 sensitivity sweep under RC on the uniform network.
///
/// # Errors
///
/// Propagates the sweep's [`SweepError`].
pub fn sensitivity(
    suite: &[Workload],
    constraint: Constraint,
    opts: &SweepOpts,
) -> Result<Sensitivity, SweepError> {
    // Per app: each protocol at default parameters, then constrained. The
    // default-timing cells share journal keys across the two constraint
    // sweeps on purpose: they are the same configuration, so a resumed
    // `run-all` simulates them once.
    let rows = run_rows(
        "sens",
        suite,
        |&w| {
            SENS_PROTOCOLS
                .iter()
                .flat_map(|&kind| {
                    [
                        Cell::new(w, kind, Consistency::Rc),
                        Cell::new(w, kind, Consistency::Rc).constrained(constraint),
                    ]
                })
                .collect()
        },
        opts,
    )?
    .into_iter()
    .map(|(w, metrics)| {
        let (default_metrics, constrained_metrics) = metrics
            .chunks_exact(2)
            .map(|pair| (pair[0].clone(), pair[1].clone()))
            .unzip();
        SensRow {
            app: w.name().to_owned(),
            default_metrics,
            constrained_metrics,
        }
    })
    .collect();
    Ok(Sensitivity {
        variant: constraint.label(),
        rows,
    })
}

impl fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section 5.4 sensitivity: slowdown with {} (constrained / default)",
            self.variant
        )?;
        let mut header = vec!["app".to_owned()];
        header.extend(SENS_PROTOCOLS.iter().map(|k| k.name().to_owned()));
        let mut t = TextTable::new(header);
        for row in &self.rows {
            t.row_f64(&row.app, &row.slowdowns(), 3);
        }
        write!(f, "{t}")
    }
}
