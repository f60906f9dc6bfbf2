//! Protocol configuration: which extensions are enabled, and under which
//! memory consistency model.

use std::fmt;

/// Memory consistency model (paper Sections 5.1 and 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Sequential consistency: the processor stalls on every shared
    /// reference until it is globally performed; single-entry write buffers.
    Sc,
    /// Release consistency (RCpc): writes are buffered and overlapped; only
    /// reads, acquires and full buffers stall the processor; a release waits
    /// for all previously issued ownership/update requests.
    Rc,
}

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Consistency::Sc => write!(f, "SC"),
            Consistency::Rc => write!(f, "RC"),
        }
    }
}

/// Parameters of the adaptive sequential prefetching extension (P).
///
/// The ISCA'94 paper fixes the mechanism's budget — "three modulo-16
/// counters per cache and two extra bits per cache line" — and refers to
/// the ICPP'93 paper for the adjustment details. The adaptation thresholds
/// are our reconstruction and are constants in [`crate::prefetch`] (see
/// `DESIGN.md` §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Initial degree of prefetching K.
    pub initial_k: u32,
    /// If false, K is fixed at `initial_k` (the non-adaptive "fixed
    /// sequential prefetching" baseline from the ICPP'93 comparison, used
    /// by the ablation tests in `tests/paper_shapes.rs`).
    pub adaptive: bool,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            initial_k: 1,
            adaptive: true,
        }
    }
}

/// Write-cache capacity in blocks when CW's write cache is attached (the
/// paper's four-block write cache). Each node's write cache and Table 1's
/// cost model both read it.
pub const WRITE_CACHE_BLOCKS: usize = 4;

/// Parameters of the competitive-update extension (CW).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompetitiveConfig {
    /// Number of foreign updates with no intervening local access after
    /// which a copy self-invalidates. The paper recommends 4 without write
    /// caches and 1 with them.
    pub threshold: u8,
    /// Whether the 4-block write cache is attached to the SLC (the paper's
    /// CW always includes it; an ablation test disables it).
    pub write_cache: bool,
}

impl Default for CompetitiveConfig {
    /// The paper's recommended configuration: threshold 1 with write caches.
    fn default() -> Self {
        CompetitiveConfig {
            threshold: 1,
            write_cache: true,
        }
    }
}

/// Full protocol configuration: BASIC plus any subset of {P, M, CW}.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Memory consistency model.
    pub consistency: Consistency,
    /// Adaptive sequential prefetching, if enabled.
    pub prefetch: Option<PrefetchConfig>,
    /// Migratory-sharing optimization.
    pub migratory: bool,
    /// Whether a migratory classification reverts when the sharing pattern
    /// changes (an unwritten exclusive copy is fetched or replaced). Always
    /// on in the paper's protocol; an ablation test turns it off to show
    /// why the extra cache state is worth its bit.
    pub migratory_revert: bool,
    /// MESI-style exclusive-clean grants (extension, off by default and not
    /// part of any paper protocol): a read miss to a block with *no* cached
    /// copies returns an exclusive copy, so the first write to private data
    /// is silent. An ablation test uses this to measure how much of the
    /// migratory optimization's benefit a plain E state already captures —
    /// M generalizes E from "nobody has it" to "the previous writer is done
    /// with it".
    pub exclusive_clean: bool,
    /// Competitive-update mechanism, if enabled.
    pub competitive: Option<CompetitiveConfig>,
}

impl ProtocolConfig {
    /// The baseline write-invalidate protocol under the given consistency.
    pub fn basic(consistency: Consistency) -> Self {
        ProtocolConfig {
            consistency,
            prefetch: None,
            migratory: false,
            migratory_revert: true,
            exclusive_clean: false,
            competitive: None,
        }
    }

    /// Whether this configuration is implementable. The competitive-update
    /// mechanism requires relaxed consistency ("we omit CW because it is not
    /// feasible under sequential consistency"): updates are combined in the
    /// write cache and delayed until a release.
    pub fn is_feasible(&self) -> bool {
        !(self.consistency == Consistency::Sc && self.competitive.is_some())
    }

    /// Short protocol name in the paper's notation (without the consistency
    /// suffix), e.g. `"P+CW"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.prefetch.is_some() {
            parts.push("P");
        }
        if self.competitive.is_some() {
            parts.push("CW");
        }
        if self.migratory {
            parts.push("M");
        }
        if parts.is_empty() {
            "BASIC".to_owned()
        } else {
            parts.join("+")
        }
    }
}

/// The eight protocols evaluated in the paper (BASIC and its seven
/// extension combinations), as a convenient closed enumeration.
///
/// # Example
///
/// ```
/// use dirext_core::{Consistency, ProtocolKind};
///
/// let cfg = ProtocolKind::PCw.config(Consistency::Rc);
/// assert!(cfg.prefetch.is_some());
/// assert!(cfg.competitive.is_some());
/// assert!(!cfg.migratory);
/// assert_eq!(cfg.label(), "P+CW");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The baseline write-invalidate protocol.
    Basic,
    /// BASIC + adaptive sequential prefetching.
    P,
    /// BASIC + migratory optimization.
    M,
    /// BASIC + competitive update with write caches.
    Cw,
    /// P and CW combined.
    PCw,
    /// P and M combined.
    PM,
    /// CW and M combined.
    CwM,
    /// All three extensions.
    PCwM,
}

impl ProtocolKind {
    /// All eight protocols in the paper's Figure-2 presentation order.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::Basic,
        ProtocolKind::P,
        ProtocolKind::Cw,
        ProtocolKind::M,
        ProtocolKind::PCw,
        ProtocolKind::PM,
        ProtocolKind::CwM,
        ProtocolKind::PCwM,
    ];

    /// Whether this protocol includes prefetching.
    pub fn has_prefetch(self) -> bool {
        matches!(
            self,
            ProtocolKind::P | ProtocolKind::PCw | ProtocolKind::PM | ProtocolKind::PCwM
        )
    }

    /// Whether this protocol includes the migratory optimization.
    pub fn has_migratory(self) -> bool {
        matches!(
            self,
            ProtocolKind::M | ProtocolKind::PM | ProtocolKind::CwM | ProtocolKind::PCwM
        )
    }

    /// Whether this protocol includes competitive update.
    pub fn has_competitive(self) -> bool {
        matches!(
            self,
            ProtocolKind::Cw | ProtocolKind::PCw | ProtocolKind::CwM | ProtocolKind::PCwM
        )
    }

    /// Builds the default configuration of this protocol under the given
    /// consistency model.
    pub fn config(self, consistency: Consistency) -> ProtocolConfig {
        ProtocolConfig {
            consistency,
            prefetch: self.has_prefetch().then(PrefetchConfig::default),
            migratory: self.has_migratory(),
            migratory_revert: true,
            exclusive_clean: false,
            competitive: self.has_competitive().then(CompetitiveConfig::default),
        }
    }

    /// The paper's name for this protocol, e.g. `"P+CW"`.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Basic => "BASIC",
            ProtocolKind::P => "P",
            ProtocolKind::M => "M",
            ProtocolKind::Cw => "CW",
            ProtocolKind::PCw => "P+CW",
            ProtocolKind::PM => "P+M",
            ProtocolKind::CwM => "CW+M",
            ProtocolKind::PCwM => "P+CW+M",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_flags_match_names() {
        for k in ProtocolKind::ALL {
            let name = k.name();
            assert_eq!(name.starts_with('P'), k.has_prefetch(), "{name}");
            assert_eq!(name.ends_with('M'), k.has_migratory(), "{name}");
            assert_eq!(name.contains("CW"), k.has_competitive(), "{name}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for k in ProtocolKind::ALL {
            assert_eq!(k.config(Consistency::Rc).label(), k.name());
        }
    }

    #[test]
    fn cw_infeasible_under_sc() {
        assert!(!ProtocolKind::Cw.config(Consistency::Sc).is_feasible());
        assert!(ProtocolKind::Cw.config(Consistency::Rc).is_feasible());
        assert!(ProtocolKind::PM.config(Consistency::Sc).is_feasible());
        assert!(ProtocolKind::Basic.config(Consistency::Sc).is_feasible());
    }

    #[test]
    fn default_competitive_matches_paper_recommendation() {
        let c = CompetitiveConfig::default();
        assert_eq!(c.threshold, 1);
        assert!(c.write_cache);
    }

    #[test]
    fn default_prefetch_is_adaptive() {
        let p = PrefetchConfig::default();
        assert!(p.adaptive);
        assert_eq!(p.initial_k, 1);
    }

    #[test]
    fn all_covers_eight_distinct_protocols() {
        let mut names: Vec<_> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
