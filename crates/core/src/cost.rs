//! Hardware-cost model — regenerates the paper's Table 1.
//!
//! Each extension "adds only marginally to the overall system complexity";
//! Table 1 itemizes the cost: state bits per SLC line, extra per-cache
//! mechanisms, SLWB features, and state bits per memory line. This module
//! computes those quantities from a [`ProtocolConfig`] so the table is a
//! *property of the implementation*, checked by tests, rather than prose.

use std::fmt;

use crate::config::{Consistency, ProtocolConfig, ProtocolKind, WRITE_CACHE_BLOCKS};

/// Itemized hardware cost of one protocol configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareCost {
    /// Protocol label (paper notation).
    pub label: String,
    /// State bits per SLC line (stable states + extension bits/counters).
    pub slc_bits_per_line: u32,
    /// Number of per-cache counters (P's three modulo-16 counters).
    pub cache_counters: u32,
    /// Bits per such counter.
    pub counter_bits: u32,
    /// Write-cache blocks attached to the SLC.
    pub write_cache_blocks: usize,
    /// State bits per memory line (directory state + presence bits +
    /// extension bits/pointers).
    pub mem_bits_per_line: u32,
    /// Human-readable SLWB requirement.
    pub slwb_note: &'static str,
}

impl HardwareCost {
    /// Computes the cost of `cfg` for a machine of `nprocs` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is not at least 2.
    pub fn of(cfg: &ProtocolConfig, nprocs: usize) -> Self {
        assert!(nprocs >= 2, "a multiprocessor needs at least two nodes");
        let n = nprocs as u32;
        let log2n = u32::BITS - (n - 1).leading_zeros();

        // BASIC: 3 cache states (INVALID/SHARED/DIRTY) -> 2 bits.
        let mut states: u32 = 3;
        let mut slc_extra = 0;
        // M adds the MigClean state.
        if cfg.migratory {
            states += 1;
        }
        // P: two extra bits per line.
        if cfg.prefetch.is_some() {
            slc_extra += 2;
        }
        // CW: the competitive counter; with the paper's threshold of one it
        // is a modulo-2 counter (1 bit). CW+M adds the locally-modified bit
        // used by the interrogation heuristic.
        if let Some(cw) = cfg.competitive {
            slc_extra += u8::BITS - cw.threshold.leading_zeros();
            if cfg.migratory {
                slc_extra += 1;
            }
        }
        let state_bits = u32::BITS - (states - 1).leading_zeros();

        // BASIC memory line: 3 state bits (2 stable + 3 transient states =
        // 5 states) plus N presence bits.
        let mut mem_bits = 3 + n;
        // M: migratory bit + last-writer pointer.
        if cfg.migratory {
            mem_bits += 1 + log2n;
        }

        HardwareCost {
            label: cfg.label(),
            slc_bits_per_line: state_bits + slc_extra,
            cache_counters: if cfg.prefetch.is_some() { 3 } else { 0 },
            counter_bits: if cfg.prefetch.is_some() { 4 } else { 0 },
            write_cache_blocks: cfg
                .competitive
                .filter(|c| c.write_cache)
                .map_or(0, |_| WRITE_CACHE_BLOCKS),
            mem_bits_per_line: mem_bits,
            slwb_note: match (
                cfg.consistency,
                cfg.prefetch.is_some(),
                cfg.competitive.is_some(),
            ) {
                (Consistency::Sc, false, _) => "single entry",
                (Consistency::Sc, true, _) => "single demand entry + pending prefetches",
                (Consistency::Rc, _, true) => "several entries; each entry holds a block",
                (Consistency::Rc, true, false) => "several entries incl. pending prefetches",
                (Consistency::Rc, false, false) => "several entries",
            },
        }
    }
}

impl fmt::Display for HardwareCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.label)?;
        writeln!(f, "  SLC bits/line:    {}", self.slc_bits_per_line)?;
        if self.cache_counters > 0 {
            writeln!(
                f,
                "  cache counters:   {} x {} bits",
                self.cache_counters, self.counter_bits
            )?;
        }
        if self.write_cache_blocks > 0 {
            writeln!(f, "  write cache:      {} blocks", self.write_cache_blocks)?;
        }
        writeln!(f, "  memory bits/line: {}", self.mem_bits_per_line)?;
        write!(f, "  SLWB:             {}", self.slwb_note)
    }
}

/// Renders the paper's Table 1 for all four columns (BASIC, P, M, CW) at
/// the given machine size.
pub fn table1(nprocs: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("Table 1: hardware cost (N = {nprocs} nodes)\n"));
    for kind in [
        ProtocolKind::Basic,
        ProtocolKind::P,
        ProtocolKind::M,
        ProtocolKind::Cw,
    ] {
        let cost = HardwareCost::of(&kind.config(Consistency::Rc), nprocs);
        out.push_str(&cost.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(kind: ProtocolKind) -> HardwareCost {
        HardwareCost::of(&kind.config(Consistency::Rc), 16)
    }

    #[test]
    fn basic_matches_table_1() {
        // "The hardware support for cache coherence in BASIC is limited to
        // two bits per cache block and N+3 bits per memory block."
        let c = cost(ProtocolKind::Basic);
        assert_eq!(c.slc_bits_per_line, 2);
        assert_eq!(c.mem_bits_per_line, 16 + 3);
        assert_eq!(c.cache_counters, 0);
        assert_eq!(c.write_cache_blocks, 0);
    }

    #[test]
    fn prefetch_matches_table_1() {
        // P: 2 bits per line + three modulo-16 counters; no memory overhead.
        let c = cost(ProtocolKind::P);
        assert_eq!(c.slc_bits_per_line, 2 + 2);
        assert_eq!(c.cache_counters, 3);
        assert_eq!(c.counter_bits, 4);
        assert_eq!(c.mem_bits_per_line, 19);
    }

    #[test]
    fn migratory_matches_table_1() {
        // M: one extra cache state; 1 bit + log2(N) pointer per memory line.
        let c = cost(ProtocolKind::M);
        assert_eq!(c.slc_bits_per_line, 2); // 4 states still fit in 2 bits
        assert_eq!(c.mem_bits_per_line, 19 + 1 + 4);
    }

    #[test]
    fn competitive_matches_table_1() {
        // CW: a modulo-2 (1-bit) counter per line and a 4-block write cache.
        let c = cost(ProtocolKind::Cw);
        assert_eq!(c.slc_bits_per_line, 2 + 1);
        assert_eq!(c.write_cache_blocks, 4);
        assert_eq!(c.mem_bits_per_line, 19);
        assert!(c.slwb_note.contains("block"));
        // The no-write-cache variant's threshold of 4 needs a 3-bit counter
        // (counts 4..0).
        let cfg = ProtocolConfig {
            competitive: Some(crate::config::CompetitiveConfig {
                threshold: 4,
                write_cache: false,
            }),
            ..ProtocolKind::Cw.config(Consistency::Rc)
        };
        assert_eq!(HardwareCost::of(&cfg, 16).slc_bits_per_line, 2 + 3);
    }

    #[test]
    fn combination_costs_are_additive() {
        let c = cost(ProtocolKind::PCwM);
        // 4 states (2 bits) + P's 2 bits + CW's 1-bit counter + CW+M's
        // modified bit.
        assert_eq!(c.slc_bits_per_line, 2 + 2 + 1 + 1);
        assert_eq!(c.mem_bits_per_line, 19 + 5);
    }

    #[test]
    fn sc_slwb_is_single_entry() {
        let c = HardwareCost::of(&ProtocolKind::Basic.config(Consistency::Sc), 16);
        assert_eq!(c.slwb_note, "single entry");
        let c = HardwareCost::of(&ProtocolKind::P.config(Consistency::Sc), 16);
        assert!(c.slwb_note.contains("prefetch"));
    }

    #[test]
    fn table_renders_all_columns() {
        let t = table1(16);
        for name in ["BASIC", "P", "M", "CW"] {
            assert!(t.contains(&format!("{name}:")), "missing column {name}");
        }
    }
}
