//! Adaptive sequential prefetching (extension P).
//!
//! On a read miss to block `b`, the SLC controller prefetches the `K`
//! consecutive blocks following `b` that are neither cached nor pending
//! ("the K consecutive blocks directly following the missing block in the
//! address space are accessed in the cache... prefetches are issued one at
//! a time, and are pipelined in the memory system with the original miss").
//! The prefetch stream also continues on the *first reference* to a
//! prefetched block, which keeps the pipeline filled during sequential
//! scans.
//!
//! The adaptive mechanism counts the fraction of prefetched blocks that are
//! later referenced and adjusts `K` against preset marks. The hardware
//! budget is the paper's: **three modulo-16 counters** per cache
//! (prefetches-arrived, useful-prefetches, restart) and two bits per line
//! (the `prefetched` bit lives in [`crate::line::Line`]; the second bit is
//! the line's membership in the useful count, folded into the same flag
//! here). The thresholds below follow our reconstruction of the ICPP'93
//! scheme (see `DESIGN.md` §4.1).

use crate::config::PrefetchConfig;

/// Maximum degree of prefetching K.
pub const MAX_K: u32 = 16;

/// Useful-prefetch count (out of 16) at or above which K doubles.
pub const HIGH_MARK: u8 = 12;

/// Useful-prefetch count (out of 16) below which K halves.
pub const LOW_MARK: u8 = 6;

/// Sequential-miss count (out of 16) that re-enables prefetching once K
/// has adapted down to zero.
pub const RESTART_MARK: u8 = 8;

/// Statistics exported by the prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch requests issued.
    pub issued: u64,
    /// Prefetched blocks that were later referenced before invalidation or
    /// replacement.
    pub useful: u64,
}

/// The per-cache adaptive sequential prefetch controller.
///
/// # Example
///
/// ```
/// use dirext_core::config::PrefetchConfig;
/// use dirext_core::Prefetcher;
///
/// let mut p = Prefetcher::new(PrefetchConfig::default());
/// assert_eq!(p.k(), 1);
/// // A perfectly sequential stream: every prefetch is useful, K grows.
/// for _ in 0..64 {
///     p.on_prefetch_issued();
///     p.on_prefetch_arrived();
///     p.on_useful_first_reference();
/// }
/// assert!(p.k() > 1);
/// ```
#[derive(Debug, Clone)]
pub struct Prefetcher {
    cfg: PrefetchConfig,
    k: u32,
    /// Modulo-16 counter of prefetched blocks that arrived.
    arrived: u8,
    /// Modulo-16 counter of useful prefetches in the current window.
    useful: u8,
    /// Modulo-16 counter of read misses observed while K == 0.
    restart_misses: u8,
    /// Sequential misses (predecessor block cached) in the restart window.
    restart_sequential: u8,
    stats: PrefetchStats,
}

impl Prefetcher {
    /// Creates a prefetcher with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `initial_k` exceeds [`MAX_K`].
    pub fn new(cfg: PrefetchConfig) -> Self {
        assert!(cfg.initial_k <= MAX_K, "initial K exceeds maximum");
        Prefetcher {
            k: cfg.initial_k,
            cfg,
            arrived: 0,
            useful: 0,
            restart_misses: 0,
            restart_sequential: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// The current degree of prefetching.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Called on a demand read miss. `predecessor_cached` reports whether
    /// the block immediately preceding the missing one is resident — the
    /// restart heuristic's evidence of sequential locality while K is zero.
    /// Returns the number of blocks to prefetch after this miss.
    pub fn on_demand_miss(&mut self, predecessor_cached: bool) -> u32 {
        if self.k == 0 && self.cfg.adaptive {
            self.restart_misses = (self.restart_misses + 1) % 16;
            if predecessor_cached {
                self.restart_sequential = self.restart_sequential.saturating_add(1);
            }
            if self.restart_misses == 0 {
                if self.restart_sequential >= RESTART_MARK {
                    self.k = 1;
                }
                self.restart_sequential = 0;
            }
        }
        self.k
    }

    /// Called on the first reference to a block that arrived by prefetch.
    /// Returns the number of blocks to prefetch ahead of it (continuing the
    /// stream).
    pub fn on_useful_first_reference(&mut self) -> u32 {
        self.stats.useful += 1;
        if self.cfg.adaptive {
            self.useful = (self.useful + 1).min(16);
        }
        self.k
    }

    /// Called when a prefetch request is accepted into the SLWB.
    pub fn on_prefetch_issued(&mut self) {
        self.stats.issued += 1;
    }

    /// Called when a prefetched block arrives. Every 16 arrivals the degree
    /// adapts: useful fraction ≥ high mark doubles K (up to the maximum);
    /// below the low mark K halves (possibly to zero, disabling
    /// prefetching).
    pub fn on_prefetch_arrived(&mut self) {
        if !self.cfg.adaptive {
            return;
        }
        self.arrived = (self.arrived + 1) % 16;
        if self.arrived == 0 {
            if self.useful >= HIGH_MARK {
                self.k = (self.k * 2).clamp(1, MAX_K);
            } else if self.useful < LOW_MARK {
                self.k /= 2;
            }
            self.useful = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_window(p: &mut Prefetcher, useful_of_16: u32) {
        for i in 0..16 {
            p.on_prefetch_issued();
            if i < useful_of_16 {
                p.on_useful_first_reference();
            }
            p.on_prefetch_arrived();
        }
    }

    #[test]
    fn high_usefulness_doubles_k_up_to_max() {
        let mut p = Prefetcher::new(PrefetchConfig::default());
        assert_eq!(p.k(), 1);
        run_window(&mut p, 16);
        assert_eq!(p.k(), 2);
        run_window(&mut p, 16);
        assert_eq!(p.k(), 4);
        run_window(&mut p, 16);
        run_window(&mut p, 16);
        assert_eq!(p.k(), 16);
        run_window(&mut p, 16);
        assert_eq!(p.k(), MAX_K, "K saturates at MAX_K");
    }

    #[test]
    fn low_usefulness_halves_k_down_to_zero() {
        let mut p = Prefetcher::new(PrefetchConfig {
            initial_k: 4,
            ..PrefetchConfig::default()
        });
        run_window(&mut p, 0);
        assert_eq!(p.k(), 2);
        run_window(&mut p, 0);
        assert_eq!(p.k(), 1);
        run_window(&mut p, 0);
        assert_eq!(p.k(), 0, "prefetching turns itself off");
    }

    #[test]
    fn moderate_usefulness_keeps_k() {
        let mut p = Prefetcher::new(PrefetchConfig {
            initial_k: 4,
            ..PrefetchConfig::default()
        });
        run_window(&mut p, 8); // between low (6) and high (12)
        assert_eq!(p.k(), 4);
    }

    #[test]
    fn restart_heuristic_reenables_prefetching() {
        let mut p = Prefetcher::new(PrefetchConfig {
            initial_k: 1,
            ..PrefetchConfig::default()
        });
        run_window(&mut p, 0); // K -> 0
        assert_eq!(p.k(), 0);
        // 16 misses, most with the predecessor cached: sequential locality.
        for _ in 0..16 {
            assert_eq!(p.on_demand_miss(true), if p.k() == 0 { 0 } else { 1 });
        }
        assert_eq!(p.k(), 1, "restart counter re-enabled prefetching");
    }

    #[test]
    fn restart_needs_sequential_evidence() {
        let mut p = Prefetcher::new(PrefetchConfig {
            initial_k: 1,
            ..PrefetchConfig::default()
        });
        run_window(&mut p, 0);
        for _ in 0..64 {
            p.on_demand_miss(false); // random misses: no evidence
        }
        assert_eq!(p.k(), 0);
    }

    #[test]
    fn non_adaptive_keeps_fixed_k() {
        let mut p = Prefetcher::new(PrefetchConfig {
            initial_k: 4,
            adaptive: false,
        });
        run_window(&mut p, 0);
        run_window(&mut p, 16);
        assert_eq!(p.k(), 4);
        assert_eq!(p.on_demand_miss(false), 4);
    }

    #[test]
    #[should_panic(expected = "initial K exceeds maximum")]
    fn invalid_config_rejected() {
        let _ = Prefetcher::new(PrefetchConfig {
            initial_k: 32,
            ..PrefetchConfig::default()
        });
    }
}
