//! The protocol extensions, as one value per controller.
//!
//! The BASIC transition cores (the directory in [`crate::dir`] and the
//! simulator's cache controller) know nothing about P, M, CW or the
//! exclusive-clean ablation E: at every point where an extension may change
//! an outcome they call a hook on an [`Exts`] built once from the
//! [`ProtocolConfig`]. Each hook is written once, with the precedence of
//! the extensions it serves spelled out in its body (M's exclusive grant
//! before E's, the CW+M interrogation only when both are installed).
//!
//! The directory-side hooks remember which extension changed an outcome so
//! the transition-trace layer can attribute the resulting state change.

use crate::config::{CompetitiveConfig, ProtocolConfig};
use crate::dir::{DirEntry, DirState, DirStats};
use crate::prefetch::{PrefetchStats, Prefetcher};
use dirext_trace::NodeId;

use super::table::{ExtKind, ExtSet};

/// Outcome of a read miss on a CLEAN directory entry.
#[derive(Debug, Clone, Copy)]
pub struct ReadGrant {
    /// Grant the block exclusively (the requester installs `MigClean`).
    pub exclusive: bool,
    /// Record the requester as the block's last writer (migratory grants
    /// do; plain exclusive-clean grants do not).
    pub record_writer: bool,
}

/// How the home services a read miss on a MODIFIED entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFetch {
    /// BASIC: fetch the dirty copy, the owner keeps a shared copy.
    Plain,
    /// Migratory: fetch-invalidate the holder and pass the block on
    /// exclusively.
    Invalidating,
}

/// Routing decision for an update request on a CLEAN entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRoute {
    /// Fan the update out to the other caches with copies.
    Fanout,
    /// CW+M: interrogate every cache with a copy first.
    Interrogate,
}

/// How the processor cache services a write to a SHARED or absent block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// BASIC: request ownership (write-invalidate).
    Invalidate,
    /// CW: allocate in the write cache; no fetch, no ownership request.
    WriteCache,
    /// CW without write caches (ablation): an immediate single-word
    /// update request per write.
    UpdateNow,
}

/// The protocol extensions installed at one controller, and the hooks the
/// BASIC transition cores call. The default value is pure BASIC.
#[derive(Debug, Default)]
pub struct Exts {
    /// P: the per-node adaptive sequential prefetcher.
    prefetch: Option<Prefetcher>,
    /// M: the migratory-sharing optimization.
    migratory: bool,
    /// M: whether an unwritten exclusive copy reverts the block to
    /// ordinary read sharing.
    revert: bool,
    /// E: MESI-style exclusive-clean grants.
    exclusive_clean: bool,
    /// CW: competitive update.
    competitive: Option<CompetitiveConfig>,
    /// Name of the first extension that changed an outcome since the last
    /// [`Exts::take_fired`] (trace attribution).
    fired: Option<&'static str>,
}

impl Exts {
    /// The extensions of a protocol configuration.
    ///
    /// # Panics
    ///
    /// Panics if the competitive threshold is zero (a copy that
    /// self-invalidates before any update would make loads incoherent).
    pub fn from_protocol(p: &ProtocolConfig) -> Self {
        if let Some(c) = p.competitive {
            assert!(c.threshold > 0, "competitive threshold must be positive");
        }
        Exts {
            prefetch: p.prefetch.map(Prefetcher::new),
            migratory: p.migratory,
            revert: p.migratory_revert,
            exclusive_clean: p.exclusive_clean,
            competitive: p.competitive,
            fired: None,
        }
    }

    /// The enabled transition-table layers (BASIC plus one per installed
    /// extension, with CW+M inferred).
    pub fn rule_set(&self) -> ExtSet {
        [
            (self.prefetch.is_some(), ExtKind::Prefetch),
            (self.migratory, ExtKind::Migratory),
            (self.exclusive_clean, ExtKind::ExclusiveClean),
            (self.competitive.is_some(), ExtKind::Competitive),
        ]
        .into_iter()
        .filter(|&(on, _)| on)
        .fold(ExtSet::basic(), |s, (_, kind)| s.with(kind))
    }

    /// Takes (and clears) the name of the first extension that changed an
    /// outcome since the previous call.
    pub fn take_fired(&mut self) -> Option<&'static str> {
        self.fired.take()
    }

    fn fire(&mut self, name: &'static str) {
        self.fired.get_or_insert(name);
    }

    // ------------------------------------------------- directory side

    /// Read miss on a CLEAN entry. M grants a migratory block exclusively
    /// and records the reader as its writer; otherwise E grants a block
    /// with certainly no cached copies exclusively; otherwise BASIC grants
    /// a shared copy.
    pub fn read_clean(&mut self, e: &DirEntry, stats: &mut DirStats) -> ReadGrant {
        let record_writer = if self.migratory && e.migratory {
            // A migratory block that is clean has no cached copies (the
            // last holder wrote it back).
            debug_assert!(e.sharers.exactly_empty());
            self.fire("M");
            true
        } else if self.exclusive_clean && e.sharers.exactly_empty() {
            // Gated on *certain* emptiness: an inexact organization never
            // grants exclusivity.
            self.fire("E");
            false
        } else {
            return ReadGrant {
                exclusive: false,
                record_writer: false,
            };
        };
        stats.exclusive_grants += 1;
        ReadGrant {
            exclusive: true,
            record_writer,
        }
    }

    /// Read miss on a MODIFIED entry: M passes a migratory block on with a
    /// fetch-invalidate; BASIC fetches the dirty copy.
    pub fn read_modified(&mut self, e: &DirEntry) -> ReadFetch {
        if self.migratory && e.migratory {
            self.fire("M");
            ReadFetch::Invalidating
        } else {
            ReadFetch::Plain
        }
    }

    /// An ownership request arrived (before state dispatch): M's migratory
    /// detection (Stenström et al. \[12\], Cox & Fowler \[2\]) — an ownership
    /// request from a node that just read the block, while the only other
    /// copy belongs to the previous writer.
    pub fn on_own_lookup(&mut self, e: &mut DirEntry, src: NodeId, stats: &mut DirStats) {
        if self.migratory
            && !e.migratory
            && e.state == DirState::Clean
            && e.sharers.exact_count() == Some(2)
            && e.sharers.certainly_contains(src)
            && e.last_writer
                .is_some_and(|lw| lw != src && e.sharers.certainly_contains(lw))
        {
            e.migratory = true;
            stats.migratory_detections += 1;
            self.fire("M");
        }
    }

    /// Update request on a CLEAN entry. Only with M and CW both installed:
    /// two consecutive non-overlapping read/write sequences by distinct
    /// processors are *potentially* migratory, so the home interrogates
    /// the caches holding copies instead of fanning the update out.
    pub fn update_route(&mut self, e: &DirEntry, src: NodeId) -> UpdateRoute {
        if self.migratory
            && self.competitive.is_some()
            && !e.migratory
            && e.sharers.exact_count().is_some_and(|c| c > 1)
            && e.last_updater.is_some()
            && e.last_updater != Some(src)
        {
            self.fire("M");
            UpdateRoute::Interrogate
        } else {
            UpdateRoute::Fanout
        }
    }

    /// An owner's writeback was applied (entry already CLEAN): M's
    /// self-correction when the holder replaced the block without ever
    /// writing it.
    pub fn on_writeback(&mut self, e: &mut DirEntry, written: bool, stats: &mut DirStats) {
        if self.migratory && self.revert && !written && e.migratory {
            e.migratory = false;
            stats.migratory_reverts += 1;
            self.fire("M");
        }
    }

    /// A migratory fetch completed with `written == false`: whether the
    /// block reverts to ordinary read sharing.
    pub fn unwritten_migratory_fetch(&mut self) -> bool {
        if self.migratory {
            self.fire("M");
        }
        self.migratory && self.revert
    }

    // ----------------------------------------------------- cache side

    /// How a write to a SHARED or absent block is serviced: CW combines it
    /// in the write cache (or, without one, sends it at once); BASIC
    /// requests ownership.
    pub fn write_mode(&self) -> WriteMode {
        match self.competitive {
            None => WriteMode::Invalidate,
            Some(c) if c.write_cache => WriteMode::WriteCache,
            Some(_) => WriteMode::UpdateNow,
        }
    }

    /// A demand read miss whose predecessor-cached bit is `pred_cached`:
    /// the number of sequential prefetches P issues (0 without P).
    pub fn on_demand_miss(&mut self, pred_cached: bool) -> u32 {
        self.prefetch
            .as_mut()
            .map_or(0, |pf| pf.on_demand_miss(pred_cached))
    }

    /// First reference to a prefetched block: the number of prefetches
    /// extending the stream.
    pub fn on_useful_first_reference(&mut self) -> u32 {
        self.prefetch
            .as_mut()
            .map_or(0, Prefetcher::on_useful_first_reference)
    }

    /// A prefetch request left the cache.
    pub fn on_prefetch_issued(&mut self) {
        if let Some(pf) = &mut self.prefetch {
            pf.on_prefetch_issued();
        }
    }

    /// A prefetched block arrived.
    pub fn on_prefetch_arrived(&mut self) {
        if let Some(pf) = &mut self.prefetch {
            pf.on_prefetch_arrived();
        }
    }

    /// The prefetcher's counters, if P is installed.
    pub fn prefetch_stats(&self) -> Option<PrefetchStats> {
        self.prefetch.as_ref().map(Prefetcher::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Consistency, ProtocolKind};

    #[test]
    fn rule_set_has_one_layer_per_extension() {
        for k in ProtocolKind::ALL {
            let set = Exts::from_protocol(&k.config(Consistency::Rc)).rule_set();
            assert_eq!(set.contains(ExtKind::Prefetch), k.has_prefetch(), "{k}");
            assert_eq!(set.contains(ExtKind::Migratory), k.has_migratory(), "{k}");
            assert_eq!(
                set.contains(ExtKind::Competitive),
                k.has_competitive(),
                "{k}"
            );
            assert_eq!(
                set.contains(ExtKind::CompetitiveMigratory),
                k.has_migratory() && k.has_competitive(),
                "{k}"
            );
            assert!(!set.contains(ExtKind::ExclusiveClean), "{k}");
        }
        let e = ProtocolConfig {
            exclusive_clean: true,
            ..ProtocolConfig::basic(Consistency::Sc)
        };
        assert_eq!(
            Exts::from_protocol(&e).rule_set().kinds(),
            [ExtKind::Basic, ExtKind::ExclusiveClean]
        );
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        let p = ProtocolConfig {
            competitive: Some(CompetitiveConfig {
                threshold: 0,
                write_cache: true,
            }),
            ..ProtocolConfig::basic(Consistency::Rc)
        };
        let _ = Exts::from_protocol(&p);
    }
}
