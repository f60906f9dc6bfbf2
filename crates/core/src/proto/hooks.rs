//! Composable protocol-extension hooks.
//!
//! The BASIC transition cores (the directory in [`crate::dir`] and the
//! simulator's cache controller) know nothing about P, M, CW or the
//! exclusive-clean ablation: at every point where an extension may change
//! an outcome they consult an [`ExtStack`] — an ordered list of
//! [`ProtocolExt`] implementations built once from the
//! [`ProtocolConfig`]. Rewriting hooks are *first-win*: the first
//! extension that rewrites an outcome settles it, mirroring the paper's
//! precedence (migratory handling before the exclusive-clean grant);
//! observation hooks (`on_own_lookup`, `on_writeback`, prefetch
//! callbacks) run for every installed extension.
//!
//! The stack remembers which hook fired so the transition-trace layer can
//! attribute the resulting state change to an extension.

use crate::competitive::CompetitivePolicy;
use crate::config::{CompetitiveConfig, PrefetchConfig, ProtocolConfig};
use crate::dir::{DirEntry, DirState, DirStats};
use crate::prefetch::{PrefetchStats, Prefetcher};
use dirext_trace::NodeId;

use super::table::{ExtKind, ExtSet};

/// Outcome of a read miss on a CLEAN directory entry, as rewritable by
/// extensions.
#[derive(Debug, Clone, Copy)]
pub struct ReadGrant {
    /// Grant the block exclusively (the requester installs `MigClean`).
    pub exclusive: bool,
    /// Record the requester as the block's last writer (migratory grants
    /// do; plain exclusive-clean grants do not).
    pub record_writer: bool,
}

impl ReadGrant {
    /// The BASIC outcome: an ordinary shared copy.
    pub fn shared() -> Self {
        ReadGrant {
            exclusive: false,
            record_writer: false,
        }
    }
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

/// Runtime-adjustable extension options (turned off by ablation tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtOption {
    /// M: whether an unwritten exclusive copy reverts the block to
    /// ordinary read sharing.
    MigratoryRevert,
}

/// A protocol extension: a set of hooks the BASIC transition cores consult.
///
/// Every method has a no-op default, so an extension implements exactly
/// the decision points it cares about. Hooks returning `bool` report
/// whether they rewrote the outcome (for first-win dispatch and trace
/// attribution).
#[allow(unused_variables)]
pub trait ProtocolExt: std::fmt::Debug + Send {
    /// Short name used in trace records ("P", "M", "CW", "E").
    fn name(&self) -> &'static str;

    /// Which transition-table layer this extension enables.
    fn kind(&self) -> ExtKind;

    /// Adjusts a runtime option; unknown options are ignored.
    fn configure(&mut self, opt: ExtOption, on: bool) {}

    // ------------------------------------------------- directory side

    /// Read miss on a CLEAN entry: may upgrade the grant to exclusive.
    fn read_clean(
        &mut self,
        e: &mut DirEntry,
        src: NodeId,
        stats: &mut DirStats,
        grant: &mut ReadGrant,
    ) -> bool {
        false
    }

    /// Read miss on a MODIFIED entry: may redirect the fetch.
    fn read_modified(&mut self, e: &DirEntry, fetch: &mut ReadFetch) -> bool {
        false
    }

    /// An ownership request arrived (before state dispatch): sharing-
    /// pattern detection.
    fn on_own_lookup(&mut self, e: &mut DirEntry, src: NodeId, stats: &mut DirStats) -> bool {
        false
    }

    /// Update request on a CLEAN entry: may reroute the fan-out.
    fn update_route(&mut self, e: &DirEntry, src: NodeId, route: &mut UpdateRoute) -> bool {
        false
    }

    /// An owner's writeback was applied (entry already CLEAN):
    /// self-correction.
    fn on_writeback(&mut self, e: &mut DirEntry, written: bool, stats: &mut DirStats) -> bool {
        false
    }

    /// A migratory fetch completed with `written == false`: should the
    /// block revert to ordinary read sharing?
    fn unwritten_migratory_fetch(&mut self, revert: &mut bool) -> bool {
        false
    }

    // ----------------------------------------------------- cache side

    /// How a write to a SHARED or absent block is serviced.
    fn write_mode(&mut self, mode: &mut WriteMode) -> bool {
        false
    }

    /// A demand read miss whose predecessor-cached bit is `pred_cached`:
    /// sets the number of sequential prefetches to issue.
    fn on_demand_miss(&mut self, pred_cached: bool, k: &mut u32) -> bool {
        false
    }

    /// First reference to a prefetched block: sets the number of
    /// prefetches extending the stream.
    fn on_useful_first_reference(&mut self, k: &mut u32) -> bool {
        false
    }

    /// A prefetch request left the cache.
    fn on_prefetch_issued(&mut self) {}

    /// A prefetched block arrived.
    fn on_prefetch_arrived(&mut self) {}

    /// Prefetcher counters for metrics collection, if this extension
    /// prefetches.
    fn prefetch_stats(&self) -> Option<PrefetchStats> {
        None
    }
}

// --------------------------------------------------------------- stack

/// An ordered stack of protocol extensions, built from a
/// [`ProtocolConfig`] and consulted by both transition cores.
#[derive(Debug, Default)]
pub struct ExtStack {
    exts: Vec<Box<dyn ProtocolExt>>,
    /// Name of the first hook that rewrote an outcome since the last
    /// [`ExtStack::take_fired`] (trace attribution).
    fired: Option<&'static str>,
}

impl ExtStack {
    /// An empty stack: the pure BASIC protocol.
    pub fn new() -> Self {
        ExtStack::default()
    }

    /// Builds the stack matching a protocol configuration, in precedence
    /// order: P, M, E, CW.
    pub fn from_protocol(p: &ProtocolConfig) -> Self {
        let mut s = ExtStack::new();
        if let Some(pf) = p.prefetch {
            s.push(Box::new(PrefetchExt::new(pf)));
        }
        if p.migratory {
            let mut m = MigratoryExt::new(p.competitive.is_some());
            m.configure(ExtOption::MigratoryRevert, p.migratory_revert);
            s.push(Box::new(m));
        }
        if p.exclusive_clean {
            s.push(Box::new(ExclusiveCleanExt));
        }
        if let Some(c) = p.competitive {
            s.push(Box::new(CompetitiveUpdateExt::new(c)));
        }
        s
    }

    /// Appends an extension (later entries lose first-win rewrites).
    pub fn push(&mut self, ext: Box<dyn ProtocolExt>) {
        self.exts.push(ext);
    }

    /// Removes every extension of table layer `kind`.
    pub fn remove(&mut self, kind: ExtKind) {
        self.exts.retain(|e| e.kind() != kind);
    }

    /// Whether an extension of table layer `kind` is installed.
    pub fn contains(&self, kind: ExtKind) -> bool {
        self.exts.iter().any(|e| e.kind() == kind)
    }

    /// The enabled transition-table layers (BASIC plus one per installed
    /// extension, with CW+M inferred).
    pub fn rule_set(&self) -> ExtSet {
        self.exts
            .iter()
            .fold(ExtSet::basic(), |s, e| s.with(e.kind()))
    }

    /// Installed extension names, in stack order.
    pub fn names(&self) -> Vec<&'static str> {
        self.exts.iter().map(|e| e.name()).collect()
    }

    /// Forwards an option to every installed extension.
    pub fn configure(&mut self, opt: ExtOption, on: bool) {
        for e in &mut self.exts {
            e.configure(opt, on);
        }
    }

    /// Takes (and clears) the name of the first hook that rewrote an
    /// outcome since the previous call.
    pub fn take_fired(&mut self) -> Option<&'static str> {
        self.fired.take()
    }

    fn note_fired(&mut self, name: &'static str) {
        if self.fired.is_none() {
            self.fired = Some(name);
        }
    }

    // Dispatchers. Rewriting hooks are first-win; observation hooks run
    // for every extension.

    /// First-win dispatch of [`ProtocolExt::read_clean`].
    pub fn read_clean(
        &mut self,
        e: &mut DirEntry,
        src: NodeId,
        stats: &mut DirStats,
        grant: &mut ReadGrant,
    ) {
        for i in 0..self.exts.len() {
            if self.exts[i].read_clean(e, src, stats, grant) {
                let name = self.exts[i].name();
                self.note_fired(name);
                return;
            }
        }
    }

    /// First-win dispatch of [`ProtocolExt::read_modified`].
    pub fn read_modified(&mut self, e: &DirEntry, fetch: &mut ReadFetch) {
        for i in 0..self.exts.len() {
            if self.exts[i].read_modified(e, fetch) {
                let name = self.exts[i].name();
                self.note_fired(name);
                return;
            }
        }
    }

    /// Dispatches [`ProtocolExt::on_own_lookup`] to every extension.
    pub fn on_own_lookup(&mut self, e: &mut DirEntry, src: NodeId, stats: &mut DirStats) {
        for i in 0..self.exts.len() {
            if self.exts[i].on_own_lookup(e, src, stats) {
                let name = self.exts[i].name();
                self.note_fired(name);
            }
        }
    }

    /// First-win dispatch of [`ProtocolExt::update_route`].
    pub fn update_route(&mut self, e: &DirEntry, src: NodeId, route: &mut UpdateRoute) {
        for i in 0..self.exts.len() {
            if self.exts[i].update_route(e, src, route) {
                let name = self.exts[i].name();
                self.note_fired(name);
                return;
            }
        }
    }

    /// Dispatches [`ProtocolExt::on_writeback`] to every extension.
    pub fn on_writeback(&mut self, e: &mut DirEntry, written: bool, stats: &mut DirStats) {
        for i in 0..self.exts.len() {
            if self.exts[i].on_writeback(e, written, stats) {
                let name = self.exts[i].name();
                self.note_fired(name);
            }
        }
    }

    /// First-win dispatch of [`ProtocolExt::unwritten_migratory_fetch`].
    pub fn unwritten_migratory_fetch(&mut self) -> bool {
        let mut revert = false;
        for i in 0..self.exts.len() {
            if self.exts[i].unwritten_migratory_fetch(&mut revert) {
                let name = self.exts[i].name();
                self.note_fired(name);
                break;
            }
        }
        revert
    }

    /// First-win dispatch of [`ProtocolExt::write_mode`].
    pub fn write_mode(&mut self) -> WriteMode {
        let mut mode = WriteMode::Invalidate;
        for e in &mut self.exts {
            if e.write_mode(&mut mode) {
                break;
            }
        }
        mode
    }

    /// First-win dispatch of [`ProtocolExt::on_demand_miss`]; 0 means no
    /// prefetching.
    pub fn on_demand_miss(&mut self, pred_cached: bool) -> u32 {
        let mut k = 0;
        for e in &mut self.exts {
            if e.on_demand_miss(pred_cached, &mut k) {
                break;
            }
        }
        k
    }

    /// First-win dispatch of [`ProtocolExt::on_useful_first_reference`].
    pub fn on_useful_first_reference(&mut self) -> u32 {
        let mut k = 0;
        for e in &mut self.exts {
            if e.on_useful_first_reference(&mut k) {
                break;
            }
        }
        k
    }

    /// Notifies every extension that a prefetch request left the cache.
    pub fn on_prefetch_issued(&mut self) {
        for e in &mut self.exts {
            e.on_prefetch_issued();
        }
    }

    /// Notifies every extension that a prefetched block arrived.
    pub fn on_prefetch_arrived(&mut self) {
        for e in &mut self.exts {
            e.on_prefetch_arrived();
        }
    }

    /// The first extension's prefetch counters, if any extension
    /// prefetches.
    pub fn prefetch_stats(&self) -> Option<PrefetchStats> {
        self.exts.iter().find_map(|e| e.prefetch_stats())
    }
}

// ---------------------------------------------------------- extensions

/// P — adaptive sequential prefetching (wraps the per-node
/// [`Prefetcher`] state machine).
#[derive(Debug)]
pub struct PrefetchExt {
    pf: Prefetcher,
}

impl PrefetchExt {
    /// A prefetch extension with the given adaptation parameters.
    pub fn new(cfg: PrefetchConfig) -> Self {
        PrefetchExt {
            pf: Prefetcher::new(cfg),
        }
    }
}

impl ProtocolExt for PrefetchExt {
    fn name(&self) -> &'static str {
        "P"
    }

    fn kind(&self) -> ExtKind {
        ExtKind::Prefetch
    }

    fn on_demand_miss(&mut self, pred_cached: bool, k: &mut u32) -> bool {
        *k = self.pf.on_demand_miss(pred_cached);
        true
    }

    fn on_useful_first_reference(&mut self, k: &mut u32) -> bool {
        *k = self.pf.on_useful_first_reference();
        true
    }

    fn on_prefetch_issued(&mut self) {
        self.pf.on_prefetch_issued();
    }

    fn on_prefetch_arrived(&mut self) {
        self.pf.on_prefetch_arrived();
    }

    fn prefetch_stats(&self) -> Option<PrefetchStats> {
        Some(self.pf.stats())
    }
}

/// M — the migratory-sharing optimization: detection at the home on
/// ownership requests, exclusive read grants, fetch-invalidate reads, and
/// self-correcting reversion.
#[derive(Debug)]
pub struct MigratoryExt {
    revert: bool,
    /// Composed with CW: detection must go through interrogation, because
    /// the home cannot see local reads under an update protocol.
    interrogate: bool,
}

impl MigratoryExt {
    /// A migratory extension; `with_competitive` selects the CW+M
    /// interrogation-based detection.
    pub fn new(with_competitive: bool) -> Self {
        MigratoryExt {
            revert: true,
            interrogate: with_competitive,
        }
    }
}

impl ProtocolExt for MigratoryExt {
    fn name(&self) -> &'static str {
        "M"
    }

    fn kind(&self) -> ExtKind {
        ExtKind::Migratory
    }

    fn configure(&mut self, opt: ExtOption, on: bool) {
        match opt {
            ExtOption::MigratoryRevert => self.revert = on,
        }
    }

    fn read_clean(
        &mut self,
        e: &mut DirEntry,
        src: NodeId,
        stats: &mut DirStats,
        grant: &mut ReadGrant,
    ) -> bool {
        if !e.migratory {
            return false;
        }
        // A migratory block that is clean has no cached copies (the last
        // holder wrote it back): grant exclusively.
        debug_assert!(e.sharers.exactly_empty());
        let _ = src;
        stats.exclusive_grants += 1;
        grant.exclusive = true;
        grant.record_writer = true;
        true
    }

    fn read_modified(&mut self, e: &DirEntry, fetch: &mut ReadFetch) -> bool {
        if !e.migratory {
            return false;
        }
        *fetch = ReadFetch::Invalidating;
        true
    }

    fn on_own_lookup(&mut self, e: &mut DirEntry, src: NodeId, stats: &mut DirStats) -> bool {
        // Migratory detection (Stenström et al. [12], Cox & Fowler [2]):
        // an ownership request from a node that just read the block, while
        // the only other copy belongs to the previous writer.
        if !e.migratory
            && e.state == DirState::Clean
            && e.sharers.exact_count() == Some(2)
            && e.sharers.certainly_contains(src)
        {
            if let Some(lw) = e.last_writer {
                if lw != src && e.sharers.certainly_contains(lw) {
                    e.migratory = true;
                    stats.migratory_detections += 1;
                    return true;
                }
            }
        }
        false
    }

    fn update_route(&mut self, e: &DirEntry, src: NodeId, route: &mut UpdateRoute) -> bool {
        // CW+M: two consecutive non-overlapping read/write sequences by
        // distinct processors are only *potentially* migratory —
        // interrogate the caches holding copies.
        if self.interrogate
            && !e.migratory
            && e.sharers.exact_count().is_some_and(|c| c > 1)
            && e.last_updater.is_some()
            && e.last_updater != Some(src)
        {
            *route = UpdateRoute::Interrogate;
            return true;
        }
        false
    }

    fn on_writeback(&mut self, e: &mut DirEntry, written: bool, stats: &mut DirStats) -> bool {
        if !written && e.migratory && self.revert {
            // The holder replaced the block without ever writing it: the
            // sharing pattern is no longer migratory.
            e.migratory = false;
            stats.migratory_reverts += 1;
            return true;
        }
        false
    }

    fn unwritten_migratory_fetch(&mut self, revert: &mut bool) -> bool {
        *revert = self.revert;
        true
    }
}

/// The MESI-style exclusive-clean ablation: a read miss to a block with no
/// cached copies returns an exclusive copy.
#[derive(Debug)]
pub struct ExclusiveCleanExt;

impl ProtocolExt for ExclusiveCleanExt {
    fn name(&self) -> &'static str {
        "E"
    }

    fn kind(&self) -> ExtKind {
        ExtKind::ExclusiveClean
    }

    fn read_clean(
        &mut self,
        e: &mut DirEntry,
        _src: NodeId,
        stats: &mut DirStats,
        grant: &mut ReadGrant,
    ) -> bool {
        // With no other copies, grant exclusively so the first write to
        // (effectively private) data is silent. Gated on *certain* emptiness:
        // an inexact organization never grants exclusivity.
        if !e.sharers.exactly_empty() {
            return false;
        }
        stats.exclusive_grants += 1;
        grant.exclusive = true;
        true
    }
}

/// CW — competitive update with write caches. The directory's update
/// fan-out is message-driven (an `UpdateReq` can only exist under CW);
/// this extension's hooks select the cache-side write policy.
#[derive(Debug)]
pub struct CompetitiveUpdateExt {
    policy: CompetitivePolicy,
}

impl CompetitiveUpdateExt {
    /// A competitive-update extension with the given threshold policy.
    pub fn new(cfg: CompetitiveConfig) -> Self {
        CompetitiveUpdateExt {
            policy: CompetitivePolicy::new(cfg),
        }
    }

    /// The per-line competitive counter preset.
    pub fn preset(&self) -> u8 {
        self.policy.preset()
    }
}

impl ProtocolExt for CompetitiveUpdateExt {
    fn name(&self) -> &'static str {
        "CW"
    }

    fn kind(&self) -> ExtKind {
        ExtKind::Competitive
    }

    fn write_mode(&mut self, mode: &mut WriteMode) -> bool {
        *mode = if self.policy.write_cache_enabled() {
            WriteMode::WriteCache
        } else {
            WriteMode::UpdateNow
        };
        true
    }
}
