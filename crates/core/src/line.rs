//! Second-level cache line state.

/// Stable SLC line states.
///
/// The paper's BASIC protocol needs only `Shared` and `Dirty` (invalid lines
/// are simply absent from the cache): "no transient state is needed in cache
/// because all pending accesses are kept in the SLWB". The migratory
/// optimization adds one extra state, `MigClean` — an exclusive but not yet
/// written copy of a block the home deemed migratory; the first local write
/// silently promotes it to `Dirty` with **no ownership request**, which is
/// the entire point of the optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// Valid, possibly replicated; memory is up to date.
    Shared,
    /// Exclusive and modified.
    Dirty,
    /// Exclusive, unmodified, granted by the migratory optimization.
    MigClean,
}

impl CacheState {
    /// Whether the holder is the exclusive owner.
    pub fn exclusive(self) -> bool {
        matches!(self, CacheState::Dirty | CacheState::MigClean)
    }
}

/// The full per-line SLC metadata, covering BASIC plus all three extensions
/// (each field is only meaningful when the corresponding extension is on —
/// see the hardware-cost model in [`crate::cost`] for the bit budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Protocol state.
    pub state: CacheState,
    /// Debug version stamp (the simulator's coherence-value check; not
    /// hardware).
    pub version: u64,
    /// P: block arrived by prefetch and has not been referenced yet.
    pub prefetched: bool,
    /// CW: competitive counter (preset on load and local access,
    /// decremented per foreign update; zero invalidates).
    pub comp_counter: u8,
    /// CW+M: block was modified locally at some point while resident.
    pub ever_modified: bool,
    /// CW+M: block was read since the last update received from home.
    pub read_since_update: bool,
    /// CW+M: block was modified since the last update received from home.
    pub modified_since_update: bool,
    /// An ownership request for this line is outstanding in the SLWB (the
    /// line itself stays in its stable state).
    pub own_pending: bool,
}

impl Line {
    /// Creates a line in the given state with a version stamp and the
    /// competitive counter preset to `comp_preset`.
    pub fn new(state: CacheState, version: u64, comp_preset: u8) -> Self {
        Line {
            state,
            version,
            prefetched: false,
            comp_counter: comp_preset,
            ever_modified: false,
            read_since_update: false,
            modified_since_update: false,
            own_pending: false,
        }
    }

    /// Records a local read: presets the competitive counter and marks the
    /// block as actively read for the CW+M interrogation heuristic. Clears
    /// the prefetched bit; returns whether this was the first reference to
    /// a prefetched block (a *useful* prefetch).
    pub fn touch_read(&mut self, comp_preset: u8) -> bool {
        self.comp_counter = comp_preset;
        self.read_since_update = true;
        std::mem::take(&mut self.prefetched)
    }

    /// Records a local write (version stamping is the caller's job).
    /// Returns whether this was the first reference to a prefetched block.
    pub fn touch_write(&mut self, comp_preset: u8) -> bool {
        self.comp_counter = comp_preset;
        self.ever_modified = true;
        self.modified_since_update = true;
        std::mem::take(&mut self.prefetched)
    }

    /// Applies a foreign competitive update. Returns `true` if the copy
    /// must self-invalidate: the counter (preset to the competitive
    /// threshold on every local access) had already been exhausted by
    /// earlier updates, i.e. *threshold* updates arrived with no intervening
    /// local access. Otherwise the update is absorbed: the version merges,
    /// the counter decrements, and the since-update flags reset.
    ///
    /// With the paper's recommended threshold of one, an actively read copy
    /// survives indefinitely (each local access resets the counter), while
    /// an idle copy is invalidated by the second consecutive update.
    pub fn apply_update(&mut self, version: u64) -> bool {
        if self.comp_counter == 0 {
            return true;
        }
        self.comp_counter -= 1;
        self.version = self.version.max(version);
        self.read_since_update = false;
        self.modified_since_update = false;
        false
    }

    /// The CW+M interrogation verdict: keep the copy (veto migratory) if the
    /// block was never modified locally, or was read but not modified since
    /// the last update from home.
    pub fn interrogate_keeps(&self) -> bool {
        !self.ever_modified || (self.read_since_update && !self.modified_since_update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_writability() {
        assert!(CacheState::Dirty.exclusive());
        assert!(CacheState::MigClean.exclusive());
        assert!(!CacheState::Shared.exclusive());
    }

    #[test]
    fn prefetched_bit_cleared_on_first_reference_only() {
        let mut l = Line::new(CacheState::Shared, 1, 1);
        l.prefetched = true;
        assert!(l.touch_read(1)); // useful prefetch
        assert!(!l.touch_read(1)); // already referenced
    }

    #[test]
    fn competitive_countdown_threshold_one() {
        let mut l = Line::new(CacheState::Shared, 1, 1);
        // The first update since the last access is absorbed; the second
        // consecutive one invalidates the copy.
        assert!(!l.apply_update(2));
        assert_eq!(l.version, 2);
        assert!(l.apply_update(3));
    }

    #[test]
    fn active_reader_survives_with_threshold_one() {
        let mut l = Line::new(CacheState::Shared, 1, 1);
        for v in 2..50u64 {
            assert!(!l.apply_update(v), "actively read copy must survive");
            l.touch_read(1); // consumer reads between producer updates
        }
    }

    #[test]
    fn competitive_countdown_threshold_four_with_intervening_access() {
        let mut l = Line::new(CacheState::Shared, 1, 4);
        assert!(!l.apply_update(2));
        assert!(!l.apply_update(3));
        l.touch_read(4); // local access presets the counter
        for v in 4..8u64 {
            assert!(!l.apply_update(v));
        }
        assert!(l.apply_update(8), "four updates exhausted the counter");
    }

    #[test]
    fn interrogation_verdicts() {
        // Never modified: keep.
        let mut reader = Line::new(CacheState::Shared, 1, 1);
        reader.touch_read(1);
        assert!(reader.interrogate_keeps());

        // Modified at some point, idle since the last update: give up.
        let mut old_writer = Line::new(CacheState::Shared, 1, 1);
        old_writer.touch_write(1);
        let _ = old_writer.apply_update(2);
        assert!(!old_writer.interrogate_keeps());

        // Modified at some point, but actively *reading* since the last
        // update: keep.
        let mut active_reader = Line::new(CacheState::Shared, 1, 1);
        active_reader.touch_write(1);
        let _ = active_reader.apply_update(2);
        active_reader.touch_read(1);
        assert!(active_reader.interrogate_keeps());

        // Modified since the last update: give up.
        let mut writer = Line::new(CacheState::Shared, 1, 1);
        writer.touch_write(1);
        assert!(!writer.interrogate_keeps());
    }

    #[test]
    fn version_merge_is_monotonic() {
        let mut l = Line::new(CacheState::Shared, 10, 4);
        let _ = l.apply_update(5); // stale update must not regress version
        assert_eq!(l.version, 10);
    }
}
