//! Ergonomic program construction for workload generators.

use crate::{Addr, BarrierId, MemEvent, Program, BLOCK_BYTES, WORD_BYTES};

/// Builds a [`Program`] one event at a time, with helpers for the access
/// patterns the workload generators need (strided scans, read-modify-writes,
/// critical sections).
///
/// All helpers return `&mut Self` for chaining.
///
/// # Example
///
/// ```
/// use dirext_trace::{Addr, ProgramBuilder};
///
/// let p = ProgramBuilder::new()
///     .compute(10)
///     .read(Addr::new(0))
///     .rmw(Addr::new(64))
///     .build();
/// assert_eq!(p.data_refs(), 3); // read + (read+write)
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
    /// Cycles of compute inserted between consecutive data references by the
    /// `*_paced` helpers.
    pace: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the compute pacing (cycles inserted before each reference by the
    /// scan helpers). Real codes do arithmetic between loads; a pace of 2-6
    /// cycles models typical instruction counts per shared reference.
    pub fn with_pace(mut self, cycles: u32) -> Self {
        self.pace = cycles;
        self
    }

    /// Appends a raw event.
    pub fn event(&mut self, e: MemEvent) -> &mut Self {
        self.program.push(e);
        self
    }

    /// Appends `cycles` of local computation (merged with a preceding
    /// `Compute` to keep programs compact).
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        if cycles == 0 {
            return self;
        }
        if let Some(MemEvent::Compute(prev)) = self.program.last_mut() {
            *prev = prev.saturating_add(cycles);
            return self;
        }
        self.program.push(MemEvent::Compute(cycles));
        self
    }

    /// Appends a load.
    pub fn read(&mut self, a: Addr) -> &mut Self {
        self.program.push(MemEvent::Read(a));
        self
    }

    /// Appends a store.
    pub fn write(&mut self, a: Addr) -> &mut Self {
        self.program.push(MemEvent::Write(a));
        self
    }

    /// Appends a software prefetch hint.
    pub fn prefetch(&mut self, a: Addr) -> &mut Self {
        self.program.push(MemEvent::Prefetch {
            addr: a,
            exclusive: false,
        });
        self
    }

    /// Appends an exclusive-mode (read-exclusive) software prefetch hint.
    pub fn prefetch_exclusive(&mut self, a: Addr) -> &mut Self {
        self.program.push(MemEvent::Prefetch {
            addr: a,
            exclusive: true,
        });
        self
    }

    /// Appends a read-modify-write of one word (`x := x + 1` in the paper's
    /// migratory-sharing discussion).
    pub fn rmw(&mut self, a: Addr) -> &mut Self {
        self.program.push(MemEvent::Read(a));
        self.program.push(MemEvent::Write(a));
        self
    }

    /// Reads every word in `[base, base + bytes)`, paced.
    pub fn read_words(&mut self, base: Addr, bytes: u64) -> &mut Self {
        let mut off = 0;
        while off < bytes {
            self.pace_gap();
            self.read(base.offset(off));
            off += WORD_BYTES;
        }
        self
    }

    /// Writes every word in `[base, base + bytes)`, paced.
    pub fn write_words(&mut self, base: Addr, bytes: u64) -> &mut Self {
        let mut off = 0;
        while off < bytes {
            self.pace_gap();
            self.write(base.offset(off));
            off += WORD_BYTES;
        }
        self
    }

    /// Reads one word per cache block over `[base, base + bytes)` — a sparse
    /// scan with block-level (not word-level) spatial locality.
    pub fn read_blocks(&mut self, base: Addr, bytes: u64) -> &mut Self {
        let mut off = 0;
        while off < bytes {
            self.pace_gap();
            self.read(base.offset(off));
            off += BLOCK_BYTES;
        }
        self
    }

    /// Read-modify-writes every word in `[base, base + bytes)`, paced.
    pub fn rmw_words(&mut self, base: Addr, bytes: u64) -> &mut Self {
        let mut off = 0;
        while off < bytes {
            self.pace_gap();
            self.rmw(base.offset(off));
            off += WORD_BYTES;
        }
        self
    }

    /// Appends `Acquire(lock)`, runs `body`, then appends `Release(lock)`.
    pub fn critical<F>(&mut self, lock: Addr, body: F) -> &mut Self
    where
        F: FnOnce(&mut Self),
    {
        self.program.push(MemEvent::Acquire(lock));
        body(self);
        self.program.push(MemEvent::Release(lock));
        self
    }

    /// Appends a barrier arrival.
    pub fn barrier(&mut self, id: BarrierId) -> &mut Self {
        self.program.push(MemEvent::Barrier(id));
        self
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// Finishes and returns the program.
    pub fn build(&mut self) -> Program {
        std::mem::take(&mut self.program)
    }

    fn pace_gap(&mut self) {
        if self.pace > 0 {
            self.compute(self.pace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_merges() {
        let mut b = ProgramBuilder::new();
        b.compute(3).compute(4);
        let p = b.build();
        assert_eq!(p.events(), &[MemEvent::Compute(7)]);
    }

    #[test]
    fn rmw_is_read_then_write() {
        let mut b = ProgramBuilder::new();
        b.rmw(Addr::new(8));
        let p = b.build();
        assert_eq!(
            p.events(),
            &[MemEvent::Read(Addr::new(8)), MemEvent::Write(Addr::new(8))]
        );
    }

    #[test]
    fn read_words_covers_range_with_pace() {
        let mut b = ProgramBuilder::new().with_pace(2);
        b.read_words(Addr::new(0), 16); // 4 words
        let p = b.build();
        assert_eq!(p.data_refs(), 4);
        // 4 paces of 2 cycles interleaved.
        let computes: u32 = p
            .events()
            .iter()
            .filter_map(|e| match e {
                MemEvent::Compute(c) => Some(*c),
                _ => None,
            })
            .sum();
        assert_eq!(computes, 8);
    }

    #[test]
    fn read_blocks_strides_by_block() {
        let mut b = ProgramBuilder::new();
        b.read_blocks(Addr::new(0), 3 * BLOCK_BYTES);
        let p = b.build();
        assert_eq!(p.data_refs(), 3);
        assert_eq!(p.events()[1], MemEvent::Read(Addr::new(32)));
    }

    #[test]
    fn critical_section_wraps_body() {
        let lock = Addr::new(4096);
        let mut b = ProgramBuilder::new();
        b.critical(lock, |b| {
            b.rmw(Addr::new(0));
        });
        let p = b.build();
        assert_eq!(p.events().first(), Some(&MemEvent::Acquire(lock)));
        assert_eq!(p.events().last(), Some(&MemEvent::Release(lock)));
        assert_eq!(p.data_refs(), 2);
    }

    #[test]
    fn builder_len_and_build_resets() {
        let mut b = ProgramBuilder::new();
        assert!(b.is_empty());
        b.read(Addr::new(0));
        assert_eq!(b.len(), 1);
        let _ = b.build();
        assert!(b.is_empty());
    }
}
