//! First-level cache: direct-mapped, write-through, no write allocation.

use dirext_trace::{BlockAddr, BLOCK_BYTES};

/// The first-level cache (FLC).
///
/// The paper's FLC is a 4-KB direct-mapped write-through cache with 32-byte
/// blocks, no allocation on write misses, and blocking read misses. It must
/// "respond to all processor accesses and be fast and simple", so it is a
/// pure tag array here — data correctness is carried by the SLC/protocol
/// layer, and SLC inclusion means every FLC-valid block is SLC-valid.
///
/// # Example
///
/// ```
/// use dirext_memsys::Flc;
/// use dirext_trace::BlockAddr;
///
/// let mut flc = Flc::new(4 * 1024);
/// let b = BlockAddr::from_index(5);
/// assert!(!flc.probe(b));
/// flc.fill(b);
/// assert!(flc.probe(b));
/// ```
#[derive(Debug, Clone)]
pub struct Flc {
    tags: Vec<Option<BlockAddr>>,
    hits: u64,
    misses: u64,
}

impl Flc {
    /// Creates an FLC of `bytes` capacity (32-byte blocks).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of the block size.
    pub fn new(bytes: u64) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(BLOCK_BYTES),
            "FLC size must be a multiple of 32 B"
        );
        let lines = (bytes / BLOCK_BYTES) as usize;
        Flc {
            tags: vec![None; lines],
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.tags.len() as u64) as usize
    }

    /// Looks up `block`, recording a hit or miss.
    pub fn access(&mut self, block: BlockAddr) -> bool {
        let hit = self.probe(block);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Whether `block` is present (no statistics side effects).
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.tags[self.set_of(block)] == Some(block)
    }

    /// Installs `block` (after an SLC fill), returning any evicted block so
    /// the caller can maintain bookkeeping.
    pub fn fill(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let set = self.set_of(block);
        let evicted = match self.tags[set] {
            Some(old) if old != block => Some(old),
            _ => None,
        };
        self.tags[set] = Some(block);
        evicted
    }

    /// Invalidates `block` if present (SLC inclusion: called whenever the
    /// SLC loses or rewrites a block). Returns whether it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        if self.tags[set] == Some(block) {
            self.tags[set] = None;
            true
        } else {
            false
        }
    }

    /// Hits recorded by [`Flc::access`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`Flc::access`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.tags.len()
    }

    /// Iterates over the resident blocks (for the machine's inclusion
    /// audit: every FLC-valid block must be SLC-valid).
    pub fn resident(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.tags.iter().filter_map(|t| *t)
    }
}

/// All nodes' first-level caches as one structure-of-arrays.
///
/// Semantically `N` independent [`Flc`]s, laid out as flat node-major
/// parallel arrays: one contiguous tag column plus a per-node hit counter
/// column. The simulator's dispatch loop probes a tag on every
/// FLC-hit read, so the column layout keeps the whole machine's tags in a
/// few cache lines per node and replaces the scalar version's `%` set
/// indexing with a mask when the line count is a power of two (it always
/// is for the paper's 4-KB / 32-B geometry). [`Flc`] stays as the
/// reference implementation and differential-test oracle.
#[derive(Debug, Clone)]
pub struct FlcArray {
    /// Node-major tags: `tags[node * lines + set]`.
    tags: Vec<Option<BlockAddr>>,
    hits: Vec<u64>,
    lines: usize,
    /// `lines - 1` when `lines` is a power of two, else 0 (modulo path).
    mask: u64,
}

impl FlcArray {
    /// Creates `nodes` FLCs of `bytes` capacity each (32-byte blocks).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of the block size.
    pub fn new(nodes: usize, bytes: u64) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(BLOCK_BYTES),
            "FLC size must be a multiple of 32 B"
        );
        let lines = (bytes / BLOCK_BYTES) as usize;
        FlcArray {
            tags: vec![None; nodes * lines],
            hits: vec![0; nodes],
            lines,
            mask: if lines.is_power_of_two() {
                lines as u64 - 1
            } else {
                0
            },
        }
    }

    #[inline]
    fn slot(&self, node: usize, block: BlockAddr) -> usize {
        let set = if self.mask != 0 {
            (block.index() & self.mask) as usize
        } else {
            (block.index() % self.lines as u64) as usize
        };
        node * self.lines + set
    }

    /// Looks up `block` in `node`'s FLC, recording a hit.
    #[inline]
    pub fn access(&mut self, node: usize, block: BlockAddr) -> bool {
        let hit = self.probe(node, block);
        if hit {
            self.hits[node] += 1;
        }
        hit
    }

    /// Whether `block` is present in `node`'s FLC (no statistics effects).
    #[inline]
    pub fn probe(&self, node: usize, block: BlockAddr) -> bool {
        self.tags[self.slot(node, block)] == Some(block)
    }

    /// Installs `block` in `node`'s FLC, returning any evicted block.
    pub fn fill(&mut self, node: usize, block: BlockAddr) -> Option<BlockAddr> {
        let slot = self.slot(node, block);
        let evicted = match self.tags[slot] {
            Some(old) if old != block => Some(old),
            _ => None,
        };
        self.tags[slot] = Some(block);
        evicted
    }

    /// Invalidates `block` in `node`'s FLC if present (SLC inclusion).
    /// Returns whether it was present.
    pub fn invalidate(&mut self, node: usize, block: BlockAddr) -> bool {
        let slot = self.slot(node, block);
        if self.tags[slot] == Some(block) {
            self.tags[slot] = None;
            true
        } else {
            false
        }
    }

    /// Hits recorded by [`FlcArray::access`] for `node`.
    pub fn hits(&self, node: usize) -> u64 {
        self.hits[node]
    }

    /// Iterates over `node`'s resident blocks (for the machine's inclusion
    /// audit: every FLC-valid block must be SLC-valid).
    pub fn resident(&self, node: usize) -> impl Iterator<Item = BlockAddr> + '_ {
        self.tags[node * self.lines..(node + 1) * self.lines]
            .iter()
            .filter_map(|t| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn paper_flc_has_128_lines() {
        assert_eq!(Flc::new(4 * 1024).lines(), 128);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut flc = Flc::new(4 * 1024);
        flc.fill(b(0));
        assert!(flc.probe(b(0)));
        // Block 128 maps to the same set and evicts block 0.
        assert_eq!(flc.fill(b(128)), Some(b(0)));
        assert!(!flc.probe(b(0)));
        assert!(flc.probe(b(128)));
    }

    #[test]
    fn refill_same_block_evicts_nothing() {
        let mut flc = Flc::new(4 * 1024);
        flc.fill(b(7));
        assert_eq!(flc.fill(b(7)), None);
    }

    #[test]
    fn invalidation_for_inclusion() {
        let mut flc = Flc::new(4 * 1024);
        flc.fill(b(42));
        assert!(flc.invalidate(b(42)));
        assert!(!flc.probe(b(42)));
        assert!(!flc.invalidate(b(42)));
        // Invalidating an aliasing block must not clobber a different tag.
        flc.fill(b(42));
        assert!(!flc.invalidate(b(42 + 128)));
        assert!(flc.probe(b(42)));
    }

    #[test]
    fn hit_miss_accounting() {
        let mut flc = Flc::new(4 * 1024);
        assert!(!flc.access(b(3)));
        flc.fill(b(3));
        assert!(flc.access(b(3)));
        assert_eq!((flc.hits(), flc.misses()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn bad_size_panics() {
        let _ = Flc::new(100);
    }

    mod differential {
        //! Pins [`FlcArray`]'s structure-of-arrays layout against the
        //! scalar [`Flc`] oracle: any interleaved op sequence over any node
        //! must produce identical results, statistics and resident sets —
        //! including non-power-of-two line counts, where the array takes
        //! the modulo (rather than mask) set-index path.

        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Access(u64),
            Probe(u64),
            Fill(u64),
            Invalidate(u64),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            // Block indices cluster within a few multiples of the line
            // count so conflicts and aliasing actually happen.
            let block = 0u64..1024;
            prop_oneof![
                block.clone().prop_map(Op::Access),
                block.clone().prop_map(Op::Probe),
                block.clone().prop_map(Op::Fill),
                block.prop_map(Op::Invalidate),
            ]
        }

        proptest! {
            #[test]
            fn array_matches_scalar_oracle(
                nodes in 1usize..8,
                // 4 KB (the paper's 128 lines, power-of-two mask path) or
                // odd sizes like 3/5/7 blocks (modulo path).
                bytes in prop_oneof![
                    Just(4 * 1024u64),
                    (1u64..8).prop_map(|n| n * BLOCK_BYTES),
                ],
                ops in proptest::collection::vec((0usize..8, arb_op()), 1..200),
            ) {
                let mut array = FlcArray::new(nodes, bytes);
                let mut oracle: Vec<Flc> = (0..nodes).map(|_| Flc::new(bytes)).collect();
                for (n, op) in ops {
                    let n = n % nodes;
                    match op {
                        Op::Access(i) => prop_assert_eq!(
                            array.access(n, b(i)),
                            oracle[n].access(b(i))
                        ),
                        Op::Probe(i) => prop_assert_eq!(
                            array.probe(n, b(i)),
                            oracle[n].probe(b(i))
                        ),
                        Op::Fill(i) => prop_assert_eq!(
                            array.fill(n, b(i)),
                            oracle[n].fill(b(i))
                        ),
                        Op::Invalidate(i) => prop_assert_eq!(
                            array.invalidate(n, b(i)),
                            oracle[n].invalidate(b(i))
                        ),
                    }
                }
                for (n, node_oracle) in oracle.iter().enumerate() {
                    prop_assert_eq!(array.hits(n), node_oracle.hits());
                    let mut a: Vec<_> = array.resident(n).collect();
                    let mut o: Vec<_> = node_oracle.resident().collect();
                    a.sort_unstable();
                    o.sort_unstable();
                    prop_assert_eq!(a, o);
                }
            }
        }
    }
}
