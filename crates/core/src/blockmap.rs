//! Dense block-indexed storage for per-block simulator state.
//!
//! Every memory reference the simulator processes touches several
//! per-block tables: the home directory entry, the SLC line, the memory
//! version image, the global write counter, the miss classifier's history.
//! Keyed by `HashMap<BlockAddr, _>` each of those lookups pays a SipHash
//! over the key plus a probe of a randomly-ordered table — the dominant
//! cost of the end-to-end hot path once the event queue itself is cheap,
//! and a source of nondeterministic iteration order to boot.
//!
//! [`BlockMap`] replaces them with a paged dense arena indexed directly by
//! the [`BlockAddr`] block index, mirroring how directory state is laid
//! out in real CC-NUMA hardware (a flat RAM next to each memory bank,
//! addressed by block frame). A lookup is two array indexings; iteration
//! is in ascending block order, so every audit and diagnostic derived from
//! it is deterministic across processes.
//!
//! Pages hold [`BLOCKS_PER_PAGE`] = 128 slots — exactly one simulated 4-KB
//! page of 32-byte blocks. Under the round-robin page placement the
//! simulator uses, the blocks homed at one node fill *whole* pages, so a
//! per-home map allocates pages only for its own fraction of the address
//! space and the arena wastes no memory on other homes' blocks. Each page
//! carries an occupancy bitmap (two `u64` words) that drives iteration and
//! keeps "absent entry" distinct from "default entry": an absent directory
//! entry still means CLEAN, exactly as it did for the hash map.

use std::fmt;

use dirext_trace::{BlockAddr, BLOCK_BYTES, PAGE_BYTES};

/// Slots per page: one simulated 4-KB page of 32-byte blocks.
pub const BLOCKS_PER_PAGE: usize = (PAGE_BYTES / BLOCK_BYTES) as usize;
const OCC_WORDS: usize = BLOCKS_PER_PAGE / 64;

#[derive(Clone)]
struct Page<T> {
    /// Occupancy bitmap; bit `i` set iff `slots[i]` is `Some`.
    occ: [u64; OCC_WORDS],
    slots: [Option<T>; BLOCKS_PER_PAGE],
}

impl<T> Page<T> {
    fn empty() -> Box<Self> {
        Box::new(Page {
            occ: [0; OCC_WORDS],
            slots: std::array::from_fn(|_| None),
        })
    }
}

/// A dense map from [`BlockAddr`] to `T`: contiguous pages of slots with an
/// occupancy bitmap, allocated lazily as the workload's address range is
/// touched.
///
/// Compared to `HashMap<BlockAddr, T>`:
///
/// * `get`/`get_mut`/insert are straight array indexing — no hashing;
/// * iteration ([`BlockMap::iter`]) is in ascending block order, and
///   therefore identical across runs and processes;
/// * memory is proportional to the number of *touched pages*, not entries,
///   which matches the simulator's access patterns (workload layouts are
///   contiguous regions; homes own whole pages).
///
/// # Example
///
/// ```
/// use dirext_core::blockmap::BlockMap;
/// use dirext_trace::BlockAddr;
///
/// let mut m: BlockMap<u64> = BlockMap::new();
/// let b = BlockAddr::from_index(1000);
/// assert!(m.insert(b, 7).is_none());
/// assert_eq!(m.get(b), Some(&7));
/// *m.get_or_insert_with(b, || 0) += 1;
/// assert_eq!(m.remove(b), Some(8));
/// assert!(m.is_empty());
/// ```
#[derive(Clone)]
pub struct BlockMap<T> {
    pages: Vec<Option<Box<Page<T>>>>,
    len: usize,
}

impl<T> Default for BlockMap<T> {
    fn default() -> Self {
        BlockMap::new()
    }
}

impl<T> BlockMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        BlockMap {
            pages: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn split(block: BlockAddr) -> (usize, usize) {
        let idx = block.index() as usize;
        (idx / BLOCKS_PER_PAGE, idx % BLOCKS_PER_PAGE)
    }

    /// The value for `block`, if present.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<&T> {
        let (p, s) = Self::split(block);
        self.pages.get(p)?.as_deref()?.slots[s].as_ref()
    }

    /// Mutable access to the value for `block`, if present.
    #[inline]
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut T> {
        let (p, s) = Self::split(block);
        self.pages.get_mut(p)?.as_deref_mut()?.slots[s].as_mut()
    }

    /// Whether `block` has a value.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.get(block).is_some()
    }

    /// The value for `block`, inserting `make()` first if absent (the
    /// `entry().or_insert_with()` of the hash map this replaces).
    #[inline]
    pub fn get_or_insert_with(&mut self, block: BlockAddr, make: impl FnOnce() -> T) -> &mut T {
        let (p, s) = Self::split(block);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(Page::empty);
        if page.slots[s].is_none() {
            page.slots[s] = Some(make());
            page.occ[s / 64] |= 1 << (s % 64);
            self.len += 1;
        }
        page.slots[s].as_mut().expect("slot just ensured")
    }

    /// Inserts a value, returning the previous one if any.
    pub fn insert(&mut self, block: BlockAddr, value: T) -> Option<T> {
        let (p, s) = Self::split(block);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(Page::empty);
        let old = page.slots[s].replace(value);
        if old.is_none() {
            page.occ[s / 64] |= 1 << (s % 64);
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value for `block`.
    pub fn remove(&mut self, block: BlockAddr) -> Option<T> {
        let (p, s) = Self::split(block);
        let page = self.pages.get_mut(p)?.as_deref_mut()?;
        let old = page.slots[s].take();
        if old.is_some() {
            page.occ[s / 64] &= !(1 << (s % 64));
            self.len -= 1;
        }
        old
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(block, value)` pairs in ascending block order — the
    /// deterministic-iteration guarantee audits and diagnostics rely on.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &T)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p, page.as_deref()?)))
            .flat_map(|(p, page)| {
                (0..OCC_WORDS).flat_map(move |w| {
                    BitIter(page.occ[w]).map(move |b| {
                        let s = w * 64 + b as usize;
                        let block = BlockAddr::from_index((p * BLOCKS_PER_PAGE + s) as u64);
                        (block, page.slots[s].as_ref().expect("occupancy bit set"))
                    })
                })
            })
    }

    /// Iterates the occupied block addresses in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.iter().map(|(b, _)| b)
    }

    /// Iterates the values in ascending block order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<T: fmt::Debug> fmt::Debug for BlockMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keys print in their `blk0x..` Display form: the map's Debug output
        // feeds invariant diagnostics, where `BlockAddr(300)` would force
        // readers to convert to the hex block numbers used everywhere else.
        struct Key(BlockAddr);
        impl fmt::Debug for Key {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        f.debug_map()
            .entries(self.iter().map(|(k, v)| (Key(k), v)))
            .finish()
    }
}

/// Iterator over the set bit positions of a word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: BlockMap<String> = BlockMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(b(5), "five".into()), None);
        assert_eq!(m.insert(b(5), "FIVE".into()), Some("five".into()));
        assert_eq!(m.get(b(5)).map(String::as_str), Some("FIVE"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(b(5)), Some("FIVE".into()));
        assert_eq!(m.remove(b(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_insert_with_behaves_like_entry() {
        let mut m: BlockMap<u64> = BlockMap::new();
        *m.get_or_insert_with(b(130), || 0) += 1;
        *m.get_or_insert_with(b(130), || 100) += 1;
        assert_eq!(m.get(b(130)), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn absent_blocks_and_pages_read_as_none() {
        let m: BlockMap<u8> = BlockMap::new();
        assert_eq!(m.get(b(0)), None);
        assert_eq!(m.get(b(1 << 20)), None);
        let mut m = m;
        m.insert(b(3), 1);
        assert_eq!(m.get(b(4)), None, "same page, different slot");
        assert_eq!(m.get(b(3 + BLOCKS_PER_PAGE as u64)), None, "next page");
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut m: BlockMap<u64> = BlockMap::new();
        // Deliberately inserted out of order, across pages.
        for i in [900u64, 3, 127, 128, 64, 5000, 0] {
            m.insert(b(i), i * 2);
        }
        let got: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k.index(), *v)).collect();
        assert_eq!(
            got,
            vec![
                (0, 0),
                (3, 6),
                (64, 128),
                (127, 254),
                (128, 256),
                (900, 1800),
                (5000, 10000)
            ]
        );
        assert_eq!(m.keys().count(), 7);
        assert_eq!(m.values().sum::<u64>(), 12444);
    }

    #[test]
    fn remove_clears_occupancy_for_iteration() {
        let mut m: BlockMap<u8> = BlockMap::new();
        m.insert(b(10), 1);
        m.insert(b(11), 2);
        m.remove(b(10));
        assert_eq!(m.iter().map(|(k, _)| k.index()).collect::<Vec<_>>(), [11]);
    }

    #[test]
    fn debug_renders_as_a_map() {
        let mut m: BlockMap<u8> = BlockMap::new();
        m.insert(b(1), 9);
        assert_eq!(format!("{m:?}"), "{blk0x1: 9}");
    }
}
