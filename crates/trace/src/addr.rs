//! Address geometry: words, blocks, pages, home nodes.

use std::fmt;

/// Cache block (line) size in bytes — 32 in the paper.
pub const BLOCK_BYTES: u64 = 32;
/// Word size in bytes (32-bit words; the write cache keeps per-word dirty bits).
pub const WORD_BYTES: u64 = 4;
/// Words per cache block.
pub const WORDS_PER_BLOCK: u64 = BLOCK_BYTES / WORD_BYTES;
/// Page size in bytes — 4 KB in the paper.
pub const PAGE_BYTES: u64 = 4096;

/// A byte address in the shared address space.
///
/// Stored as a `u32` byte offset, so the shared space spans 4 GiB, far
/// past any layout the generators build. That keeps a [`crate::MemEvent`]
/// at 8 bytes, and programs are most of what a sweep holds in memory.
///
/// # Example
///
/// ```
/// use dirext_trace::{Addr, BLOCK_BYTES};
///
/// let a = Addr::new(100);
/// assert_eq!(a.block().index(), 100 / BLOCK_BYTES);
/// assert_eq!(a.word_in_block(), (100 % BLOCK_BYTES) / 4);
/// assert_eq!(Addr::try_new(1 << 32), None); // past the 4 GiB space
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

// Every program event carries one address.
const _: () = assert!(size_of::<Addr>() == 4);

impl Addr {
    /// Creates an address from a raw byte offset.
    ///
    /// # Panics
    ///
    /// Panics if `byte` lies past the 4 GiB shared address space. Callers
    /// holding outside input use [`Addr::try_new`] instead.
    #[inline]
    pub const fn new(byte: u64) -> Self {
        match Addr::try_new(byte) {
            Some(a) => a,
            None => panic!("address lies past the 4 GiB shared address space"),
        }
    }

    /// Creates an address from a raw byte offset, or `None` if `byte` lies
    /// past the 4 GiB shared address space.
    #[inline]
    pub const fn try_new(byte: u64) -> Option<Self> {
        if byte <= u32::MAX as u64 {
            Some(Addr(byte as u32))
        } else {
            None
        }
    }

    /// The raw byte offset.
    #[inline]
    pub const fn byte(self) -> u64 {
        self.0 as u64
    }

    /// The cache block containing this address.
    #[inline]
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_BYTES as u32)
    }

    /// The page containing this address.
    #[inline]
    pub const fn page(self) -> PageId {
        PageId(self.byte() / PAGE_BYTES)
    }

    /// Index of the word this address falls in within its block (0..8).
    #[inline]
    pub const fn word_in_block(self) -> u64 {
        (self.byte() % BLOCK_BYTES) / WORD_BYTES
    }

    /// Returns this address displaced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the result lies past the 4 GiB shared address space.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr::new(self.byte() + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-block address (byte address divided by the 32-byte block size).
///
/// Stored as a `u32` block index, 4 bytes on the hottest simulator paths:
/// protocol messages and the directory's and caches' block-indexed maps.
/// Addresses reach 4 GiB, so the blocks a program names have indices below
/// 2^27 (sequential prefetching may run a few blocks past them). The public
/// API stays `u64` for [`Addr`] arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u32);

impl BlockAddr {
    /// Creates a block address from a block index.
    ///
    /// Indices above `u32::MAX` are not representable; debug builds
    /// assert, release builds truncate.
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        debug_assert!(index <= u32::MAX as u64, "block index exceeds u32 range");
        BlockAddr(index as u32)
    }

    /// The block index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0 as u64
    }

    /// The block `n` blocks after this one (used by sequential prefetching).
    #[inline]
    pub const fn plus(self, n: u64) -> BlockAddr {
        BlockAddr::from_index(self.0 as u64 + n)
    }

    /// The immediately preceding block, or `None` at block zero.
    #[inline]
    pub fn pred(self) -> Option<BlockAddr> {
        self.0.checked_sub(1).map(BlockAddr)
    }

    /// The page containing this block.
    #[inline]
    pub const fn page(self) -> PageId {
        PageId(self.0 as u64 * BLOCK_BYTES / PAGE_BYTES)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

/// A 4-KB virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from a page number.
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        PageId(index)
    }

    /// The page number.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The home node of this page under the paper's round-robin placement:
    /// pages are allocated across nodes by the least significant bits of the
    /// virtual page number.
    #[inline]
    pub fn home(self, nodes: usize) -> NodeId {
        NodeId((self.0 % nodes as u64) as u16)
    }
}

/// The largest machine the simulator builds, in nodes: the limit of the
/// trace reader, the command line, the machine configuration and the
/// sharer sets.
pub const MAX_NODES: usize = 1024;

/// A processor-node identifier (0..N, N = 16 in the paper; the scalable
/// directory organizations grow machines to 1024 nodes, so ids are 16-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node index as a usize (for indexing per-node arrays).
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u8> for NodeId {
    fn from(v: u8) -> Self {
        NodeId(v as u16)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_geometry() {
        let a = Addr::new(3 * BLOCK_BYTES + 17);
        assert_eq!(a.block(), BlockAddr::from_index(3));
        assert_eq!(a.word_in_block(), 17 / WORD_BYTES);
    }

    #[test]
    #[should_panic(expected = "4 GiB")]
    fn offset_past_four_gib_panics() {
        let _ = Addr::new(u64::from(u32::MAX)).offset(1);
    }

    #[test]
    fn page_geometry_and_home() {
        let a = Addr::new(2 * PAGE_BYTES + 5);
        assert_eq!(a.page(), PageId::from_index(2));
        assert_eq!(a.page().home(16), NodeId(2));
        assert_eq!(PageId::from_index(17).home(16), NodeId(1));
        assert_eq!(PageId::from_index(16).home(16), NodeId(0));
    }

    #[test]
    fn blocks_per_page() {
        // 128 blocks per 4-KB page; block 127 is page 0, block 128 is page 1.
        assert_eq!(BlockAddr::from_index(127).page(), PageId::from_index(0));
        assert_eq!(BlockAddr::from_index(128).page(), PageId::from_index(1));
    }

    #[test]
    fn block_navigation() {
        let b = BlockAddr::from_index(10);
        assert_eq!(b.plus(6), BlockAddr::from_index(16));
        assert_eq!(b.pred(), Some(BlockAddr::from_index(9)));
        assert_eq!(BlockAddr::from_index(0).pred(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(BlockAddr::from_index(16).to_string(), "blk0x10");
    }
}
