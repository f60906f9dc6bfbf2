//! Shared address-space layout for workload generators.

use crate::{Addr, BLOCK_BYTES, PAGE_BYTES};

/// A contiguous region of the shared address space (an "array").
///
/// # Example
///
/// ```
/// use dirext_trace::Layout;
///
/// let mut layout = Layout::new();
/// let matrix = layout.alloc("A", 100 * 8); // 100 doubles
/// let a_3 = matrix.elem(3, 8);
/// assert_eq!(a_3.byte() - matrix.base().byte(), 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: Addr,
    bytes: u64,
}

impl Region {
    /// First byte of the region.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of 32-byte blocks the region spans.
    pub fn blocks(&self) -> u64 {
        self.bytes.div_ceil(BLOCK_BYTES)
    }

    /// Address of element `i` given `elem_bytes`-sized elements.
    ///
    /// # Panics
    ///
    /// Panics if the element lies outside the region.
    pub fn elem(&self, i: u64, elem_bytes: u64) -> Addr {
        let off = i * elem_bytes;
        assert!(
            off + elem_bytes <= self.bytes,
            "element {i} ({elem_bytes} B) out of region of {} B",
            self.bytes
        );
        self.base.offset(off)
    }

    /// Address `off` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics if `off` is outside the region.
    pub fn at(&self, off: u64) -> Addr {
        assert!(
            off < self.bytes,
            "offset {off} out of region of {} B",
            self.bytes
        );
        self.base.offset(off)
    }
}

/// Bump allocator carving a shared address space into regions.
///
/// Every allocation is block-aligned; `alloc_page_aligned` additionally
/// aligns to a page so a structure's home-node distribution is predictable.
/// A region's name is used only to name it in the panic when an
/// allocation would end past the 4 GiB that an [`Addr`] reaches.
#[derive(Debug, Default)]
pub struct Layout {
    next: u64,
}

impl Layout {
    /// Creates an empty layout starting at address zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `bytes` bytes, aligned to a cache block.
    pub fn alloc(&mut self, name: &str, bytes: u64) -> Region {
        self.alloc_aligned(name, bytes, BLOCK_BYTES)
    }

    /// Allocates `bytes` bytes aligned to a 4-KB page boundary.
    pub fn alloc_page_aligned(&mut self, name: &str, bytes: u64) -> Region {
        self.alloc_aligned(name, bytes, PAGE_BYTES)
    }

    /// Allocates one cache block per lock/flag variable, `n` variables,
    /// each on its own block (the paper gives each lock its own memory
    /// block: "a single lock variable per memory block").
    pub fn alloc_locks(&mut self, name: &str, n: u64) -> Region {
        self.alloc(name, n * BLOCK_BYTES)
    }

    fn alloc_aligned(&mut self, name: &str, bytes: u64, align: u64) -> Region {
        let base = self.next.div_ceil(align) * align;
        let bytes = bytes.max(1);
        assert!(
            Addr::try_new(base + bytes - 1).is_some(),
            "region '{name}' ({bytes} B at {base:#x}) overflows the 4 GiB shared address space"
        );
        self.next = base + bytes;
        Region {
            base: Addr::new(base),
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_block_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.alloc("a", 100);
        let b = l.alloc("b", 10);
        assert_eq!(a.base().byte() % BLOCK_BYTES, 0);
        assert_eq!(b.base().byte() % BLOCK_BYTES, 0);
        assert!(b.base().byte() >= a.base().byte() + a.bytes());
        assert_eq!(a.blocks(), 4); // ceil(100/32)
    }

    #[test]
    fn page_aligned_allocation() {
        let mut l = Layout::new();
        l.alloc("pad", 7);
        let p = l.alloc_page_aligned("grid", 5000);
        assert_eq!(p.base().byte() % PAGE_BYTES, 0);
    }

    #[test]
    fn lock_blocks_do_not_share() {
        let mut l = Layout::new();
        let locks = l.alloc_locks("locks", 4);
        let b0 = locks.elem(0, BLOCK_BYTES).block();
        let b1 = locks.elem(1, BLOCK_BYTES).block();
        assert_ne!(b0, b1);
    }

    #[test]
    fn elem_addressing() {
        let mut l = Layout::new();
        let arr = l.alloc("arr", 10 * 8);
        assert_eq!(arr.elem(0, 8), arr.base());
        assert_eq!(arr.elem(9, 8).byte(), arr.base().byte() + 72);
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn elem_out_of_bounds_panics() {
        let mut l = Layout::new();
        let arr = l.alloc("arr", 10 * 8);
        let _ = arr.elem(10, 8);
    }

    #[test]
    #[should_panic(expected = "region 'past'")]
    fn allocation_past_four_gib_names_its_region() {
        let mut l = Layout::new();
        l.alloc("all", 1 << 32); // ends exactly at the top
        l.alloc("past", 1);
    }
}
