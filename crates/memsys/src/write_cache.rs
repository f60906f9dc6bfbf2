//! The write cache of the competitive-update extension.

use dirext_trace::{Addr, BlockAddr, WORDS_PER_BLOCK};

/// One write-cache block: which block it shadows and which words are dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcEntry {
    /// The shadowed cache block.
    pub block: BlockAddr,
    /// Per-word dirty bits (bit `i` = word `i` of the block modified).
    pub dirty_mask: u8,
}

/// A small direct-mapped write cache (4 blocks in the paper) that allocates
/// on writes only and combines consecutive writes to the same block.
///
/// "Because consecutive writes to the same word are combined in the write
/// cache before being issued, the write traffic is reduced. This combining
/// is only possible under a relaxed memory consistency model." Flushing
/// happens at a release or when a block is victimized; the per-word dirty
/// bits let the home receive only the modified words in a single request.
///
/// # Example
///
/// ```
/// use dirext_memsys::WriteCache;
/// use dirext_trace::Addr;
///
/// let mut wc = WriteCache::new(4);
/// assert!(wc.write(Addr::new(0)).is_none()); // allocates, no victim
/// assert!(wc.write(Addr::new(4)).is_none()); // combines into same entry
/// let flushed = wc.flush_all();
/// assert_eq!(flushed.len(), 1);
/// assert_eq!(flushed[0].dirty_mask, 0b11); // words 0 and 1
/// ```
#[derive(Debug, Clone)]
pub struct WriteCache {
    entries: Vec<Option<WcEntry>>,
}

impl WriteCache {
    /// Creates a write cache with `blocks` entries (4 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn new(blocks: usize) -> Self {
        assert!(blocks > 0, "write cache needs at least one block");
        WriteCache {
            entries: vec![None; blocks],
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.entries.len() as u64) as usize
    }

    /// Records a write to `addr`.
    ///
    /// Returns the victim entry if a different block had to be evicted to
    /// make room (the victim's update must then be issued to the home node).
    pub fn write(&mut self, addr: Addr) -> Option<WcEntry> {
        let block = addr.block();
        let word_bit = 1u8 << addr.word_in_block();
        debug_assert!(addr.word_in_block() < WORDS_PER_BLOCK);
        let set = self.set_of(block);
        match self.entries[set] {
            Some(ref mut e) if e.block == block => {
                e.dirty_mask |= word_bit;
                None
            }
            other => {
                self.entries[set] = Some(WcEntry {
                    block,
                    dirty_mask: word_bit,
                });
                other
            }
        }
    }

    /// The entry shadowing `block`, if any (read hits in the write cache are
    /// serviced from here when the SLC misses).
    pub fn probe(&self, block: BlockAddr) -> Option<&WcEntry> {
        match &self.entries[self.set_of(block)] {
            Some(e) if e.block == block => Some(e),
            _ => None,
        }
    }

    /// Removes and returns the entry for `block` (e.g. when the block's
    /// update is being issued eagerly).
    pub fn take(&mut self, block: BlockAddr) -> Option<WcEntry> {
        let set = self.set_of(block);
        match &self.entries[set] {
            Some(e) if e.block == block => self.entries[set].take(),
            _ => None,
        }
    }

    /// Drains every entry (performed at a release: "the propagation of
    /// updates to a block in the write cache can wait until the write-cache
    /// block is replaced or until the release of a lock").
    pub fn flush_all(&mut self) -> Vec<WcEntry> {
        self.entries.iter_mut().filter_map(Option::take).collect()
    }

    /// Removes and returns the next resident entry in set order, or `None`
    /// when the cache is drained — the allocation-free counterpart of
    /// [`WriteCache::flush_all`] for release-time flushing, which happens
    /// on every lock release under CW. The cache is 4 entries in the
    /// paper, so the scan is cheaper than building a `Vec`.
    pub fn take_next(&mut self) -> Option<WcEntry> {
        self.entries.iter_mut().find_map(Option::take)
    }

    /// Whether any entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirext_trace::BLOCK_BYTES;

    #[test]
    fn combines_writes_to_same_block() {
        let mut wc = WriteCache::new(4);
        assert!(wc.write(Addr::new(0)).is_none());
        assert!(wc.write(Addr::new(8)).is_none());
        assert!(wc.write(Addr::new(8)).is_none()); // same word again
        let e = wc.probe(BlockAddr::from_index(0)).unwrap();
        assert_eq!(e.dirty_mask, 0b0000_0101);
        // Three writes leave one entry to flush, carrying both words.
        let flushed = wc.flush_all();
        assert_eq!(
            flushed,
            [WcEntry {
                block: BlockAddr::from_index(0),
                dirty_mask: 0b0000_0101,
            }]
        );
    }

    #[test]
    fn conflict_evicts_victim() {
        let mut wc = WriteCache::new(4);
        wc.write(Addr::new(0));
        // Block 4 maps to the same entry as block 0 in a 4-entry cache.
        let victim = wc.write(Addr::new(4 * BLOCK_BYTES)).unwrap();
        assert_eq!(victim.block, BlockAddr::from_index(0));
        assert!(wc.probe(BlockAddr::from_index(4)).is_some());
    }

    #[test]
    fn flush_drains_everything() {
        let mut wc = WriteCache::new(4);
        for i in 0..3 {
            wc.write(Addr::new(i * BLOCK_BYTES));
        }
        let flushed = wc.flush_all();
        assert_eq!(flushed.len(), 3);
        assert!(wc.is_empty());
        assert!(wc.flush_all().is_empty());
    }

    #[test]
    fn take_removes_only_matching_block() {
        let mut wc = WriteCache::new(4);
        wc.write(Addr::new(32));
        assert!(wc.take(BlockAddr::from_index(5)).is_none());
        let e = wc.take(BlockAddr::from_index(1)).unwrap();
        assert_eq!(e.block, BlockAddr::from_index(1));
        assert!(wc.is_empty());
    }

    #[test]
    fn take_next_drains_in_flush_order() {
        let mut wc = WriteCache::new(4);
        for i in 0..3 {
            wc.write(Addr::new(i * BLOCK_BYTES));
        }
        let mut by_flush = WriteCache::new(4);
        for i in 0..3 {
            by_flush.write(Addr::new(i * BLOCK_BYTES));
        }
        let mut drained = Vec::new();
        while let Some(e) = wc.take_next() {
            drained.push(e);
        }
        assert_eq!(drained, by_flush.flush_all());
        assert!(wc.is_empty());
        assert!(wc.take_next().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = WriteCache::new(0);
    }
}
