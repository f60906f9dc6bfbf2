//! Micro-workloads: small targeted sharing patterns.
//!
//! These drive the integration tests and the examples; each isolates one
//! behaviour (sequential streaming, migratory ping-pong, producer-consumer,
//! false sharing, lock contention).

use dirext_trace::{Addr, BarrierId, Layout, Program, ProgramBuilder, Workload, BLOCK_BYTES};

/// One processor streams sequentially over `blocks` cache blocks; the rest
/// idle. Pure cold misses with maximal spatial locality — adaptive
/// sequential prefetching's best case.
pub fn stream(procs: usize, blocks: u64, writes: bool) -> Workload {
    let mut layout = Layout::new();
    let arr = layout.alloc_page_aligned("stream", blocks * BLOCK_BYTES);
    let mut programs = vec![Program::new(); procs];
    let mut b = ProgramBuilder::new().with_pace(2);
    for i in 0..blocks {
        let a = arr.at(i * BLOCK_BYTES);
        b.read(a);
        if writes {
            b.write(a);
        }
    }
    programs[0] = b.build();
    Workload::new("stream", programs)
}

/// `active` processors take turns incrementing a shared counter inside a
/// critical section — the canonical migratory pattern ("x := x + 1" behind
/// a lock).
pub fn migratory_pingpong(procs: usize, active: usize, rounds: usize) -> Workload {
    let mut layout = Layout::new();
    let counter = layout.alloc("counter", BLOCK_BYTES);
    let lock = layout.alloc_locks("lock", 1);
    let programs = (0..procs)
        .map(|i| {
            let mut b = ProgramBuilder::new();
            if i < active {
                for _ in 0..rounds {
                    b.critical(lock.base(), |b| {
                        b.rmw(counter.base());
                    });
                    b.compute(20);
                }
            }
            b.build()
        })
        .collect();
    Workload::new("migratory-pingpong", programs)
}

/// Processor 0 produces a region of `blocks` blocks each round; everyone
/// consumes it after a barrier. Pure coherence misses under
/// write-invalidate; competitive update's best case.
pub fn producer_consumer(procs: usize, blocks: u64, rounds: u32) -> Workload {
    let mut layout = Layout::new();
    let data = layout.alloc_page_aligned("data", blocks * BLOCK_BYTES);
    let programs = (0..procs)
        .map(|i| {
            let mut b = ProgramBuilder::new();
            for r in 0..rounds {
                if i == 0 {
                    for blk in 0..blocks {
                        b.compute(2);
                        b.write(data.at(blk * BLOCK_BYTES));
                    }
                }
                b.barrier(BarrierId(2 * r));
                for blk in 0..blocks {
                    b.compute(2);
                    b.read(data.at(blk * BLOCK_BYTES));
                }
                b.barrier(BarrierId(2 * r + 1));
            }
            b.build()
        })
        .collect();
    Workload::new("producer-consumer", programs)
}

/// Every processor updates its own word of the *same* cache block each
/// round: false sharing. Larger block sizes and naive prefetching make
/// this worse; the per-word dirty bits of the write cache make it cheap.
pub fn false_sharing(procs: usize, rounds: u32) -> Workload {
    assert!(procs <= 8, "one word per processor in a 32-byte block");
    let mut layout = Layout::new();
    let block = layout.alloc("contended", BLOCK_BYTES);
    let programs = (0..procs)
        .map(|i| {
            let mut b = ProgramBuilder::new();
            for _ in 0..rounds {
                b.compute(8);
                b.rmw(Addr::new(block.base().byte() + i as u64 * 4));
            }
            b.build()
        })
        .collect();
    Workload::new("false-sharing", programs)
}

/// All processors hammer one lock with a tiny critical section: exposes
/// the queue-based lock hand-off and acquire-stall accounting.
pub fn lock_contention(procs: usize, rounds: usize) -> Workload {
    migratory_pingpong(procs, procs, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_micro_workloads_validate() {
        for w in [
            stream(4, 32, true),
            migratory_pingpong(4, 2, 5),
            producer_consumer(4, 2, 3),
            false_sharing(4, 5),
            lock_contention(3, 4),
        ] {
            w.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }

    #[test]
    fn false_sharing_uses_distinct_words_of_one_block() {
        let w = false_sharing(8, 1);
        let addrs: Vec<Addr> = (0..8)
            .filter_map(|p| {
                w.program(p).events().iter().find_map(|e| match e {
                    dirext_trace::MemEvent::Read(a) => Some(*a),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(addrs.len(), 8);
        let blocks: std::collections::HashSet<_> = addrs.iter().map(|a| a.block()).collect();
        assert_eq!(blocks.len(), 1, "all words in one block");
        let words: std::collections::HashSet<_> = addrs.iter().map(|a| a.word_in_block()).collect();
        assert_eq!(words.len(), 8, "each proc its own word");
    }

    #[test]
    #[should_panic(expected = "one word per processor")]
    fn false_sharing_caps_procs() {
        let _ = false_sharing(9, 1);
    }
}
