//! Micro-workloads: small targeted sharing patterns.
//!
//! These drive the integration tests and the examples; each isolates one
//! behaviour (sequential streaming, migratory ping-pong, producer-consumer,
//! lock contention).

use dirext_trace::{BarrierId, Layout, Program, ProgramBuilder, Workload, BLOCK_BYTES};

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
            lock_contention(3, 4),
        ] {
            w.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }
}
