//! Randomized well-formed workloads — the protocol fuzzer's input.
//!
//! [`random_workload`] generates arbitrary but structurally valid programs
//! (paired lock operations, no barrier inside a critical section, shared
//! barrier schedule) from a seed. The CLI's `stress` command feeds these
//! through every protocol with the machine's coherence audit enabled; the
//! property tests in `tests/coherence_props.rs` do the same through
//! proptest, with shrinking.

use dirext_kernel::Pcg32;
use dirext_trace::{Addr, BarrierId, MemEvent, Program, Workload, BLOCK_BYTES};

/// The most processors a random workload has: the full-map directory's
/// limit.
pub const MAX_RANDOM_PROCS: usize = 64;

/// Approximate operation groups per processor.
const GROUPS_PER_PROC: usize = 60;

/// Size of the shared block pool the programs hammer.
const BLOCKS: u32 = 48;

/// Number of distinct locks.
const LOCKS: u32 = 4;

/// Number of barrier episodes every processor passes.
const BARRIERS: u32 = 3;

/// Generates a random well-formed workload for `procs` processors from
/// `seed`.
///
/// The same `(seed, procs)` always produces the same workload, so a
/// failing seed reported by the fuzzer is a complete reproduction recipe.
///
/// # Panics
///
/// Panics if `procs` is zero or exceeds [`MAX_RANDOM_PROCS`].
pub fn random_workload(seed: u64, procs: usize) -> Workload {
    assert!(procs > 0 && procs <= MAX_RANDOM_PROCS);
    let lock_base = 1u64 << 20;
    let programs = (0..procs)
        .map(|p| {
            let mut rng = Pcg32::with_stream(seed, p as u64);
            let mut events = Vec::new();
            let mut emitted_barriers = 0u32;
            let per_chunk = GROUPS_PER_PROC / (BARRIERS as usize + 1) + 1;
            for g in 0..GROUPS_PER_PROC {
                let addr = |rng: &mut Pcg32| {
                    let b = u64::from(rng.below(BLOCKS));
                    let word = u64::from(rng.below(8));
                    Addr::new(b * BLOCK_BYTES + word * 4)
                };
                match rng.below(10) {
                    0..=3 => events.push(MemEvent::Read(addr(&mut rng))),
                    4..=6 => events.push(MemEvent::Write(addr(&mut rng))),
                    7..=8 => events.push(MemEvent::Compute(rng.range(1, 24))),
                    _ => {
                        // A critical section around a read-modify-write.
                        let lock = Addr::new(lock_base + u64::from(rng.below(LOCKS)) * BLOCK_BYTES);
                        let a = addr(&mut rng);
                        events.push(MemEvent::Acquire(lock));
                        events.push(MemEvent::Read(a));
                        events.push(MemEvent::Write(a));
                        events.push(MemEvent::Release(lock));
                    }
                }
                if (g + 1) % per_chunk == 0 && emitted_barriers < BARRIERS {
                    events.push(MemEvent::Barrier(BarrierId(emitted_barriers)));
                    emitted_barriers += 1;
                }
            }
            for b in emitted_barriers..BARRIERS {
                events.push(MemEvent::Barrier(BarrierId(b)));
            }
            Program::from_events(events)
        })
        .collect();
    Workload::new(format!("random-{seed:#x}"), programs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_workloads_are_valid() {
        for seed in 0..50 {
            let w = random_workload(seed, 8);
            w.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn same_seed_same_workload() {
        let a = random_workload(7, 8);
        let b = random_workload(7, 8);
        for p in 0..a.procs() {
            assert_eq!(a.program(p), b.program(p));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_workload(1, 8);
        let b = random_workload(2, 8);
        assert_ne!(a.program(0), b.program(0));
    }

    #[test]
    fn barrier_schedule_is_shared() {
        let w = random_workload(3, 8);
        let reference = w.program(0).barrier_sequence();
        assert_eq!(reference.len(), BARRIERS as usize);
        for p in 1..w.procs() {
            assert_eq!(w.program(p).barrier_sequence(), reference);
        }
    }
}
