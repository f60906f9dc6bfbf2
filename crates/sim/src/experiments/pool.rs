//! Work-stealing executor for sweep fan-out.
//!
//! Every experiment driver is a nested loop over independent simulator
//! configurations (application × protocol × consistency × network). This
//! module flattens such a loop into an indexed task list and runs it on a
//! pool of scoped worker threads: a shared atomic cursor hands out the next
//! unclaimed configuration index, so a worker that finishes a short run
//! immediately steals the next pending one instead of idling behind a
//! static partition (MP3D at 64 procs takes ~20× longer than LU at 4).
//!
//! Determinism: each configuration runs an isolated [`crate::Machine`]
//! whose behaviour depends only on its inputs, and results are written to a
//! per-index slot and collected in index order. The output is therefore
//! byte-identical to the serial loop for any worker count — `jobs` affects
//! wall-clock only. `tests/parallel_determinism.rs` locks this in.
//!
//! Built on `std::thread::scope` only — no external runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` across `jobs` worker threads, checking `should_stop`
/// before each claim, and returns per-index results in order.
///
/// `None` marks an index that was never claimed because `should_stop`
/// turned true first — the crash-safe sweep orchestrator uses this for
/// fail-fast drains and cooperative SIGINT cancellation. Claimed tasks
/// always run to completion (the stop flag is only consulted *between*
/// cells), so a drain never tears a simulator run in half.
///
/// With `jobs <= 1` (or fewer than two tasks) the loop runs inline on the
/// caller's thread with no pool setup at all.
///
/// # Panics
///
/// Propagates a panic from `f` (callers that need isolation wrap `f` in
/// `catch_unwind` themselves — see [`super::runner::run_cells`]).
pub fn run_collect<T, F, S>(jobs: usize, n: usize, should_stop: &S, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    S: Fn() -> bool + Sync + ?Sized,
{
    if jobs <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if should_stop() {
                break;
            }
            out.push(Some(f(i)));
        }
        out.resize_with(n, || None);
        return out;
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                if should_stop() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| i * i;
        let serial = run_collect(1, 100, &|| false, f);
        let parallel = run_collect(8, 100, &|| false, f);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], Some(49));
    }

    #[test]
    fn more_workers_than_tasks() {
        let r = run_collect(16, 3, &|| false, |i| i + 1);
        assert_eq!(r, vec![Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn empty_task_list() {
        let r = run_collect(4, 0, &|| false, |_| -> usize { unreachable!() });
        assert!(r.is_empty());
    }

    #[test]
    fn run_collect_without_stop_claims_everything() {
        for jobs in [1, 4] {
            let r = run_collect(jobs, 10, &|| false, |i| i * 2);
            assert_eq!(r.len(), 10);
            assert!(r.iter().all(Option::is_some));
            assert_eq!(r[4], Some(8));
        }
    }

    #[test]
    fn run_collect_stop_leaves_unclaimed_slots_none() {
        use std::sync::atomic::AtomicBool;
        for jobs in [1, 4] {
            let stop = AtomicBool::new(false);
            let r = run_collect(jobs, 64, &|| stop.load(Ordering::Relaxed), |i| {
                if i == 3 {
                    stop.store(true, Ordering::Relaxed);
                }
                i
            });
            assert_eq!(r.len(), 64);
            assert_eq!(r[3], Some(3), "claimed cells run to completion");
            assert!(
                r.iter().any(Option::is_none),
                "stop flag must leave later cells unclaimed"
            );
        }
    }

    #[test]
    fn run_collect_stop_set_up_front_runs_nothing() {
        let r = run_collect(4, 8, &|| true, |i| i);
        assert_eq!(r, vec![None; 8]);
    }
}
