//! The event queue at the heart of the simulator.
//!
//! Two implementations share one ordering contract:
//!
//! * [`EventQueue`] — the production queue: a two-tier design pairing a
//!   near-future circular **bucket wheel** (the common case: almost every
//!   event a simulated machine schedules lands within a few hundred cycles
//!   of "now") with a [`BinaryHeap`] fallback for far-future events. Pushes
//!   and pops into the wheel are O(1) amortized and allocation-free in
//!   steady state — each bucket is a [`VecDeque`] that keeps its capacity
//!   across reuse.
//! * [`HeapEventQueue`] — the original pure-heap implementation, kept as
//!   the recorded perf baseline (`BENCH_kernel.json`) and as the oracle for
//!   differential property tests.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Time;

/// Number of cycles (and buckets) the near-future wheel covers. Events
/// scheduled less than this many cycles ahead of the last popped event go
/// to the wheel; later ones spill to the heap. Must be a power of two.
const WHEEL_SPAN: u64 = 256;
const WHEEL_MASK: u64 = WHEEL_SPAN - 1;
/// Words in the wheel occupancy bitmap (one bit per bucket).
const OCC_WORDS: usize = (WHEEL_SPAN / 64) as usize;

/// A timestamped event priority queue with deterministic ordering.
///
/// Events pop in nondecreasing time order; events pushed for the *same* cycle
/// pop in the order they were pushed (FIFO). This tie-break is what makes
/// whole-machine simulations bit-reproducible: two runs with the same seed
/// schedule the identical event sequence.
///
/// Internally this is a two-tier structure: a circular bucket wheel covering
/// the next `WHEEL_SPAN` (256) cycles after the most recently popped event, and a
/// binary heap for everything further out (or scheduled in the past, which
/// the simulator never does but the contract permits). The FIFO tie-break is
/// carried by a global push sequence number that orders entries *across* the
/// two tiers, so wheel/heap placement is invisible to callers.
///
/// # Example
///
/// ```
/// use dirext_kernel::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_cycles(3), 'b');
/// q.push(Time::from_cycles(1), 'a');
/// assert_eq!(q.pop(), Some((Time::from_cycles(1), 'a')));
/// assert_eq!(q.pop(), Some((Time::from_cycles(3), 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future tier: bucket `c & WHEEL_MASK` holds the events of cycle
    /// `c` for `c` in `[cursor, cursor + WHEEL_SPAN)`. Within the window a
    /// bucket holds at most one distinct cycle, and its entries are in push
    /// (= seq) order, so each bucket is a plain FIFO.
    wheel: Vec<VecDeque<(u64, E)>>,
    /// One occupancy bit per wheel bucket, so finding the next non-empty
    /// bucket is a handful of word scans (`trailing_zeros`) instead of up
    /// to `WHEEL_SPAN` `VecDeque::is_empty` probes when the wheel is
    /// sparse — the common case for a small machine between bursts.
    occ: [u64; OCC_WORDS],
    /// Events in the wheel.
    wheel_len: usize,
    /// Cycle of the most recently popped event: the left edge of the wheel
    /// window. Never decreases (pops yield nondecreasing times).
    cursor: u64,
    /// Far-future (and past-time) tier.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    /// Memoized [`EventQueue::peek_time`] result: `None` means stale
    /// (recompute on next peek), `Some(t)` is the known current minimum
    /// (`Some(None)` = known empty). A push can only *lower* the minimum,
    /// so it refreshes the memo with one compare; a pop invalidates it.
    /// This makes the simulator's inline-retirement checks — one peek per
    /// retired instruction — O(1) instead of a bitmap scan.
    peeked: Option<Option<Time>>,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL_SPAN).map(|_| VecDeque::new()).collect(),
            occ: [0; OCC_WORDS],
            wheel_len: 0,
            cursor: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            peeked: Some(None),
        }
    }

    /// Creates an empty queue with `capacity` pre-reserved in the far-future
    /// tier (wheel buckets grow on demand and keep their capacity).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.heap.reserve(capacity);
        q
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        if let Some(p) = self.peeked {
            if p.is_none_or(|min| at < min) {
                self.peeked = Some(Some(at));
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let c = at.cycles();
        if c >= self.cursor && c - self.cursor < WHEEL_SPAN {
            let idx = (c & WHEEL_MASK) as usize;
            let bucket = &mut self.wheel[idx];
            debug_assert!(
                bucket.back().is_none_or(|&(s, _)| s < seq),
                "bucket seq order violated"
            );
            bucket.push_back((seq, event));
            self.occ[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
        } else {
            self.heap.push(Reverse(Entry {
                time: at,
                seq,
                event,
            }));
        }
    }

    /// Finds the earliest wheel entry: `(cycle, bucket index)`. The search
    /// walks the occupancy bitmap circularly from the cursor's bucket —
    /// every live wheel entry sits at circular distance `[0, WHEEL_SPAN)`
    /// from the cursor, so the first set bit in that order *is* the
    /// minimum. Bounded by `limit` cycles past the cursor (the caller
    /// passes the heap top's distance so a closer heap event wins without
    /// a full scan).
    #[inline]
    fn wheel_min(&self, limit: u64) -> Option<(u64, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor & WHEEL_MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        // Circular first-set-bit search: the tail of the cursor's word,
        // then the remaining full words, then the cursor word's head.
        let head = self.occ[w0] >> b0;
        let dist = if head != 0 {
            u64::from(head.trailing_zeros())
        } else {
            let mut dist = (64 - b0) as u64;
            let mut found = None;
            for k in 1..OCC_WORDS {
                let w = self.occ[(w0 + k) % OCC_WORDS];
                if w != 0 {
                    found = Some(dist + u64::from(w.trailing_zeros()));
                    break;
                }
                dist += 64;
            }
            match found {
                Some(d) => d,
                None => {
                    let tail = self.occ[w0] & ((1u64 << b0) - 1);
                    if tail == 0 {
                        return None;
                    }
                    dist + u64::from(tail.trailing_zeros())
                }
            }
        };
        if dist >= WHEEL_SPAN.min(limit) {
            return None;
        }
        let c = self.cursor + dist;
        Some((c, (c & WHEEL_MASK) as usize))
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// When the wheel and the heap both hold events for the same cycle
    /// (possible when an event was pushed far ahead of its time and the
    /// window has since caught up with it), the global sequence number
    /// decides, preserving cross-tier FIFO.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.peeked = None;
        let heap_top = self.heap.peek().map(|Reverse(e)| (e.time, e.seq));
        // Never scan the wheel further than the heap's earliest event: past
        // that point the heap entry wins regardless.
        let limit = match heap_top {
            Some((t, _)) => t.cycles().saturating_sub(self.cursor) + 1,
            None => WHEEL_SPAN,
        };
        let wheel_best = self.wheel_min(limit);
        let take_heap = match (wheel_best, heap_top) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((wc, idx)), Some((ht, hseq))) => {
                let wt = Time::from_cycles(wc);
                ht < wt || (ht == wt && hseq < self.wheel[idx].front().expect("nonempty").0)
            }
        };
        if take_heap {
            let Reverse(e) = self.heap.pop().expect("checked nonempty");
            // Advancing the cursor to the popped (global-minimum) time keeps
            // the wheel invariant: every remaining wheel entry is >= it.
            self.cursor = self.cursor.max(e.time.cycles());
            Some((e.time, e.event))
        } else {
            let (wc, idx) = wheel_best.expect("checked nonempty");
            let (_, event) = self.wheel[idx].pop_front().expect("nonempty");
            if self.wheel[idx].is_empty() {
                self.occ[idx / 64] &= !(1 << (idx % 64));
            }
            self.wheel_len -= 1;
            self.cursor = wc;
            Some((Time::from_cycles(wc), event))
        }
    }

    /// Returns the time of the earliest pending event without removing it.
    ///
    /// Memoized: the scan runs at most once between pops (pushes keep the
    /// memo fresh with a single compare), so repeated peeks are O(1).
    pub fn peek_time(&mut self) -> Option<Time> {
        if let Some(p) = self.peeked {
            return p;
        }
        let heap_t = self.heap.peek().map(|Reverse(e)| e.time);
        let limit = match heap_t {
            Some(t) => t.cycles().saturating_sub(self.cursor) + 1,
            None => WHEEL_SPAN,
        };
        let wheel_t = self.wheel_min(limit).map(|(c, _)| Time::from_cycles(c));
        let min = match (wheel_t, heap_t) {
            (Some(w), Some(h)) => Some(w.min(h)),
            (w, h) => w.or(h),
        };
        self.peeked = Some(min);
        min
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The original single-tier `BinaryHeap` event queue.
///
/// Same ordering contract as [`EventQueue`] (nondecreasing time, same-cycle
/// FIFO). Kept as the measured baseline for the kernel benchmark and as the
/// oracle in differential property tests; not used by the simulator.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            event,
        }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_cycles(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap(), (Time::from_cycles(7), i));
        }
    }

    #[test]
    fn interleaved_times() {
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(5), "c");
        q.push(Time::from_cycles(1), "a");
        q.push(Time::from_cycles(3), "b");
        q.push(Time::from_cycles(5), "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_cycles(9), ());
        q.push(Time::from_cycles(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_cycles(2)));
    }

    #[test]
    fn far_events_spill_to_heap_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the wheel span at push time.
        q.push(Time::from_cycles(10_000), "far");
        q.push(Time::from_cycles(3), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "near");
        // The heap event must surface even though the wheel window has
        // advanced past nothing in particular.
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(10_000), "far"));
        assert!(q.is_empty());
    }

    #[test]
    fn cross_tier_fifo_at_same_cycle() {
        // Push an event for cycle 1000 while it is far (heap), then advance
        // near it and push another for the same cycle (wheel). The heap one
        // was pushed first and must pop first.
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(1000), "first");
        q.push(Time::from_cycles(900), "advance");
        assert_eq!(q.pop().unwrap().1, "advance"); // cursor -> 900
        q.push(Time::from_cycles(1000), "second");
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(1000), "first"));
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(1000), "second"));
    }

    #[test]
    fn push_in_the_past_still_pops_in_order() {
        // The simulator never schedules into the past, but the queue
        // contract tolerates it: such events go to the heap and pop
        // immediately (they are the minimum).
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(50), "a");
        assert_eq!(q.pop().unwrap().1, "a"); // cursor -> 50
        q.push(Time::from_cycles(10), "past");
        q.push(Time::from_cycles(51), "near");
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(10), "past"));
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(51), "near"));
    }

    #[test]
    fn spill_boundary_is_exact() {
        // cursor = 0: cycle WHEEL_SPAN-1 is the last wheel cycle, cycle
        // WHEEL_SPAN the first heap cycle. Both must pop in time order with
        // FIFO among equals regardless of tier.
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(WHEEL_SPAN), "heap1");
        q.push(Time::from_cycles(WHEEL_SPAN - 1), "wheel");
        q.push(Time::from_cycles(WHEEL_SPAN), "heap2");
        assert_eq!(q.pop().unwrap().1, "wheel");
        assert_eq!(q.pop().unwrap().1, "heap1");
        assert_eq!(q.pop().unwrap().1, "heap2");
    }

    /// Drains `q` and checks (time, seq-as-payload) global ordering.
    fn assert_sorted_stable(mut q: EventQueue<usize>) {
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated at {t}/{i}");
            }
            last = Some((t, i));
        }
    }

    #[test]
    fn large_mixed_push_pop_across_boundary() {
        // 10^5 mixed pushes/pops with deltas straddling the wheel->heap
        // spill boundary, checked differentially against the pure-heap
        // oracle at every pop.
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut q = EventQueue::new();
        let mut oracle = HeapEventQueue::new();
        let mut now = 0u64;
        let mut pushed = 0usize;
        for i in 0..100_000 {
            if pushed == 0 || step() % 3 != 0 {
                // Deltas cluster just around WHEEL_SPAN: 0..2*WHEEL_SPAN.
                let delta = step() % (2 * WHEEL_SPAN);
                let t = Time::from_cycles(now + delta);
                q.push(t, i);
                oracle.push(t, i);
                pushed += 1;
            } else {
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(got, want);
                now = got.expect("pushed > 0").0.cycles();
                pushed -= 1;
            }
        }
        loop {
            let got = q.pop();
            assert_eq!(got, oracle.pop());
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(9), ());
        q.push(Time::from_cycles(9), ());
        q.push(Time::from_cycles(400), ());
        while let Some(t) = q.peek_time() {
            assert_eq!(q.pop(), Some((t, ())));
        }
        assert!(q.is_empty());
    }

    proptest! {
        /// Popping always yields events in nondecreasing time order, and
        /// events with equal time in push order.
        #[test]
        fn pops_sorted_stable(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_cycles(t), i);
            }
            assert_sorted_stable(q);
        }

        /// Same property with deltas spanning the wheel->heap boundary and
        /// interleaved pops (the pop path moves the cursor, which is where
        /// windowing bugs would hide).
        #[test]
        fn pops_sorted_stable_across_tiers(
            ops in proptest::collection::vec((0u64..3 * WHEEL_SPAN, any::<bool>()), 0..400)
        ) {
            let mut q = EventQueue::new();
            let mut oracle = HeapEventQueue::new();
            let mut now = 0u64;
            for (i, &(delta, do_pop)) in ops.iter().enumerate() {
                if do_pop {
                    let got = q.pop();
                    prop_assert_eq!(got, oracle.pop());
                    if let Some((t, _)) = got {
                        now = t.cycles();
                    }
                } else {
                    let t = Time::from_cycles(now + delta);
                    q.push(t, i);
                    oracle.push(t, i);
                }
            }
            loop {
                let got = q.pop();
                prop_assert_eq!(got, oracle.pop());
                if got.is_none() { break; }
            }
        }

        /// The memoized `peek_time` always equals the true minimum of the
        /// live multiset, no matter how pushes, pops and repeated peeks
        /// interleave across the wheel/heap boundary (the memo is refreshed
        /// by pushes and invalidated by pops; a stale memo would surface
        /// here as a peek that disagrees with the multiset minimum).
        #[test]
        fn peek_memo_matches_multiset_min(
            ops in proptest::collection::vec((0u64..3 * WHEEL_SPAN, 0u8..3), 0..400)
        ) {
            let mut q = EventQueue::new();
            let mut live: Vec<u64> = Vec::new();
            let mut now = 0u64;
            for (i, &(delta, op)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        let t = now + delta;
                        q.push(Time::from_cycles(t), i);
                        live.push(t);
                    }
                    1 => {
                        let got = q.pop();
                        let min = live.iter().copied().min();
                        prop_assert_eq!(got.map(|(t, _)| t.cycles()), min);
                        if let Some(m) = min {
                            live.swap_remove(live.iter().position(|&t| t == m).unwrap());
                            now = m;
                        }
                    }
                    _ => {} // fall through to the peek below
                }
                let expect = live.iter().copied().min().map(Time::from_cycles);
                prop_assert_eq!(q.peek_time(), expect);
                prop_assert_eq!(q.peek_time(), expect); // repeated peek: memo path
            }
        }
    }
}
