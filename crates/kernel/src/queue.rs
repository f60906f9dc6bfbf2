//! The event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a levelled **timing wheel**. Level 0 is a 256-slot
//! bucket wheel, one slot per cycle of the 256-cycle block being popped;
//! three coarser levels of 256 slots each (256, 65 536 and 16 777 216
//! cycles per slot) hold everything later in the same 2^32-cycle span, and
//! a slot cascades into the levels below only when the wheel reaches it. A
//! [`BinaryHeap`] takes what the wheel cannot hold: pushes behind the
//! cursor and pushes past its 2^32-cycle span. Push and pop are O(1)
//! amortized however far ahead an event lands, which matters at 1024
//! nodes, where a broadcast serializes on its source's links and schedules
//! deliveries up to 2^21 cycles out. The unit tests check it against the
//! original pure-heap queue, kept there as an oracle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Time;

/// Bits of cycle number each wheel level resolves.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels: level `k` slots are `256^k` cycles wide.
const LEVELS: usize = 4;
/// Cycle bits the whole wheel spans: a push whose cycle differs from the
/// cursor's above this bit goes to the heap.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Words in one level's occupancy bitmap (one bit per slot).
const OCC_WORDS: usize = SLOTS / 64;
/// Largest buffer (in entries) a coarse slot keeps when it cascades.
const KEEP_CAPACITY: usize = 64;

/// A timestamped event priority queue with deterministic ordering.
///
/// Events pop in nondecreasing time order; events pushed for the *same* cycle
/// pop in the order they were pushed (FIFO). This tie-break is what makes
/// whole-machine simulations bit-reproducible: two runs with the same seed
/// schedule the identical event sequence.
///
/// Internally this is a four-level timing wheel whose placement is aligned
/// to the *cursor*, the cycle of the most recently popped event. An event
/// for cycle `c` goes to the level of the highest 8-bit digit in which `c`
/// differs from the cursor: level 0 (one slot per cycle) holds only the
/// cursor's 256-cycle block, and level `k` holds only the later
/// `256^k`-cycle slots of the cursor's `256^(k+1)`-aligned span. When level
/// 0 runs dry, `pop` moves the cursor to the start of the lowest occupied
/// slot and re-places that slot's events one level or more down. Because a
/// cycle's events always share one slot, and a slot is only ever appended
/// to or cascaded whole, same-cycle events keep their push order without
/// any sorting or sequence numbers. Events behind the cursor or beyond the
/// wheel's 2^32-cycle span go to a binary heap, ordered by time and then by
/// a push counter of its own, and `pop` breaks a same-cycle tie between the
/// tiers in push order, so placement is invisible to callers.
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
    /// Level 0: slot `c & 255` holds the events of cycle `c` of the
    /// cursor's 256-cycle block, in push order. Slots keep their capacity.
    near: Vec<VecDeque<E>>,
    /// Levels 1..LEVELS: slot `s` of level `k` is `far[(k - 1) * SLOTS + s]`.
    /// Its entries are in push order but not in time order. A cascade frees
    /// any buffer larger than `KEEP_CAPACITY` entries, so a broadcast burst
    /// does not pin its peak memory for the rest of the run.
    far: Vec<FarSlot<E>>,
    /// One occupancy bit per slot and level, so finding the lowest occupied
    /// slot is a handful of word scans (`trailing_zeros`).
    occ: [[u64; OCC_WORDS]; LEVELS],
    /// Events in the wheel (all levels).
    wheel_len: usize,
    /// The cycle every wheel placement is relative to: that of the last
    /// wheel pop, of a heap pop made while the wheel was empty, or the start
    /// of the last cascaded slot. It never decreases, and no wheel event
    /// lies before it.
    cursor: u64,
    /// Events behind the cursor or beyond the wheel's span.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Pushes into `heap` so far: its same-cycle FIFO tie-break.
    seq: u64,
    /// Memoized [`EventQueue::peek_time`] result: `None` means stale
    /// (recompute on next peek), `Some(t)` is the known current minimum
    /// (`Some(None)` = known empty). A push can only *lower* the minimum,
    /// so it refreshes the memo with one compare; a pop invalidates it.
    /// This makes the simulator's inline-retirement checks — one peek per
    /// retired instruction — O(1) instead of a bitmap scan.
    peeked: Option<Option<Time>>,
}

/// One slot of a coarse wheel level.
#[derive(Debug)]
struct FarSlot<E> {
    /// Earliest cycle among `entries` (`u64::MAX` when empty), so peeking
    /// never scans or cascades a slot.
    min: u64,
    /// `(cycle, event)` in push order.
    entries: Vec<(u64, E)>,
}

/// A heap event, ordered by time and then push order.
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
            near: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            far: (0..(LEVELS - 1) * SLOTS)
                .map(|_| FarSlot {
                    min: u64::MAX,
                    entries: Vec::new(),
                })
                .collect(),
            occ: [[0; OCC_WORDS]; LEVELS],
            wheel_len: 0,
            cursor: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            peeked: Some(None),
        }
    }

    /// Creates an empty queue with `capacity` pre-reserved in the heap tier
    /// (wheel slots grow on demand).
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
        let c = at.cycles();
        if c < self.cursor || (c ^ self.cursor) >> WHEEL_BITS != 0 {
            self.heap.push(Reverse(Entry {
                time: at,
                seq: self.seq,
                event,
            }));
            self.seq += 1;
        } else {
            self.place(c, event);
            self.wheel_len += 1;
        }
    }

    /// Files an event for cycle `c` (at or after the cursor, inside the
    /// wheel's span) at the level of the highest digit in which `c` differs
    /// from the cursor.
    #[inline]
    fn place(&mut self, c: u64, event: E) {
        let diff = c ^ self.cursor;
        if diff <= SLOT_MASK {
            let slot = (c & SLOT_MASK) as usize;
            self.near[slot].push_back(event);
            self.occ[0][slot / 64] |= 1 << (slot % 64);
        } else {
            let level = (63 - diff.leading_zeros()) / SLOT_BITS;
            let slot = ((c >> (level * SLOT_BITS)) & SLOT_MASK) as usize;
            let far = &mut self.far[(level as usize - 1) * SLOTS + slot];
            far.min = far.min.min(c);
            far.entries.push((c, event));
            self.occ[level as usize][slot / 64] |= 1 << (slot % 64);
        }
    }

    /// The lowest occupied slot of one level's bitmap. Every occupied slot
    /// of a level lies after the cursor's, so slot order is time order.
    #[inline]
    fn lowest_slot(occ: &[u64; OCC_WORDS]) -> Option<usize> {
        occ.iter()
            .position(|&w| w != 0)
            .map(|i| i * 64 + occ[i].trailing_zeros() as usize)
    }

    /// The lowest occupied slot of the lowest occupied coarse level, as an
    /// index into `far` (level 0 must be empty and the wheel not).
    fn lowest_far_slot(&self) -> usize {
        (1..LEVELS)
            .find_map(|k| Self::lowest_slot(&self.occ[k]).map(|s| (k - 1) * SLOTS + s))
            .expect("a nonempty wheel with an empty level 0 has a coarse slot")
    }

    /// The earliest cycle in the wheel. Reads the lowest occupied slot's
    /// memoized minimum instead of cascading it: `peek_time` must leave the
    /// cursor where the last pop put it, or pushes the caller makes between
    /// the cursor and the next event would land behind it, in the heap.
    fn wheel_min(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        Some(match Self::lowest_slot(&self.occ[0]) {
            Some(slot) => (self.cursor & !SLOT_MASK) | slot as u64,
            None => self.far[self.lowest_far_slot()].min,
        })
    }

    /// Empties coarse slot `far[i]` into the levels below it, after moving
    /// the cursor to the slot's first cycle. Only `pop` cascades, and only
    /// when level 0 is empty and the slot holds the wheel's minimum, so the
    /// cursor never passes an event and the destination slots start empty
    /// (which keeps each cycle's events in push order).
    fn cascade(&mut self, i: usize) {
        let (level, slot) = (i / SLOTS + 1, i % SLOTS);
        self.occ[level][slot / 64] &= !(1 << (slot % 64));
        let far = &mut self.far[i];
        far.min = u64::MAX;
        let mut entries = std::mem::take(&mut far.entries);
        let above = SLOT_BITS * (level as u32 + 1);
        self.cursor = (self.cursor >> above << above) | ((slot as u64) << (above - SLOT_BITS));
        for (c, event) in entries.drain(..) {
            self.place(c, event);
        }
        // Every fill of a small slot would otherwise reallocate its way up
        // again; a broadcast's large buffer is freed instead of pinned.
        if entries.capacity() <= KEEP_CAPACITY {
            self.far[i].entries = entries;
        }
    }

    /// Pops the heap's earliest event.
    fn pop_heap(&mut self) -> Option<(Time, E)> {
        let Reverse(e) = self.heap.pop()?;
        // Wheel placements are relative to the cursor, so it may only jump
        // ahead to a heap event while the wheel is empty.
        if self.wheel_len == 0 {
            self.cursor = self.cursor.max(e.time.cycles());
        }
        Some((e.time, e.event))
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// When the wheel and the heap both hold events for the same cycle, the
    /// heap's pop first, which is push order. A heap event shares a cycle
    /// with a wheel event only if it was pushed while that cycle lay beyond
    /// the wheel's span, so before any wheel event of that cycle; an event
    /// pushed behind the cursor precedes every wheel event in time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.peeked = None;
        loop {
            if let Some(slot) = Self::lowest_slot(&self.occ[0]) {
                let c = (self.cursor & !SLOT_MASK) | slot as u64;
                if self
                    .heap
                    .peek()
                    .is_some_and(|Reverse(top)| top.time.cycles() <= c)
                {
                    return self.pop_heap();
                }
                let bucket = &mut self.near[slot];
                let event = bucket.pop_front().expect("occupied slot");
                if bucket.is_empty() {
                    self.occ[0][slot / 64] &= !(1 << (slot % 64));
                }
                self.wheel_len -= 1;
                self.cursor = c;
                return Some((Time::from_cycles(c), event));
            }
            if self.wheel_len == 0 {
                return self.pop_heap();
            }
            let i = self.lowest_far_slot();
            if self
                .heap
                .peek()
                .is_some_and(|Reverse(top)| top.time.cycles() <= self.far[i].min)
            {
                return self.pop_heap();
            }
            self.cascade(i);
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
        let wheel_t = self.wheel_min().map(Time::from_cycles);
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The original single-tier `BinaryHeap` event queue, with the same
    /// ordering contract as [`EventQueue`] (nondecreasing time, same-cycle
    /// FIFO): the oracle of the differential tests.
    #[derive(Default)]
    struct HeapEventQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        seq: u64,
    }

    impl<E> HeapEventQueue<E> {
        fn push(&mut self, at: Time, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry {
                time: at,
                seq,
                event,
            }));
        }

        fn pop(&mut self) -> Option<(Time, E)> {
            self.heap.pop().map(|Reverse(e)| (e.time, e.event))
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

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
        // Past the wheel's 2^32-cycle span at push time, and on a coarse
        // wheel level.
        q.push(Time::from_cycles(1 << 33), "beyond");
        q.push(Time::from_cycles(10_000), "far");
        q.push(Time::from_cycles(3), "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(10_000), "far"));
        // The heap event must surface once the wheel has drained.
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(1 << 33), "beyond"));
        assert!(q.is_empty());
    }

    #[test]
    fn cross_tier_fifo_at_same_cycle() {
        // Push an event for cycle T while it is beyond the wheel (heap),
        // then advance near it and push another for the same cycle (wheel).
        // The heap one was pushed first and must pop first.
        let t = (1u64 << 32) + 1000;
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(t), "first");
        q.push(Time::from_cycles(t - 100), "advance");
        assert_eq!(q.pop().unwrap().1, "advance"); // cursor -> t - 100
        q.push(Time::from_cycles(t), "second");
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(t), "first"));
        assert_eq!(q.pop().unwrap(), (Time::from_cycles(t), "second"));
    }

    #[test]
    fn heap_pop_over_a_nonempty_wheel_keeps_its_placements() {
        // Once the cursor has entered a far event's 2^32-cycle span, that
        // event can pop from the heap while the wheel still holds coarse
        // events placed relative to the cursor. Moving the cursor to it
        // would file `f` one level below the earlier `e`, and pop `f` first.
        let span = 1u64 << 32;
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(span + 66_000), "h");
        q.push(Time::from_cycles(span), "a");
        assert_eq!(q.pop().unwrap().1, "a"); // empty wheel: cursor -> span
        q.push(Time::from_cycles(span + 67_000), "e");
        assert_eq!(q.pop().unwrap().1, "h");
        q.push(Time::from_cycles(span + 69_000), "f");
        assert_eq!(q.pop().unwrap().1, "e");
        assert_eq!(q.pop().unwrap().1, "f");
    }

    #[test]
    fn peek_does_not_cascade() {
        // The simulator peeks, then retires instructions inline and pushes
        // events between the cursor and the next queued one. A peek that
        // cascaded would move the cursor past them and send them all to
        // the heap.
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(10), "a");
        q.push(Time::from_cycles(1000), "far");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.peek_time(), Some(Time::from_cycles(1000)));
        q.push(Time::from_cycles(500), "between");
        assert!(
            q.heap.is_empty(),
            "a push after the cursor must stay in the wheel"
        );
        assert_eq!(q.pop().unwrap().1, "between");
        assert_eq!(q.pop().unwrap().1, "far");
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
        // cursor = 0: the last cycle of each level and the first of the
        // next, up to the first heap cycle, pushed twice each in reverse
        // order. They must pop in time order with FIFO among equals,
        // whatever tier each copy landed in.
        let edges = [
            SLOTS as u64 - 1,
            SLOTS as u64,
            (1 << 16) - 1,
            1 << 16,
            (1 << 24) - 1,
            1 << 24,
            (1 << WHEEL_BITS) - 1,
            1 << WHEEL_BITS,
        ];
        let mut q = EventQueue::new();
        for (i, &c) in edges.iter().enumerate().rev() {
            q.push(Time::from_cycles(c), 2 * i);
        }
        for (i, &c) in edges.iter().enumerate().rev() {
            q.push(Time::from_cycles(c), 2 * i + 1);
        }
        for (i, &c) in edges.iter().enumerate() {
            assert_eq!(q.pop(), Some((Time::from_cycles(c), 2 * i)));
            assert_eq!(q.pop(), Some((Time::from_cycles(c), 2 * i + 1)));
        }
        assert!(q.is_empty());
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

    /// One step of a differential run. Times are relative to the last
    /// popped event's.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push `delta` cycles ahead.
        Push(u64),
        /// Push `back` cycles behind (clamped at cycle 0).
        PushBehind(u64),
        Pop,
        Peek,
        /// Pop once, then push `n` events at `base`, `base + gap`, ... ahead:
        /// the shape of a broadcast wave serialized on its source's links.
        Burst {
            n: u16,
            base: u64,
            gap: u64,
        },
    }

    /// An [`EventQueue`] run in lockstep with the [`HeapEventQueue`] oracle
    /// and the multiset of live times.
    #[derive(Default)]
    struct Differential {
        q: EventQueue<usize>,
        oracle: HeapEventQueue<usize>,
        live: BTreeMap<u64, usize>,
        /// Cycle of the last pop.
        now: u64,
        pushed: usize,
    }

    impl Differential {
        fn push(&mut self, c: u64) {
            self.q.push(Time::from_cycles(c), self.pushed);
            self.oracle.push(Time::from_cycles(c), self.pushed);
            *self.live.entry(c).or_default() += 1;
            self.pushed += 1;
        }

        /// Pops both queues, which must agree; `false` once they are empty.
        fn pop(&mut self) -> Result<bool, String> {
            let got = self.q.pop();
            let want = self.oracle.pop();
            if got != want {
                return Err(format!("pop: got {got:?}, oracle {want:?}"));
            }
            let Some((t, _)) = got else {
                return Ok(false);
            };
            self.now = t.cycles();
            let n = self.live.get_mut(&self.now).expect("popped a live time");
            *n -= 1;
            if *n == 0 {
                self.live.remove(&self.now);
            }
            Ok(true)
        }

        fn peek(&mut self) -> Result<(), String> {
            let want = self.live.keys().next().copied().map(Time::from_cycles);
            let got = self.q.peek_time();
            if got != want {
                return Err(format!("peek: got {got:?}, live minimum {want:?}"));
            }
            Ok(())
        }
    }

    /// Runs `ops`, then drains the queue. Every pop must equal the oracle's
    /// and every peek the minimum of the live multiset; with
    /// `peek_each_op`, two peeks (the second one takes the memo path)
    /// follow every op.
    fn differential(ops: &[Op], peek_each_op: bool) -> Result<(), String> {
        let mut d = Differential::default();
        for &op in ops {
            match op {
                Op::Push(delta) => d.push(d.now + delta),
                Op::PushBehind(back) => d.push(d.now.saturating_sub(back)),
                Op::Pop => {
                    d.pop()?;
                }
                Op::Peek => d.peek()?,
                Op::Burst { n, base, gap } => {
                    d.pop()?;
                    for k in 0..u64::from(n) {
                        d.push(d.now + base + k * gap);
                    }
                }
            }
            if peek_each_op {
                d.peek()?;
                d.peek()?;
            }
            if d.q.len() != d.oracle.len() {
                return Err(format!("len {} vs oracle {}", d.q.len(), d.oracle.len()));
            }
        }
        while d.pop()? {
            if peek_each_op {
                d.peek()?;
            }
        }
        Ok(())
    }

    /// A delta uniform in `[0, 2^bits)`, with `bits` uniform in
    /// `0..=max_bits`: every wheel level, and the heap past the top one, gets
    /// a fair share.
    fn log_uniform(bits: u64, r: u64) -> u64 {
        r & ((1u64 << bits) - 1)
    }

    #[test]
    fn large_mixed_push_pop_across_boundary() {
        // 10^5 mixed operations with log-uniform deltas up to 2^35 cycles,
        // pushes behind the cursor, peeks between pops and broadcast-shaped
        // bursts, checked differentially against the pure-heap oracle.
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let ops: Vec<Op> = (0..100_000)
            .map(|_| match step() % 100 {
                0..=49 => Op::Push(log_uniform(step() % 36, step())),
                50..=51 => Op::PushBehind(log_uniform(step() % 12, step())),
                52..=86 => Op::Pop,
                87..=98 => Op::Peek,
                _ => Op::Burst {
                    n: (step() % 400) as u16 + 100,
                    base: log_uniform(step() % 36, step()),
                    gap: log_uniform(step() % 17, step()),
                },
            })
            .collect();
        differential(&ops, false).unwrap();
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_cycles(9), ());
        q.push(Time::from_cycles(9), ());
        q.push(Time::from_cycles(400), ());
        q.push(Time::from_cycles(1 << 20), ());
        while let Some(t) = q.peek_time() {
            assert_eq!(q.pop(), Some((t, ())));
        }
        assert!(q.is_empty());
    }

    /// Operations for the differential properties: pushes with log-uniform
    /// deltas up to 2^35 cycles, pushes behind the cursor, pops, peeks and
    /// broadcast-shaped bursts.
    fn op() -> impl Strategy<Value = Op> {
        let delta =
            |max_bits: u64| (0..max_bits + 1, any::<u64>()).prop_map(|(b, r)| log_uniform(b, r));
        prop_oneof![
            delta(35).prop_map(Op::Push),
            delta(35).prop_map(Op::Push),
            delta(35).prop_map(Op::Push),
            delta(11).prop_map(Op::PushBehind),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Peek),
            (1u16..400, delta(35), delta(16)).prop_map(|(n, base, gap)| Op::Burst { n, base, gap }),
        ]
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

        /// Every pop equals the pure-heap oracle's, with deltas reaching
        /// every wheel level and the heap past it, pushes behind the cursor
        /// and broadcast bursts interleaved with pops (the pop path moves
        /// the cursor and cascades, which is where windowing bugs would
        /// hide).
        #[test]
        fn pops_sorted_stable_across_tiers(
            ops in proptest::collection::vec(op(), 0..400)
        ) {
            differential(&ops, false)?;
        }

        /// The memoized `peek_time` always equals the true minimum of the
        /// live multiset, no matter how pushes, pops and repeated peeks
        /// interleave across the wheel levels and the heap (the memo is
        /// refreshed by pushes and invalidated by pops; a stale memo, or a
        /// peek that cascaded, would surface here as a peek or a pop that
        /// disagrees with the multiset minimum or the oracle).
        #[test]
        fn peek_memo_matches_multiset_min(
            ops in proptest::collection::vec(op(), 0..400)
        ) {
            differential(&ops, true)?;
        }
    }
}
