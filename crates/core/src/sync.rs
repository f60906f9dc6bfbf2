//! Memory-level synchronization: queue-based locks and barriers.
//!
//! "Synchronization is based on a queue-based lock mechanism at memory
//! similar to the one implemented in DASH, with a single lock variable per
//! memory block." Lock and barrier variables bypass the caches entirely:
//! the home memory module serializes acquires, queues waiters, and grants
//! the lock directly to the next waiter on a release — so lock hand-offs
//! cost one network message instead of an invalidation storm.

use std::collections::{HashMap, VecDeque};

use dirext_trace::{BlockAddr, NodeId};

/// The queue-based lock controller for the lock variables homed at one node.
///
/// Every acquire/release carries the requester's monotone *acquire
/// sequence number* (the machine layer threads it through the sync
/// messages' version field). Sequencing is what makes the controller safe
/// under message duplication without breaking a legitimate protocol race:
/// under RC a node's *next* acquire can reach the home before its own
/// gated release does, so an acquire from the current holder must queue —
/// but a *replayed* acquire (same sequence) must not, or the node ends up
/// queued behind itself and the grant hand-off wedges.
///
/// # Example
///
/// ```
/// use dirext_core::sync::LockCtrl;
/// use dirext_trace::{BlockAddr, NodeId};
///
/// let mut locks = LockCtrl::new();
/// let l = BlockAddr::from_index(100);
/// assert!(locks.acquire(NodeId(0), l, 1));        // free: granted at once
/// assert!(!locks.acquire(NodeId(1), l, 1));       // held: queued
/// assert_eq!(locks.release(NodeId(0), l, 1), Some((NodeId(1), 1)));
/// assert_eq!(locks.release(NodeId(1), l, 1), None);
/// ```
#[derive(Debug, Default)]
pub struct LockCtrl {
    locks: HashMap<BlockAddr, LockState>,
    /// Longest queue observed (contention indicator).
    max_queue: usize,
    /// Total acquires serviced.
    acquires: u64,
    /// Duplicate acquires/releases recognized and ignored.
    stale_ops: u64,
}

#[derive(Debug, Default)]
struct LockState {
    /// Current holder and the sequence number of its granted acquire.
    holder: Option<(NodeId, u64)>,
    queue: VecDeque<(NodeId, u64)>,
    /// Highest acquire sequence processed per node (duplicate filter).
    seen: HashMap<NodeId, u64>,
}

impl LockCtrl {
    /// Creates a controller with no locks held.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes acquire number `seq` from `node`. Returns `true` if the
    /// lock was free and is granted immediately; otherwise the node is
    /// queued (the grant is sent on a later release).
    ///
    /// A replayed acquire — `seq` not above the highest already processed
    /// for this node — is ignored and counted, so duplicated messages can
    /// neither double-queue a node nor queue it behind itself.
    pub fn acquire(&mut self, node: NodeId, lock: BlockAddr, seq: u64) -> bool {
        let st = self.locks.entry(lock).or_default();
        let last = st.seen.entry(node).or_insert(0);
        if seq <= *last {
            self.stale_ops += 1;
            return false;
        }
        *last = seq;
        self.acquires += 1;
        if st.holder.is_none() {
            st.holder = Some((node, seq));
            true
        } else {
            st.queue.push_back((node, seq));
            self.max_queue = self.max_queue.max(st.queue.len());
            false
        }
    }

    /// Processes the release of acquire number `seq` by `node`. Returns the
    /// next waiter (and its acquire sequence) to grant the lock to, if any.
    ///
    /// A release that does not match the current holder *and* its granted
    /// sequence is a replayed message (the original already handed the lock
    /// onward — possibly back to the same node under a newer sequence): it
    /// is ignored and counted, never applied to the current holder.
    pub fn release(&mut self, node: NodeId, lock: BlockAddr, seq: u64) -> Option<(NodeId, u64)> {
        let st = self.locks.entry(lock).or_default();
        if st.holder != Some((node, seq)) {
            self.stale_ops += 1;
            return None;
        }
        st.holder = st.queue.pop_front();
        st.holder
    }

    /// Whether any lock is currently held or waited on.
    pub fn any_held(&self) -> bool {
        self.locks
            .values()
            .any(|s| s.holder.is_some() || !s.queue.is_empty())
    }

    /// The locks currently held: `(lock, holder, queue length)` — the raw
    /// material of the watchdog's diagnostic snapshot.
    pub fn held(&self) -> Vec<(BlockAddr, NodeId, usize)> {
        let mut v: Vec<_> = self
            .locks
            .iter()
            .filter_map(|(l, s)| s.holder.map(|(h, _)| (*l, h, s.queue.len())))
            .collect();
        v.sort_by_key(|(l, _, _)| *l);
        v
    }

    /// The current holder of `lock` and its granted acquire sequence.
    pub fn holder(&self, lock: BlockAddr) -> Option<(NodeId, u64)> {
        self.locks.get(&lock).and_then(|s| s.holder)
    }

    /// Crash recovery: expunges a dead node from every lock homed here.
    ///
    /// Queued acquires from the node are discarded, and any lock it held is
    /// handed to the next live waiter. Returns the grants to send, sorted
    /// by lock address — iteration must not depend on hash order, or the
    /// recovery path would break the simulator's determinism contract.
    pub fn purge_node(&mut self, node: NodeId) -> Vec<(BlockAddr, NodeId, u64)> {
        let mut addrs: Vec<BlockAddr> = self.locks.keys().copied().collect();
        addrs.sort();
        let mut grants = Vec::new();
        for lock in addrs {
            let st = self.locks.get_mut(&lock).expect("key just collected");
            st.queue.retain(|(q, _)| *q != node);
            while matches!(st.holder, Some((h, _)) if h == node) {
                st.holder = st.queue.pop_front();
                if let Some((next, seq)) = st.holder {
                    grants.push((lock, next, seq));
                }
            }
        }
        grants
    }

    /// Longest waiter queue observed.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// Total acquire requests serviced.
    pub fn acquires(&self) -> u64 {
        self.acquires
    }

    /// Duplicate acquires/releases ignored.
    pub fn stale_ops(&self) -> u64 {
        self.stale_ops
    }
}

/// The barrier controller at one node (barrier episodes are homed by id).
///
/// Arrivals are tracked per node in a bitmask (one `u64` word per 64
/// nodes, so machines beyond 64 processors are supported), so a replayed
/// arrival message is recognized and ignored instead of releasing the
/// barrier early. When the last of `participants` distinct nodes arrives,
/// the home broadcasts the release (the machine layer sends the messages).
#[derive(Debug)]
pub struct BarrierCtrl {
    participants: u32,
    arrived: HashMap<u32, Vec<u64>>,
    /// Episode ids already released. An id names one episode (ids are not
    /// reused), so an arrival for a completed id is a replayed message and
    /// must not re-open the episode with a phantom partial mask.
    done: std::collections::HashSet<u32>,
    episodes: u64,
    stale_ops: u64,
}

impl BarrierCtrl {
    /// Creates a controller for barriers of `participants` processors.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero or exceeds [`crate::sharer::MAX_NODES`].
    pub fn new(participants: u32) -> Self {
        assert!(participants > 0, "a barrier needs participants");
        assert!(
            participants as usize <= crate::sharer::MAX_NODES,
            "arrival mask holds at most {} nodes",
            crate::sharer::MAX_NODES
        );
        BarrierCtrl {
            participants,
            arrived: HashMap::new(),
            done: std::collections::HashSet::new(),
            episodes: 0,
            stale_ops: 0,
        }
    }

    /// Records `node`'s arrival at barrier `id`. Returns `true` when this
    /// arrival was the last one (the caller must broadcast the release).
    /// A duplicate arrival from a node already recorded is ignored.
    pub fn arrive(&mut self, node: NodeId, id: u32) -> bool {
        if self.done.contains(&id) {
            self.stale_ops += 1;
            return false;
        }
        let words = (self.participants as usize).div_ceil(64);
        let mask = self.arrived.entry(id).or_insert_with(|| vec![0u64; words]);
        let (word, bit) = (node.idx() / 64, 1u64 << (node.idx() % 64));
        if mask[word] & bit != 0 {
            self.stale_ops += 1;
            return false;
        }
        mask[word] |= bit;
        if mask.iter().map(|w| w.count_ones()).sum::<u32>() == self.participants {
            self.arrived.remove(&id);
            self.done.insert(id);
            self.episodes += 1;
            true
        } else {
            false
        }
    }

    /// Whether any barrier has partial arrivals.
    pub fn any_waiting(&self) -> bool {
        !self.arrived.is_empty()
    }

    /// Whether episode `id` has already released (crash recovery uses this
    /// to decide if a recovering node slept through its barrier).
    pub fn is_done(&self, id: u32) -> bool {
        self.done.contains(&id)
    }

    /// Whether `node`'s arrival at episode `id` has been counted (and the
    /// episode has not yet released). Crash recovery uses this to decide
    /// whether a re-admitted node must re-execute its barrier arrival or
    /// just wait for the release its previous incarnation already earned.
    pub fn has_arrived(&self, node: NodeId, id: u32) -> bool {
        self.arrived.get(&id).is_some_and(|mask| {
            mask.get(node.idx() / 64)
                .is_some_and(|w| w & (1u64 << (node.idx() % 64)) != 0)
        })
    }

    /// Barriers with partial arrivals: `(id, arrival bitmask)` — the raw
    /// material of the watchdog's diagnostic snapshot. On machines larger
    /// than 64 nodes only the low 64 arrival bits are reported.
    pub fn waiting(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<_> = self.arrived.iter().map(|(id, m)| (*id, m[0])).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// Completed barrier episodes.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Duplicate arrivals ignored.
    pub fn stale_ops(&self) -> u64 {
        self.stale_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn l(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn lock_hand_off_order_is_fifo() {
        let mut locks = LockCtrl::new();
        assert!(locks.acquire(n(0), l(1), 1));
        assert!(!locks.acquire(n(1), l(1), 1));
        assert!(!locks.acquire(n(2), l(1), 1));
        assert_eq!(locks.release(n(0), l(1), 1), Some((n(1), 1)));
        assert_eq!(locks.release(n(1), l(1), 1), Some((n(2), 1)));
        assert_eq!(locks.release(n(2), l(1), 1), None);
        assert!(!locks.any_held());
        assert_eq!(locks.max_queue(), 2);
        assert_eq!(locks.acquires(), 3);
    }

    #[test]
    fn independent_locks_do_not_interfere() {
        let mut locks = LockCtrl::new();
        assert!(locks.acquire(n(0), l(1), 1));
        assert!(locks.acquire(n(1), l(2), 1));
        assert_eq!(locks.release(n(0), l(1), 1), None);
        assert!(locks.any_held());
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut bar = BarrierCtrl::new(4);
        assert!(!bar.arrive(n(0), 0));
        assert!(!bar.arrive(n(1), 0));
        assert!(!bar.arrive(n(2), 0));
        assert!(bar.any_waiting());
        assert_eq!(bar.waiting(), vec![(0, 0b111)]);
        assert!(bar.arrive(n(3), 0));
        assert!(!bar.any_waiting());
        assert_eq!(bar.episodes(), 1);
    }

    #[test]
    fn barrier_scales_past_64_participants() {
        let mut bar = BarrierCtrl::new(256);
        for i in 0..255 {
            assert!(!bar.arrive(n(i), 0), "node {i} must not release early");
        }
        // A replay from a high-word node is still recognized.
        assert!(!bar.arrive(n(200), 0));
        assert_eq!(bar.stale_ops(), 1);
        assert!(bar.arrive(n(255), 0));
        assert_eq!(bar.episodes(), 1);
    }

    #[test]
    fn barrier_episodes_are_independent() {
        let mut bar = BarrierCtrl::new(2);
        assert!(!bar.arrive(n(0), 0));
        assert!(!bar.arrive(n(0), 1)); // a different episode
        assert!(bar.arrive(n(1), 0));
        assert!(bar.arrive(n(1), 1));
        assert_eq!(bar.episodes(), 2);
    }

    #[test]
    fn duplicate_barrier_arrival_is_ignored() {
        let mut bar = BarrierCtrl::new(2);
        assert!(!bar.arrive(n(0), 0));
        // A replayed copy of node 0's arrival must not release the barrier.
        assert!(!bar.arrive(n(0), 0));
        assert_eq!(bar.stale_ops(), 1);
        assert!(bar.arrive(n(1), 0));
        assert_eq!(bar.episodes(), 1);
        // A replayed arrival after the release must not re-open the episode.
        assert!(!bar.arrive(n(1), 0));
        assert!(!bar.any_waiting());
        assert_eq!(bar.stale_ops(), 2);
        assert_eq!(bar.episodes(), 1);
    }

    #[test]
    fn release_by_non_holder_is_ignored() {
        let mut locks = LockCtrl::new();
        assert!(locks.acquire(n(0), l(1), 1));
        assert_eq!(locks.release(n(1), l(1), 1), None);
        assert_eq!(locks.stale_ops(), 1);
        // Node 0 still holds the lock.
        assert_eq!(locks.held(), vec![(l(1), n(0), 0)]);
        assert_eq!(locks.release(n(0), l(1), 1), None);
        assert!(!locks.any_held());
    }

    #[test]
    fn duplicate_acquire_is_ignored() {
        let mut locks = LockCtrl::new();
        assert!(locks.acquire(n(0), l(1), 1));
        // Replayed copy of the granted acquire: no self-queueing.
        assert!(!locks.acquire(n(0), l(1), 1));
        assert!(!locks.acquire(n(1), l(1), 7));
        // Replayed acquire from a queued waiter: not queued twice.
        assert!(!locks.acquire(n(1), l(1), 7));
        assert_eq!(locks.stale_ops(), 2);
        assert_eq!(locks.acquires(), 2);
        assert_eq!(locks.release(n(0), l(1), 1), Some((n(1), 7)));
        assert_eq!(locks.release(n(1), l(1), 7), None);
        assert!(!locks.any_held());
    }

    #[test]
    fn purge_hands_dead_holders_locks_to_live_waiters() {
        let mut locks = LockCtrl::new();
        assert!(locks.acquire(n(0), l(1), 1));
        assert!(!locks.acquire(n(1), l(1), 1));
        assert!(!locks.acquire(n(2), l(1), 1));
        assert!(locks.acquire(n(0), l(2), 1)); // held, nobody queued
        assert!(locks.acquire(n(3), l(3), 1)); // unrelated lock
                                               // Node 0 crashes: lock 1 goes to node 1, lock 2 frees, lock 3 stays.
        let grants = locks.purge_node(n(0));
        assert_eq!(grants, vec![(l(1), n(1), 1)]);
        assert_eq!(locks.holder(l(1)), Some((n(1), 1)));
        assert_eq!(locks.holder(l(2)), None);
        assert_eq!(locks.holder(l(3)), Some((n(3), 1)));
    }

    #[test]
    fn purge_drops_dead_waiters_from_queues() {
        let mut locks = LockCtrl::new();
        assert!(locks.acquire(n(0), l(1), 1));
        assert!(!locks.acquire(n(1), l(1), 1));
        assert!(!locks.acquire(n(2), l(1), 1));
        // Node 1 crashes while queued: the hand-off skips it.
        assert!(locks.purge_node(n(1)).is_empty());
        assert_eq!(locks.release(n(0), l(1), 1), Some((n(2), 1)));
    }

    #[test]
    fn barrier_done_episodes_are_queryable() {
        let mut bar = BarrierCtrl::new(2);
        assert!(!bar.is_done(0));
        assert!(!bar.arrive(n(0), 0));
        assert!(!bar.is_done(0));
        assert!(bar.has_arrived(n(0), 0));
        assert!(!bar.has_arrived(n(1), 0));
        assert!(bar.arrive(n(1), 0));
        assert!(bar.is_done(0));
        assert!(!bar.is_done(1));
        // A released episode reports no partial arrivals.
        assert!(!bar.has_arrived(n(0), 0));
    }

    #[test]
    fn holder_reacquire_with_new_sequence_queues_behind_itself() {
        // Under RC a node's next acquire can overtake its own in-flight
        // release; the home must queue it, not mistake it for a replay.
        let mut locks = LockCtrl::new();
        assert!(locks.acquire(n(0), l(1), 1));
        assert!(!locks.acquire(n(0), l(1), 2));
        // A replayed release of the *first* grant hands the lock onward...
        assert_eq!(locks.release(n(0), l(1), 1), Some((n(0), 2)));
        // ...and a second copy of that release no longer matches.
        assert_eq!(locks.release(n(0), l(1), 1), None);
        assert_eq!(locks.stale_ops(), 1);
        assert_eq!(locks.release(n(0), l(1), 2), None);
        assert!(!locks.any_held());
    }
}
