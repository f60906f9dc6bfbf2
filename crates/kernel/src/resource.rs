//! Single-server occupancy modelling.

use crate::Time;

/// A serially reusable resource (a bus, a cache port, a network link).
///
/// Requests acquire the resource for a duration; if it is busy, the request
/// is queued behind the current holder. `acquire` returns the time at which
/// the request actually *starts* service, so callers can schedule the
/// completion event at `start + duration` and attribute the waiting time
/// `start - now` to contention.
///
/// This is the node-level contention model the paper relies on: "contention
/// is accurately modelled in each node" even when the network is ideal.
/// The model reads nothing but when the resource next falls free, so that
/// is all a reservation stores: a 1024-node mesh's links fit in 35 KB.
///
/// # Example
///
/// ```
/// use dirext_kernel::{Resource, Time};
///
/// let mut bus = Resource::new();
/// let t0 = bus.acquire(Time::from_cycles(100), Time::from_cycles(3));
/// assert_eq!(t0, Time::from_cycles(100)); // idle: starts immediately
/// let t1 = bus.acquire(Time::from_cycles(101), Time::from_cycles(3));
/// assert_eq!(t1, Time::from_cycles(103)); // queued behind first transfer
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    busy_until: Time,
}

// Every link, bus and port reservation is one word.
const _: () = assert!(size_of::<Resource>() == size_of::<Time>());

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `duration` starting no earlier than `now`.
    ///
    /// Returns the service start time (`>= now`).
    pub fn acquire(&mut self, now: Time, duration: Time) -> Time {
        let start = self.busy_until.max(now);
        self.busy_until = start + duration;
        start
    }

    /// The time at which the resource next becomes free.
    pub fn free_at(&self) -> Time {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> Time {
        Time::from_cycles(c)
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.free_at(), t(0));
        assert_eq!(r.acquire(t(5), t(10)), t(5));
        assert_eq!(r.free_at(), t(15));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(t(0), t(4)), t(0));
        assert_eq!(r.acquire(t(1), t(4)), t(4));
        assert_eq!(r.acquire(t(2), t(4)), t(8));
        assert_eq!(r.free_at(), t(12));
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = Resource::new();
        r.acquire(t(0), t(2));
        // Request long after the first completes: no waiting.
        assert_eq!(r.acquire(t(100), t(2)), t(100));
        assert_eq!(r.free_at(), t(102));
    }
}
