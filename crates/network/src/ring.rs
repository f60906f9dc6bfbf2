//! Bidirectional ring interconnect.
//!
//! A point-to-point register-insertion-style ring, as in the
//! cache-coherent ring multiprocessors contemporary with the paper (e.g.
//! Barroso & Dubois' slotted ring): messages travel hop by hop in whichever
//! direction is shorter, contending for each inter-node link. Rings have
//! the lowest wiring cost of the three models here but bisection bandwidth
//! that *shrinks* relative to traffic as the machine grows — a harsher
//! environment for the traffic-hungry P+CW combination than even the
//! 16-bit mesh.

use dirext_kernel::{Resource, Time};
use dirext_trace::NodeId;

use crate::{Envelope, Network, TrafficStats};

/// A bidirectional ring with per-link contention.
///
/// Per hop a message pays `router_delay` cycles for the header plus
/// `ceil(8·bytes / link_bits)` cycles of body occupancy on the link, like
/// the mesh model.
///
/// # Example
///
/// ```
/// use dirext_kernel::Time;
/// use dirext_network::{Envelope, Network, RingNetwork, TrafficClass};
/// use dirext_trace::NodeId;
///
/// let mut ring = RingNetwork::new(16, 32);
/// // 1 hop (neighbours), 40-byte message on 32-bit links: 2 + 10 cycles.
/// let t = ring.send(
///     Time::ZERO,
///     Envelope::new(NodeId(0), NodeId(1), 40, TrafficClass::Data),
/// );
/// assert_eq!(t, Time::from_cycles(12));
/// ```
#[derive(Debug)]
pub struct RingNetwork {
    nodes: usize,
    link_bits: u32,
    router_delay: u64,
    /// `links[n][0]` = clockwise link out of node n (to n+1),
    /// `links[n][1]` = counter-clockwise (to n-1).
    links: Vec<[Resource; 2]>,
    traffic: TrafficStats,
    name: String,
}

impl RingNetwork {
    /// Creates a ring of `nodes` nodes with `link_bits`-wide links.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `link_bits` is zero.
    pub fn new(nodes: usize, link_bits: u32) -> Self {
        assert!(nodes >= 2, "a ring needs at least two nodes");
        assert!(link_bits > 0, "link width must be positive");
        RingNetwork {
            nodes,
            link_bits,
            router_delay: 2,
            links: vec![[Resource::new(), Resource::new()]; nodes],
            traffic: TrafficStats::new(),
            name: format!("ring{nodes}-{link_bits}bit"),
        }
    }

    fn flits(&self, bytes: u32) -> u64 {
        Envelope::flits_on(bytes, self.link_bits)
    }

    /// `(hops, clockwise)` for the shorter direction.
    fn route(&self, src: NodeId, dst: NodeId) -> (usize, bool) {
        let n = self.nodes;
        let cw = (dst.idx() + n - src.idx()) % n;
        let ccw = (src.idx() + n - dst.idx()) % n;
        if cw <= ccw {
            (cw, true)
        } else {
            (ccw, false)
        }
    }
}

impl Network for RingNetwork {
    fn send(&mut self, now: Time, env: Envelope) -> Time {
        if env.is_local() {
            return now;
        }
        self.traffic.record(&env);
        let flits = self.flits(env.bytes);
        let (hops, clockwise) = self.route(env.src, env.dst);
        let dir = usize::from(!clockwise);
        let mut at = env.src.idx();
        let mut head = now;
        for _ in 0..hops {
            let start =
                self.links[at][dir].acquire(head, Time::from_cycles(self.router_delay + flits));
            head = start + Time::from_cycles(self.router_delay);
            at = if clockwise {
                (at + 1) % self.nodes
            } else {
                (at + self.nodes - 1) % self.nodes
            };
        }
        head + Time::from_cycles(flits)
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficClass;

    fn t(c: u64) -> Time {
        Time::from_cycles(c)
    }

    fn env(src: u16, dst: u16, bytes: u32) -> Envelope {
        Envelope::new(NodeId(src), NodeId(dst), bytes, TrafficClass::Data)
    }

    #[test]
    fn shortest_direction_is_chosen() {
        let ring = RingNetwork::new(16, 32);
        assert_eq!(ring.route(NodeId(0), NodeId(3)), (3, true));
        assert_eq!(ring.route(NodeId(0), NodeId(13)), (3, false));
        // Antipodal: 8 hops either way; clockwise by convention.
        assert_eq!(ring.route(NodeId(0), NodeId(8)), (8, true));
    }

    #[test]
    fn uncontended_latency_scales_with_hops() {
        let mut ring = RingNetwork::new(16, 32);
        // 40 B on 32-bit links = 10 flits; 3 hops * 2 + 10 = 16.
        assert_eq!(ring.send(t(0), env(0, 3, 40)), t(16));
        // Antipodal distance dominates: 8 hops * 2 + 10 = 26.
        assert_eq!(ring.send(t(100), env(0, 8, 40)), t(126));
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut ring = RingNetwork::new(8, 16);
        let a = ring.send(t(0), env(0, 1, 40)); // clockwise out of 0
        let b = ring.send(t(0), env(0, 7, 40)); // counter-clockwise out of 0
        assert_eq!(a, b);
    }

    #[test]
    fn same_link_contends() {
        let mut ring = RingNetwork::new(8, 16);
        let a = ring.send(t(0), env(0, 2, 40));
        let b = ring.send(t(0), env(0, 2, 40));
        assert!(b > a);
    }

    #[test]
    fn local_messages_are_free() {
        let mut ring = RingNetwork::new(4, 16);
        assert_eq!(ring.send(t(5), env(2, 2, 40)), t(5));
        assert_eq!(ring.traffic().msgs(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_ring_rejected() {
        let _ = RingNetwork::new(1, 16);
    }
}
