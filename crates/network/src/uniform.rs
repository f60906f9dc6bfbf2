//! The paper's default contention-free uniform network.

use dirext_kernel::Time;

use crate::{Envelope, Network, TrafficStats};

/// A uniform-access-time network with a fixed node-to-node latency and no
/// link contention — the paper's default ("we assume a contention-free
/// uniform access time network with a node-to-node latency of 54 pclocks").
///
/// Traffic is still metered, so Figure 4 (traffic normalized to BASIC) is
/// produced from runs on this network.
///
/// # Example
///
/// ```
/// use dirext_kernel::Time;
/// use dirext_network::{Envelope, Network, TrafficClass, UniformNetwork};
/// use dirext_trace::NodeId;
///
/// let mut net = UniformNetwork::new(Time::from_cycles(54));
/// let arrival = net.send(
///     Time::from_cycles(100),
///     Envelope::new(NodeId(0), NodeId(5), 8, TrafficClass::Control),
/// );
/// assert_eq!(arrival, Time::from_cycles(154));
/// ```
#[derive(Debug)]
pub struct UniformNetwork {
    hop_latency: Time,
    traffic: TrafficStats,
    name: String,
}

impl UniformNetwork {
    /// Creates a network with the given node-to-node latency.
    pub fn new(hop_latency: Time) -> Self {
        UniformNetwork {
            name: format!("uniform-{}", hop_latency.cycles()),
            hop_latency,
            traffic: TrafficStats::new(),
        }
    }

    /// The paper's configuration: 54-pclock node-to-node latency.
    pub fn paper_default() -> Self {
        Self::new(Time::from_cycles(54))
    }
}

impl Network for UniformNetwork {
    fn send(&mut self, now: Time, env: Envelope) -> Time {
        if env.is_local() {
            return now;
        }
        self.traffic.record(&env);
        now + self.hop_latency
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
    use dirext_trace::NodeId;

    fn t(c: u64) -> Time {
        Time::from_cycles(c)
    }

    #[test]
    fn fixed_latency_no_contention() {
        let mut net = UniformNetwork::paper_default();
        // Two messages at the same instant both arrive 54 cycles later.
        let e = Envelope::new(NodeId(0), NodeId(1), 40, TrafficClass::Data);
        assert_eq!(net.send(t(0), e), t(54));
        assert_eq!(net.send(t(0), e), t(54));
        assert_eq!(net.traffic().msgs(), 2);
        assert_eq!(net.traffic().bytes(), 80);
    }

    #[test]
    fn local_messages_are_free_and_unmetered() {
        let mut net = UniformNetwork::paper_default();
        let e = Envelope::new(NodeId(3), NodeId(3), 40, TrafficClass::Data);
        assert_eq!(net.send(t(10), e), t(10));
        assert_eq!(net.traffic().msgs(), 0);
    }
}
