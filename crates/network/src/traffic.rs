//! Network traffic accounting (basis of the paper's Figure 4).

use crate::{Envelope, TrafficClass};

/// Accumulated network traffic: the total message count, and byte counts
/// total and per [`TrafficClass`]. Local (same-node) messages are never
/// recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    msgs: u64,
    bytes: u64,
    class_bytes: [u64; 4],
}

impl TrafficStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one network message.
    pub fn record(&mut self, env: &Envelope) {
        debug_assert!(!env.is_local(), "local messages are not network traffic");
        self.msgs += 1;
        self.bytes += u64::from(env.bytes);
        self.class_bytes[env.class.idx()] += u64::from(env.bytes);
    }

    /// Total messages sent over the network.
    pub fn msgs(&self) -> u64 {
        self.msgs
    }

    /// Total bytes sent over the network.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes sent in a given class.
    pub fn bytes_in(&self, class: TrafficClass) -> u64 {
        self.class_bytes[class.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirext_trace::NodeId;

    #[test]
    fn records_by_class() {
        let mut t = TrafficStats::new();
        t.record(&Envelope::new(
            NodeId(0),
            NodeId(1),
            8,
            TrafficClass::Control,
        ));
        t.record(&Envelope::new(NodeId(0), NodeId(1), 40, TrafficClass::Data));
        t.record(&Envelope::new(NodeId(1), NodeId(0), 40, TrafficClass::Data));
        assert_eq!(t.msgs(), 3);
        assert_eq!(t.bytes(), 88);
        assert_eq!(t.bytes_in(TrafficClass::Data), 80);
        assert_eq!(t.bytes_in(TrafficClass::Update), 0);
    }
}
