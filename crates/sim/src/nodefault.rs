//! Deterministic whole-node crash/recovery fault plans.
//!
//! A [`NodeFaultPlan`] extends the fault model from the message channel
//! ([`dirext_network::FaultPlan`] drops, duplicates and delays individual
//! messages) to the first fault domain that mutates *protocol state*: at a
//! scheduled cycle a node loses its caches, write buffers and in-flight
//! requests and goes silent; a bounded detection delay later the home
//! directories run an epoch-fenced reconstruction (purging the dead node
//! from every sharer set and synthesizing the acknowledgments it can no
//! longer send); and at a second scheduled cycle the node is re-admitted
//! cold with a bumped incarnation epoch, so any message from or to its
//! previous life is recognizably stale and dropped.
//!
//! Like the link-fault plan, everything is derived from explicit schedule
//! entries (or a seed) — two runs with the same plan observe bit-identical
//! crash timelines regardless of `--jobs`. A fault tick applies between
//! events, before any event scheduled for the same cycle.

use dirext_trace::NodeId;

/// One node's crash/recovery window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFaultEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// Processor-clock cycle at which the node dies (caches wiped, all
    /// traffic from/to it dropped).
    pub crash_at: u64,
    /// Processor-clock cycle at which the node rejoins, cold, with a
    /// bumped epoch. Must be strictly greater than `crash_at` plus the
    /// plan's detection delay — recovery is mandatory, because a node that
    /// never returns would leave its barrier peers waiting forever.
    pub recover_at: u64,
}

/// The detection delay of a [`NodeFaultPlan::seeded`] plan, in cycles.
pub(crate) const DEFAULT_DETECT_DELAY: u64 = 500;

/// A deterministic schedule of whole-node crash/recovery windows.
///
/// The default plan is empty and [inactive](NodeFaultPlan::is_active): a
/// machine configured with it behaves — bit for bit — like one configured
/// with no plan at all (the differential tests enforce this).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeFaultPlan {
    /// The scheduled crash/recovery windows, at most one per node.
    pub events: Vec<NodeFaultEvent>,
    /// Processor-clock cycles between a crash and the directories'
    /// reconstruction sweep — the modeled bound on request-timeout
    /// detection. During this window the machine behaves as if the failure
    /// were undetected: fan-outs still address the dead node and wait.
    pub detect_delay: u64,
}

/// Why a [`NodeFaultPlan`] is not runnable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeFaultPlanError {
    /// An event names a node outside the machine.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The machine size.
        nprocs: usize,
    },
    /// `recover_at` does not leave room for the detection delay after
    /// `crash_at`.
    RecoveryTooEarly {
        /// The offending node.
        node: NodeId,
        /// Scheduled crash cycle.
        crash_at: u64,
        /// Scheduled recovery cycle.
        recover_at: u64,
        /// The plan's detection delay.
        detect_delay: u64,
    },
    /// Two events name the same node (one window per node per run).
    DuplicateNode {
        /// The node scheduled twice.
        node: NodeId,
    },
    /// Crashing every node at once leaves nobody to run the reconstruction
    /// protocol against.
    AllNodesCrash {
        /// The machine size.
        nprocs: usize,
    },
}

impl std::fmt::Display for NodeFaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeFaultPlanError::NodeOutOfRange { node, nprocs } => write!(
                f,
                "node fault names node {} but the machine has {} processors (0..={})",
                node.0,
                nprocs,
                nprocs - 1
            ),
            NodeFaultPlanError::RecoveryTooEarly {
                node,
                crash_at,
                recover_at,
                detect_delay,
            } => write!(
                f,
                "node {}: recovery at cycle {recover_at} must come after the crash at \
                 cycle {crash_at} plus the {detect_delay}-cycle detection delay \
                 (earliest legal recovery: {})",
                node.0,
                crash_at + detect_delay + 1
            ),
            NodeFaultPlanError::DuplicateNode { node } => write!(
                f,
                "node {} is scheduled to crash twice; a plan holds at most one \
                 crash/recovery window per node",
                node.0
            ),
            NodeFaultPlanError::AllNodesCrash { nprocs } => write!(
                f,
                "all {nprocs} nodes are scheduled to crash; at least one must stay up \
                 to run the recovery protocol"
            ),
        }
    }
}

impl std::error::Error for NodeFaultPlanError {}

impl NodeFaultPlan {
    /// A deterministic pseudo-random plan: `crashes` distinct nodes (never
    /// node 0, which anchors the sweep's home traffic) crash at staggered
    /// cycles derived from `seed`, each recovering after a seed-derived
    /// outage. Useful for chaos sweeps; for precise schedules build the
    /// struct directly.
    pub fn seeded(seed: u64, nprocs: usize, crashes: usize) -> Self {
        let crashes = crashes.min(nprocs.saturating_sub(1));
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            // SplitMix64: the same generator the link-fault layer uses.
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut events = Vec::with_capacity(crashes);
        let mut used = vec![false; nprocs];
        used[0] = true;
        for i in 0..crashes {
            let mut node = 1 + (next() as usize) % (nprocs - 1);
            while used[node] {
                node = 1 + (node % (nprocs - 1));
            }
            used[node] = true;
            let crash_at = 2_000 + 3_000 * i as u64 + next() % 1_000;
            let outage = 2_000 + next() % 2_000;
            events.push(NodeFaultEvent {
                node: NodeId(node as u16),
                crash_at,
                recover_at: crash_at + outage,
            });
        }
        NodeFaultPlan {
            events,
            detect_delay: DEFAULT_DETECT_DELAY,
        }
    }

    /// Whether the plan schedules any crash at all. An inactive plan keeps
    /// the machine on the exact no-fault code path.
    pub fn is_active(&self) -> bool {
        !self.events.is_empty()
    }

    /// Validates the plan against a machine of `nprocs` processors.
    ///
    /// # Errors
    ///
    /// Returns the first [`NodeFaultPlanError`] found: a node outside the
    /// machine, a recovery that does not clear the crash plus detection
    /// delay, a node scheduled twice, or a plan that crashes every node.
    pub fn validate(&self, nprocs: usize) -> Result<(), NodeFaultPlanError> {
        let mut seen = vec![false; nprocs];
        for ev in &self.events {
            if ev.node.idx() >= nprocs {
                return Err(NodeFaultPlanError::NodeOutOfRange {
                    node: ev.node,
                    nprocs,
                });
            }
            if seen[ev.node.idx()] {
                return Err(NodeFaultPlanError::DuplicateNode { node: ev.node });
            }
            seen[ev.node.idx()] = true;
            if ev.recover_at <= ev.crash_at + self.detect_delay {
                return Err(NodeFaultPlanError::RecoveryTooEarly {
                    node: ev.node,
                    crash_at: ev.crash_at,
                    recover_at: ev.recover_at,
                    detect_delay: self.detect_delay,
                });
            }
        }
        if !self.events.is_empty() && self.events.len() >= nprocs {
            return Err(NodeFaultPlanError::AllNodesCrash { nprocs });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive_and_valid() {
        let plan = NodeFaultPlan::default();
        assert!(!plan.is_active());
        assert!(plan.validate(16).is_ok());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_valid() {
        let a = NodeFaultPlan::seeded(42, 64, 5);
        let b = NodeFaultPlan::seeded(42, 64, 5);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 5);
        assert!(a.validate(64).is_ok());
        let c = NodeFaultPlan::seeded(43, 64, 5);
        assert_ne!(a, c, "different seeds must differ");
        // Node 0 anchors the machine and never crashes.
        assert!(a.events.iter().all(|e| e.node != NodeId(0)));
    }

    #[test]
    fn validation_catches_bad_plans() {
        let mut plan = NodeFaultPlan {
            events: vec![NodeFaultEvent {
                node: NodeId(20),
                crash_at: 100,
                recover_at: 5_000,
            }],
            detect_delay: 500,
        };
        assert!(matches!(
            plan.validate(16),
            Err(NodeFaultPlanError::NodeOutOfRange { .. })
        ));
        plan.events[0].node = NodeId(3);
        plan.events[0].recover_at = 600; // == crash + detect
        assert!(matches!(
            plan.validate(16),
            Err(NodeFaultPlanError::RecoveryTooEarly { .. })
        ));
        plan.events[0].recover_at = 601;
        assert!(plan.validate(16).is_ok());
        plan.events.push(plan.events[0]);
        assert!(matches!(
            plan.validate(16),
            Err(NodeFaultPlanError::DuplicateNode { .. })
        ));
        plan.events[0].node = NodeId(0);
        plan.events[1] = NodeFaultEvent {
            node: NodeId(1),
            crash_at: 0,
            recover_at: 1_000,
        };
        assert!(matches!(
            plan.validate(2),
            Err(NodeFaultPlanError::AllNodesCrash { .. })
        ));
    }

    #[test]
    fn seeded_caps_at_machine_size() {
        let plan = NodeFaultPlan::seeded(7, 4, 100);
        assert_eq!(plan.events.len(), 3);
        assert!(plan.validate(4).is_ok());
    }

    use proptest::prelude::*;

    proptest! {
        /// Every seeded plan reproduces bit-identically, validates against
        /// its own machine, spares node 0, and schedules exactly the
        /// requested number of crashes (capped at machine size minus one).
        #[test]
        fn seeded_plans_validate_and_reproduce(
            seed in any::<u64>(),
            nprocs in 2usize..65,
            crashes in 0usize..8,
        ) {
            let a = NodeFaultPlan::seeded(seed, nprocs, crashes);
            let b = NodeFaultPlan::seeded(seed, nprocs, crashes);
            prop_assert_eq!(&a, &b);
            prop_assert!(a.validate(nprocs).is_ok());
            prop_assert_eq!(a.events.len(), crashes.min(nprocs - 1));
            prop_assert!(a.events.iter().all(|e| e.node != NodeId(0)));
        }

        /// `validate` accepts exactly the plans the spec allows: in-range
        /// distinct nodes, recovery strictly after crash plus detection
        /// delay, and at least one survivor.
        #[test]
        fn validate_matches_the_spec_oracle(
            nprocs in 2usize..33,
            nodes in proptest::collection::vec(0u16..40, 0..6),
            crash in 0u64..10_000,
            outage in 0u64..4_000,
            detect in 0u64..1_000,
        ) {
            let events: Vec<NodeFaultEvent> = nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| NodeFaultEvent {
                    node: NodeId(n),
                    crash_at: crash + i as u64,
                    recover_at: crash + i as u64 + outage,
                })
                .collect();
            let plan = NodeFaultPlan {
                events,
                detect_delay: detect,
            };
            let mut seen = std::collections::HashSet::new();
            let legal = plan.events.iter().all(|e| {
                e.node.idx() < nprocs
                    && seen.insert(e.node)
                    && e.recover_at > e.crash_at + detect
            }) && (plan.events.is_empty() || plan.events.len() < nprocs);
            prop_assert_eq!(plan.validate(nprocs).is_ok(), legal);
        }
    }
}
