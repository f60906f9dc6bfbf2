//! Machine configuration.

use dirext_core::config::{Consistency, ProtocolConfig};
use dirext_core::sharer::DirOrg;
use dirext_memsys::Timing;
use dirext_network::{
    FaultPlan, HierMeshNetwork, MeshNetwork, Network, RingNetwork, UniformNetwork,
};

use crate::nodefault::NodeFaultPlan;

/// Which interconnection network to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Contention-free uniform network with 54-pclock node-to-node latency
    /// (the paper's default).
    Uniform,
    /// Wormhole-routed 4×4 mesh with the given link width in bits (64, 32
    /// or 16 in Section 5.3).
    Mesh {
        /// Link width in bits.
        link_bits: u32,
    },
    /// Bidirectional ring (extension topology; sized to the machine by the
    /// builder).
    Ring {
        /// Link width in bits.
        link_bits: u32,
    },
    /// Hierarchical two-level mesh: 4×4 wormhole-routed clusters joined by
    /// a mesh of express links between cluster gateways — the scaling
    /// topology for the 64/256/1024-node machines.
    HierMesh {
        /// Link width in bits (intra- and inter-cluster).
        link_bits: u32,
    },
}

/// Nodes the flat mesh serves: it precomputes all-pairs routes.
const FLAT_MESH_MAX_NODES: usize = 256;

impl NetworkKind {
    /// The networks the CLI offers: uniform, and the flat mesh, the ring
    /// and the two-level mesh with 64-, 32- and 16-bit links.
    const ALL: [NetworkKind; 10] = [
        NetworkKind::Uniform,
        NetworkKind::Mesh { link_bits: 64 },
        NetworkKind::Mesh { link_bits: 32 },
        NetworkKind::Mesh { link_bits: 16 },
        NetworkKind::Ring { link_bits: 64 },
        NetworkKind::Ring { link_bits: 32 },
        NetworkKind::Ring { link_bits: 16 },
        NetworkKind::HierMesh { link_bits: 64 },
        NetworkKind::HierMesh { link_bits: 32 },
        NetworkKind::HierMesh { link_bits: 16 },
    ];

    /// Parses a CLI network name: `uniform`, or `mesh`, `ring` or `hmesh`
    /// followed by a link width of 64, 32 or 16 (e.g. `mesh32`).
    pub fn parse(s: &str) -> Option<NetworkKind> {
        NetworkKind::ALL.into_iter().find(|n| n.cli_name() == s)
    }

    /// The CLI name of this network (inverse of [`NetworkKind::parse`]),
    /// also its segment of a journal cell key.
    pub fn cli_name(self) -> String {
        match self {
            NetworkKind::Uniform => "uniform".to_owned(),
            NetworkKind::Mesh { link_bits } => format!("mesh{link_bits}"),
            NetworkKind::HierMesh { link_bits } => format!("hmesh{link_bits}"),
            NetworkKind::Ring { link_bits } => format!("ring{link_bits}"),
        }
    }

    /// Checks that this network can be built for `procs` nodes, returning
    /// an actionable message on failure.
    pub(crate) fn validate(self, procs: usize) -> Result<(), String> {
        match self {
            NetworkKind::Mesh { link_bits } if procs > FLAT_MESH_MAX_NODES => Err(format!(
                "network `{}` cannot serve a {procs}-node machine: the flat mesh supports at \
                 most {FLAT_MESH_MAX_NODES} nodes; use `{}`, the two-level mesh",
                self.cli_name(),
                NetworkKind::HierMesh { link_bits }.cli_name()
            )),
            _ => Ok(()),
        }
    }

    pub(crate) fn build(self, procs: usize) -> Box<dyn Network> {
        match self {
            NetworkKind::Uniform => Box::new(UniformNetwork::paper_default()),
            NetworkKind::Mesh { link_bits } => {
                // 16 nodes gives the paper's 4x4; otherwise the squarest
                // mesh that covers the machine.
                let cols = (procs as f64).sqrt().ceil() as usize;
                let rows = procs.div_ceil(cols.max(1));
                Box::new(MeshNetwork::new(cols.max(1), rows.max(1), link_bits))
            }
            NetworkKind::Ring { link_bits } => Box::new(RingNetwork::new(procs.max(2), link_bits)),
            NetworkKind::HierMesh { link_bits } => {
                Box::new(HierMeshNetwork::new(procs.max(1), link_bits))
            }
        }
    }
}

/// Configuration of one simulated machine.
///
/// # Example
///
/// ```
/// use dirext_core::{Consistency, ProtocolKind};
/// use dirext_sim::{MachineConfig, NetworkKind};
///
/// let cfg = MachineConfig::new(16, ProtocolKind::PCw.config(Consistency::Rc))
///     .with_network(NetworkKind::Mesh { link_bits: 32 });
/// assert_eq!(cfg.procs, 16);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processor nodes (16 in the paper).
    pub procs: usize,
    /// Protocol configuration (BASIC + extensions + consistency model).
    pub protocol: ProtocolConfig,
    /// Directory organization — the sharer-set representation of every
    /// home's directory entries ([`DirOrg::FullMap`] is the paper's
    /// machine; the scalable organizations unlock machines past 64 nodes).
    /// Validated against `procs` when the machine runs: an infeasible pair
    /// surfaces as a structured `SimError::Config`, not a panic.
    pub dir_org: DirOrg,
    /// Node timing and capacity parameters.
    pub timing: Timing,
    /// Interconnection network.
    pub network: NetworkKind,
    /// Fault-injection plan applied on top of the network (`None` or an
    /// inactive plan leaves the topology untouched).
    pub fault_plan: Option<FaultPlan>,
    /// Whole-node crash/recovery schedule (`None` or an inactive plan
    /// keeps the machine on the exact fault-free code path). Validated
    /// against `procs` when the machine runs.
    pub node_fault_plan: Option<NodeFaultPlan>,
    /// Progress watchdog: abort with a diagnostic snapshot when no
    /// processor makes progress for this many pclocks (0 disables). Must
    /// exceed the longest legitimate quiet period of the workload (e.g. a
    /// single long `Compute` burst).
    pub watchdog_pclocks: u64,
    /// Sampled mid-run invariant audit: check structural invariants every
    /// this many simulation events (0 disables).
    pub audit_every: u64,
    /// Transition-trace ring capacity per controller (0 disables tracing).
    /// When on, every directory and cache state transition is recorded and
    /// replayed through the conformance checker at quiescence.
    pub trace_capacity: usize,
}

impl MachineConfig {
    /// Creates a configuration with the paper's default timing and the
    /// uniform network.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero, exceeds [`dirext_core::sharer::MAX_NODES`],
    /// or the protocol configuration is infeasible (CW under SC). Whether
    /// `procs` fits the configured *directory organization* (the full map
    /// stops at 64 nodes) is checked when the machine runs, yielding a
    /// structured [`crate::SimError::Config`] instead of a panic.
    pub fn new(procs: usize, protocol: ProtocolConfig) -> Self {
        assert!(
            procs > 0 && procs <= dirext_core::sharer::MAX_NODES,
            "1..={} processors supported",
            dirext_core::sharer::MAX_NODES
        );
        assert!(protocol.is_feasible(), "CW requires relaxed consistency");
        let timing = sc_buffers(&protocol, Timing::paper_default());
        MachineConfig {
            procs,
            protocol,
            dir_org: DirOrg::FullMap,
            timing,
            network: NetworkKind::Uniform,
            fault_plan: None,
            node_fault_plan: None,
            watchdog_pclocks: 1_000_000,
            audit_every: 0,
            trace_capacity: 0,
        }
    }

    /// The paper's 16-node machine.
    pub fn paper_default(protocol: ProtocolConfig) -> Self {
        Self::new(16, protocol)
    }

    /// Replaces the network model.
    pub fn with_network(mut self, network: NetworkKind) -> Self {
        self.network = network;
        self
    }

    /// Replaces the directory organization (the default is the paper's
    /// full-map presence vector).
    pub fn with_dir_org(mut self, org: DirOrg) -> Self {
        self.dir_org = org;
        self
    }

    /// Wraps the network in a fault-injection layer driven by `plan`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs a whole-node crash/recovery schedule.
    pub fn with_node_faults(mut self, plan: NodeFaultPlan) -> Self {
        self.node_fault_plan = Some(plan);
        self
    }

    /// Sets the progress-watchdog timeout in pclocks (0 disables).
    pub fn with_watchdog(mut self, pclocks: u64) -> Self {
        self.watchdog_pclocks = pclocks;
        self
    }

    /// Enables the sampled mid-run invariant audit every `events` events
    /// (0 disables).
    pub fn with_audit_every(mut self, events: u64) -> Self {
        self.audit_every = events;
        self
    }

    /// Enables transition tracing with a ring of `capacity` records per
    /// controller (0 disables). Traced runs are conformance-checked at
    /// quiescence.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Replaces the timing/capacity parameters (preserving the SC buffer
    /// sizing rule).
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = sc_buffers(&self.protocol, timing);
        self
    }
}

/// `timing` with the write buffers `protocol` runs with: unchanged under
/// RC, single entries under SC. "We implement sequential consistency by
/// stalling the processor for each issued shared memory reference until it
/// is globally performed. Therefore, a single entry suffices in the
/// FLWB... Under BASIC and M, a single entry is needed in the SLWB whereas,
/// in P, the SLWB must keep track of pending prefetch requests."
fn sc_buffers(protocol: &ProtocolConfig, mut timing: Timing) -> Timing {
    if protocol.consistency == Consistency::Sc {
        timing.flwb_entries = 1;
        timing.slwb_entries = if protocol.prefetch.is_some() {
            timing.slwb_entries.max(1)
        } else {
            1
        };
    }
    timing
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirext_core::ProtocolKind;

    #[test]
    fn sc_shrinks_buffers() {
        let cfg = MachineConfig::new(16, ProtocolKind::Basic.config(Consistency::Sc));
        assert_eq!(cfg.timing.flwb_entries, 1);
        assert_eq!(cfg.timing.slwb_entries, 1);
        let cfg = MachineConfig::new(16, ProtocolKind::P.config(Consistency::Sc));
        assert_eq!(cfg.timing.slwb_entries, 16, "P keeps room for prefetches");
    }

    #[test]
    fn rc_keeps_paper_buffers() {
        let cfg = MachineConfig::new(16, ProtocolKind::Basic.config(Consistency::Rc));
        assert_eq!(cfg.timing.flwb_entries, 8);
        assert_eq!(cfg.timing.slwb_entries, 16);
    }

    #[test]
    #[should_panic(expected = "relaxed consistency")]
    fn cw_under_sc_rejected() {
        let _ = MachineConfig::new(16, ProtocolKind::Cw.config(Consistency::Sc));
    }

    #[test]
    fn network_names_round_trip() {
        let names = NetworkKind::ALL.map(NetworkKind::cli_name);
        assert_eq!(
            names,
            [
                "uniform", "mesh64", "mesh32", "mesh16", "ring64", "ring32", "ring16", "hmesh64",
                "hmesh32", "hmesh16"
            ]
        );
        for (network, name) in NetworkKind::ALL.into_iter().zip(&names) {
            assert_eq!(NetworkKind::parse(name), Some(network));
        }
        assert_eq!(NetworkKind::parse("mesh8"), None);
        assert_eq!(NetworkKind::parse("Uniform"), None);
    }

    #[test]
    fn network_builders() {
        assert!(matches!(
            NetworkKind::Uniform.build(16).name(),
            "uniform-54"
        ));
        let mesh = NetworkKind::Mesh { link_bits: 16 }.build(16);
        assert_eq!(mesh.name(), "mesh4x4-16bit");
        let ring = NetworkKind::Ring { link_bits: 32 }.build(16);
        assert_eq!(ring.name(), "ring16-32bit");
    }
}
