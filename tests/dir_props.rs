//! Directory-organization properties.
//!
//! Two families of guarantees pin the scalable sharer-set layers
//! (`dirext_core::sharer`) to the full-map reference:
//!
//! * **Differential oracle** — while an organization's sharer set stays
//!   exact (a limited-pointer directory whose pointer capacity is never
//!   exceeded, a coarse vector with one node per region), the machine must
//!   be *indistinguishable* from the full map: identical metrics, event by
//!   event, on random workloads under every protocol configuration. Any
//!   divergence means an organization perturbs the protocol even when its
//!   representation loses nothing.
//! * **Overflow conformance** — once the set does over-approximate
//!   (pointer overflow, shared regions, directoryless broadcast), runs
//!   must still complete cleanly: the quiescence coherence audit accepts
//!   them, every recorded transition replays through the declarative
//!   tables, and fault injection cannot manufacture an illegal transition
//!   out of the broadcast/recall paths.

use dirext_sim::core::config::Consistency;
use dirext_sim::core::proto::check_trace;
use dirext_sim::core::sharer::DirOrg;
use dirext_sim::core::ProtocolKind;
use dirext_sim::trace::{Addr, BarrierId, MemEvent, Program, Workload, BLOCK_BYTES};
use dirext_sim::{FaultPlan, Machine, MachineConfig};
use proptest::prelude::*;

const RING: usize = 1 << 16;

/// Organizations that remain exact on a `procs`-node machine as long as
/// the run never overflows a directory entry: limited pointers with
/// capacity ≥ the node count (no overflow is possible) and the one-node
/// region coarse vector.
fn exact_orgs(procs: usize) -> Vec<DirOrg> {
    vec![
        DirOrg::LimitedPtr {
            ptrs: procs as u8,
            broadcast: true,
        },
        DirOrg::LimitedPtr {
            ptrs: procs as u8,
            broadcast: false,
        },
        DirOrg::CoarseVector { region: 1 },
    ]
}

/// Organizations guaranteed to over-approximate on an 8-node machine:
/// 2-pointer directories overflow at the third sharer, 4-node regions
/// multicast, and the directoryless flag always broadcasts.
const OVERFLOW_ORGS: [DirOrg; 4] = [
    DirOrg::LimitedPtr {
        ptrs: 2,
        broadcast: true,
    },
    DirOrg::LimitedPtr {
        ptrs: 2,
        broadcast: false,
    },
    DirOrg::CoarseVector { region: 4 },
    DirOrg::Directoryless,
];

/// A random well-formed workload over a small block pool — the same shape
/// as `coherence_props`, with read-mostly sharing so sharer sets grow wide
/// enough to overflow small directories.
fn arb_workload(procs: usize) -> impl Strategy<Value = Workload> {
    // Reads appear twice to bias toward wide read-sharing, which is what
    // grows sharer sets to the overflow point.
    let op = prop_oneof![
        (0u64..12).prop_map(|b| vec![MemEvent::Read(Addr::new(b * BLOCK_BYTES + 4 * (b % 8)))]),
        (0u64..12).prop_map(|b| vec![MemEvent::Read(Addr::new(b * BLOCK_BYTES))]),
        (0u64..12).prop_map(|b| vec![MemEvent::Write(Addr::new(b * BLOCK_BYTES + 4 * (b % 8)))]),
        (1u32..12).prop_map(|c| vec![MemEvent::Compute(c)]),
        (0u64..2, 0u64..12).prop_map(|(l, b)| {
            let lock = Addr::new((1 << 20) + l * BLOCK_BYTES);
            let a = Addr::new(b * BLOCK_BYTES);
            vec![
                MemEvent::Acquire(lock),
                MemEvent::Read(a),
                MemEvent::Write(a),
                MemEvent::Release(lock),
            ]
        }),
    ];
    let proc_body = proptest::collection::vec(op, 0..30);
    (proptest::collection::vec(proc_body, procs), 0u32..2).prop_map(|(bodies, nbars)| {
        let programs = bodies
            .into_iter()
            .map(|groups| {
                let mut events: Vec<MemEvent> = groups.concat();
                for i in 0..nbars {
                    events.push(MemEvent::Barrier(BarrierId(i)));
                }
                Program::from_events(events)
            })
            .collect();
        Workload::new("random", programs)
    })
}

/// A survivable fault plan, as in `conformance_props`.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u32..120, 0u32..80, 0u64..24).prop_map(|(seed, drop, dup, jitter)| FaultPlan {
        drop_permille: drop,
        dup_permille: dup,
        jitter_cycles: jitter,
        ..FaultPlan::seeded(seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The differential oracle: exact organizations are metric-identical
    /// to the full map under every protocol configuration, and their
    /// overflow machinery never fires.
    #[test]
    fn exact_organizations_match_the_full_map(w in arb_workload(4)) {
        for kind in ProtocolKind::ALL {
            let reference = Machine::new(MachineConfig::new(4, kind.config(Consistency::Rc)))
                .run(&w)
                .unwrap_or_else(|e| panic!("{kind}/full: {e}"));
            for org in exact_orgs(4) {
                let cfg = MachineConfig::new(4, kind.config(Consistency::Rc)).with_dir_org(org);
                let m = Machine::new(cfg)
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{kind}/{}: {e}", org.cli_name()));
                prop_assert!(
                    m.dir_overflows + m.dir_broadcasts + m.dir_recalls == 0,
                    "{}/{} cannot overflow at 4 nodes",
                    kind,
                    org.cli_name()
                );
                prop_assert!(
                    m == reference,
                    "{}/{} diverged from the full map",
                    kind,
                    org.cli_name()
                );
            }
        }
    }

    /// Over-approximating organizations finish random workloads cleanly
    /// under all eight paper configurations, and every recorded transition
    /// replays through the declarative tables.
    #[test]
    fn overflowing_organizations_conform(w in arb_workload(8)) {
        for kind in ProtocolKind::ALL {
            for org in OVERFLOW_ORGS {
                let cfg = MachineConfig::new(8, kind.config(Consistency::Rc))
                    .with_dir_org(org)
                    .with_trace(RING);
                let (_, records, layers) = Machine::new(cfg)
                    .run_traced(&w)
                    .unwrap_or_else(|e| panic!("{kind}/{}: {e}", org.cli_name()));
                let violations = check_trace(records.iter(), layers);
                prop_assert!(
                    violations.is_empty(),
                    "{}/{}: {}",
                    kind,
                    org.cli_name(),
                    violations.iter().map(|v| v.render()).collect::<Vec<_>>().join("; ")
                );
            }
        }
    }

    /// Fault injection reorders protocol races around the broadcast and
    /// recall paths without corrupting coherence (the quiescence audit is
    /// the oracle; tracing stays off to keep the fast paths armed).
    #[test]
    fn overflowing_organizations_survive_faults(
        (w, plan) in (arb_workload(8), arb_fault_plan())
    ) {
        for kind in [ProtocolKind::Basic, ProtocolKind::P, ProtocolKind::Cw, ProtocolKind::PCwM] {
            for org in OVERFLOW_ORGS {
                let cfg = MachineConfig::new(8, kind.config(Consistency::Rc))
                    .with_dir_org(org)
                    .with_faults(plan);
                Machine::new(cfg)
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{kind}/{} under {plan:?}: {e}", org.cli_name()));
            }
        }
    }
}

/// A deterministic widely-shared read pattern: every node reads the same
/// blocks, then one node writes them, forcing the directory to invalidate
/// a sharer set wider than any small pointer cache.
fn wide_sharing(procs: usize) -> Workload {
    let programs = (0..procs)
        .map(|p| {
            let mut events = Vec::new();
            for b in 0..4u64 {
                events.push(MemEvent::Read(Addr::new(b * BLOCK_BYTES)));
            }
            events.push(MemEvent::Barrier(BarrierId(0)));
            if p == 0 {
                for b in 0..4u64 {
                    events.push(MemEvent::Write(Addr::new(b * BLOCK_BYTES)));
                }
            }
            Program::from_events(events)
        })
        .collect();
    Workload::new("wide-sharing", programs)
}

/// The overflow counters are live, and each organization fires the branch
/// its name promises: Dir_2_B broadcasts, Dir_2_NB recalls, directoryless
/// broadcasts without ever counting an overflow, and the full map does
/// neither.
#[test]
fn overflow_counters_attribute_the_mechanism() {
    let w = wide_sharing(8);
    let run = |org: DirOrg| {
        let cfg =
            MachineConfig::new(8, ProtocolKind::Basic.config(Consistency::Rc)).with_dir_org(org);
        Machine::new(cfg).run(&w).expect("wide-sharing run")
    };

    let full = run(DirOrg::FullMap);
    assert_eq!(full.dir_overflows, 0);
    assert_eq!(full.dir_broadcasts, 0);
    assert_eq!(full.dir_recalls, 0);

    let b = run(DirOrg::LimitedPtr {
        ptrs: 2,
        broadcast: true,
    });
    assert!(b.dir_overflows > 0, "8 sharers must overflow 2 pointers");
    assert!(b.dir_broadcasts > 0, "Dir_2_B degrades to broadcast");
    assert_eq!(b.dir_recalls, 0, "Dir_2_B never recalls");

    let nb = run(DirOrg::LimitedPtr {
        ptrs: 2,
        broadcast: false,
    });
    assert!(nb.dir_overflows > 0);
    assert!(nb.dir_recalls > 0, "Dir_2_NB evicts a tracked copy");
    assert_eq!(nb.dir_broadcasts, 0, "Dir_2_NB never broadcasts");

    let none = run(DirOrg::Directoryless);
    assert!(none.dir_broadcasts > 0, "directoryless always broadcasts");
    assert_eq!(
        none.dir_overflows, 0,
        "a one-flag organization has nothing to overflow"
    );
}

/// The exactness boundary itself: at 8 nodes a 2-pointer directory
/// diverges from the full map (it must pay broadcast or recall traffic),
/// so the differential oracle above is not vacuously green.
#[test]
fn inexact_organization_actually_diverges() {
    let w = wide_sharing(8);
    let full = Machine::new(MachineConfig::new(
        8,
        ProtocolKind::Basic.config(Consistency::Rc),
    ))
    .run(&w)
    .expect("full-map run");
    let ptr2 = Machine::new(
        MachineConfig::new(8, ProtocolKind::Basic.config(Consistency::Rc)).with_dir_org(
            DirOrg::LimitedPtr {
                ptrs: 2,
                broadcast: true,
            },
        ),
    )
    .run(&w)
    .expect("ptr2b run");
    assert!(ptr2 != full, "overflow must be observable in the metrics");
}
