//! Property-based whole-machine tests.
//!
//! The machine self-checks coherence invariants at quiescence (single
//! writer, presence-vector exactness, version/value coherence, drained
//! buffers); these properties throw randomized workloads at every protocol
//! and assert the run completes cleanly — any protocol race that corrupts
//! state surfaces as a `CoherenceViolation` or `Deadlock`.

use dirext_sim::core::config::{CompetitiveConfig, Consistency, PrefetchConfig, ProtocolConfig};
use dirext_sim::core::ProtocolKind;
use dirext_sim::memsys::Timing;
use dirext_sim::trace::{Addr, BarrierId, MemEvent, Program, Workload, BLOCK_BYTES};
use dirext_sim::{FaultPlan, Machine, MachineConfig};
use proptest::prelude::*;

const PROCS: usize = 4;

/// A random but *well-formed* workload: arbitrary reads/writes/computes on
/// a small block pool, critical sections on a lock pool, and a shared
/// barrier schedule.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let op = prop_oneof![
        (0u64..24).prop_map(|b| vec![MemEvent::Read(Addr::new(b * BLOCK_BYTES + 4 * (b % 8)))]),
        (0u64..24).prop_map(|b| vec![MemEvent::Write(Addr::new(b * BLOCK_BYTES + 4 * (b % 8)))]),
        (1u32..20).prop_map(|c| vec![MemEvent::Compute(c)]),
        // A critical section around a read-modify-write.
        (0u64..3, 0u64..24).prop_map(|(l, b)| {
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
    let proc_body = proptest::collection::vec(op, 0..40);
    let barriers = 0u32..3;
    (proptest::collection::vec(proc_body, PROCS), barriers).prop_map(|(bodies, nbars)| {
        let programs = bodies
            .into_iter()
            .map(|groups| {
                // Interleave the same barrier schedule into every program,
                // splitting only at *group* boundaries so critical sections
                // are never cut by a barrier.
                let mut events: Vec<MemEvent> = Vec::new();
                let per_chunk = groups.len() / (nbars as usize + 1) + 1;
                let mut emitted = 0u32;
                for (i, group) in groups.iter().enumerate() {
                    events.extend_from_slice(group);
                    if (i + 1) % per_chunk.max(1) == 0 && emitted < nbars {
                        events.push(MemEvent::Barrier(BarrierId(emitted)));
                        emitted += 1;
                    }
                }
                for i in emitted..nbars {
                    events.push(MemEvent::Barrier(BarrierId(i)));
                }
                Program::from_events(events)
            })
            .collect();
        Workload::new("random", programs)
    })
}

fn all_configs() -> Vec<ProtocolConfig> {
    let mut v = Vec::new();
    for kind in ProtocolKind::ALL {
        for c in [Consistency::Rc, Consistency::Sc] {
            let cfg = kind.config(c);
            if cfg.is_feasible() {
                v.push(cfg);
            }
        }
    }
    // Plus the ablation variants.
    v.push(ProtocolConfig {
        exclusive_clean: true,
        ..ProtocolKind::Basic.config(Consistency::Rc)
    });
    v.push(ProtocolConfig {
        exclusive_clean: true,
        ..ProtocolKind::PM.config(Consistency::Sc)
    });
    v.push(ProtocolConfig {
        consistency: Consistency::Rc,
        prefetch: Some(PrefetchConfig {
            initial_k: 4,
            adaptive: false,
        }),
        migratory: false,
        migratory_revert: true,
        exclusive_clean: false,
        competitive: Some(CompetitiveConfig {
            threshold: 4,
            write_cache: false,
        }),
    });
    v
}

/// A random survivable fault plan: lossy and noisy, but with enough
/// retransmission budget that runs converge.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u32..150, 0u32..100, 0u64..32).prop_map(|(seed, drop, dup, jitter)| FaultPlan {
        drop_permille: drop,
        dup_permille: dup,
        jitter_cycles: jitter,
        ..FaultPlan::seeded(seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every protocol preserves coherence on random well-formed workloads.
    #[test]
    fn all_protocols_preserve_coherence(w in arb_workload()) {
        for cfg in all_configs() {
            let label = cfg.label();
            let machine = Machine::new(MachineConfig::new(PROCS, cfg));
            machine.run(&w).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    /// Finite caches (16-KB SLC) preserve coherence through replacements,
    /// writebacks and their races.
    #[test]
    fn finite_caches_preserve_coherence(w in arb_workload()) {
        for kind in [ProtocolKind::Basic, ProtocolKind::P, ProtocolKind::Cw, ProtocolKind::PCwM] {
            let cfg = MachineConfig::new(PROCS, kind.config(Consistency::Rc))
                .with_timing(Timing::paper_default().with_limited_slc());
            Machine::new(cfg).run(&w).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    /// Simulation is a pure function of (workload, config).
    #[test]
    fn runs_are_deterministic(w in arb_workload()) {
        let cfg = ProtocolKind::PCwM.config(Consistency::Rc);
        let a = Machine::new(MachineConfig::new(PROCS, cfg.clone())).run(&w).unwrap();
        let b = Machine::new(MachineConfig::new(PROCS, cfg)).run(&w).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Every protocol extension preserves all quiescence invariants (single
    /// writer, presence exactness, version coherence, drained buffers,
    /// inclusion — checked inside `run`) when the network drops, duplicates
    /// and delays messages, with the mid-run structural audit sampling the
    /// machine along the way.
    #[test]
    fn faulty_networks_preserve_coherence((w, plan) in (arb_workload(), arb_fault_plan())) {
        for kind in [ProtocolKind::P, ProtocolKind::M, ProtocolKind::Cw] {
            let cfg = MachineConfig::new(PROCS, kind.config(Consistency::Rc))
                .with_faults(plan)
                .with_audit_every(128);
            Machine::new(cfg)
                .run(&w)
                .unwrap_or_else(|e| panic!("{kind} under {plan:?}: {e}"));
        }
    }

    /// The fault schedule is a pure function of the plan's seed: re-running
    /// with the same plan reproduces byte-identical metrics, fault counters
    /// included.
    #[test]
    fn fault_schedules_are_deterministic((w, plan) in (arb_workload(), arb_fault_plan())) {
        let cfg = || MachineConfig::new(PROCS, ProtocolKind::PCwM.config(Consistency::Rc))
            .with_faults(plan);
        let a = Machine::new(cfg()).run(&w).unwrap();
        let b = Machine::new(cfg()).run(&w).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Reference counts are conserved: every processor-issued shared
    /// reference is observed exactly once by the memory system.
    #[test]
    fn reference_conservation(w in arb_workload()) {
        let m = Machine::new(MachineConfig::new(PROCS, ProtocolKind::Basic.config(Consistency::Rc)))
            .run(&w)
            .unwrap();
        let issued: usize = w.total_data_refs();
        // Reads are serviced by the FLC or by the SLC path; writes always
        // flow through the write buffer to the SLC.
        prop_assert_eq!((m.shared_reads + m.flc_hits + m.shared_writes) as usize, issued);
        // Misses classify completely.
        prop_assert_eq!(m.slc_misses, m.cold_misses + m.coh_misses + m.repl_misses);
    }
}
