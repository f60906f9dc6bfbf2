//! Whole-machine behavioural tests on hand-built micro-workloads.

use dirext_core::config::{CompetitiveConfig, Consistency, ProtocolConfig};
use dirext_core::sharer::DirOrg;
use dirext_core::ProtocolKind;
use dirext_trace::{
    Addr, BarrierId, MemEvent, NodeId, Program, ProgramBuilder, Workload, BLOCK_BYTES,
};

use crate::{
    FaultPlan, Machine, MachineConfig, NetworkKind, NodeFaultEvent, NodeFaultPlan, SimError,
};

fn run(cfg: MachineConfig, w: &Workload) -> dirext_stats::Metrics {
    Machine::new(cfg).run(w).expect("simulation must succeed")
}

fn uni(kind: ProtocolKind, c: Consistency, procs: usize) -> MachineConfig {
    MachineConfig::new(procs, kind.config(c))
}

/// All processors idle except one that streams through an array.
fn stream_workload(procs: usize, blocks: u64, writes: bool) -> Workload {
    let mut programs = vec![Program::new(); procs];
    let mut b = ProgramBuilder::new().with_pace(2);
    for i in 0..blocks {
        let a = Addr::new(i * BLOCK_BYTES);
        b.read(a);
        if writes {
            b.write(a);
        }
    }
    programs[0] = b.build();
    Workload::new("stream", programs)
}

#[test]
fn single_reader_cold_misses_only() {
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &stream_workload(4, 64, false),
    );
    assert_eq!(m.shared_reads, 64);
    assert_eq!(m.slc_misses, 64);
    assert_eq!(m.cold_misses, 64);
    assert_eq!(m.coh_misses, 0);
    assert!(m.exec_cycles > 0);
}

#[test]
fn reads_after_writes_hit() {
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &stream_workload(4, 32, true),
    );
    assert_eq!(m.shared_writes, 32);
    // Each block: one read miss; the write hits the now-shared copy and
    // upgrades it.
    assert_eq!(m.slc_misses, 32);
    assert_eq!(m.ownership_reqs, 32);
}

#[test]
fn prefetching_cuts_cold_misses_on_streams() {
    let base = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &stream_workload(4, 256, false),
    );
    let pf = run(
        uni(ProtocolKind::P, Consistency::Rc, 4),
        &stream_workload(4, 256, false),
    );
    assert!(
        pf.slc_misses * 3 < base.slc_misses,
        "prefetching must cut sequential misses: {} vs {}",
        pf.slc_misses,
        base.slc_misses
    );
    assert!(pf.prefetches_issued > 100);
    assert!(pf.prefetch_efficiency() > 0.8);
    assert!(pf.exec_cycles < base.exec_cycles);
}

/// Two processors increment a shared counter in turn, through a lock.
fn migratory_workload(procs: usize, active: usize, rounds: usize) -> Workload {
    let lock = Addr::new(1 << 20);
    let counter = Addr::new(0);
    let programs = (0..procs)
        .map(|i| {
            let mut b = ProgramBuilder::new();
            if i < active {
                for _ in 0..rounds {
                    b.critical(lock, |b| {
                        b.rmw(counter);
                    });
                    b.compute(20);
                }
            }
            b.build()
        })
        .collect();
    Workload::new("migratory", programs)
}

#[test]
fn migratory_optimization_eliminates_ownership_requests() {
    let base = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &migratory_workload(4, 2, 50),
    );
    let mig = run(
        uni(ProtocolKind::M, Consistency::Rc, 4),
        &migratory_workload(4, 2, 50),
    );
    assert!(
        base.ownership_reqs >= 90,
        "baseline must ping-pong: {}",
        base.ownership_reqs
    );
    assert!(
        mig.ownership_reqs * 10 < base.ownership_reqs,
        "M must eliminate most ownership requests: {} vs {}",
        mig.ownership_reqs,
        base.ownership_reqs
    );
    assert!(mig.migratory_detections >= 1);
    assert!(mig.exclusive_grants > 50);
}

#[test]
fn migratory_under_sc_cuts_write_stall() {
    let base = run(
        uni(ProtocolKind::Basic, Consistency::Sc, 4),
        &migratory_workload(4, 2, 50),
    );
    let mig = run(
        uni(ProtocolKind::M, Consistency::Sc, 4),
        &migratory_workload(4, 2, 50),
    );
    assert!(base.stalls.write > 0);
    assert!(
        (mig.stalls.write as f64) < 0.5 * base.stalls.write as f64,
        "M under SC must cut write stall: {} vs {}",
        mig.stalls.write,
        base.stalls.write
    );
    assert!(mig.exec_cycles < base.exec_cycles);
}

/// A producer writes a flag region every round; consumers read it. This is
/// pure coherence-miss traffic under write-invalidate.
fn producer_consumer(procs: usize, rounds: u32) -> Workload {
    let data = Addr::new(0);
    let programs = (0..procs)
        .map(|i| {
            let mut b = ProgramBuilder::new();
            for r in 0..rounds {
                if i == 0 {
                    b.write(data);
                }
                b.barrier(BarrierId(2 * r));
                b.read(data);
                b.barrier(BarrierId(2 * r + 1));
            }
            b.build()
        })
        .collect();
    Workload::new("producer-consumer", programs)
}

#[test]
fn competitive_update_eliminates_coherence_misses() {
    let base = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &producer_consumer(4, 30),
    );
    let cw = run(
        uni(ProtocolKind::Cw, Consistency::Rc, 4),
        &producer_consumer(4, 30),
    );
    assert!(
        base.coh_misses > 50,
        "baseline must show coherence misses: {}",
        base.coh_misses
    );
    assert!(
        cw.coh_misses * 10 < base.coh_misses,
        "CW must eliminate coherence misses: {} vs {}",
        cw.coh_misses,
        base.coh_misses
    );
    assert!(cw.update_reqs > 0);
    assert!(cw.stalls.read < base.stalls.read);
}

#[test]
fn competitive_counter_stops_updates_to_idle_consumers() {
    // Node 0 writes many times; node 1 reads once at the start and never
    // again. With threshold 1 its copy self-invalidates after one update
    // and stops receiving traffic.
    let data = Addr::new(0);
    let mut p0 = ProgramBuilder::new();
    let mut p1 = ProgramBuilder::new();
    p1.read(data);
    p1.barrier(BarrierId(0));
    p0.barrier(BarrierId(0));
    for _ in 0..50 {
        p0.write(data);
        // A release flushes the write cache so each round issues an update.
        let lock = Addr::new(1 << 20);
        p0.critical(lock, |_| {});
    }
    let w = Workload::new("idle-consumer", vec![p0.build(), p1.build()]);
    let m = run(uni(ProtocolKind::Cw, Consistency::Rc, 2), &w);
    // Only the first two updates reach node 1 (the first is absorbed, the
    // second finds the counter exhausted and invalidates the copy); the
    // presence bit is then cleared and propagation stops.
    assert!(m.update_reqs >= 50);
    assert_eq!(m.updates_fanned_out, 2, "updates must stop propagating");
}

#[test]
fn barriers_synchronize_all_processors() {
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 8),
        &producer_consumer(8, 10),
    );
    assert_eq!(m.barrier_episodes, 20);
    assert!(m.stalls.acquire > 0);
}

#[test]
fn locks_serialize_critical_sections() {
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &migratory_workload(4, 4, 10),
    );
    assert_eq!(m.lock_acquires, 40);
    assert!(
        m.stalls.acquire > 0,
        "contended lock must show acquire stall"
    );
}

#[test]
fn sc_is_slower_than_rc() {
    let w = migratory_workload(4, 4, 25);
    let rc = run(uni(ProtocolKind::Basic, Consistency::Rc, 4), &w);
    let sc = run(uni(ProtocolKind::Basic, Consistency::Sc, 4), &w);
    assert!(
        sc.exec_cycles > rc.exec_cycles,
        "SC must be slower: {} vs {}",
        sc.exec_cycles,
        rc.exec_cycles
    );
    assert_eq!(rc.stalls.write, 0, "RC hides the write latency");
    assert!(sc.stalls.write > 0);
}

#[test]
fn mesh_networks_run_and_narrow_links_are_slower() {
    let w = producer_consumer(8, 10);
    let wide = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 8)
            .with_network(NetworkKind::Mesh { link_bits: 64 }),
        &w,
    );
    let narrow = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 8)
            .with_network(NetworkKind::Mesh { link_bits: 16 }),
        &w,
    );
    assert!(narrow.exec_cycles >= wide.exec_cycles);
    assert_eq!(
        wide.net_msgs, narrow.net_msgs,
        "traffic is protocol-determined"
    );
}

#[test]
fn ring_network_runs_and_is_slower_than_uniform() {
    let w = producer_consumer(8, 10);
    let uniform = run(uni(ProtocolKind::Basic, Consistency::Rc, 8), &w);
    let ring = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 8)
            .with_network(NetworkKind::Ring { link_bits: 16 }),
        &w,
    );
    assert!(ring.exec_cycles > 0);
    assert_eq!(
        uniform.net_msgs, ring.net_msgs,
        "traffic is protocol-determined"
    );
}

#[test]
fn finite_slc_produces_replacement_misses() {
    use dirext_memsys::Timing;
    // Stream over 4x the 16-KB SLC, twice.
    let blocks = 2 * 16 * 1024 / BLOCK_BYTES;
    let mut b = ProgramBuilder::new();
    for round in 0..2 {
        let _ = round;
        for i in 0..blocks {
            b.read(Addr::new(i * BLOCK_BYTES));
        }
    }
    let mut programs = vec![Program::new(); 2];
    programs[0] = b.build();
    let w = Workload::new("capacity", programs);
    let cfg = MachineConfig::new(2, ProtocolKind::Basic.config(Consistency::Rc))
        .with_timing(Timing::paper_default().with_limited_slc());
    let m = run(cfg, &w);
    assert!(m.repl_misses > 0, "16-KB SLC must replace");
    assert_eq!(m.slc_misses, m.cold_misses + m.coh_misses + m.repl_misses);
}

#[test]
fn finite_slc_with_dirty_evictions_stays_coherent() {
    use dirext_memsys::Timing;
    let blocks = 2 * 16 * 1024 / BLOCK_BYTES;
    let mut b = ProgramBuilder::new();
    for i in 0..blocks {
        let a = Addr::new(i * BLOCK_BYTES);
        b.read(a);
        b.write(a);
    }
    let mut programs = vec![Program::new(); 2];
    programs[0] = b.build();
    let w = Workload::new("dirty-capacity", programs);
    let cfg = MachineConfig::new(2, ProtocolKind::Basic.config(Consistency::Rc))
        .with_timing(Timing::paper_default().with_limited_slc());
    let m = run(cfg, &w);
    assert!(m.writebacks > 0, "dirty evictions must write back");
}

#[test]
fn pcw_combines_additively_on_mixed_workload() {
    // Streaming (cold misses) + producer-consumer (coherence misses).
    let procs = 4;
    let shared_flag = Addr::new(1 << 16);
    let programs = (0..procs)
        .map(|i| {
            let mut b = ProgramBuilder::new();
            for r in 0..10u32 {
                if i == 0 {
                    b.write(shared_flag);
                }
                b.barrier(BarrierId(r));
                b.read(shared_flag);
                // Each processor also streams its own region.
                let base = Addr::new((1 << 20) * (i as u64 + 1) + u64::from(r) * 16 * BLOCK_BYTES);
                b.read_blocks(base, 16 * BLOCK_BYTES);
            }
            b.build()
        })
        .collect();
    let w = Workload::new("mixed", programs);
    let base = run(uni(ProtocolKind::Basic, Consistency::Rc, procs), &w);
    let pcw = run(uni(ProtocolKind::PCw, Consistency::Rc, procs), &w);
    assert!(
        pcw.cold_misses * 2 < base.cold_misses,
        "P part must cut cold misses"
    );
    assert!(
        pcw.coh_misses * 2 < base.coh_misses,
        "CW part must cut coherence misses"
    );
}

#[test]
fn deterministic_across_runs() {
    let w = migratory_workload(4, 4, 20);
    let a = run(uni(ProtocolKind::PCwM, Consistency::Rc, 4), &w);
    let b = run(uni(ProtocolKind::PCwM, Consistency::Rc, 4), &w);
    assert_eq!(
        a, b,
        "same workload + config must reproduce identical metrics"
    );
}

#[test]
fn all_protocols_run_all_micro_workloads() {
    for kind in ProtocolKind::ALL {
        for c in [Consistency::Rc, Consistency::Sc] {
            if !kind.config(c).is_feasible() {
                continue;
            }
            for w in [
                stream_workload(4, 32, true),
                migratory_workload(4, 3, 10),
                producer_consumer(4, 5),
            ] {
                let m = run(uni(kind, c, 4), &w);
                assert!(m.exec_cycles > 0, "{kind} {c:?} {}", w.name());
            }
        }
    }
}

#[test]
fn mismatched_procs_rejected() {
    let w = stream_workload(4, 4, false);
    let err = Machine::new(uni(ProtocolKind::Basic, Consistency::Rc, 8)).run(&w);
    assert_eq!(
        err.unwrap_err(),
        SimError::ProcMismatch {
            machine: 8,
            workload: 4
        }
    );
}

#[test]
fn invalid_workload_rejected() {
    let w = Workload::new(
        "bad",
        vec![Program::from_events(vec![MemEvent::Release(Addr::new(0))])],
    );
    let err = Machine::new(uni(ProtocolKind::Basic, Consistency::Rc, 1)).run(&w);
    assert!(matches!(err.unwrap_err(), SimError::Workload(_)));
}

#[test]
fn cw_without_write_cache_uses_threshold_four() {
    let proto = ProtocolConfig {
        consistency: Consistency::Rc,
        prefetch: None,
        migratory: false,
        migratory_revert: true,
        exclusive_clean: false,
        competitive: Some(CompetitiveConfig {
            threshold: 4,
            write_cache: false,
        }),
    };
    let m = run(MachineConfig::new(4, proto), &producer_consumer(4, 10));
    assert!(m.exec_cycles > 0);
    assert!(m.update_reqs > 0);
}

#[test]
fn non_square_machine_sizes_run_on_the_mesh() {
    // 32 processors -> a 6x6 mesh covers the machine; node ids above 15
    // must route correctly.
    let w = dirext_workloads::micro::producer_consumer(32, 1, 4);
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 32)
            .with_network(NetworkKind::Mesh { link_bits: 32 }),
        &w,
    );
    assert!(m.exec_cycles > 0);
    assert_eq!(m.barrier_episodes, 8);
}

#[test]
fn phase_profile_records_barrier_epochs() {
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &producer_consumer(4, 5),
    );
    // 10 barrier episodes -> 10 completion stamps in increasing order.
    assert_eq!(m.barrier_completion_cycles.len(), 10);
    assert!(m.barrier_completion_cycles.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(m.phase_durations().len(), 10);
    let total: u64 = m.phase_durations().iter().sum();
    assert_eq!(total, *m.barrier_completion_cycles.last().unwrap());
}

#[test]
fn per_proc_stalls_expose_load_imbalance() {
    // One busy processor, three idle: imbalance must approach procs count.
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &stream_workload(4, 64, false),
    );
    assert_eq!(m.per_proc_stalls.len(), 4);
    assert!(m.load_imbalance() > 3.0, "imbalance {}", m.load_imbalance());
    // A symmetric workload is nearly balanced.
    let w = dirext_workloads::micro::lock_contention(4, 10);
    let m = run(uni(ProtocolKind::Basic, Consistency::Rc, 4), &w);
    assert!(m.load_imbalance() < 1.5, "imbalance {}", m.load_imbalance());
}

/// A plan aggressive enough to exercise every fault path (drops that need
/// retransmission, duplicates, delay jitter) while staying survivable.
fn rough_weather(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_permille: 100,
        dup_permille: 50,
        jitter_cycles: 16,
        ..FaultPlan::seeded(seed)
    }
}

/// A stream placed on processor 1 while the blocks' home is node 0, so
/// every miss crosses the (faulty) network.
fn remote_stream_workload(procs: usize, blocks: u64) -> Workload {
    let mut programs = vec![Program::new(); procs];
    let mut b = ProgramBuilder::new().with_pace(2);
    for i in 0..blocks {
        let a = Addr::new(i * BLOCK_BYTES);
        b.read(a);
        b.write(a);
    }
    programs[1] = b.build();
    Workload::new("remote-stream", programs)
}

#[test]
fn workloads_complete_under_fault_injection() {
    // Drops, duplicates and jitter across every protocol family and both
    // consistency models: the run must still complete, pass the quiescence
    // invariants (checked inside `run`), and actually exercise the fault
    // machinery.
    for (kind, c) in [
        (ProtocolKind::Basic, Consistency::Rc),
        (ProtocolKind::Basic, Consistency::Sc),
        (ProtocolKind::PCwM, Consistency::Rc),
    ] {
        for w in [
            remote_stream_workload(4, 32),
            migratory_workload(4, 3, 10),
            producer_consumer(4, 5),
        ] {
            let cfg = uni(kind, c, 4).with_faults(rough_weather(7));
            let m = run(cfg, &w);
            assert!(m.exec_cycles > 0, "{kind} {c:?} {}", w.name());
            assert!(
                m.fault_retransmitted > 0,
                "{kind} {c:?} {}: drops must force retransmissions",
                w.name()
            );
            assert_eq!(
                m.fault_lost,
                0,
                "{kind} {c:?} {}: the retry budget must absorb all drops",
                w.name()
            );
        }
    }
}

#[test]
fn fault_injection_is_deterministic() {
    let w = migratory_workload(4, 4, 20);
    let cfg = || uni(ProtocolKind::PCwM, Consistency::Rc, 4).with_faults(rough_weather(42));
    let a = run(cfg(), &w);
    let b = run(cfg(), &w);
    assert_eq!(a, b, "same fault seed must reproduce identical metrics");
    let other = run(
        uni(ProtocolKind::PCwM, Consistency::Rc, 4).with_faults(rough_weather(43)),
        &w,
    );
    assert_ne!(
        (a.fault_delayed, a.fault_retransmitted, a.fault_duplicated),
        (
            other.fault_delayed,
            other.fault_retransmitted,
            other.fault_duplicated
        ),
        "a different seed must draw a different fault schedule"
    );
}

#[test]
fn duplicated_sync_messages_do_not_break_lock_counts() {
    // Duplication only (no drops): every duplicated acquire, release,
    // grant, and barrier arrival must be recognized as stale, leaving the
    // protocol-determined synchronization counts exactly as in a clean run.
    let w = migratory_workload(4, 4, 10);
    let plan = FaultPlan {
        dup_permille: 300,
        jitter_cycles: 32,
        ..FaultPlan::seeded(11)
    };
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4).with_faults(plan),
        &w,
    );
    assert_eq!(m.lock_acquires, 40);
    assert!(m.fault_duplicated > 0);
    assert!(m.stale_drops > 0, "duplicates must be caught as stale");
}

#[test]
fn wedged_run_trips_the_watchdog_with_a_diagnosis() {
    // Drop every message with no retransmission budget: the first remote
    // request is lost forever and the machine can make no progress. The
    // watchdog must convert that hang into a structured error naming the
    // stuck processors.
    let plan = FaultPlan {
        drop_permille: 1000,
        retry_budget: 0,
        ..FaultPlan::seeded(3)
    };
    let cfg = uni(ProtocolKind::Basic, Consistency::Rc, 4)
        .with_faults(plan)
        .with_watchdog(50_000);
    let err = Machine::new(cfg).run(&migratory_workload(4, 4, 5));
    match err.unwrap_err() {
        SimError::Watchdog { detail } => {
            assert!(detail.contains("no progress"), "{detail}");
            // The lock and counter are homed at node 0, so node 0 runs to
            // completion on local traffic; the others wedge on the acquire.
            assert!(detail.contains("n1@"), "must name a stuck node: {detail}");
            assert!(
                detail.contains("lost"),
                "must report lost messages: {detail}"
            );
        }
        other => panic!("expected a watchdog trip, got {other:?}"),
    }
}

#[test]
fn midrun_audit_is_clean_on_every_protocol() {
    for kind in [ProtocolKind::Basic, ProtocolKind::PCwM] {
        let cfg = uni(kind, Consistency::Rc, 4)
            .with_faults(rough_weather(5))
            .with_audit_every(64);
        let m = run(cfg, &migratory_workload(4, 3, 10));
        assert!(m.exec_cycles > 0);
    }
}

// ---------------------------------------------------------------------------
// Whole-node crash/recovery (NodeFaultPlan).
// ---------------------------------------------------------------------------

/// Crash two barrier peers mid-run. The run must complete, pass the
/// quiescence invariants (checked inside `run`), and show the whole
/// recovery pipeline firing: crashes, epoch-fenced drops, directory
/// purges, and re-admissions.
#[test]
fn node_crashes_recover_and_the_run_completes() {
    let rounds = 200;
    let w = producer_consumer(8, rounds);
    let plan = NodeFaultPlan {
        events: vec![
            NodeFaultEvent {
                node: NodeId(3),
                crash_at: 3_000,
                recover_at: 9_000,
            },
            NodeFaultEvent {
                node: NodeId(5),
                crash_at: 15_000,
                recover_at: 22_000,
            },
        ],
        detect_delay: 400,
    };
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 8).with_node_faults(plan),
        &w,
    );
    assert_eq!(m.node_crashes, 2);
    assert_eq!(m.node_recoveries, 2);
    assert!(
        m.crash_drops > 0,
        "messages addressed to (or sent by) a dead incarnation must drop"
    );
    // Every barrier episode still completes: the recovered node re-executes
    // its interrupted arrival.
    assert_eq!(m.barrier_episodes, u64::from(2 * rounds));
}

/// Crash a node that holds read-shared copies: the sharer sets stably list
/// it (no writer ever invalidates), so the reconstruction sweep must find
/// and purge it from every entry.
#[test]
fn reconstruction_purges_the_dead_sharer() {
    let blocks = 8u64;
    let programs = (0..4)
        .map(|_| {
            let mut b = ProgramBuilder::new().with_pace(2);
            for _ in 0..100 {
                for i in 0..blocks {
                    b.read(Addr::new(i * BLOCK_BYTES));
                }
                b.compute(10);
            }
            b.build()
        })
        .collect();
    let w = Workload::new("read-shared", programs);
    let plan = NodeFaultPlan {
        events: vec![NodeFaultEvent {
            node: NodeId(2),
            crash_at: 2_000,
            recover_at: 6_000,
        }],
        detect_delay: 300,
    };
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4).with_node_faults(plan),
        &w,
    );
    assert_eq!(m.node_crashes, 1);
    assert!(
        m.dir_purged_sharers >= 1,
        "the dead node must be purged from the read-shared sharer sets: {}",
        m.dir_purged_sharers
    );
}

/// A node crashes while it owns dirty remote blocks: the only up-to-date
/// copies die with it. Reconstruction must reclaim the orphaned directory
/// entries to memory and account every lost block.
#[test]
fn crashing_a_dirty_owner_reclaims_orphans_and_counts_data_loss() {
    let w = remote_stream_workload(4, 64);
    let plan = NodeFaultPlan {
        events: vec![NodeFaultEvent {
            node: NodeId(1),
            crash_at: 6_000,
            recover_at: 20_000,
        }],
        detect_delay: 500,
    };
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4).with_node_faults(plan),
        &w,
    );
    assert_eq!(m.node_crashes, 1);
    assert_eq!(m.node_recoveries, 1);
    assert!(
        m.data_loss_blocks > 0,
        "dirty lines wiped by the crash must be accounted as lost"
    );
    assert!(
        m.dir_orphan_reclaims > 0,
        "MODIFIED entries owned by the dead node must be reclaimed to memory"
    );
    // The recovered node re-runs its interrupted stream to completion (the
    // re-executed instruction may count its write a second time).
    assert!(m.shared_writes >= 64, "writes: {}", m.shared_writes);
    assert!(m.exec_cycles > 20_000, "the outage gates completion");
}

/// An *empty* plan must keep the machine on the exact fault-free code
/// path: bit-identical metrics across all eight protocol stacks and every
/// directory organization family.
#[test]
fn empty_node_fault_plan_is_identical_to_no_plan() {
    let w = migratory_workload(4, 3, 8);
    let orgs = [
        DirOrg::FullMap,
        DirOrg::LimitedPtr {
            ptrs: 2,
            broadcast: true,
        },
        DirOrg::CoarseVector { region: 2 },
        DirOrg::Directoryless,
    ];
    for kind in ProtocolKind::ALL {
        for org in orgs {
            let base = run(uni(kind, Consistency::Rc, 4).with_dir_org(org), &w);
            let empty = run(
                uni(kind, Consistency::Rc, 4)
                    .with_dir_org(org)
                    .with_node_faults(NodeFaultPlan::default()),
                &w,
            );
            assert_eq!(base, empty, "{kind} {org:?}: empty plan must be a no-op");
        }
    }
}

/// The same seeded crash schedule reproduces identical metrics run to run.
#[test]
fn node_faults_are_deterministic_across_runs() {
    let w = producer_consumer(8, 200);
    let cfg = || {
        uni(ProtocolKind::PCwM, Consistency::Rc, 8).with_node_faults(NodeFaultPlan::seeded(9, 8, 3))
    };
    let a = run(cfg(), &w);
    let b = run(cfg(), &w);
    assert_eq!(a, b, "same crash schedule must reproduce identical metrics");
    assert_eq!(a.node_crashes, 3);
    assert_eq!(a.node_recoveries, 3);
}

/// Node faults compose with the message-level fault layer: drops and
/// duplicates on top of crashes must still converge.
#[test]
fn node_faults_compose_with_link_faults() {
    let w = producer_consumer(4, 60);
    let plan = NodeFaultPlan {
        events: vec![NodeFaultEvent {
            node: NodeId(2),
            crash_at: 2_500,
            recover_at: 7_000,
        }],
        detect_delay: 300,
    };
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4)
            .with_faults(rough_weather(13))
            .with_node_faults(plan),
        &w,
    );
    assert_eq!(m.node_crashes, 1);
    assert_eq!(m.node_recoveries, 1);
    assert!(m.fault_retransmitted > 0);
}

/// An invalid plan surfaces as a structured configuration error, not a
/// panic or a wedge.
#[test]
fn invalid_node_fault_plan_is_a_config_error() {
    let plan = NodeFaultPlan {
        events: vec![NodeFaultEvent {
            node: NodeId(9),
            crash_at: 100,
            recover_at: 5_000,
        }],
        detect_delay: 500,
    };
    let err = Machine::new(uni(ProtocolKind::Basic, Consistency::Rc, 4).with_node_faults(plan))
        .run(&stream_workload(4, 4, false));
    match err.unwrap_err() {
        SimError::Config { detail } => {
            assert!(detail.contains("node-fault plan"), "{detail}");
            assert!(detail.contains("4 processors"), "{detail}");
        }
        other => panic!("expected a config error, got {other:?}"),
    }
}

/// A crash stops a compute burst that would otherwise retire inline: node
/// 1 crashes at cycle 5 000, inside its 10 000-cycle burst, so it cannot
/// finish before it recovers at cycle 20 000.
#[test]
fn compute_burst_does_not_outrun_its_nodes_crash() {
    let w = Workload::new(
        "burst",
        vec![
            Program::from_events(vec![MemEvent::Compute(1)]),
            Program::from_events(vec![MemEvent::Compute(1), MemEvent::Compute(10_000)]),
        ],
    );
    let plan = NodeFaultPlan {
        events: vec![NodeFaultEvent {
            node: NodeId(1),
            crash_at: 5_000,
            recover_at: 20_000,
        }],
        detect_delay: 100,
    };
    let m = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 2).with_node_faults(plan),
        &w,
    );
    assert_eq!(m.node_crashes, 1);
    assert!(
        m.exec_cycles >= 20_000,
        "node 1 finished at {} inside its outage",
        m.exec_cycles
    );
}

#[test]
fn exclusive_clean_extension_silences_private_writes() {
    let proto = ProtocolConfig {
        exclusive_clean: true,
        ..ProtocolConfig::basic(Consistency::Rc)
    };
    let base = run(
        uni(ProtocolKind::Basic, Consistency::Rc, 4),
        &stream_workload(4, 32, true),
    );
    let mesi = run(MachineConfig::new(4, proto), &stream_workload(4, 32, true));
    assert_eq!(base.ownership_reqs, 32, "MSI: every first write upgrades");
    assert_eq!(mesi.ownership_reqs, 0, "MESI-E: private writes are silent");
    assert!(mesi.exec_cycles <= base.exec_cycles);
}
