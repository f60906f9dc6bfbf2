//! Smoke tests for every experiment driver: structure, baselines, and the
//! invariants of the rendered artifacts (at `Scale::Tiny`).

use dirext_sim::experiments::{self, sens::Constraint, SweepOpts};
use dirext_sim::trace::Workload;
use dirext_workloads::{App, Scale};

fn tiny_suite() -> Vec<Workload> {
    App::ALL
        .iter()
        .map(|a| a.workload(16, Scale::Tiny))
        .collect()
}

#[test]
fn fig2_covers_all_apps_and_protocols_with_unit_baseline() {
    let fig = experiments::fig2(&tiny_suite(), &SweepOpts::default()).unwrap();
    assert_eq!(fig.rows.len(), 5);
    for row in &fig.rows {
        assert_eq!(row.metrics.len(), 8);
        let rel = row.relative_times();
        assert!(
            (rel[0] - 1.0).abs() < 1e-12,
            "{}: BASIC must normalize to 1",
            row.app
        );
        assert!(rel.iter().all(|r| *r > 0.0));
    }
    let text = fig.to_string();
    for name in ["MP3D", "Cholesky", "Water", "LU", "Ocean", "P+CW+M"] {
        assert!(text.contains(name), "rendering must mention {name}");
    }
}

#[test]
fn table2_reports_components_for_four_protocols() {
    let t = experiments::table2(&tiny_suite(), &SweepOpts::default()).unwrap();
    assert_eq!(t.rows.len(), 5);
    for row in &t.rows {
        assert_eq!(row.components().len(), 4);
        for (cold, coh) in row.components() {
            assert!((0.0..=100.0).contains(&cold));
            assert!((0.0..=100.0).contains(&coh));
        }
    }
    assert!(t.to_string().contains("P+CW cold"));
}

#[test]
fn fig3_includes_the_basic_rc_reference() {
    let fig = experiments::fig3(&tiny_suite(), &SweepOpts::default()).unwrap();
    for row in &fig.rows {
        assert_eq!(row.metrics.len(), 4);
        assert_eq!(row.basic_rc.consistency, "RC");
        assert!(row.metrics.iter().all(|m| m.consistency == "SC"));
        assert!(row.pm_vs_basic_rc() > 0.0);
    }
    assert!(fig.to_string().contains("P+M vs BASIC-RC"));
}

#[test]
fn table3_sweeps_three_link_widths() {
    let suite: Vec<Workload> = vec![App::Mp3d.workload(16, Scale::Tiny)];
    let t = experiments::table3(&suite, &SweepOpts::default()).unwrap();
    assert_eq!(t.rows.len(), 1);
    let row = &t.rows[0];
    assert!(row.pcw.iter().chain(row.pm.iter()).all(|r| *r > 0.0));
    assert!(t.to_string().contains("P+CW 16b"));
}

#[test]
fn fig4_normalizes_to_basic() {
    let fig = experiments::fig4(&tiny_suite(), &SweepOpts::default()).unwrap();
    for row in &fig.rows {
        let rel = row.relative_traffic();
        assert!(
            (rel[0] - 1.0).abs() < 1e-12,
            "{}: BASIC traffic is the unit",
            row.app
        );
    }
}

#[test]
fn table1_reproduces_the_paper_cost_summary() {
    let t = experiments::table1(16);
    // The headline numbers from the paper's Section 2 and Table 1.
    assert!(
        t.contains("SLC bits/line:    2"),
        "BASIC: two bits per cache block"
    );
    assert!(
        t.contains("memory bits/line: 19"),
        "BASIC: N+3 bits per memory block"
    );
    assert!(t.contains("3 x 4 bits"), "P: three modulo-16 counters");
    assert!(t.contains("4 blocks"), "CW: four-block write cache");
}

#[test]
fn sensitivity_runs_both_constraints() {
    let suite: Vec<Workload> = vec![App::Lu.workload(16, Scale::Tiny)];
    for c in [Constraint::SmallBuffers, Constraint::SmallSlc] {
        let s = experiments::sensitivity(&suite, c, &SweepOpts::default()).unwrap();
        assert_eq!(s.rows.len(), 1);
        let slow = s.rows[0].slowdowns();
        assert_eq!(slow.len(), 6);
        assert!(slow.iter().all(|x| *x > 0.5), "{:?}", slow);
    }
}

#[test]
fn miss_latency_reports_reduction() {
    let suite: Vec<Workload> = vec![App::Mp3d.workload(16, Scale::Tiny)];
    let ml = experiments::miss_latency(&suite, &SweepOpts::default()).unwrap();
    assert_eq!(ml.rows.len(), 1);
    assert!(ml.rows[0].basic.avg_read_miss_latency() > 0.0);
    assert!(ml.to_string().contains("reduction %"));
}

#[test]
fn scaling_sweeps_five_machine_sizes() {
    let s = experiments::scaling(
        "MP3D",
        |procs| App::Mp3d.workload(procs, Scale::Tiny),
        &SweepOpts::default(),
    )
    .unwrap();
    assert_eq!(s.rows.len(), 5);
    for row in &s.rows {
        assert_eq!(row.metrics.len(), 4);
        let rel = row.relative_times();
        assert!((rel[0] - 1.0).abs() < 1e-12);
    }
    assert!(s.to_string().contains("procs"));
}

/// Every experiments-smoke workload × protocol combination, re-run with
/// transition tracing: the machine replays its recorded directory and
/// cache transitions through the declarative tables at quiescence and the
/// run fails on any non-derivable transition, so `unwrap` here *is* the
/// conformance verdict.
#[test]
fn experiments_smoke_traces_conform() {
    use dirext_sim::core::{Consistency, ProtocolKind};
    use dirext_sim::{Machine, MachineConfig};

    for app in App::ALL {
        let w = app.workload(16, Scale::Tiny);
        for kind in ProtocolKind::ALL {
            let cfg = MachineConfig::new(16, kind.config(Consistency::Rc)).with_trace(1 << 16);
            let (_, records, _) = Machine::new(cfg)
                .run_traced(&w)
                .unwrap_or_else(|e| panic!("{} / {kind}: {e}", app.name()));
            assert!(
                !records.is_empty(),
                "{} / {kind}: tracing produced no records",
                app.name()
            );
        }
    }
}

#[test]
fn traces_round_trip_through_the_simulator() {
    use dirext_sim::core::sharer::DirOrg;
    use dirext_sim::core::{Consistency, ProtocolKind};
    use dirext_sim::{Machine, MachineConfig, NetworkKind};

    let ptr4b = DirOrg::LimitedPtr {
        ptrs: 4,
        broadcast: true,
    };
    let hmesh64 = NetworkKind::HierMesh { link_bits: 64 };
    // The paper's machine, and one past the full map's 64 nodes.
    for (procs, dir, network) in [
        (8, DirOrg::FullMap, NetworkKind::Uniform),
        (256, ptr4b, hmesh64),
    ] {
        let w = App::Water.workload(procs, Scale::Tiny);
        let mut buf = Vec::new();
        dirext_sim::trace::io::write_text(&w, &mut buf).unwrap();
        let reloaded = dirext_sim::trace::io::read_text(buf.as_slice()).unwrap();

        let cfg = || {
            MachineConfig::new(procs, ProtocolKind::PCw.config(Consistency::Rc))
                .with_dir_org(dir)
                .with_network(network)
        };
        let direct = Machine::new(cfg()).run(&w).unwrap();
        let via_trace = Machine::new(cfg()).run(&reloaded).unwrap();
        assert_eq!(
            direct.exec_cycles, via_trace.exec_cycles,
            "{procs} nodes: trace must be lossless"
        );
        assert_eq!(direct.slc_misses, via_trace.slc_misses, "{procs} nodes");
    }
}
