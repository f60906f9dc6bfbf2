//! Differential safety net for protocol-core refactors: the rendered
//! artifacts of the paper's sweeps (Figures 2-4, Tables 2-3, both §5.4
//! sensitivity sweeps, miss latency, topology and MP3D scaling, all at
//! `Scale::Tiny`) must stay bit-identical to the goldens captured before
//! the refactor. Two 1024-node cells pin the schedules of the
//! broadcast-heavy directory organizations on the hierarchical mesh.
//!
//! Regenerate the goldens with `DIREXT_BLESS=1 cargo test --test
//! experiments_golden` — but only after establishing that a behavior
//! change is intended; the whole point of this file is that a refactor is
//! *not allowed* to move these numbers.

use std::fs;
use std::path::PathBuf;

use dirext_sim::core::{Consistency, DirOrg, ProtocolKind};
use dirext_sim::experiments::{self, Constraint, SweepOpts};
use dirext_sim::trace::Workload;
use dirext_sim::{Machine, MachineConfig, NetworkKind};
use dirext_workloads::{App, Scale};

fn tiny_suite() -> Vec<Workload> {
    App::ALL
        .iter()
        .map(|a| a.workload(16, Scale::Tiny))
        .collect()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check(name: &str, rendered: String) {
    let path = golden_path(name);
    if std::env::var_os("DIREXT_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (bless with DIREXT_BLESS=1)", name));
    assert_eq!(
        rendered, golden,
        "{name} diverged from the pre-refactor golden; protocol behavior changed"
    );
}

#[test]
fn fig2_bit_identical_to_pre_refactor() {
    let fig = experiments::fig2(&tiny_suite(), &SweepOpts::default()).unwrap();
    check("fig2_tiny.txt", fig.to_string());
}

#[test]
fn table2_bit_identical_to_pre_refactor() {
    let t = experiments::table2(&tiny_suite(), &SweepOpts::default()).unwrap();
    check("table2_tiny.txt", t.to_string());
}

#[test]
fn table3_bit_identical_to_pre_refactor() {
    let t = experiments::table3(&tiny_suite(), &SweepOpts::default()).unwrap();
    check("table3_tiny.txt", t.to_string());
}

#[test]
fn fig3_bit_identical_to_parent() {
    let fig = experiments::fig3(&tiny_suite(), &SweepOpts::default()).unwrap();
    check("fig3_tiny.txt", fig.to_string());
}

#[test]
fn fig4_bit_identical_to_parent() {
    let fig = experiments::fig4(&tiny_suite(), &SweepOpts::default()).unwrap();
    check("fig4_tiny.txt", fig.to_string());
}

#[test]
fn sens_buffers_bit_identical_to_parent() {
    let s = experiments::sensitivity(
        &tiny_suite(),
        Constraint::SmallBuffers,
        &SweepOpts::default(),
    )
    .unwrap();
    check("sens_buffers_tiny.txt", s.to_string());
}

#[test]
fn sens_cache_bit_identical_to_parent() {
    let s = experiments::sensitivity(&tiny_suite(), Constraint::SmallSlc, &SweepOpts::default())
        .unwrap();
    check("sens_cache_tiny.txt", s.to_string());
}

#[test]
fn miss_latency_bit_identical_to_parent() {
    let l = experiments::miss_latency(&tiny_suite(), &SweepOpts::default()).unwrap();
    check("miss_latency_tiny.txt", l.to_string());
}

#[test]
fn topology_bit_identical_to_parent() {
    let t = experiments::topology(&tiny_suite(), &SweepOpts::default()).unwrap();
    check("topology_tiny.txt", t.to_string());
}

#[test]
fn scaling_bit_identical_to_parent() {
    // MP3D, the CLI's default `scaling` app.
    let s = experiments::scaling(
        App::Mp3d.name(),
        |procs| App::Mp3d.workload(procs, Scale::Tiny),
        &SweepOpts::default(),
    )
    .unwrap();
    check("scaling_tiny.txt", s.to_string());
}

#[test]
fn dir1024_bit_identical_to_parent() {
    // Directoryless LU sends 1023-target waves that serialize on the
    // source's links, so their deliveries land on the event queue's coarse
    // levels; Dir_4B Water overflows into broadcasts on a lighter schedule.
    let mut rendered = String::new();
    for (app, dir) in [
        (App::Lu, DirOrg::Directoryless),
        (
            App::Water,
            DirOrg::LimitedPtr {
                ptrs: 4,
                broadcast: true,
            },
        ),
    ] {
        let cfg = MachineConfig::new(1024, ProtocolKind::PCw.config(Consistency::Rc))
            .with_network(NetworkKind::HierMesh { link_bits: 64 })
            .with_dir_org(dir);
        let m = Machine::new(cfg)
            .run(&app.workload(1024, Scale::Tiny))
            .unwrap();
        rendered.push_str(&format!("{m}\n"));
    }
    check("dir1024_tiny.txt", rendered);
}
