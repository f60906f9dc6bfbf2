//! Audit and diagnostic output must be identical across *processes*.
//!
//! The in-process determinism suite (`parallel_determinism`) proves that
//! thread count and scheduling cannot change results, but it can never
//! catch state that varies per process — most notoriously
//! `std::collections::HashMap` iteration order, which is randomized by a
//! per-process `RandomState` seed. The directory, SLC, and diagnostic
//! paths used to iterate such maps; they now run on dense [`BlockMap`]
//! arenas whose iteration order is the block index itself.
//!
//! This test pins that property end to end: it re-executes the same
//! scenario in two freshly spawned child processes (each with its own
//! hasher seeds) and compares their printed fingerprints byte-for-byte,
//! and against the parent's own in-process fingerprint. The fingerprint
//! covers exactly the surfaces the issue calls out — `DirCtrl::blocks()`
//! order, `pending_ops()` diagnostics — plus a fault-injected whole-sweep
//! CSV so a regression anywhere in the data path shows up too.
//!
//! [`BlockMap`]: dirext_core::BlockMap

use std::process::Command;

use dirext_core::sharer::DirOrg;
use dirext_core::{DirCtrl, MsgKind};
use dirext_sim::core::config::Consistency;
use dirext_sim::core::ProtocolKind;
use dirext_sim::experiments::{fig2, SweepOpts};
use dirext_sim::{FaultPlan, Machine, MachineConfig, NetworkKind};
use dirext_trace::{BlockAddr, NodeId, Workload};
use dirext_workloads::{App, Scale};

/// Env var that flips a test-binary invocation into "emit fingerprint and
/// exit" mode (see [`child_emits_fingerprint`]).
const CHILD_ENV: &str = "DIREXT_XPROC_CHILD";

/// Marker prefix for fingerprint lines so the parent can pick them out of
/// whatever else the libtest harness prints.
const MARK: &str = "XPROC-FP ";

/// Drives a directory controller with a deterministic pseudo-random
/// message storm and dumps every audit surface into a string.
///
/// The message mix is deliberately rough: interleaved reads, ownership
/// requests, and writebacks from many nodes over a block set wide enough
/// to span several `BlockMap` pages, leaving a number of blocks with
/// in-flight operations so `pending_ops()` has real content to order.
fn directory_audit_dump() -> String {
    let mut dir = DirCtrl::new(16, true, true);
    let mut lcg: u64 = 0x5DEECE66D;
    let mut step = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut out = String::new();
    for i in 0..4000u64 {
        let r = step();
        let src = NodeId((r % 16) as u16);
        // Non-contiguous block indices spread the entries across pages.
        let block = BlockAddr::from_index((r >> 4) % 97 * 37);
        let kind = match (r >> 12) % 4 {
            0 => MsgKind::ReadReq {
                prefetch: r & 1 == 0,
            },
            1 => MsgKind::OwnReq {
                need_data: r & 1 == 0,
            },
            2 => MsgKind::WritebackReq { written: true },
            _ => MsgKind::SharedReplHint,
        };
        match dir.handle(src, block, kind) {
            Ok(actions) => {
                for a in actions {
                    out.push_str(&format!("{i} {:?} {:?}\n", a.dst, a.kind));
                }
            }
            // Illegal transitions are expected in a random storm (e.g. a
            // writeback from a non-owner); the *error* must be just as
            // deterministic as the happy path.
            Err(e) => out.push_str(&format!("{i} err {e}\n")),
        }
    }
    out.push_str("blocks:");
    for b in dir.blocks() {
        out.push_str(&format!(" {}", b.index()));
    }
    out.push('\n');
    for b in dir.blocks().collect::<Vec<_>>() {
        out.push_str(&format!("snapshot {} {:?}\n", b.index(), dir.snapshot(b)));
    }
    for (b, desc) in dir.pending_ops() {
        out.push_str(&format!("pending {} {desc}\n", b.index()));
    }
    out
}

/// A fault-injected whole-machine sweep: the rendered CSV is the artifact
/// a user would diff, and faults make the event schedule irregular enough
/// to surface any ordering leak in the simulator's own data path.
fn sweep_artifact() -> String {
    let suite: Vec<Workload> = App::ALL
        .iter()
        .map(|a| a.workload(4, Scale::Tiny))
        .collect();
    let fault = FaultPlan {
        drop_permille: 30,
        dup_permille: 10,
        jitter_cycles: 9,
        ..FaultPlan::seeded(1234)
    };
    fig2(&suite, &SweepOpts::jobs(1).with_fault(fault))
        .expect("fig2 sweep")
        .csv()
}

/// A 256-node run under a scalable directory organization on the
/// hierarchical mesh: the limited-pointer overflow paths (broadcast
/// fan-out, ack-mask collection past one word) and the two-level routing
/// are exactly the machinery a 64-node fingerprint never touches, so any
/// per-process ordering leak there gets its own surface. The rendered
/// metrics include the `ext:` directory counters.
fn dirscale_artifact() -> String {
    format!("{}", ptr4b_pcw_run(256))
}

/// The same directory-scaling cell at 1024 nodes, the largest machine the
/// simulator builds: 1024-wide sharer sets and the full express grid of
/// the two-level mesh. This is the fingerprint's only 1024-node surface.
fn dirscale1024_artifact() -> String {
    format!("{}", ptr4b_pcw_run(1024))
}

/// Water under P+CW on `procs` nodes with a four-pointer broadcast
/// directory on the hierarchical mesh.
fn ptr4b_pcw_run(procs: usize) -> dirext_sim::stats::Metrics {
    let w = App::Water.workload(procs, Scale::Tiny);
    let cfg = MachineConfig::new(w.procs(), ProtocolKind::PCw.config(Consistency::Rc))
        .with_network(NetworkKind::HierMesh { link_bits: 64 })
        .with_dir_org(DirOrg::LimitedPtr {
            ptrs: 4,
            broadcast: true,
        });
    Machine::new(cfg)
        .run(&w)
        .unwrap_or_else(|e| panic!("{procs}-node ptr4b run: {e}"))
}

/// FNV-1a, so a multi-kilobyte fingerprint compares as one printable line.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn fingerprint() -> String {
    let audit = directory_audit_dump();
    let csv = sweep_artifact();
    let dirscale = dirscale_artifact();
    let dir1024 = dirscale1024_artifact();
    format!(
        "audit={:016x}/{} sweep={:016x}/{} dir256={:016x}/{} dir1024={:016x}/{}",
        fnv64(audit.as_bytes()),
        audit.len(),
        fnv64(csv.as_bytes()),
        csv.len(),
        fnv64(dirscale.as_bytes()),
        dirscale.len(),
        fnv64(dir1024.as_bytes()),
        dir1024.len()
    )
}

/// Child half: under [`CHILD_ENV`] this prints the fingerprint for the
/// parent to capture; in a normal test run it is a no-op pass.
#[test]
fn child_emits_fingerprint() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    println!("{MARK}{}", fingerprint());
}

fn spawn_child(label: &str) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(&exe)
        .args(["child_emits_fingerprint", "--exact", "--nocapture"])
        .env(CHILD_ENV, "1")
        .output()
        .unwrap_or_else(|e| panic!("spawning {label}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{label} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        // With --nocapture the harness's "test name ..." prefix shares the
        // line, so match the marker anywhere in it.
        .find_map(|l| l.find(MARK).map(|at| &l[at + MARK.len()..]))
        .unwrap_or_else(|| panic!("{label} printed no fingerprint:\n{stdout}"))
        .trim_end()
        .to_owned()
}

/// Parent half: two fresh processes — two fresh hasher seeds — must agree
/// with each other and with this process on every audit surface.
#[test]
fn fresh_processes_agree_on_audit_output() {
    let local = fingerprint();
    let a = spawn_child("child A");
    let b = spawn_child("child B");
    assert_eq!(a, b, "two fresh processes produced different audit output");
    assert_eq!(
        local, a,
        "child process disagrees with in-process audit output"
    );
}
