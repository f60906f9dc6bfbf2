//! Crash-safety of the sweep orchestrator: journaled resume, panic
//! quarantine, transient retry, and cooperative cancellation.
//!
//! The promise under test (see `experiments::runner`): a sweep killed or
//! interrupted at any point can be resumed from its write-ahead journal
//! and produce **byte-identical** artifacts to an uninterrupted run; a
//! panicking or persistently-failing cell is quarantined with diagnostics
//! while its sibling cells complete; and transient fault-injected
//! failures are retried with a rotated fault seed before giving up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_sim::experiments::{
    fig2, journal::Journal, miss_latency, SweepError, SweepOpts, TRANSIENT_RETRIES,
};
use dirext_sim::stats::Metrics;
use dirext_sim::{FaultPlan, Machine, MachineConfig, SimError};
use dirext_trace::Workload;
use dirext_workloads::{App, Scale};

fn suite() -> Vec<Workload> {
    App::ALL
        .iter()
        .map(|a| a.workload(4, Scale::Tiny))
        .collect()
}

fn tmp_journal(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dirext-sweep-resilience-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

// ---------------------------------------------------------------------
// Panic isolation and quarantine
// ---------------------------------------------------------------------

#[test]
fn panicking_cell_is_quarantined_and_siblings_complete() {
    let s = suite();
    let opts = SweepOpts::jobs(4).keep_going().with_chaos_panic("MP3D");
    let err = fig2(&s, &opts).expect_err("MP3D cells must be quarantined");
    let q = err.quarantine().expect("keep-going yields a quarantine");
    // Every MP3D cell panicked; every other app's cell completed. Nothing
    // was left unclaimed: the panic did not block sibling cells.
    assert!(!q.failures.is_empty());
    assert!(q.failures.iter().all(|f| f.panicked));
    assert!(q.failures.iter().all(|f| f.key.contains("MP3D")));
    assert_eq!(q.completed + q.failures.len(), q.total);
    assert_eq!(q.failures.len(), 8, "all eight MP3D protocol cells");
    // The report renders one line per failed cell.
    let report = err.to_string();
    assert!(report.contains("quarantined"));
    assert!(report.contains("MP3D"));
}

#[test]
fn panicking_cell_fails_fast_without_keep_going() {
    let s = suite();
    let opts = SweepOpts::jobs(2).with_chaos_panic("Water");
    match fig2(&s, &opts) {
        Err(SweepError::CellPanicked { key, detail }) => {
            assert!(key.contains("Water"));
            assert!(detail.contains("chaos hook"));
        }
        other => panic!("expected CellPanicked, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Journaled resume
// ---------------------------------------------------------------------

#[test]
fn interrupted_journal_resumes_to_byte_identical_artifacts() {
    let s = suite();
    let reference = fig2(&s, &SweepOpts::jobs(1)).expect("reference run");

    // A full journaled run stands in for the uninterrupted sweep.
    let full_path = tmp_journal("full");
    let journal = Arc::new(Journal::create(&full_path).expect("create journal"));
    let journaled =
        fig2(&s, &SweepOpts::jobs(1).with_journal(Arc::clone(&journal))).expect("journaled run");
    assert_eq!(reference.csv(), journaled.csv());

    // Simulate a SIGKILL partway through: keep the header and the first
    // few records, tearing the last kept line in half.
    let text = std::fs::read_to_string(&full_path).expect("read journal");
    let keep: Vec<&str> = text.lines().take(6).collect();
    let truncated = format!("{}\n{}", keep.join("\n"), "{\"key\":\"torn");
    let partial_path = tmp_journal("partial");
    std::fs::write(&partial_path, truncated).expect("write partial journal");

    let resumed_journal = Arc::new(Journal::resume(&partial_path).expect("resume journal"));
    assert_eq!(resumed_journal.loaded_records(), 5);
    assert_eq!(resumed_journal.recovered_lines(), 1, "torn tail dropped");
    let resumed = fig2(&s, &SweepOpts::jobs(8).with_journal(resumed_journal)).expect("resumed run");
    assert_eq!(
        reference.csv(),
        resumed.csv(),
        "resume must reassemble byte-identical artifacts"
    );

    std::fs::remove_file(&full_path).ok();
    std::fs::remove_file(&partial_path).ok();
}

#[test]
fn completed_journal_serves_every_cell_without_resimulating() {
    let s = suite();
    let path = tmp_journal("noresim");
    let journal = Arc::new(Journal::create(&path).expect("create journal"));
    let first =
        fig2(&s, &SweepOpts::jobs(2).with_journal(Arc::clone(&journal))).expect("first run");

    // Re-run over the same journal with a chaos hook that would panic in
    // *every* cell: the journal lookup happens before the hook, so a pass
    // proves no cell was re-simulated.
    let reloaded = Arc::new(Journal::resume(&path).expect("reload journal"));
    let opts = SweepOpts::jobs(2)
        .with_journal(reloaded)
        .with_chaos_panic("fig2");
    let second = fig2(&s, &opts).expect("fully-cached run must not execute any cell");
    assert_eq!(first.csv(), second.csv());
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_replay_is_deterministic_across_jobs_1_and_8() {
    let s = suite();
    let reference = fig2(&s, &SweepOpts::jobs(1)).expect("reference");

    let serial_path = tmp_journal("serial");
    let parallel_path = tmp_journal("parallel");
    let serial_journal = Arc::new(Journal::create(&serial_path).expect("serial journal"));
    let parallel_journal = Arc::new(Journal::create(&parallel_path).expect("parallel journal"));
    fig2(&s, &SweepOpts::jobs(1).with_journal(serial_journal)).expect("serial journaled");
    fig2(&s, &SweepOpts::jobs(8).with_journal(parallel_journal)).expect("parallel journaled");

    // Replays of either journal — at either worker count — agree with the
    // journal-free reference byte for byte.
    for (path, jobs) in [(&serial_path, 8), (&parallel_path, 1)] {
        let journal = Arc::new(Journal::resume(path).expect("resume"));
        let replay = fig2(&s, &SweepOpts::jobs(jobs).with_journal(journal)).expect("replay");
        assert_eq!(reference.csv(), replay.csv());
    }
    std::fs::remove_file(&serial_path).ok();
    std::fs::remove_file(&parallel_path).ok();
}

// ---------------------------------------------------------------------
// Transient retry and fault quarantine
// ---------------------------------------------------------------------

/// A fault plan with no link-layer retransmissions: any drop is a
/// permanent loss, so moderate drop rates reliably wedge a run (the
/// watchdog or deadlock detector then fires — a *transient* failure in
/// the retry taxonomy, since a reseeded schedule drops different
/// messages).
fn lossy(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_permille: 120,
        retry_budget: 0,
        ..FaultPlan::seeded(seed)
    }
}

/// Runs `w` under BASIC/RC on the uniform network with `lossy(seed)`.
fn run_lossy(w: &Workload, seed: u64) -> Result<Metrics, SimError> {
    let cfg = MachineConfig::new(w.procs(), ProtocolKind::Basic.config(Consistency::Rc))
        .with_faults(lossy(seed));
    Machine::new(cfg).run(w)
}

/// Finds a fault seed whose first attempt fails transiently. Returns the
/// seed and whether the rotated-seed retry (seed+1 or seed+2) succeeds.
fn find_transient_seed(w: &Workload) -> Option<(u64, bool)> {
    for seed in 0..120u64 {
        match run_lossy(w, seed) {
            Err(e) if e.is_transient() => {
                let retry_clears = (1..=2).any(|off| run_lossy(w, seed + off).is_ok());
                return Some((seed, retry_clears));
            }
            _ => continue,
        }
    }
    None
}

#[test]
fn transient_failure_is_retried_with_rotated_seed() {
    let w = App::Mp3d.workload(4, Scale::Tiny);
    let (seed, retry_clears) =
        find_transient_seed(&w).expect("a lossy seed that wedges the run must exist in 0..120");

    let one_app = vec![w];

    if retry_clears {
        // With the retry budget the rotated seed completes the cell.
        let retried = miss_latency(&one_app, &SweepOpts::jobs(1).with_fault(lossy(seed)));
        assert!(
            retried.is_ok(),
            "retry with rotated fault seed must clear the transient failure: {retried:?}"
        );
        return;
    }

    // Exhausted retries land in quarantine with the attempt count, and the
    // sibling cells still get an outcome (completed or quarantined — never
    // silently skipped).
    let quarantined = miss_latency(
        &one_app,
        &SweepOpts::jobs(1).with_fault(lossy(seed)).keep_going(),
    );
    match quarantined {
        Err(SweepError::Quarantined(q)) => {
            assert_eq!(q.completed + q.failures.len(), q.total, "no cell skipped");
            assert!(q.failures.iter().all(|f| !f.panicked));
            assert!(q
                .failures
                .iter()
                .all(|f| f.attempts == 1 + TRANSIENT_RETRIES));
            assert!(q
                .failures
                .iter()
                .any(|f| f.sim.as_ref().is_some_and(|e| e.is_transient())));
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
}

#[test]
fn retry_attempts_are_recorded_in_the_quarantine() {
    let w = App::Mp3d.workload(4, Scale::Tiny);
    // Find a seed where the first attempt *and* every rotation fail, so
    // the sweep demonstrably retried before quarantining.
    let mut found = None;
    for seed in 0..200u64 {
        let all_fail = (seed..=seed + u64::from(TRANSIENT_RETRIES))
            .all(|s| matches!(run_lossy(&w, s), Err(e) if e.is_transient()));
        if all_fail {
            found = Some(seed);
            break;
        }
    }
    let seed = found.expect("three consecutive wedging seeds must exist in 0..200");
    let one_app = vec![w];
    let err = miss_latency(
        &one_app,
        &SweepOpts::jobs(1).with_fault(lossy(seed)).keep_going(),
    )
    .expect_err("every attempt wedges");
    let q = err.quarantine().expect("quarantine report");
    let basic = q
        .failures
        .iter()
        .find(|f| f.key.contains("/BASIC/"))
        .expect("the BASIC cell is quarantined");
    assert_eq!(
        basic.attempts,
        1 + TRANSIENT_RETRIES,
        "first attempt plus every rotated retry"
    );
}

// ---------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------

#[test]
fn cancellation_drains_and_resume_completes_byte_identical() {
    let s = suite();
    let reference = fig2(&s, &SweepOpts::jobs(1)).expect("reference");

    let path = tmp_journal("cancel");
    let cancel = Arc::new(AtomicBool::new(true)); // armed before the sweep
    let journal = Arc::new(Journal::create(&path).expect("create journal"));
    let err = fig2(
        &s,
        &SweepOpts::jobs(2)
            .with_journal(Arc::clone(&journal))
            .with_cancel(Arc::clone(&cancel)),
    )
    .expect_err("pre-armed cancellation interrupts the sweep");
    match err {
        SweepError::Interrupted { completed, total } => {
            assert_eq!(completed, 0);
            assert_eq!(total, s.len() * 8);
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }

    // Clearing the flag and resuming off the same journal completes the
    // sweep with artifacts identical to the uninterrupted reference.
    cancel.store(false, Ordering::SeqCst);
    let resumed_journal = Arc::new(Journal::resume(&path).expect("resume journal"));
    let resumed = fig2(
        &s,
        &SweepOpts::jobs(2)
            .with_journal(resumed_journal)
            .with_cancel(cancel),
    )
    .expect("resumed run completes");
    assert_eq!(reference.csv(), resumed.csv());
    std::fs::remove_file(&path).ok();
}

#[test]
fn retries_account_attempts_in_the_journal() {
    let w = App::Mp3d.workload(4, Scale::Tiny);
    let (seed, _) =
        find_transient_seed(&w).expect("a lossy seed that wedges the run must exist in 0..120");
    // The journal records how many attempts each cell consumed, so the
    // retry loop is accountable.
    let path = tmp_journal("retry-attempts");
    let journal = Arc::new(Journal::create(&path).expect("journal"));
    let r = miss_latency(
        &[w],
        &SweepOpts::jobs(1)
            .with_fault(lossy(seed))
            .keep_going()
            .with_journal(Arc::clone(&journal)),
    );
    // Whether the rotated seeds cleared the cell or exhausted the retry
    // budget, the attempt count must be journaled faithfully.
    match r {
        Ok(_) => {}
        Err(SweepError::Quarantined(q)) => {
            assert!(
                q.failures.iter().all(|f| f.attempts == 3),
                "1 try + 2 retries"
            );
        }
        Err(other) => panic!("unexpected sweep error: {other}"),
    }
    let text = std::fs::read_to_string(&path).expect("journal text");
    let attempts: Vec<u64> = text
        .lines()
        .skip(1)
        .filter_map(|l| {
            let at = l.split("\"attempts\":").nth(1)?;
            at.split(&[',', '}'][..]).next()?.trim().parse().ok()
        })
        .collect();
    assert!(!attempts.is_empty());
    assert!(
        attempts.iter().all(|&a| (1..=3).contains(&a)),
        "attempts within budget: {attempts:?}"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Journal write errors must fail the run
// ---------------------------------------------------------------------

#[test]
fn pending_journal_write_error_fails_the_sweep() {
    let s = suite();
    let path = tmp_journal("write-error");
    let journal = Arc::new(Journal::create(&path).expect("journal"));
    journal.inject_write_error("disk full (simulated)");
    let err = fig2(&s, &SweepOpts::jobs(2).with_journal(Arc::clone(&journal)))
        .expect_err("a pending write error must fail the sweep");
    match err {
        SweepError::Journal(detail) => assert!(detail.contains("disk full"), "{detail}"),
        other => panic!("expected SweepError::Journal, got {other:?}"),
    }
    // The error is drained exactly once: a follow-up run is clean.
    assert!(journal.take_write_error().is_none());
    std::fs::remove_file(&path).ok();
}
