//! Parallel sweeps must be byte-identical to serial ones.
//!
//! The worker pool (`experiments::pool`) promises that `jobs` affects
//! wall-clock only: every configuration runs an isolated machine and the
//! results are reassembled in configuration-index order. These tests pin
//! that promise on the rendered CSV artifacts — the exact bytes a user
//! would diff — for a clean machine and for one with fault injection
//! active (retries and jitter make the per-run event schedules much more
//! irregular, which is exactly what would expose cross-run state leaking
//! through the pool).

use dirext_sim::experiments::{fig2, scaling, table2, SweepOpts};
use dirext_sim::FaultPlan;
use dirext_trace::Workload;
use dirext_workloads::{App, Scale};

fn suite() -> Vec<Workload> {
    App::ALL
        .iter()
        .map(|a| a.workload(4, Scale::Tiny))
        .collect()
}

/// A fault plan nasty enough to reorder deliveries and force retries.
fn rough_weather() -> FaultPlan {
    FaultPlan {
        drop_permille: 30,
        dup_permille: 10,
        jitter_cycles: 9,
        ..FaultPlan::seeded(1234)
    }
}

#[test]
fn fig2_parallel_matches_serial() {
    let s = suite();
    let serial = fig2(&s, &SweepOpts::jobs(1)).expect("serial fig2");
    let parallel = fig2(&s, &SweepOpts::jobs(8)).expect("parallel fig2");
    assert_eq!(serial.csv(), parallel.csv());
}

#[test]
fn table2_parallel_matches_serial() {
    let s = suite();
    let serial = table2(&s, &SweepOpts::jobs(1)).expect("serial table2");
    let parallel = table2(&s, &SweepOpts::jobs(8)).expect("parallel table2");
    assert_eq!(serial.csv(), parallel.csv());
}

#[test]
fn fig2_parallel_matches_serial_under_faults() {
    let s = suite();
    let serial = fig2(&s, &SweepOpts::jobs(1).with_fault(rough_weather())).expect("serial fig2");
    let parallel =
        fig2(&s, &SweepOpts::jobs(8).with_fault(rough_weather())).expect("parallel fig2");
    assert_eq!(serial.csv(), parallel.csv());
    // And the faults must actually change the machine's behaviour, or the
    // assertion above proves nothing about the faulty path.
    let clean = fig2(&s, &SweepOpts::jobs(1)).expect("clean fig2");
    assert_ne!(
        clean.rows[0].metrics[0].exec_cycles, serial.rows[0].metrics[0].exec_cycles,
        "fault plan had no effect — the faulty-path determinism check is vacuous"
    );
}

#[test]
fn table2_parallel_matches_serial_under_faults() {
    let s = suite();
    let serial =
        table2(&s, &SweepOpts::jobs(1).with_fault(rough_weather())).expect("serial table2");
    let parallel =
        table2(&s, &SweepOpts::jobs(8).with_fault(rough_weather())).expect("parallel table2");
    assert_eq!(serial.csv(), parallel.csv());
}

#[test]
fn scaling_parallel_matches_serial() {
    let app = App::Lu;
    let mk = |procs| app.workload(procs, Scale::Tiny);
    let serial = scaling(app.name(), mk, &SweepOpts::jobs(1)).expect("serial scaling");
    let parallel = scaling(app.name(), mk, &SweepOpts::jobs(8)).expect("parallel scaling");
    assert_eq!(serial.to_string(), parallel.to_string());
}
