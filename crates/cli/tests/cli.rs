//! End-to-end tests of the `dirext` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dirext"))
}

fn dirext(args: &[&str]) -> Output {
    bin().args(args).output().expect("failed to launch dirext")
}

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dirext-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn stdout(args: &[&str]) -> String {
    let out = dirext(args);
    assert!(
        out.status.success(),
        "dirext {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn help_lists_every_command() {
    let help = stdout(&["help"]);
    for cmd in [
        "fig2",
        "table2",
        "fig3",
        "table3",
        "fig4",
        "table1",
        "sens-buffers",
        "sens-cache",
        "miss-latency",
        "scaling",
        "stress",
        "run",
        "dump-trace",
        "suite",
    ] {
        assert!(help.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    for args in [
        &["frobnicate"][..],
        &["serve"],
        &["query"],
        &["assemble", "fig2"],
    ] {
        let out = dirext(args);
        assert!(!out.status.success(), "dirext {args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown command"), "dirext {args:?}: {err}");
        assert!(err.contains("USAGE"), "dirext {args:?}: {err}");
    }
}

#[test]
fn unknown_flag_fails() {
    let cwd = tmp("unknown-flag");
    std::fs::create_dir_all(&cwd).unwrap();
    for args in [
        &["fig2", "--bogus"][..],
        &["fig2", "--scale", "tiny", "--fleet", "d"],
        &["fig2", "--scale", "tiny", "--socket", "s"],
        &["fig2", "--scale", "tiny", "--worker-id", "w"],
    ] {
        let out = bin()
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("failed to launch dirext");
        assert!(!out.status.success(), "dirext {args:?} must fail");
        assert!(!cwd.join("d").exists(), "dirext {args:?} created d");
    }
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn table1_matches_paper_budget() {
    let t = stdout(&["table1"]);
    assert!(t.contains("SLC bits/line:    2"));
    assert!(t.contains("memory bits/line: 19"));
}

#[test]
fn fig2_tiny_produces_the_table() {
    let t = stdout(&["fig2", "--scale", "tiny", "--app", "water"]);
    assert!(t.contains("Figure 2"));
    assert!(t.contains("Water"));
    assert!(t.contains("P+CW+M"));
}

#[test]
fn fig2_csv_is_machine_readable() {
    let t = stdout(&["fig2", "--scale", "tiny", "--app", "lu", "--csv"]);
    let mut lines = t.lines();
    assert_eq!(lines.next(), Some("app,protocol,relative_time,exec_cycles"));
    // 8 protocols for one app.
    assert_eq!(lines.count(), 8);
    assert!(t.contains("LU,BASIC,1.0000"));
}

#[test]
fn run_emits_json_metrics() {
    let t = stdout(&[
        "run",
        "--app",
        "mp3d",
        "--scale",
        "tiny",
        "--protocol",
        "P+CW",
        "--json",
    ]);
    let v: serde_json::Value = serde_json::from_str(&t).expect("valid JSON");
    assert_eq!(v["protocol"], "P+CW");
    assert!(v["exec_cycles"].as_u64().unwrap() > 0);
}

#[test]
fn trace_round_trip_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("dirext-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("water.trace");
    let trace = stdout(&["dump-trace", "--app", "water", "--scale", "tiny"]);
    assert!(trace.starts_with("# dirext trace v1"));
    std::fs::write(&path, &trace).unwrap();
    let out = stdout(&["run", "--trace", path.to_str().unwrap(), "--protocol", "M"]);
    assert!(out.contains("Water / M"));
    // The trace file fixes the workload, processor count included.
    let out = dirext(&["run", "--trace", path.to_str().unwrap(), "--procs", "16"]);
    assert_eq!(out.status.code(), Some(1), "--procs with --trace must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--procs conflicts with --trace"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_on_mesh_and_ring_networks() {
    for net in ["mesh16", "ring32"] {
        let out = stdout(&[
            "run",
            "--app",
            "water",
            "--scale",
            "tiny",
            "--protocol",
            "BASIC",
            "--network",
            net,
        ]);
        assert!(out.contains("Water / BASIC"), "{net}: {out}");
    }
}

#[test]
fn stress_sweeps_cleanly() {
    let out = stdout(&["stress", "--seeds", "3", "--procs", "4"]);
    assert!(out.contains("all coherence audits passed"));
}

#[test]
fn stress_builds_the_machine_it_is_asked_for() {
    // Node 40 exists only if the fuzzed machines really have 48 nodes.
    let out = stdout(&[
        "stress",
        "--seeds",
        "1",
        "--procs",
        "48",
        "--node-fault-schedule",
        "40@2000-9000",
    ]);
    assert!(out.contains("all coherence audits passed"), "{out}");
    let out = dirext(&["stress", "--seeds", "1", "--procs", "65"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "65 nodes is past the fuzzer's limit"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("at most 64 processors"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn suite_lists_five_apps() {
    let out = stdout(&["suite", "--scale", "tiny"]);
    for app in ["MP3D", "Cholesky", "Water", "LU", "Ocean"] {
        assert!(out.contains(app));
    }
}

#[test]
fn report_writes_a_complete_markdown_document() {
    let dir = std::env::temp_dir().join(format!("dirext-report-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.md");
    let _ = stdout(&["report", "--scale", "tiny", "--out", path.to_str().unwrap()]);
    let doc = std::fs::read_to_string(&path).unwrap();
    for section in [
        "Table 1",
        "Figure 2",
        "Table 2",
        "Figure 3",
        "Table 3",
        "Figure 4",
        "Sensitivity",
        "Read-miss latency",
        "Topology",
    ] {
        assert!(doc.contains(section), "report must contain {section}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_command_prints_all_three_networks() {
    let out = stdout(&["topology", "--scale", "tiny", "--app", "water"]);
    for col in ["unif", "mesh", "ring"] {
        assert!(out.contains(col), "{out}");
    }
}

/// The `conformance:` verdict line of `trace --app mp3d --scale tiny`.
fn trace_verdict(extra: &[&str]) -> String {
    let mut args = vec!["trace", "--app", "mp3d", "--scale", "tiny", "--last", "2"];
    args.extend_from_slice(extra);
    let out = stdout(&args);
    out.lines()
        .find(|l| l.starts_with("conformance: ok"))
        .unwrap_or_else(|| panic!("no verdict in {out}"))
        .to_owned()
}

#[test]
fn trace_verdict_counts_the_records_a_small_ring_overwrote() {
    let verdict = trace_verdict(&["--ring", "16"]);
    let numbers: Vec<u64> = verdict
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    let [checked, recorded, lost] = numbers[..] else {
        panic!("expected checked, recorded and overwritten counts: {verdict}");
    };
    assert!(lost > 0 && checked + lost == recorded, "{verdict}");
    assert!(
        verdict.contains(&format!("{lost} overwritten unchecked")) && verdict.contains("--ring"),
        "{verdict}"
    );
}

#[test]
fn trace_verdict_at_the_default_ring_overwrites_nothing() {
    let verdict = trace_verdict(&[]);
    assert!(!verdict.contains("overwritten"), "{verdict}");
    assert!(
        verdict.ends_with("transitions checked against BASIC"),
        "{verdict}"
    );
}

#[test]
fn validate_accepts_good_and_rejects_bad_traces() {
    let dir = std::env::temp_dir().join(format!("dirext-validate-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.trace");
    std::fs::write(
        &good,
        stdout(&["dump-trace", "--app", "lu", "--scale", "tiny"]),
    )
    .unwrap();
    let out = stdout(&["validate", "--trace", good.to_str().unwrap()]);
    assert!(out.contains("ok"));

    // A barrier inside a critical section must be rejected.
    let bad = dir.join("bad.trace");
    std::fs::write(
        &bad,
        "# dirext trace v1\nworkload bad procs 2\nproc 0\na 0x100000\nb 0\nl 0x100000\nproc 1\nb 0\n",
    )
    .unwrap();
    let out = dirext(&["validate", "--trace", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("barrier"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_render_as_svg() {
    let dir = std::env::temp_dir().join(format!("dirext-svg-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (cmd, bars_per_app) in [("fig2", 8), ("fig3", 4), ("fig4", 6)] {
        let path = dir.join(format!("{cmd}.svg"));
        let _ = stdout(&[
            cmd,
            "--scale",
            "tiny",
            "--app",
            "lu",
            "--svg",
            path.to_str().unwrap(),
        ]);
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"), "{cmd}");
        // One rect per bar plus one legend swatch per series.
        assert_eq!(
            svg.matches("<rect").count(),
            2 * bars_per_app,
            "{cmd}: bars + legend"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn svg_write_failure_names_the_path() {
    for cmd in ["fig2", "fig3", "fig4"] {
        let args = format!("{cmd} --scale tiny --app water --svg /nonexistent/f.svg");
        let out = dirext(&args.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("cannot write figure to '/nonexistent/f.svg'"),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn stress_with_zero_seeds_is_a_parse_error() {
    let out = dirext(&["stress", "--seeds", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--seeds must be at least 1"), "{err}");
    assert!(out.stdout.is_empty(), "no run summary");
}

#[test]
fn flags_the_command_never_reads_are_parse_errors() {
    let svg = tmp("unread.svg");
    let svg = svg.to_str().unwrap();
    for (args, needle) in [
        (
            &["dirscale", "--scale", "tiny", "--watchdog", "5"][..],
            "--watchdog applies to run, trace, stress, not 'dirscale'",
        ),
        (
            &["table2", "--scale", "tiny", "--svg", svg][..],
            "--svg applies to fig2, fig3, fig4, not 'table2'",
        ),
        (
            &["fig2", "--scale", "tiny", "--protocol", "P+CW"][..],
            "--protocol applies to run, trace, not 'fig2'",
        ),
        (
            &["table1", "--fault-drop", "5"][..],
            "--fault-drop applies to run, trace, stress, fig2",
        ),
        (
            &["dirscale", "--procs", "64"][..],
            "--procs applies to run, trace, dump-trace, suite, fig2, table2, fig3, table3, \
             fig4, sens-buffers, sens-cache, miss-latency, topology, degrade, run-all, report, \
             table1, stress, not 'dirscale'",
        ),
        (
            &["scaling", "--procs", "32"][..],
            "--procs applies to run, trace, dump-trace, suite, fig2, table2, fig3, table3, \
             fig4, sens-buffers, sens-cache, miss-latency, topology, degrade, run-all, report, \
             table1, stress, not 'scaling'",
        ),
        (
            &["table1", "--scale", "tiny"][..],
            "--scale applies to run, trace, dump-trace, suite, fig2, table2, fig3, table3, \
             fig4, sens-buffers, sens-cache, miss-latency, topology, scaling, dirscale, degrade, \
             run-all, report, not 'table1'",
        ),
        (
            &["stress", "--app", "lu"][..],
            "--app applies to run, trace, dump-trace, suite, fig2, table2, fig3, table3, \
             fig4, sens-buffers, sens-cache, miss-latency, topology, scaling, dirscale, degrade, \
             run-all, report, not 'stress'",
        ),
    ] {
        let out = dirext(args);
        assert_eq!(out.status.code(), Some(1), "dirext {args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "dirext {args:?}: {err}");
        assert!(out.stdout.is_empty(), "dirext {args:?} must not run");
    }
    assert!(!std::path::Path::new(svg).exists(), "no figure written");
}

#[test]
fn procs_out_of_range_is_a_clean_error() {
    for bad in ["0", "1025"] {
        let out = dirext(&["run", "--app", "water", "--scale", "tiny", "--procs", bad]);
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("between 1 and 1024"), "{bad}: {err}");
        assert!(!err.contains("panicked"), "{bad}: must not panic");
    }
}

#[test]
fn full_map_past_64_nodes_is_a_clean_config_error() {
    // 65 nodes is parseable now, but the default full-map directory
    // cannot serve it: the error must name the organization and the
    // limit, and suggest nothing panicked.
    let out = dirext(&["run", "--app", "water", "--scale", "tiny", "--procs", "65"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("full"), "names the organization: {err}");
    assert!(err.contains("64"), "names the node limit: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn flat_mesh_past_256_nodes_is_a_clean_config_error() {
    // The flat mesh precomputes all-pairs routes up to 256 nodes: past
    // that, the error must name the network, its limit and the two-level
    // mesh, and nothing may panic.
    let args = "run --app water --scale tiny --procs 300 --network mesh64 --dir ptr4b";
    let out = dirext(&args.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mesh64"), "names the network: {err}");
    assert!(err.contains("256"), "names the node limit: {err}");
    assert!(err.contains("hmesh"), "names the way out: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn scalable_directory_runs_past_64_nodes() {
    let json = stdout(&[
        "run",
        "--app",
        "water",
        "--scale",
        "tiny",
        "--procs",
        "96",
        "--dir",
        "ptr4b",
        "--network",
        "hmesh64",
        "--json",
    ]);
    assert!(json.contains("\"exec_cycles\""), "{json}");
}

#[test]
fn unknown_dir_organization_is_a_clean_error() {
    let out = dirext(&["run", "--app", "water", "--dir", "ptrXb"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("directory organization"), "{err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn missing_trace_file_error_names_the_path() {
    let out = dirext(&["run", "--trace", "/nonexistent-trace-file"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent-trace-file"));
}

#[test]
fn help_documents_crash_safe_sweep_flags() {
    let help = stdout(&["help"]);
    for flag in ["--journal", "--resume", "--keep-going"] {
        assert!(help.contains(flag), "help must mention {flag}");
    }
    assert!(
        help.contains("130"),
        "help documents the interrupt exit code"
    );
}

#[test]
fn journaled_sweep_resumes_with_identical_output() {
    let dir = std::env::temp_dir().join(format!("dirext-journal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("fig2.jsonl");
    let args = [
        "fig2",
        "--scale",
        "tiny",
        "--app",
        "water",
        "--csv",
        "--journal",
        journal.to_str().unwrap(),
    ];
    let first = stdout(&args);
    let recorded = std::fs::read_to_string(&journal).unwrap();
    assert!(
        recorded.lines().count() > 8,
        "header plus one line per cell"
    );

    // Resuming over the complete journal replays every cell from the log
    // and reproduces the artifact byte for byte.
    let mut resume_args = args.to_vec();
    resume_args.push("--resume");
    let out = dirext(&resume_args);
    assert!(out.status.success());
    assert_eq!(first, String::from_utf8_lossy(&out.stdout));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resuming"),
        "resume notice goes to stderr"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_to_overwrite_without_the_flag() {
    let dir = std::env::temp_dir().join(format!("dirext-overwrite-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("fig2.jsonl");
    let args = [
        "fig2",
        "--scale",
        "tiny",
        "--app",
        "lu",
        "--journal",
        journal.to_str().unwrap(),
    ];
    let _ = stdout(&args);
    // A second run against the same journal without --resume must refuse
    // rather than clobber the log.
    let out = dirext(&args);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs fig2 on Water with every message dropped and no retransmission:
/// each cell wedges and its watchdog fires, on every retry.
fn failing_fig2(extra: &[&str]) -> Output {
    bin()
        .args(["fig2", "--scale", "tiny", "--app", "water"])
        .args(["--fault-drop", "1000", "--fault-retries", "0"])
        .args(extra)
        .output()
        .expect("failed to launch dirext")
}

#[test]
fn failing_cells_quarantine_with_exit_code_2() {
    let out = failing_fig2(&["--keep-going", "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2), "quarantine exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("8 of 8 cells quarantined"), "{err}");
    assert!(err.contains("Water"), "{err}");
}

#[test]
fn failing_cell_without_keep_going_exits_1() {
    let out = failing_fig2(&[]);
    assert_eq!(out.status.code(), Some(1), "plain failure exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("failed after 3 attempt(s): watchdog fired"),
        "{err}"
    );
}

#[test]
fn cw_under_sc_is_a_clean_error() {
    let out = dirext(&[
        "run",
        "--app",
        "water",
        "--scale",
        "tiny",
        "--protocol",
        "CW",
        "--consistency",
        "sc",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("relaxed consistency"), "{err}");
    assert!(!err.contains("panicked"));
}

#[test]
fn jobs_past_host_clamps_with_a_note_and_identical_output() {
    let serial = stdout(&["fig2", "--scale", "tiny", "--app", "lu", "--csv"]);
    let out = dirext(&[
        "fig2", "--scale", "tiny", "--app", "lu", "--csv", "--jobs", "9999",
    ]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--jobs 9999 exceeds") && err.contains("available CPU"),
        "clamp note missing: {err}"
    );
    assert_eq!(serial, String::from_utf8_lossy(&out.stdout));
}

#[test]
fn sweep_with_jobs_matches_serial_csv() {
    let serial = stdout(&["fig2", "--scale", "tiny", "--app", "lu", "--csv"]);
    let pooled = stdout(&[
        "fig2", "--scale", "tiny", "--app", "lu", "--csv", "--jobs", "2",
    ]);
    assert_eq!(serial, pooled);
}

#[test]
fn node_fault_run_reports_crash_telemetry() {
    let t = stdout(&[
        "run",
        "--app",
        "water",
        "--scale",
        "tiny",
        "--procs",
        "8",
        "--protocol",
        "P+CW+M",
        "--node-fault-crashes",
        "2",
        "--json",
    ]);
    let v: serde_json::Value = serde_json::from_str(&t).expect("valid JSON");
    assert_eq!(v["node_crashes"].as_u64(), Some(2), "{t}");
    assert_eq!(v["node_recoveries"].as_u64(), Some(2), "{t}");
    assert!(v["crash_drops"].as_u64().unwrap() > 0, "{t}");
}

#[test]
fn node_fault_explicit_schedule_runs_and_is_seed_independent() {
    // An explicit schedule fixes the windows, so the seed flag is
    // rejected alongside it only via --node-fault-crashes; the schedule
    // itself must parse and drive the run.
    let t = stdout(&[
        "run",
        "--app",
        "water",
        "--scale",
        "tiny",
        "--procs",
        "8",
        "--node-fault-schedule",
        "3@2000-6000",
        "--node-fault-detect",
        "300",
        "--json",
    ]);
    let v: serde_json::Value = serde_json::from_str(&t).expect("valid JSON");
    assert_eq!(v["node_crashes"].as_u64(), Some(1), "{t}");
    assert_eq!(v["node_recoveries"].as_u64(), Some(1), "{t}");
}

#[test]
fn node_fault_sweep_is_identical_across_jobs() {
    // A seeded crash schedule is a property of the cell, not of the
    // worker that runs it.
    let base = &[
        "degrade", "--app", "mp3d", "--scale", "tiny", "--procs", "8",
    ][..];
    let serial = stdout(&[base, &["--jobs", "1"]].concat());
    let pooled = stdout(&[base, &["--jobs", "2"]].concat());
    assert_eq!(serial, pooled);
    assert!(serial.contains("recovered"), "{serial}");
}

#[test]
fn node_fault_flag_misuse_is_a_clean_parse_error() {
    for (args, needle) in [
        (
            &["run", "--node-fault-crashes", "0"][..],
            "must be at least 1",
        ),
        (
            &[
                "run",
                "--node-fault-crashes",
                "2",
                "--node-fault-schedule",
                "1@100-900",
            ][..],
            "conflicts",
        ),
        (
            &["run", "--node-fault-seed", "7"][..],
            "only applies with --node-fault-crashes",
        ),
        (
            &["fig2", "--node-fault-crashes", "2"][..],
            "applies to run, trace, stress and degrade",
        ),
        (
            &["degrade", "--node-fault-crashes", "2"][..],
            "sweeps the crash-count axis itself",
        ),
        (
            &["run", "--node-fault-schedule", "3@2000"][..],
            "expected NODE@CRASH-RECOVER",
        ),
        (
            &["run", "--node-fault-schedule", "3@9000-2000"][..],
            "must come after the crash",
        ),
        (
            &[
                "run",
                "--procs",
                "4",
                "--node-fault-schedule",
                "9@2000-9000",
            ][..],
            "4 processors",
        ),
    ] {
        let out = dirext(args);
        assert!(!out.status.success(), "dirext {args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "dirext {args:?}: {err}");
        assert!(!err.contains("panicked"), "must not panic: {err}");
    }
}

#[test]
fn degrade_command_prints_the_crash_axis() {
    let t = stdout(&[
        "degrade", "--app", "water", "--scale", "tiny", "--procs", "8",
    ]);
    assert!(t.contains("Graceful degradation"), "{t}");
    for col in ["crashes", "recovered", "purged", "lost-blocks"] {
        assert!(t.contains(col), "missing column {col}: {t}");
    }
    // The axis rows: the crash-free baseline plus the faulted levels.
    for level in ["0", "1", "2", "4"] {
        assert!(
            t.lines().any(|l| l.trim_start().starts_with(level)),
            "missing crash level {level}: {t}"
        );
    }
}

#[test]
fn help_documents_node_fault_injection() {
    let help = stdout(&["help"]);
    for flag in [
        "--node-fault-crashes",
        "--node-fault-schedule",
        "--node-fault-seed",
        "--node-fault-detect",
        "degrade",
    ] {
        assert!(help.contains(flag), "help must mention {flag}");
    }
}
