//! `dirext` — command-line experiment runner.
//!
//! Regenerates every table and figure of *"Combined Performance Gains of
//! Simple Cache Protocol Extensions"* (ISCA 1994) from the `dirext`
//! simulator. Run `dirext help` for usage.

mod svg;

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use dirext_core::config::Consistency;
use dirext_core::sharer::DirOrg;
use dirext_core::ProtocolKind;
use dirext_sim::experiments::fig2::FIG2_PROTOCOLS;
use dirext_sim::experiments::fig3::FIG3_PROTOCOLS;
use dirext_sim::experiments::fig4::FIG4_PROTOCOLS;
use dirext_sim::experiments::{
    self, Constraint, DegradeParams, Journal, Quarantine, SweepError, SweepOpts,
};
use dirext_sim::{FaultPlan, Machine, MachineConfig, NetworkKind, NodeFaultEvent, NodeFaultPlan};
use dirext_trace::{Workload, MAX_NODES};
use dirext_workloads::random::MAX_RANDOM_PROCS;
use dirext_workloads::{App, Scale};

/// Default journal path when `--resume` is given without `--journal`.
const DEFAULT_JOURNAL: &str = "dirext-journal.jsonl";

/// Every command `dispatch` accepts besides the [`PAPER_SWEEPS`].
/// `parse_args` checks the command against both lists before it reads any
/// flag, so `dirext assemble fig2` reports the unknown command, not its
/// argument.
const COMMANDS: &[&str] = &[
    "table1",
    "stress",
    "run-all",
    "scaling",
    "dirscale",
    "degrade",
    "run",
    "trace",
    "validate",
    "dump-trace",
    "report",
    "suite",
    "help",
    "--help",
    "-h",
];

/// A paper sweep's rendered result: the text table, plus the CSV and the
/// SVG figure for the sweeps that have them.
struct Rendered {
    text: String,
    csv: Option<String>,
    svg: Option<String>,
}

/// One of the paper's sweeps: its command, its `report` heading, and the
/// function that runs it over a suite and renders the result.
struct PaperSweep {
    command: &'static str,
    heading: &'static str,
    run: fn(&[Workload], &SweepOpts) -> Result<Rendered, SweepError>,
}

/// The paper's sweeps in `run-all` order. The per-command dispatch,
/// `run-all` and `report` all read this table.
static PAPER_SWEEPS: [PaperSweep; 9] = [
    PaperSweep {
        command: "fig2",
        heading: "Figure 2 — relative execution times (RC)",
        run: |s, o| {
            let r = experiments::fig2(s, o)?;
            Ok(Rendered {
                csv: Some(r.csv()),
                svg: Some(bars(
                    "Figure 2: execution time relative to BASIC (RC)",
                    &FIG2_PROTOCOLS.map(|k| k.name().to_owned()),
                    r.rows
                        .iter()
                        .map(|row| (row.app.clone(), row.relative_times())),
                )),
                ..text(&r)
            })
        },
    },
    PaperSweep {
        command: "table2",
        heading: "Table 2 — miss-rate components",
        run: |s, o| {
            let r = experiments::table2(s, o)?;
            Ok(Rendered {
                csv: Some(r.csv()),
                ..text(&r)
            })
        },
    },
    PaperSweep {
        command: "fig3",
        heading: "Figure 3 — sequential consistency",
        run: |s, o| {
            let r = experiments::fig3(s, o)?;
            Ok(Rendered {
                csv: Some(r.csv()),
                svg: Some(bars(
                    "Figure 3: execution time under SC relative to B-SC",
                    &FIG3_PROTOCOLS.map(|k| format!("{}-SC", k.name())),
                    r.rows
                        .iter()
                        .map(|row| (row.app.clone(), row.relative_times())),
                )),
                ..text(&r)
            })
        },
    },
    PaperSweep {
        command: "table3",
        heading: "Table 3 — mesh link widths",
        run: |s, o| {
            let r = experiments::table3(s, o)?;
            Ok(Rendered {
                csv: Some(r.csv()),
                ..text(&r)
            })
        },
    },
    PaperSweep {
        command: "fig4",
        heading: "Figure 4 — network traffic",
        run: |s, o| {
            let r = experiments::fig4(s, o)?;
            Ok(Rendered {
                csv: Some(r.csv()),
                svg: Some(bars(
                    "Figure 4: network traffic normalized to BASIC (RC)",
                    &FIG4_PROTOCOLS.map(|k| k.name().to_owned()),
                    r.rows
                        .iter()
                        .map(|row| (row.app.clone(), row.relative_traffic())),
                )),
                ..text(&r)
            })
        },
    },
    PaperSweep {
        command: "sens-buffers",
        heading: "Sensitivity — small buffers (5.4)",
        run: |s, o| {
            Ok(text(&experiments::sensitivity(
                s,
                Constraint::SmallBuffers,
                o,
            )?))
        },
    },
    PaperSweep {
        command: "sens-cache",
        heading: "Sensitivity — 16-KB SLC (5.4)",
        run: |s, o| Ok(text(&experiments::sensitivity(s, Constraint::SmallSlc, o)?)),
    },
    PaperSweep {
        command: "miss-latency",
        heading: "Read-miss latency — BASIC vs CW (5.1)",
        run: |s, o| Ok(text(&experiments::miss_latency(s, o)?)),
    },
    PaperSweep {
        command: "topology",
        heading: "Topology sweep (extension)",
        run: |s, o| Ok(text(&experiments::topology(s, o)?)),
    },
];

/// A sweep result with only its text table.
fn text(r: &impl std::fmt::Display) -> Rendered {
    Rendered {
        text: r.to_string(),
        csv: None,
        svg: None,
    }
}

/// A figure as grouped bars around the BASIC = 1.0 line: one group per
/// `(application, bar heights)` row, one bar per series.
fn bars(title: &str, series: &[String], rows: impl Iterator<Item = (String, Vec<f64>)>) -> String {
    let (groups, values): (Vec<_>, Vec<_>) = rows.unzip();
    svg::grouped_bars(title, &groups, series, &values, 1.0)
}

/// The [`PAPER_SWEEPS`] entry of `command`, if it is one.
fn paper_sweep(command: &str) -> Option<&'static PaperSweep> {
    PAPER_SWEEPS.iter().find(|p| p.command == command)
}

/// The flags that take no value.
const SWITCHES: [&str; 4] = ["--json", "--csv", "--resume", "--keep-going"];

/// Every flag `dirext` knows, in rows of space-separated flags that the
/// same commands read, each with the commands whose `dispatch` arm reads
/// them. `parse_args` rejects a flag given to any other command instead of
/// silently ignoring it.
fn flag_table() -> Vec<(&'static str, Vec<&'static str>)> {
    let with = |a: &[&'static str], b: &[&'static str]| [a, b].concat();
    let paper: Vec<&str> = PAPER_SWEEPS.iter().map(|p| p.command).collect();
    // The sweep commands: every command that runs through `sweep_opts`.
    let sweeps = with(
        &paper,
        &["scaling", "dirscale", "degrade", "run-all", "report"],
    );
    let workload = with(&["run", "trace", "dump-trace", "suite"], &sweeps);
    // `scaling` and `dirscale` sweep their own node counts.
    let procs = with(&workload, &["table1", "stress"])
        .into_iter()
        .filter(|c| !["scaling", "dirscale"].contains(c))
        .collect();
    let run_trace_stress = ["run", "trace", "stress"];
    vec![
        ("--scale --app", workload),
        ("--procs", procs),
        (
            "--protocol --consistency --json --network",
            vec!["run", "trace"],
        ),
        ("--dir --watchdog --audit-every", run_trace_stress.to_vec()),
        ("--trace", vec!["run", "trace", "validate"]),
        ("--last --ring", vec!["trace"]),
        ("--seeds", vec!["stress"]),
        ("--csv", vec!["fig2", "table2", "fig3", "table3", "fig4"]),
        ("--svg", vec!["fig2", "fig3", "fig4"]),
        ("--out", vec!["report"]),
        ("--journal --resume --keep-going", sweeps.clone()),
        ("--jobs", with(&sweeps, &["stress"])),
        (
            "--fault-drop --fault-dup --fault-jitter --fault-seed --fault-retries",
            with(&run_trace_stress, &sweeps),
        ),
        // Every command parses these; `parse_args` then checks them against
        // the command and against each other.
        (
            "--node-fault-crashes --node-fault-seed --node-fault-detect --node-fault-schedule",
            with(COMMANDS, &paper),
        ),
    ]
}

/// The commands that read `flag`, or `None` for a flag `dirext` does not
/// know.
fn readers(flag: &str) -> Option<Vec<&'static str>> {
    flag_table()
        .into_iter()
        .find(|(flags, _)| flags.split(' ').any(|f| f == flag))
        .map(|(_, commands)| commands)
}

const USAGE: &str = "\
dirext — reproduce 'Combined Performance Gains of Simple Cache Protocol Extensions' (ISCA 1994)

USAGE:
    dirext <COMMAND> [OPTIONS]

    Each option applies only to the commands it names; any other command
    rejects it.

COMMANDS:
    fig2           Figure 2: relative execution times under RC
    table2         Table 2: cold & coherence miss rates
    fig3           Figure 3: execution times under SC
    table3         Table 3: execution-time ratios on 64/32/16-bit meshes
    fig4           Figure 4: network traffic normalized to BASIC
    table1         Table 1: hardware cost model
    sens-buffers   §5.4: 4-entry FLWB/SLWB sensitivity
    sens-cache     §5.4: 16-KB SLC sensitivity
    miss-latency   §5.1: average read-miss latency, BASIC vs CW
    scaling        Extension: processor-count sweep 4..64 (--app)
    dirscale       Extension: directory organizations (full-map, limited
                   pointers, coarse vector, directoryless) at 64, 256 and
                   1024 nodes on the hierarchical mesh (--app)
    degrade        Extension: graceful-degradation sweep — seeded node
                   crash/recovery counts (0/1/2/4) crossed with every
                   feasible directory organization and protocol stack
                   (--app, --procs; --node-fault-seed/--node-fault-detect
                   shape the schedules). Journaled and resumable like
                   the paper sweeps
    topology       Extension: uniform vs mesh vs ring interconnects
    stress         Protocol fuzzer: random workloads through all protocols
                   (--seeds N, default 50; every run is coherence-audited)
    run-all        Every experiment in sequence (the full paper sweep);
                   honors --jobs for parallel execution
    run            One simulation: --app or --trace, --protocol, --consistency
    trace          Like `run`, but records every directory and cache state
                   transition, replays the trace through the declarative
                   protocol tables, and prints the tail (--last N) with a
                   conformance verdict
    dump-trace     Write a workload as a text trace to stdout (--app, --scale)
    validate       Check a trace file without running it (--trace FILE)
    report         Run every experiment and write a markdown report (--out)
    suite          Print the workload suite's sizes
    help           This message

OPTIONS:
    --scale     For the sweep commands (listed under --jobs), run, trace,
                dump-trace and suite: problem scale (default: paper)
    --procs     For the sweep commands except scaling and dirscale (which
                sweep their own node counts), run, trace, dump-trace,
                suite, table1 and stress: processor count (default: 16; up
                to 1024 with a scalable --dir organization, 64 with the
                full-map directory and for `stress`)
    --dir       Directory organization for run/trace/stress: full (default),
                ptr4b, ptr4nb, coarse8, none (any ptrNb/ptrNnb/coarseN)
    --app       For the sweep commands, run, trace, dump-trace and suite:
                restrict to one application (MP3D, Cholesky, Water, LU,
                Ocean). run and trace take --trace FILE instead of --app,
                --scale and --procs: the file fixes the workload
    --protocol  For run/trace: BASIC, P, M, CW, P+CW, P+M, CW+M, P+CW+M
    --consistency  For run/trace: rc (default) or sc
    --json      For run/trace: emit the metrics as JSON
    --csv       For fig2/table2/fig3/table3/fig4: emit CSV instead of a table
    --svg       For fig2/fig3/fig4: also write the figure as an SVG file
    --trace     For run/trace/validate: load the workload from a text
                trace file
    --seeds     For `stress`: number of random seeds to sweep (default 50)
    --out       For `report`: output file (default: stdout)
    --network   For run/trace: uniform (default), mesh64, mesh32, mesh16,
                ring64, ring32, ring16, hmesh64, hmesh32, hmesh16
                (hmesh = two-level hierarchical mesh, up to 1024 nodes)
    --last      For `trace`: how many trailing transition records to print
                (default 32; 0 = none, just the verdict)
    --ring      For `trace`: transition-ring capacity per controller
                (default 65536; oldest records are overwritten on overflow,
                unchecked, and the verdict counts them)
    --jobs      Worker threads for the sweep commands (fig2/table2/fig3/
                table3/fig4/sens-*/miss-latency/topology/scaling/
                dirscale/degrade/run-all/report) and stress. Default 1
                (serial); 0 = all CPU cores.
                Results are byte-identical for any value. Each cell
                runs on one thread; the sweep runs cells in parallel.

CRASH-SAFE SWEEPS (fig2/table2/fig3/table3/fig4/sens-*/miss-latency/
topology/scaling/dirscale/degrade/run-all/report):
    --journal PATH  Append each completed cell to a write-ahead JSONL log.
                    A killed sweep loses at most the in-flight cells; the
                    log replays with --resume. Refuses to overwrite an
                    existing non-empty file unless --resume is also given.
    --resume        Load the journal (default path dirext-journal.jsonl if
                    --journal is absent), skip every cell it records, and
                    reassemble byte-identical artifacts. Safe to repeat;
                    a missing journal file starts a fresh run.
    --keep-going    Quarantine failing cells and finish the sweep instead
                    of stopping at the first failure; prints a per-cell
                    failure report and exits with code 2.

    Ctrl-C (SIGINT) drains in-flight cells, flushes the journal, and exits
    130; a second Ctrl-C kills immediately. Exit codes: 0 success,
    1 error, 2 completed-with-quarantined-cells, 130 interrupted.

FAULT INJECTION (for `run`, `trace`, `stress` and the sweep commands):
    --fault-drop     Probability a message is dropped before link-layer
                     retransmission, in permille (0-1000)
    --fault-dup      Probability a message is duplicated, in permille
    --fault-jitter   Maximum extra delivery delay, in cycles
    --fault-seed     Fault-schedule RNG seed (default 1); the same seed
                     reproduces the same schedule byte for byte
    --fault-retries  Link-layer retransmission budget per message
                     (default 16; 0 makes every drop a permanent loss)
    --watchdog       For run/trace/stress: progress-watchdog window in
                     processor clocks (default 1000000; 0 disables it)
    --audit-every    For run/trace/stress: check mid-run coherence
                     invariants every N events (default 0 = only at
                     quiescence)

NODE FAULT INJECTION (whole-node crash/recovery; `run`, `trace`, `stress`
and the `degrade` sweep):
    --node-fault-crashes N     Crash N seed-chosen nodes (never node 0) at
                               staggered cycles, each recovering after a
                               seed-derived outage
    --node-fault-seed S        Crash-schedule seed (default 1); the same
                               seed reproduces the same schedule bit for
                               bit across --jobs
    --node-fault-detect D      Cycles between a crash and the directories'
                               reconstruction sweep (default 500)
    --node-fault-schedule SPEC Explicit windows instead of a seed:
                               comma-separated NODE@CRASH-RECOVER entries,
                               e.g. 3@2000-9000,5@15000-22000
";

#[derive(Debug)]
struct Args {
    command: String,
    scale: Scale,
    procs: usize,
    app: Option<App>,
    protocol: ProtocolKind,
    consistency: Consistency,
    json: bool,
    csv: bool,
    trace: Option<String>,
    seeds: u64,
    network: NetworkKind,
    dir: DirOrg,
    out: Option<String>,
    svg: Option<String>,
    fault: FaultPlan,
    node_fault_crashes: Option<usize>,
    /// `--node-fault-seed` and `--node-fault-detect`, or their defaults.
    crash_shape: DegradeParams,
    node_fault_schedule: Option<Vec<NodeFaultEvent>>,
    watchdog: Option<u64>,
    audit_every: u64,
    jobs: usize,
    last: usize,
    ring: usize,
    journal: Option<String>,
    resume: bool,
    keep_going: bool,
}

impl Args {
    /// Applies the directory organization and robustness flags shared by
    /// `run`, `trace` and `stress`.
    fn harden(&self, mut cfg: MachineConfig) -> MachineConfig {
        cfg = cfg.with_dir_org(self.dir);
        if self.fault.is_active() {
            cfg = cfg.with_faults(self.fault);
        }
        if let Some(plan) = self.node_fault_plan(cfg.procs) {
            cfg = cfg.with_node_faults(plan);
        }
        if let Some(w) = self.watchdog {
            cfg = cfg.with_watchdog(w);
        }
        if self.audit_every > 0 {
            cfg = cfg.with_audit_every(self.audit_every);
        }
        cfg
    }

    /// The whole-node crash/recovery plan implied by the `--node-fault-*`
    /// flags for a machine of `procs` nodes (`None` when no crash was
    /// asked for). The explicit schedule wins; otherwise the seed draws
    /// the requested number of crash windows.
    fn node_fault_plan(&self, procs: usize) -> Option<NodeFaultPlan> {
        let detect_delay = self.crash_shape.detect_delay;
        if let Some(events) = &self.node_fault_schedule {
            return Some(NodeFaultPlan {
                events: events.clone(),
                detect_delay,
            });
        }
        let crashes = self.node_fault_crashes?;
        let mut plan = NodeFaultPlan::seeded(self.crash_shape.seed, procs, crashes);
        plan.detect_delay = detect_delay;
        Some(plan)
    }

    /// Resolved worker-thread count: `--jobs 0` means all CPU cores, and
    /// explicit requests are clamped to the host's available parallelism
    /// (oversubscribing a sweep only adds scheduler thrash, never speed).
    /// The clamp is reported once so logs record the effective count.
    fn jobs(&self) -> usize {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.jobs == 0 {
            return host;
        }
        let effective = self.jobs.min(host);
        if effective < self.jobs {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "note: --jobs {} exceeds the {host} available CPU(s); using --jobs {effective}",
                    self.jobs
                );
            });
        }
        effective
    }

    /// The sweep options (worker threads, fault overlay, journal,
    /// quarantine, SIGINT cancellation) for the experiment drivers.
    ///
    /// Opens the journal when `--journal`/`--resume` ask for one and arms
    /// the SIGINT drain handler.
    fn sweep_opts(&self) -> Result<SweepOpts, Box<dyn std::error::Error>> {
        let mut opts = SweepOpts::jobs(self.jobs());
        if self.fault.is_active() {
            opts = opts.with_fault(self.fault);
        }
        if self.keep_going {
            opts = opts.keep_going();
        }
        let path = self
            .journal
            .clone()
            .or_else(|| self.resume.then(|| DEFAULT_JOURNAL.to_owned()));
        if let Some(path) = path {
            let journal = if self.resume {
                Journal::resume(&path)?
            } else {
                Journal::create(&path)?
            };
            if journal.completed_cells() > 0
                || journal.recovered_lines() > 0
                || journal.corrupt_lines() > 0
            {
                let mut dropped = Vec::new();
                if journal.recovered_lines() > 0 {
                    dropped.push(format!("{} torn", journal.recovered_lines()));
                }
                if journal.corrupt_lines() > 0 {
                    dropped.push(format!("{} checksum-failed", journal.corrupt_lines()));
                }
                eprintln!(
                    "journal: resuming from {path} — {} completed cell(s) will be skipped{}",
                    journal.completed_cells(),
                    if dropped.is_empty() {
                        String::new()
                    } else {
                        format!(
                            " ({} line(s) dropped, those cells re-run)",
                            dropped.join(", ")
                        )
                    }
                );
            }
            opts = opts.with_journal(Arc::new(journal));
        }
        Ok(opts.with_cancel(sigint::arm()))
    }
}

/// Minimal std-only SIGINT hook: the first Ctrl-C sets the cooperative
/// cancellation flag (sweeps drain in-flight cells and flush the journal),
/// then restores the default disposition so a second Ctrl-C kills the
/// process immediately.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        // C `signal(2)` from the already-linked libc; enough for a single
        // set-a-flag handler without pulling in a signal crate.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    /// Installs the handler (idempotent) and returns the shared flag.
    pub fn arm() -> Arc<AtomicBool> {
        let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
        let handler: extern "C" fn(i32) = on_sigint;
        #[allow(clippy::fn_to_numeric_cast)]
        unsafe {
            signal(SIGINT, handler as usize);
        }
        flag
    }
}

#[cfg(not(unix))]
mod sigint {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// No signal plumbing off Unix; the flag still works programmatically.
    pub fn arm() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

/// Parses a `--node-fault-schedule` value: comma-separated
/// `NODE@CRASH-RECOVER` windows (e.g. `3@2000-9000,5@15000-22000`).
fn parse_node_fault_schedule(s: &str) -> Result<Vec<NodeFaultEvent>, String> {
    s.split(',')
        .map(|entry| {
            let bad = |why: &str| {
                format!(
                    "bad --node-fault-schedule entry '{entry}': {why} (expected \
                     NODE@CRASH-RECOVER, e.g. 3@2000-9000)"
                )
            };
            let (node, window) = entry
                .split_once('@')
                .ok_or_else(|| bad("missing the '@' between node and window"))?;
            let (crash, recover) = window
                .split_once('-')
                .ok_or_else(|| bad("missing the '-' between crash and recovery cycles"))?;
            let node: u16 = node
                .trim()
                .parse()
                .map_err(|_| bad("the node is not an index"))?;
            let crash_at: u64 = crash
                .trim()
                .parse()
                .map_err(|_| bad("the crash cycle is not a number"))?;
            let recover_at: u64 = recover
                .trim()
                .parse()
                .map_err(|_| bad("the recovery cycle is not a number"))?;
            if recover_at <= crash_at {
                return Err(format!(
                    "bad --node-fault-schedule entry '{entry}': recovery at cycle {recover_at} \
                     must come after the crash at cycle {crash_at}"
                ));
            }
            Ok(NodeFaultEvent {
                node: dirext_trace::NodeId(node),
                crash_at,
                recover_at,
            })
        })
        .collect()
}

/// The flags of one command line, in order, each with its value (empty
/// for a switch).
struct Flags(Vec<(String, String)>);

impl Flags {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// Reads every value given for `flag` through `parse(flag, value)`, so
    /// a bad value fails even when a later one overrides it, and returns
    /// the last one (`None` when the flag is absent).
    fn get<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for (_, value) in self.0.iter().filter(|(f, _)| f == flag) {
            last = Some(parse(flag, value)?);
        }
        Ok(last)
    }

    /// [`Flags::get`], or `default` when the flag is absent.
    fn or<T>(
        &self,
        flag: &str,
        default: T,
        parse: impl Fn(&str, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        Ok(self.get(flag, parse)?.unwrap_or(default))
    }
}

/// A flag's value as given.
fn verbatim(_: &str, value: &str) -> Result<String, String> {
    Ok(value.to_owned())
}

/// A flag's value as a number.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// A flag's value as a count of at least one.
fn count<T: FromStr + Default + PartialEq>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let n = number(flag, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// A flag's value as a probability in permille.
fn permille(flag: &str, value: &str) -> Result<u32, String> {
    match number(flag, value)? {
        p @ 0..=1000 => Ok(p),
        p => Err(format!("{flag} is permille (0-1000), got {p}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_owned());
    if !COMMANDS.contains(&command.as_str()) && paper_sweep(&command).is_none() {
        return Err(format!("unknown command '{command}'"));
    }
    let mut flags = Flags(Vec::new());
    while let Some(flag) = argv.next() {
        let readers = readers(&flag).ok_or_else(|| format!("unknown option '{flag}'"))?;
        if !readers.contains(&command.as_str()) {
            return Err(format!(
                "{flag} applies to {}, not '{command}'",
                readers.join(", ")
            ));
        }
        let value = if SWITCHES.contains(&flag.as_str()) {
            String::new()
        } else {
            argv.next()
                .ok_or_else(|| format!("missing value for {flag}"))?
        };
        flags.0.push((flag, value));
    }
    if flags.has("--trace") {
        for flag in ["--app", "--scale", "--procs"] {
            if flags.has(flag) {
                return Err(format!(
                    "{flag} conflicts with --trace: the trace file already fixes the workload"
                ));
            }
        }
    }
    let fault = FaultPlan::default();
    let crash_shape = DegradeParams::default();
    let parsed = Args {
        scale: flags.or("--scale", Scale::Paper, |_, v| match v {
            "paper" => Ok(Scale::Paper),
            "small" => Ok(Scale::Small),
            "tiny" => Ok(Scale::Tiny),
            other => Err(format!("unknown scale '{other}'")),
        })?,
        procs: flags.or("--procs", 16, |f, v| match number(f, v)? {
            p @ 1..=MAX_NODES => Ok(p),
            p => Err(format!(
                "--procs must be between 1 and {MAX_NODES}, got {p}"
            )),
        })?,
        app: flags.get("--app", |_, v| {
            App::ALL
                .into_iter()
                .find(|a| a.name().eq_ignore_ascii_case(v))
                .ok_or_else(|| format!("unknown app '{v}'"))
        })?,
        protocol: flags.or("--protocol", ProtocolKind::Basic, |_, v| {
            ProtocolKind::ALL
                .into_iter()
                .find(|k| k.name().eq_ignore_ascii_case(v))
                .ok_or_else(|| format!("unknown protocol '{v}'"))
        })?,
        consistency: flags.or("--consistency", Consistency::Rc, |_, v| match v {
            "rc" => Ok(Consistency::Rc),
            "sc" => Ok(Consistency::Sc),
            other => Err(format!("unknown consistency '{other}'")),
        })?,
        json: flags.has("--json"),
        csv: flags.has("--csv"),
        trace: flags.get("--trace", verbatim)?,
        seeds: flags.or("--seeds", 50, count)?,
        network: flags.or("--network", NetworkKind::Uniform, |_, v| {
            NetworkKind::parse(v).ok_or_else(|| format!("unknown network '{v}'"))
        })?,
        dir: flags.or("--dir", DirOrg::FullMap, |_, v| {
            DirOrg::parse(v).ok_or_else(|| {
                format!(
                    "unknown directory organization '{v}' (expected full, none, \
                     ptrNb, ptrNnb or coarseN — e.g. ptr4b, coarse8)"
                )
            })
        })?,
        out: flags.get("--out", verbatim)?,
        svg: flags.get("--svg", verbatim)?,
        fault: FaultPlan {
            drop_permille: flags.or("--fault-drop", fault.drop_permille, permille)?,
            dup_permille: flags.or("--fault-dup", fault.dup_permille, permille)?,
            jitter_cycles: flags.or("--fault-jitter", fault.jitter_cycles, number)?,
            seed: flags.or("--fault-seed", fault.seed, number)?,
            retry_budget: flags.or("--fault-retries", fault.retry_budget, number)?,
        },
        node_fault_crashes: flags.get("--node-fault-crashes", |f, v| match number(f, v)? {
            0 => Err(format!(
                "{f} must be at least 1 (omit the flag for a fault-free run)"
            )),
            n => Ok(n),
        })?,
        crash_shape: DegradeParams {
            seed: flags.or("--node-fault-seed", crash_shape.seed, number)?,
            detect_delay: flags.or("--node-fault-detect", crash_shape.detect_delay, number)?,
        },
        node_fault_schedule: flags
            .get("--node-fault-schedule", |_, v| parse_node_fault_schedule(v))?,
        watchdog: flags.get("--watchdog", number)?,
        audit_every: flags.or("--audit-every", 0, number)?,
        jobs: flags.or("--jobs", 1, number)?,
        last: flags.or("--last", 32, number)?,
        ring: flags.or("--ring", 65536, count)?,
        journal: flags.get("--journal", verbatim)?,
        resume: flags.has("--resume"),
        keep_going: flags.has("--keep-going"),
        command,
    };
    if parsed.command == "stress" && parsed.procs > MAX_RANDOM_PROCS {
        return Err(format!(
            "stress fuzzes machines of at most {MAX_RANDOM_PROCS} processors, got --procs {}",
            parsed.procs
        ));
    }
    // Node-fault flags are validated here, at parse time, so a
    // contradictory or out-of-range crash schedule fails before any
    // machine is built.
    if parsed.node_fault_crashes.is_some() && parsed.node_fault_schedule.is_some() {
        return Err(
            "--node-fault-crashes conflicts with --node-fault-schedule: the schedule \
             already fixes how many nodes crash and when"
                .to_owned(),
        );
    }
    let node_faults_on =
        parsed.node_fault_crashes.is_some() || parsed.node_fault_schedule.is_some();
    if node_faults_on {
        match parsed.command.as_str() {
            "run" | "trace" | "stress" => {}
            "degrade" => {
                return Err(
                    "degrade sweeps the crash-count axis itself; shape its schedules with \
                     --node-fault-seed and --node-fault-detect instead"
                        .to_owned(),
                );
            }
            other => {
                return Err(format!(
                    "node-fault injection applies to run, trace, stress and degrade, \
                     not '{other}'"
                ));
            }
        }
        // An explicit schedule can name nodes the machine doesn't have or
        // overlap windows on one node; check against the machine size now
        // (seeded plans are valid by construction). A trace file decides
        // its own processor count, so defer to the simulator there.
        if parsed.trace.is_none() {
            if let Some(plan) = parsed.node_fault_plan(parsed.procs) {
                plan.validate(parsed.procs)
                    .map_err(|e| format!("bad node-fault plan: {e}"))?;
            }
        }
    } else if parsed.command != "degrade" {
        for flag in ["--node-fault-seed", "--node-fault-detect"] {
            if flags.has(flag) {
                return Err(format!(
                    "{flag} only applies with --node-fault-crashes N, \
                     --node-fault-schedule SPEC, or the degrade command"
                ));
            }
        }
    }
    Ok(parsed)
}

fn suite(args: &Args) -> Vec<Workload> {
    let apps: Vec<App> = match args.app {
        Some(a) => vec![a],
        None => App::ALL.to_vec(),
    };
    apps.into_iter()
        .map(|a| a.workload(args.procs, args.scale))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            match e.downcast_ref::<SweepError>() {
                // Quarantine: the sweep *completed* but some cells failed;
                // distinguish from a hard error so harnesses can tell "all
                // results usable except the listed cells" from "no result".
                Some(SweepError::Quarantined(_)) => ExitCode::from(2),
                // Conventional 128+SIGINT code for a cooperative drain.
                Some(SweepError::Interrupted { .. }) => {
                    eprintln!(
                        "note: completed cells are journaled; re-run with --resume to continue"
                    );
                    ExitCode::from(130)
                }
                _ => ExitCode::FAILURE,
            }
        }
    }
}

/// Runs one step of a multi-sweep command (`run-all`, `report`): under
/// `--keep-going`, a quarantined sweep is reported and accumulated so the
/// remaining sweeps still run; every other failure aborts.
fn quarantine_step<T>(
    r: Result<T, SweepError>,
    acc: &mut Quarantine,
) -> Result<Option<T>, Box<dyn std::error::Error>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(SweepError::Quarantined(q)) => {
            eprintln!("{}", SweepError::Quarantined(q.clone()));
            acc.failures.extend(q.failures);
            acc.completed += q.completed;
            acc.total += q.total;
            Ok(None)
        }
        Err(e) => Err(e.into()),
    }
}

/// Folds the quarantines accumulated across a multi-sweep command into
/// the single exit-code-2 error, or succeeds if every sweep was clean.
fn quarantine_verdict(acc: Quarantine) -> Result<(), Box<dyn std::error::Error>> {
    if acc.failures.is_empty() {
        Ok(())
    } else {
        Err(SweepError::Quarantined(acc).into())
    }
}

/// Runs the [`PAPER_SWEEPS`] in order for `run-all` and `report`, handing
/// `each` every sweep's rendering or, when `--keep-going` quarantined some
/// of its cells, how many. Returns the quarantines accumulated.
fn run_paper_sweeps(
    args: &Args,
    opts: &SweepOpts,
    mut each: impl FnMut(&PaperSweep, Result<Rendered, usize>),
) -> Result<Quarantine, Box<dyn std::error::Error>> {
    let suite = suite(args);
    let mut acc = Quarantine::default();
    for sweep in &PAPER_SWEEPS {
        eprintln!("{}: {}...", args.command, sweep.command);
        let failed_before = acc.failures.len();
        let rendered = quarantine_step((sweep.run)(&suite, opts), &mut acc)?;
        each(sweep, rendered.ok_or(acc.failures.len() - failed_before));
    }
    Ok(acc)
}

/// Loads a text trace file; a failure to open it names the path.
fn read_trace(path: &str) -> Result<Workload, Box<dyn std::error::Error>> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open trace '{path}': {e}"))?;
    Ok(dirext_trace::io::read_text(std::io::BufReader::new(file))?)
}

/// Writes an SVG figure to `path`; a failure names the path.
fn write_figure(path: &str, chart: String) -> Result<(), String> {
    std::fs::write(path, chart).map_err(|e| format!("cannot write figure to '{path}': {e}"))?;
    eprintln!("figure written to {path}");
    Ok(())
}

fn dispatch(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(sweep) = paper_sweep(&args.command) {
        let r = (sweep.run)(&suite(args), &args.sweep_opts()?)?;
        if let (Some(path), Some(chart)) = (&args.svg, r.svg) {
            write_figure(path, chart)?;
        }
        match r.csv.filter(|_| args.csv) {
            Some(csv) => print!("{csv}"),
            None => println!("{}", r.text),
        }
        return Ok(());
    }
    match args.command.as_str() {
        "table1" => println!("{}", experiments::table1(args.procs)),
        "stress" => {
            use dirext_workloads::random::random_workload;
            use experiments::pool::run_collect;
            // The per-seed configuration matrix: every feasible protocol ×
            // consistency on the uniform network, plus P+CW+M on the two
            // contended networks (different delivery timing exposes
            // different interleavings).
            let mut combos: Vec<(ProtocolKind, Consistency, NetworkKind)> = Vec::new();
            for kind in ProtocolKind::ALL {
                for consistency in [Consistency::Rc, Consistency::Sc] {
                    if kind.config(consistency).is_feasible() {
                        combos.push((kind, consistency, NetworkKind::Uniform));
                    }
                }
            }
            for net in [
                NetworkKind::Mesh { link_bits: 16 },
                NetworkKind::Ring { link_bits: 16 },
            ] {
                combos.push((ProtocolKind::PCwM, Consistency::Rc, net));
            }
            let workloads: Vec<Workload> = (0..args.seeds)
                .map(|seed| random_workload(seed, args.procs))
                .collect();
            // Fan the whole seed × combo matrix over the worker pool. A
            // failing configuration is recorded and the sweep continues:
            // one broken protocol/seed pair must not mask failures in the
            // rest of the matrix. Slots come back in index order, so the
            // failure list is deterministic for any --jobs value.
            let runs = workloads.len() * combos.len();
            let results = run_collect(args.jobs(), runs, &|| false, |i| {
                let (seed, c) = (i / combos.len(), i % combos.len());
                let (kind, consistency, net) = combos[c];
                let cfg = args.harden(
                    MachineConfig::new(args.procs, kind.config(consistency)).with_network(net),
                );
                let t0 = std::time::Instant::now();
                let outcome = Machine::new(cfg).run(&workloads[seed]);
                let secs = t0.elapsed().as_secs_f64();
                let fail = outcome.err().map(|e| {
                    let label = match net {
                        NetworkKind::Uniform => format!("seed={seed} {kind} {consistency:?}"),
                        _ => format!("seed={seed} {kind} {net:?}"),
                    };
                    eprintln!("FAIL {label}: {e}");
                    format!("{label}: {e}")
                });
                (secs, fail)
            });
            let mut per_seed = vec![0.0f64; workloads.len()];
            let mut failures: Vec<String> = Vec::new();
            for (i, slot) in results.into_iter().enumerate() {
                let (secs, fail) = slot.expect("nothing stops the pool, so it claims every run");
                per_seed[i / combos.len()] += secs;
                failures.extend(fail);
            }
            for (seed, secs) in per_seed.iter().enumerate() {
                eprintln!(
                    "  seed {seed}: {} runs in {secs:.3}s wall-clock",
                    combos.len()
                );
            }
            let mut sorted = per_seed.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let (min, med, max) = (
                sorted.first().copied().unwrap_or(0.0),
                sorted.get(sorted.len() / 2).copied().unwrap_or(0.0),
                sorted.last().copied().unwrap_or(0.0),
            );
            if failures.is_empty() {
                println!(
                    "stress: {runs} runs across {} seeds — all coherence audits passed \
                     (per-seed wall-clock min/median/max {min:.3}/{med:.3}/{max:.3}s, \
                     total {:.3}s, --jobs {})",
                    args.seeds,
                    per_seed.iter().sum::<f64>(),
                    args.jobs()
                );
            } else {
                for f in &failures {
                    println!("FAIL {f}");
                }
                return Err(format!(
                    "stress: {} of {runs} runs failed across {} seeds",
                    failures.len(),
                    args.seeds
                )
                .into());
            }
        }
        "run-all" => {
            let t0 = std::time::Instant::now();
            let opts = args.sweep_opts()?;
            println!("{}", experiments::table1(args.procs));
            let mut acc = run_paper_sweeps(args, &opts, |_, r| {
                if let Ok(r) = r {
                    println!("{}", r.text);
                }
            })?;
            eprintln!("run-all: scaling...");
            let app = args.app.unwrap_or(App::Mp3d);
            if let Some(r) = quarantine_step(
                experiments::scaling(app.name(), |procs| app.workload(procs, args.scale), &opts),
                &mut acc,
            )? {
                println!("{r}");
            }
            eprintln!(
                "run-all: completed in {:.2}s wall-clock with --jobs {}",
                t0.elapsed().as_secs_f64(),
                args.jobs()
            );
            quarantine_verdict(acc)?;
        }
        "scaling" => {
            let app = args.app.unwrap_or(App::Mp3d);
            let result = experiments::scaling(
                app.name(),
                |procs| app.workload(procs, args.scale),
                &args.sweep_opts()?,
            )?;
            println!("{result}");
        }
        "dirscale" => {
            let app = args.app.unwrap_or(App::Mp3d);
            let result = experiments::dirscale(
                app.name(),
                |procs| app.workload(procs, args.scale),
                &args.sweep_opts()?,
            )?;
            println!("{result}");
        }
        "degrade" => {
            let app = args.app.unwrap_or(App::Mp3d);
            let w = app.workload(args.procs, args.scale);
            let result =
                experiments::degrade(app.name(), &w, args.crash_shape, &args.sweep_opts()?)?;
            println!("{result}");
        }
        "run" | "trace" => {
            let w = match &args.trace {
                Some(path) => read_trace(path)?,
                None => args
                    .app
                    .unwrap_or(App::Mp3d)
                    .workload(args.procs, args.scale),
            };
            let proto = args.protocol.config(args.consistency);
            if !proto.is_feasible() {
                return Err(format!(
                    "{} is not implementable under {}: the competitive-update \
                     mechanism needs relaxed consistency",
                    args.protocol, args.consistency
                )
                .into());
            }
            let cfg = args.harden(MachineConfig::new(w.procs(), proto).with_network(args.network));
            let m = if args.command == "run" {
                Machine::new(cfg).run(&w)?
            } else {
                // A conformance violation surfaces as a run error (the
                // machine replays its own trace at quiescence), so reaching
                // this point means every retained record is derivable from
                // the tables.
                let mut machine = Machine::new(cfg.with_trace(args.ring));
                let (m, records, layers) = machine.run_traced(&w)?;
                let names: Vec<&str> = layers
                    .kinds()
                    .iter()
                    .map(|k| k.label())
                    .filter(|l| *l != "BASIC")
                    .collect();
                let tail = records.len().saturating_sub(args.last);
                for r in &records[tail..] {
                    println!("{}", r.render());
                }
                if tail > 0 && args.last > 0 {
                    println!("  ... ({tail} earlier records not shown; --last to adjust)");
                }
                let tables = if names.is_empty() {
                    "BASIC".to_owned()
                } else {
                    format!("BASIC+[{}]", names.join(", "))
                };
                let checked = records.len();
                match machine.trace_overwritten() {
                    0 => {
                        println!("conformance: ok — {checked} transitions checked against {tables}")
                    }
                    lost => println!(
                        "conformance: ok — {checked} of {} transitions recorded checked \
                         against {tables}; {lost} overwritten unchecked (raise --ring to \
                         check them)",
                        checked as u64 + lost
                    ),
                }
                m
            };
            if args.json {
                println!("{}", serde_json::to_string_pretty(&m)?);
            } else {
                println!("{m}");
            }
        }
        "validate" => {
            let Some(path) = &args.trace else {
                return Err("validate needs --trace FILE".into());
            };
            let w = read_trace(path)?;
            w.validate()?;
            println!(
                "{path}: ok — workload '{}', {} processors, {} events, {} shared references",
                w.name(),
                w.procs(),
                w.total_events(),
                w.total_data_refs()
            );
        }
        "dump-trace" => {
            let app = args.app.unwrap_or(App::Mp3d);
            let w = app.workload(args.procs, args.scale);
            let stdout = std::io::stdout();
            dirext_trace::io::write_text(&w, &mut stdout.lock())?;
        }
        "report" => {
            let opts = args.sweep_opts()?;
            let mut doc = format!(
                "# dirext experiment report\n\nScale: {}, {} processors.\n\n",
                args.scale, args.procs
            );
            let mut section = |title: &str, body: String| {
                doc.push_str(&format!("## {title}\n\n```text\n{body}\n```\n\n"));
            };
            section("Table 1 — hardware cost", experiments::table1(args.procs));
            let acc = run_paper_sweeps(args, &opts, |sweep, r| {
                // Under --keep-going a quarantined sweep still gets a
                // section, with the failure report as its body, so the
                // document shape is stable for downstream tooling.
                let body = r.map_or_else(
                    |failed| {
                        format!("QUARANTINED — {failed} cell(s) failed; see the failure report")
                    },
                    |r| r.text,
                );
                section(sweep.heading, body);
            })?;
            match &args.out {
                Some(path) => {
                    std::fs::write(path, &doc)
                        .map_err(|e| format!("cannot write report to '{path}': {e}"))?;
                    println!("report written to {path}");
                }
                None => print!("{doc}"),
            }
            quarantine_verdict(acc)?;
        }
        "suite" => {
            for w in suite(args) {
                println!(
                    "{:10} procs={} events={} shared-refs={}",
                    w.name(),
                    w.procs(),
                    w.total_events(),
                    w.total_data_refs()
                );
            }
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => unreachable!("parse_args admits only COMMANDS, not '{other}'"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn flag_table_matches_usage_and_names_real_commands() {
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        let known: BTreeSet<&str> = flag_table()
            .into_iter()
            .flat_map(|(flags, _)| flags.split(' '))
            .collect();
        assert_eq!(documented, known);
        assert!(SWITCHES.iter().all(|s| known.contains(s)));
        for (flags, commands) in flag_table() {
            for c in commands {
                assert!(
                    COMMANDS.contains(&c) || paper_sweep(c).is_some(),
                    "{flags}: {c}"
                );
            }
        }
    }
}
