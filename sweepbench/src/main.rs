//! `sweepbench`: the dirext benchmark.
//!
//! ```text
//! sweepbench --workload <paper16|scale1024|faults16> --seed N --seconds N --trace 0|1
//! sweepbench --workload <name> --write-golden
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up, runs its cells one
//! after another on one thread for `--seconds` (at least one full pass),
//! repeating the set-up between cells, checks every cell's statistics, and
//! prints the end-to-end metrics. A traced run (`--trace 1`) runs each
//! cell untraced and then traced, compares the two, runs the per-layer
//! microbenchmarks, and prints the per-layer metrics. The last line of
//! standard output is the result as one JSON object. See `README.md` next
//! to this file.

mod calib;
mod cells;
mod check;
mod micro;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dirext_sim::experiments::{journal, Journal, SweepOpts};
use dirext_sim::stats::Metrics;
use dirext_sim::NetworkKind;

use calib::Calib;
use cells::{Bench, DEFAULT_SEED};
use check::{Checker, Recorded};
use spans::{median, self_secs_by_layer, tail_percentile, Spans, NO_CELL};

const USAGE: &str = "usage: sweepbench --workload <paper16|scale1024|faults16> \
                     [--seed N] [--seconds N] [--trace 0|1] [--write-golden]";

/// Set-ups before a traced run's timed passes.
const TRACED_SETUP_REPS: usize = 3;

/// Share of an untraced run's timed loop spent on further set-ups, so the
/// `setup_s` samples spread over the run like the cells.
const SETUP_SHARE: f64 = 0.03;

/// Layers that report a self time, in report order.
const LAYERS: [&str; 9] = [
    "bench",
    "workloads",
    "trace",
    "sim",
    "kernel",
    "memsys",
    "core",
    "network",
    "experiments",
];

#[derive(Debug)]
struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_golden: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut bench = None;
    let mut args = Args {
        bench: Bench::Paper16,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        write_golden: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            args.write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.bench = bench.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweepbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.write_golden {
        write_golden(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch files (journals, spans) live here, inside the checkout.
fn work_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn golden_path(bench: Bench) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.tsv", bench.name()))
}

/// A fresh journal path for this process; any stale file there is removed.
fn journal_path(work: &Path, bench: Bench, tag: &str) -> PathBuf {
    let path = work.join(format!(
        "{}-{}-{tag}.journal",
        bench.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn create_journal(work: &Path, bench: Bench, tag: &str) -> Result<Journal, String> {
    Journal::create(journal_path(work, bench, tag)).map_err(|e| e.to_string())
}

/// Reads a pass's journal back with `Journal::resume` and checks it holds
/// exactly the cells `ran` produced; returns the transient retries its
/// attempt counts record. The journal file is removed afterwards.
fn verify_journal(spans: &mut Spans, opts: SweepOpts, ran: &[Metrics]) -> Result<u64, String> {
    let path = opts
        .journal
        .as_ref()
        .expect("journaled passes carry a journal")
        .path()
        .to_owned();
    drop(opts);
    let outcome = (|| {
        let resumed = spans
            .span("experiments.journal_resume", NO_CELL, |_| {
                Journal::resume(&path)
            })
            .map_err(|e| e.to_string())?;
        if resumed.completed_cells() != ran.len() {
            return Err(format!(
                "journal resumed {} completed cells, the pass completed {}",
                resumed.completed_cells(),
                ran.len()
            ));
        }
        drop(resumed);
        let scan = journal::scan(&path).map_err(|e| e.to_string())?;
        let mut want: Vec<u64> = ran.iter().map(|m| Recorded::of(m).fingerprint).collect();
        let mut got: Vec<u64> = scan
            .completed
            .values()
            .map(|c| Recorded::of(&c.metrics).fingerprint)
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            return Err("journal records differ from the cells' results".to_owned());
        }
        Ok(scan
            .completed
            .values()
            .map(|c| u64::from(c.attempts.saturating_sub(1)))
            .sum())
    })();
    let _ = std::fs::remove_file(&path);
    outcome
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// A per-pass total: the sum over cells of each cell's mean sample, so a
/// partly finished last pass counts correctly.
fn per_pass(cells: usize, samples: &[(usize, f64)]) -> f64 {
    let mut sum = vec![0.0; cells];
    let mut n = vec![0u32; cells];
    for &(c, s) in samples {
        sum[c] += s;
        n[c] += 1;
    }
    sum.iter()
        .zip(&n)
        .filter(|(_, &k)| k > 0)
        .map(|(s, &k)| s / f64::from(k))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sets the workload up once more, throws the result away, and returns
/// the seconds it took.
fn setup_once(args: &Args, work: &Path, spans: &mut Spans) -> Result<f64, String> {
    let path = journal_path(work, args.bench, "setup");
    let t = Instant::now();
    let prepared = cells::setup(args.bench, args.seed, spans, &path)?;
    let secs = t.elapsed().as_secs_f64();
    drop(prepared);
    let _ = std::fs::remove_file(&path);
    Ok(secs)
}

fn load_checker(args: &Args, cells: usize) -> Result<Checker, String> {
    // faults16's statistics depend on the seed; other seeds are checked
    // against the first execution of each cell only.
    if args.bench == Bench::Faults16 && args.seed != DEFAULT_SEED {
        return Ok(Checker::new(cells, None));
    }
    let path = golden_path(args.bench);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(Checker::new(cells, Some(check::parse_golden(&text)?)))
}

/// One value of the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Prints the metrics one per line, then the result as one JSON line.
fn print_result(metrics: &[Metric], attempted: u64, failures: &[String]) {
    for f in failures {
        eprintln!("FAILED: {f}");
    }
    let failed = failures.len() as u64;
    for m in metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<32} {:>20} ratio ({failed} of {attempted} cell executions)",
        "failed_frac",
        ratio(failed as f64, attempted as f64)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let work = work_dir()?;
    if args.trace {
        traced(args, &work)
    } else {
        untraced(args, &work)
    }
}

/// The untraced run: end-to-end metrics. Every timed operation is scaled
/// to the reference host speed by the calibration samples around it.
fn untraced(args: &Args, work: &Path) -> Result<(), String> {
    let mut off = Spans::new(false);
    let mut cal = Calib::new();
    let t = Instant::now();
    let (prepared, mut journal) = cells::setup(
        args.bench,
        args.seed,
        &mut off,
        &journal_path(work, args.bench, "pass0"),
    )?;
    let mut setup_secs = vec![cal.scale(t.elapsed().as_secs_f64())];
    let n = prepared.specs.len();
    let mut checker = load_checker(args, n)?;
    // Cell seconds per execution, as measured and scaled.
    let mut raw: Vec<(usize, f64)> = Vec::new();
    let mut scaled: Vec<(usize, f64)> = Vec::new();
    // Simulated cycles per execution; 0 for one that failed.
    let mut cycles: Vec<(usize, f64)> = Vec::new();
    let mut setup_busy = 0.0;
    let mut failures = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut pass = 0;
    loop {
        let opts = match journal.take() {
            Some(j) => Some(prepared.sweep_opts(j)),
            None if prepared.journaled() => {
                Some(prepared.sweep_opts(create_journal(work, args.bench, &format!("pass{pass}"))?))
            }
            None => None,
        };
        let mut ran = Vec::new();
        for i in 0..n {
            if pass > 0 && Instant::now() >= deadline {
                break;
            }
            let t = Instant::now();
            let result = prepared.run_cell(i, &mut off, opts.as_ref());
            let secs = t.elapsed().as_secs_f64();
            let secs_scaled = cal.scale(secs);
            raw.push((i, secs));
            scaled.push((i, secs_scaled));
            match result.and_then(|m| checker.check(i, &prepared.ids[i], &m).map(|()| m)) {
                Ok(m) => {
                    cycles.push((i, m.exec_cycles as f64));
                    ran.push(m);
                }
                Err(e) => {
                    cycles.push((i, 0.0));
                    failures.push(e);
                }
            }
            // Further set-ups, spread over the run like the cells.
            while setup_busy < SETUP_SHARE * start.elapsed().as_secs_f64() {
                let secs = setup_once(args, work, &mut off)?;
                setup_busy += secs;
                setup_secs.push(cal.scale(secs));
            }
        }
        if let Some(opts) = opts {
            if let Err(e) = verify_journal(&mut off, opts, &ran) {
                failures.push(format!("pass {pass}: {e}"));
            }
        }
        pass += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall_s = per_pass(n, &scaled);
    let metrics = [
        metric("setup_s", median(&setup_secs), "s"),
        metric("wall_s", wall_s, "s"),
        metric(
            "sim_cycles_per_s",
            ratio(per_pass(n, &cycles), wall_s),
            "1/s",
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    println!(
        "# {}: {n} cells, {} executions over {pass} pass(es), {} set-ups, seed {}",
        args.bench.name(),
        scaled.len(),
        setup_secs.len(),
        args.seed
    );
    println!(
        "# unscaled host seconds per pass {:.4}; last calibration sample {:.6} s (reference {})",
        per_pass(n, &raw),
        cal.last_sample(),
        calib::REF_SAMPLE_S
    );
    print_result(&metrics, scaled.len() as u64, &failures);
    Ok(())
}

/// The traced run: each cell untraced, then traced, then the
/// microbenchmarks; per-layer metrics.
fn traced(args: &Args, work: &Path) -> Result<(), String> {
    let bench = args.bench;
    let mut spans = Spans::new(true);
    for _ in 1..TRACED_SETUP_REPS {
        setup_once(args, work, &mut spans)?;
    }
    let path = journal_path(work, bench, "setup");
    let (prepared, journal) = cells::setup(bench, args.seed, &mut spans, &path)?;
    drop(journal);
    let _ = std::fs::remove_file(&path);
    let generate_s = spans.total_secs("workloads.generate") / TRACED_SETUP_REPS as f64;
    let validate_s = spans.total_secs("trace.validate") / TRACED_SETUP_REPS as f64;
    let n = prepared.specs.len();
    let mut checker = load_checker(args, n)?;

    let mut off = Spans::new(false);
    let mut plain: Vec<(usize, f64)> = Vec::new();
    let mut spanned: Vec<(usize, f64)> = Vec::new();
    let mut first: Vec<Option<Metrics>> = vec![None; n];
    let mut failures = Vec::new();
    let (mut retries, mut journals) = (0u64, 0u32);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut pass = 0;
    loop {
        let open = |tag: &str| -> Result<Option<SweepOpts>, String> {
            if !prepared.journaled() {
                return Ok(None);
            }
            let j = create_journal(work, bench, &format!("{tag}{pass}"))?;
            Ok(Some(prepared.sweep_opts(j)))
        };
        let (opts_plain, opts_traced) = (open("plain")?, open("traced")?);
        let (mut ran_plain, mut ran_traced) = (Vec::new(), Vec::new());
        for (i, first) in first.iter_mut().enumerate() {
            if pass > 0 && Instant::now() >= deadline {
                break;
            }
            let id = &prepared.ids[i];
            let t = Instant::now();
            let a = prepared.run_cell(i, &mut off, opts_plain.as_ref());
            plain.push((i, t.elapsed().as_secs_f64()));
            let t = Instant::now();
            let b = spans.span("bench.cell", i as u32, |s| {
                prepared.run_cell(i, s, opts_traced.as_ref())
            });
            spanned.push((i, t.elapsed().as_secs_f64()));
            // faults16 runs its cells inside run_cells; a direct run of the
            // same configuration times the sim layer from outside. When
            // the first attempt completes, run_cells returns its result.
            let direct = prepared
                .journaled()
                .then(|| spans.span("bench.direct", i as u32, |s| prepared.run_direct(i, s)));
            let outcome = (|| {
                let a = a?;
                checker.check(i, id, &a)?;
                let b = b?;
                if Recorded::of(&a) != Recorded::of(&b) {
                    return Err(format!("{id}: tracing changed the cell's statistics"));
                }
                if let Some(Ok(d)) = &direct {
                    if Recorded::of(d) != Recorded::of(&b) {
                        return Err(format!("{id}: a direct run differs from run_cells"));
                    }
                }
                Ok((a, b))
            })();
            match outcome {
                Ok((a, b)) => {
                    first.get_or_insert_with(|| a.clone());
                    ran_plain.push(a);
                    ran_traced.push(b);
                }
                Err(e) => failures.push(e),
            }
        }
        if let (Some(p), Some(t)) = (opts_plain, opts_traced) {
            for (opts, ran, s) in [(p, &ran_plain, &mut off), (t, &ran_traced, &mut spans)] {
                match verify_journal(s, opts, ran) {
                    Ok(r) => retries += r,
                    Err(e) => failures.push(format!("pass {pass}: {e}")),
                }
            }
            journals += 1;
        }
        pass += 1;
        if Instant::now() >= deadline {
            break;
        }
    }

    // Exact counts: one pass's statistics.
    let done: Vec<&Metrics> = first.iter().flatten().collect();
    let sum = |f: fn(&Metrics) -> u64| done.iter().map(|m| f(m)).sum::<u64>() as f64;

    // Microbenchmarks, fed from this workload.
    let mut topologies: BTreeMap<String, (NetworkKind, u64)> = BTreeMap::new();
    for (i, m) in first.iter().enumerate() {
        if let Some(m) = m {
            let kind = prepared.specs[i].network;
            topologies.entry(format!("{kind:?}")).or_insert((kind, 0)).1 += m.net_msgs;
        }
    }
    let topologies: Vec<(NetworkKind, u64)> = topologies.into_values().collect();
    let micro = micro::run(
        &mut spans,
        &prepared.workloads,
        bench.procs(),
        &topologies,
        &bench.orgs(),
        prepared.fault,
    );

    let passes = spanned.len() as f64 / n as f64;
    let run_events: f64 = spanned
        .iter()
        .map(|&(i, _)| prepared.workload(i).total_events() as f64)
        .sum();
    let run_s = spans.total_secs("sim.run");
    let mut cell_s: Vec<f64> = plain.iter().map(|&(_, s)| s).collect();
    cell_s.sort_by(f64::total_cmp);
    let (tail_pct, tail_s) = tail_percentile(&cell_s).unwrap_or((0.0, 0.0));
    let plain_wall = per_pass(n, &plain);
    let traced_wall = per_pass(n, &spanned);

    let by_layer = self_secs_by_layer(spans.spans());
    let path = work.join(format!("spans-{}-seed{}.jsonl", bench.name(), args.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut metrics = vec![
        metric("workloads.generate_s", generate_s, "s"),
        metric("trace.validate_s", validate_s, "s"),
        metric("trace.events", prepared.events as f64, "count"),
        metric("sim.new_s", spans.total_secs("sim.new") / passes, "s"),
        metric("sim.run_s", run_s / passes, "s"),
        metric("sim.run_ns_per_event", ratio(run_s * 1e9, run_events), "ns"),
        metric("sim.exec_cycles", sum(|m| m.exec_cycles), "cycles"),
        metric(
            "sim.cell_s_p50",
            spans::percentile(&cell_s, 50.0).unwrap_or(0.0),
            "s",
        ),
        metric("sim.cell_s_tail", tail_s, "s"),
        metric("sim.cell_tail_pct", tail_pct, "%"),
        metric("sim.cell_samples", cell_s.len() as f64, "count"),
        metric("kernel.hold_ns_per_op", micro.hold_ns_per_op, "ns"),
        metric("memsys.flc_access_ns", micro.flc_access_ns, "ns"),
        metric("memsys.flc_hits", sum(|m| m.flc_hits), "count"),
        metric("memsys.slc_misses", sum(|m| m.slc_misses), "count"),
        metric("memsys.wc_read_hits", sum(|m| m.wc_read_hits), "count"),
        metric("core.sharer_add_ns", micro.sharer_add_ns, "ns"),
        metric(
            "core.fanout_ns_per_target",
            micro.fanout_ns_per_target,
            "ns",
        ),
        metric("core.invals_sent", sum(|m| m.invals_sent), "count"),
        metric(
            "core.updates_fanned_out",
            sum(|m| m.updates_fanned_out),
            "count",
        ),
        metric("core.dir_overflows", sum(|m| m.dir_overflows), "count"),
        metric("core.dir_broadcasts", sum(|m| m.dir_broadcasts), "count"),
        metric("core.dir_recalls", sum(|m| m.dir_recalls), "count"),
        metric(
            "core.prefetch_useful_ratio",
            ratio(sum(|m| m.prefetches_useful), sum(|m| m.prefetches_issued)),
            "ratio",
        ),
        metric("core.nack_retries", sum(|m| m.nack_retries), "count"),
        metric("core.lock_acquires", sum(|m| m.lock_acquires), "count"),
        metric(
            "core.barrier_episodes",
            sum(|m| m.barrier_episodes),
            "count",
        ),
        metric(
            "core.dir_purged_sharers",
            sum(|m| m.dir_purged_sharers),
            "count",
        ),
        metric(
            "core.dir_orphan_reclaims",
            sum(|m| m.dir_orphan_reclaims),
            "count",
        ),
        metric("network.send_ns", micro.send_ns, "ns"),
        metric("network.msgs", sum(|m| m.net_msgs), "count"),
        metric("network.bytes", sum(|m| m.net_bytes), "B"),
        metric(
            "network.retransmit_ratio",
            ratio(sum(|m| m.fault_retransmitted), sum(|m| m.net_msgs)),
            "ratio",
        ),
        metric("sim.node_recoveries", sum(|m| m.node_recoveries), "count"),
        metric(
            "sim.stale_epoch_drops",
            sum(|m| m.stale_epoch_drops),
            "count",
        ),
        metric("sim.data_loss_blocks", sum(|m| m.data_loss_blocks), "count"),
        metric(
            "experiments.run_cells_s",
            spans.total_secs("experiments.run_cells") / passes,
            "s",
        ),
        metric(
            "experiments.journal_resume_s",
            ratio(
                spans.total_secs("experiments.journal_resume"),
                f64::from(journals),
            ),
            "s",
        ),
        metric("experiments.retries", retries as f64, "count"),
        metric(
            "spans.overhead_frac",
            ratio(traced_wall - plain_wall, plain_wall),
            "ratio",
        ),
    ];
    for layer in LAYERS {
        let secs = by_layer.get(layer).copied().unwrap_or(0.0);
        metrics.push(metric(format!("spans.self_s.{layer}"), secs, "s"));
    }
    println!(
        "# {} traced: {} cells, {} paired executions over {pass} pass(es), seed {}; \
         untraced {plain_wall:.4} s/pass, traced {traced_wall:.4} s/pass; spans in {}",
        bench.name(),
        n,
        spanned.len(),
        args.seed,
        path.display()
    );
    print_result(&metrics, spanned.len() as u64, &failures);
    Ok(())
}

/// Records every cell's statistics at the default seed in the workload's
/// golden file.
fn write_golden(args: &Args) -> Result<(), String> {
    let work = work_dir()?;
    let path = journal_path(&work, args.bench, "golden");
    let (prepared, journal) =
        cells::setup(args.bench, DEFAULT_SEED, &mut Spans::new(false), &path)?;
    let opts = journal.map(|j| prepared.sweep_opts(j));
    let mut lines = vec![format!(
        "# {} cell statistics at seed {DEFAULT_SEED}: id, exec_cycles, net_msgs, fingerprint",
        args.bench.name()
    )];
    let mut ran = Vec::new();
    for i in 0..prepared.specs.len() {
        let m = prepared.run_cell(i, &mut Spans::new(false), opts.as_ref())?;
        lines.push(check::golden_line(&prepared.ids[i], &Recorded::of(&m)));
        ran.push(m);
    }
    if let Some(opts) = opts {
        verify_journal(&mut Spans::new(false), opts, &ran)?;
    }
    let out = golden_path(args.bench);
    std::fs::write(&out, lines.join("\n") + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("wrote {} ({} cells)", out.display(), ran.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload scale1024 --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.bench, Bench::Scale1024);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload paper16 --trace 2").is_err());
        assert!(parse("--workload paper16 --seconds").is_err());
    }

    #[test]
    fn per_pass_totals_average_each_cell() {
        // Cell 0 ran twice (1 s, 3 s), cell 1 once (5 s): 2 + 5 per pass.
        assert_eq!(per_pass(2, &[(0, 1.0), (1, 5.0), (0, 3.0)]), 7.0);
    }
}
