//! `perfbench` — the repo's recorded performance baseline.
//!
//! Times the three layers the hot-path work targets and writes the numbers
//! to two JSON files (default: the current directory, i.e. the repo root
//! when run via `cargo run`):
//!
//! - `BENCH_kernel.json` — event-queue push/pop cost, levelled timing
//!   wheel vs the pure-`BinaryHeap` baseline it replaced, on a hold-model
//!   workload shaped like the simulator's (mostly near-future inserts, a
//!   tail of far-future timeouts).
//! - `BENCH_sweep.json` — one application end-to-end, and the Figure-2
//!   sweep wall-clock serially vs on the worker pool (with an equality
//!   check of the two CSVs).
//! - `BENCH_e2e.json` — full runs of **all five applications** across every
//!   extension config (all eight [`ProtocolKind`]s under release
//!   consistency), reporting sim-cycles/sec and trace-events/sec per
//!   workload (with deterministic per-config cycle counts) plus the
//!   aggregate. This section always runs at `small`/16-proc scale — even
//!   under `--quick` — so a CI smoke run produces numbers directly
//!   comparable to the committed baseline; only the repetition count
//!   shrinks. It also records a `dir_scale` grid — Water on the
//!   hierarchical mesh, one cell per directory organization × node count —
//!   tracking the cost of the machinery a 64-node full-map run never
//!   touches (wide fan-outs, multi-word ack masks, two-level routing).
//!
//! Usage: `perfbench [--quick] [--jobs N] [--out-dir DIR] [--baseline FILE]
//! [--min-wall-secs S]`
//! `--quick` shrinks op counts and problem scale for CI smoke runs.
//! `--baseline FILE` compares the fresh end-to-end throughput against FILE
//! (a committed `BENCH_e2e.json`) and exits nonzero on a regression of more
//! than 20% — per workload when FILE carries the per-workload schema, per
//! `dir_scale` cell when FILE carries the cell grid, and on the aggregate
//! either way.
//! `--min-wall-secs S` scales each timed section's repetition count up
//! until the section's timed reps cover at least `S` seconds of wall clock
//! in total, so a fast machine cannot produce a median from two or three
//! unmeasurably short samples.
//!
//! [`ProtocolKind`]: dirext_core::ProtocolKind

use std::hint::black_box;
use std::time::Instant;

use dirext_kernel::{EventQueue, HeapEventQueue, Time};
use dirext_sim::experiments::{self, SweepOpts};
use dirext_trace::Workload;
use dirext_workloads::{App, Scale};

/// Deterministic xorshift64* — the bench must not depend on ambient
/// randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The hold-model delay distribution: mostly short hops inside the bucket
/// wheel's window, one in eight far enough to spill to the heap tier —
/// roughly the mix a 16-node machine's network and timeout events produce.
fn delay(rng: &mut Rng) -> u64 {
    let r = rng.next();
    if r.is_multiple_of(8) {
        300 + r % 4096
    } else {
        1 + r % 64
    }
}

macro_rules! hold_model {
    ($queue:expr, $ops:expr) => {{
        let mut q = $queue;
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut now = 0u64;
        for _ in 0..4096u64 {
            let d = delay(&mut rng);
            q.push(Time::from_cycles(now + d), d);
        }
        let t0 = Instant::now();
        for _ in 0..$ops {
            let (t, v) = q.pop().expect("hold model keeps the queue non-empty");
            now = t.cycles();
            let d = delay(&mut rng);
            q.push(Time::from_cycles(now + d), black_box(v ^ d));
        }
        let nanos = t0.elapsed().as_nanos() as f64;
        black_box(q.len());
        // One pop + one push per iteration.
        nanos / (2.0 * $ops as f64)
    }};
}

/// Median of `reps` timed repetitions of `f`.
fn median_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let mut xs: Vec<f64> = (0..reps).map(|_| f()).collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn json_escape_free(s: &str) -> &str {
    // All strings written below are static identifiers; assert rather than
    // escape so the hand-rolled JSON stays trivially correct.
    assert!(!s.contains(['"', '\\', '\n']), "unescapable string: {s}");
    s
}

/// Parses the number following `key` in `text`, starting the search at
/// byte offset `from`. Returns the value and the offset just past it.
fn number_after(text: &str, key: &str, from: usize, what: &str) -> Option<(f64, usize)> {
    let at = text[from..].find(key)? + from + key.len();
    let rest = text[at..].trim_start();
    let skipped = at + (text[at..].len() - rest.len());
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    let v = rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("{what}: bad {key} value: {e}"));
    Some((v, skipped + end))
}

/// Pulls the `agg_sim_cycles_per_sec` value out of a committed
/// `BENCH_e2e.json` by string search — the key is named uniquely so no
/// JSON parser is needed (serde_json in this workspace is an offline stub).
fn baseline_agg_cycles_per_sec(text: &str, path: &str) -> f64 {
    number_after(text, "\"agg_sim_cycles_per_sec\":", 0, path)
        .unwrap_or_else(|| panic!("--baseline {path}: no agg_sim_cycles_per_sec field"))
        .0
}

/// Pulls the per-workload `(name, sim_cycles_per_sec)` pairs out of a
/// committed `BENCH_e2e.json`. Workload entries use the `"workload":` key
/// (the legacy `single_app` block uses `"app":`), so an old-schema baseline
/// simply yields an empty list and the gate falls back to aggregate-only.
fn baseline_workload_rates(text: &str, path: &str) -> Vec<(String, f64)> {
    let mut rates = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find("\"workload\": \"") {
        let name_start = from + at + "\"workload\": \"".len();
        let name_len = text[name_start..]
            .find('"')
            .unwrap_or_else(|| panic!("--baseline {path}: unterminated workload name"));
        let name = text[name_start..name_start + name_len].to_string();
        let (rate, next) = number_after(
            text,
            "\"sim_cycles_per_sec\":",
            name_start + name_len,
            path,
        )
        .unwrap_or_else(|| panic!("--baseline {path}: workload {name} has no sim_cycles_per_sec"));
        rates.push((name, rate));
        from = next;
    }
    rates
}

/// Pulls the per-cell `(key, dirscale_cycles_per_sec)` pairs out of a
/// committed `BENCH_e2e.json`'s `dir_scale` grid. The rate field is named
/// uniquely, so an old-schema baseline (single `dir_scale` object, no
/// cells) yields an empty list and the per-cell gate is skipped.
fn baseline_dirscale_rates(text: &str, path: &str) -> Vec<(String, f64)> {
    let mut rates = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find("\"cell\": \"") {
        let key_start = from + at + "\"cell\": \"".len();
        let key_len = text[key_start..]
            .find('"')
            .unwrap_or_else(|| panic!("--baseline {path}: unterminated cell key"));
        let key = text[key_start..key_start + key_len].to_string();
        let (rate, next) = number_after(
            text,
            "\"dirscale_cycles_per_sec\":",
            key_start + key_len,
            path,
        )
        .unwrap_or_else(|| panic!("--baseline {path}: cell {key} has no dirscale_cycles_per_sec"));
        rates.push((key, rate));
        from = next;
    }
    rates
}

/// Repetition count for a timed section: at least `base`, raised until the
/// timed reps together span `min_wall_secs` of wall clock given one rep
/// takes `per_rep_secs` (capped so a mis-measured warm-up cannot run away).
fn reps_for(base: usize, per_rep_secs: f64, min_wall_secs: f64) -> usize {
    if min_wall_secs <= 0.0 {
        return base;
    }
    let need = (min_wall_secs / per_rep_secs.max(1e-9)).ceil() as usize;
    base.max(need.min(1000))
}

fn main() {
    let mut quick = false;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut jobs_requested = host_cpus;
    let mut out_dir = String::from(".");
    let mut baseline: Option<String> = None;
    let mut min_wall_secs = 0.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                jobs_requested = args.next().and_then(|v| v.parse().ok()).expect("--jobs N");
            }
            "--out-dir" => out_dir = args.next().expect("--out-dir DIR"),
            "--baseline" => baseline = Some(args.next().expect("--baseline FILE")),
            "--min-wall-secs" => {
                min_wall_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-wall-secs S");
            }
            other => panic!("unknown argument '{other}'"),
        }
    }
    // Oversubscribing a small host makes the "parallel" sweep *slower* than
    // serial (context-switch thrash), so the effective job count is clamped
    // to the cores actually available; both numbers are recorded.
    let jobs = jobs_requested.clamp(1, host_cpus);
    if jobs != jobs_requested {
        eprintln!(
            "perfbench: clamping --jobs {jobs_requested} to {jobs} (host has {host_cpus} CPUs)"
        );
    }
    let ops: u64 = if quick { 400_000 } else { 4_000_000 };
    let reps = if quick { 3 } else { 5 };
    let scale = if quick { Scale::Tiny } else { Scale::Small };
    let scale_name = if quick { "tiny" } else { "small" };
    let procs = if quick { 4 } else { 16 };

    // --- Kernel tier: event-queue push/pop ---------------------------------
    // Warm-up probe doubles as the per-rep cost estimate for --min-wall-secs.
    let probe_ns = hold_model!(EventQueue::with_capacity(4096), ops);
    let kernel_reps = reps_for(reps, probe_ns * 2.0 * ops as f64 / 1e9, min_wall_secs);
    eprintln!("perfbench: kernel hold model ({ops} ops x {kernel_reps} reps)...");
    let two_tier_ns = median_of(kernel_reps, || hold_model!(EventQueue::with_capacity(4096), ops));
    let heap_ns = median_of(kernel_reps, || hold_model!(HeapEventQueue::new(), ops));
    let kernel = format!(
        "{{\n  \"benchmark\": \"event_queue_hold_model\",\n  \
         \"description\": \"one pop + one push per op, 4096 live events, 1/8 far-future\",\n  \
         \"ops\": {ops},\n  \"reps\": {kernel_reps},\n  \
         \"two_tier_ns_per_op\": {two_tier_ns:.2},\n  \
         \"heap_baseline_ns_per_op\": {heap_ns:.2},\n  \
         \"two_tier_events_per_sec\": {:.0},\n  \
         \"heap_baseline_events_per_sec\": {:.0},\n  \
         \"speedup_vs_heap\": {:.3}\n}}\n",
        1e9 / two_tier_ns,
        1e9 / heap_ns,
        heap_ns / two_tier_ns
    );
    std::fs::write(format!("{out_dir}/BENCH_kernel.json"), &kernel)
        .expect("write BENCH_kernel.json");
    eprintln!(
        "  two-tier {two_tier_ns:.1} ns/op vs heap {heap_ns:.1} ns/op ({:.2}x)",
        heap_ns / two_tier_ns
    );

    // --- End-to-end tier: one application, one protocol --------------------
    eprintln!("perfbench: single-app end-to-end (MP3D, {scale_name}, {procs} procs)...");
    let w = App::Mp3d.workload(procs, scale);
    let run_once = || {
        let t0 = Instant::now();
        let m = experiments::run_protocol(
            &w,
            dirext_core::ProtocolKind::Basic,
            dirext_core::Consistency::Rc,
        )
        .expect("MP3D run");
        (t0.elapsed().as_secs_f64(), m.exec_cycles)
    };
    let (warm_secs, exec_cycles) = run_once(); // warm-up, and the cycle count
    let app_secs = median_of(reps_for(reps, warm_secs, min_wall_secs), || run_once().0);
    let trace_events = w.total_events();

    // --- Sweep tier: Figure 2, serial vs pool ------------------------------
    let suite: Vec<Workload> = App::ALL.iter().map(|a| a.workload(procs, scale)).collect();
    eprintln!("perfbench: fig2 sweep serial...");
    let t0 = Instant::now();
    let serial = experiments::fig2_with(&suite, &SweepOpts::default()).expect("fig2 serial");
    let serial_secs = t0.elapsed().as_secs_f64();
    eprintln!("perfbench: fig2 sweep --jobs {jobs}...");
    let t0 = Instant::now();
    let parallel = experiments::fig2_with(&suite, &SweepOpts::jobs(jobs)).expect("fig2 parallel");
    let parallel_secs = t0.elapsed().as_secs_f64();
    let identical = serial.csv() == parallel.csv();
    assert!(identical, "parallel sweep output diverged from serial");

    // Same sweep with the write-ahead journal armed: measures the cost of
    // crash-safe bookkeeping (one JSONL append per cell) on the hot path.
    eprintln!("perfbench: fig2 sweep --jobs {jobs} with journal...");
    let journal_path = std::env::temp_dir().join(format!(
        "dirext-perfbench-journal-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal_path);
    let journal = std::sync::Arc::new(
        experiments::Journal::create(&journal_path).expect("create bench journal"),
    );
    let t0 = Instant::now();
    let journaled = experiments::fig2_with(&suite, &SweepOpts::jobs(jobs).with_journal(journal))
        .expect("fig2 journaled");
    let journaled_secs = t0.elapsed().as_secs_f64();
    let journal_identical = serial.csv() == journaled.csv();
    assert!(
        journal_identical,
        "journaled sweep output diverged from serial"
    );
    std::fs::remove_file(&journal_path).ok();

    let sweep = format!(
        "{{\n  \"benchmark\": \"sweep_and_end_to_end\",\n  \
         \"scale\": \"{}\",\n  \"procs\": {procs},\n  \
         \"single_app\": {{\n    \"app\": \"MP3D\",\n    \"protocol\": \"BASIC\",\n    \
         \"trace_events\": {trace_events},\n    \"exec_cycles\": {exec_cycles},\n    \
         \"wall_secs\": {app_secs:.4},\n    \
         \"trace_events_per_sec\": {:.0},\n    \
         \"sim_cycles_per_sec\": {:.0}\n  }},\n  \
         \"fig2_sweep\": {{\n    \"configs\": {},\n    \
         \"serial_secs\": {serial_secs:.3},\n    \
         \"parallel_secs\": {parallel_secs:.3},\n    \
         \"journaled_secs\": {journaled_secs:.3},\n    \
         \"journal_overhead\": {:.3},\n    \
         \"jobs_requested\": {jobs_requested},\n    \"jobs\": {jobs},\n    \
         \"host_cpus\": {host_cpus},\n    \
         \"speedup\": {:.3},\n    \"outputs_identical\": {identical},\n    \
         \"journal_outputs_identical\": {journal_identical}\n  }}\n}}\n",
        json_escape_free(scale_name),
        trace_events as f64 / app_secs,
        exec_cycles as f64 / app_secs,
        suite.len() * experiments::fig2::FIG2_PROTOCOLS.len(),
        journaled_secs / parallel_secs,
        serial_secs / parallel_secs
    );
    std::fs::write(format!("{out_dir}/BENCH_sweep.json"), &sweep).expect("write BENCH_sweep.json");
    eprintln!(
        "  single app {app_secs:.3}s; sweep serial {serial_secs:.2}s vs --jobs {jobs} \
         {parallel_secs:.2}s ({:.2}x), journaled {journaled_secs:.2}s ({:.3}x overhead), \
         outputs identical",
        serial_secs / parallel_secs,
        journaled_secs / parallel_secs
    );

    // --- End-to-end tier: every app, every extension config, fixed scale ---
    // Always small/16 so quick CI runs stay comparable to the committed
    // baseline file; only the repetition count shrinks under --quick.
    let e2e_protocols = dirext_core::ProtocolKind::ALL;
    let e2e_loads: Vec<Workload> = App::ALL
        .iter()
        .map(|a| a.workload(16, Scale::Small))
        .collect();
    let e2e_configs = e2e_loads.len() * e2e_protocols.len();
    eprintln!(
        "perfbench: end-to-end {} apps x {} protocols (small, 16 procs)...",
        e2e_loads.len(),
        e2e_protocols.len()
    );
    // One timed section per workload: a rep runs the workload under all
    // eight protocols. Per-config exec-cycle counts are deterministic, so
    // they are recorded from the warm-up pass; wall clock is only trusted
    // at workload granularity (single configs finish in milliseconds).
    struct WorkloadBench {
        app: &'static str,
        reps: usize,
        wall_secs: f64,
        exec_cycles: u64,
        trace_events: u64,
        per_config: Vec<(&'static str, u64)>,
    }
    let mut workload_benches: Vec<WorkloadBench> = Vec::new();
    for (app, w) in App::ALL.iter().zip(&e2e_loads) {
        let run_wl = || {
            let t0 = Instant::now();
            let mut cycles = Vec::with_capacity(e2e_protocols.len());
            for kind in e2e_protocols {
                let m = experiments::run_protocol(w, kind, dirext_core::Consistency::Rc)
                    .expect("e2e run");
                cycles.push((kind.name(), m.exec_cycles));
            }
            (t0.elapsed().as_secs_f64(), cycles)
        };
        let (warm_secs, per_config) = run_wl(); // warm-up + deterministic cycles
        let wl_reps = reps_for(reps, warm_secs, min_wall_secs / e2e_loads.len() as f64);
        let wall_secs = median_of(wl_reps, || run_wl().0);
        let exec_cycles = per_config.iter().map(|&(_, c)| c).sum();
        eprintln!(
            "  {}: {} configs x {wl_reps} reps, {wall_secs:.3}s/rep, {:.0} sim-cycles/sec",
            app.name(),
            e2e_protocols.len(),
            exec_cycles as f64 / wall_secs
        );
        workload_benches.push(WorkloadBench {
            app: app.name(),
            reps: wl_reps,
            wall_secs,
            exec_cycles,
            trace_events: (w.total_events() * e2e_protocols.len()) as u64,
            per_config,
        });
    }
    let e2e_cycles: u64 = workload_benches.iter().map(|b| b.exec_cycles).sum();
    let e2e_events: u64 = workload_benches.iter().map(|b| b.trace_events).sum();
    let e2e_secs: f64 = workload_benches.iter().map(|b| b.wall_secs).sum();

    // Single MP3D/BASIC at the same fixed scale: the direct comparison
    // point against historical BENCH_sweep.json single_app numbers.
    let w0 = &e2e_loads[0];
    let run_mp3d = || {
        let t0 = Instant::now();
        let m = experiments::run_protocol(
            w0,
            dirext_core::ProtocolKind::Basic,
            dirext_core::Consistency::Rc,
        )
        .expect("e2e MP3D run");
        (t0.elapsed().as_secs_f64(), m.exec_cycles)
    };
    let (mp3d_warm, mp3d_cycles) = run_mp3d();
    let mp3d_secs = median_of(reps_for(reps, mp3d_warm, min_wall_secs), || run_mp3d().0);
    let mp3d_events = w0.total_events();

    // Directory-scaling grid: Water x P+CW on the hierarchical mesh, one
    // cell per directory organization x node count. The 256-node cells are
    // machines the full-map directory cannot build at all, so they get
    // their own records: the numbers track the cost of wide broadcast
    // fan-outs, >64-node ack masks and two-level routing on the hot path.
    // Each cell is regression-gated individually under --baseline, so a
    // slowdown specific to one organization (say, coarse-vector region
    // scans) cannot hide behind the health of the others.
    struct DirCell {
        key: String,
        dir_name: &'static str,
        procs: usize,
        reps: usize,
        trace_events: u64,
        exec_cycles: u64,
        wall_secs: f64,
    }
    let dir_orgs: [(&'static str, dirext_core::sharer::DirOrg); 2] = [
        (
            "ptr4b",
            dirext_core::sharer::DirOrg::LimitedPtr {
                ptrs: 4,
                broadcast: true,
            },
        ),
        (
            "coarse8",
            dirext_core::sharer::DirOrg::CoarseVector { region: 8 },
        ),
    ];
    let dir_procs = [64usize, 256];
    let dir_cell_count = (dir_orgs.len() * dir_procs.len()) as f64;
    let mut dir_cells: Vec<DirCell> = Vec::new();
    for &dprocs in &dir_procs {
        let dir_w = App::Water.workload(dprocs, Scale::Small);
        for (dir_name, org) in dir_orgs {
            eprintln!(
                "perfbench: dir-scale Water x P+CW (small, {dprocs} procs, {dir_name}, hmesh64)..."
            );
            let run_cell = || {
                let t0 = Instant::now();
                let m = experiments::run_protocol_dir(
                    &dir_w,
                    dirext_core::ProtocolKind::PCw,
                    dirext_core::Consistency::Rc,
                    dirext_sim::NetworkKind::HierMesh { link_bits: 64 },
                    org,
                    None,
                    None,
                )
                .expect("dir-scale run");
                (t0.elapsed().as_secs_f64(), m.exec_cycles)
            };
            let (warm_secs, exec_cycles) = run_cell();
            let cell_reps = reps_for(reps, warm_secs, min_wall_secs / dir_cell_count);
            let wall_secs = median_of(cell_reps, || run_cell().0);
            dir_cells.push(DirCell {
                key: format!("{dir_name}/{dprocs}"),
                dir_name,
                procs: dprocs,
                reps: cell_reps,
                trace_events: dir_w.total_events() as u64,
                exec_cycles,
                wall_secs,
            });
        }
    }

    let agg_cycles_per_sec = e2e_cycles as f64 / e2e_secs;
    let dir_cells_json: Vec<String> = dir_cells
        .iter()
        .map(|c| {
            format!(
                "      {{ \"cell\": \"{}\", \"dir\": \"{}\", \"procs\": {}, \"reps\": {}, \
                 \"trace_events\": {}, \"exec_cycles\": {}, \"wall_secs\": {:.4}, \
                 \"dirscale_cycles_per_sec\": {:.0} }}",
                json_escape_free(&c.key),
                json_escape_free(c.dir_name),
                c.procs,
                c.reps,
                c.trace_events,
                c.exec_cycles,
                c.wall_secs,
                c.exec_cycles as f64 / c.wall_secs
            )
        })
        .collect();
    let per_workload_json: Vec<String> = workload_benches
        .iter()
        .map(|b| {
            let configs: Vec<String> = b
                .per_config
                .iter()
                .map(|&(name, cycles)| {
                    format!(
                        "        {{ \"protocol\": \"{}\", \"exec_cycles\": {cycles} }}",
                        json_escape_free(name)
                    )
                })
                .collect();
            format!(
                "    {{\n      \"workload\": \"{}\",\n      \"reps\": {},\n      \
                 \"trace_events\": {},\n      \"exec_cycles\": {},\n      \
                 \"wall_secs\": {:.4},\n      \
                 \"trace_events_per_sec\": {:.0},\n      \
                 \"sim_cycles_per_sec\": {:.0},\n      \
                 \"per_config\": [\n{}\n      ]\n    }}",
                json_escape_free(b.app),
                b.reps,
                b.trace_events,
                b.exec_cycles,
                b.wall_secs,
                b.trace_events as f64 / b.wall_secs,
                b.exec_cycles as f64 / b.wall_secs,
                configs.join(",\n")
            )
        })
        .collect();
    let e2e = format!(
        "{{\n  \"benchmark\": \"end_to_end_all_configs\",\n  \
         \"description\": \"full runs of all 5 apps across all 8 extension configs under RC\",\n  \
         \"scale\": \"small\",\n  \"procs\": 16,\n  \
         \"configs\": {e2e_configs},\n  \
         \"single_app\": {{\n    \"app\": \"MP3D\",\n    \"protocol\": \"BASIC\",\n    \
         \"trace_events\": {mp3d_events},\n    \"exec_cycles\": {mp3d_cycles},\n    \
         \"wall_secs\": {mp3d_secs:.4},\n    \
         \"trace_events_per_sec\": {:.0},\n    \
         \"sim_cycles_per_sec\": {:.0}\n  }},\n  \
         \"dir_scale\": {{\n    \"app\": \"Water\",\n    \"scale\": \"small\",\n    \
         \"protocol\": \"P+CW\",\n    \"network\": \"hmesh64\",\n    \
         \"cells\": [\n{}\n    ]\n  }},\n  \
         \"per_workload\": [\n{}\n  ],\n  \
         \"aggregate\": {{\n    \"total_trace_events\": {e2e_events},\n    \
         \"total_exec_cycles\": {e2e_cycles},\n    \
         \"wall_secs\": {e2e_secs:.4},\n    \
         \"agg_trace_events_per_sec\": {:.0},\n    \
         \"agg_sim_cycles_per_sec\": {agg_cycles_per_sec:.0}\n  }}\n}}\n",
        mp3d_events as f64 / mp3d_secs,
        mp3d_cycles as f64 / mp3d_secs,
        dir_cells_json.join(",\n"),
        per_workload_json.join(",\n"),
        e2e_events as f64 / e2e_secs,
    );
    std::fs::write(format!("{out_dir}/BENCH_e2e.json"), &e2e).expect("write BENCH_e2e.json");
    eprintln!(
        "  e2e {e2e_configs} configs in {e2e_secs:.3}s: {agg_cycles_per_sec:.0} sim-cycles/sec \
         aggregate; MP3D/BASIC {:.0} sim-cycles/sec",
        mp3d_cycles as f64 / mp3d_secs,
    );
    for c in &dir_cells {
        eprintln!(
            "  dir-scale {}: {:.0} sim-cycles/sec ({} reps)",
            c.key,
            c.exec_cycles as f64 / c.wall_secs,
            c.reps
        );
    }
    if let Some(path) = &baseline {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
        // Per-workload gate (skipped for old-schema baselines, which carry
        // no "workload" entries): every app must stay within 20% of its own
        // recorded throughput, so a regression in one workload cannot hide
        // behind an improvement in another.
        for (name, base_rate) in baseline_workload_rates(&text, path) {
            let Some(b) = workload_benches.iter().find(|b| b.app == name) else {
                panic!("--baseline {path}: unknown workload {name}");
            };
            let fresh = b.exec_cycles as f64 / b.wall_secs;
            let ratio = fresh / base_rate;
            eprintln!("  e2e gate {name}: fresh {fresh:.0} vs baseline {base_rate:.0} ({ratio:.3}x)");
            assert!(
                ratio >= 0.8,
                "{name} end-to-end throughput regressed more than 20% vs {path}: \
                 {fresh:.0} < 0.8 * {base_rate:.0}"
            );
        }
        // Per-dir-scale-cell gate (skipped for old-schema baselines, which
        // carry a single ungridded dir_scale object): each organization x
        // node-count cell must stay within 20% of its recorded throughput.
        for (key, base_rate) in baseline_dirscale_rates(&text, path) {
            let Some(c) = dir_cells.iter().find(|c| c.key == key) else {
                panic!("--baseline {path}: unknown dir_scale cell {key}");
            };
            let fresh = c.exec_cycles as f64 / c.wall_secs;
            let ratio = fresh / base_rate;
            eprintln!(
                "  dir-scale gate {key}: fresh {fresh:.0} vs baseline {base_rate:.0} ({ratio:.3}x)"
            );
            assert!(
                ratio >= 0.8,
                "dir_scale cell {key} regressed more than 20% vs {path}: \
                 {fresh:.0} < 0.8 * {base_rate:.0}"
            );
        }
        let base = baseline_agg_cycles_per_sec(&text, path);
        let ratio = agg_cycles_per_sec / base;
        eprintln!("  e2e gate: fresh {agg_cycles_per_sec:.0} vs baseline {base:.0} ({ratio:.3}x)");
        assert!(
            ratio >= 0.8,
            "end-to-end throughput regressed more than 20% vs {path}: \
             {agg_cycles_per_sec:.0} < 0.8 * {base:.0}"
        );
    }
    println!(
        "perfbench: wrote {out_dir}/BENCH_kernel.json, {out_dir}/BENCH_sweep.json and \
         {out_dir}/BENCH_e2e.json"
    );
}
