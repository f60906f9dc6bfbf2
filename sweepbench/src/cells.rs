//! The three workloads: their cells, their set-up and how each cell is run.

use std::path::Path;
use std::sync::Arc;

use dirext_sim::core::{Consistency, DirOrg, ProtocolKind};
use dirext_sim::experiments::fig3::FIG3_PROTOCOLS;
use dirext_sim::experiments::{
    run_cells, Cell, DegradeParams, Journal, SweepOpts, DEGRADE_CRASHES, DEGRADE_PROTOCOLS,
    DIRSCALE_NETWORK, DIRSCALE_PROTOCOLS,
};
use dirext_sim::stats::Metrics;
use dirext_sim::trace::Workload;
use dirext_sim::{FaultPlan, Machine, MachineConfig, NetworkKind, NodeFaultPlan};
use dirext_workloads::{App, Scale};

use crate::spans::{Spans, NO_CELL};

/// The seed whose outputs the golden files record. It is also the default
/// link-fault and crash-schedule seed of `dirext degrade`.
pub const DEFAULT_SEED: u64 = 1;

/// Progress-watchdog window of the `scale1024` cells. `LU@1024/P+CW/dir=none`
/// is a slow but progressing broadcast storm that passes the default
/// 1M-pclock window without a retirement; with this window it completes at
/// 35,263,412 pclocks. The other cells finish identically under either.
pub const SCALE1024_WATCHDOG: u64 = 50_000_000;

/// Link-fault rates of `faults16`, in permille and cycles: the rates the
/// fault-injection smoke runs use.
const FAULT_DROP_PERMILLE: u32 = 20;
const FAULT_DUP_PERMILLE: u32 = 10;
const FAULT_JITTER_CYCLES: u64 = 5;

/// The sweep name in `faults16`'s journal keys: its cells are
/// `dirext degrade`'s.
const DEGRADE_SWEEP: &str = "degrade";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The paper's evaluation: Figure 2, Figure 3 and Table 3 on 16 nodes.
    Paper16,
    /// The 1024-node rows of `dirscale --scale small` for Water and LU.
    Scale1024,
    /// The default `degrade` sweep under link faults, journaled.
    Faults16,
}

impl Bench {
    pub const ALL: [Bench; 3] = [Bench::Paper16, Bench::Scale1024, Bench::Faults16];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Paper16 => "paper16",
            Bench::Scale1024 => "scale1024",
            Bench::Faults16 => "faults16",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    pub fn procs(self) -> usize {
        match self {
            Bench::Paper16 | Bench::Faults16 => 16,
            Bench::Scale1024 => 1024,
        }
    }

    fn apps(self) -> (&'static [App], Scale) {
        match self {
            Bench::Paper16 => (&App::ALL, Scale::Paper),
            Bench::Scale1024 => (&[App::Water, App::Lu], Scale::Small),
            Bench::Faults16 => (&[App::Mp3d], Scale::Paper),
        }
    }

    /// The directory organizations that can serve this workload's machine.
    pub fn orgs(self) -> Vec<DirOrg> {
        match self {
            Bench::Paper16 => vec![DirOrg::FullMap],
            Bench::Scale1024 | Bench::Faults16 => DirOrg::ALL
                .into_iter()
                .filter(|o| o.validate(self.procs()).is_ok())
                .collect(),
        }
    }
}

/// One simulator configuration of a workload.
#[derive(Debug)]
pub struct CellSpec {
    /// Index into the workload's applications.
    pub app: usize,
    pub kind: ProtocolKind,
    pub consistency: Consistency,
    pub network: NetworkKind,
    pub dir: DirOrg,
    /// Scheduled node crashes (`faults16` only).
    pub crashes: usize,
}

impl CellSpec {
    fn new(app: usize, kind: ProtocolKind, consistency: Consistency, network: NetworkKind) -> Self {
        CellSpec {
            app,
            kind,
            consistency,
            network,
            dir: DirOrg::FullMap,
            crashes: 0,
        }
    }
}

/// The workload's cells, in sweep order. They do not depend on the seed.
pub fn cell_specs(bench: Bench) -> Vec<CellSpec> {
    let apps = bench.apps().0.len();
    let mut cells = Vec::new();
    match bench {
        Bench::Paper16 => {
            // Figure 2: every protocol under RC.
            for app in 0..apps {
                for kind in ProtocolKind::ALL {
                    cells.push(CellSpec::new(
                        app,
                        kind,
                        Consistency::Rc,
                        NetworkKind::Uniform,
                    ));
                }
            }
            // Figure 3: the SC protocols (its BASIC-RC reference is a
            // Figure 2 cell).
            for app in 0..apps {
                for kind in FIG3_PROTOCOLS {
                    cells.push(CellSpec::new(
                        app,
                        kind,
                        Consistency::Sc,
                        NetworkKind::Uniform,
                    ));
                }
            }
            // Table 3: BASIC, P+CW and P+M on 64-, 32- and 16-bit meshes.
            for app in 0..apps {
                for link_bits in [64, 32, 16] {
                    for kind in [ProtocolKind::Basic, ProtocolKind::PCw, ProtocolKind::PM] {
                        let mesh = NetworkKind::Mesh { link_bits };
                        cells.push(CellSpec::new(app, kind, Consistency::Rc, mesh));
                    }
                }
            }
        }
        Bench::Scale1024 => {
            for app in 0..apps {
                for dir in bench.orgs() {
                    for kind in DIRSCALE_PROTOCOLS {
                        cells.push(CellSpec {
                            dir,
                            ..CellSpec::new(app, kind, Consistency::Rc, DIRSCALE_NETWORK)
                        });
                    }
                }
            }
        }
        Bench::Faults16 => {
            for crashes in DEGRADE_CRASHES {
                for dir in bench.orgs() {
                    for kind in DEGRADE_PROTOCOLS {
                        cells.push(CellSpec {
                            dir,
                            crashes,
                            ..CellSpec::new(0, kind, Consistency::Rc, DIRSCALE_NETWORK)
                        });
                    }
                }
            }
        }
    }
    cells
}

fn network_name(n: NetworkKind) -> String {
    match n {
        NetworkKind::Uniform => "uniform".to_owned(),
        NetworkKind::Mesh { link_bits } => format!("mesh{link_bits}"),
        NetworkKind::HierMesh { link_bits } => format!("hmesh{link_bits}"),
        NetworkKind::Ring { link_bits } => format!("ring{link_bits}"),
    }
}

/// The link-fault plan `faults16` runs under for `seed`.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_permille: FAULT_DROP_PERMILLE,
        dup_permille: FAULT_DUP_PERMILLE,
        jitter_cycles: FAULT_JITTER_CYCLES,
        ..FaultPlan::seeded(seed)
    }
}

/// The crash schedule of a `faults16` cell, as `dirext degrade` builds it.
pub fn node_fault_plan(seed: u64, procs: usize, crashes: usize) -> Option<NodeFaultPlan> {
    (crashes > 0).then(|| {
        let mut plan = NodeFaultPlan::seeded(seed, procs, crashes);
        plan.detect_delay = DegradeParams::default().detect_delay;
        plan
    })
}

/// A workload made ready to run: its programs, cells and fault plans.
#[derive(Debug)]
pub struct Prepared {
    pub bench: Bench,
    pub workloads: Vec<Workload>,
    pub specs: Vec<CellSpec>,
    pub ids: Vec<String>,
    /// Program events over all applications.
    pub events: u64,
    pub fault: Option<FaultPlan>,
    pub node_faults: Vec<Option<NodeFaultPlan>>,
}

/// The set-up a run measures as `setup_s`: generate and validate the
/// programs and, for `faults16`, build the fault plans and create the
/// journal at `journal`.
pub fn setup(
    bench: Bench,
    seed: u64,
    spans: &mut Spans,
    journal: &Path,
) -> Result<(Prepared, Option<Journal>), String> {
    let (apps, scale) = bench.apps();
    let procs = bench.procs();
    let mut workloads = Vec::with_capacity(apps.len());
    for app in apps {
        let w = spans.span("workloads.generate", NO_CELL, |_| {
            app.workload(procs, scale)
        });
        spans
            .span("trace.validate", NO_CELL, |_| w.validate())
            .map_err(|e| format!("{app} programs are invalid: {e}"))?;
        workloads.push(w);
    }
    let events = workloads.iter().map(|w| w.total_events() as u64).sum();
    let specs = cell_specs(bench);
    let ids = specs
        .iter()
        .map(|s| {
            let mut id = format!(
                "{}@{}/{}/{}/{}/dir={}",
                workloads[s.app].name(),
                procs,
                s.kind.name(),
                match s.consistency {
                    Consistency::Rc => "RC",
                    Consistency::Sc => "SC",
                },
                network_name(s.network),
                s.dir.cli_name()
            );
            if bench == Bench::Faults16 {
                id.push_str(&format!("/crashes={}", s.crashes));
            }
            id
        })
        .collect();
    let (fault, node_faults, journal) = if bench == Bench::Faults16 {
        let node_faults = spans.span("sim.node_fault_plans", NO_CELL, |_| {
            specs
                .iter()
                .map(|s| node_fault_plan(seed, procs, s.crashes))
                .collect()
        });
        let journal = spans
            .span("experiments.journal_create", NO_CELL, |_| {
                Journal::create(journal)
            })
            .map_err(|e| e.to_string())?;
        (Some(fault_plan(seed)), node_faults, Some(journal))
    } else {
        (None, vec![None; specs.len()], None)
    };
    let prepared = Prepared {
        bench,
        workloads,
        specs,
        ids,
        events,
        fault,
        node_faults,
    };
    Ok((prepared, journal))
}

impl Prepared {
    pub fn workload(&self, cell: usize) -> &Workload {
        &self.workloads[self.specs[cell].app]
    }

    /// Whether cells go through `run_cells` with a journal.
    pub fn journaled(&self) -> bool {
        self.bench == Bench::Faults16
    }

    /// Sweep options of a journaled pass: serial, link faults on, the
    /// default transient retries.
    pub fn sweep_opts(&self, journal: Journal) -> SweepOpts {
        let mut opts = SweepOpts::jobs(1).with_journal(Arc::new(journal));
        if let Some(p) = self.fault {
            opts = opts.with_fault(p);
        }
        opts
    }

    /// The machine configuration of cell `i`, as the sweeps build it.
    pub fn machine_config(&self, i: usize) -> MachineConfig {
        let s = &self.specs[i];
        let mut cfg = MachineConfig::new(self.workload(i).procs(), s.kind.config(s.consistency))
            .with_network(s.network)
            .with_dir_org(s.dir);
        if let Some(p) = self.fault {
            cfg = cfg.with_faults(p);
        }
        if let Some(p) = &self.node_faults[i] {
            cfg = cfg.with_node_faults(p.clone());
        }
        if self.bench == Bench::Scale1024 {
            cfg = cfg.with_watchdog(SCALE1024_WATCHDOG);
        }
        cfg
    }

    /// Runs cell `i` straight through the machine: `Machine::new`, then
    /// `Machine::run`.
    pub fn run_direct(&self, i: usize, spans: &mut Spans) -> Result<Metrics, String> {
        let cfg = self.machine_config(i);
        let id = i as u32;
        let machine = spans.span("sim.new", id, |_| Machine::new(cfg));
        spans
            .span("sim.run", id, |_| machine.run(self.workload(i)))
            .map_err(|e| e.to_string())
    }

    /// Runs cell `i` through `experiments::run_cells` under `opts`.
    pub fn run_journaled(
        &self,
        i: usize,
        spans: &mut Spans,
        opts: &SweepOpts,
    ) -> Result<Metrics, String> {
        let s = &self.specs[i];
        let mut cell = Cell::on(self.workload(i), s.kind, s.consistency, s.network).with_dir(s.dir);
        if let Some(p) = &self.node_faults[i] {
            cell = cell.with_node_faults(p.clone());
        }
        spans
            .span("experiments.run_cells", i as u32, |_| {
                run_cells(DEGRADE_SWEEP, std::slice::from_ref(&cell), opts)
            })
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or_else(|| format!("{}: run_cells returned no result", self.ids[i]))
    }

    /// Runs cell `i` the way its workload drives it.
    pub fn run_cell(
        &self,
        i: usize,
        spans: &mut Spans,
        opts: Option<&SweepOpts>,
    ) -> Result<Metrics, String> {
        match opts {
            Some(opts) => self.run_journaled(i, spans, opts),
            None => self.run_direct(i, spans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn workloads_have_the_documented_cell_counts() {
        assert_eq!(cell_specs(Bench::Paper16).len(), 105);
        assert_eq!(cell_specs(Bench::Scale1024).len(), 32);
        assert_eq!(cell_specs(Bench::Faults16).len(), 40);
        for bench in Bench::ALL {
            let specs = cell_specs(bench);
            let distinct: BTreeSet<String> = specs.iter().map(|s| format!("{s:?}")).collect();
            assert_eq!(
                distinct.len(),
                specs.len(),
                "{} repeats a cell",
                bench.name()
            );
        }
    }

    #[test]
    fn scale1024_keeps_the_storm_cell() {
        assert!(cell_specs(Bench::Scale1024)
            .iter()
            .any(|s| s.app == 1 && s.kind == ProtocolKind::PCw && s.dir == DirOrg::Directoryless));
    }

    #[test]
    fn one_seed_gives_one_fault_and_crash_schedule() {
        for seed in [DEFAULT_SEED, 7, 12345] {
            assert_eq!(fault_plan(seed), fault_plan(seed));
            for crashes in DEGRADE_CRASHES {
                assert_eq!(
                    node_fault_plan(seed, 16, crashes),
                    node_fault_plan(seed, 16, crashes)
                );
            }
        }
        assert_ne!(fault_plan(1), fault_plan(2));
        assert_ne!(node_fault_plan(1, 16, 4), node_fault_plan(2, 16, 4));
        assert_eq!(node_fault_plan(1, 16, 0), None);
        let plan = node_fault_plan(3, 16, 4).expect("four crashes");
        assert_eq!(plan.events.len(), 4);
        assert_eq!(plan.validate(16), Ok(()));
    }
}
