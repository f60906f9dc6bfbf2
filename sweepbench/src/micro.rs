//! Microbenchmarks of the layers `Machine::run` hides, driven through their
//! public APIs and fed from the workload they report under: its node
//! count, network topologies, directory organizations and the programs'
//! own addresses.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dirext_sim::core::{DirOrg, SharerSet};
use dirext_sim::kernel::{EventQueue, Time};
use dirext_sim::memsys::{FlcArray, Timing};
use dirext_sim::network::{
    Envelope, FaultyNetwork, HierMeshNetwork, MeshNetwork, Network, TrafficClass, UniformNetwork,
};
use dirext_sim::trace::{Addr, BlockAddr, MemEvent, NodeId, Workload};
use dirext_sim::{FaultPlan, NetworkKind};

use crate::spans::{Spans, NO_CELL};

/// Each microbenchmark repeats its replay until it has measured this long.
const MIN_MEASURE: Duration = Duration::from_millis(200);

/// At most this many data references are replayed per application.
const MAX_REFS: usize = 1 << 18;

/// At most this many references, shared equally among the applications,
/// feed the network replay (two messages each).
const MAX_NET_REFS: usize = 1 << 18;

/// At most this many delivery latencies per topology feed the hold model.
const MAX_LATENCIES: usize = 1 << 14;

/// Cycles between one round of references (one per node) and the next.
const ROUND_CYCLES: u64 = 10;

/// Events per node in the event-queue hold model.
const QUEUE_EVENTS_PER_NODE: usize = 4;

/// At most this many distinct blocks feed the sharer-set benchmark.
const MAX_BLOCKS: usize = 1 << 16;

/// At most this many sharers per block feed the sharer-set benchmark.
const MAX_SHARERS: usize = 64;

/// One data reference: issuing node, address, whether it writes.
#[derive(Debug, Clone, Copy)]
struct Ref {
    node: u16,
    addr: Addr,
    write: bool,
}

/// The data references of `w`, one from each node in turn.
fn interleaved_refs(w: &Workload) -> Vec<Ref> {
    let mut out = Vec::new();
    let longest = w.programs().iter().map(|p| p.len()).max().unwrap_or(0);
    'outer: for pc in 0..longest {
        for (node, p) in w.programs().iter().enumerate() {
            let (addr, write) = match p.events().get(pc) {
                Some(MemEvent::Read(a)) => (*a, false),
                Some(MemEvent::Write(a)) => (*a, true),
                _ => continue,
            };
            let node = u16::try_from(node).expect("at most 1024 nodes");
            out.push(Ref { node, addr, write });
            if out.len() == MAX_REFS {
                break 'outer;
            }
        }
    }
    out
}

/// Runs `rep` until [`MIN_MEASURE`] has elapsed, all inside one span named
/// `name`; `rep` returns the operations it timed and the seconds they
/// took. Returns nanoseconds per operation.
fn measure(spans: &mut Spans, name: &'static str, mut rep: impl FnMut() -> (u64, Duration)) -> f64 {
    let (ops, busy) = spans.span(name, NO_CELL, |_| {
        let (mut ops, mut busy) = (0u64, Duration::ZERO);
        while busy < MIN_MEASURE {
            let (n, d) = rep();
            ops += n;
            busy += d;
            if n == 0 {
                break;
            }
        }
        (ops, busy)
    });
    if ops == 0 {
        0.0
    } else {
        busy.as_nanos() as f64 / ops as f64
    }
}

/// Builds the network a cell on `kind` runs on, with the fault layer on
/// top when `fault` is set.
fn build_network(kind: NetworkKind, procs: usize, fault: Option<FaultPlan>) -> Box<dyn Network> {
    let net: Box<dyn Network> = match kind {
        NetworkKind::Uniform => Box::new(UniformNetwork::paper_default()),
        NetworkKind::Mesh { link_bits } => {
            let cols = (1..=procs).find(|c| c * c >= procs).unwrap_or(1);
            Box::new(MeshNetwork::new(cols, procs.div_ceil(cols), link_bits))
        }
        NetworkKind::HierMesh { link_bits } => Box::new(HierMeshNetwork::new(procs, link_bits)),
        NetworkKind::Ring { .. } => unreachable!("no workload runs on a ring"),
    };
    match fault {
        Some(plan) => Box::new(FaultyNetwork::with_nodes(net, plan, procs)),
        None => net,
    }
}

/// The messages a stream of references causes: a request to the block's
/// home and its reply (data for a read, an acknowledgement for a write).
fn messages(refs: &[Ref], procs: usize) -> Vec<(u64, Envelope)> {
    let mut out = Vec::with_capacity(2 * refs.len());
    for (i, r) in refs.iter().enumerate() {
        let now = (i / procs) as u64 * ROUND_CYCLES;
        let node = NodeId(r.node);
        let home = r.addr.page().home(procs);
        out.push((now, Envelope::new(node, home, 8, TrafficClass::Control)));
        let reply = if r.write {
            Envelope::new(home, node, 8, TrafficClass::Control)
        } else {
            Envelope::new(home, node, 40, TrafficClass::Data)
        };
        out.push((now, reply));
    }
    out
}

/// `Network::send` cost on one topology: nanoseconds per send, and the
/// delivery latencies (cycles) of one replay.
fn send_ns(
    spans: &mut Spans,
    msgs: &[(u64, Envelope)],
    kind: NetworkKind,
    procs: usize,
    fault: Option<FaultPlan>,
) -> (f64, Vec<u64>) {
    let mut net = build_network(kind, procs, fault);
    let latencies = msgs
        .iter()
        .take(MAX_LATENCIES)
        .map(|&(now, env)| {
            let d = net.send_all(Time::from_cycles(now), env);
            d.primary.map_or(0, |t| t.cycles() - now)
        })
        .collect();
    let ns = measure(spans, "network.send", || {
        let mut net = build_network(kind, procs, fault);
        let t = Instant::now();
        for &(now, env) in msgs {
            black_box(net.send_all(Time::from_cycles(now), env));
        }
        (msgs.len() as u64, t.elapsed())
    });
    (ns, latencies)
}

/// Event-queue hold model: `QUEUE_EVENTS_PER_NODE` events per node, and
/// each operation pops the earliest event and pushes it again one message
/// latency later. Nanoseconds per pop-and-push.
fn hold_ns(spans: &mut Spans, procs: usize, latencies: &[u64]) -> f64 {
    let latencies = if latencies.is_empty() {
        &[1][..]
    } else {
        latencies
    };
    let depth = procs * QUEUE_EVENTS_PER_NODE;
    let ops = 4 * depth.max(latencies.len());
    measure(spans, "kernel.hold", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..depth {
            q.push(Time::from_cycles(latencies[i % latencies.len()]), i as u32);
        }
        let t = Instant::now();
        for i in 0..ops {
            let (at, ev) = q.pop().expect("the hold model keeps its depth");
            let next = at.cycles() + latencies[i % latencies.len()];
            q.push(Time::from_cycles(next), black_box(ev));
        }
        (ops as u64, t.elapsed())
    })
}

/// FLC replay: each reference accesses its node's FLC and fills on a
/// miss. Nanoseconds per access.
fn flc_ns(spans: &mut Spans, refs: &[Ref], procs: usize) -> f64 {
    let bytes = Timing::paper_default().flc_bytes;
    measure(spans, "memsys.flc", || {
        let mut flc = FlcArray::new(procs, bytes);
        let t = Instant::now();
        for r in refs {
            let (node, block) = (r.node as usize, r.addr.block());
            if !flc.access(node, block) {
                black_box(flc.fill(node, block));
            }
        }
        (refs.len() as u64, t.elapsed())
    })
}

/// The distinct nodes touching each block, in first-touch order.
fn sharers_per_block(refs: &[Ref]) -> Vec<Vec<u16>> {
    let mut index: HashMap<BlockAddr, usize> = HashMap::new();
    let mut lists: Vec<Vec<u16>> = Vec::new();
    for r in refs {
        let i = *index.entry(r.addr.block()).or_insert_with(|| {
            lists.push(Vec::new());
            lists.len() - 1
        });
        let list = &mut lists[i];
        if list.len() < MAX_SHARERS && !list.contains(&r.node) {
            list.push(r.node);
        }
        if lists.len() == MAX_BLOCKS {
            break;
        }
    }
    lists
}

/// `SharerSet::add` cost (ns per add) and `for_each_target` cost (ns per
/// target visited) under `org`, replaying each block's sharers.
fn sharer_ns(spans: &mut Spans, lists: &[Vec<u16>], org: DirOrg, procs: usize) -> (f64, f64) {
    let adds: u64 = lists.iter().map(|l| l.len() as u64).sum();
    let fill = |sets: &mut [SharerSet]| {
        for (set, list) in sets.iter_mut().zip(lists) {
            for &n in list {
                black_box(set.add(NodeId(n)));
            }
        }
    };
    let add = measure(spans, "core.sharer_add", || {
        let mut sets: Vec<SharerSet> = lists.iter().map(|_| org.empty_set()).collect();
        let t = Instant::now();
        fill(&mut sets);
        (adds, t.elapsed())
    });
    let mut sets: Vec<SharerSet> = lists.iter().map(|_| org.empty_set()).collect();
    fill(&mut sets);
    let fanout = measure(spans, "core.fanout", || {
        let mut targets = 0u64;
        let t = Instant::now();
        for (set, list) in sets.iter().zip(lists) {
            set.for_each_target(procs, Some(NodeId(list[0])), |n| {
                targets += 1;
                black_box(n);
            });
        }
        (targets, t.elapsed())
    });
    (add, fanout)
}

/// Per-layer microbenchmark results, in nanoseconds per operation.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    pub hold_ns_per_op: f64,
    pub send_ns: f64,
    pub flc_access_ns: f64,
    pub sharer_add_ns: f64,
    pub fanout_ns_per_target: f64,
}

/// Runs every microbenchmark for a workload. `topologies` are the
/// networks its cells run on, each with the messages its cells sent
/// there (the weight of that topology in `send_ns`).
pub fn run(
    spans: &mut Spans,
    workloads: &[Workload],
    procs: usize,
    topologies: &[(NetworkKind, u64)],
    orgs: &[DirOrg],
    fault: Option<FaultPlan>,
) -> Micro {
    let streams: Vec<Vec<Ref>> = workloads.iter().map(interleaved_refs).collect();
    let refs: Vec<Ref> = streams.iter().flatten().copied().collect();
    // An equal share of each application's references, one after another.
    let share = MAX_NET_REFS / streams.len().max(1);
    let net_refs: Vec<Ref> = streams
        .iter()
        .flat_map(|s| &s[..s.len().min(share)])
        .copied()
        .collect();
    let msgs = messages(&net_refs, procs);

    let mut latencies = Vec::new();
    let (mut send_sum, mut weight_sum) = (0.0, 0u64);
    for &(kind, weight) in topologies {
        let (ns, lat) = send_ns(spans, &msgs, kind, procs, fault);
        send_sum += ns * weight as f64;
        weight_sum += weight;
        latencies.extend(lat);
    }
    let send_ns = if weight_sum == 0 {
        0.0
    } else {
        send_sum / weight_sum as f64
    };

    let hold_ns_per_op = hold_ns(spans, procs, &latencies);
    let flc_access_ns = flc_ns(spans, &refs, procs);

    let lists: Vec<Vec<u16>> = streams.iter().flat_map(|s| sharers_per_block(s)).collect();
    let (mut add_sum, mut fanout_sum) = (0.0, 0.0);
    for &org in orgs {
        let (add, fanout) = sharer_ns(spans, &lists, org, procs);
        add_sum += add;
        fanout_sum += fanout;
    }
    let n = orgs.len().max(1) as f64;
    Micro {
        hold_ns_per_op,
        send_ns,
        flc_access_ns,
        sharer_add_ns: add_sum / n,
        fanout_ns_per_target: fanout_sum / n,
    }
}
