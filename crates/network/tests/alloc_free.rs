//! Proves the network models are allocation-free in steady state.
//!
//! Every topology (and the fault layer) is driven through thousands of
//! sends under a counting global allocator; after construction, no send may
//! touch the heap. This pins the arena/recycling properties the end-to-end
//! perf gate relies on: mesh routes live in a precomputed hop arena, the
//! fault layer's pair clocks are a dense table, and traffic accounting is
//! plain counters.
//!
//! The count is per thread: libtest runs tests on several threads at once,
//! and a process-wide counter would charge a sibling test's allocations to
//! whichever measurement happened to be open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dirext_kernel::Time;
use dirext_network::{
    Envelope, FaultPlan, FaultyNetwork, HierMeshNetwork, MeshNetwork, Network, RingNetwork,
    TrafficClass, UniformNetwork,
};
use dirext_trace::NodeId;

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by the current thread. The `const`
    /// initializer and the destructor-free `Cell` mean the counter itself
    /// never allocates, so the allocator can bump it without recursing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations carry over; counting touches only
// a thread-local integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation is forwarded there).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: as for `dealloc`; `new_size` is checked by our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Streams a deterministic mix of control/data/update/sync messages across
/// all node pairs and returns how many heap allocations they caused.
fn allocs_during_sends(net: &mut dyn Network, rounds: u64) -> u64 {
    let classes = [
        (8, TrafficClass::Control),
        (40, TrafficClass::Data),
        (20, TrafficClass::Update),
        (8, TrafficClass::Sync),
    ];
    let before = allocs();
    for r in 0..rounds {
        for src in 0..16u16 {
            for dst in 0..16u16 {
                let (bytes, class) = classes[(src as usize + dst as usize + r as usize) % 4];
                let env = Envelope::new(NodeId(src), NodeId(dst), bytes, class);
                net.send_all(Time::from_cycles(r * 100), env);
            }
        }
    }
    allocs() - before
}

#[test]
fn uniform_network_sends_never_allocate() {
    let mut net = UniformNetwork::paper_default();
    assert_eq!(allocs_during_sends(&mut net, 20), 0);
}

#[test]
fn mesh_sends_never_allocate() {
    for link_bits in [64, 32, 16] {
        let mut net = MeshNetwork::paper_mesh(link_bits);
        assert_eq!(allocs_during_sends(&mut net, 20), 0, "{link_bits}-bit mesh");
    }
}

#[test]
fn ring_sends_never_allocate() {
    let mut net = RingNetwork::new(16, 32);
    assert_eq!(allocs_during_sends(&mut net, 20), 0);
}

/// Like [`allocs_during_sends`], but with the 16×16 pair grid spread
/// across the whole `nodes`-node id space so hierarchical topologies cross
/// cluster boundaries (gateway ascent, express grid, descent) instead of
/// staying inside cluster 0.
fn allocs_during_spread_sends(net: &mut dyn Network, nodes: u16, rounds: u64) -> u64 {
    let classes = [
        (8, TrafficClass::Control),
        (40, TrafficClass::Data),
        (20, TrafficClass::Update),
        (8, TrafficClass::Sync),
    ];
    let stride = (nodes / 16).max(1);
    let before = allocs();
    for r in 0..rounds {
        for si in 0..16u16 {
            for di in 0..16u16 {
                // Offset by the round so every pass hits different routers.
                let src = (si * stride + r as u16) % nodes;
                let dst = (di * stride + 7 * r as u16) % nodes;
                let (bytes, class) = classes[(si as usize + di as usize + r as usize) % 4];
                let env = Envelope::new(NodeId(src), NodeId(dst), bytes, class);
                net.send_all(Time::from_cycles(r * 100), env);
            }
        }
    }
    allocs() - before
}

#[test]
fn hier_mesh_sends_never_allocate() {
    for (nodes, link_bits) in [(64u16, 64), (256, 32), (1024, 16)] {
        let mut net = HierMeshNetwork::new(nodes as usize, link_bits);
        assert_eq!(
            allocs_during_spread_sends(&mut net, nodes, 20),
            0,
            "{nodes}-node {link_bits}-bit hier mesh"
        );
    }
}

#[test]
fn faulty_hier_mesh_sends_never_allocate() {
    // 1024 nodes exceeds the fault layer's default 64-node pair-clock
    // table; `with_nodes` sizes it at construction so fault-perturbed
    // cross-cluster sends stay allocation-free (and in bounds).
    let plan = FaultPlan {
        drop_permille: 100,
        dup_permille: 100,
        jitter_cycles: 40,
        ..FaultPlan::seeded(42)
    };
    let mut net = FaultyNetwork::with_nodes(Box::new(HierMeshNetwork::new(1024, 32)), plan, 1024);
    assert_eq!(allocs_during_spread_sends(&mut net, 1024, 20), 0);
}

#[test]
fn fault_layer_sends_never_allocate() {
    let plan = FaultPlan {
        drop_permille: 100,
        dup_permille: 100,
        jitter_cycles: 40,
        ..FaultPlan::seeded(42)
    };
    let mut net = FaultyNetwork::with_nodes(Box::new(MeshNetwork::paper_mesh(32)), plan, 16);
    assert_eq!(allocs_during_sends(&mut net, 20), 0);
}

/// Negative control for the per-thread count: a second thread allocates in
/// a loop while the sends are measured, and the measurement must still
/// read zero. The loop repeats until a full allocation of the other thread
/// provably fell inside one measurement window.
#[test]
fn sends_read_zero_while_another_thread_allocates() {
    let stop = Arc::new(AtomicBool::new(false));
    let spins = Arc::new(AtomicU64::new(0));
    let churn = {
        let (stop, spins) = (Arc::clone(&stop), Arc::clone(&spins));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                drop(black_box(Vec::<u64>::with_capacity(16)));
                spins.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let mut net = MeshNetwork::paper_mesh(32);
    let mut overlapped = false;
    for _ in 0..10_000 {
        let before = spins.load(Ordering::SeqCst);
        let measured = allocs_during_sends(&mut net, 20);
        let after = spins.load(Ordering::SeqCst);
        assert_eq!(measured, 0, "another thread's allocations were counted");
        // Two completed iterations mean at least one allocation started
        // and finished inside the window.
        if after >= before + 2 {
            overlapped = true;
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().expect("allocating thread panicked");
    assert!(
        overlapped,
        "the allocating thread never ran during a measurement"
    );
}
