//! Whole-machine simulator for the `dirext` reproduction of *"Combined
//! Performance Gains of Simple Cache Protocol Extensions"* (Dahlgren,
//! Dubois & Stenström, ISCA 1994).
//!
//! This crate assembles the substrate crates into the paper's 16-node
//! CC-NUMA machine (Figure 1): per node a blocking-load processor, a 4-KB
//! write-through FLC, FIFO write buffers, a lockup-free write-back SLC with
//! its SLWB (plus write cache and prefetch unit when enabled), a local bus
//! and a memory module with a full-map directory; nodes communicate over a
//! contention-free uniform network or a wormhole-routed mesh.
//!
//! # Quick start
//!
//! ```
//! use dirext_sim::{Machine, MachineConfig};
//! use dirext_core::{Consistency, ProtocolKind};
//! use dirext_trace::{Addr, MemEvent, Program, Workload};
//!
//! // Two processors ping-pong a counter through a critical section.
//! let lock = Addr::new(1 << 20);
//! let counter = Addr::new(0);
//! let turn = |_| {
//!     Program::from_events(vec![
//!         MemEvent::Acquire(lock),
//!         MemEvent::Read(counter),
//!         MemEvent::Write(counter),
//!         MemEvent::Release(lock),
//!     ])
//! };
//! let w = Workload::new("pingpong", (0..2).map(turn).collect());
//!
//! let cfg = MachineConfig::new(2, ProtocolKind::M.config(Consistency::Rc));
//! let metrics = Machine::new(cfg).run(&w).unwrap();
//! assert_eq!(metrics.shared_reads, 2);
//! ```
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation section.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
pub mod experiments;
mod home;
mod invariants;
mod machine;
mod node;
mod nodefault;
#[cfg(test)]
mod tests;

pub use config::{MachineConfig, NetworkKind};
pub use dirext_network::{FaultPlan, FaultStats};
pub use machine::{Machine, SimError};
pub use nodefault::{NodeFaultEvent, NodeFaultPlan, NodeFaultPlanError};

// Re-export the layers a downstream user needs to drive the simulator, so
// `dirext-sim` works as a facade crate.
pub use dirext_core as core;
pub use dirext_kernel as kernel;
pub use dirext_memsys as memsys;
pub use dirext_network as network;
pub use dirext_stats as stats;
pub use dirext_trace as trace;
