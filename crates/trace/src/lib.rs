//! Memory reference model for the `dirext` simulator.
//!
//! The paper drives its architectural simulator with SPLASH programs running
//! on simulated SPARC processors. We reproduce the *architectural* side
//! faithfully and replace the functional side with per-processor streams of
//! [`MemEvent`]s; synchronization events (`Acquire`, `Release`, `Barrier`)
//! are resolved at simulation time so lock ordering and barrier timing react
//! to the simulated machine exactly as in a program-driven simulation.
//!
//! The crate provides
//!
//! * address types ([`Addr`], [`BlockAddr`], [`PageId`], [`NodeId`]) with the
//!   paper's geometry (32-byte blocks, 4-KB pages, round-robin page
//!   placement),
//! * [`MemEvent`] and [`Program`] — what one processor executes,
//! * [`Workload`] — one program per processor, plus validation,
//! * [`Layout`] — a bump allocator for carving a shared address space into
//!   arrays and lock/barrier variables,
//! * [`ProgramBuilder`] — convenience for writing workload generators,
//! * [`io`] — a plain-text trace format for dumping, inspecting and
//!   reloading workloads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod builder;
mod event;
pub mod io;
mod layout;
mod workload;

pub use addr::{
    Addr, BlockAddr, NodeId, PageId, BLOCK_BYTES, MAX_NODES, PAGE_BYTES, WORDS_PER_BLOCK,
    WORD_BYTES,
};
pub use builder::ProgramBuilder;
pub use event::{BarrierId, MemEvent, Program};
pub use layout::{Layout, Region};
pub use workload::{Workload, WorkloadError};
