//! The per-node memory subsystem of the `dirext` machine.
//!
//! Each processing node in the paper's baseline architecture (its Figure 1)
//! contains:
//!
//! * a **first-level cache** (FLC): 4 KB, direct-mapped, write-through, no
//!   allocation on write misses, blocking on read misses ([`Flc`]);
//! * a **first-level write buffer** (FLWB) buffering writes and read-miss
//!   requests in FIFO order ([`Fifo`]);
//! * a **second-level cache** (SLC): direct-mapped, write-back, lockup-free,
//!   maintaining inclusion of the FLC ([`Slc`] — generic over the protocol
//!   line state, which lives in `dirext-core`);
//! * a **second-level write buffer** (SLWB) holding pending requests
//!   (ownership requests, prefetches, updates) — modelled in the protocol
//!   layer with capacity enforced by [`Fifo`]-style accounting;
//! * for the CW extension, a small **write cache** that combines writes to
//!   the same block before they are issued ([`WriteCache`]).
//!
//! [`Timing`] collects the node capacities a run can set; the paper's
//! latencies (Section 4) and the FLC size are constants beside it
//! ([`FLC_HIT`], [`FLC_FILL`], [`SLC_ACCESS`], [`MEM_ACCESS`],
//! [`BUS_TRANSFER`], [`FLC_BYTES`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fifo;
mod flc;
mod slc;
mod timing;
mod write_cache;

pub use fifo::Fifo;
pub use flc::{Flc, FlcArray};
pub use slc::{Slc, SlcGeometry};
pub use timing::{Timing, BUS_TRANSFER, FLC_BYTES, FLC_FILL, FLC_HIT, MEM_ACCESS, SLC_ACCESS};
pub use write_cache::{WcEntry, WriteCache};
