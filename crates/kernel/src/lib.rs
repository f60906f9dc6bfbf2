//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the lowest layer of the `dirext` simulator: it knows nothing
//! about caches or protocols. It provides
//!
//! * [`Time`] — simulated time in *pclocks* (processor clock cycles, 10 ns at
//!   the paper's 100 MHz),
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic FIFO tie-break for events scheduled at the same cycle,
//! * [`Pcg32`] — a tiny, self-contained, reproducible PRNG used by the
//!   workload generators,
//! * [`Resource`] — a single-server occupancy model (bus, cache port, memory
//!   bank) that serializes accesses and reports when each one starts.
//!
//! Everything here is deliberately allocation-light and single-threaded: the
//! simulator's determinism guarantee ("same seed, same metrics") rests on
//! this crate.
//!
//! # Example
//!
//! ```
//! use dirext_kernel::{EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::from_cycles(10), "late");
//! q.push(Time::from_cycles(5), "early");
//! q.push(Time::from_cycles(5), "early-too"); // same cycle: FIFO order
//!
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Time::from_cycles(5), "early"));
//! assert_eq!(q.pop().unwrap().1, "early-too");
//! assert_eq!(q.pop().unwrap().1, "late");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
mod resource;
mod rng;
mod time;

pub use queue::EventQueue;
pub use resource::Resource;
pub use rng::Pcg32;
pub use time::Time;
