//! Synthetic workloads reproducing the sharing behaviour of the paper's
//! five benchmark programs.
//!
//! The paper drives its simulations with three SPLASH programs (MP3D,
//! Water, Cholesky) and two Stanford applications (LU, Ocean). We cannot
//! run SPARC binaries, so each generator here emits per-processor
//! [`dirext_trace::Program`]s whose *sharing structure* matches the
//! original (see `DESIGN.md` §3, substitution S1):
//!
//! * [`mp3d`] — particle streaming over per-processor particle arrays plus
//!   unsynchronized read-modify-writes on randomly chosen space cells: the
//!   paper's canonical migratory sharing ("x := x + 1") with the highest
//!   traffic and coherence-miss component of the suite;
//! * [`cholesky`] — sparse supernodal factorization: a lock-protected task
//!   queue, persistent cold misses over large column data (a direct
//!   solver!), and lock-protected column updates (migratory);
//! * [`water`] — O(n²/2) pairwise force computation: read-only sharing of
//!   molecule positions, lock-protected migratory force accumulation, and
//!   per-timestep position updates;
//! * [`lu`] — dense column-oriented factorization: producer-consumer pivot
//!   columns with high spatial locality (sequential prefetching's best
//!   case) and false sharing at unaligned column boundaries;
//! * [`ocean`] — iterative near-neighbour grid relaxation: coherence misses
//!   at partition boundaries, heavy barrier synchronization.
//!
//! [`lu_software_prefetch`] is a bonus generator for the hardware-vs-
//! software prefetching comparison in `tests/paper_shapes.rs`.
//!
//! All generators are deterministic in `(scale, procs, seed)`. The
//! [`micro`] module provides the small targeted patterns used by tests
//! and examples; [`random`] generates the fuzzer's
//! well-formed random workloads; and [`App`] enumerates the suite for the
//! experiment drivers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app_cholesky;
mod app_lu;
mod app_mp3d;
mod app_ocean;
mod app_water;
pub mod micro;
pub mod random;
mod scale;

pub use app_cholesky::cholesky;
pub use app_lu::{lu, lu_software_prefetch};
pub use app_mp3d::mp3d;
pub use app_ocean::ocean;
pub use app_water::water;
pub use scale::Scale;

use dirext_trace::Workload;

/// The paper's five-application suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Rarefied hypersonic flow (particle-in-cell); migratory space cells.
    Mp3d,
    /// Sparse Cholesky factorization of bcsstk14-like structure.
    Cholesky,
    /// N-body water molecule dynamics.
    Water,
    /// Dense LU factorization of a 200×200-like matrix.
    Lu,
    /// Ocean basin simulation (grid relaxation).
    Ocean,
}

impl App {
    /// The suite in the paper's presentation order.
    pub const ALL: [App; 5] = [App::Mp3d, App::Cholesky, App::Water, App::Lu, App::Ocean];

    /// Display name as the paper spells it.
    pub fn name(self) -> &'static str {
        match self {
            App::Mp3d => "MP3D",
            App::Cholesky => "Cholesky",
            App::Water => "Water",
            App::Lu => "LU",
            App::Ocean => "Ocean",
        }
    }

    /// Generates this application's workload.
    pub fn workload(self, procs: usize, scale: Scale) -> Workload {
        match self {
            App::Mp3d => mp3d(procs, scale),
            App::Cholesky => cholesky(procs, scale),
            App::Water => water(procs, scale),
            App::Lu => lu(procs, scale),
            App::Ocean => ocean(procs, scale),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_generate_valid_workloads() {
        for app in App::ALL {
            let w = app.workload(16, Scale::Tiny);
            w.validate().unwrap_or_else(|e| panic!("{app}: {e}"));
            assert_eq!(w.procs(), 16);
            assert!(w.total_data_refs() > 0, "{app} generates no references");
            assert_eq!(w.name(), app.name());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for app in App::ALL {
            let a = app.workload(8, Scale::Tiny);
            let b = app.workload(8, Scale::Tiny);
            for p in 0..8 {
                assert_eq!(a.program(p), b.program(p), "{app} proc {p} differs");
            }
        }
    }

    #[test]
    fn scales_order_by_size() {
        for app in App::ALL {
            let tiny = app.workload(4, Scale::Tiny).total_data_refs();
            let small = app.workload(4, Scale::Small).total_data_refs();
            assert!(
                small > tiny,
                "{app}: small ({small}) must exceed tiny ({tiny})"
            );
        }
    }
}
