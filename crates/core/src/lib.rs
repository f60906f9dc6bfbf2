//! The paper's primary contribution: simple extensions to a directory-based
//! write-invalidate cache-coherence protocol.
//!
//! This crate implements the protocol layer of *"Combined Performance Gains
//! of Simple Cache Protocol Extensions"* (Dahlgren, Dubois & Stenström,
//! ISCA 1994):
//!
//! * the **BASIC** protocol — a full-map directory-based write-invalidate
//!   protocol with lockup-free second-level caches, under sequential (SC) or
//!   release (RC) consistency ([`dir::DirCtrl`], [`line`](mod@crate::line));
//! * **P** — adaptive sequential prefetching ([`prefetch::Prefetcher`]);
//! * **M** — the migratory-sharing optimization (detection and reversion
//!   live in [`dir::DirCtrl`]; the `MigClean` cache state in
//!   [`line::CacheState`]);
//! * **CW** — competitive update with write caches (the counter in
//!   [`line::Line`], the update fan-out in [`dir::DirCtrl`], the policy
//!   knobs in [`CompetitiveConfig`]; the write cache itself is
//!   `dirext_memsys::WriteCache`);
//! * every combination of the above, selected by [`ProtocolKind`] /
//!   [`ProtocolConfig`];
//! * the memory-level synchronization the paper assumes: DASH-style
//!   queue-based locks and a barrier primitive ([`sync`]);
//! * the hardware-cost model reproducing the paper's Table 1
//!   ([`cost::HardwareCost`]).
//!
//! The crate is a *logic* layer: controllers consume protocol messages and
//! emit actions; all timing (buses, latencies, buffers) is applied by the
//! machine model in `dirext-sim`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blockmap;
pub mod config;
pub mod cost;
pub mod dir;
pub mod error;
pub mod line;
pub mod msg;
pub mod prefetch;
pub mod proto;
pub mod sharer;
pub mod sync;

pub use blockmap::BlockMap;
pub use config::{CompetitiveConfig, Consistency, PrefetchConfig, ProtocolConfig, ProtocolKind};
pub use dir::{DirAction, DirCtrl, DirStats};
pub use error::ProtocolError;
pub use line::{CacheState, Line};
pub use msg::{Msg, MsgKind};
pub use prefetch::Prefetcher;
pub use proto::{ExtKind, ExtSet, Exts, TraceRing, TransitionRecord};
pub use sharer::{AckMask, AddOutcome, DirOrg, DirOrgError, FanoutClass, SharerSet};

/// Width of the CW counter. Its countdown is tested in [`line`]; its per-line
/// bit cost is computed by [`cost::HardwareCost`].
#[cfg(test)]
mod competitive {
    mod tests {
        use crate::config::{CompetitiveConfig, Consistency, ProtocolConfig, ProtocolKind};
        use crate::cost::HardwareCost;

        /// SLC bits per line that CW's counter adds to BASIC at `threshold`.
        fn counter_bits(threshold: u8, write_cache: bool) -> u32 {
            let cw = ProtocolConfig {
                competitive: Some(CompetitiveConfig {
                    threshold,
                    write_cache,
                }),
                ..ProtocolKind::Cw.config(Consistency::Rc)
            };
            let basic = ProtocolKind::Basic.config(Consistency::Rc);
            HardwareCost::of(&cw, 16).slc_bits_per_line
                - HardwareCost::of(&basic, 16).slc_bits_per_line
        }

        #[test]
        fn counter_bits_matches_table_1() {
            // Threshold 1 -> modulo-2 counter -> 1 bit.
            assert_eq!(counter_bits(1, true), 1);
            // Threshold 4 -> 3 bits (counts 4..0).
            assert_eq!(counter_bits(4, false), 3);
            // In general the counter holds threshold..0.
            assert_eq!(counter_bits(2, true), 2);
            assert_eq!(counter_bits(8, true), 4);
            assert_eq!(counter_bits(u8::MAX, true), 8);
        }
    }
}
