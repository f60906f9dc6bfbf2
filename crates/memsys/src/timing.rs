//! The paper's latency and capacity parameters.

use dirext_kernel::Time;

/// FLC hit latency (paper Section 4; pclocks are 10 ns at 100 MHz).
pub const FLC_HIT: Time = Time::from_cycles(1);

/// FLC block fill after the SLC returns data.
pub const FLC_FILL: Time = Time::from_cycles(3);

/// SLC access (30 ns SRAM): hit detection or line read/write occupancy.
pub const SLC_ACCESS: Time = Time::from_cycles(6);

/// Memory-module access (fully interleaved, so no bank contention). The
/// directory lookup overlaps it.
pub const MEM_ACCESS: Time = Time::from_cycles(24);

/// One transfer over the local 256-bit split-transaction bus (a 32-byte
/// block is one bus width). A local memory access is bus + memory + bus =
/// 30 pclocks end-to-end.
pub const BUS_TRANSFER: Time = Time::from_cycles(3);

/// FLC size in bytes (4 KB, direct-mapped). No run varies it;
/// [`Timing::flc_bytes`] defaults to it.
pub const FLC_BYTES: u64 = 4 * 1024;

/// The node capacities a run can set: the write-buffer depths and the SLC
/// size, which sequential consistency and the Section 5.4 sensitivity
/// study change, and the FLC size. The latencies (paper Section 4) are the
/// constants beside this type.
///
/// The defaults are an FLWB of 8 entries and an SLWB of 16 entries under
/// release consistency (single entries under sequential consistency —
/// applied by the machine builder, not here), a 4-KB FLC and an infinite
/// SLC.
///
/// # Example
///
/// ```
/// use dirext_memsys::{Timing, BUS_TRANSFER, MEM_ACCESS};
///
/// let t = Timing::paper_default();
/// assert_eq!((t.flwb_entries, t.slwb_entries), (8, 16));
/// assert_eq!((BUS_TRANSFER + MEM_ACCESS + BUS_TRANSFER).cycles(), 30);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timing {
    /// FLWB capacity (entries).
    pub flwb_entries: usize,
    /// SLWB capacity (entries).
    pub slwb_entries: usize,
    /// FLC size in bytes ([`FLC_BYTES`]).
    pub flc_bytes: u64,
    /// SLC size in bytes; `None` means infinite (the paper's default).
    pub slc_bytes: Option<u64>,
}

impl Timing {
    /// The paper's baseline parameters.
    pub fn paper_default() -> Self {
        Timing {
            flwb_entries: 8,
            slwb_entries: 16,
            flc_bytes: FLC_BYTES,
            slc_bytes: None,
        }
    }

    /// The Section 5.4 sensitivity variant: 4-entry FLWB and SLWB.
    pub fn with_small_buffers(mut self) -> Self {
        self.flwb_entries = 4;
        self.slwb_entries = 4;
        self
    }

    /// The Section 5.4 sensitivity variant: 16-KB direct-mapped SLC.
    pub fn with_limited_slc(mut self) -> Self {
        self.slc_bytes = Some(16 * 1024);
        self
    }
}

impl Default for Timing {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let t = Timing::paper_default();
        assert_eq!(FLC_HIT.cycles(), 1);
        assert_eq!(SLC_ACCESS.cycles(), 6);
        assert_eq!((BUS_TRANSFER + MEM_ACCESS + BUS_TRANSFER).cycles(), 30);
        assert_eq!(t.flwb_entries, 8);
        assert_eq!(t.slwb_entries, 16);
        assert_eq!(t.slc_bytes, None);
    }

    #[test]
    fn sensitivity_variants() {
        let t = Timing::paper_default().with_small_buffers();
        assert_eq!((t.flwb_entries, t.slwb_entries), (4, 4));
        let t = Timing::paper_default().with_limited_slc();
        assert_eq!(t.slc_bytes, Some(16 * 1024));
    }
}
