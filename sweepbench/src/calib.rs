//! Host-speed calibration: a fixed reference workload, independent of the
//! simulator, sampled between timed operations.
//!
//! The host's speed drifts by ±15% over seconds to minutes. Every timed
//! operation of an untraced run is scaled by the calibration samples taken
//! just before and just after it, to the speed at which one sample takes
//! [`REF_SAMPLE_S`]. A change to the simulator moves the operation's time
//! and not the samples; a change in host speed moves both.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Pending events in the reference loop.
const EVENTS: u32 = 1024;

/// Words of state the reference loop updates (256 KB).
const STATE_WORDS: usize = 32 * 1024;

/// Event steps per sample. Shorter samples track the host worse: at a third
/// of this length the samples explained far less of the run-to-run change
/// in a cell's time.
const SAMPLE_OPS: u32 = 120_000;

/// Seconds one sample takes at the reference speed (the typical speed of
/// the 2-vCPU Intel Xeon host at 2.1 GHz the benchmark was built on).
pub const REF_SAMPLE_S: f64 = 0.0084;

/// The reference loop: a discrete-event loop over a binary heap that
/// updates a state table, like the simulator's dispatch but sharing no
/// code with it.
#[derive(Debug)]
pub struct Calib {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
    x: u64,
    last: f64,
}

impl Calib {
    /// Builds the loop and takes a first sample.
    pub fn new() -> Self {
        let mut c = Calib {
            heap: (0..EVENTS).map(|i| Reverse((u64::from(i), i))).collect(),
            state: vec![0; STATE_WORDS],
            x: 0x9e37_79b9_7f4a_7c15,
            last: 0.0,
        };
        c.last = c.sample();
        c
    }

    /// Seconds one sample of the loop takes now.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..SAMPLE_OPS {
            let Reverse((at, id)) = self.heap.pop().expect("the heap keeps its size");
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let slot = (self.x as usize ^ id as usize) & (STATE_WORDS - 1);
            self.state[slot] = self.state[slot].wrapping_add(at);
            acc ^= self.state[slot];
            self.heap.push(Reverse((at + 1 + self.x % 64, id)));
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Scales `secs`, just measured, to the reference speed, using the
    /// sample taken before the operation and a new one taken now.
    pub fn scale(&mut self, secs: f64) -> f64 {
        let before = self.last;
        self.last = self.sample();
        secs * REF_SAMPLE_S / ((before + self.last) / 2.0)
    }

    /// The most recent sample, in seconds.
    pub fn last_sample(&self) -> f64 {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_bracketing_samples() {
        let mut c = Calib::new();
        let before = c.last_sample();
        let scaled = c.scale(1.0);
        let after = c.last_sample();
        assert!(before > 0.0 && after > 0.0);
        let want = REF_SAMPLE_S / ((before + after) / 2.0);
        assert!((scaled - want).abs() <= 1e-12 * want);
    }
}
