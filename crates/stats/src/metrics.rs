//! The complete result record of one simulation run.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Histogram, StallBreakdown};

/// Everything one simulation run measures.
///
/// A `Metrics` value is self-describing (workload, protocol, consistency,
/// network) so experiment drivers can collect them into tables. The
/// normalizations the paper uses — execution time relative to BASIC, miss
/// rates as a percentage of shared references, traffic normalized to
/// BASIC — are provided as methods.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Workload name (e.g. `"MP3D"`).
    pub workload: String,
    /// Protocol label (e.g. `"P+CW"`).
    pub protocol: String,
    /// Consistency model (`"SC"` / `"RC"`).
    pub consistency: String,
    /// Network model name.
    pub network: String,
    /// Number of processors.
    pub procs: usize,

    /// Wall-clock execution time of the parallel section in pclocks
    /// (latest processor finish time).
    pub exec_cycles: u64,
    /// Stall decomposition summed over all processors.
    pub stalls: StallBreakdown,

    /// Shared-data loads issued by processors.
    pub shared_reads: u64,
    /// Shared-data stores issued by processors.
    pub shared_writes: u64,
    /// References that hit in the FLC.
    pub flc_hits: u64,
    /// Demand misses at the SLC.
    pub slc_misses: u64,
    /// ... of which cold.
    pub cold_misses: u64,
    /// ... of which coherence.
    pub coh_misses: u64,
    /// ... of which replacement.
    pub repl_misses: u64,
    /// Reads that missed the SLC but were serviced by the write cache.
    pub wc_read_hits: u64,

    /// Total cycles spent servicing demand read misses (for E8's average
    /// read-miss latency).
    pub read_miss_cycles: u64,
    /// Demand read misses serviced remotely or locally.
    pub read_miss_count: u64,
    /// Distribution of demand read-miss service times — exposes the
    /// 2-hop/4-hop bimodality behind CW's latency advantage.
    pub read_miss_hist: Histogram,

    /// Prefetch requests issued.
    pub prefetches_issued: u64,
    /// Prefetched blocks referenced before being invalidated/replaced.
    pub prefetches_useful: u64,

    /// Ownership requests serviced by directories.
    pub ownership_reqs: u64,
    /// Update requests serviced by directories.
    pub update_reqs: u64,
    /// Update messages fanned out to third-party caches.
    pub updates_fanned_out: u64,
    /// Invalidations sent by directories.
    pub invals_sent: u64,
    /// Writebacks received by directories.
    pub writebacks: u64,
    /// Exclusive (migratory) read grants.
    pub exclusive_grants: u64,
    /// Migratory detections.
    pub migratory_detections: u64,
    /// Migratory reversions.
    pub migratory_reverts: u64,
    /// CW+M interrogation rounds.
    pub interrogations: u64,
    /// Update requests that found the block dirty in a third-party cache
    /// and recalled it before fanning out (CW race-state).
    pub update_recalls: u64,
    /// Read requests serviced with a clean memory copy (local or two-hop).
    pub reads_clean: u64,
    /// Read requests that needed a fetch from a dirty third-party cache
    /// (four node-to-node transfers through the home).
    pub reads_dirty: u64,
    /// Sharer-set capacity overflows (limited-pointer and directoryless
    /// organizations; always 0 under the exact full map). Skipped from the
    /// serialized form when 0 so full-map artifacts stay byte-identical.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub dir_overflows: u64,
    /// Invalidation/update fan-outs that went to every node because the
    /// sharer set had lost precision (Dir_i_B overflow, directoryless).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub dir_broadcasts: u64,
    /// Sharer copies invalidated (recalled) to free a directory pointer
    /// (Dir_i_NB replacement on overflow).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub dir_recalls: u64,

    /// Total bytes injected into the network.
    pub net_bytes: u64,
    /// Total messages injected into the network.
    pub net_msgs: u64,
    /// Bytes carrying block data.
    pub net_data_bytes: u64,
    /// Bytes carrying competitive updates.
    pub net_update_bytes: u64,
    /// Bytes carrying control messages.
    pub net_control_bytes: u64,
    /// Bytes carrying synchronization.
    pub net_sync_bytes: u64,

    /// Messages the fault-injection layer delayed with nonzero jitter.
    pub fault_delayed: u64,
    /// Link-layer retransmissions performed by the fault-injection layer.
    pub fault_retransmitted: u64,
    /// Messages the fault-injection layer delivered twice.
    pub fault_duplicated: u64,
    /// Messages the fault-injection layer permanently lost.
    pub fault_lost: u64,
    /// NACKs sent by directories (a request raced the requester's own
    /// in-flight writeback).
    pub nacks_sent: u64,
    /// NACKed requests retried by caches after backoff.
    pub nack_retries: u64,
    /// Stale duplicated messages recognized and dropped (directory, cache
    /// and synchronization controllers combined).
    pub stale_drops: u64,

    /// Whole-node crashes applied by the node-fault plan.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub node_crashes: u64,
    /// Crashed nodes re-admitted (epoch bumped, caches cold).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub node_recoveries: u64,
    /// Events and messages dropped because an endpoint was crashed.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub crash_drops: u64,
    /// Events and messages dropped because they were stamped by a previous
    /// incarnation of a since-recovered node.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub stale_epoch_drops: u64,
    /// Sharer-set entries surgically removed by reconstruction sweeps.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub dir_purged_sharers: u64,
    /// Dirty blocks reclaimed from a dead owner (memory rewound to its
    /// last written value).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub dir_orphan_reclaims: u64,
    /// Recovery invalidation sweeps issued against inexact sharer sets.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub dir_purge_sweeps: u64,
    /// Pending directory operations whose grant was redirected because the
    /// requester died mid-flight.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub crash_aborted_grants: u64,
    /// Distinct blocks whose most recent written value died with a crashed
    /// node.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub data_loss_blocks: u64,

    /// Lock acquisitions performed.
    pub lock_acquires: u64,
    /// Barrier episodes completed.
    pub barrier_episodes: u64,
    /// Completion times of barrier episodes in completion order (pclocks) —
    /// the phase profile of iterative workloads.
    pub barrier_completion_cycles: Vec<u64>,
    /// Per-processor stall breakdowns (index = node id), for load-imbalance
    /// analysis.
    pub per_proc_stalls: Vec<StallBreakdown>,
}

impl Metrics {
    /// Total shared-data references.
    pub fn shared_refs(&self) -> u64 {
        self.shared_reads + self.shared_writes
    }

    /// SLC miss rate as a percentage of shared references (the paper's
    /// miss-rate definition in Table 2).
    pub fn miss_rate_pct(&self) -> f64 {
        percent(self.slc_misses, self.shared_refs())
    }

    /// Cold miss rate (percent of shared references).
    pub fn cold_rate_pct(&self) -> f64 {
        percent(self.cold_misses, self.shared_refs())
    }

    /// Coherence miss rate (percent of shared references).
    pub fn coh_rate_pct(&self) -> f64 {
        percent(self.coh_misses, self.shared_refs())
    }

    /// Replacement miss rate (percent of shared references).
    pub fn repl_rate_pct(&self) -> f64 {
        percent(self.repl_misses, self.shared_refs())
    }

    /// Average demand read-miss service latency in pclocks.
    pub fn avg_read_miss_latency(&self) -> f64 {
        if self.read_miss_count == 0 {
            0.0
        } else {
            self.read_miss_cycles as f64 / self.read_miss_count as f64
        }
    }

    /// Fraction of directory read requests serviced with a clean memory
    /// copy (the mechanism behind CW's shorter read-miss latency: "the
    /// likelihood of finding a clean copy at memory is higher").
    pub fn clean_read_fraction(&self) -> f64 {
        let total = self.reads_clean + self.reads_dirty;
        if total == 0 {
            0.0
        } else {
            self.reads_clean as f64 / total as f64
        }
    }

    /// Durations of the workload's barrier-delimited phases (differences of
    /// consecutive barrier completion times, with the run start as origin).
    pub fn phase_durations(&self) -> Vec<u64> {
        let mut last = 0;
        self.barrier_completion_cycles
            .iter()
            .map(|&t| {
                let d = t.saturating_sub(last);
                last = t;
                d
            })
            .collect()
    }

    /// Load imbalance: the busiest processor's accounted time divided by the
    /// average (1.0 = perfectly balanced). Returns 1.0 when unmeasured.
    pub fn load_imbalance(&self) -> f64 {
        let totals: Vec<u64> = self.per_proc_stalls.iter().map(|s| s.busy).collect();
        if totals.is_empty() {
            return 1.0;
        }
        let max = *totals.iter().max().expect("nonempty") as f64;
        let avg = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// Fraction of issued prefetches that proved useful.
    pub fn prefetch_efficiency(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_useful as f64 / self.prefetches_issued as f64
        }
    }

    /// Execution time relative to a baseline run (the paper normalizes
    /// everything to BASIC = 100).
    ///
    /// # Panics
    ///
    /// Panics if the baseline ran zero cycles.
    pub fn relative_time(&self, baseline: &Metrics) -> f64 {
        assert!(baseline.exec_cycles > 0, "baseline ran zero cycles");
        self.exec_cycles as f64 / baseline.exec_cycles as f64
    }

    /// Network traffic relative to a baseline run (Figure 4).
    pub fn relative_traffic(&self, baseline: &Metrics) -> f64 {
        if baseline.net_bytes == 0 {
            return if self.net_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.net_bytes as f64 / baseline.net_bytes as f64
    }
}

fn is_zero(v: &u64) -> bool {
    *v == 0
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {} / {} on {} ({} procs)",
            self.workload, self.protocol, self.consistency, self.network, self.procs
        )?;
        writeln!(f, "  exec: {} pclocks", self.exec_cycles)?;
        let fr = self.stalls.fractions();
        writeln!(
            f,
            "  time: busy {:.1}% read {:.1}% write {:.1}% acq {:.1}% rel {:.1}% buf {:.1}%",
            fr[0] * 100.0,
            fr[1] * 100.0,
            fr[2] * 100.0,
            fr[3] * 100.0,
            fr[4] * 100.0,
            fr[5] * 100.0
        )?;
        writeln!(
            f,
            "  misses: {:.2}% (cold {:.2}% coh {:.2}% repl {:.2}%), avg read-miss {:.0} pclocks",
            self.miss_rate_pct(),
            self.cold_rate_pct(),
            self.coh_rate_pct(),
            self.repl_rate_pct(),
            self.avg_read_miss_latency()
        )?;
        write!(
            f,
            "  net: {} msgs, {} bytes (data {}, update {}, ctrl {}, sync {})",
            self.net_msgs,
            self.net_bytes,
            self.net_data_bytes,
            self.net_update_bytes,
            self.net_control_bytes,
            self.net_sync_bytes
        )?;
        let ext_activity = self.exclusive_grants
            + self.migratory_detections
            + self.migratory_reverts
            + self.interrogations
            + self.update_recalls;
        let dir_activity = self.dir_overflows + self.dir_broadcasts + self.dir_recalls;
        if ext_activity + dir_activity > 0 {
            write!(
                f,
                "\n  ext: excl-grants {} mig-detect {} mig-revert {} interrogations {} \
                 update-recalls {}",
                self.exclusive_grants,
                self.migratory_detections,
                self.migratory_reverts,
                self.interrogations,
                self.update_recalls
            )?;
            if dir_activity > 0 {
                write!(
                    f,
                    " dir-overflows {} dir-bcasts {} dir-recalls {}",
                    self.dir_overflows, self.dir_broadcasts, self.dir_recalls
                )?;
            }
        }
        let robustness = self.fault_delayed
            + self.fault_retransmitted
            + self.fault_duplicated
            + self.fault_lost
            + self.nacks_sent
            + self.nack_retries
            + self.stale_drops;
        if robustness > 0 {
            write!(
                f,
                "\n  faults: delayed {} retx {} dup {} lost {}; nacks {} retries {} stale-drops {}",
                self.fault_delayed,
                self.fault_retransmitted,
                self.fault_duplicated,
                self.fault_lost,
                self.nacks_sent,
                self.nack_retries,
                self.stale_drops
            )?;
        }
        if self.node_crashes > 0 {
            write!(
                f,
                "\n  crashes: {} (recovered {}); drops crash {} stale-epoch {}; \
                 purged-sharers {} orphan-reclaims {} purge-sweeps {} aborted-grants {} \
                 degraded-blocks {}",
                self.node_crashes,
                self.node_recoveries,
                self.crash_drops,
                self.stale_epoch_drops,
                self.dir_purged_sharers,
                self.dir_orphan_reclaims,
                self.dir_purge_sweeps,
                self.crash_aborted_grants,
                self.data_loss_blocks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        Metrics {
            workload: "demo".into(),
            protocol: "BASIC".into(),
            consistency: "RC".into(),
            network: "uniform-54".into(),
            procs: 16,
            exec_cycles: 1000,
            shared_reads: 800,
            shared_writes: 200,
            slc_misses: 50,
            cold_misses: 30,
            coh_misses: 20,
            read_miss_cycles: 5000,
            read_miss_count: 50,
            net_bytes: 4000,
            ..Metrics::default()
        }
    }

    #[test]
    fn rates() {
        let m = sample();
        assert!((m.miss_rate_pct() - 5.0).abs() < 1e-9);
        assert!((m.cold_rate_pct() - 3.0).abs() < 1e-9);
        assert!((m.coh_rate_pct() - 2.0).abs() < 1e-9);
        assert_eq!(m.repl_rate_pct(), 0.0);
        assert!((m.avg_read_miss_latency() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn relative_measures() {
        let base = sample();
        let mut faster = sample();
        faster.exec_cycles = 500;
        faster.net_bytes = 6000;
        assert!((faster.relative_time(&base) - 0.5).abs() < 1e-9);
        assert!((faster.relative_traffic(&base) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = Metrics::default();
        assert_eq!(m.miss_rate_pct(), 0.0);
        assert_eq!(m.avg_read_miss_latency(), 0.0);
        assert_eq!(m.prefetch_efficiency(), 0.0);
        assert_eq!(m.relative_traffic(&Metrics::default()), 1.0);
    }

    #[test]
    fn phase_durations_are_deltas_of_completions() {
        let mut m = sample();
        m.barrier_completion_cycles = vec![100, 250, 600];
        assert_eq!(m.phase_durations(), vec![100, 150, 350]);
        assert!(Metrics::default().phase_durations().is_empty());
    }

    #[test]
    fn load_imbalance_edges() {
        // Unmeasured -> balanced by convention.
        assert_eq!(Metrics::default().load_imbalance(), 1.0);
        let mut m = sample();
        m.per_proc_stalls = vec![
            StallBreakdown {
                busy: 100,
                ..Default::default()
            },
            StallBreakdown::default(),
        ];
        assert!((m.load_imbalance() - 2.0).abs() < 1e-9);
        // All-idle processors: avoid division by zero.
        m.per_proc_stalls = vec![StallBreakdown::default(); 4];
        assert_eq!(m.load_imbalance(), 1.0);
    }

    #[test]
    fn clean_read_fraction_edges() {
        let mut m = sample();
        assert_eq!(m.clean_read_fraction(), 0.0);
        m.reads_clean = 3;
        m.reads_dirty = 1;
        assert!((m.clean_read_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let m = sample();
        let j = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&j).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn display_mentions_key_figures() {
        let s = sample().to_string();
        assert!(s.contains("exec: 1000"));
        assert!(s.contains("BASIC"));
    }
}
