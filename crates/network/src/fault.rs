//! Deterministic fault injection on top of any [`Network`] model.
//!
//! [`FaultyNetwork`] wraps an inner topology (uniform, mesh, ring) and
//! perturbs each remote message with seeded, reproducible faults:
//!
//! * **delay jitter** — a uniform extra latency of `0..=jitter_cycles`;
//! * **drops** — modelled as a *link-layer retransmission chain*: every
//!   dropped attempt charges an exponentially growing backoff before the
//!   retransmission, up to [`FaultPlan::retry_budget`] attempts. A message
//!   whose budget is exhausted is **permanently lost** (delivered never),
//!   which is how wedged-run scenarios for the watchdog are constructed;
//! * **duplication** — a second delivery of the same message a short,
//!   random lag after the first. The duplicate occupies the wire and is
//!   counted, but whether it reaches the protocol is the receiver's call:
//!   the machine delivers duplicates only for synchronization traffic
//!   (which is sequence-tagged and replay-tolerant) and absorbs them for
//!   coherence transactions, which — as in DASH-style machines — assume
//!   exactly-once transport on their virtual channels.
//!
//! Soundness keystone: deliveries are forced to be **FIFO per (src, dst)
//! pair**. Each pair carries a monotone "pair clock"; every delivery
//! (including duplicates) is moved up to at least the pair's previous
//! delivery time, and ties preserve send order through the event queue's
//! FIFO tie-break. Cross-pair reordering — the interesting kind for
//! protocol races — still happens freely, but a stale message can never
//! overtake a newer one on the same channel, which is the property the
//! duplicate-tolerance rules in the protocol layer rely on.
//!
//! All randomness comes from one [`Pcg32`] seeded by the plan, consumed in
//! simulation event order, so the same seed reproduces the same fault
//! schedule (and therefore the same metrics) byte for byte.

use crate::{Deliveries, Envelope, Network, TrafficStats};
use dirext_kernel::{Pcg32, Time};
use dirext_trace::NodeId;

/// Spread (in cycles) of the random lag between a message and its duplicate.
const DUP_LAG_SPREAD: u32 = 128;

/// Cap on the exponential-backoff shift so delays stay bounded.
const MAX_BACKOFF_SHIFT: u32 = 10;

/// Base link-layer backoff in cycles: retransmission attempt *n* waits
/// `RETRY_BASE << min(n, 10)`.
pub const RETRY_BASE: u64 = 64;

/// A seeded description of the faults to inject into a network.
///
/// Probabilities are expressed in permille (0..=1000) so plans stay exactly
/// representable and reproducible in integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the fault RNG; the same seed reproduces the same schedule.
    pub seed: u64,
    /// Per-message drop probability in permille (each *attempt* re-rolls).
    pub drop_permille: u32,
    /// Per-message duplication probability in permille.
    pub dup_permille: u32,
    /// Maximum extra delivery delay in cycles (uniform `0..=jitter_cycles`).
    pub jitter_cycles: u64,
    /// Link-layer retransmissions allowed before a message is permanently
    /// lost. With the default budget a loss needs `drop_permille/1000` to
    /// come up 17 times in a row — effectively never for realistic rates.
    pub retry_budget: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop_permille: 0,
            dup_permille: 0,
            jitter_cycles: 0,
            retry_budget: 16,
        }
    }
}

impl FaultPlan {
    /// A plan with the given seed and no faults (useful as a base for
    /// builder-style field updates).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether this plan can perturb any message at all.
    pub fn is_active(&self) -> bool {
        self.drop_permille > 0 || self.dup_permille > 0 || self.jitter_cycles > 0
    }
}

/// Counters describing the faults actually injected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Remote messages that passed through the fault layer.
    pub messages: u64,
    /// Messages that received nonzero delay jitter.
    pub delayed: u64,
    /// Link-layer retransmissions (one per dropped attempt).
    pub retransmitted: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages permanently lost after exhausting the retry budget.
    pub lost: u64,
}

/// A [`Network`] decorator that injects the faults described by a
/// [`FaultPlan`] while delegating base latency and traffic accounting to
/// the wrapped topology.
#[derive(Debug)]
pub struct FaultyNetwork {
    inner: Box<dyn Network>,
    plan: FaultPlan,
    rng: Pcg32,
    /// Monotone last-delivery time per (src, dst) pair, as a dense
    /// `src * nodes + dst` table; enforces pair-FIFO. Fault
    /// injection perturbs *every* remote message, so this lookup is as hot
    /// as the network model itself under fault runs.
    pair_clock: Vec<Time>,
    /// Row stride of `pair_clock`: the node count this network serves.
    nodes: usize,
    stats: FaultStats,
    name: String,
}

impl FaultyNetwork {
    /// Wraps `inner` with the faults described by `plan`, sizing the
    /// per-pair FIFO clock table for a machine of `nodes` nodes.
    pub fn with_nodes(inner: Box<dyn Network>, plan: FaultPlan, nodes: usize) -> Self {
        let name = format!("{}+faults", inner.name());
        FaultyNetwork {
            inner,
            rng: Pcg32::with_stream(plan.seed, 0xFA17),
            plan,
            pair_clock: vec![Time::ZERO; nodes * nodes],
            nodes,
            stats: FaultStats::default(),
            name,
        }
    }

    fn pair_key(&self, src: NodeId, dst: NodeId) -> usize {
        debug_assert!(src.idx() < self.nodes && dst.idx() < self.nodes);
        src.idx() * self.nodes + dst.idx()
    }
}

impl Network for FaultyNetwork {
    /// Single-delivery view: faults are applied, but loss cannot be
    /// expressed through this signature, so a message that exhausts its
    /// retry budget degrades to a worst-case-delayed delivery instead.
    /// The simulator always uses [`Network::send_all`], which reports loss
    /// faithfully.
    fn send(&mut self, now: Time, env: Envelope) -> Time {
        match self.send_all(now, env).primary {
            Some(t) => t,
            None => now + Time::from_cycles(RETRY_BASE << MAX_BACKOFF_SHIFT),
        }
    }

    fn send_all(&mut self, now: Time, env: Envelope) -> Deliveries {
        if env.is_local() {
            // Node-internal traffic never crosses a link; no faults apply.
            return Deliveries {
                primary: Some(self.inner.send(now, env)),
                duplicate: None,
            };
        }
        self.stats.messages += 1;
        let mut arrival = self.inner.send(now, env);
        if self.plan.jitter_cycles > 0 {
            let extra = u64::from(self.rng.below(self.plan.jitter_cycles as u32 + 1));
            if extra > 0 {
                self.stats.delayed += 1;
            }
            arrival += Time::from_cycles(extra);
        }
        if self.plan.drop_permille > 0 {
            let mut attempts = 0u32;
            while self.rng.chance(self.plan.drop_permille, 1000) {
                if attempts >= self.plan.retry_budget {
                    self.stats.lost += 1;
                    return Deliveries {
                        primary: None,
                        duplicate: None,
                    };
                }
                arrival += Time::from_cycles(RETRY_BASE << attempts.min(MAX_BACKOFF_SHIFT));
                attempts += 1;
                self.stats.retransmitted += 1;
            }
        }
        let key = self.pair_key(env.src, env.dst);
        let arrival = arrival.max(self.pair_clock[key]);
        let mut last = arrival;
        let mut duplicate = None;
        if self.plan.dup_permille > 0 && self.rng.chance(self.plan.dup_permille, 1000) {
            self.stats.duplicated += 1;
            let lag = 1 + u64::from(self.rng.below(DUP_LAG_SPREAD));
            let dup_at = last + Time::from_cycles(lag);
            duplicate = Some(dup_at);
            last = dup_at;
        }
        self.pair_clock[key] = last;
        Deliveries {
            primary: Some(arrival),
            duplicate,
        }
    }

    fn traffic(&self) -> &TrafficStats {
        self.inner.traffic()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        Some(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrafficClass, UniformNetwork};

    fn env(src: u16, dst: u16) -> Envelope {
        Envelope::new(NodeId(src), NodeId(dst), 8, TrafficClass::Control)
    }

    fn faulty(plan: FaultPlan) -> FaultyNetwork {
        FaultyNetwork::with_nodes(Box::new(UniformNetwork::paper_default()), plan, 4)
    }

    #[test]
    fn no_faults_matches_inner_latency() {
        let mut plain = UniformNetwork::paper_default();
        let mut net = faulty(FaultPlan::default());
        for i in 0..10 {
            let t = Time::from_cycles(i * 100);
            let d = net.send_all(t, env(0, 1));
            assert_eq!(d.primary, Some(plain.send(t, env(0, 1))));
            assert_eq!(d.duplicate, None);
        }
        assert_eq!(net.fault_stats().unwrap().messages, 10);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan {
            drop_permille: 100,
            dup_permille: 100,
            jitter_cycles: 40,
            ..FaultPlan::seeded(42)
        };
        let run = |mut net: FaultyNetwork| {
            (0..200)
                .map(|i| net.send_all(Time::from_cycles(i * 7), env(i as u16 % 4, 3)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(faulty(plan)), run(faulty(plan)));
    }

    #[test]
    fn pair_deliveries_are_fifo() {
        let plan = FaultPlan {
            drop_permille: 150,
            dup_permille: 200,
            jitter_cycles: 200,
            ..FaultPlan::seeded(7)
        };
        let mut net = faulty(plan);
        let mut last = Time::ZERO;
        for i in 0..500 {
            let d = net.send_all(Time::from_cycles(i * 3), env(0, 1));
            if let Some(t) = d.primary {
                assert!(t >= last, "primary overtook pair clock");
                last = t;
            }
            if let Some(t) = d.duplicate {
                assert!(t >= last, "duplicate overtook pair clock");
                last = t;
            }
        }
        let s = net.fault_stats().unwrap();
        assert!(s.duplicated > 0 && s.retransmitted > 0);
    }

    #[test]
    fn zero_budget_loses_every_dropped_message() {
        let plan = FaultPlan {
            drop_permille: 1000,
            retry_budget: 0,
            ..FaultPlan::seeded(3)
        };
        let mut net = faulty(plan);
        for i in 0..20 {
            let d = net.send_all(Time::from_cycles(i), env(0, 2));
            assert_eq!(d.primary, None);
        }
        assert_eq!(net.fault_stats().unwrap().lost, 20);
    }

    #[test]
    fn local_messages_bypass_faults() {
        let plan = FaultPlan {
            drop_permille: 1000,
            retry_budget: 0,
            ..FaultPlan::seeded(5)
        };
        let mut net = faulty(plan);
        let d = net.send_all(Time::from_cycles(9), env(2, 2));
        assert_eq!(d.primary, Some(Time::from_cycles(9)));
        assert_eq!(net.fault_stats().unwrap().messages, 0);
    }

    #[test]
    fn plain_send_cannot_lose() {
        let plan = FaultPlan {
            drop_permille: 1000,
            retry_budget: 0,
            ..FaultPlan::seeded(11)
        };
        let mut net = faulty(plan);
        let t = net.send(Time::from_cycles(4), env(0, 1));
        assert!(t > Time::from_cycles(4));
    }
}
