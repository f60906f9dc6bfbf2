//! Scalable sharer-set representations for the home directory.
//!
//! The 1994 paper's directory is a full-map presence vector — one bit per
//! node, which caps the machine at the width of a word. This module
//! abstracts the sharer set behind [`SharerSet`], with four organizations
//! selected by [`DirOrg`]:
//!
//! * **`FullMap`** — the paper's presence vector, bit-identical to the
//!   original `u64` implementation (and still limited to 64 nodes);
//! * **`LimitedPtr`** (Dir_i_B / Dir_i_NB) — `i` node pointers. On pointer
//!   overflow, Dir_i_B degrades to broadcast invalidation while Dir_i_NB
//!   recalls (invalidates) one tracked copy to free a pointer;
//! * **`CoarseVector`** — one bit per *region* of `region` consecutive
//!   nodes; invalidations multicast to every node of every marked region.
//!   With `region == 1` this is an exact (128-node) full map;
//! * **`Directoryless`** — a DLS-style shared-LLC organization keeping only
//!   a "may be cached somewhere" flag; every invalidation or update
//!   broadcasts.
//!
//! All organizations maintain the *over-approximation invariant*: the set
//! may cover nodes that hold no copy (caches tolerate spurious `Inval` /
//! `Update` / `Interrogate` messages by acknowledging them), but it never
//! misses a node that does. Exclusive ownership (`DirState::Modified`)
//! stays exact in every organization — only the *shared* copy set is
//! approximated.
//!
//! # Determinism contract
//!
//! Fan-out iteration ([`SharerSet::for_each_target`]) visits nodes in
//! **ascending node-id order** in every organization. The simulator's
//! byte-identical artifact guarantees (parallel sweeps, journal resume,
//! cross-process determinism) depend on message emission order, so this
//! ordering is part of the public contract, not an implementation detail.

use std::fmt;

use dirext_trace::NodeId;

/// The hard machine-size ceiling across all organizations
/// (awaiting-acknowledgment masks are sized for this many nodes).
pub use dirext_trace::MAX_NODES;

/// Maximum pointers a limited-pointer directory entry can hold.
pub const MAX_PTRS: usize = 8;

/// Regions representable by the coarse-vector organization (two words).
pub const MAX_REGIONS: usize = 128;

/// A directory organization: how each entry represents its sharer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirOrg {
    /// Full-map presence vector (the paper's directory; ≤ 64 nodes).
    FullMap,
    /// Limited-pointer directory with `ptrs` pointers. `broadcast` selects
    /// Dir_i_B (overflow ⇒ broadcast) over Dir_i_NB (overflow ⇒ recall one
    /// tracked copy).
    LimitedPtr {
        /// Number of sharer pointers per entry (1..=8).
        ptrs: u8,
        /// Dir_i_B (true) or Dir_i_NB (false).
        broadcast: bool,
    },
    /// Coarse bit vector over regions of `region` consecutive nodes.
    CoarseVector {
        /// Nodes per region bit (1, 2, 4, ... ; `region == 1` is exact).
        region: u16,
    },
    /// Directoryless / shared-LLC (DLS-style): a single may-be-cached flag;
    /// all coherence fan-out broadcasts.
    Directoryless,
}

impl DirOrg {
    /// The organizations exercised by the directory-scaling sweep.
    pub const ALL: [DirOrg; 5] = [
        DirOrg::FullMap,
        DirOrg::LimitedPtr {
            ptrs: 4,
            broadcast: true,
        },
        DirOrg::LimitedPtr {
            ptrs: 4,
            broadcast: false,
        },
        DirOrg::CoarseVector { region: 8 },
        DirOrg::Directoryless,
    ];

    /// The largest machine this organization can represent.
    pub fn max_nodes(self) -> usize {
        match self {
            DirOrg::FullMap => 64,
            DirOrg::LimitedPtr { .. } => MAX_NODES,
            DirOrg::CoarseVector { region } => (region as usize).saturating_mul(MAX_REGIONS),
            DirOrg::Directoryless => MAX_NODES,
        }
    }

    /// Validates this organization for an `nprocs`-node machine, returning
    /// an actionable message on failure.
    pub fn validate(self, nprocs: usize) -> Result<(), DirOrgError> {
        if nprocs == 0 {
            return Err(DirOrgError {
                org: self,
                nprocs,
                detail: "a machine needs at least one node".to_owned(),
            });
        }
        if let DirOrg::LimitedPtr { ptrs, .. } = self {
            if ptrs == 0 || ptrs as usize > MAX_PTRS {
                return Err(DirOrgError {
                    org: self,
                    nprocs,
                    detail: format!("pointer count {ptrs} outside 1..={MAX_PTRS}"),
                });
            }
        }
        if let DirOrg::CoarseVector { region } = self {
            if region == 0 || !region.is_power_of_two() {
                return Err(DirOrgError {
                    org: self,
                    nprocs,
                    detail: format!("region size {region} must be a power of two"),
                });
            }
        }
        let max = self.max_nodes().min(MAX_NODES);
        if nprocs > max {
            return Err(DirOrgError {
                org: self,
                nprocs,
                detail: format!("supports at most {max} nodes"),
            });
        }
        Ok(())
    }

    /// An empty sharer set of this organization.
    pub fn empty_set(self) -> SharerSet {
        match self {
            DirOrg::FullMap => SharerSet::Full { bits: 0 },
            DirOrg::LimitedPtr { ptrs, broadcast } => SharerSet::Limited {
                ptrs: [0; MAX_PTRS],
                len: 0,
                cap: ptrs,
                broadcast,
                overflow: false,
            },
            DirOrg::CoarseVector { region } => SharerSet::Coarse {
                words: [0; 2],
                region,
            },
            DirOrg::Directoryless => SharerSet::Directoryless { present: false },
        }
    }

    /// Parses a CLI organization name: `full`, `ptr<i>b`, `ptr<i>nb`,
    /// `coarse<k>` or `none`.
    pub fn parse(s: &str) -> Option<DirOrg> {
        match s {
            "full" => return Some(DirOrg::FullMap),
            "none" => return Some(DirOrg::Directoryless),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("ptr") {
            let (num, broadcast) = if let Some(n) = rest.strip_suffix("nb") {
                (n, false)
            } else if let Some(n) = rest.strip_suffix('b') {
                (n, true)
            } else {
                return None;
            };
            let ptrs: u8 = num.parse().ok()?;
            return Some(DirOrg::LimitedPtr { ptrs, broadcast });
        }
        if let Some(num) = s.strip_prefix("coarse") {
            let region: u16 = num.parse().ok()?;
            return Some(DirOrg::CoarseVector { region });
        }
        None
    }

    /// The CLI name of this organization (inverse of [`DirOrg::parse`]).
    pub fn cli_name(self) -> String {
        match self {
            DirOrg::FullMap => "full".to_owned(),
            DirOrg::LimitedPtr { ptrs, broadcast } => {
                format!("ptr{ptrs}{}", if broadcast { "b" } else { "nb" })
            }
            DirOrg::CoarseVector { region } => format!("coarse{region}"),
            DirOrg::Directoryless => "none".to_owned(),
        }
    }
}

impl fmt::Display for DirOrg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirOrg::FullMap => write!(f, "full-map"),
            DirOrg::LimitedPtr { ptrs, broadcast } => {
                write!(f, "Dir{}{}", ptrs, if *broadcast { "B" } else { "NB" })
            }
            DirOrg::CoarseVector { region } => write!(f, "coarse-vector/{region}"),
            DirOrg::Directoryless => write!(f, "directoryless"),
        }
    }
}

/// An unsupported directory-organization configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirOrgError {
    /// The configured organization.
    pub org: DirOrg,
    /// The requested machine size.
    pub nprocs: usize,
    /// What is wrong with the combination.
    pub detail: String,
}

impl fmt::Display for DirOrgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "directory organization `{}` ({}) cannot serve a {}-node machine: {}",
            self.org.cli_name(),
            self.org,
            self.nprocs,
            self.detail
        )
    }
}

impl std::error::Error for DirOrgError {}

/// Outcome of adding a node to a sharer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// The node is covered (newly added or already present).
    Tracked,
    /// Dir_i_B ran out of pointers *on this add*: the set degraded to
    /// broadcast coverage. (Later adds to an already-overflowed set report
    /// `Tracked`.)
    Overflowed,
    /// Dir_i_NB ran out of pointers: the returned victim's pointer was
    /// evicted to make room and its copy must be invalidated (recalled) by
    /// the caller.
    Evicted(NodeId),
}

/// How a coherence fan-out relates to the true sharer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FanoutClass {
    /// The targets are exactly the tracked sharers.
    Exact,
    /// Overflow/directoryless broadcast: every node may be a target.
    Broadcast,
    /// Coarse-vector region multicast: targets cover whole regions.
    Multicast,
}

/// A directory entry's sharer set under one of the [`DirOrg`]
/// organizations. See the module docs for semantics and the determinism
/// contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharerSet {
    /// Full-map presence bits (≤ 64 nodes).
    Full {
        /// One presence bit per node.
        bits: u64,
    },
    /// Limited-pointer set (Dir_i_B / Dir_i_NB).
    Limited {
        /// Sharer pointers, insertion-ordered; `ptrs[..len]` are live.
        ptrs: [u16; MAX_PTRS],
        /// Live pointer count.
        len: u8,
        /// Configured pointer capacity (1..=8).
        cap: u8,
        /// Dir_i_B (broadcast on overflow) vs Dir_i_NB (evict on overflow).
        broadcast: bool,
        /// Dir_i_B only: the set overflowed and now covers every node.
        overflow: bool,
    },
    /// Coarse region-bit vector (≤ 128 regions).
    Coarse {
        /// One bit per region of `region` consecutive nodes.
        words: [u64; 2],
        /// Nodes per region.
        region: u16,
    },
    /// Directoryless: a single may-be-cached flag.
    Directoryless {
        /// Whether any cache may hold a copy.
        present: bool,
    },
}

impl SharerSet {
    /// Whether `n` *may* hold a copy (over-approximate: never a false
    /// negative).
    pub fn may_contain(&self, n: NodeId) -> bool {
        match self {
            SharerSet::Full { bits } => bits & (1u64 << n.idx()) != 0,
            SharerSet::Limited {
                ptrs,
                len,
                overflow,
                ..
            } => *overflow || ptrs[..*len as usize].contains(&n.0),
            SharerSet::Coarse { words, region } => {
                let r = n.idx() / *region as usize;
                words[r / 64] & (1u64 << (r % 64)) != 0
            }
            SharerSet::Directoryless { present } => *present,
        }
    }

    /// Whether `n` *certainly* holds a copy (under-approximate: never a
    /// false positive). Only exact organizations can say yes.
    pub fn certainly_contains(&self, n: NodeId) -> bool {
        match self {
            SharerSet::Full { .. } => self.may_contain(n),
            SharerSet::Limited { overflow, .. } => !overflow && self.may_contain(n),
            SharerSet::Coarse { region, .. } => *region == 1 && self.may_contain(n),
            SharerSet::Directoryless { .. } => false,
        }
    }

    /// The exact sharer count, when the organization knows it. An empty set
    /// is exactly empty in every organization.
    pub fn exact_count(&self) -> Option<u32> {
        match self {
            SharerSet::Full { bits } => Some(bits.count_ones()),
            SharerSet::Limited { len, overflow, .. } => (!overflow).then_some(*len as u32),
            SharerSet::Coarse { words, region } => {
                let pop = words[0].count_ones() + words[1].count_ones();
                if pop == 0 || *region == 1 {
                    Some(pop)
                } else {
                    None
                }
            }
            SharerSet::Directoryless { present } => (!present).then_some(0),
        }
    }

    /// Whether the set is known to be empty.
    pub fn exactly_empty(&self) -> bool {
        self.exact_count() == Some(0)
    }

    /// Whether `n` is known to be the *only* sharer (drives exclusivity
    /// upgrades; approximate organizations conservatively answer no).
    pub fn sole_sharer(&self, n: NodeId) -> bool {
        self.exact_count() == Some(1) && self.certainly_contains(n)
    }

    /// How a fan-out over this set relates to the true sharers (recorded on
    /// transient states for trace conformance).
    pub fn fanout_class(&self) -> FanoutClass {
        match self {
            SharerSet::Full { .. } => FanoutClass::Exact,
            SharerSet::Limited { overflow, .. } => {
                if *overflow {
                    FanoutClass::Broadcast
                } else {
                    FanoutClass::Exact
                }
            }
            SharerSet::Coarse { region, .. } => {
                if *region == 1 {
                    FanoutClass::Exact
                } else {
                    FanoutClass::Multicast
                }
            }
            SharerSet::Directoryless { present } => {
                if *present {
                    FanoutClass::Broadcast
                } else {
                    FanoutClass::Exact // an empty set fans out to nobody
                }
            }
        }
    }

    /// Adds `n` to the set. See [`AddOutcome`] for the overflow behaviors.
    pub fn add(&mut self, n: NodeId) -> AddOutcome {
        match self {
            SharerSet::Full { bits } => {
                debug_assert!(n.idx() < 64, "full-map add past 64 nodes");
                *bits |= 1u64 << n.idx();
                AddOutcome::Tracked
            }
            SharerSet::Limited {
                ptrs,
                len,
                cap,
                broadcast,
                overflow,
            } => {
                if *overflow || ptrs[..*len as usize].contains(&n.0) {
                    return AddOutcome::Tracked;
                }
                if *len < *cap {
                    ptrs[*len as usize] = n.0;
                    *len += 1;
                    return AddOutcome::Tracked;
                }
                if *broadcast {
                    // Dir_i_B: stop tracking; the set now covers everyone.
                    *overflow = true;
                    *len = 0;
                    AddOutcome::Overflowed
                } else {
                    // Dir_i_NB: evict the oldest pointer (FIFO) to make
                    // room; the caller must recall (invalidate) the victim.
                    let victim = NodeId(ptrs[0]);
                    ptrs.copy_within(1..*len as usize, 0);
                    ptrs[*len as usize - 1] = n.0;
                    AddOutcome::Evicted(victim)
                }
            }
            SharerSet::Coarse { words, region } => {
                let r = n.idx() / *region as usize;
                debug_assert!(r < MAX_REGIONS, "coarse-vector add past 128 regions");
                words[r / 64] |= 1u64 << (r % 64);
                AddOutcome::Tracked
            }
            SharerSet::Directoryless { present } => {
                *present = true;
                AddOutcome::Tracked
            }
        }
    }

    /// Removes `n` where the organization can (exact sets). Approximate
    /// organizations keep the over-approximation — a region bit cannot be
    /// cleared for one member, and a broadcast flag cannot un-overflow —
    /// which preserves the no-false-negative invariant.
    pub fn remove(&mut self, n: NodeId) {
        match self {
            SharerSet::Full { bits } => *bits &= !(1u64 << n.idx()),
            SharerSet::Limited {
                ptrs,
                len,
                overflow,
                ..
            } => {
                if *overflow {
                    return;
                }
                if let Some(i) = ptrs[..*len as usize].iter().position(|&p| p == n.0) {
                    ptrs.copy_within(i + 1..*len as usize, i);
                    *len -= 1;
                }
            }
            SharerSet::Coarse { words, region } => {
                if *region == 1 {
                    let r = n.idx();
                    words[r / 64] &= !(1u64 << (r % 64));
                }
            }
            SharerSet::Directoryless { .. } => {}
        }
    }

    /// Empties the set (ownership transfers and invalidation completions
    /// re-exact every organization).
    pub fn clear(&mut self) {
        match self {
            SharerSet::Full { bits } => *bits = 0,
            SharerSet::Limited { len, overflow, .. } => {
                *len = 0;
                *overflow = false;
            }
            SharerSet::Coarse { words, .. } => *words = [0; 2],
            SharerSet::Directoryless { present } => *present = false,
        }
    }

    /// Calls `f` for every covered node except `except`, in ascending
    /// node-id order (the determinism contract — see the module docs).
    pub fn for_each_target(
        &self,
        nprocs: usize,
        except: Option<NodeId>,
        mut f: impl FnMut(NodeId),
    ) {
        let skip = |n: NodeId| except == Some(n);
        match self {
            SharerSet::Full { bits } => {
                let mut mask = *bits;
                if let Some(e) = except {
                    mask &= !(1u64 << e.idx());
                }
                while mask != 0 {
                    let i = mask.trailing_zeros();
                    mask &= mask - 1;
                    f(NodeId(i as u16));
                }
            }
            SharerSet::Limited {
                ptrs,
                len,
                overflow,
                ..
            } => {
                if *overflow {
                    for i in 0..nprocs as u16 {
                        if !skip(NodeId(i)) {
                            f(NodeId(i));
                        }
                    }
                    return;
                }
                // Insertion order is FIFO, not sorted: walk ascending by
                // repeated minimum scan (cap ≤ 8, so this is cheap and
                // allocation-free).
                let live = &ptrs[..*len as usize];
                let mut prev: i32 = -1;
                loop {
                    let mut next: i32 = i32::MAX;
                    for &p in live {
                        if (p as i32) > prev && (p as i32) < next {
                            next = p as i32;
                        }
                    }
                    if next == i32::MAX {
                        return;
                    }
                    prev = next;
                    let n = NodeId(next as u16);
                    if !skip(n) {
                        f(n);
                    }
                }
            }
            SharerSet::Coarse { words, region } => {
                let nregions = nprocs.div_ceil(*region as usize);
                for r in 0..nregions {
                    if words[r / 64] & (1u64 << (r % 64)) == 0 {
                        continue;
                    }
                    let base = r * *region as usize;
                    let end = (base + *region as usize).min(nprocs);
                    for i in base..end {
                        let n = NodeId(i as u16);
                        if !skip(n) {
                            f(n);
                        }
                    }
                }
            }
            SharerSet::Directoryless { present } => {
                if !present {
                    return;
                }
                for i in 0..nprocs as u16 {
                    if !skip(NodeId(i)) {
                        f(NodeId(i));
                    }
                }
            }
        }
    }

    /// The coverage of the first 64 nodes as a bitmask (diagnostics and the
    /// invariant snapshots of ≤ 64-node machines).
    pub fn low_mask(&self, nprocs: usize) -> u64 {
        if let SharerSet::Full { bits } = self {
            return *bits;
        }
        let mut mask = 0u64;
        self.for_each_target(nprocs.min(64), None, |n| mask |= 1u64 << n.idx());
        mask
    }
}

/// A per-pending-operation acknowledgment mask, inline for ≤ 64-node
/// machines and heap-spilled (recycled by the directory controller) above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckMask {
    /// One word of per-node bits (machines of ≤ 64 nodes).
    Inline(u64),
    /// `ceil(nprocs/64)` words for larger machines.
    Wide(Box<[u64]>),
}

impl AckMask {
    /// An empty mask for an `nprocs`-node machine, reusing `pool` storage
    /// when available (zero steady-state allocation on the wide path).
    pub fn empty(nprocs: usize, pool: &mut Vec<Box<[u64]>>) -> AckMask {
        if nprocs <= 64 {
            AckMask::Inline(0)
        } else {
            match pool.pop() {
                Some(mut words) => {
                    words.fill(0);
                    AckMask::Wide(words)
                }
                None => AckMask::Wide(vec![0u64; nprocs.div_ceil(64)].into_boxed_slice()),
            }
        }
    }

    /// Returns wide storage to the recycle pool.
    pub fn recycle(self, pool: &mut Vec<Box<[u64]>>) {
        if let AckMask::Wide(words) = self {
            pool.push(words);
        }
    }

    /// Sets node `n`'s bit.
    #[inline]
    pub fn set(&mut self, n: NodeId) {
        match self {
            AckMask::Inline(w) => *w |= 1u64 << n.idx(),
            AckMask::Wide(words) => words[n.idx() / 64] |= 1u64 << (n.idx() % 64),
        }
    }

    /// Clears node `n`'s bit.
    #[inline]
    pub fn clear(&mut self, n: NodeId) {
        match self {
            AckMask::Inline(w) => *w &= !(1u64 << n.idx()),
            AckMask::Wide(words) => words[n.idx() / 64] &= !(1u64 << (n.idx() % 64)),
        }
    }

    /// Whether node `n`'s bit is set.
    #[inline]
    pub fn test(&self, n: NodeId) -> bool {
        match self {
            AckMask::Inline(w) => w & (1u64 << n.idx()) != 0,
            AckMask::Wide(words) => words[n.idx() / 64] & (1u64 << (n.idx() % 64)) != 0,
        }
    }

    /// Whether no bits are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match self {
            AckMask::Inline(w) => *w == 0,
            AckMask::Wide(words) => words.iter().all(|&w| w == 0),
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        match self {
            AckMask::Inline(w) => w.count_ones(),
            AckMask::Wide(words) => words.iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// The low 64 bits (diagnostic rendering).
    pub fn low_bits(&self) -> u64 {
        match self {
            AckMask::Inline(w) => *w,
            AckMask::Wide(words) => words.first().copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn targets(s: &SharerSet, nprocs: usize, except: Option<NodeId>) -> Vec<u16> {
        let mut v = Vec::new();
        s.for_each_target(nprocs, except, |x| v.push(x.0));
        v
    }

    #[test]
    fn parse_round_trips() {
        for name in [
            "full", "ptr4b", "ptr4nb", "ptr1b", "coarse8", "coarse1", "none",
        ] {
            let org = DirOrg::parse(name).expect(name);
            assert_eq!(org.cli_name(), name);
        }
        assert_eq!(DirOrg::parse("ptr0x"), None);
        assert_eq!(DirOrg::parse("coarsely"), None);
        assert_eq!(DirOrg::parse(""), None);
    }

    #[test]
    fn validation_names_the_limit() {
        let err = DirOrg::FullMap.validate(65).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");
        assert!(err.to_string().contains("64"), "{err}");
        assert!(DirOrg::FullMap.validate(64).is_ok());
        assert!(DirOrg::Directoryless.validate(1024).is_ok());
        assert!(DirOrg::Directoryless.validate(1025).is_err());
        // coarse8 covers 8 * 128 = 1024 nodes; coarse1 only 128.
        assert!(DirOrg::CoarseVector { region: 8 }.validate(1024).is_ok());
        assert!(DirOrg::CoarseVector { region: 1 }.validate(129).is_err());
        assert!(DirOrg::CoarseVector { region: 3 }.validate(16).is_err());
        assert!(DirOrg::LimitedPtr {
            ptrs: 9,
            broadcast: true
        }
        .validate(16)
        .is_err());
    }

    #[test]
    fn full_map_matches_bit_semantics() {
        let mut s = DirOrg::FullMap.empty_set();
        assert!(s.exactly_empty());
        s.add(n(3));
        s.add(n(7));
        s.add(n(3));
        assert_eq!(s.exact_count(), Some(2));
        assert!(s.may_contain(n(3)) && s.certainly_contains(n(7)));
        assert_eq!(targets(&s, 16, Some(n(3))), vec![7]);
        assert_eq!(s.low_mask(16), (1 << 3) | (1 << 7));
        s.remove(n(3));
        assert!(s.sole_sharer(n(7)));
        s.clear();
        assert!(s.exactly_empty());
    }

    #[test]
    fn limited_b_overflows_to_broadcast() {
        let mut s = DirOrg::LimitedPtr {
            ptrs: 2,
            broadcast: true,
        }
        .empty_set();
        assert_eq!(s.add(n(5)), AddOutcome::Tracked);
        assert_eq!(s.add(n(1)), AddOutcome::Tracked);
        assert_eq!(s.exact_count(), Some(2));
        assert_eq!(s.fanout_class(), FanoutClass::Exact);
        // Ascending order despite FIFO insertion.
        assert_eq!(targets(&s, 8, None), vec![1, 5]);
        assert_eq!(s.add(n(3)), AddOutcome::Overflowed);
        assert_eq!(s.fanout_class(), FanoutClass::Broadcast);
        assert_eq!(s.exact_count(), None);
        assert!(s.may_contain(n(7)) && !s.certainly_contains(n(7)));
        assert_eq!(targets(&s, 4, Some(n(2))), vec![0, 1, 3]);
        assert_eq!(s.add(n(6)), AddOutcome::Tracked);
        s.clear();
        assert_eq!(s.fanout_class(), FanoutClass::Exact);
        assert!(s.exactly_empty());
    }

    #[test]
    fn limited_nb_evicts_fifo() {
        let mut s = DirOrg::LimitedPtr {
            ptrs: 2,
            broadcast: false,
        }
        .empty_set();
        s.add(n(5));
        s.add(n(1));
        assert_eq!(s.add(n(9)), AddOutcome::Evicted(n(5)));
        assert!(!s.may_contain(n(5)));
        assert_eq!(targets(&s, 16, None), vec![1, 9]);
        // Still exact: eviction keeps the pointer set precise.
        assert_eq!(s.exact_count(), Some(2));
        s.remove(n(9));
        assert!(s.sole_sharer(n(1)));
    }

    #[test]
    fn coarse_regions_multicast() {
        let mut s = DirOrg::CoarseVector { region: 4 }.empty_set();
        s.add(n(5)); // region 1 = nodes 4..8
        assert_eq!(s.fanout_class(), FanoutClass::Multicast);
        assert!(s.may_contain(n(6)) && !s.certainly_contains(n(6)));
        assert_eq!(s.exact_count(), None);
        assert_eq!(targets(&s, 16, Some(n(5))), vec![4, 6, 7]);
        // remove() cannot clear a region for one member.
        s.remove(n(5));
        assert!(s.may_contain(n(5)));
        s.clear();
        assert!(s.exactly_empty());
        // A truncated final region fans out only to real nodes.
        s.add(n(9));
        assert_eq!(targets(&s, 10, None), vec![8, 9]);
    }

    #[test]
    fn coarse_region_one_is_exact() {
        let mut s = DirOrg::CoarseVector { region: 1 }.empty_set();
        s.add(n(100));
        s.add(n(3));
        assert_eq!(s.fanout_class(), FanoutClass::Exact);
        assert_eq!(s.exact_count(), Some(2));
        assert!(s.certainly_contains(n(100)));
        s.remove(n(3));
        assert!(s.sole_sharer(n(100)));
        assert_eq!(targets(&s, 128, None), vec![100]);
    }

    #[test]
    fn directoryless_broadcasts_once_present() {
        let mut s = DirOrg::Directoryless.empty_set();
        assert!(s.exactly_empty());
        assert_eq!(targets(&s, 4, None), Vec::<u16>::new());
        s.add(n(2));
        assert_eq!(s.fanout_class(), FanoutClass::Broadcast);
        assert!(s.may_contain(n(0)) && !s.certainly_contains(n(2)));
        assert_eq!(s.exact_count(), None);
        s.remove(n(2)); // cannot untrack
        assert_eq!(targets(&s, 4, Some(n(1))), vec![0, 2, 3]);
        s.clear();
        assert!(s.exactly_empty());
    }

    #[test]
    fn ack_mask_inline_and_wide() {
        let mut pool = Vec::new();
        let mut m = AckMask::empty(16, &mut pool);
        assert!(matches!(m, AckMask::Inline(_)));
        m.set(n(3));
        assert!(m.test(n(3)) && !m.test(n(4)));
        m.clear(n(3));
        assert!(m.is_empty());

        let mut w = AckMask::empty(256, &mut pool);
        assert!(matches!(w, AckMask::Wide(_)));
        w.set(n(200));
        w.set(n(5));
        assert_eq!(w.count(), 2);
        assert!(w.test(n(200)));
        w.clear(n(200));
        assert!(!w.is_empty());
        w.clear(n(5));
        assert!(w.is_empty());
        w.recycle(&mut pool);
        assert_eq!(pool.len(), 1);
        // Recycled storage comes back zeroed.
        let w2 = AckMask::empty(256, &mut pool);
        assert!(w2.is_empty() && pool.is_empty());
    }

    #[test]
    fn fanout_order_is_ascending_everywhere() {
        for org in DirOrg::ALL {
            let nprocs = 64.min(org.max_nodes());
            let mut s = org.empty_set();
            for i in [9u16, 2, 30, 17] {
                s.add(n(i));
            }
            let t = targets(&s, nprocs, None);
            let mut sorted = t.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(t, sorted, "{org}: fanout must ascend");
        }
    }
}
