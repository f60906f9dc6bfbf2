//! Coherence invariants checked at quiescence.
//!
//! After a run completes (event queue drained, all processors done), the
//! machine must satisfy:
//!
//! 1. **Drained buffers** — no SLWB/FLWB entries, backlogs, unflushed write
//!    caches, pending directory operations, held locks, or partial barriers.
//! 2. **Single writer** — a directory entry in MODIFIED covers its owner,
//!    the owner holds the only valid (exclusive) copy, and under an exact
//!    sharer-set organization the set is exactly `{owner}`.
//! 3. **Value (version) coherence** — the exclusive copy carries the
//!    block's global write count; with no exclusive copy, memory and every
//!    shared copy carry it.
//! 4. **Presence soundness** — the sharer set covers every cache holding a
//!    valid copy (the over-approximation invariant of the scalable
//!    organizations); under an *exact* organization (full map,
//!    non-overflowed limited pointers, single-node coarse regions) it
//!    equals that set (replacement hints and update acks keep it exact).
//! 5. **Inclusion** — every block valid in a first-level cache is valid in
//!    that node's second-level cache.

use dirext_core::line::CacheState;
use dirext_core::proto::{check_trace, Violation};
use dirext_trace::NodeId;

use crate::machine::Machine;

/// Replays every recorded state transition through the declarative
/// protocol tables, returning the transitions not derivable from BASIC
/// plus the enabled extension layers. Trivially empty when tracing is off
/// (nothing was recorded).
pub(crate) fn check_conformance(m: &Machine) -> Vec<Violation> {
    let records = m.transition_trace();
    check_trace(records.iter(), m.rule_set())
}

/// Structural invariants that hold at *every* event boundary, not only at
/// quiescence — the sampled mid-run audit. Messages in flight mean cache
/// copies and directory state legitimately disagree mid-run, so the audit
/// restricts itself to properties no in-flight message can excuse:
///
/// * a directory entry in MODIFIED (with no pending operation) covers its
///   owner — exactly `{owner}` under an exact organization;
/// * a node has at most one outstanding read and one outstanding ownership
///   request per block (the SLWB merges, never duplicates);
/// * a node's `pending_writes` release gate equals its outstanding
///   ownership/update/upgrade requests (a leak here wedges every later
///   release).
pub(crate) fn check_midrun(m: &Machine) -> Result<(), String> {
    for hi in 0..m.cfg.procs {
        let h = &m.homes[hi];
        for block in h.dir.blocks() {
            if h.dir.pending_op(block) {
                continue;
            }
            let Some((owner, _, _)) = h.dir.snapshot(block) else {
                return Err(format!("{block}: listed without a snapshot"));
            };
            if let Some(o) = owner {
                if !h.dir.covers(block, o) {
                    return Err(format!("{block}: MODIFIED at {o} but {o} not covered"));
                }
                if h.dir.entry_exact(block) && !h.dir.sole_sharer(block, o) {
                    return Err(format!(
                        "{block}: MODIFIED at {o} but the exact sharer set is not {{{o}}}"
                    ));
                }
            }
        }
    }
    let nodes = &m.nodes;
    for i in 0..m.cfg.procs {
        let id = NodeId(i as u16);
        let mut reads = std::collections::HashMap::new();
        let mut owns = std::collections::HashMap::new();
        let mut gated: u64 = 0;
        for e in &nodes.slwb[i] {
            match e.op {
                crate::node::SlwbOp::Read {
                    upgrade_version, ..
                } => {
                    *reads.entry(e.block).or_insert(0u32) += 1;
                    if upgrade_version.is_some() {
                        gated += 1;
                    }
                }
                crate::node::SlwbOp::Own { .. } => {
                    *owns.entry(e.block).or_insert(0u32) += 1;
                    gated += 1;
                }
                crate::node::SlwbOp::Update { .. } => gated += 1,
                crate::node::SlwbOp::Writeback => {}
            }
        }
        if let Some((b, c)) = reads.iter().find(|(_, c)| **c > 1) {
            return Err(format!("{id}: {c} outstanding reads for {b}"));
        }
        if let Some((b, c)) = owns.iter().find(|(_, c)| **c > 1) {
            return Err(format!("{id}: {c} outstanding ownership requests for {b}"));
        }
        if nodes.pending_writes[i] != gated {
            return Err(format!(
                "{id}: pending_writes {} but {gated} gating SLWB entries",
                nodes.pending_writes[i]
            ));
        }
    }
    Ok(())
}

/// Checks all invariants, returning a diagnostic for the first violation.
pub(crate) fn check(m: &Machine) -> Result<(), String> {
    // 1. Drained state.
    let nodes = &m.nodes;
    for i in 0..m.cfg.procs {
        let id = NodeId(i as u16);
        if !nodes.slwb[i].is_empty() {
            return Err(format!("{id}: SLWB not drained: {:?}", nodes.slwb[i]));
        }
        if !nodes.flwb[i].is_empty() {
            return Err(format!("{id}: FLWB not drained"));
        }
        if !nodes.update_backlog[i].is_empty() || !nodes.wb_backlog[i].is_empty() {
            return Err(format!("{id}: backlog not drained"));
        }
        if nodes.wc[i].as_ref().is_some_and(|wc| !wc.is_empty()) {
            return Err(format!("{id}: write cache not flushed"));
        }
        if nodes.pending_writes[i] != 0 {
            return Err(format!(
                "{id}: {} pending writes at quiescence",
                nodes.pending_writes[i]
            ));
        }
        if !nodes.sync_waiting[i].is_empty() {
            return Err(format!("{id}: deferred synchronization still waiting"));
        }
        if !nodes.held_locks[i].is_empty() {
            return Err(format!(
                "{id}: locks still held at quiescence: {:?}",
                nodes.held_locks[i]
            ));
        }
        // Inclusion: every FLC-resident block has a valid SLC line.
        for block in nodes.flc.resident(i) {
            if !nodes.slc[i].contains(block) {
                return Err(format!("{id}: FLC holds {block} without an SLC line"));
            }
        }
    }
    for hi in 0..m.cfg.procs {
        let h = &m.homes[hi];
        if h.dir.has_pending() {
            return Err(format!("home {hi}: directory has pending operations"));
        }
        if h.locks.any_held() {
            return Err(format!("home {hi}: locks still held"));
        }
        if h.barriers.any_waiting() {
            return Err(format!("home {hi}: barrier with partial arrivals"));
        }
    }

    // 2-4. Per-block coherence.
    for hi in 0..m.cfg.procs {
        let h = &m.homes[hi];
        for block in h.dir.blocks() {
            let Some((owner, _, _migratory)) = h.dir.snapshot(block) else {
                return Err(format!(
                    "{block}: listed by the directory but has no snapshot \
                     (entry table and block list disagree)"
                ));
            };
            let truth = m.wcount.get(block).copied().unwrap_or(0);
            // A crashed node can take the only up-to-date copy of a block
            // with it: memory legitimately rewinds to the last writeback.
            // Structure invariants (single writer, presence, inclusion)
            // still hold for these blocks; only the value check is waived.
            let degraded = m.data_lost.get(block).is_some();
            let exact = h.dir.entry_exact(block);
            match owner {
                Some(o) => {
                    if !h.dir.covers(block, o) {
                        return Err(format!("{block}: MODIFIED at {o} but {o} not covered"));
                    }
                    if exact && !h.dir.sole_sharer(block, o) {
                        return Err(format!(
                            "{block}: MODIFIED at {o} but the exact sharer set is not {{{o}}}"
                        ));
                    }
                    let Some(line) = m.nodes.slc[o.idx()].get(block) else {
                        return Err(format!("{block}: owner {o} holds no copy"));
                    };
                    if !line.state.exclusive() {
                        return Err(format!("{block}: owner {o} copy is {:?}", line.state));
                    }
                    if line.version != truth && !degraded {
                        return Err(format!(
                            "{block}: owner {o} version {} != write count {truth}",
                            line.version
                        ));
                    }
                    for i in 0..m.cfg.procs {
                        if i != o.idx() && m.nodes.slc[i].contains(block) {
                            return Err(format!(
                                "{block}: {} holds a copy alongside owner {o}",
                                NodeId(i as u16)
                            ));
                        }
                    }
                }
                None => {
                    let mem = h.version_of(block);
                    if mem != truth && !degraded {
                        return Err(format!(
                            "{block}: memory version {mem} != write count {truth}"
                        ));
                    }
                    for i in 0..m.cfg.procs {
                        let id = NodeId(i as u16);
                        let covered = h.dir.covers(block, id);
                        match m.nodes.slc[i].get(block) {
                            Some(line) => {
                                if line.state != CacheState::Shared {
                                    return Err(format!(
                                        "{block}: {id} holds {:?} while directory is CLEAN",
                                        line.state
                                    ));
                                }
                                if !covered {
                                    return Err(format!(
                                        "{block}: {id} holds a copy the sharer set misses"
                                    ));
                                }
                                if line.version != truth && !degraded {
                                    return Err(format!(
                                        "{block}: {id} version {} != write count {truth}",
                                        line.version
                                    ));
                                }
                            }
                            None => {
                                // Over-approximation is sound; only an
                                // *exact* set may not cover a non-holder.
                                if exact && covered {
                                    return Err(format!(
                                        "{block}: exact sharer set covers {id} without a copy"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}
