//! Cache-side machine behaviour: the processor, the FLC/FLWB, the
//! lockup-free SLC with its SLWB, the write cache and the prefetch unit.

use dirext_core::config::Consistency;
use dirext_core::line::{CacheState, Line};
use dirext_core::msg::{Msg, MsgKind};
use dirext_core::proto::hooks::WriteMode;
use dirext_core::proto::trace::{CacheTag, StateTag, TraceInput, TransitionRecord};
use dirext_kernel::Time;
use dirext_memsys::{WriteCache, FLC_FILL, FLC_HIT, SLC_ACCESS};
use dirext_stats::{InvalReason, StallKind};
use dirext_trace::{Addr, BlockAddr, MemEvent, NodeId};

use crate::machine::SimError;
use crate::machine::{Ev, Machine};
use crate::node::{FlwbEntry, ProcState, SlwbEntry, SlwbOp, SyncOut, SyncWait};
use dirext_core::ProtocolError;

/// How many times a NACKed request is retried before the run aborts with
/// [`ProtocolError::RetryBudgetExhausted`].
const NACK_RETRY_BUDGET: u32 = 16;

/// Backoff in pclocks before the first retry of a NACKed request; it
/// doubles with each further attempt (capped at 2^10 times this).
const NACK_RETRY_BASE: u64 = 64;

impl Machine {
    fn sc(&self) -> bool {
        self.cfg.protocol.consistency == Consistency::Sc
    }

    /// Schedules the node's next processor step, stamped with its current
    /// incarnation epoch (so the chain dies with the incarnation).
    fn push_step(&mut self, nid: NodeId, at: Time) {
        self.queue
            .push(at, Ev::ProcStep(nid, self.epoch[nid.idx()]));
    }

    /// Schedules an epoch-stamped FLWB drain step.
    fn push_flwb(&mut self, nid: NodeId, at: Time) {
        self.queue
            .push(at, Ev::FlwbHead(nid, self.epoch[nid.idx()]));
    }

    /// Resumes a stalled processor at time `at`, charging the stall.
    pub(crate) fn resume(&mut self, nid: NodeId, at: Time) {
        let i = nid.idx();
        match self.nodes.pstate[i] {
            ProcState::Stalled { kind, since } => {
                self.nodes.stalls[i].add_stall(kind, (at.saturating_sub(since)).cycles());
                self.nodes.pstate[i] = ProcState::Ready;
                self.push_step(nid, at);
            }
            other => debug_assert!(false, "resume of non-stalled proc: {other:?}"),
        }
    }

    /// Schedules a FLWB drain step if none is in flight.
    pub(crate) fn kick_flwb(&mut self, nid: NodeId, at: Time) {
        let i = nid.idx();
        if !self.nodes.flwb_active[i] && !self.nodes.flwb[i].is_empty() {
            self.nodes.flwb_active[i] = true;
            self.push_flwb(nid, at);
        }
    }

    // --------------------------------------------------------- processor

    pub(crate) fn proc_step(&mut self, nid: NodeId, mut now: Time) {
        let i = nid.idx();
        // Retired events whose only consequence is "step again at t" are
        // executed inline (`continue`) instead of round-tripping through
        // the event queue, but only when the queue's next event is
        // *strictly* later than t — then nothing else can legally run
        // first, so the inline execution is indistinguishable from a
        // pop at t (same-time events would win the FIFO tie-break, so
        // those fall back to a real push). Compute and FLC-hit events
        // dominate every trace, which makes this the difference between
        // ~2 queue operations per trace event and ~1.
        loop {
            if !matches!(self.nodes.pstate[i], ProcState::Ready) {
                return;
            }
            let retry = std::mem::take(&mut self.nodes.retry_no_charge[i]);
            let event = self.nodes.program[i].get(self.nodes.pc[i]);
            let Some(event) = event else {
                self.nodes.pstate[i] = ProcState::Done;
                self.nodes.finish[i] = Some(now);
                // Final drain; if writes are still in the FLWB the flush
                // happens when it empties (see flwb_head).
                if self.nodes.flwb[i].is_empty() {
                    self.flush_write_cache(nid, now);
                }
                return;
            };
            match event {
                MemEvent::Compute(c) => {
                    self.nodes.stalls[i].add_busy(u64::from(c));
                    self.nodes.pc[i] += 1;
                    let t = now + Time::from_cycles(u64::from(c));
                    if self.queue.peek_time().is_none_or(|pt| pt > t) {
                        now = t;
                        continue;
                    }
                    self.push_step(nid, t);
                    return;
                }
                MemEvent::Read(a) => {
                    let block = a.block();
                    let t = if retry {
                        now
                    } else {
                        self.nodes.stalls[i].add_busy(FLC_HIT.cycles());
                        now + FLC_HIT
                    };
                    let hit = if retry {
                        self.nodes.flc.probe(i, block)
                    } else {
                        self.nodes.flc.access(i, block)
                    };
                    if hit {
                        self.nodes.pc[i] += 1;
                        if self.queue.peek_time().is_none_or(|pt| pt > t) {
                            now = t;
                            continue;
                        }
                        self.push_step(nid, t);
                        return;
                    }
                    if self.nodes.flwb[i].push(FlwbEntry::Read(a)).is_err() {
                        self.nodes.pstate[i] = ProcState::Stalled {
                            kind: StallKind::Buffer,
                            since: t,
                        };
                        return;
                    }
                    self.nodes.pc[i] += 1;
                    self.nodes.pstate[i] = ProcState::Stalled {
                        kind: StallKind::Read,
                        since: t,
                    };
                    self.kick_flwb(nid, t);
                }
                MemEvent::Write(a) => {
                    let t = if retry {
                        now
                    } else {
                        self.nodes.stalls[i].add_busy(FLC_HIT.cycles());
                        now + FLC_HIT
                    };
                    // Write-through, no allocation on write miss: the FLC tag
                    // array is unchanged either way.
                    if self.nodes.flwb[i].push(FlwbEntry::Write(a)).is_err() {
                        self.nodes.pstate[i] = ProcState::Stalled {
                            kind: StallKind::Buffer,
                            since: t,
                        };
                        return;
                    }
                    self.nodes.pc[i] += 1;
                    if self.cfg.protocol.consistency == Consistency::Sc {
                        self.nodes.pstate[i] = ProcState::Stalled {
                            kind: StallKind::Write,
                            since: t,
                        };
                    } else {
                        self.push_step(nid, t);
                    }
                    self.kick_flwb(nid, t);
                }
                MemEvent::Prefetch { addr, exclusive } => {
                    // One cycle for the prefetch instruction itself; the hint
                    // then rides the FLWB like any other request. If the buffer
                    // is full the hint is simply dropped — software prefetches
                    // are never allowed to stall the processor.
                    let t = if retry {
                        now
                    } else {
                        self.nodes.stalls[i].add_busy(FLC_HIT.cycles());
                        now + FLC_HIT
                    };
                    let _ = self.nodes.flwb[i].push(FlwbEntry::SwPrefetch(addr, exclusive));
                    self.nodes.pc[i] += 1;
                    self.push_step(nid, t);
                    self.kick_flwb(nid, t);
                }
                MemEvent::Acquire(a) => {
                    self.nodes.pc[i] += 1;
                    self.nodes.pstate[i] = ProcState::Stalled {
                        kind: StallKind::Acquire,
                        since: now,
                    };
                    let block = a.block();
                    let seq = self.nodes.next_lock_seq[i];
                    self.nodes.next_lock_seq[i] += 1;
                    self.nodes.waiting_grant[i] = Some(SyncWait::Lock(block, seq));
                    let home = self.home_of(block);
                    self.send(now, nid, home, block, MsgKind::AcqReq, seq);
                }
                MemEvent::Release(a) => {
                    self.nodes.pc[i] += 1;
                    if self.sc() {
                        // Under SC there are no buffered writes; the release
                        // stalls the processor until globally performed.
                        self.nodes.pstate[i] = ProcState::Stalled {
                            kind: StallKind::Release,
                            since: now,
                        };
                        let block = a.block();
                        let seq = self.nodes.held_locks[i].remove(block).unwrap_or(0);
                        self.nodes.waiting_grant[i] = Some(SyncWait::ReleaseAck(block, seq));
                        let home = self.home_of(block);
                        self.send(now, nid, home, block, MsgKind::RelReq, seq);
                    } else {
                        // RC: the release enters the FLWB behind earlier writes;
                        // once it reaches the SLC it waits for all previously
                        // issued ownership/update requests. The processor
                        // itself continues.
                        if self.nodes.flwb[i]
                            .push(FlwbEntry::Sync(SyncOut::Release(a)))
                            .is_err()
                        {
                            self.nodes.pc[i] -= 1;
                            self.nodes.pstate[i] = ProcState::Stalled {
                                kind: StallKind::Buffer,
                                since: now,
                            };
                            return;
                        }
                        self.push_step(nid, now);
                        self.kick_flwb(nid, now);
                    }
                }
                MemEvent::Barrier(id) => {
                    self.nodes.pc[i] += 1;
                    self.nodes.pstate[i] = ProcState::Stalled {
                        kind: StallKind::Acquire,
                        since: now,
                    };
                    self.nodes.waiting_grant[i] = Some(SyncWait::Barrier(id.0));
                    if self.sc() {
                        // Under SC all writes are already globally performed.
                        let home = self.barrier_home(id.0);
                        let arrive = MsgKind::BarArrive { id: id.0 };
                        self.send(now, nid, home, BlockAddr::from_index(0), arrive, 0);
                    } else {
                        // A barrier arrival includes release semantics: it
                        // follows earlier writes through the FLWB and waits for
                        // pending ownership/update requests.
                        if self.nodes.flwb[i]
                            .push(FlwbEntry::Sync(SyncOut::Barrier(id.0)))
                            .is_err()
                        {
                            self.nodes.pc[i] -= 1;
                            self.nodes.waiting_grant[i] = None;
                            self.nodes.pstate[i] = ProcState::Stalled {
                                kind: StallKind::Buffer,
                                since: now,
                            };
                            return;
                        }
                        self.kick_flwb(nid, now);
                    }
                }
            }
            return;
        }
    }

    // ------------------------------------------------ release / backlogs

    /// Drains the write cache into the update backlog (at a release or when
    /// the program finishes).
    pub(crate) fn flush_write_cache(&mut self, nid: NodeId, t: Time) {
        let i = nid.idx();
        if self.nodes.wc[i].is_none() {
            return;
        }
        // `take_next` drains in the same set order `flush_all` did, without
        // materializing the flushed entries in a fresh Vec per release.
        while let Some(e) = self.nodes.wc[i].as_mut().and_then(WriteCache::take_next) {
            let v = self.nodes.wc_version[i].remove(e.block).unwrap_or(0);
            self.nodes.update_backlog[i].push_back((e, v));
        }
        self.drain_backlog(nid, t);
    }

    /// Issues backlogged updates and writebacks while SLWB space is free.
    pub(crate) fn drain_backlog(&mut self, nid: NodeId, t: Time) {
        let i = nid.idx();
        loop {
            if !self.nodes.slwb_has_space(i) {
                return;
            }
            if let Some((e, v)) = self.nodes.update_backlog[i].pop_front() {
                self.nodes.pending_writes[i] += 1;
                let kind = MsgKind::UpdateReq {
                    dirty_words: e.dirty_mask,
                };
                self.request(nid, e.block, SlwbOp::Update { version: v }, kind, v, t);
                continue;
            }
            if let Some((block, written, v)) = self.nodes.wb_backlog[i].pop_front() {
                let kind = MsgKind::WritebackReq { written };
                self.request(nid, block, SlwbOp::Writeback, kind, v, t);
                continue;
            }
            return;
        }
    }

    /// Sends deferred releases and barrier arrivals once every previously
    /// issued write completed.
    pub(crate) fn maybe_send_sync(&mut self, nid: NodeId, t: Time) {
        let i = nid.idx();
        loop {
            // Gate on previously *issued* requests only: the write cache
            // was flushed when this release/barrier was registered, so any
            // content it holds now belongs to later writes.
            let ready = {
                !self.nodes.sync_waiting[i].is_empty()
                    && self.nodes.pending_writes[i] == 0
                    && self.nodes.update_backlog[i].is_empty()
            };
            if !ready {
                return;
            }
            let sync = self.nodes.sync_waiting[i]
                .pop_front()
                .expect("checked nonempty");
            match sync {
                SyncOut::Release(a) => {
                    let block = a.block();
                    let seq = self.nodes.held_locks[i].remove(block).unwrap_or(0);
                    let home = self.home_of(block);
                    self.send(t, nid, home, block, MsgKind::RelReq, seq);
                }
                SyncOut::Barrier(id) => {
                    let home = self.barrier_home(id);
                    let arrive = MsgKind::BarArrive { id };
                    self.send(t, nid, home, BlockAddr::from_index(0), arrive, 0);
                }
            }
        }
    }

    /// Bookkeeping after an SLWB entry completes: issue backlogged work,
    /// send deferred synchronization, and retry a blocked FLWB head.
    pub(crate) fn after_slwb_free(&mut self, nid: NodeId, t: Time) {
        self.drain_backlog(nid, t);
        self.maybe_send_sync(nid, t);
        self.kick_flwb(nid, t);
    }

    // ------------------------------------------------------- FLWB drain

    pub(crate) fn flwb_head(&mut self, nid: NodeId, now: Time) {
        let i = nid.idx();
        self.nodes.flwb_active[i] = false;
        let Some(head) = self.nodes.flwb[i].front().copied() else {
            return;
        };
        let done = match head {
            FlwbEntry::Read(a) => self.slc_read(nid, a, now),
            FlwbEntry::Write(a) => self.slc_write(nid, a, now),
            FlwbEntry::SwPrefetch(a, exclusive) => {
                Some(self.slc_sw_prefetch(nid, a, exclusive, now))
            }
            FlwbEntry::Sync(s) => {
                // Every earlier FLWB entry has reached the SLC; register
                // the synchronization and let the pending-write gate decide
                // when it goes out.
                self.flush_write_cache(nid, now);
                self.nodes.sync_waiting[i].push_back(s);
                self.maybe_send_sync(nid, now);
                Some(now)
            }
        };
        // Blocked on a full SLWB: leave the head in place; an SLWB
        // completion will retry via after_slwb_free -> kick_flwb.
        let Some(done) = done else { return };
        let was_buffer_stalled = {
            let popped = self.nodes.flwb[i].pop();
            debug_assert_eq!(popped, Some(head));
            if let ProcState::Stalled {
                kind: StallKind::Buffer,
                ..
            } = self.nodes.pstate[i]
            {
                self.nodes.retry_no_charge[i] = true;
                true
            } else {
                false
            }
        };
        if was_buffer_stalled {
            self.resume(nid, now);
        }
        if self.nodes.flwb[i].is_empty() && matches!(self.nodes.pstate[i], ProcState::Done) {
            self.flush_write_cache(nid, done);
        }
        self.kick_flwb(nid, done);
    }

    // ------------------------------------------------------ SLC accesses

    /// Services a demand read at the SLC. Returns the completion time, or
    /// `None` if the access must wait for SLWB space.
    fn slc_read(&mut self, nid: NodeId, a: Addr, now: Time) -> Option<Time> {
        let i = nid.idx();
        let block = a.block();

        let (hit, wc_hit, read_pend, own_pend) = {
            let hit = self.nodes.slc[i].contains(block);
            let wc_hit = !hit
                && self.nodes.wc[i]
                    .as_ref()
                    .is_some_and(|wc| wc.probe(block).is_some());
            (
                hit,
                wc_hit,
                self.nodes.read_pending(i, block),
                self.nodes.own_pending(i, block),
            )
        };
        let needs_entry = !hit && !wc_hit && !read_pend && !own_pend;
        if needs_entry && !self.nodes.slwb_has_space(i) {
            return None;
        }

        let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
        let done = start + SLC_ACCESS;
        self.nodes.counters[i].shared_reads += 1;

        if hit {
            let preset = self.nodes.comp_preset;
            let useful = self.nodes.slc[i]
                .get_mut(block)
                .expect("checked hit")
                .touch_read(preset);
            self.classifier.note_access(nid, block);
            self.nodes.flc.fill(i, block);
            self.resume(nid, done + FLC_FILL);
            if useful {
                let k = self.nodes.exts[i].on_useful_first_reference();
                if k > 0 {
                    self.issue_prefetches(nid, block, k, done);
                }
            }
            return Some(done);
        }
        if wc_hit {
            self.classifier.note_access(nid, block);
            self.nodes.counters[i].wc_read_hits += 1;
            self.resume(nid, done + FLC_FILL);
            return Some(done);
        }

        // Demand miss.
        self.nodes.counters[i].slc_misses += 1;
        self.nodes.counters[i].read_miss_count += 1;
        let _class = self.classifier.classify_miss(nid, block);

        if read_pend {
            // A prefetch (or an earlier miss) is already in flight: attach.
            // A late prefetch still counts as useful — the reference is its
            // first — and keeps the sequential stream going.
            let mut was_unreferenced_prefetch = false;
            if let Some(e) = self
                .nodes
                .slwb_find(i, block, |op| matches!(op, SlwbOp::Read { .. }))
            {
                if let SlwbOp::Read {
                    prefetch,
                    demand_waiting,
                    demand_since,
                    ..
                } = &mut e.op
                {
                    was_unreferenced_prefetch = *prefetch && !*demand_waiting;
                    *demand_waiting = true;
                    *demand_since = now;
                }
            }
            if was_unreferenced_prefetch {
                let k = self.nodes.exts[i].on_useful_first_reference();
                if k > 0 {
                    self.issue_prefetches(nid, block, k, done);
                }
            }
            return Some(done);
        }
        if own_pend {
            if let Some(e) = self
                .nodes
                .slwb_find(i, block, |op| matches!(op, SlwbOp::Own { .. }))
            {
                if let SlwbOp::Own {
                    demand_waiting,
                    demand_since,
                    ..
                } = &mut e.op
                {
                    *demand_waiting = true;
                    *demand_since = now;
                }
            }
            return Some(done);
        }

        // New outstanding read.
        let op = SlwbOp::Read {
            prefetch: false,
            demand_waiting: true,
            demand_since: now,
            upgrade_version: None,
            upgrade_sc: false,
        };
        let kind = MsgKind::ReadReq { prefetch: false };
        self.request(nid, block, op, kind, 0, done);
        // Adaptive sequential prefetching triggers on demand misses.
        let pred_cached = block.pred().is_some_and(|p| self.nodes.slc[i].contains(p));
        let k = self.nodes.exts[i].on_demand_miss(pred_cached);
        if k > 0 {
            self.issue_prefetches(nid, block, k, done);
        }
        Some(done)
    }

    /// SLWB entries kept free for demand requests: prefetches are the
    /// lowest-priority occupants of the lockup-free cache's buffer, so they
    /// must never starve a demand miss or an ownership request.
    const SLWB_PREFETCH_RESERVE: usize = 4;

    /// Issues up to `k` sequential prefetches following `from`. Prefetches
    /// never cross a page boundary: the prefetcher works on physical
    /// addresses below the TLB, so the next page's translation is unknown
    /// (a demand miss there restarts the stream).
    fn issue_prefetches(&mut self, nid: NodeId, from: BlockAddr, k: u32, t: Time) {
        let i = nid.idx();
        let reserve = Self::SLWB_PREFETCH_RESERVE.min(self.nodes.slwb_cap / 2);
        for j in 1..=u64::from(k) {
            let pb = from.plus(j);
            if pb.page() != from.page() {
                break;
            }
            {
                if self.nodes.slc[i].contains(pb)
                    || self.nodes.read_pending(i, pb)
                    || self.nodes.own_pending(i, pb)
                {
                    continue;
                }
                if self.nodes.slwb[i].len() + reserve >= self.nodes.slwb_cap {
                    break;
                }
            }
            self.nodes.exts[i].on_prefetch_issued();
            let op = SlwbOp::Read {
                prefetch: true,
                demand_waiting: false,
                demand_since: t,
                upgrade_version: None,
                upgrade_sc: false,
            };
            self.request(nid, pb, op, MsgKind::ReadReq { prefetch: true }, 0, t);
        }
    }

    /// Services a software prefetch hint at the SLC. Never blocks: the hint
    /// is dropped when the block is present, a request for it is pending,
    /// or the SLWB is full.
    fn slc_sw_prefetch(&mut self, nid: NodeId, a: Addr, exclusive: bool, now: Time) -> Time {
        let i = nid.idx();
        let block = a.block();
        {
            if self.nodes.slc[i].contains(block)
                || self.nodes.read_pending(i, block)
                || self.nodes.own_pending(i, block)
                || !self.nodes.slwb_has_space(i)
            {
                return now;
            }
        }
        let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
        let done = start + SLC_ACCESS;
        if exclusive {
            // Read-exclusive prefetch: fetch ownership up front so the
            // later write needs no transaction (Mowry & Gupta's
            // exclusive-mode prefetch).
            self.nodes.pending_writes[i] += 1;
            let op = SlwbOp::Own {
                need_data: true,
                write_version: 0,
                sc_wait: false,
                demand_waiting: false,
                demand_since: done,
            };
            self.request(nid, block, op, MsgKind::OwnReq { need_data: true }, 0, done);
        } else {
            let op = SlwbOp::Read {
                prefetch: true,
                demand_waiting: false,
                demand_since: done,
                upgrade_version: None,
                upgrade_sc: false,
            };
            self.request(nid, block, op, MsgKind::ReadReq { prefetch: true }, 0, done);
        }
        done
    }

    /// Services a write at the SLC. Returns the completion time, or `None`
    /// if the access must wait for SLWB space.
    fn slc_write(&mut self, nid: NodeId, a: Addr, now: Time) -> Option<Time> {
        let i = nid.idx();
        let block = a.block();
        let sc = self.sc();
        // The write policy is an extension decision: BASIC invalidates, CW
        // allocates in the write cache (or sends an immediate update in the
        // no-write-cache ablation).
        let mode = self.nodes.exts[i].write_mode();

        let (state, read_pend, own_pend) = {
            (
                self.nodes.slc[i].get(block).map(|l| l.state),
                self.nodes.read_pending(i, block),
                self.nodes.own_pending(i, block),
            )
        };
        let needs_entry = match state {
            Some(CacheState::Dirty) | Some(CacheState::MigClean) => false,
            Some(CacheState::Shared) => match mode {
                WriteMode::WriteCache => false,
                WriteMode::UpdateNow => true,
                WriteMode::Invalidate => !own_pend,
            },
            None => match mode {
                WriteMode::WriteCache => false,
                WriteMode::UpdateNow => true,
                WriteMode::Invalidate => !own_pend && !read_pend,
            },
        };
        if needs_entry && !self.nodes.slwb_has_space(i) {
            return None;
        }

        let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
        let done = start + SLC_ACCESS;
        self.nodes.counters[i].shared_writes += 1;
        self.classifier.note_access(nid, block);
        let v = self.bump_wcount(block);
        let preset = self.nodes.comp_preset;

        match state {
            Some(CacheState::Dirty) => {
                let line = self.nodes.slc[i].get_mut(block).expect("checked");
                line.touch_write(preset);
                line.version = v;
                if sc {
                    self.resume(nid, done);
                }
            }
            Some(CacheState::MigClean) => {
                // The migratory optimization's payoff: the first write to an
                // exclusively granted copy needs no ownership request.
                let line = self.nodes.slc[i].get_mut(block).expect("checked");
                line.touch_write(preset);
                line.version = v;
                line.state = CacheState::Dirty;
                self.trace_cache_transition(
                    nid,
                    block,
                    CacheTag::MigClean,
                    TraceInput::CpuWrite,
                    done,
                );
                if sc {
                    self.resume(nid, done);
                }
            }
            Some(CacheState::Shared) => {
                {
                    let line = self.nodes.slc[i].get_mut(block).expect("checked");
                    line.touch_write(preset);
                    line.version = v;
                }
                match mode {
                    WriteMode::WriteCache => self.write_cache_write(nid, a, v, done),
                    WriteMode::UpdateNow => {
                        // CW without the write cache: every write is an
                        // immediate single-word update (the ablation
                        // configuration; threshold 4 in the paper).
                        self.issue_update_now(nid, a, v, done);
                    }
                    WriteMode::Invalidate if own_pend => {
                        self.merge_pending_write(nid, block, v);
                        debug_assert!(!sc, "SC cannot overlap two writes");
                    }
                    WriteMode::Invalidate => {
                        self.nodes.slc[i]
                            .get_mut(block)
                            .expect("checked")
                            .own_pending = true;
                        self.nodes.pending_writes[i] += 1;
                        let op = SlwbOp::Own {
                            need_data: false,
                            write_version: v,
                            sc_wait: sc,
                            demand_waiting: false,
                            demand_since: done,
                        };
                        let kind = MsgKind::OwnReq { need_data: false };
                        self.request(nid, block, op, kind, 0, done);
                    }
                }
            }
            None => match mode {
                WriteMode::WriteCache => {
                    // CW: a write miss allocates in the write cache only —
                    // no block fetch.
                    self.write_cache_write(nid, a, v, done);
                }
                WriteMode::UpdateNow => self.issue_update_now(nid, a, v, done),
                WriteMode::Invalidate if own_pend => self.merge_pending_write(nid, block, v),
                WriteMode::Invalidate if read_pend => {
                    // A read (usually a prefetch) is in flight: mark it for
                    // upgrade instead of racing a second request to home.
                    // Later writes to the same in-flight block merge into
                    // the existing mark — only the first one counts as a
                    // pending write (one upgrade, one eventual completion).
                    let mut first_upgrade = false;
                    if let Some(e) = self
                        .nodes
                        .slwb_find(i, block, |op| matches!(op, SlwbOp::Read { .. }))
                    {
                        if let SlwbOp::Read {
                            upgrade_version,
                            upgrade_sc,
                            ..
                        } = &mut e.op
                        {
                            first_upgrade = upgrade_version.is_none();
                            *upgrade_version = Some(upgrade_version.unwrap_or(0).max(v));
                            *upgrade_sc = sc;
                        }
                    }
                    if first_upgrade {
                        self.nodes.pending_writes[i] += 1;
                    }
                }
                WriteMode::Invalidate => {
                    self.nodes.pending_writes[i] += 1;
                    let op = SlwbOp::Own {
                        need_data: true,
                        write_version: v,
                        sc_wait: sc,
                        demand_waiting: false,
                        demand_since: done,
                    };
                    self.request(nid, block, op, MsgKind::OwnReq { need_data: true }, 0, done);
                }
            },
        }
        Some(done)
    }

    /// Issues a single-word update request (competitive update without the
    /// write cache).
    fn issue_update_now(&mut self, nid: NodeId, a: Addr, v: u64, t: Time) {
        self.nodes.pending_writes[nid.idx()] += 1;
        let kind = MsgKind::UpdateReq {
            dirty_words: 1u8 << a.word_in_block(),
        };
        self.request(nid, a.block(), SlwbOp::Update { version: v }, kind, v, t);
    }

    /// Opens an SLWB request for `block` and sends its `kind` message to
    /// the block's home.
    fn request(
        &mut self,
        nid: NodeId,
        block: BlockAddr,
        op: SlwbOp,
        kind: MsgKind,
        version: u64,
        t: Time,
    ) {
        self.nodes.slwb[nid.idx()].push(SlwbEntry { block, op });
        let home = self.home_of(block);
        self.send(t, nid, home, block, kind, version);
    }

    fn merge_pending_write(&mut self, nid: NodeId, block: BlockAddr, v: u64) {
        if let Some(e) = self
            .nodes
            .slwb_find(nid.idx(), block, |op| matches!(op, SlwbOp::Own { .. }))
        {
            if let SlwbOp::Own { write_version, .. } = &mut e.op {
                *write_version = (*write_version).max(v);
            }
        }
    }

    /// The newest version stamp of this node's writes to `block` that have
    /// not yet reached memory: in the write cache, queued in the update
    /// backlog, or carried by an in-flight update request.
    fn pending_update_stamp(&self, nid: NodeId, block: BlockAddr) -> u64 {
        let i = nid.idx();
        let wc = self.nodes.wc_version[i].get(block).copied().unwrap_or(0);
        let backlog = self.nodes.update_backlog[i]
            .iter()
            .filter(|(e, _)| e.block == block)
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0);
        let in_flight = self.nodes.slwb[i]
            .iter()
            .filter(|e| e.block == block)
            .filter_map(|e| match e.op {
                SlwbOp::Update { version } => Some(version),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        wc.max(backlog).max(in_flight)
    }

    fn write_cache_write(&mut self, nid: NodeId, a: Addr, v: u64, t: Time) {
        let i = nid.idx();
        let block = a.block();
        let stamp = self.nodes.wc_version[i].get_or_insert_with(block, || 0);
        *stamp = (*stamp).max(v);
        let victim = self.nodes.wc[i].as_mut().expect("CW enabled").write(a);
        if let Some(victim) = victim {
            let vv = self.nodes.wc_version[i].remove(victim.block).unwrap_or(0);
            self.nodes.update_backlog[i].push_back((victim, vv));
            self.drain_backlog(nid, t);
        }
    }

    // ------------------------------------------------- line installation

    /// Installs a line, handling direct-mapped victims.
    fn install_line(&mut self, nid: NodeId, block: BlockAddr, line: Line, t: Time) {
        let victim = self.nodes.slc[nid.idx()].insert(block, line);
        if let Some((vb, vline)) = victim {
            self.evict(nid, vb, vline, t);
        }
    }

    fn evict(&mut self, nid: NodeId, block: BlockAddr, line: Line, t: Time) {
        let i = nid.idx();
        // The victim is already out of the SLC, so the post-state is
        // INVALID by construction.
        self.trace_cache_transition(nid, block, line.state.into(), TraceInput::Replace, t);
        self.nodes.flc.invalidate(i, block);
        self.classifier
            .note_invalidation(nid, block, InvalReason::Replacement);
        match line.state {
            CacheState::Shared => {
                // Keep the full-map directory exact — unless an ownership
                // request is in flight for this line, in which case the
                // directory is about to transfer ownership to us anyway.
                if !line.own_pending {
                    let home = self.home_of(block);
                    self.send(t, nid, home, block, MsgKind::SharedReplHint, 0);
                }
            }
            CacheState::Dirty => {
                self.nodes.wb_backlog[i].push_back((block, true, line.version));
                self.drain_backlog(nid, t);
            }
            CacheState::MigClean => {
                self.nodes.wb_backlog[i].push_back((block, false, line.version));
                self.drain_backlog(nid, t);
            }
        }
    }

    // --------------------------------------------------- network arrivals

    /// The transition-table tag of a node's cached copy of `block`.
    fn cache_tag(&self, nid: NodeId, block: BlockAddr) -> CacheTag {
        self.nodes.slc[nid.idx()]
            .get(block)
            .map_or(CacheTag::Invalid, |l| l.state.into())
    }

    /// Records a cache-line transition out of `from` (if the tag changed
    /// and tracing is on).
    pub(crate) fn trace_cache_transition(
        &mut self,
        nid: NodeId,
        block: BlockAddr,
        from: CacheTag,
        input: TraceInput,
        at: Time,
    ) {
        if !self.ctrace.enabled() {
            return;
        }
        let to = self.cache_tag(nid, block);
        if from == to {
            return;
        }
        self.ctrace.push(TransitionRecord {
            time: at.cycles(),
            node: nid,
            block,
            from: StateTag::Cache(from),
            to: StateTag::Cache(to),
            input,
            ext: None,
        });
    }

    pub(crate) fn cache_deliver(&mut self, msg: Msg, now: Time) {
        let pre = if self.ctrace.enabled() {
            Some(self.cache_tag(msg.dst, msg.block))
        } else {
            None
        };
        let (dst, block, kind) = (msg.dst, msg.block, msg.kind);
        self.cache_deliver_inner(msg, now);
        if let Some(pre) = pre {
            self.trace_cache_transition(dst, block, pre, TraceInput::Msg(kind.into()), now);
        }
    }

    fn cache_deliver_inner(&mut self, msg: Msg, now: Time) {
        let nid = msg.dst;
        let i = nid.idx();
        let block = msg.block;
        let preset = self.nodes.comp_preset;

        match msg.kind {
            MsgKind::ReadReply { exclusive } => {
                // No pending read: a duplicated reply whose original already
                // completed the entry. Drop it.
                let Some(entry) = self
                    .nodes
                    .slwb_take(i, block, |op| matches!(op, SlwbOp::Read { .. }))
                else {
                    self.stale_drops += 1;
                    return;
                };
                self.retry_attempts[nid.idx()].remove(block);
                let SlwbOp::Read {
                    prefetch,
                    demand_waiting,
                    demand_since,
                    upgrade_version,
                    upgrade_sc,
                } = entry.op
                else {
                    unreachable!()
                };
                let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
                let done = start + SLC_ACCESS;

                let mut version = msg.version;
                // A fetched block must absorb any local writes still on
                // their way to memory: words sitting in the write cache, in
                // the update backlog, or in an in-flight update request all
                // hold newer values than the copy memory just sent us (the
                // home excludes the writer from its own update fan-out).
                version = version.max(self.pending_update_stamp(nid, block));
                let mut state = if exclusive {
                    CacheState::MigClean
                } else {
                    CacheState::Shared
                };
                let mut follow_own: Option<(u64, bool)> = None;
                if let Some(uv) = upgrade_version {
                    version = version.max(uv);
                    if exclusive {
                        // Hardware read-exclusive prefetching: the pending
                        // write completes silently on the exclusive copy.
                        state = CacheState::Dirty;
                        self.nodes.pending_writes[i] -= 1;
                    } else {
                        follow_own = Some((uv, upgrade_sc));
                    }
                }
                let mut line = Line::new(state, version, preset);
                if upgrade_version.is_some() {
                    line.touch_write(preset);
                    line.version = version;
                    line.own_pending = follow_own.is_some();
                } else {
                    line.prefetched = prefetch && !demand_waiting;
                }
                debug_assert!(!self.nodes.slc[i].contains(block), "double install");
                self.install_line(nid, block, line, done);

                if let Some((uv, sc)) = follow_own {
                    let op = SlwbOp::Own {
                        need_data: false,
                        write_version: uv,
                        sc_wait: sc,
                        demand_waiting: false,
                        demand_since: done,
                    };
                    let kind = MsgKind::OwnReq { need_data: false };
                    self.request(nid, block, op, kind, 0, done);
                } else if upgrade_version.is_some() && upgrade_sc {
                    // Exclusive grant completed the SC-stalled write.
                    self.resume(nid, done);
                }
                if prefetch {
                    self.nodes.exts[i].on_prefetch_arrived();
                }
                if demand_waiting {
                    self.fill_demand(nid, block, demand_since, done);
                }
                self.after_slwb_free(nid, done);
            }
            MsgKind::OwnAck { with_data } => {
                let Some(entry) = self
                    .nodes
                    .slwb_take(i, block, |op| matches!(op, SlwbOp::Own { .. }))
                else {
                    self.stale_drops += 1;
                    return;
                };
                self.retry_attempts[nid.idx()].remove(block);
                let SlwbOp::Own {
                    write_version,
                    sc_wait,
                    demand_waiting,
                    demand_since,
                    ..
                } = entry.op
                else {
                    unreachable!()
                };
                let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
                let done = start + SLC_ACCESS;
                // Like a read fill, an ownership grant must absorb any local
                // writes still buffered toward memory (an exclusive software
                // prefetch can race the write cache's flush).
                let version = write_version
                    .max(msg.version)
                    .max(self.pending_update_stamp(nid, block));
                let present = self.nodes.slc[i].contains(block);
                if present {
                    let line = self.nodes.slc[i].get_mut(block).expect("checked");
                    line.state = CacheState::Dirty;
                    line.own_pending = false;
                    line.version = line.version.max(version);
                } else {
                    // Either the copy was invalidated while the request was
                    // in flight (home then sent data), or a finite SLC
                    // evicted it.
                    debug_assert!(with_data || self.cfg.timing.slc_bytes.is_some());
                    let mut line = Line::new(CacheState::Dirty, version, preset);
                    line.touch_write(preset);
                    line.version = version;
                    self.install_line(nid, block, line, done);
                }
                self.nodes.pending_writes[i] -= 1;
                if sc_wait {
                    self.resume(nid, done);
                }
                if demand_waiting {
                    self.fill_demand(nid, block, demand_since, done);
                }
                self.after_slwb_free(nid, done);
            }
            MsgKind::UpdateDone { exclusive } => {
                let Some(_entry) = self
                    .nodes
                    .slwb_take(i, block, |op| matches!(op, SlwbOp::Update { .. }))
                else {
                    self.stale_drops += 1;
                    return;
                };
                if exclusive {
                    match self.nodes.slc[i].get_mut(block) {
                        Some(line) => {
                            debug_assert_eq!(line.state, CacheState::Shared);
                            line.state = CacheState::Dirty;
                        }
                        // The copy was replaced while the grant was in
                        // flight: hand the (unwritten) ownership straight
                        // back so the directory returns to CLEAN.
                        None => {
                            self.nodes.wb_backlog[i].push_back((block, false, msg.version));
                            self.drain_backlog(nid, now);
                        }
                    }
                }
                self.nodes.pending_writes[i] -= 1;
                self.after_slwb_free(nid, now);
            }
            MsgKind::WritebackAck => {
                if self
                    .nodes
                    .slwb_take(i, block, |op| matches!(op, SlwbOp::Writeback))
                    .is_none()
                {
                    self.stale_drops += 1;
                    return;
                }
                self.after_slwb_free(nid, now);
            }
            MsgKind::Inval => {
                let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
                let done = start + SLC_ACCESS;
                self.drop_copy(nid, block);
                self.send(done, nid, msg.src, block, MsgKind::InvalAck, 0);
            }
            MsgKind::Fetch => {
                let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
                let done = start + SLC_ACCESS;
                let reply = {
                    match self.nodes.slc[i].get_mut(block) {
                        // DIRTY, or an exclusive-clean (E) copy under the
                        // MESI extension; either way downgrade.
                        Some(line) if line.state.exclusive() => {
                            let written = line.state == CacheState::Dirty;
                            line.state = CacheState::Shared;
                            Some((written, line.version))
                        }
                        // A non-exclusive copy means this Fetch is a
                        // duplicate whose original already downgraded us —
                        // the home is no longer waiting for a reply.
                        Some(_) => {
                            self.stale_drops += 1;
                            None
                        }
                        // Crossed with our own writeback: home completes
                        // via the writeback.
                        None => None,
                    }
                };
                if let Some((written, version)) = reply {
                    let kind = MsgKind::FetchReply { written };
                    self.send(done, nid, msg.src, block, kind, version);
                }
            }
            MsgKind::FetchInval => {
                let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
                let done = start + SLC_ACCESS;
                // Only an exclusive copy answers: a Shared copy here means
                // this FetchInval is a duplicate and the node re-acquired
                // the block after the original invalidated it — taking the
                // copy again would corrupt both cache and directory state.
                let exclusive = self.nodes.slc[i]
                    .get(block)
                    .is_some_and(|l| l.state.exclusive());
                if exclusive {
                    let line = self.drop_copy(nid, block).expect("checked present");
                    let kind = MsgKind::FetchInvalReply {
                        written: line.state == CacheState::Dirty,
                    };
                    self.send(done, nid, msg.src, block, kind, line.version);
                } else if self.nodes.slc[i].contains(block) {
                    self.stale_drops += 1;
                }
            }
            MsgKind::Update { .. } => {
                let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
                let done = start + SLC_ACCESS;
                // An exclusive copy cannot be an update target: the fan-out
                // targeted a Shared copy, so this is a duplicate that
                // arrived after we gained ownership. The home already
                // collected the original's ack; stay silent.
                if self.nodes.slc[i]
                    .get(block)
                    .is_some_and(|l| l.state.exclusive())
                {
                    self.stale_drops += 1;
                    return;
                }
                let countdown = self.nodes.slc[i]
                    .get_mut(block)
                    .map(|line| line.apply_update(msg.version));
                let invalidated = match countdown {
                    Some(true) => {
                        self.drop_copy(nid, block);
                        true
                    }
                    Some(false) => {
                        // The SLC copy absorbed the update; inclusion
                        // requires the (now stale) FLC copy to go, so the
                        // next local read refreshes from the SLC — which
                        // also presets the competitive counter.
                        self.nodes.flc.invalidate(i, block);
                        false
                    }
                    None => true,
                };
                let ack = MsgKind::UpdateAck { invalidated };
                self.send(done, nid, msg.src, block, ack, 0);
            }
            MsgKind::Interrogate => {
                let start = self.nodes.slc_res[i].acquire(now, SLC_ACCESS);
                let done = start + SLC_ACCESS;
                // Interrogations target Shared copies; an exclusive copy
                // means a duplicate arrived after the migratory transfer
                // already went through. The home is not waiting for us.
                if self.nodes.slc[i]
                    .get(block)
                    .is_some_and(|l| l.state.exclusive())
                {
                    self.stale_drops += 1;
                    return;
                }
                let verdict = self.nodes.slc[i].get(block).map(|l| l.interrogate_keeps());
                let keep = match verdict {
                    Some(true) => true,
                    Some(false) => {
                        self.drop_copy(nid, block);
                        false
                    }
                    None => false,
                };
                let reply = MsgKind::InterrogateReply { keep };
                self.send(done, nid, msg.src, block, reply, 0);
            }
            MsgKind::AcqGrant => {
                // The grant echoes the acquire sequence it answers; a
                // duplicated grant from an earlier episode cannot match.
                if self.nodes.waiting_grant[i] == Some(SyncWait::Lock(block, msg.version)) {
                    self.nodes.waiting_grant[i] = None;
                    self.nodes.held_locks[i].insert(block, msg.version);
                    self.resume(nid, now);
                } else {
                    self.stale_drops += 1;
                }
            }
            MsgKind::BarRelease { id } => {
                if self.nodes.waiting_grant[i] == Some(SyncWait::Barrier(id)) {
                    self.nodes.waiting_grant[i] = None;
                    self.resume(nid, now);
                } else {
                    self.stale_drops += 1;
                }
            }
            MsgKind::RelAck => {
                if self.nodes.waiting_grant[i] == Some(SyncWait::ReleaseAck(block, msg.version)) {
                    self.nodes.waiting_grant[i] = None;
                    self.resume(nid, now);
                } else {
                    self.stale_drops += 1;
                }
            }
            MsgKind::Nack => self.nack_retry(nid, block, now),
            other => unreachable!("not a cache-bound message: {other:?}"),
        }
    }

    /// Drops `nid`'s copy of `block` for a coherence action: the SLC line,
    /// the FLC line (inclusion) and the miss classifier's coherence note.
    /// Returns the dropped line; without an SLC copy nothing happens.
    fn drop_copy(&mut self, nid: NodeId, block: BlockAddr) -> Option<Line> {
        let line = self.nodes.slc[nid.idx()].remove(block)?;
        self.nodes.flc.invalidate(nid.idx(), block);
        self.classifier
            .note_invalidation(nid, block, InvalReason::Coherence);
        Some(line)
    }

    /// Completes a demand read that waited on an SLWB entry finishing at
    /// `done`: fills the FLC, meters the miss latency from `since` and
    /// resumes the processor.
    fn fill_demand(&mut self, nid: NodeId, block: BlockAddr, since: Time, done: Time) {
        let i = nid.idx();
        self.nodes.flc.fill(i, block);
        let resume_at = done + FLC_FILL;
        let latency = resume_at.saturating_sub(since).cycles();
        self.nodes.counters[i].read_miss_cycles += latency;
        self.nodes.read_miss_hist[i].record(latency);
        self.resume(nid, resume_at);
    }

    /// Handles a NACK from the home: the request raced this node's own
    /// in-flight writeback. Re-send the original request (reconstructed
    /// from its SLWB entry) after a bounded exponential backoff; when the
    /// retry budget is exhausted, fail the run with a structured error.
    fn nack_retry(&mut self, nid: NodeId, block: BlockAddr, now: Time) {
        let i = nid.idx();
        let pending = self.nodes.slwb[i].iter().find_map(|e| match e.op {
            SlwbOp::Read { prefetch, .. } if e.block == block => {
                Some(MsgKind::ReadReq { prefetch })
            }
            SlwbOp::Own { need_data, .. } if e.block == block => {
                Some(MsgKind::OwnReq { need_data })
            }
            _ => None,
        });
        // No matching request: a duplicated NACK whose original already
        // triggered the retry that has since completed.
        let Some(kind) = pending else {
            self.stale_drops += 1;
            return;
        };
        // A retry is already scheduled: this NACK is a duplicate of the
        // one that scheduled it. Forking a second chain would multiply
        // requests (and NACKs) without bound.
        if self.retry_inflight[nid.idx()].insert(block, ()).is_some() {
            self.stale_drops += 1;
            return;
        }
        let attempts = self.retry_attempts[nid.idx()].get_or_insert_with(block, || 0);
        *attempts += 1;
        let attempts = *attempts;
        if attempts > NACK_RETRY_BUDGET {
            self.fatal = Some(SimError::Protocol(ProtocolError::RetryBudgetExhausted {
                node: nid,
                block,
                attempts: attempts - 1,
            }));
            return;
        }
        self.nack_retries += 1;
        let backoff = NACK_RETRY_BASE << (attempts - 1).min(10);
        let home = self.home_of(block);
        // Stamp the requester's incarnation epoch: a retry scheduled by a
        // since-crashed incarnation must not fire a phantom request after
        // recovery (`send` re-stamps on the actual send, but the fence
        // checks this stored stamp first).
        self.queue.push(
            now + Time::from_cycles(backoff),
            Ev::Retry(Msg {
                src: nid,
                dst: home,
                block,
                kind,
                version: 0,
                epoch: self.epoch[nid.idx()],
            }),
        );
    }
}
