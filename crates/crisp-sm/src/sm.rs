//! The SM core: warp slots, GTO schedulers, CTA lifecycle, writeback.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::mem;

use crisp_mem::{MemConfig, SmMemPort};
use crisp_trace::wire::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{
    DataClass, KernelId, Op, Reg, Space, StreamId, TraceSource, NUM_BARRIERS, SECTOR_BYTES,
};

use crate::config::{SchedulerPolicy, SmConfig, MAX_WARPS_PER_SCHEDULER};
use crate::cta::{CtaResources, CtaWork, ResourceQuota, SmResources};
use crate::lsu::{Lsu, LsuEntry};
use crate::units::{ExecUnits, Pipe};
use crate::warp::{WarpState, WarpStatus};

/// A committed CTA, reported so the GPU-level scheduler can refill the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaCommit {
    /// Stream the CTA belonged to.
    pub stream: StreamId,
    /// Kernel launch the CTA belonged to — the GPU scheduler releases the
    /// CTA's trace window against this handle.
    pub kernel: KernelId,
    /// The scheduler-assigned sequence number from [`CtaWork::seq`].
    pub seq: u64,
    /// CTA index within its kernel's grid.
    pub cta_index: usize,
}

/// What one SM cycle produced.
#[derive(Debug, Clone, Default)]
pub struct CycleOutput {
    /// CTAs that committed this cycle.
    pub commits: Vec<CtaCommit>,
    /// Warp instructions issued this cycle.
    pub issued: u64,
}

/// Why scheduler issue slots went unused (one count per scheduler-cycle).
///
/// `blocked` is always the sum of the five cause fields; each blocked slot
/// is attributed to the highest-priority cause among the scheduler's
/// resident warps (memory pending > MSHR full > scoreboard > pipe busy >
/// barrier), so a slot waiting on both a DRAM round trip and an ALU hazard
/// reads as a memory stall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Slots that issued an instruction.
    pub issued: u64,
    /// No warps resident on this scheduler's slots.
    pub empty: u64,
    /// Warps resident but all blocked (sum of the cause fields below).
    pub blocked: u64,
    /// Blocked on a scoreboard hazard whose producer is an ALU/SFU op.
    pub scoreboard: u64,
    /// Blocked on a scoreboard hazard whose producer is an outstanding
    /// memory load (DRAM / L2 round trip).
    pub mem_pending: u64,
    /// A memory instruction was ready but the LSU queue (L1 MSHR
    /// backpressure) had no room.
    pub mshr_full: u64,
    /// An ALU/SFU/tensor instruction was ready but every matching exec
    /// pipe was busy.
    pub pipe_busy: u64,
    /// Every live warp was parked at the CTA barrier.
    pub barrier: u64,
}

impl StallBreakdown {
    /// Count one blocked slot against `cause`.
    fn block(&mut self, cause: StallCause) {
        self.blocked += 1;
        match cause {
            StallCause::Barrier => self.barrier += 1,
            StallCause::PipeBusy => self.pipe_busy += 1,
            StallCause::Scoreboard => self.scoreboard += 1,
            StallCause::MshrFull => self.mshr_full += 1,
            StallCause::MemPending => self.mem_pending += 1,
        }
    }

    /// Fraction of scheduler slots that issued, over slots with resident
    /// warps (issue efficiency).
    pub fn issue_efficiency(&self) -> f64 {
        let active = self.issued + self.blocked;
        if active == 0 {
            0.0
        } else {
            self.issued as f64 / active as f64
        }
    }

    /// Accumulate `other` into `self` (aggregating per-SM breakdowns).
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.issued += other.issued;
        self.empty += other.empty;
        self.blocked += other.blocked;
        self.scoreboard += other.scoreboard;
        self.mem_pending += other.mem_pending;
        self.mshr_full += other.mshr_full;
        self.pipe_busy += other.pipe_busy;
        self.barrier += other.barrier;
    }
}

/// Highest-priority reason a blocked scheduler slot could not issue.
/// Variant order is priority order (ascending), so `max` picks the cause
/// to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StallCause {
    Barrier,
    PipeBusy,
    Scoreboard,
    MshrFull,
    MemPending,
}

/// What a live warp waits on, or which issue resource its next
/// instruction needs. Every live warp is in exactly one class; empty
/// slots, exited warps and warps past the end of their trace are in none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Barrier,
    MemPending,
    Scoreboard,
    /// A load or store: ready while the LSU queue has room.
    Lsu,
    /// `Bar` or `Exit`: always ready.
    Control,
    Int,
    Fp,
    Sfu,
    Tensor,
}

const N_CLASSES: usize = 9;

/// The classes ready while their pipe group has a free pipe.
const PIPE_CLASSES: [(Class, Pipe); 4] = [
    (Class::Int, Pipe::Int),
    (Class::Fp, Pipe::Fp),
    (Class::Sfu, Pipe::Sfu),
    (Class::Tensor, Pipe::Tensor),
];

impl Class {
    /// The class of a resident warp, from its status and cached hazard
    /// masks.
    fn of(w: &WarpState) -> Option<Class> {
        let op = match (w.status, w.next_op()) {
            (WarpStatus::Exited, _) | (WarpStatus::Ready, None) => return None,
            (WarpStatus::AtBarrier(_), _) => return Some(Class::Barrier),
            (WarpStatus::Ready, Some(op)) => op,
        };
        Some(if w.blocked_on_mem() {
            Class::MemPending
        } else if w.scoreboard_blocks() {
            Class::Scoreboard
        } else {
            match Pipe::of(op) {
                Some(Pipe::Int) => Class::Int,
                Some(Pipe::Fp) => Class::Fp,
                Some(Pipe::Sfu) => Class::Sfu,
                Some(Pipe::Tensor) => Class::Tensor,
                None if op.is_mem() => Class::Lsu,
                None => Class::Control,
            }
        })
    }
}

/// Per-stream instruction counts: a short list sorted by stream (an SM
/// serves one or two streams), so a lookup is a scan of one cache line.
/// Only non-zero counts are checkpointed.
#[derive(Debug, Default)]
struct StreamCounts(Vec<(StreamId, u64)>);

impl StreamCounts {
    fn get(&self, s: StreamId) -> u64 {
        self.0.iter().find(|e| e.0 == s).map_or(0, |e| e.1)
    }

    fn entry(&mut self, s: StreamId) -> &mut u64 {
        let i = self
            .0
            .binary_search_by_key(&s, |e| e.0)
            .unwrap_or_else(|i| {
                self.0.insert(i, (s, 0));
                i
            });
        &mut self.0[i].1
    }

    fn take(&mut self, s: StreamId) -> u64 {
        self.0
            .iter_mut()
            .find(|e| e.0 == s)
            .map_or(0, |e| mem::take(&mut e.1))
    }

    fn save<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.len(self.0.iter().filter(|e| e.1 > 0).count())?;
        for &(s, n) in self.0.iter().filter(|e| e.1 > 0) {
            w.stream(s)?;
            w.u64(n)?;
        }
        Ok(())
    }

    fn restore<R: io::Read>(r: &mut Reader<R>) -> io::Result<Self> {
        let mut counts = StreamCounts::default();
        for _ in 0..r.len(1 << 16)? {
            let s = r.stream()?;
            *counts.entry(s) = r.u64()?;
        }
        Ok(counts)
    }
}

#[derive(Debug)]
struct ResidentCta {
    stream: StreamId,
    kernel: KernelId,
    seq: u64,
    cta_index: usize,
    resources: CtaResources,
    warp_slots: Vec<usize>,
    live_warps: usize,
    /// Warps parked at each named barrier slot (`arrivals[id]` warps wait
    /// at `bar.sync id`). Their sum never exceeds `live_warps`; a slot
    /// releases the moment its count reaches `live_warps`.
    arrivals: [u16; NUM_BARRIERS],
}

impl ResidentCta {
    /// Warps parked at *any* barrier slot.
    fn parked(&self) -> usize {
        self.arrivals.iter().map(|&n| n as usize).sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    warp_slot: usize,
    reg: Option<Reg>,
    remaining: usize,
}

/// One streaming multiprocessor.
///
/// An `Sm` owns its [`SmMemPort`] (private L1 + MSHRs), so a whole cycle —
/// [`Sm::cycle`] — touches no shared state and may run on any worker
/// thread. The type is `Send` by construction; the parallel executor in
/// `crisp-sim` relies on that to ship SM shards across threads.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    cfg: SmConfig,
    resources: SmResources,
    warps: Vec<Option<WarpState>>,
    ctas: Vec<Option<ResidentCta>>,
    units: ExecUnits,
    lsu: Lsu,
    port: SmMemPort,
    /// ALU result writebacks: (ready_at, warp_slot, reg).
    writebacks: BinaryHeap<Reverse<(u64, usize, u16)>>,
    /// Locally-satisfied memory sectors: (ready_at, inflight_id).
    mem_ready: BinaryHeap<Reverse<(u64, u64)>>,
    inflight: HashMap<u64, Inflight>,
    next_inflight: u64,
    launch_seq: u64,
    /// Greedy pointer per scheduler (GTO's "greedy" half).
    last_issued: Vec<Option<usize>>,
    /// `masks[s][c]` has bit `p` set when the warp in slot
    /// `s + p * schedulers` (scheduler `s`'s `p`-th slot) is in class `c`.
    /// Derived from the warps by [`Sm::refresh`]; not checkpointed.
    masks: Vec<[u64; N_CLASSES]>,
    /// The class each slot's mask bit is filed under.
    class_of: Vec<Option<Class>>,
    /// CTAs committed since construction or restore; the GPU rescans this
    /// SM for CTA dispatch only when this or its dispatch state changed.
    commits: u64,
    issued_by_stream: StreamCounts,
    window_issued: StreamCounts,
    n_resident_warps: usize,
    stalls: StallBreakdown,
    /// While `now < sleep_until` the SM is asleep: nothing it holds can
    /// change before then unless [`Sm::launch_cta`] or
    /// [`Sm::on_mem_completion`] wakes it, so [`Sm::cycle`] only adds
    /// `idle_stalls`. Not checkpointed: a restored SM starts awake.
    sleep_until: u64,
    /// Scheduler-slot accounting of the cycle that put the SM to sleep,
    /// repeated for every cycle it sleeps.
    idle_stalls: StallBreakdown,
}

// Lend the private port, so `MemSystem::tick_into` can drain/fill SMs
// directly from a `&mut [Sm]` (or `&mut [&mut Sm]`, via std's forwarding
// impl) without the cycle loop building a per-cycle `Vec<&mut SmMemPort>`.
impl AsMut<SmMemPort> for Sm {
    fn as_mut(&mut self) -> &mut SmMemPort {
        &mut self.port
    }
}

impl Sm {
    /// An idle SM with the given id, configuration, and memory port.
    ///
    /// # Panics
    ///
    /// Panics if the port's SM id does not match `id`, or if `cfg` gives a
    /// scheduler more than 64 warp slots.
    pub fn new(id: usize, cfg: SmConfig, port: SmMemPort) -> Self {
        assert_eq!(
            port.sm() as usize,
            id,
            "memory port belongs to a different SM"
        );
        assert!(
            cfg.max_warps <= MAX_WARPS_PER_SCHEDULER * cfg.schedulers,
            "{} warps exceed {MAX_WARPS_PER_SCHEDULER} per scheduler",
            cfg.max_warps
        );
        Sm {
            id,
            cfg,
            resources: SmResources::new(cfg),
            warps: (0..cfg.max_warps).map(|_| None).collect(),
            ctas: (0..cfg.max_ctas).map(|_| None).collect(),
            units: ExecUnits::new(&cfg),
            lsu: Lsu::new(&cfg),
            port,
            writebacks: BinaryHeap::new(),
            mem_ready: BinaryHeap::new(),
            inflight: HashMap::new(),
            next_inflight: 0,
            launch_seq: 0,
            last_issued: vec![None; cfg.schedulers as usize],
            masks: vec![[0; N_CLASSES]; cfg.schedulers as usize],
            class_of: vec![None; cfg.max_warps as usize],
            commits: 0,
            issued_by_stream: StreamCounts::default(),
            window_issued: StreamCounts::default(),
            n_resident_warps: 0,
            stalls: StallBreakdown::default(),
            sleep_until: 0,
            idle_stalls: StallBreakdown::default(),
        }
    }

    /// This SM's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &SmConfig {
        &self.cfg
    }

    /// Resource accounting (occupancy queries).
    pub fn resources(&self) -> &SmResources {
        &self.resources
    }

    /// This SM's private memory port (L1 statistics, quiescence).
    pub fn port(&self) -> &SmMemPort {
        &self.port
    }

    /// Mutable access to the memory port — the shared hierarchy drains and
    /// fills it each tick.
    pub fn port_mut(&mut self) -> &mut SmMemPort {
        &mut self.port
    }

    /// Whether a CTA with needs `r` from `stream` can be issued under
    /// `quota`.
    pub fn fits(&self, stream: StreamId, r: CtaResources, quota: ResourceQuota) -> bool {
        self.resources.fits(stream, r, quota)
    }

    /// Launch one CTA. The caller must have checked [`Sm::fits`].
    ///
    /// # Panics
    ///
    /// Panics if warp or CTA slots are unexpectedly exhausted.
    pub fn launch_cta(&mut self, work: CtaWork) {
        self.sleep_until = 0;
        let res = work.resources();
        let n_warps = work.cta.warps.len();
        let cta_slot = self
            .ctas
            .iter()
            .position(Option::is_none)
            .expect("no free CTA slot despite fits() check");
        let mut slots = Vec::with_capacity(n_warps);
        for (i, w) in self.warps.iter().enumerate() {
            if w.is_none() {
                slots.push(i);
                if slots.len() == n_warps {
                    break;
                }
            }
        }
        assert_eq!(
            slots.len(),
            n_warps,
            "no free warp slots despite fits() check"
        );
        self.n_resident_warps += n_warps;
        for (wi, &slot) in slots.iter().enumerate() {
            self.warps[slot] = Some(WarpState::new(
                work.info.clone(),
                work.cta.clone(),
                work.kernel,
                work.cta_index,
                wi,
                cta_slot,
                work.stream,
                self.launch_seq,
            ));
            self.launch_seq += 1;
            self.refresh(slot);
        }
        self.resources.allocate(work.stream, res);
        self.ctas[cta_slot] = Some(ResidentCta {
            stream: work.stream,
            kernel: work.kernel,
            seq: work.seq,
            cta_index: work.cta_index,
            resources: res,
            warp_slots: slots,
            live_warps: n_warps,
            arrivals: [0; NUM_BARRIERS],
        });
    }

    /// Route a memory completion (from the shared hierarchy's tick) back to
    /// its load instruction. Wakes the SM: the fill may have finished a
    /// load or freed the L1 MSHR entry a queued LSU access waits on.
    pub fn on_mem_completion(&mut self, inflight_id: u64) {
        self.sleep_until = 0;
        let done = match self.inflight.get_mut(&inflight_id) {
            Some(f) => {
                f.remaining -= 1;
                f.remaining == 0
            }
            None => return,
        };
        if done {
            let f = self.inflight.remove(&inflight_id).expect("checked above");
            if let (Some(reg), Some(w)) = (f.reg, self.warps[f.warp_slot].as_mut()) {
                w.clear_pending(reg);
                self.refresh(f.warp_slot);
            }
        }
    }

    /// Total warp instructions issued on behalf of `stream`.
    pub fn issued_for(&self, stream: StreamId) -> u64 {
        self.issued_by_stream.get(stream)
    }

    /// Instructions issued for `stream` since the last call (the
    /// warped-slicer sampling window).
    pub fn take_window_issued(&mut self, stream: StreamId) -> u64 {
        self.window_issued.take(stream)
    }

    /// CTAs this SM has committed since it was built or restored. Only
    /// commits free resources, so a CTA that did not fit cannot fit
    /// before this changes, unless the GPU's dispatch state does.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Whether any work is resident or in flight.
    pub fn busy(&self) -> bool {
        self.n_resident_warps > 0
            || !self.lsu.is_empty()
            || !self.inflight.is_empty()
            || !self.writebacks.is_empty()
            || !self.mem_ready.is_empty()
            || !self.port.quiescent()
    }

    /// Sectors this SM has presented to the L1 (bandwidth statistic).
    pub fn l1_sectors_issued(&self) -> u64 {
        self.lsu.sectors_issued()
    }

    /// Scheduler-slot accounting since construction.
    /// Point-in-time snapshot of the SM's scheduling and memory-side state,
    /// for deadlock reports. Read-only and deterministic: depends only on
    /// architectural state, so serial and sharded runs of the same trace
    /// snapshot identically at the same cycle.
    pub fn diagnostics(&self) -> crate::diag::SmDiagnostics {
        use crate::diag::{CtaDiagnostics, SmDiagnostics, WarpDiagnostics, WarpStall};
        let mut warps = Vec::new();
        for (slot, w) in self.warps.iter().enumerate() {
            let Some(w) = w.as_ref() else { continue };
            let trace = &w.cta.warps[w.warp_index];
            let stall = match w.status {
                WarpStatus::Exited => WarpStall::Exited,
                WarpStatus::AtBarrier(_) => WarpStall::Barrier,
                WarpStatus::Ready if w.next_op().is_none() => WarpStall::TraceExhausted,
                WarpStatus::Ready if w.blocked_on_mem() => WarpStall::MemPending,
                WarpStatus::Ready if w.scoreboard_blocks() => WarpStall::Scoreboard,
                WarpStatus::Ready => WarpStall::Issuable,
            };
            warps.push(WarpDiagnostics {
                slot,
                stream: w.stream,
                cta_index: w.cta_index,
                warp_index: w.warp_index,
                pc: w.pc(),
                trace_len: trace.len(),
                stall,
                pending_regs: (w.pending_writes | w.pending_mem).count_ones(),
            });
        }
        let mut ctas = Vec::new();
        for cta in self.ctas.iter().flatten() {
            let kernel = cta
                .warp_slots
                .first()
                .and_then(|&s| self.warps[s].as_ref())
                .map(|w| w.info.name.clone())
                .unwrap_or_default();
            ctas.push(CtaDiagnostics {
                stream: cta.stream,
                kernel,
                cta_index: cta.cta_index,
                live_warps: cta.live_warps,
                at_barrier: cta.parked(),
                arrivals: cta.arrivals,
            });
        }
        SmDiagnostics {
            id: self.id,
            ctas,
            warps,
            mshr_in_flight: self.port.in_flight(),
            lsu_queued: self.lsu.queued(),
            writebacks_pending: self.writebacks.len(),
        }
    }

    pub fn stalls(&self) -> StallBreakdown {
        self.stalls
    }

    /// Advance one cycle. Touches only SM-private state (including the
    /// owned memory port), so distinct SMs may cycle concurrently.
    ///
    /// A cycle that issues nothing while the LSU waits on the memory system
    /// puts the SM to sleep until its next timed event: a writeback, a
    /// locally-satisfied sector, or a busy pipeline freeing up. Until then
    /// no scheduler's choice or stall cause can change, so each sleeping
    /// cycle only repeats that cycle's slot accounting.
    pub fn cycle(&mut self, now: u64) -> CycleOutput {
        let mut out = CycleOutput::default();
        if now < self.sleep_until {
            self.stalls.merge(&self.idle_stalls);
            return out;
        }

        // 1. Retire ALU writebacks due this cycle.
        while let Some(&Reverse((t, slot, reg))) = self.writebacks.peek() {
            if t > now {
                break;
            }
            self.writebacks.pop();
            if let Some(w) = self.warps[slot].as_mut() {
                w.clear_pending(Reg(reg));
                self.refresh(slot);
            }
        }

        // 2. Retire locally-satisfied memory sectors.
        while let Some(&Reverse((t, id))) = self.mem_ready.peek() {
            if t > now {
                break;
            }
            self.mem_ready.pop();
            self.on_mem_completion(id);
        }

        // 3. Work the LSU against the private port.
        let mem_ready = &mut self.mem_ready;
        let lsu_idle = self
            .lsu
            .process(self.id, now, &self.cfg, &mut self.port, |id, at| {
                mem_ready.push(Reverse((at, id)));
            });

        // 4. Each scheduler issues at most one instruction (GTO).
        let mut slots = StallBreakdown::default();
        for s in 0..self.cfg.schedulers as usize {
            let pick = self.pick_warp(s, now);
            #[cfg(test)]
            assert_eq!(pick, self.scan_pick(s, now), "scheduler {s}, cycle {now}");
            match pick {
                Ok(slot) => {
                    self.issue_from(slot, now, &mut out);
                    self.last_issued[s] = Some(slot);
                    slots.issued += 1;
                }
                Err(Some(cause)) => slots.block(cause),
                Err(None) => slots.empty += 1,
            }
        }
        self.stalls.merge(&slots);

        // 5. Nothing issued and the LSU waits on the memory system: sleep
        //    until the earliest timed event (a memory completion or a CTA
        //    launch wakes the SM sooner).
        if out.issued == 0 && lsu_idle {
            let next_wb = self.writebacks.peek().map(|Reverse((t, ..))| *t);
            let next_ready = self.mem_ready.peek().map(|Reverse((t, _))| *t);
            let next_pipe = self.units.next_free_after(now);
            self.sleep_until = [next_wb, next_ready, next_pipe]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(u64::MAX);
            self.idle_stalls = slots;
        }
        out
    }

    /// Warp selection for scheduler `s`, per the configured policy: the
    /// slot to issue from, or why none can issue — the highest-priority
    /// cause over the scheduler's live warps, or `None` when it has no live
    /// warp at all (an `empty` slot). Reads only the class masks.
    fn pick_warp(&self, s: usize, now: u64) -> Result<usize, Option<StallCause>> {
        let m = &self.masks[s];
        let mut ready = m[Class::Control as usize];
        if m[Class::Lsu as usize] != 0 && self.lsu.has_room() {
            ready |= m[Class::Lsu as usize];
        }
        for (c, pipe) in PIPE_CLASSES {
            if m[c as usize] != 0 && self.units.has_free(pipe, now) {
                ready |= m[c as usize];
            }
        }
        if ready == 0 {
            // Nothing ready, so a non-empty LSU class means a full queue
            // and a non-empty pipe class means no free pipe.
            let has = |c: Class| m[c as usize] != 0;
            return Err(if has(Class::MemPending) {
                Some(StallCause::MemPending)
            } else if has(Class::Lsu) {
                Some(StallCause::MshrFull)
            } else if has(Class::Scoreboard) {
                Some(StallCause::Scoreboard)
            } else if PIPE_CLASSES.iter().any(|&(c, _)| has(c)) {
                Some(StallCause::PipeBusy)
            } else if has(Class::Barrier) {
                Some(StallCause::Barrier)
            } else {
                None
            });
        }
        let n_sched = self.cfg.schedulers as usize;
        let slot = |p: u32| s + p as usize * n_sched;
        // A scheduler's pointer always names one of its own slots.
        let last = self.last_issued[s].map(|l| ((l - s) / n_sched) as u32);
        let p = match self.cfg.scheduler {
            // GTO: the greedily-held warp if ready, else the oldest ready.
            SchedulerPolicy::Gto => match last {
                Some(p) if ready >> p & 1 == 1 => p,
                _ => {
                    let mut bits = ready;
                    let mut best: Option<(u64, u32)> = None;
                    while bits != 0 {
                        let p = bits.trailing_zeros();
                        bits &= bits - 1;
                        let w = self.warps[slot(p)].as_ref().expect("classed warp");
                        if best.is_none_or(|(age, _)| w.age < age) {
                            best = Some((w.age, p));
                        }
                    }
                    best.expect("ready is non-empty").1
                }
            },
            // LRR: the first ready warp after the last one issued, wrapping.
            SchedulerPolicy::Lrr => {
                let after = last.map_or(0, |p| p + 1);
                let later = ready.checked_shr(after).map_or(0, |r| r << after);
                if later != 0 {
                    later.trailing_zeros()
                } else {
                    ready.trailing_zeros()
                }
            }
        };
        Ok(slot(p))
    }

    /// Re-file the warp in `slot` under its current class. Called wherever
    /// its existence, status, cursor or pending registers change.
    fn refresh(&mut self, slot: usize) {
        let class = self.warps[slot].as_ref().and_then(Class::of);
        let old = mem::replace(&mut self.class_of[slot], class);
        if old != class {
            let n_sched = self.cfg.schedulers as usize;
            let (m, bit) = (&mut self.masks[slot % n_sched], 1u64 << (slot / n_sched));
            if let Some(c) = old {
                m[c as usize] &= !bit;
            }
            if let Some(c) = class {
                m[c as usize] |= bit;
            }
        }
    }

    /// Issue the next instruction of the warp in `slot`.
    fn issue_from(&mut self, slot: usize, now: u64, out: &mut CycleOutput) {
        let (op, stream) = {
            let w = self.warps[slot].as_ref().expect("picked warp exists");
            (
                w.next_op().expect("picked warp has an instruction"),
                w.stream,
            )
        };
        match op {
            Op::Bar(id) => self.issue_barrier(slot, id),
            Op::Exit => self.issue_exit(slot, out),
            Op::Ld(space) | Op::St(space) => self.issue_mem(slot, space, stream),
            op => {
                // ALU / SFU / tensor / branch: reserve the pipe.
                let ok = self.units.try_issue(op, now, &self.cfg);
                debug_assert!(ok, "warp_can_issue checked unit availability");
                let (lat, _ii) = self.cfg.timing(op);
                let w = self.warps[slot].as_mut().expect("picked warp exists");
                if let Some(d) = w.next_instr().and_then(|i| i.dst) {
                    w.set_pending(d);
                    self.writebacks.push(Reverse((now + lat, slot, d.0)));
                }
                w.advance();
            }
        }
        self.refresh(slot);
        out.issued += 1;
        *self.issued_by_stream.entry(stream) += 1;
        *self.window_issued.entry(stream) += 1;
    }

    /// Hand the warp's next instruction, a load or store, to the LSU. The
    /// sector list is coalesced into a recycled buffer, so this allocates
    /// nothing once the LSU and the in-flight table have warmed up.
    fn issue_mem(&mut self, slot: usize, space: Space, stream: StreamId) {
        let w = self.warps[slot].as_mut().expect("picked warp exists");
        let i = w.next_instr().expect("picked warp has an instruction");
        let is_load = matches!(i.op, Op::Ld(_));
        let dst = i.dst;
        let access = i.mem.as_ref().expect("memory op carries an access");
        let class = if space == Space::Tex {
            DataClass::Texture
        } else {
            access.class
        };
        let sectors = if space == Space::Shared {
            Vec::new()
        } else {
            let mut v = self.lsu.sector_buf();
            access.distinct_chunks_into(SECTOR_BYTES, &mut v);
            for c in &mut v {
                *c *= SECTOR_BYTES;
            }
            v
        };
        let id = self.next_inflight;
        self.next_inflight += 1;
        if is_load {
            let remaining = if space == Space::Shared {
                1
            } else {
                sectors.len()
            };
            self.inflight.insert(
                id,
                Inflight {
                    warp_slot: slot,
                    reg: dst,
                    remaining,
                },
            );
            if let Some(d) = dst {
                w.set_pending_mem(d);
            }
        }
        w.advance();
        self.lsu.push(LsuEntry {
            stream,
            class,
            space,
            is_load,
            sectors,
            next: 0,
            inflight_id: id,
        });
    }

    fn issue_barrier(&mut self, slot: usize, id: u8) {
        let cta_slot = {
            let w = self.warps[slot].as_mut().expect("warp exists");
            w.advance(); // resume *after* the barrier once released
            w.status = WarpStatus::AtBarrier(id);
            w.cta_slot
        };
        let release = {
            let cta = self.ctas[cta_slot].as_mut().expect("warp belongs to a CTA");
            cta.arrivals[id as usize] += 1;
            cta.arrivals[id as usize] as usize >= cta.live_warps
        };
        if release {
            self.release_barrier(cta_slot, id);
        }
    }

    /// Release every warp parked at barrier slot `id` of this CTA. Warps
    /// parked at *other* slots stay parked — that isolation is what makes
    /// divergent-slot traces wedge (and what the static prover catches).
    fn release_barrier(&mut self, cta_slot: usize, id: u8) {
        let cta = self.ctas[cta_slot].as_mut().expect("cta exists");
        cta.arrivals[id as usize] = 0;
        let slots = mem::take(&mut cta.warp_slots);
        for &s in &slots {
            if let Some(w) = self.warps[s].as_mut() {
                if w.status == WarpStatus::AtBarrier(id) {
                    w.status = WarpStatus::Ready;
                    self.refresh(s);
                }
            }
        }
        self.ctas[cta_slot].as_mut().expect("cta exists").warp_slots = slots;
    }

    fn issue_exit(&mut self, slot: usize, out: &mut CycleOutput) {
        let cta_slot = {
            let w = self.warps[slot].as_mut().expect("warp exists");
            w.status = WarpStatus::Exited;
            w.advance();
            w.cta_slot
        };
        let (committed, release_ids) = {
            let cta = self.ctas[cta_slot].as_mut().expect("warp belongs to a CTA");
            cta.live_warps -= 1;
            let committed = cta.live_warps == 0;
            // A shrinking CTA can satisfy a pending barrier (short warps
            // exit early by design). At most one slot can reach the
            // threshold — the parked total is bounded by live_warps — but
            // scanning all of them keeps the invariant local.
            let mut ids = [false; NUM_BARRIERS];
            if !committed {
                for (id, &n) in cta.arrivals.iter().enumerate() {
                    ids[id] = n > 0 && n as usize >= cta.live_warps;
                }
            }
            (committed, ids)
        };
        for (id, release) in release_ids.iter().enumerate() {
            if *release {
                self.release_barrier(cta_slot, id as u8);
            }
        }
        if committed {
            let cta = self.ctas[cta_slot].take().expect("committing CTA exists");
            for &s in &cta.warp_slots {
                self.warps[s] = None;
                self.refresh(s);
            }
            self.commits += 1;
            self.n_resident_warps -= cta.warp_slots.len();
            self.resources.release(cta.stream, cta.resources);
            out.commits.push(CtaCommit {
                stream: cta.stream,
                kernel: cta.kernel,
                seq: cta.seq,
                cta_index: cta.cta_index,
            });
        }
    }
}

impl CheckpointState for StallBreakdown {
    type SaveCtx<'a> = ();
    type RestoreCtx<'a> = ();

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        w.u64(self.issued)?;
        w.u64(self.empty)?;
        w.u64(self.blocked)?;
        w.u64(self.scoreboard)?;
        w.u64(self.mem_pending)?;
        w.u64(self.mshr_full)?;
        w.u64(self.pipe_busy)?;
        w.u64(self.barrier)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, _: ()) -> io::Result<Self> {
        Ok(StallBreakdown {
            issued: r.u64()?,
            empty: r.u64()?,
            blocked: r.u64()?,
            scoreboard: r.u64()?,
            mem_pending: r.u64()?,
            mshr_full: r.u64()?,
            pipe_busy: r.u64()?,
            barrier: r.u64()?,
        })
    }
}

impl CheckpointState for ResidentCta {
    type SaveCtx<'a> = ();
    /// Warp-slot bound (`cfg.max_warps`) for index validation.
    type RestoreCtx<'a> = usize;

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        w.stream(self.stream)?;
        w.u32(self.kernel.0)?;
        w.u64(self.seq)?;
        w.u64(self.cta_index as u64)?;
        self.resources.save(w, ())?;
        w.len(self.warp_slots.len())?;
        for &s in &self.warp_slots {
            w.u64(s as u64)?;
        }
        w.u64(self.live_warps as u64)?;
        for &n in &self.arrivals {
            w.u16(n)?;
        }
        Ok(())
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, max_warps: usize) -> io::Result<Self> {
        let stream = r.stream()?;
        let kernel = KernelId(r.u32()?);
        let seq = r.u64()?;
        let cta_index = r.u64()? as usize;
        let resources = CtaResources::restore(r, ())?;
        let n = r.len(max_warps)?;
        let mut warp_slots = Vec::with_capacity(n);
        for _ in 0..n {
            let s = r.u64()? as usize;
            if s >= max_warps {
                return Err(bad(format!("cta warp slot {s} >= {max_warps}")));
            }
            warp_slots.push(s);
        }
        let live_warps = r.u64()? as usize;
        let mut arrivals = [0u16; NUM_BARRIERS];
        for n in &mut arrivals {
            *n = r.u16()?;
        }
        let parked: usize = arrivals.iter().map(|&n| n as usize).sum();
        if live_warps > warp_slots.len() || parked > warp_slots.len() {
            return Err(bad("cta warp counts exceed its slot list"));
        }
        Ok(ResidentCta {
            stream,
            kernel,
            seq,
            cta_index,
            resources,
            warp_slots,
            live_warps,
            arrivals,
        })
    }
}

impl CheckpointState for Sm {
    type SaveCtx<'a> = ();
    /// `(sm id, core config, hierarchy config, trace source)` — everything
    /// outside the serialized state needed to rebuild the SM. Resident
    /// warps page their CTAs back in through the source.
    type RestoreCtx<'a> = (usize, SmConfig, &'a MemConfig, &'a mut TraceSource);

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        w.u64(self.id as u64)?;
        self.resources.save(w, ())?;
        w.len(self.warps.len())?;
        for warp in &self.warps {
            w.option(warp.as_ref(), |w, ws| ws.save(w, ()))?;
        }
        w.len(self.ctas.len())?;
        for cta in &self.ctas {
            w.option(cta.as_ref(), |w, c| c.save(w, ()))?;
        }
        self.units.save(w, ())?;
        self.lsu.save(w, ())?;
        self.port.save(w, ())?;
        // Heap contents serialized sorted for a deterministic byte stream;
        // sorted push-rebuild pops identically.
        let mut wbs: Vec<(u64, usize, u16)> = self.writebacks.iter().map(|Reverse(x)| *x).collect();
        wbs.sort_unstable();
        w.len(wbs.len())?;
        for (t, slot, reg) in wbs {
            w.u64(t)?;
            w.u64(slot as u64)?;
            w.u16(reg)?;
        }
        let mut ready: Vec<(u64, u64)> = self.mem_ready.iter().map(|Reverse(x)| *x).collect();
        ready.sort_unstable();
        w.len(ready.len())?;
        for (t, id) in ready {
            w.u64(t)?;
            w.u64(id)?;
        }
        let mut ids: Vec<u64> = self.inflight.keys().copied().collect();
        ids.sort_unstable();
        w.len(ids.len())?;
        for id in ids {
            let f = &self.inflight[&id];
            w.u64(id)?;
            w.u64(f.warp_slot as u64)?;
            w.option(f.reg.as_ref(), |w, r| w.u16(r.0))?;
            w.u64(f.remaining as u64)?;
        }
        w.u64(self.next_inflight)?;
        w.u64(self.launch_seq)?;
        w.len(self.last_issued.len())?;
        for slot in &self.last_issued {
            w.option(slot.as_ref(), |w, &s| w.u64(s as u64))?;
        }
        self.issued_by_stream.save(w)?;
        self.window_issued.save(w)?;
        self.stalls.save(w, ())
    }

    fn restore<R: io::Read>(
        r: &mut Reader<R>,
        (id, cfg, mem_cfg, source): (usize, SmConfig, &MemConfig, &mut TraceSource),
    ) -> io::Result<Self> {
        let found = r.u64()? as usize;
        if found != id {
            return Err(bad(format!("checkpoint SM id {found}, expected {id}")));
        }
        let resources = SmResources::restore(r, cfg)?;
        let max_warps = cfg.max_warps as usize;
        let n = r.len(max_warps)?;
        if n != max_warps {
            return Err(bad(format!(
                "SM has {n} warp slots, config implies {max_warps}"
            )));
        }
        let mut warps = Vec::with_capacity(n);
        let mut n_resident_warps = 0;
        for _ in 0..n {
            let warp = r.option(|r| WarpState::restore(r, &mut *source))?;
            if let Some(w) = &warp {
                if w.cta_slot >= cfg.max_ctas as usize {
                    return Err(bad(format!("warp cta slot {} out of range", w.cta_slot)));
                }
                n_resident_warps += 1;
            }
            warps.push(warp);
        }
        let max_ctas = cfg.max_ctas as usize;
        let n = r.len(max_ctas)?;
        if n != max_ctas {
            return Err(bad(format!(
                "SM has {n} CTA slots, config implies {max_ctas}"
            )));
        }
        let mut ctas = Vec::with_capacity(n);
        for _ in 0..n {
            let cta = r.option(|r| ResidentCta::restore(r, max_warps))?;
            if let Some(c) = &cta {
                if c.kernel.0 as usize >= source.n_kernels() {
                    return Err(bad(format!("resident CTA references unknown {}", c.kernel)));
                }
            }
            ctas.push(cta);
        }
        let units = ExecUnits::restore(r, &cfg)?;
        let lsu = Lsu::restore(r, &cfg)?;
        let port = SmMemPort::restore(r, (id as u16, mem_cfg))?;
        let n = r.len(1 << 24)?;
        let mut writebacks = BinaryHeap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let t = r.u64()?;
            let slot = r.u64()? as usize;
            if slot >= max_warps {
                return Err(bad(format!("writeback warp slot {slot} out of range")));
            }
            let reg = r.u16()?;
            if reg >= 128 {
                return Err(bad(format!("writeback register {reg} out of range")));
            }
            writebacks.push(Reverse((t, slot, reg)));
        }
        let n = r.len(1 << 24)?;
        let mut mem_ready = BinaryHeap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let t = r.u64()?;
            let id = r.u64()?;
            mem_ready.push(Reverse((t, id)));
        }
        let n = r.len(1 << 24)?;
        let mut inflight = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let fid = r.u64()?;
            let warp_slot = r.u64()? as usize;
            if warp_slot >= max_warps {
                return Err(bad(format!("inflight warp slot {warp_slot} out of range")));
            }
            let reg = r.option(|r| r.u16())?;
            if reg.is_some_and(|x| x >= 128) {
                return Err(bad("inflight register out of range"));
            }
            let remaining = r.u64()? as usize;
            if inflight
                .insert(
                    fid,
                    Inflight {
                        warp_slot,
                        reg: reg.map(Reg),
                        remaining,
                    },
                )
                .is_some()
            {
                return Err(bad("duplicate inflight id"));
            }
        }
        let next_inflight = r.u64()?;
        let launch_seq = r.u64()?;
        let n_sched = cfg.schedulers as usize;
        let n = r.len(n_sched)?;
        if n != n_sched {
            return Err(bad(format!(
                "SM has {n} scheduler pointers, config implies {n_sched}"
            )));
        }
        let mut last_issued = Vec::with_capacity(n);
        for sched in 0..n {
            let slot = r.option(|r| r.u64())?.map(|s| s as usize);
            if slot.is_some_and(|s| s >= max_warps || s % n_sched != sched) {
                return Err(bad("scheduler pointer out of range"));
            }
            last_issued.push(slot);
        }
        let issued_by_stream = StreamCounts::restore(r)?;
        let window_issued = StreamCounts::restore(r)?;
        let mut sm = Sm {
            id,
            cfg,
            resources,
            warps,
            ctas,
            units,
            lsu,
            port,
            writebacks,
            mem_ready,
            inflight,
            next_inflight,
            launch_seq,
            last_issued,
            masks: vec![[0; N_CLASSES]; n_sched],
            class_of: vec![None; max_warps],
            commits: 0,
            issued_by_stream,
            window_issued,
            n_resident_warps,
            stalls: StallBreakdown::restore(r, ())?,
            sleep_until: 0,
            idle_stalls: StallBreakdown::default(),
        };
        for slot in 0..max_warps {
            sm.refresh(slot);
        }
        Ok(sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_mem::{CacheGeometry, MemConfig, MemSystem};
    use crisp_trace::{CtaTrace, Instr, KernelTrace, MemAccess, WarpTrace};
    use std::sync::Arc;

    fn mem_cfg() -> MemConfig {
        MemConfig {
            n_sms: 1,
            l1_geom: CacheGeometry {
                size_bytes: 16384,
                assoc: 4,
            },
            l1_latency: 4,
            l1_mshr_entries: 32,
            l1_mshr_merges: 8,
            l2_geom: CacheGeometry {
                size_bytes: 65536,
                assoc: 8,
            },
            n_l2_banks: 2,
            l2_latency: 20,
            l2_mshr_entries: 32,
            xbar_latency: 4,
            dram_latency: 100,
            dram_bytes_per_cycle: 64.0,
            l2_replacement: crisp_mem::Replacement::Lru,
        }
    }

    fn mem() -> MemSystem {
        MemSystem::new(mem_cfg())
    }

    /// What one warp slot offers its scheduler in a cycle, per the
    /// per-slot scan the class masks replaced.
    enum SlotState {
        /// No live warp: empty slot, exited warp, or exhausted trace.
        Idle,
        /// Can issue now; carries the warp's age for GTO's oldest-first pick.
        Ready(u64),
        /// Live but unable to issue, for this reason.
        Blocked(StallCause),
    }

    /// The per-slot scan, kept as the oracle [`Sm::cycle`] checks every
    /// mask pick against in tests.
    impl Sm {
        pub(super) fn scan_pick(&self, s: usize, now: u64) -> Result<usize, Option<StallCause>> {
            match self.cfg.scheduler {
                SchedulerPolicy::Gto => self.scan_gto(s, now),
                SchedulerPolicy::Lrr => self.scan_lrr(s, now),
            }
        }

        fn scan_gto(&self, s: usize, now: u64) -> Result<usize, Option<StallCause>> {
            let n_sched = self.cfg.schedulers as usize;
            if let Some(slot) = self.last_issued[s] {
                if let SlotState::Ready(_) = self.slot_state(slot, now) {
                    return Ok(slot);
                }
            }
            let mut best: Option<(u64, usize)> = None;
            let mut cause = None;
            for slot in (s..self.warps.len()).step_by(n_sched) {
                match self.slot_state(slot, now) {
                    SlotState::Ready(age) => {
                        if best.is_none_or(|(ba, _)| age < ba) {
                            best = Some((age, slot));
                        }
                    }
                    SlotState::Blocked(c) => cause = cause.max(Some(c)),
                    SlotState::Idle => {}
                }
            }
            best.map(|(_, slot)| slot).ok_or(cause)
        }

        fn scan_lrr(&self, s: usize, now: u64) -> Result<usize, Option<StallCause>> {
            let n_sched = self.cfg.schedulers as usize;
            if s >= self.warps.len() {
                return Err(None);
            }
            let n_slots = (self.warps.len() - s).div_ceil(n_sched);
            let start = match self.last_issued[s] {
                Some(last) if last >= s => (last - s) / n_sched + 1,
                _ => 0,
            };
            let mut cause = None;
            for k in 0..n_slots {
                let slot = s + ((start + k) % n_slots) * n_sched;
                match self.slot_state(slot, now) {
                    SlotState::Ready(_) => return Ok(slot),
                    SlotState::Blocked(c) => cause = cause.max(Some(c)),
                    SlotState::Idle => {}
                }
            }
            Err(cause)
        }

        fn slot_state(&self, slot: usize, now: u64) -> SlotState {
            let Some(w) = self.warps[slot].as_ref() else {
                return SlotState::Idle;
            };
            let op = match (w.status, w.next_op()) {
                (WarpStatus::Exited, _) | (WarpStatus::Ready, None) => return SlotState::Idle,
                (WarpStatus::AtBarrier(_), _) => return SlotState::Blocked(StallCause::Barrier),
                (WarpStatus::Ready, Some(op)) => op,
            };
            if w.blocked_on_mem() {
                return SlotState::Blocked(StallCause::MemPending);
            }
            if w.scoreboard_blocks() {
                return SlotState::Blocked(StallCause::Scoreboard);
            }
            match op {
                Op::Ld(_) | Op::St(_) if !self.lsu.has_room() => {
                    SlotState::Blocked(StallCause::MshrFull)
                }
                Op::Ld(_) | Op::St(_) | Op::Bar(_) | Op::Exit => SlotState::Ready(w.age),
                op if (self.units.busy_count(op, now) as u32) < self.cfg.units_for(op) => {
                    SlotState::Ready(w.age)
                }
                _ => SlotState::Blocked(StallCause::PipeBusy),
            }
        }
    }

    fn new_sm(cfg: SmConfig) -> Sm {
        Sm::new(0, cfg, SmMemPort::new(0, &mem_cfg()))
    }

    fn run_to_completion(sm: &mut Sm, mem: &mut MemSystem, budget: u64) -> (Vec<CtaCommit>, u64) {
        let mut commits = Vec::new();
        let mut cycles = 0;
        for now in 0..budget {
            let out = sm.cycle(now);
            commits.extend(out.commits);
            let completions = {
                let mut ports = [sm.port_mut()];
                mem.tick(now, &mut ports)
            };
            for c in completions {
                sm.on_mem_completion(c.token.id);
            }
            cycles = now + 1;
            if !sm.busy() && mem.quiescent() {
                break;
            }
        }
        (commits, cycles)
    }

    fn launch(sm: &mut Sm, k: &Arc<KernelTrace>, cta_index: usize, seq: u64) {
        let work = CtaWork {
            stream: StreamId(0),
            kernel: crisp_trace::KernelId(0),
            info: Arc::new(crisp_trace::KernelInfo::of(k)),
            cta: Arc::new(k.ctas[cta_index].clone()),
            cta_index,
            seq,
        };
        assert!(sm.fits(StreamId(0), work.resources(), ResourceQuota::unlimited()));
        sm.launch_cta(work);
    }

    fn alu_kernel(n_instr: usize, n_warps: usize, n_ctas: usize) -> Arc<KernelTrace> {
        let mut w = WarpTrace::new();
        for i in 0..n_instr {
            // Independent FMAs (distinct dsts) to expose ILP.
            w.push(Instr::alu(Op::FpFma, Reg((i % 8) as u16 + 1), &[]));
        }
        w.seal();
        let cta = CtaTrace::new(vec![w; n_warps]);
        Arc::new(KernelTrace::new(
            "alu",
            32 * n_warps as u32,
            16,
            0,
            vec![cta; n_ctas],
        ))
    }

    #[test]
    fn single_warp_alu_kernel_completes() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        let k = alu_kernel(10, 1, 1);
        launch(&mut sm, &k, 0, 0);
        let (commits, cycles) = run_to_completion(&mut sm, &mut m, 1000);
        assert_eq!(commits.len(), 1);
        assert_eq!(
            commits[0],
            CtaCommit {
                stream: StreamId(0),
                kernel: crisp_trace::KernelId(0),
                seq: 0,
                cta_index: 0
            }
        );
        assert!(!sm.busy());
        assert!(
            cycles >= 11,
            "10 FMAs + exit takes at least 11 cycles, got {cycles}"
        );
        assert_eq!(sm.issued_for(StreamId(0)), 11);
    }

    #[test]
    fn dependent_chain_serialises_on_latency() {
        // r1 = f(r1) chained: each FMA waits the full 4-cycle latency.
        let mut w = WarpTrace::new();
        for _ in 0..10 {
            w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(1)]));
        }
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "dep",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (_, cycles) = run_to_completion(&mut sm, &mut m, 1000);
        assert!(
            cycles >= 40,
            "10 dependent FMAs × 4-cycle latency, got {cycles}"
        );
    }

    #[test]
    fn multiple_warps_hide_dependency_latency() {
        // 8 warps of dependent chains overlap; total time far less than 8×.
        let mut w = WarpTrace::new();
        for _ in 0..10 {
            w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(1)]));
        }
        w.seal();
        let cta = CtaTrace::new(vec![w; 8]);
        let k = Arc::new(KernelTrace::new("dep8", 256, 16, 0, vec![cta]));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (_, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        assert!(cycles < 8 * 40, "TLP must hide ALU latency, got {cycles}");
    }

    #[test]
    fn load_roundtrip_clears_scoreboard() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)])); // depends on the load
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "ld",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        // Must include the DRAM round trip (~130+ cycles).
        assert!(
            cycles > 100,
            "dependent FMA must wait for DRAM, got {cycles}"
        );
    }

    #[test]
    fn barrier_synchronises_warps() {
        // Warp 0 does long SFU work before the barrier; warp 1 reaches it
        // immediately. Both must pass the barrier together.
        let mut w0 = WarpTrace::new();
        for i in 0..16 {
            w0.push(Instr::alu(Op::Sfu, Reg(i + 1), &[]));
        }
        w0.push(Instr::bar());
        w0.push(Instr::alu(Op::IntAlu, Reg(20), &[]));
        w0.seal();
        let mut w1 = WarpTrace::new();
        w1.push(Instr::bar());
        w1.push(Instr::alu(Op::IntAlu, Reg(20), &[]));
        w1.seal();
        let k = Arc::new(KernelTrace::new(
            "bar",
            64,
            16,
            0,
            vec![CtaTrace::new(vec![w0, w1])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1, "barrier must not deadlock");
    }

    #[test]
    fn exit_releases_barrier_waiters() {
        // Warp 1 exits without reaching the barrier; warp 0 waits at it.
        // The CTA must still complete (live-warp count shrinks).
        let mut w0 = WarpTrace::new();
        w0.push(Instr::bar());
        w0.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        w0.seal();
        let mut w1 = WarpTrace::new();
        for i in 0..8 {
            w1.push(Instr::alu(Op::Sfu, Reg(i + 1), &[]));
        }
        w1.seal(); // exits immediately after ALU work, never hits a bar
        let k = Arc::new(KernelTrace::new(
            "exitbar",
            64,
            16,
            0,
            vec![CtaTrace::new(vec![w0, w1])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1, "exit must release barrier waiters");
    }

    #[test]
    fn commits_free_resources_for_refill() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        let k = alu_kernel(4, 4, 2);
        launch(&mut sm, &k, 0, 0);
        let before = sm.resources().total().warps;
        assert_eq!(before, 4);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        assert_eq!(
            sm.resources().total().warps,
            0,
            "commit releases warp slots"
        );
        launch(&mut sm, &k, 1, 1);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
    }

    #[test]
    fn stall_breakdown_accounts_every_scheduler_slot() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        // A dependent FMA chain: mostly blocked cycles.
        let mut w = WarpTrace::new();
        for _ in 0..10 {
            w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(1)]));
        }
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "dep",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        launch(&mut sm, &k, 0, 0);
        let (_, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        let st = sm.stalls();
        assert_eq!(st.issued, 11, "10 FMAs + exit");
        assert!(st.blocked > st.issued, "dependent chain is mostly blocked");
        assert!(st.issue_efficiency() < 0.5);
        // Every scheduler slot of every cycle is accounted for.
        assert_eq!(
            st.issued + st.blocked + st.empty,
            cycles * SmConfig::default().schedulers as u64
        );
        // And every blocked slot carries exactly one cause.
        assert_eq!(
            st.blocked,
            st.scoreboard + st.mem_pending + st.mshr_full + st.pipe_busy + st.barrier
        );
        assert!(
            st.scoreboard > 0,
            "an ALU dependency chain stalls on the scoreboard"
        );
        assert_eq!(st.mem_pending, 0, "no memory instructions in this kernel");

        // A long-latency load: the SM sleeps through the DRAM round trip,
        // and every slot it sleeps through is still accounted for.
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "ld",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let (st, cycles, slept) = run_beside_woken_twin(&k);
        assert!(slept > 100, "slept {slept} cycles of the DRAM round trip");
        assert_eq!(
            st.issued + st.blocked + st.empty,
            cycles * SmConfig::default().schedulers as u64
        );
        assert!(st.mem_pending > 0, "{st:?}");

        // Independent SFU ops from 8 warps: the 4 SFU pipes (II 4) are the
        // bottleneck, so the SM sleeps until a pipe frees, well before the
        // 21-cycle writebacks.
        let mut w = WarpTrace::new();
        for i in 0..8 {
            w.push(Instr::alu(Op::Sfu, Reg(i + 1), &[]));
        }
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "sfu",
            256,
            16,
            0,
            vec![CtaTrace::new(vec![w; 8])],
        ));
        let (st, _, slept) = run_beside_woken_twin(&k);
        assert!(slept > 0 && st.pipe_busy > 0, "slept {slept}: {st:?}");
    }

    /// Run `k` on an SM and on a twin woken before every cycle, as a
    /// checkpoint restore wakes it, asserting identical slot accounting
    /// every cycle. Returns the stalls, the cycles run, and the cycles the
    /// SM spent asleep.
    fn run_beside_woken_twin(k: &Arc<KernelTrace>) -> (StallBreakdown, u64, u64) {
        let (mut sm, mut twin) = (new_sm(SmConfig::default()), new_sm(SmConfig::default()));
        let (mut m, mut twin_m) = (mem(), mem());
        launch(&mut sm, k, 0, 0);
        launch(&mut twin, k, 0, 0);
        let (mut cycles, mut slept) = (0, 0);
        while sm.busy() || !m.quiescent() {
            twin.sleep_until = 0;
            for (sm, m) in [(&mut sm, &mut m), (&mut twin, &mut twin_m)] {
                let _ = sm.cycle(cycles);
                let mut ports = [sm.port_mut()];
                for c in m.tick(cycles, &mut ports) {
                    sm.on_mem_completion(c.token.id);
                }
            }
            if sm.sleep_until > cycles + 1 {
                slept += 1;
            }
            assert_eq!(sm.stalls(), twin.stalls(), "cycle {cycles}");
            cycles += 1;
        }
        assert!(!twin.busy(), "the twin finishes with the SM");
        (sm.stalls(), cycles, slept)
    }

    #[test]
    fn load_dependency_stalls_attribute_to_memory() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "ldchain",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 10_000);
        let st = sm.stalls();
        assert!(
            st.mem_pending > 50,
            "the DRAM round trip dominates the wait: {st:?}"
        );
        assert!(
            st.mem_pending > st.scoreboard,
            "memory wait must not be misfiled as an ALU hazard: {st:?}"
        );
    }

    #[test]
    fn barrier_waits_attribute_to_barrier() {
        // Warp 1 parks at the barrier while warp 0 (a different scheduler)
        // grinds through SFU work.
        let mut w0 = WarpTrace::new();
        for i in 0..16 {
            w0.push(Instr::alu(Op::Sfu, Reg(i + 1), &[Reg(i + 1)]));
        }
        w0.push(Instr::bar());
        w0.seal();
        let mut w1 = WarpTrace::new();
        w1.push(Instr::bar());
        w1.seal();
        let k = Arc::new(KernelTrace::new(
            "barwait",
            64,
            16,
            0,
            vec![CtaTrace::new(vec![w0, w1])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 10_000);
        let st = sm.stalls();
        assert!(st.barrier > 0, "warp 1 waited at the barrier: {st:?}");
    }

    #[test]
    fn stall_breakdowns_merge() {
        let mut a = StallBreakdown {
            issued: 1,
            empty: 2,
            blocked: 3,
            scoreboard: 1,
            mem_pending: 1,
            mshr_full: 1,
            pipe_busy: 0,
            barrier: 0,
        };
        let b = StallBreakdown {
            issued: 10,
            empty: 0,
            blocked: 2,
            scoreboard: 0,
            mem_pending: 0,
            mshr_full: 0,
            pipe_busy: 1,
            barrier: 1,
        };
        a.merge(&b);
        assert_eq!(a.issued, 11);
        assert_eq!(a.blocked, 5);
        assert_eq!(
            a.blocked,
            a.scoreboard + a.mem_pending + a.mshr_full + a.pipe_busy + a.barrier
        );
    }

    #[test]
    fn per_stream_issue_counters() {
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        let k = alu_kernel(5, 1, 1);
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 1000);
        assert_eq!(sm.issued_for(StreamId(0)), 6);
        assert_eq!(sm.take_window_issued(StreamId(0)), 6);
        assert_eq!(sm.take_window_issued(StreamId(0)), 0, "window resets");
    }

    fn kernel(name: &str, warps: Vec<WarpTrace>) -> Arc<KernelTrace> {
        let threads = 32 * warps.len() as u32;
        Arc::new(KernelTrace::new(
            name,
            threads,
            16,
            0,
            vec![CtaTrace::new(warps)],
        ))
    }

    /// Every cycle of these runs asserts, inside [`Sm::cycle`], that the
    /// mask pick and its stall cause equal the slot scan's. Each kernel
    /// drives one stall cause, under both policies.
    #[test]
    fn mask_picks_match_the_slot_scan_every_cycle() {
        // Barrier: warp 1 parks while warp 0 grinds through SFU work.
        let mut w0 = WarpTrace::new();
        for i in 0..16 {
            w0.push(Instr::alu(Op::Sfu, Reg(i + 1), &[Reg(i + 1)]));
        }
        w0.push(Instr::bar());
        w0.seal();
        let mut w1 = WarpTrace::new();
        w1.push(Instr::bar());
        w1.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
        w1.seal();
        let barrier = kernel("barrier", vec![w0, w1]);

        // SFU pipe-bound: independent SFU ops from 8 warps.
        let mut w = WarpTrace::new();
        for i in 0..8 {
            w.push(Instr::alu(Op::Sfu, Reg(i + 1), &[]));
        }
        w.seal();
        let sfu = kernel("sfu", vec![w; 8]);

        // Long-latency load feeding an FMA.
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
        w.seal();
        let load = kernel("load", vec![w]);

        // MSHR-full: 16 warps of independent loads, each lane on its own
        // line, so the 8-deep LSU queue fills up.
        let warps = (0..16u64)
            .map(|wi| {
                let mut w = WarpTrace::new();
                for i in 0..4u64 {
                    let addrs = (0..32).map(|l| ((wi * 4 + i) * 32 + l) * 128).collect();
                    w.push(Instr::load(
                        Reg(i as u16 + 1),
                        MemAccess::scattered(Space::Global, DataClass::Compute, 4, addrs),
                    ));
                }
                w.push(Instr::alu(Op::Tensor, Reg(8), &[Reg(1), Reg(4)]));
                w.push(Instr::alu(Op::Branch, Reg(9), &[]));
                w.seal();
                w
            })
            .collect();
        let mshr = kernel("mshr", warps);

        for policy in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            let cfg = SmConfig {
                scheduler: policy,
                ..SmConfig::default()
            };
            let run = |k: &Arc<KernelTrace>| {
                let mut sm = new_sm(cfg);
                let mut m = mem();
                launch(&mut sm, k, 0, 0);
                let (commits, _) = run_to_completion(&mut sm, &mut m, 100_000);
                assert_eq!(commits.len(), 1, "{} under {policy:?}", k.name);
                sm.stalls()
            };
            assert!(run(&barrier).barrier > 0);
            assert!(run(&sfu).pipe_busy > 0);
            assert!(run(&load).mem_pending > 0);
            let st = run(&mshr);
            assert!(st.mshr_full > 0 && st.mem_pending > 0, "{policy:?}: {st:?}");
        }
    }

    /// A two-stream run on the test GPU's SM (16 warp slots, 8 CTAs):
    /// graphics-like CTAs with texture loads and barriers beside compute
    /// CTAs with global loads, stores and SFU work, refilled as they
    /// commit, with the oracle checking every cycle.
    #[test]
    fn two_stream_run_matches_the_slot_scan() {
        let mut g = WarpTrace::new();
        for i in 0..6u64 {
            g.push(Instr::load(
                Reg(1 + (i % 3) as u16),
                MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, 0x8000 + i * 512, 32),
            ));
            g.push(Instr::alu(Op::FpFma, Reg(4), &[Reg(1 + (i % 3) as u16)]));
            g.push(Instr::bar_at((i % 2) as u8));
        }
        g.seal();
        let graphics = kernel("g", vec![g; 4]);
        let mut c = WarpTrace::new();
        for i in 0..8u64 {
            c.push(Instr::load(
                Reg(5),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x40000 + i * 4096, 32),
            ));
            c.push(Instr::alu(Op::Sfu, Reg(6), &[Reg(5)]));
            c.push(Instr::alu(Op::IntAlu, Reg(7), &[]));
            c.push(Instr::store(
                Reg(6),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x80000 + i * 128, 32),
            ));
        }
        c.seal();
        let compute = kernel("c", vec![c; 3]);

        let cfg = SmConfig {
            max_warps: 16,
            max_threads: 512,
            max_ctas: 8,
            ..SmConfig::default()
        };
        for policy in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            let cfg = SmConfig {
                scheduler: policy,
                ..cfg
            };
            let mut sm = new_sm(cfg);
            let mut m = mem();
            let streams = [(StreamId(0), &graphics), (StreamId(1), &compute)];
            let mut launched = [0usize; 2];
            let mut committed = 0;
            let mut seq = 0;
            let mut now = 0;
            while committed < 2 * 12 {
                for (i, (stream, k)) in streams.iter().enumerate() {
                    let work = CtaWork {
                        stream: *stream,
                        kernel: crisp_trace::KernelId(i as u32),
                        info: Arc::new(crisp_trace::KernelInfo::of(k)),
                        cta: Arc::new(k.ctas[0].clone()),
                        cta_index: launched[i],
                        seq,
                    };
                    if launched[i] < 12
                        && sm.fits(*stream, work.resources(), ResourceQuota::unlimited())
                    {
                        sm.launch_cta(work);
                        launched[i] += 1;
                        seq += 1;
                    }
                }
                committed += sm.cycle(now).commits.len();
                let mut ports = [sm.port_mut()];
                for c in m.tick(now, &mut ports) {
                    sm.on_mem_completion(c.token.id);
                }
                now += 1;
                assert!(now < 1_000_000, "the run finishes");
            }
            assert!(sm.issued_for(StreamId(0)) > 0 && sm.issued_for(StreamId(1)) > 0);
            let st = sm.stalls();
            assert!(
                st.scoreboard > 0 && st.mem_pending > 0,
                "{policy:?}: {st:?}"
            );
        }
    }

    #[test]
    fn lrr_scheduler_completes_and_interleaves() {
        let cfg = SmConfig {
            scheduler: crate::config::SchedulerPolicy::Lrr,
            ..SmConfig::default()
        };
        let mut sm = new_sm(cfg);
        let mut m = mem();
        let k = alu_kernel(50, 4, 1);
        launch(&mut sm, &k, 0, 0);
        let (commits, cycles) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        // Same work under GTO for comparison: both must complete; LRR
        // interleaving may differ in cycles but not by orders of magnitude.
        let mut sm2 = new_sm(SmConfig::default());
        let mut m2 = mem();
        launch(&mut sm2, &k, 0, 0);
        let (_, gto_cycles) = run_to_completion(&mut sm2, &mut m2, 10_000);
        assert!((cycles as f64) < gto_cycles as f64 * 3.0);
        assert!((gto_cycles as f64) < cycles as f64 * 3.0);
    }

    #[test]
    fn partial_warps_execute_correctly() {
        // A warp whose memory access has only 5 active lanes (a tail
        // fragment warp) must coalesce and complete like any other.
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::scattered(
                Space::Global,
                DataClass::Compute,
                4,
                vec![0x100, 0x104, 0x108, 0x10C, 0x2000],
            ),
        ));
        w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]));
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "tail",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let (commits, _) = run_to_completion(&mut sm, &mut m, 10_000);
        assert_eq!(commits.len(), 1);
        // 5 lanes over 2 distinct sectors: exactly 2 L1 accesses.
        assert_eq!(sm.port().stats().total().accesses, 2);
    }

    #[test]
    fn texture_loads_are_classified_as_texture() {
        let mut w = WarpTrace::new();
        w.push(Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, 0x2000, 32),
        ));
        w.seal();
        let k = Arc::new(KernelTrace::new(
            "tex",
            32,
            16,
            0,
            vec![CtaTrace::new(vec![w])],
        ));
        let mut sm = new_sm(SmConfig::default());
        let mut m = mem();
        launch(&mut sm, &k, 0, 0);
        let _ = run_to_completion(&mut sm, &mut m, 10_000);
        let tex = sm.port().stats().get(StreamId(0), DataClass::Texture);
        assert!(
            tex.accesses > 0,
            "texture accesses must be tagged at the L1"
        );
    }
}
