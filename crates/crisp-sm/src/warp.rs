//! Per-warp execution state: trace cursor, scoreboard, blocking status.

use std::io;
use std::sync::Arc;

use crisp_trace::wire::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{CtaTrace, Instr, KernelId, KernelInfo, Op, Reg, StreamId, TraceSource};

/// Why a warp cannot issue right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStatus {
    /// Ready to issue its next instruction (subject to unit availability).
    Ready,
    /// Parked at the named CTA barrier slot (`bar.sync id`); released only
    /// when that slot's arrival count reaches the CTA's live-warp count.
    AtBarrier(u8),
    /// Trace exhausted; warp has exited.
    Exited,
}

/// Invariant: register ids stay below [`crisp_trace::SCOREBOARD_REGS`]
/// (the scoreboard is a `u128` mask). The pre-flight validator
/// (`crisp_trace::validate_bundle`) rejects traces that violate this before
/// they reach the cycle path; the assert is kept as defense-in-depth because
/// a masked release-mode shift (`1u128 << (r.0 & 127)`) would silently alias
/// two registers and corrupt dependency tracking instead of failing loudly.
fn reg_bit(r: Reg) -> u128 {
    assert!(
        r.0 < crisp_trace::SCOREBOARD_REGS,
        "scoreboard supports register ids 0..{}, got {} — run \
         crisp_trace::validate_bundle on the trace before simulating",
        crisp_trace::SCOREBOARD_REGS,
        r.0
    );
    1u128 << r.0
}

/// One resident warp.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Launch geometry of the kernel this warp replays.
    pub info: Arc<KernelInfo>,
    /// The instruction streams of this warp's CTA (shared with the trace
    /// source's resident window).
    pub cta: Arc<CtaTrace>,
    /// Kernel launch the CTA belongs to, for checkpointing and release.
    pub kernel: KernelId,
    /// CTA index within the grid.
    pub cta_index: usize,
    /// Warp index within the CTA.
    pub warp_index: usize,
    /// Resident-CTA handle this warp belongs to (slot id in the SM).
    pub cta_slot: usize,
    /// Stream for statistics.
    pub stream: StreamId,
    /// Next instruction index in the warp's trace.
    pc: usize,
    /// Opcode of the instruction at `pc`, `None` past the end of the trace.
    next_op: Option<Op>,
    /// Register mask of the instruction at `pc`: its sources and its
    /// destination. A scoreboard hazard is `pending_writes & next_regs != 0`.
    next_regs: u128,
    /// Bitmask of registers with writes in flight (bit = register id).
    pub pending_writes: u128,
    /// Subset of [`pending_writes`](Self::pending_writes) whose producer is
    /// an outstanding memory load — used to attribute scoreboard stalls to
    /// memory latency rather than ALU dependencies.
    pub pending_mem: u128,
    /// Current blocking status.
    pub status: WarpStatus,
    /// Issue order tiebreaker: launch sequence (lower = older).
    pub age: u64,
}

impl WarpState {
    /// A fresh warp at the start of its trace.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        info: Arc<KernelInfo>,
        cta: Arc<CtaTrace>,
        kernel: KernelId,
        cta_index: usize,
        warp_index: usize,
        cta_slot: usize,
        stream: StreamId,
        age: u64,
    ) -> Self {
        let mut w = WarpState {
            info,
            cta,
            kernel,
            cta_index,
            warp_index,
            cta_slot,
            stream,
            pc: 0,
            next_op: None,
            next_regs: 0,
            pending_writes: 0,
            pending_mem: 0,
            status: WarpStatus::Ready,
            age,
        };
        w.decode_next();
        w
    }

    /// Next instruction index in the warp's trace.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// The next instruction to issue, if the trace has one.
    pub fn next_instr(&self) -> Option<&Instr> {
        self.cta.warps[self.warp_index].get(self.pc)
    }

    /// Opcode of the next instruction, if the trace has one. Cached, so
    /// the scheduler's scans never touch the trace.
    pub(crate) fn next_op(&self) -> Option<Op> {
        self.next_op
    }

    /// Refresh the cached opcode and register mask for the instruction at
    /// `pc`.
    ///
    /// Decoding never panics, because a launch decodes on the driving
    /// thread: a register id past the scoreboard adds no bit here, and
    /// [`advance`](Self::advance) trips the [`reg_bit`] assert when the
    /// instruction issues.
    fn decode_next(&mut self) {
        let (op, regs) = match self.next_instr() {
            Some(i) => (
                Some(i.op),
                i.src_regs()
                    .chain(i.dst)
                    .fold(0, |m, r| m | 1u128.checked_shl(r.0.into()).unwrap_or(0)),
            ),
            None => (None, 0),
        };
        self.next_op = op;
        self.next_regs = regs;
    }

    /// Whether the scoreboard blocks the next instruction (RAW on its
    /// sources, WAW on its destination).
    pub fn scoreboard_blocks(&self) -> bool {
        self.pending_writes & self.next_regs != 0
    }

    /// Mark `reg` as having a write in flight.
    ///
    /// # Panics
    ///
    /// Panics if the register id is 128 or higher (trace generators keep
    /// dependency register ids small).
    pub fn set_pending(&mut self, reg: Reg) {
        self.pending_writes |= reg_bit(reg);
    }

    /// Mark `reg` as having a *memory load* in flight (also sets the plain
    /// pending bit).
    pub fn set_pending_mem(&mut self, reg: Reg) {
        let bit = reg_bit(reg);
        self.pending_writes |= bit;
        self.pending_mem |= bit;
    }

    /// A write to `reg` has retired.
    pub fn clear_pending(&mut self, reg: Reg) {
        let bit = reg_bit(reg);
        self.pending_writes &= !bit;
        self.pending_mem &= !bit;
    }

    /// Whether the next instruction's scoreboard hazard involves a register
    /// whose producer is an outstanding memory load. Implies
    /// [`scoreboard_blocks`](Self::scoreboard_blocks), because `pending_mem`
    /// is a subset of `pending_writes`.
    pub fn blocked_on_mem(&self) -> bool {
        self.pending_mem & self.next_regs != 0
    }

    /// Advance past the just-issued instruction.
    ///
    /// # Panics
    ///
    /// Panics if the issued instruction names a register id of 128 or
    /// higher.
    pub fn advance(&mut self) {
        if let Some(i) = self.next_instr() {
            i.src_regs().chain(i.dst).for_each(|r| {
                reg_bit(r);
            });
        }
        self.pc += 1;
        self.decode_next();
    }
}

impl CheckpointState for WarpState {
    /// Warps are written as `(kernel id, cta index)` cursors into the
    /// checkpoint's trace source rather than inline instruction payloads;
    /// restore pages the CTA back in through the source.
    type SaveCtx<'a> = ();
    type RestoreCtx<'a> = &'a mut TraceSource;

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        w.u32(self.kernel.0)?;
        w.u64(self.cta_index as u64)?;
        w.u64(self.warp_index as u64)?;
        w.u64(self.cta_slot as u64)?;
        w.stream(self.stream)?;
        w.u64(self.pc as u64)?;
        w.u128(self.pending_writes)?;
        w.u128(self.pending_mem)?;
        match self.status {
            WarpStatus::Ready => w.u8(0)?,
            // Tag byte, then the barrier slot: checkpoint VERSION 3.
            WarpStatus::AtBarrier(id) => {
                w.u8(1)?;
                w.u8(id)?;
            }
            WarpStatus::Exited => w.u8(2)?,
        }
        w.u64(self.age)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, source: &mut TraceSource) -> io::Result<Self> {
        let kernel = KernelId(r.u32()?);
        let cta_index = r.u64()? as usize;
        let warp_index = r.u64()? as usize;
        let cta_slot = r.u64()? as usize;
        let info = source
            .kernel_info(kernel)
            .ok_or_else(|| bad(format!("warp references unknown {kernel}")))?
            .clone();
        if cta_index >= info.grid {
            return Err(bad(format!(
                "warp cta index {cta_index} >= grid {}",
                info.grid
            )));
        }
        // Resident-window sharing: every warp of the same CTA gets the same
        // Arc back, so restore rebuilds exactly the pre-checkpoint sharing.
        let cta = source.fetch_cta(kernel, cta_index)?;
        let n_warps = cta.warps.len();
        if warp_index >= n_warps {
            return Err(bad(format!("warp index {warp_index} >= {n_warps}")));
        }
        let stream = r.stream()?;
        let pc = r.u64()? as usize;
        let pending_writes = r.u128()?;
        let pending_mem = r.u128()?;
        if pending_mem & !pending_writes != 0 {
            return Err(bad("pending_mem must be a subset of pending_writes"));
        }
        let status = match r.u8()? {
            0 => WarpStatus::Ready,
            1 => {
                let id = r.u8()?;
                if id as usize >= crisp_trace::NUM_BARRIERS {
                    return Err(bad(format!("bad barrier slot {id}")));
                }
                WarpStatus::AtBarrier(id)
            }
            2 => WarpStatus::Exited,
            t => return Err(bad(format!("bad warp status tag {t}"))),
        };
        let mut w = WarpState {
            info,
            cta,
            kernel,
            cta_index,
            warp_index,
            cta_slot,
            stream,
            pc,
            next_op: None,
            next_regs: 0,
            pending_writes,
            pending_mem,
            status,
            age: r.u64()?,
        };
        w.decode_next();
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{CtaTrace, MemAccess, Op, Space, Stream, StreamKind, TraceBundle, WarpTrace};

    fn warp_with(instrs: Vec<Instr>) -> WarpState {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        let k = crisp_trace::KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let info = Arc::new(KernelInfo::of(&k));
        let cta = Arc::new(k.ctas[0].clone());
        WarpState::new(info, cta, KernelId(0), 0, 0, 0, StreamId(0), 0)
    }

    fn source_of(instrs: Vec<Instr>) -> TraceSource {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        let k = crisp_trace::KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(k);
        TraceSource::from_bundle(TraceBundle::from_streams(vec![s]))
    }

    #[test]
    fn restore_recomputes_the_hazard_mask() {
        let instrs = vec![Instr::alu(Op::FpFma, Reg(2), &[Reg(1)])];
        let mut w = warp_with(instrs.clone());
        w.set_pending(Reg(1));
        let mut buf = Vec::new();
        w.save(&mut Writer::new(&mut buf), ()).unwrap();
        let restore =
            |instrs| WarpState::restore(&mut Reader::new(buf.as_slice()), &mut source_of(instrs));
        let back = restore(instrs).unwrap();
        assert_eq!(back.next_op(), Some(Op::FpFma));
        assert!(
            back.scoreboard_blocks(),
            "RAW on r1 survives the round trip"
        );
    }

    #[test]
    fn bad_register_decodes_quietly_and_panics_at_issue() {
        let mut w = warp_with(vec![Instr::alu(Op::FpFma, Reg(2), &[Reg(200)])]);
        assert!(!w.scoreboard_blocks(), "register 200 adds no mask bit");
        let issued = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.advance()));
        let msg = *issued.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("scoreboard supports register ids"), "{msg}");
    }

    #[test]
    fn cursor_walks_the_trace() {
        let mut w = warp_with(vec![Instr::alu(Op::IntAlu, Reg(1), &[]), Instr::branch()]);
        assert_eq!(w.next_instr().unwrap().op, Op::IntAlu);
        assert_eq!(w.next_op(), Some(Op::IntAlu));
        w.advance();
        assert_eq!(w.next_instr().unwrap().op, Op::Branch);
        assert_eq!(w.next_op(), Some(Op::Branch));
        w.advance();
        assert_eq!(w.next_instr().unwrap().op, Op::Exit);
        w.advance();
        assert!(w.next_instr().is_none());
        assert_eq!(w.next_op(), None);
        assert!(!w.scoreboard_blocks(), "nothing left to block");
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut w = warp_with(vec![Instr::alu(Op::FpFma, Reg(2), &[Reg(1)])]);
        assert!(!w.scoreboard_blocks());
        w.set_pending(Reg(1));
        assert!(w.scoreboard_blocks(), "RAW on r1");
        w.clear_pending(Reg(1));
        assert!(!w.scoreboard_blocks());
        w.set_pending(Reg(3));
        assert!(!w.scoreboard_blocks(), "r3 is not read or written");
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut w = warp_with(vec![Instr::alu(Op::FpFma, Reg(2), &[])]);
        w.set_pending(Reg(2));
        assert!(w.scoreboard_blocks(), "WAW on r2");
    }

    #[test]
    fn mem_pending_mask_tracks_load_producers() {
        let mut w = warp_with(vec![Instr::alu(Op::FpFma, Reg(3), &[Reg(1), Reg(2)])]);
        w.set_pending(Reg(1)); // ALU producer
        assert!(w.scoreboard_blocks());
        assert!(!w.blocked_on_mem(), "ALU dependency is not a memory stall");
        w.set_pending_mem(Reg(2)); // load producer
        assert!(w.blocked_on_mem(), "load dependency is a memory stall");
        w.clear_pending(Reg(2));
        assert!(!w.blocked_on_mem());
        assert!(w.scoreboard_blocks(), "r1 still pending");
        assert_eq!(w.pending_mem, 0, "clear_pending clears the mem bit too");
    }

    #[test]
    fn stores_reading_pending_data_block() {
        let mut w = warp_with(vec![Instr::store(
            Reg(3),
            MemAccess::coalesced(Space::Global, crisp_trace::DataClass::Compute, 4, 0, 32),
        )]);
        w.set_pending(Reg(3));
        assert!(w.scoreboard_blocks());
    }
}
