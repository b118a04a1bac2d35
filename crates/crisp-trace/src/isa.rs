//! The instruction-level trace format.
//!
//! Instructions carry only what a trace-driven timing model consumes:
//! an opcode *class* (which selects a latency/throughput pipe), register-level
//! dependencies, and — for memory instructions — per-lane addresses tagged
//! with an address space and a data class.

/// Number of threads in a warp. Fixed at 32, matching every NVIDIA GPU the
/// paper models.
pub const WARP_SIZE: usize = 32;

/// Maximum number of source registers recorded per instruction.
pub const MAX_SRCS: usize = 3;

/// Number of named CTA barrier slots (PTX exposes `bar.sync 0..15`).
pub const NUM_BARRIERS: usize = 16;

/// An architectural register identifier local to a warp.
///
/// Trace-level dependencies are expressed between these; the timing model's
/// scoreboard tracks pending writes per `(warp, Reg)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

/// Memory address spaces distinguished by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device memory through L1 → L2 → DRAM.
    Global,
    /// On-chip shared memory (scratchpad); never leaves the SM.
    Shared,
    /// Thread-local spill space; behaves like `Global` in the hierarchy.
    Local,
    /// Texture fetch. CRISP routes these through the *unified* L1 data cache
    /// (contemporary GPUs no longer have a separate texture cache), but the
    /// tag is kept so texture traffic can be accounted separately.
    Tex,
}

impl Space {
    /// Whether accesses to this space traverse the L1/L2/DRAM hierarchy.
    pub fn is_cached(self) -> bool {
        !matches!(self, Space::Shared)
    }
}

/// Classification of the data a memory access touches, used for the L2
/// composition case studies (paper Figures 11 and 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataClass {
    /// Texel data fetched by texture units.
    Texture,
    /// Inter-stage graphics pipeline data: vertex attributes redistributed
    /// through the L2, framebuffer writes from the black-box stages.
    Pipeline,
    /// General-purpose compute data (CUDA kernels).
    Compute,
}

impl DataClass {
    /// All classes, in display order.
    pub const ALL: [DataClass; 3] = [DataClass::Texture, DataClass::Pipeline, DataClass::Compute];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DataClass::Texture => "texture",
            DataClass::Pipeline => "pipeline",
            DataClass::Compute => "compute",
        }
    }
}

/// Dynamic opcode classes.
///
/// The timing model maps each class to an execution pipe (FP / INT / SFU /
/// TENSOR / LSU) with a (latency, initiation-interval) pair; the functional
/// semantics are irrelevant to replay and are not recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer ALU (IADD, LOP, SHF, ...).
    IntAlu,
    /// Single-cycle-throughput FP add/compare class.
    FpAlu,
    /// FP multiply.
    FpMul,
    /// Fused multiply-add (the workhorse of shading and GEMM).
    FpFma,
    /// Special-function unit: rsqrt, sin, exp, interpolation.
    Sfu,
    /// Tensor-core MMA class.
    Tensor,
    /// Control flow; models branch latency only (divergence is already baked
    /// into the trace via active masks).
    Branch,
    /// CTA-wide barrier at a named slot (PTX `bar.sync 0..15`). Warps of one
    /// CTA parked at *different* slots never release each other — equal
    /// per-warp barrier totals with divergent slot sequences are exactly the
    /// deadlock the static prover (`crisp-analyze`'s `cfg` pass) rejects at
    /// admission.
    Bar(u8),
    /// Warp termination.
    Exit,
    /// Memory load from `Space`.
    Ld(Space),
    /// Memory store to `Space`.
    St(Space),
}

impl Op {
    /// Whether this opcode carries a [`MemAccess`].
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Ld(_) | Op::St(_))
    }

    /// Whether this opcode is a load.
    pub fn is_load(self) -> bool {
        matches!(self, Op::Ld(_))
    }
}

/// The memory behaviour of one dynamic warp instruction: per-active-lane
/// byte addresses plus space/class tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    /// Address space.
    pub space: Space,
    /// Data classification for composition accounting.
    pub class: DataClass,
    /// Bytes accessed per lane (4 for a 32-bit load, 16 for a vec4, ...).
    pub width: u8,
    /// Byte addresses of the *active* lanes (1..=32 entries).
    pub addrs: Vec<u64>,
}

impl MemAccess {
    /// A fully-coalesced unit-stride access: `lanes` consecutive lanes each
    /// touching `width` bytes starting at `base`.
    pub fn coalesced(space: Space, class: DataClass, width: u8, base: u64, lanes: usize) -> Self {
        assert!((1..=WARP_SIZE).contains(&lanes), "lanes must be 1..=32");
        MemAccess {
            space,
            class,
            width,
            addrs: (0..lanes as u64).map(|l| base + l * width as u64).collect(),
        }
    }

    /// An access with explicit per-lane addresses.
    pub fn scattered(space: Space, class: DataClass, width: u8, addrs: Vec<u64>) -> Self {
        assert!(!addrs.is_empty() && addrs.len() <= WARP_SIZE);
        MemAccess {
            space,
            class,
            width,
            addrs,
        }
    }

    /// Distinct aligned chunks of `chunk` bytes touched by this access.
    /// With `chunk = 32` this yields the sector count the coalescer produces;
    /// with `chunk = 128` the cache-line count.
    pub fn distinct_chunks(&self, chunk: u64) -> Vec<u64> {
        let mut v = Vec::new();
        self.distinct_chunks_into(chunk, &mut v);
        v
    }

    /// Allocation-free [`Self::distinct_chunks`]: clears `out` and fills it
    /// with the distinct chunk ids. Hot paths (functional cache warming
    /// replays every memory instruction of a skipped region) reuse one
    /// scratch vector across millions of calls.
    ///
    /// A power-of-two `chunk` (every caller's) maps an address with a shift
    /// instead of a division. Each chunk id is inserted into the sorted
    /// output as it is produced, so the output never holds more than the
    /// distinct ids and needs no sort.
    pub fn distinct_chunks_into(&self, chunk: u64, out: &mut Vec<u64>) {
        out.clear();
        if chunk.is_power_of_two() {
            let shift = chunk.trailing_zeros();
            self.insert_chunks(out, |a| a >> shift);
        } else {
            self.insert_chunks(out, |a| a / chunk);
        }
    }

    #[inline(always)]
    fn insert_chunks(&self, out: &mut Vec<u64>, chunk_of: impl Fn(u64) -> u64) {
        let w = self.width as u64;
        let mut prev = None;
        for &a in &self.addrs {
            let (first, last) = (chunk_of(a), chunk_of(a + w - 1));
            // Most lanes fall in the chunk their neighbour ended in.
            if first == last && prev == Some(first) {
                continue;
            }
            prev = Some(last);
            for c in first..=last {
                // Lanes mostly ascend: walk back from the largest id.
                let mut at = out.len();
                while at > 0 && out[at - 1] > c {
                    at -= 1;
                }
                if at == 0 || out[at - 1] != c {
                    out.insert(at, c);
                }
            }
        }
    }
}

/// One dynamic warp instruction.
///
/// `dst`/`srcs` express the register dependencies the scoreboard enforces.
/// Memory instructions additionally carry a [`MemAccess`].
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Opcode class.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers (up to [`MAX_SRCS`]).
    pub srcs: [Option<Reg>; MAX_SRCS],
    /// Memory behaviour for `Ld`/`St` opcodes.
    pub mem: Option<MemAccess>,
}

impl Instr {
    /// An ALU-class instruction `dst = op(srcs...)`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory opcode or more than [`MAX_SRCS`] sources
    /// are given.
    pub fn alu(op: Op, dst: Reg, srcs: &[Reg]) -> Self {
        assert!(!op.is_mem(), "use Instr::load/Instr::store for memory ops");
        assert!(srcs.len() <= MAX_SRCS, "at most {MAX_SRCS} sources");
        let mut s = [None; MAX_SRCS];
        for (slot, &r) in s.iter_mut().zip(srcs) {
            *slot = Some(r);
        }
        Instr {
            op,
            dst: Some(dst),
            srcs: s,
            mem: None,
        }
    }

    /// A load writing `dst`.
    pub fn load(dst: Reg, mem: MemAccess) -> Self {
        Instr {
            op: Op::Ld(mem.space),
            dst: Some(dst),
            srcs: [None; MAX_SRCS],
            mem: Some(mem),
        }
    }

    /// A store reading `src`.
    pub fn store(src: Reg, mem: MemAccess) -> Self {
        Instr {
            op: Op::St(mem.space),
            dst: None,
            srcs: [Some(src), None, None],
            mem: Some(mem),
        }
    }

    /// A CTA barrier at the default slot 0 (`bar.sync 0`).
    pub fn bar() -> Self {
        Instr::bar_at(0)
    }

    /// A CTA barrier at a named slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`NUM_BARRIERS`].
    pub fn bar_at(id: u8) -> Self {
        assert!(
            (id as usize) < NUM_BARRIERS,
            "barrier slot must be 0..{NUM_BARRIERS}"
        );
        Instr {
            op: Op::Bar(id),
            dst: None,
            srcs: [None; MAX_SRCS],
            mem: None,
        }
    }

    /// A branch (control-flow latency marker).
    pub fn branch() -> Self {
        Instr {
            op: Op::Branch,
            dst: None,
            srcs: [None; MAX_SRCS],
            mem: None,
        }
    }

    /// The warp-terminating instruction.
    pub fn exit() -> Self {
        Instr {
            op: Op::Exit,
            dst: None,
            srcs: [None; MAX_SRCS],
            mem: None,
        }
    }

    /// Iterator over the source registers that are present.
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_access_covers_consecutive_addresses() {
        let m = MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x100, 32);
        assert_eq!(m.addrs.len(), 32);
        assert_eq!(m.addrs[0], 0x100);
        assert_eq!(m.addrs[31], 0x100 + 31 * 4);
    }

    #[test]
    fn coalesced_32b_lanes_touch_one_line() {
        let m = MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x0, 32);
        assert_eq!(m.distinct_chunks(128), vec![0]);
        assert_eq!(m.distinct_chunks(32), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unaligned_wide_access_straddles_chunks() {
        // A 16-byte access starting 8 bytes before a 32B boundary straddles
        // two sectors.
        let m = MemAccess::scattered(Space::Global, DataClass::Compute, 16, vec![24]);
        assert_eq!(m.distinct_chunks(32), vec![0, 1]);
    }

    #[test]
    fn scattered_access_distinct_lines() {
        let m = MemAccess::scattered(Space::Tex, DataClass::Texture, 4, vec![0, 128, 256, 130]);
        assert_eq!(m.distinct_chunks(128), vec![0, 1, 2]);
    }

    #[test]
    fn distinct_chunks_match_a_sorted_deduplicated_reference() {
        // splitmix64: a dependency-free, reproducible stream.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut out = Vec::new();
        for case in 0..20_000u64 {
            let lanes = 1 + (next() % 32) as usize;
            let width = 1 + (next() % 32) as u8;
            let base = next() % (1 << 20);
            let stride = next() % 80;
            let addrs: Vec<u64> = (0..lanes as u64)
                .map(|l| match case % 4 {
                    // Ascending with an arbitrary (often unaligned) stride.
                    0 => base + l * stride,
                    // Descending.
                    1 => base + (lanes as u64 - l) * stride,
                    // Duplicated lanes.
                    2 => base + (l / 4) * stride,
                    // Scattered and unaligned.
                    _ => next() % (1 << 12),
                })
                .collect();
            let m = MemAccess::scattered(Space::Global, DataClass::Compute, width, addrs);
            for chunk in [4, 32, 128, 48] {
                let mut reference = Vec::new();
                for &a in &m.addrs {
                    reference.extend(a / chunk..=(a + width as u64 - 1) / chunk);
                }
                reference.sort_unstable();
                reference.dedup();
                m.distinct_chunks_into(chunk, &mut out);
                assert_eq!(out, reference, "{m:?}, chunk {chunk}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lanes must be 1..=32")]
    fn coalesced_rejects_zero_lanes() {
        let _ = MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 0);
    }

    #[test]
    fn alu_builder_records_deps() {
        let i = Instr::alu(Op::FpFma, Reg(5), &[Reg(1), Reg(2), Reg(3)]);
        assert_eq!(i.dst, Some(Reg(5)));
        assert_eq!(
            i.src_regs().collect::<Vec<_>>(),
            vec![Reg(1), Reg(2), Reg(3)]
        );
        assert!(i.mem.is_none());
    }

    #[test]
    #[should_panic(expected = "memory ops")]
    fn alu_builder_rejects_mem_opcode() {
        let _ = Instr::alu(Op::Ld(Space::Global), Reg(0), &[]);
    }

    #[test]
    fn load_store_builders_tag_space() {
        let ld = Instr::load(
            Reg(1),
            MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, 0, 32),
        );
        assert_eq!(ld.op, Op::Ld(Space::Tex));
        assert!(ld.op.is_load());
        let st = Instr::store(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Pipeline, 4, 0, 32),
        );
        assert_eq!(st.op, Op::St(Space::Global));
        assert!(!st.op.is_load());
        assert!(st.op.is_mem());
    }

    #[test]
    fn bar_builders_tag_the_slot() {
        assert_eq!(Instr::bar().op, Op::Bar(0));
        assert_eq!(Instr::bar_at(15).op, Op::Bar(15));
    }

    #[test]
    #[should_panic(expected = "barrier slot")]
    fn bar_at_rejects_out_of_range_slot() {
        let _ = Instr::bar_at(16);
    }

    #[test]
    fn shared_space_is_not_cached() {
        assert!(!Space::Shared.is_cached());
        assert!(Space::Global.is_cached());
        assert!(Space::Tex.is_cached());
        assert!(Space::Local.is_cached());
    }

    #[test]
    fn data_class_labels_are_distinct() {
        let labels: Vec<_> = DataClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["texture", "pipeline", "compute"]);
    }
}
