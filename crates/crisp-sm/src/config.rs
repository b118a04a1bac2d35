//! SM configuration: resource caps and execution-pipe timing.

use std::io;

use crisp_trace::wire::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{Op, Space};

/// Warp-scheduler selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing from the same warp until it
    /// stalls, then fall back to the oldest ready warp (Accel-Sim's
    /// default, best for locality).
    Gto,
    /// Loose round-robin: rotate through ready warps, spreading issue
    /// bandwidth evenly (better fairness, worse intra-warp locality).
    Lrr,
}

/// Warp slots one scheduler can own: its ready set is one `u64` mask.
pub(crate) const MAX_WARPS_PER_SCHEDULER: u32 = 64;

/// Static configuration of one SM.
///
/// Defaults follow the paper's Table II (shared by the Jetson Orin and the
/// RTX 3070 rows): 64 warps, 4 schedulers, 65536 registers, 4 units of each
/// execution class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmConfig {
    /// Maximum resident warps.
    pub max_warps: u32,
    /// Maximum resident threads (warp slots × 32 unless reduced).
    pub max_threads: u32,
    /// Maximum resident CTAs.
    pub max_ctas: u32,
    /// Architectural registers in the register file.
    pub max_regs: u32,
    /// Shared-memory capacity in bytes (the L1 carve-out).
    pub max_smem: u32,
    /// Warp schedulers (issue ports) per SM.
    pub schedulers: u32,
    /// FP32 pipelines.
    pub fp_units: u32,
    /// Integer pipelines.
    pub int_units: u32,
    /// Special-function pipelines.
    pub sfu_units: u32,
    /// Tensor-core pipelines.
    pub tensor_units: u32,
    /// Sector accesses the LSU can present to the L1 per cycle
    /// (4 × 32 B = 128 B/cycle, the Ampere L1 port width).
    pub l1_ports: u32,
    /// Pending memory instructions the LSU queue holds.
    pub lsu_queue_depth: usize,
    /// Shared-memory access latency in cycles.
    pub smem_latency: u64,
    /// Warp-scheduler policy.
    pub scheduler: SchedulerPolicy,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            max_warps: 64,
            max_threads: 2048,
            max_ctas: 32,
            max_regs: 65536,
            max_smem: 100 << 10,
            schedulers: 4,
            fp_units: 4,
            int_units: 4,
            sfu_units: 4,
            tensor_units: 4,
            l1_ports: 4,
            lsu_queue_depth: 8,
            smem_latency: 29,
            scheduler: SchedulerPolicy::Gto,
        }
    }
}

impl SmConfig {
    /// (latency, initiation interval) of an opcode's execution pipe.
    ///
    /// Memory opcodes return the pipe cost of address generation; their real
    /// latency comes from the memory system.
    pub fn timing(&self, op: Op) -> (u64, u64) {
        match op {
            Op::IntAlu => (4, 1),
            Op::FpAlu | Op::FpMul | Op::FpFma => (4, 1),
            Op::Sfu => (21, 4),
            Op::Tensor => (16, 2),
            Op::Branch => (2, 1),
            Op::Bar(_) | Op::Exit => (1, 1),
            Op::Ld(Space::Shared) | Op::St(Space::Shared) => (self.smem_latency, 1),
            Op::Ld(_) | Op::St(_) => (1, 1),
        }
    }

    /// Number of pipes available for an opcode class.
    pub fn units_for(&self, op: Op) -> u32 {
        match op {
            Op::IntAlu | Op::Branch => self.int_units,
            Op::FpAlu | Op::FpMul | Op::FpFma => self.fp_units,
            Op::Sfu => self.sfu_units,
            Op::Tensor => self.tensor_units,
            // Memory ops contend on the LSU queue instead of a pipe group.
            Op::Bar(_) | Op::Exit | Op::Ld(_) | Op::St(_) => self.schedulers,
        }
    }
}

impl CheckpointState for SmConfig {
    type SaveCtx<'a> = ();
    type RestoreCtx<'a> = ();

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        w.u32(self.max_warps)?;
        w.u32(self.max_threads)?;
        w.u32(self.max_ctas)?;
        w.u32(self.max_regs)?;
        w.u32(self.max_smem)?;
        w.u32(self.schedulers)?;
        w.u32(self.fp_units)?;
        w.u32(self.int_units)?;
        w.u32(self.sfu_units)?;
        w.u32(self.tensor_units)?;
        w.u32(self.l1_ports)?;
        w.u64(self.lsu_queue_depth as u64)?;
        w.u64(self.smem_latency)?;
        w.u8(match self.scheduler {
            SchedulerPolicy::Gto => 0,
            SchedulerPolicy::Lrr => 1,
        })
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, _: ()) -> io::Result<Self> {
        let cfg = SmConfig {
            max_warps: r.u32()?,
            max_threads: r.u32()?,
            max_ctas: r.u32()?,
            max_regs: r.u32()?,
            max_smem: r.u32()?,
            schedulers: r.u32()?,
            fp_units: r.u32()?,
            int_units: r.u32()?,
            sfu_units: r.u32()?,
            tensor_units: r.u32()?,
            l1_ports: r.u32()?,
            lsu_queue_depth: r.u64()? as usize,
            smem_latency: r.u64()?,
            scheduler: match r.u8()? {
                0 => SchedulerPolicy::Gto,
                1 => SchedulerPolicy::Lrr,
                t => return Err(bad(format!("unknown scheduler policy tag {t}"))),
            },
        };
        // Restored counts bound later allocations (warp slots, pipeline
        // vectors, LSU queue) — reject values a real SM could never have
        // before anything is sized from them.
        if cfg.max_warps == 0 || cfg.max_warps > 4096 {
            return Err(bad(format!("implausible max_warps {}", cfg.max_warps)));
        }
        if cfg.max_ctas == 0 || cfg.max_ctas > 4096 {
            return Err(bad(format!("implausible max_ctas {}", cfg.max_ctas)));
        }
        if cfg.schedulers == 0 || cfg.schedulers > 4096 {
            return Err(bad(format!("implausible schedulers {}", cfg.schedulers)));
        }
        if cfg.max_warps > MAX_WARPS_PER_SCHEDULER * cfg.schedulers {
            return Err(bad(format!(
                "max_warps {} exceeds {MAX_WARPS_PER_SCHEDULER} per scheduler ({} schedulers)",
                cfg.max_warps, cfg.schedulers
            )));
        }
        for (name, v) in [
            ("fp_units", cfg.fp_units),
            ("int_units", cfg.int_units),
            ("sfu_units", cfg.sfu_units),
            ("tensor_units", cfg.tensor_units),
            ("l1_ports", cfg.l1_ports),
        ] {
            if v > 4096 {
                return Err(bad(format!("implausible {name} {v}")));
            }
        }
        if cfg.lsu_queue_depth > 1 << 16 {
            return Err(bad(format!(
                "implausible lsu_queue_depth {}",
                cfg.lsu_queue_depth
            )));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = SmConfig::default();
        assert_eq!(c.max_warps, 64);
        assert_eq!(c.schedulers, 4);
        assert_eq!(c.max_regs, 65536);
        assert_eq!(c.fp_units, 4);
        assert_eq!(c.sfu_units, 4);
        assert_eq!(c.int_units, 4);
        assert_eq!(c.tensor_units, 4);
    }

    #[test]
    fn sfu_is_long_latency_low_throughput() {
        let c = SmConfig::default();
        let (fp_lat, fp_ii) = c.timing(Op::FpFma);
        let (sfu_lat, sfu_ii) = c.timing(Op::Sfu);
        assert!(sfu_lat > fp_lat);
        assert!(sfu_ii > fp_ii);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_config() {
        let c = SmConfig {
            max_warps: 48,
            scheduler: SchedulerPolicy::Lrr,
            ..SmConfig::default()
        };
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        c.save(&mut w, ()).unwrap();
        let mut r = Reader::new(buf.as_slice());
        assert_eq!(SmConfig::restore(&mut r, ()).unwrap(), c);
    }

    #[test]
    fn checkpoint_restore_rejects_implausible_counts() {
        let c = SmConfig {
            max_warps: 1 << 20,
            ..SmConfig::default()
        };
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        c.save(&mut w, ()).unwrap();
        let mut r = Reader::new(buf.as_slice());
        let err = SmConfig::restore(&mut r, ()).unwrap_err();
        assert!(err.to_string().contains("max_warps"));

        // More warps than the schedulers' masks can hold.
        for (max_warps, schedulers, ok) in [(256, 4, true), (257, 4, false), (65, 1, false)] {
            let c = SmConfig {
                max_warps,
                max_threads: max_warps * 32,
                schedulers,
                ..SmConfig::default()
            };
            let mut buf = Vec::new();
            c.save(&mut Writer::new(&mut buf), ()).unwrap();
            let restored = SmConfig::restore(&mut Reader::new(buf.as_slice()), ());
            match restored {
                Ok(r) => assert!(ok && r == c, "{max_warps} warps on {schedulers}"),
                Err(e) => assert!(
                    !ok && e.to_string().contains("per scheduler"),
                    "{max_warps} warps on {schedulers}: {e}"
                ),
            }
        }
    }

    #[test]
    fn shared_memory_latency_is_configurable() {
        let c = SmConfig {
            smem_latency: 40,
            ..SmConfig::default()
        };
        assert_eq!(c.timing(Op::Ld(Space::Shared)).0, 40);
    }
}
