//! Execution-unit pipeline groups.
//!
//! Each opcode class maps to a group of identical pipelines. A pipeline
//! accepts one warp instruction per initiation interval; the instruction's
//! result writes back `latency` cycles later. Contention on these groups is
//! what the warped-slicer case study surfaces ("running concurrently with
//! the graphics workload causes FP bottlenecks" for HOLO).

use std::io;

use crisp_trace::wire::{bad, CheckpointState, Reader, Writer};
use crisp_trace::Op;

use crate::config::SmConfig;

/// A pipeline group: the opcodes that share one set of pipes. Variant
/// order is checkpoint order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pipe {
    Fp,
    Int,
    Sfu,
    Tensor,
}

impl Pipe {
    /// The group executing `op`; `None` for memory, barrier and exit.
    pub(crate) fn of(op: Op) -> Option<Pipe> {
        match op {
            Op::IntAlu | Op::Branch => Some(Pipe::Int),
            Op::FpAlu | Op::FpMul | Op::FpFma => Some(Pipe::Fp),
            Op::Sfu => Some(Pipe::Sfu),
            Op::Tensor => Some(Pipe::Tensor),
            Op::Bar(_) | Op::Exit | Op::Ld(_) | Op::St(_) => None,
        }
    }
}

/// Per-class pipeline availability for one SM.
#[derive(Debug, Clone)]
pub struct ExecUnits {
    /// Per [`Pipe`], the cycle each of its pipes next accepts an
    /// instruction.
    groups: [Vec<u64>; 4],
}

impl ExecUnits {
    /// Pipelines per the SM configuration, all idle.
    pub fn new(cfg: &SmConfig) -> Self {
        ExecUnits {
            groups: group_sizes(cfg).map(|n| vec![0; n as usize]),
        }
    }

    /// Try to start `op` at cycle `now`; returns `false` if every pipeline
    /// in the class is still within its initiation interval. Opcodes without
    /// a pipeline group (memory, barrier, exit) always succeed.
    pub fn try_issue(&mut self, op: Op, now: u64, cfg: &SmConfig) -> bool {
        let (_lat, ii) = cfg.timing(op);
        let Some(pipe) = Pipe::of(op) else {
            return true;
        };
        let group = &mut self.groups[pipe as usize];
        match group.iter_mut().find(|next_free| **next_free <= now) {
            Some(next_free) => {
                *next_free = now + ii;
                true
            }
            None => false,
        }
    }

    /// Number of busy pipelines in `op`'s class at `now` (0 for classes
    /// without pipelines).
    pub fn busy_count(&self, op: Op, now: u64) -> usize {
        Pipe::of(op).map_or(0, |p| {
            self.groups[p as usize].iter().filter(|&&t| t > now).count()
        })
    }

    /// Whether some pipe of `pipe` can accept an instruction at `now`
    /// (false for a group configured with no pipes).
    pub(crate) fn has_free(&self, pipe: Pipe, now: u64) -> bool {
        self.groups[pipe as usize].iter().any(|&t| t <= now)
    }

    /// The earliest cycle after `now` at which a busy pipeline frees up,
    /// if any is busy.
    pub(crate) fn next_free_after(&self, now: u64) -> Option<u64> {
        self.groups
            .iter()
            .flatten()
            .copied()
            .filter(|&t| t > now)
            .min()
    }
}

/// Pipes per group, in [`Pipe`] order.
fn group_sizes(cfg: &SmConfig) -> [u32; 4] {
    [cfg.fp_units, cfg.int_units, cfg.sfu_units, cfg.tensor_units]
}

impl CheckpointState for ExecUnits {
    type SaveCtx<'a> = ();
    /// The SM configuration, which fixes the pipeline counts.
    type RestoreCtx<'a> = &'a SmConfig;

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        for group in &self.groups {
            w.len(group.len())?;
            for &next_free in group {
                w.u64(next_free)?;
            }
        }
        Ok(())
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, cfg: &SmConfig) -> io::Result<Self> {
        let mut groups: [Vec<u64>; 4] = Default::default();
        for (group, expected) in groups.iter_mut().zip(group_sizes(cfg)) {
            let n = r.len(expected as usize)?;
            if n != expected as usize {
                return Err(bad(format!(
                    "exec-unit group has {n} pipes, config implies {expected}"
                )));
            }
            *group = (0..n).map(|_| r.u64()).collect::<io::Result<_>>()?;
        }
        Ok(ExecUnits { groups })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_group_saturates_at_unit_count() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..cfg.fp_units {
            assert!(u.try_issue(Op::FpFma, 0, &cfg));
        }
        assert!(
            !u.try_issue(Op::FpFma, 0, &cfg),
            "all 4 FP pipes taken this cycle"
        );
        assert!(
            u.try_issue(Op::FpFma, 1, &cfg),
            "II=1 frees them next cycle"
        );
    }

    #[test]
    fn sfu_initiation_interval_blocks_longer() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..cfg.sfu_units {
            assert!(u.try_issue(Op::Sfu, 0, &cfg));
        }
        assert!(!u.try_issue(Op::Sfu, 3, &cfg), "II=4 still busy at cycle 3");
        assert!(u.try_issue(Op::Sfu, 4, &cfg));
    }

    #[test]
    fn classes_do_not_interfere() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..cfg.fp_units {
            let _ = u.try_issue(Op::FpFma, 0, &cfg);
        }
        assert!(
            u.try_issue(Op::IntAlu, 0, &cfg),
            "INT pipes unaffected by FP pressure"
        );
        assert!(u.try_issue(Op::Tensor, 0, &cfg));
    }

    #[test]
    fn memory_and_control_never_block_on_units() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        for _ in 0..100 {
            assert!(u.try_issue(Op::Ld(crisp_trace::Space::Global), 0, &cfg));
            assert!(u.try_issue(Op::Bar(0), 0, &cfg));
        }
    }

    #[test]
    fn busy_count_reflects_in_flight_iis() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        let _ = u.try_issue(Op::Sfu, 10, &cfg);
        let _ = u.try_issue(Op::Sfu, 10, &cfg);
        assert_eq!(u.busy_count(Op::Sfu, 10), 2);
        assert_eq!(u.busy_count(Op::Sfu, 14), 0);
        assert!(u.has_free(Pipe::Sfu, 10), "2 of 4 SFU pipes are busy");
        for _ in 0..2 {
            let _ = u.try_issue(Op::Sfu, 10, &cfg);
        }
        assert!(!u.has_free(Pipe::Sfu, 13));
        assert!(u.has_free(Pipe::Sfu, 14));
    }

    #[test]
    fn next_free_after_finds_the_earliest_busy_pipe() {
        let cfg = SmConfig::default();
        let mut u = ExecUnits::new(&cfg);
        assert_eq!(u.next_free_after(0), None, "all idle");
        let _ = u.try_issue(Op::Sfu, 10, &cfg); // free at 14
        let _ = u.try_issue(Op::FpFma, 11, &cfg); // free at 12
        assert_eq!(u.next_free_after(11), Some(12));
        assert_eq!(u.next_free_after(12), Some(14));
        assert_eq!(u.next_free_after(14), None);
    }
}
