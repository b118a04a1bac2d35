//! The load-store unit: coalescing and L1-port arbitration.
//!
//! A memory instruction's per-lane addresses are coalesced into distinct
//! 32 B sectors at issue; the LSU then presents at most
//! [`SmConfig::l1_ports`] sectors per cycle to the unified L1. A texture
//! fetch that touches many sectors therefore occupies the L1 data port for
//! several cycles — this is the "L1 data port pressure" the paper's LoD
//! case study shows is exaggerated 6× when mipmapping is not modelled.

use std::collections::VecDeque;
use std::io;

use crisp_mem::{L1AccessResult, MemReq, ReqToken, SmMemPort};
use crisp_trace::wire::{bad, CheckpointState, Reader, Writer};
use crisp_trace::{DataClass, Space, StreamId, WARP_SIZE};

use crate::config::SmConfig;

/// One memory instruction queued in the LSU.
#[derive(Debug, Clone)]
pub(crate) struct LsuEntry {
    pub stream: StreamId,
    pub class: DataClass,
    pub space: Space,
    pub is_load: bool,
    /// Distinct sector addresses left to present (empty for shared memory,
    /// which is modelled as one conflict-free port slot).
    pub sectors: Vec<u64>,
    pub next: usize,
    /// Token id shared by every sector of this instruction.
    pub inflight_id: u64,
}

/// The per-SM load-store unit.
///
/// Sector lists are recycled: a retired entry hands its list back to
/// `spare`, and `Lsu::sector_buf` gives it to the next memory
/// instruction. A list is created with room for the widest coalescing
/// result, so the steady state issues memory instructions without
/// allocating.
#[derive(Debug)]
pub struct Lsu {
    queue: VecDeque<LsuEntry>,
    spare: Vec<Vec<u64>>,
    depth: usize,
    sectors_issued: u64,
}

impl Lsu {
    /// An empty LSU with the configured queue depth.
    pub fn new(cfg: &SmConfig) -> Self {
        Lsu {
            queue: VecDeque::new(),
            spare: Vec::with_capacity(cfg.lsu_queue_depth),
            depth: cfg.lsu_queue_depth,
            sectors_issued: 0,
        }
    }

    /// Whether another memory instruction can be accepted this cycle.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.depth
    }

    /// Whether any instruction is still being processed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Memory instructions currently queued (issued but not fully presented
    /// to the L1). Used by diagnostic snapshots.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total sectors presented to the L1/shared memory so far.
    pub fn sectors_issued(&self) -> u64 {
        self.sectors_issued
    }

    pub(crate) fn push(&mut self, e: LsuEntry) {
        debug_assert!(self.has_room(), "caller must check has_room");
        self.queue.push_back(e);
    }

    /// An empty sector list for the next memory instruction, recycled from
    /// a retired entry when one is available. Room for two sectors per
    /// lane covers every access up to 32 bytes wide.
    pub(crate) fn sector_buf(&mut self) -> Vec<u64> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(2 * WARP_SIZE))
    }

    /// Drop the head entry, keeping its sector list for reuse.
    fn retire_head(&mut self) {
        if let Some(mut e) = self.queue.pop_front() {
            if e.sectors.capacity() > 0 {
                e.sectors.clear();
                self.spare.push(e.sectors);
            }
        }
    }

    /// Work the head of the queue, presenting up to `cfg.l1_ports` sectors
    /// to the SM's private memory port. Every load sector satisfied locally
    /// (L1 hit or shared memory) goes to `ready` as `(inflight_id,
    /// ready_at)`; misses complete later through the memory system.
    ///
    /// Returns whether the LSU can make no further progress until the
    /// memory system answers: the queue is empty, or its head load was
    /// refused by the L1 MSHRs (only a fill, which always arrives as a
    /// completion, frees them).
    pub(crate) fn process(
        &mut self,
        sm_id: usize,
        now: u64,
        cfg: &SmConfig,
        port: &mut SmMemPort,
        mut ready: impl FnMut(u64, u64),
    ) -> bool {
        let mut budget = cfg.l1_ports;
        while budget > 0 {
            let Some(head) = self.queue.front_mut() else {
                break;
            };
            // Shared-memory instructions: one conflict-free port slot.
            if head.space == Space::Shared {
                budget -= 1;
                self.sectors_issued += 1;
                if head.is_load {
                    ready(head.inflight_id, now + cfg.smem_latency);
                }
                self.retire_head();
                continue;
            }
            if head.next >= head.sectors.len() {
                self.retire_head();
                continue;
            }
            let addr = head.sectors[head.next];
            let token = ReqToken {
                sm: sm_id as u16,
                id: head.inflight_id,
            };
            if head.is_load {
                let req = MemReq::read(addr, head.stream, head.class, token);
                match port.read(req, now) {
                    L1AccessResult::Hit { ready_at } => ready(head.inflight_id, ready_at),
                    L1AccessResult::Pending => {}
                    // Retry the same sector next cycle.
                    L1AccessResult::Stall => return true,
                }
            } else {
                let req = MemReq::write(addr, head.stream, head.class, token);
                port.write(req);
            }
            head.next += 1;
            budget -= 1;
            self.sectors_issued += 1;
            if head.next >= head.sectors.len() {
                self.retire_head();
            }
        }
        self.queue.is_empty()
    }
}

impl CheckpointState for LsuEntry {
    type SaveCtx<'a> = ();
    type RestoreCtx<'a> = ();

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        w.stream(self.stream)?;
        w.class(self.class)?;
        w.space(self.space)?;
        w.bool(self.is_load)?;
        w.len(self.sectors.len())?;
        for &s in &self.sectors {
            w.u64(s)?;
        }
        w.u64(self.next as u64)?;
        w.u64(self.inflight_id)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, _: ()) -> io::Result<Self> {
        let stream = r.stream()?;
        let class = r.class()?;
        let space = r.space()?;
        let is_load = r.bool()?;
        let n = r.len(1 << 16)?;
        let mut sectors = Vec::with_capacity(n);
        for _ in 0..n {
            sectors.push(r.u64()?);
        }
        let next = r.u64()? as usize;
        if next > sectors.len() {
            return Err(bad("lsu entry cursor past its sector list"));
        }
        Ok(LsuEntry {
            stream,
            class,
            space,
            is_load,
            sectors,
            next,
            inflight_id: r.u64()?,
        })
    }
}

impl CheckpointState for Lsu {
    type SaveCtx<'a> = ();
    /// The SM configuration, which fixes the queue depth.
    type RestoreCtx<'a> = &'a SmConfig;

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        w.len(self.queue.len())?;
        for e in &self.queue {
            e.save(w, ())?;
        }
        w.u64(self.sectors_issued)
    }

    fn restore<R: io::Read>(r: &mut Reader<R>, cfg: &SmConfig) -> io::Result<Self> {
        let n = r.len(cfg.lsu_queue_depth)?;
        let mut queue = VecDeque::with_capacity(n);
        for _ in 0..n {
            queue.push_back(LsuEntry::restore(r, ())?);
        }
        Ok(Lsu {
            queue,
            spare: Vec::new(),
            depth: cfg.lsu_queue_depth,
            sectors_issued: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_mem::{CacheGeometry, MemConfig};

    fn mem_cfg() -> MemConfig {
        MemConfig {
            n_sms: 1,
            l1_geom: CacheGeometry {
                size_bytes: 4096,
                assoc: 4,
            },
            l1_latency: 4,
            l1_mshr_entries: 32,
            l1_mshr_merges: 8,
            l2_geom: CacheGeometry {
                size_bytes: 32768,
                assoc: 8,
            },
            n_l2_banks: 2,
            l2_latency: 20,
            l2_mshr_entries: 16,
            xbar_latency: 4,
            dram_latency: 100,
            dram_bytes_per_cycle: 64.0,
            l2_replacement: crisp_mem::Replacement::Lru,
        }
    }

    fn port() -> SmMemPort {
        SmMemPort::new(0, &mem_cfg())
    }

    fn load_entry(id: u64, sectors: Vec<u64>) -> LsuEntry {
        LsuEntry {
            stream: StreamId(0),
            class: DataClass::Compute,
            space: Space::Global,
            is_load: true,
            sectors,
            next: 0,
            inflight_id: id,
        }
    }

    /// Run one LSU cycle, collecting the locally-satisfied sectors.
    fn step(lsu: &mut Lsu, now: u64, cfg: &SmConfig, p: &mut SmMemPort) -> (Vec<(u64, u64)>, bool) {
        let mut ready = Vec::new();
        let idle = lsu.process(0, now, cfg, p, |id, at| ready.push((id, at)));
        (ready, idle)
    }

    #[test]
    fn port_budget_limits_sectors_per_cycle() {
        let cfg = SmConfig::default(); // 4 ports
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        lsu.push(load_entry(1, (0..8).map(|i| i * 32).collect()));
        let (_, idle) = step(&mut lsu, 0, &cfg, &mut p);
        assert_eq!(lsu.sectors_issued(), 4, "only 4 sectors in cycle 0");
        assert!(!idle, "half the instruction is still to present");
        let (_, idle) = step(&mut lsu, 1, &cfg, &mut p);
        assert!(idle && lsu.is_empty());
        assert_eq!(lsu.sectors_issued(), 8);
    }

    #[test]
    fn shared_memory_resolves_locally() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut e = load_entry(7, vec![]);
        e.space = Space::Shared;
        lsu.push(e);
        let (ready, _) = step(&mut lsu, 10, &cfg, &mut p);
        assert_eq!(ready, vec![(7, 10 + cfg.smem_latency)]);
    }

    #[test]
    fn stores_produce_no_events_but_consume_ports() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut e = load_entry(3, vec![0, 32]);
        e.is_load = false;
        lsu.push(e);
        let (ready, _) = step(&mut lsu, 0, &cfg, &mut p);
        assert!(ready.is_empty());
        assert_eq!(lsu.sectors_issued(), 2);
        assert!(lsu.is_empty());
    }

    #[test]
    fn retired_sector_lists_are_reused() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        let mut p = port();
        let mut sectors = lsu.sector_buf();
        sectors.extend([0, 32]);
        let ptr = sectors.as_ptr();
        lsu.push(load_entry(1, sectors));
        let _ = step(&mut lsu, 0, &cfg, &mut p);
        assert!(lsu.is_empty());
        let again = lsu.sector_buf();
        assert!(again.is_empty(), "a recycled list starts empty");
        assert_eq!(again.as_ptr(), ptr, "the retired list comes back");
    }

    #[test]
    fn queue_depth_backpressure() {
        let cfg = SmConfig::default();
        let mut lsu = Lsu::new(&cfg);
        for i in 0..cfg.lsu_queue_depth {
            assert!(lsu.has_room());
            lsu.push(load_entry(i as u64, vec![0]));
        }
        assert!(!lsu.has_room());
    }

    #[test]
    fn mshr_stall_retries_same_sector() {
        let cfg = SmConfig {
            l1_ports: 4,
            ..SmConfig::default()
        };
        let mut p = SmMemPort::new(
            0,
            &MemConfig {
                l1_mshr_entries: 1, // only one outstanding sector
                ..mem_cfg()
            },
        );
        let mut lsu = Lsu::new(&cfg);
        // Two sectors in different lines: second allocation must stall.
        lsu.push(load_entry(1, vec![0x0000, 0x4000]));
        let (_, idle) = step(&mut lsu, 0, &cfg, &mut p);
        assert_eq!(lsu.sectors_issued(), 1, "second sector stalled on MSHR");
        assert!(idle, "a refused head waits for a fill");
        assert!(!lsu.is_empty());
        let (_, idle) = step(&mut lsu, 1, &cfg, &mut p);
        assert!(idle);
        assert_eq!(lsu.sectors_issued(), 1, "the retry is refused again");
    }
}
