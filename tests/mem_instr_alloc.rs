//! Zero allocations per memory instruction: once the machine is warm,
//! issuing loads and stores, coalescing them, walking the L1/L2/DRAM
//! hierarchy and routing the fills back to the warps must not touch the
//! allocator.
//!
//! `tests/hostprof_alloc.rs` only asks for *some* short allocation-free
//! window. This binary holds the memory path itself to zero: it counts
//! every allocation over a steady-state window in which at least
//! `MIN_MEM_INSTRS` memory instructions issue and no CTA launches or
//! commits (those legitimately allocate). Like `hostprof_alloc`, it
//! installs the counting global allocator (feature `alloc-profile`) and
//! holds a single test, because the counters are process-global.

use crisp_core::prelude::*;
use crisp_obs::alloc;
use crisp_sim::{DeadlockReport, SmDiagnostics};
use crisp_trace::{CtaTrace, Instr, KernelTrace, MemAccess, Op, Reg, Space, WarpTrace};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Cycles run before the window opens: every CTA is resident and the
/// MSHR, LSU and queue buffers have grown to their working sizes.
const WARMUP_CYCLES: u64 = 60_000;
/// Memory instructions the window must contain.
const MIN_MEM_INSTRS: usize = 1_000;
/// Give up if the window has not seen enough memory instructions by then.
const WINDOW_LIMIT: u64 = 20_000;
/// Instructions per warp: long enough that no warp exits in the window.
const TRACE_LEN: usize = 6_000;
const WARPS_PER_CTA: usize = 4;
const CTAS: usize = 4;

/// Whether instruction `i` of every warp's trace is a load or store.
fn is_mem(i: usize) -> bool {
    i % 5 != 1
}

/// One warp's trace: a mix of coalesced global loads, scattered texture
/// fetches, shared loads, stores, and FMAs that consume the loads. Each
/// warp cycles over its own 6 KB: together they overflow the L1 and fit
/// the L2, so the window sees L1 hits, misses, MSHR merges and L2 fills.
fn warp(cta: usize, w: usize) -> WarpTrace {
    let base = ((cta * WARPS_PER_CTA + w) as u64) << 20;
    let mut t = WarpTrace::new();
    for i in 0..TRACE_LEN {
        let line = base + (i as u64 % 48) * 128;
        let dst = Reg(1 + (i % 8) as u16);
        t.push(match i % 5 {
            0 => Instr::load(
                dst,
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, line, 32),
            ),
            1 => Instr::alu(Op::FpFma, Reg(20), &[Reg(1 + ((i - 1) % 8) as u16)]),
            2 => Instr::load(
                dst,
                MemAccess::scattered(
                    Space::Tex,
                    DataClass::Texture,
                    4,
                    (0..32)
                        .map(|l| base + ((l * 5 + i as u64) % 48) * 128)
                        .collect(),
                ),
            ),
            3 => Instr::store(
                Reg(20),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, line + 64, 16),
            ),
            _ => Instr::load(
                Reg(30),
                MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
            ),
        });
    }
    t.seal();
    t
}

fn bundle() -> TraceBundle {
    let ctas = (0..CTAS)
        .map(|c| CtaTrace::new((0..WARPS_PER_CTA).map(|w| warp(c, w)).collect()))
        .collect();
    let kernel = KernelTrace::new("memloop", 32 * WARPS_PER_CTA as u32, 32, 0, ctas);
    let mut s = Stream::new(COMPUTE_STREAM, StreamKind::Compute);
    s.launch(kernel);
    TraceBundle::from_streams(vec![s])
}

/// Memory instructions issued between two snapshots, and whether the
/// resident CTAs stayed the same (nothing launched or committed).
fn mem_instrs_between(a: &DeadlockReport, b: &DeadlockReport) -> (usize, bool) {
    let mut n = 0;
    let mut same_ctas = true;
    for (sa, sb) in a.sms.iter().zip(&b.sms) {
        let ctas = |s: &SmDiagnostics| {
            s.ctas
                .iter()
                .map(|c| (c.stream, c.cta_index))
                .collect::<Vec<_>>()
        };
        same_ctas &= ctas(sa) == ctas(sb);
        for (wa, wb) in sa.warps.iter().zip(&sb.warps) {
            assert_eq!((wa.slot, wa.cta_index), (wb.slot, wb.cta_index));
            n += (wa.pc..wb.pc).filter(|&i| is_mem(i)).count();
        }
    }
    (n, same_ctas)
}

#[test]
fn memory_instructions_issue_without_allocating() {
    // Sanity: the counting allocator actually observes this binary.
    alloc::reset();
    alloc::enable();
    drop(std::hint::black_box(Vec::<u64>::with_capacity(32)));
    alloc::disable();
    assert!(alloc::total_count() > 0, "counting allocator not installed");

    let mut sim = Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .threads(1)
        .telemetry(Telemetry::NONE)
        .trace(bundle())
        .build();
    assert!(!sim.run_until(WARMUP_CYCLES).expect("warm-up run"));
    let start = sim.deadlock_report();
    let frontier = &start.streams[0];
    assert_eq!(
        frontier.next_cta, frontier.grid,
        "every CTA must be resident before the window opens"
    );

    let mut allocs = 0;
    let mut issued = 0;
    while issued < MIN_MEM_INSTRS && sim.now() < WARMUP_CYCLES + WINDOW_LIMIT {
        for _ in 0..100 {
            alloc::reset();
            alloc::enable();
            let stepped = sim.step();
            alloc::disable();
            stepped.expect("step");
            allocs += alloc::total_count();
        }
        let (n, same_ctas) = mem_instrs_between(&start, &sim.deadlock_report());
        assert!(same_ctas, "a CTA launched or committed inside the window");
        issued = n;
    }
    assert!(
        issued >= MIN_MEM_INSTRS,
        "only {issued} memory instructions issued in {WINDOW_LIMIT} cycles"
    );
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {issued} memory instructions ({} cycles)",
        sim.now() - WARMUP_CYCLES
    );
}
