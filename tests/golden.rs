//! Golden byte fixtures for the simulator's two on-disk formats.
//!
//! `tests/golden/codec/` holds one CRSP trace container in each layout
//! (`bundle_v2.crsp`, `bundle_v1.crsp`) and one mid-run `CKPT` checkpoint
//! (`mid_run.ckpt`). Each test checks two things: encoding the same inputs
//! reproduces the fixture byte for byte, and decoding the fixture and
//! encoding it again reproduces it too. A codec change that moves a single
//! byte of either format fails here, whichever side of the codec it is in.
//!
//! The bundle uses every op tag (named barrier included), every address
//! space and every data class, on a graphics and a compute stream with a
//! marker. The checkpoint comes from a tiny GPU with full telemetry, the
//! dynamic intra-SM split and the TAP L2 policy, stopped mid-run so warps,
//! requests and the slicer are all live and every checkpointed component
//! writes its state.

use std::path::PathBuf;

use crisp_sim::{
    GpuConfig, GpuSim, L2Policy, PartitionSpec, Simulation, SlicerConfig, TapConfig, Telemetry,
};
use crisp_trace::codec::{write_bundle, write_bundle_v1};
use crisp_trace::{
    CtaTrace, DataClass, Instr, KernelTrace, MemAccess, Op, Reg, Space, Stream, StreamId,
    StreamKind, TraceBundle, TraceInput, WarpTrace,
};

/// Cycle at which the checkpoint fixture is taken: after both streams have
/// warps resident, before either finishes.
const CHECKPOINT_CYCLE: u64 = 300;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/codec")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// One warp touching every opcode, space and data class. `class` is the
/// data class of the global/local traffic; texture reads are always
/// `Texture` and shared-memory traffic always `Compute`.
fn warp(class: DataClass, base: u64) -> WarpTrace {
    let mut w = WarpTrace::new();
    w.push(Instr::alu(Op::IntAlu, Reg(1), &[]));
    w.push(Instr::alu(Op::FpAlu, Reg(2), &[Reg(1)]));
    w.push(Instr::alu(Op::FpMul, Reg(3), &[Reg(1), Reg(2)]));
    w.push(Instr::alu(Op::FpFma, Reg(4), &[Reg(1), Reg(2), Reg(3)]));
    w.push(Instr::load(
        Reg(5),
        MemAccess::coalesced(Space::Global, class, 4, base, 32),
    ));
    w.push(Instr::load(
        Reg(6),
        MemAccess::scattered(
            Space::Tex,
            DataClass::Texture,
            8,
            vec![base + 4096, base + 64, base + 900_000, base + 64],
        ),
    ));
    w.push(Instr::load(
        Reg(7),
        MemAccess::coalesced(Space::Local, class, 4, 0x200, 8),
    ));
    w.push(Instr::alu(Op::Sfu, Reg(8), &[Reg(5)]));
    w.push(Instr::alu(Op::Tensor, Reg(9), &[Reg(6), Reg(7), Reg(8)]));
    w.push(Instr::store(
        Reg(9),
        MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, (base & 0x3) * 128, 32),
    ));
    w.push(Instr::bar());
    w.push(Instr::load(
        Reg(10),
        MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 16),
    ));
    w.push(Instr::bar_at(3));
    w.push(Instr::store(
        Reg(10),
        MemAccess::coalesced(Space::Global, class, 4, base + 0x1_0000, 32),
    ));
    w.push(Instr::store(
        Reg(4),
        MemAccess::coalesced(Space::Local, class, 4, 0x200, 8),
    ));
    w.push(Instr::store(
        Reg(3),
        MemAccess::scattered(Space::Tex, DataClass::Texture, 4, vec![base + 8192]),
    ));
    w.push(Instr::branch());
    w.push(Instr::exit());
    w.seal();
    w
}

fn kernel(name: &str, class: DataClass, base: u64) -> KernelTrace {
    let ctas = (0..3u64)
        .map(|c| {
            let b = base + c * 0x4000;
            CtaTrace::new(vec![warp(class, b), warp(class, b + 0x800)])
        })
        .collect();
    KernelTrace::new(name, 64, 16, 1024, ctas)
}

fn golden_bundle() -> TraceBundle {
    let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
    g.marker("frame:0")
        .launch(kernel("vs", DataClass::Pipeline, 0x10_0000));
    g.launch(kernel("fs", DataClass::Texture, 0x40_0000));
    let mut c = Stream::new(StreamId(1), StreamKind::Compute);
    c.launch(kernel("cs", DataClass::Compute, 0x80_0000));
    TraceBundle::from_streams(vec![g, c])
}

fn golden_sim() -> GpuSim {
    Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .partition(PartitionSpec::fg_dynamic(SlicerConfig {
            sample_cycles: 40,
            ratios: vec![(1, 4), (1, 2), (3, 4)],
        }))
        .l2(L2Policy::Tap(TapConfig {
            epoch_accesses: 64,
            sample_every: 2,
            min_sets: 1,
        }))
        .threads(1)
        .telemetry(Telemetry::FULL)
        .occupancy_interval(20)
        .composition_interval(30)
        .counter_interval(25)
        .trace(golden_bundle())
        .build()
}

fn golden_checkpoint() -> Vec<u8> {
    let mut sim = golden_sim();
    sim.run_until(CHECKPOINT_CYCLE)
        .expect("run to the checkpoint");
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes).expect("write checkpoint");
    bytes
}

fn assert_same_bytes(got: &[u8], want: &[u8], what: &str) {
    if let Some(i) = got.iter().zip(want).position(|(a, b)| a != b) {
        panic!("{what}: first differing byte at offset {i}");
    }
    assert_eq!(got.len(), want.len(), "{what}: length differs");
}

fn reopen(bytes: Vec<u8>) -> TraceBundle {
    TraceInput::reader(std::io::Cursor::new(bytes))
        .open()
        .and_then(|mut src| src.to_bundle())
        .expect("decode golden container")
}

#[test]
fn crsp_v2_encoding_matches_golden_bytes() {
    let mut bytes = Vec::new();
    write_bundle(&golden_bundle(), &mut bytes).unwrap();
    assert_same_bytes(&bytes, &fixture("bundle_v2.crsp"), "bundle_v2.crsp");
}

#[test]
fn crsp_v1_encoding_matches_golden_bytes() {
    let mut bytes = Vec::new();
    write_bundle_v1(&golden_bundle(), &mut bytes).unwrap();
    assert_same_bytes(&bytes, &fixture("bundle_v1.crsp"), "bundle_v1.crsp");
}

#[test]
fn golden_crsp_containers_decode_and_reencode_byte_identically() {
    let v2 = fixture("bundle_v2.crsp");
    let back = reopen(v2.clone());
    assert_eq!(back, golden_bundle());
    let mut bytes = Vec::new();
    write_bundle(&back, &mut bytes).unwrap();
    assert_same_bytes(&bytes, &v2, "bundle_v2.crsp re-encoded");

    let v1 = fixture("bundle_v1.crsp");
    let back = reopen(v1.clone());
    assert_eq!(back, golden_bundle());
    let mut bytes = Vec::new();
    write_bundle_v1(&back, &mut bytes).unwrap();
    assert_same_bytes(&bytes, &v1, "bundle_v1.crsp re-encoded");
}

#[test]
fn ckpt_encoding_matches_golden_bytes() {
    assert_same_bytes(
        &golden_checkpoint(),
        &fixture("mid_run.ckpt"),
        "mid_run.ckpt",
    );
}

#[test]
fn golden_checkpoint_restores_and_rewrites_byte_identically() {
    let want = fixture("mid_run.ckpt");
    let mut sim = GpuSim::read_checkpoint(want.as_slice()).expect("restore golden checkpoint");
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes)
        .expect("rewrite checkpoint");
    assert_same_bytes(&bytes, &want, "mid_run.ckpt rewritten");
}
