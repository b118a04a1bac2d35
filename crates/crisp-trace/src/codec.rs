//! Compact binary serialization for trace bundles.
//!
//! Trace-driven simulation lives and dies by trace files — the CRISP
//! artifact ships hundreds of gigabytes of them. This codec stores a
//! [`TraceBundle`] in a dense binary form: one byte per opcode,
//! LEB128 varints for counts, and zig-zag delta encoding for per-lane
//! addresses (consecutive lanes usually touch consecutive addresses, so
//! deltas are tiny). Every field goes through the typed
//! [`wire`](crate::wire) layer, which the `CKPT` checkpoint format shares.
//!
//! Since format version 2 the container also carries a **kernel/CTA offset
//! index**: the stream directory stores, per kernel launch, the byte span of
//! every CTA's instruction payload. [`TraceSource`](crate::TraceSource) uses
//! that index to demand-page individual CTAs out of a file without
//! materializing the whole bundle; version-1 (index-less) files still open
//! through a compatibility scan that decodes them whole. Both layouts share
//! one stream directory and one CTA blob encoding: a v1 launch carries its
//! CTA blobs inline where a v2 launch carries their payload spans.
//!
//! # Example
//!
//! ```
//! # use crisp_trace::*;
//! # use crisp_trace::codec::write_bundle;
//! let mut s = Stream::new(StreamId(0), StreamKind::Compute);
//! let mut w = WarpTrace::new();
//! w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(2)]));
//! w.seal();
//! s.launch(KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]));
//! let bundle = TraceBundle::from_streams(vec![s]);
//!
//! let mut buf = Vec::new();
//! write_bundle(&bundle, &mut buf)?;
//! let mut src = TraceInput::reader(std::io::Cursor::new(buf)).open()?;
//! assert_eq!(src.to_bundle()?, bundle);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, Read, Write};

use crate::isa::{Instr, MemAccess, Op, Reg, MAX_SRCS};
use crate::kernel::{CtaTrace, KernelTrace, WarpTrace};
use crate::stream::{Command, Stream, StreamId, StreamKind, TraceBundle};
use crate::wire::{bad, space_tag, tag_space, Reader, Writer};

const MAGIC: &[u8; 4] = b"CRSP";
const FORMAT_NAME: &str = "CRSP trace";
/// The original, index-less container layout (kernels inline in the stream
/// directory). Still readable; only written on request.
const VERSION_V1: u32 = 1;
/// The indexed layout: a stream directory with per-CTA `(offset, len)` spans
/// followed by one contiguous payload of self-contained CTA blobs.
const VERSION_V2: u32 = 2;

/// Command tags of a stream directory.
const CMD_LAUNCH: u8 = 0;
const CMD_MARKER: u8 = 1;

/// Op tag 7 is the classic slot-0 barrier — containers carrying only
/// `bar.sync 0` stay byte-identical to what pre-named-barrier readers
/// expect. Named slots (1..=15) encode as [`OP_TAG_NAMED_BAR`] followed by
/// one id byte, which old readers reject cleanly as a bad op tag.
const OP_TAG_NAMED_BAR: u8 = 17;

fn op_tag(op: Op) -> u8 {
    match op {
        Op::IntAlu => 0,
        Op::FpAlu => 1,
        Op::FpMul => 2,
        Op::FpFma => 3,
        Op::Sfu => 4,
        Op::Tensor => 5,
        Op::Branch => 6,
        Op::Bar(0) => 7,
        Op::Bar(_) => OP_TAG_NAMED_BAR,
        Op::Exit => 8,
        Op::Ld(s) => 9 + space_tag(s),
        Op::St(s) => 13 + space_tag(s),
    }
}

fn tag_op(t: u8) -> io::Result<Op> {
    Ok(match t {
        0 => Op::IntAlu,
        1 => Op::FpAlu,
        2 => Op::FpMul,
        3 => Op::FpFma,
        4 => Op::Sfu,
        5 => Op::Tensor,
        6 => Op::Branch,
        7 => Op::Bar(0),
        8 => Op::Exit,
        9..=12 => Op::Ld(tag_space(t - 9)?),
        13..=16 => Op::St(tag_space(t - 13)?),
        _ => return Err(bad("bad op tag")),
    })
}

/// Registers travel as `u16`s with `u16::MAX` standing for "none".
fn reg_word(r: Option<Reg>) -> u16 {
    r.map_or(u16::MAX, |r| r.0)
}

fn word_reg(v: u16) -> Option<Reg> {
    (v != u16::MAX).then_some(Reg(v))
}

fn write_instr<W: Write>(w: &mut Writer<W>, i: &Instr) -> io::Result<()> {
    w.u8(op_tag(i.op))?;
    if let Op::Bar(id @ 1..) = i.op {
        w.u8(id)?;
    }
    w.u16(reg_word(i.dst))?;
    for &s in &i.srcs {
        w.u16(reg_word(s))?;
    }
    if let Some(m) = &i.mem {
        w.space(m.space)?;
        w.class(m.class)?;
        w.u8(m.width)?;
        // Lane addresses as zig-zag deltas: consecutive lanes usually touch
        // consecutive addresses, so the deltas are tiny.
        w.len(m.addrs.len())?;
        let mut prev = 0i64;
        for &a in &m.addrs {
            w.i64(a as i64 - prev)?;
            prev = a as i64;
        }
    }
    Ok(())
}

fn read_instr<R: Read>(r: &mut Reader<R>) -> io::Result<Instr> {
    let tag = r.u8()?;
    let op = if tag == OP_TAG_NAMED_BAR {
        let id = r.u8()?;
        // Slot 0 must use tag 7 (canonical encoding) and slots stop at 15.
        if id == 0 || id as usize >= crate::NUM_BARRIERS {
            return Err(bad("bad barrier slot"));
        }
        Op::Bar(id)
    } else {
        tag_op(tag)?
    };
    let dst = word_reg(r.u16()?);
    let mut srcs = [None; MAX_SRCS];
    for s in &mut srcs {
        *s = word_reg(r.u16()?);
    }
    let mem = if op.is_mem() {
        let space = r.space()?;
        let class = r.class()?;
        let width = r.u8()?;
        let n = r.u64()? as usize;
        if n == 0 || n > crate::WARP_SIZE {
            return Err(bad("bad lane count"));
        }
        let mut addrs = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(r.i64()?);
            addrs.push(prev as u64);
        }
        Some(MemAccess {
            space,
            class,
            width,
            addrs,
        })
    } else {
        None
    };
    Ok(Instr { op, dst, srcs, mem })
}

/// Encode one CTA's instruction streams as a self-contained blob:
/// `n_warps` varint, then per warp `n_instrs` varint + instructions.
fn write_cta_blob<W: Write>(w: &mut Writer<W>, cta: &CtaTrace) -> io::Result<()> {
    w.len(cta.warps.len())?;
    for warp in &cta.warps {
        w.len(warp.len())?;
        for i in warp.iter() {
            write_instr(w, i)?;
        }
    }
    Ok(())
}

/// Decode a blob written by [`write_cta_blob`]. `max_warps` comes from the
/// launch geometry; a blob claiming more is structural corruption (and
/// would otherwise trip the [`KernelTrace::new`] assertion).
fn read_cta_blob<R: Read>(r: &mut Reader<R>, max_warps: usize) -> io::Result<CtaTrace> {
    let n_warps = r.u64()? as usize;
    if n_warps > max_warps {
        return Err(bad("cta has more warps than the block geometry allows"));
    }
    let mut warps = Vec::with_capacity(n_warps.min(64));
    for _ in 0..n_warps {
        let n_instrs = r.u64()? as usize;
        let mut warp = WarpTrace::new();
        for _ in 0..n_instrs {
            warp.push(read_instr(r)?);
        }
        warps.push(warp);
    }
    Ok(CtaTrace::new(warps))
}

/// Decode the CTA blob of one indexed span: exactly `len` bytes of `r`.
///
/// The span is read in one call and decoded from memory, so the per-field
/// reads never reach the (boxed, seekable) container reader. The buffer
/// grows only as bytes arrive: a corrupt length cannot allocate past the
/// container's real size.
pub(crate) fn read_cta_span<R: Read>(r: R, len: u64, max_warps: usize) -> io::Result<CtaTrace> {
    let mut blob = Vec::new();
    r.take(len).read_to_end(&mut blob)?;
    if blob.len() as u64 != len {
        return Err(bad("CTA span runs past the end of the container"));
    }
    let mut rest = blob.as_slice();
    let cta = read_cta_blob(&mut Reader::new(&mut rest), max_warps)?;
    if !rest.is_empty() {
        return Err(bad("CTA blob shorter than its indexed span"));
    }
    Ok(cta)
}

/// Maximum warps per CTA implied by a block size (matches
/// [`KernelTrace::new`]'s clamping).
pub(crate) fn max_warps_of(block_threads: u32) -> usize {
    block_threads
        .max(crate::WARP_SIZE as u32)
        .div_ceil(crate::WARP_SIZE as u32) as usize
}

/// One kernel entry of a stream directory: launch geometry plus one entry
/// per CTA — its `(offset, len)` payload span in a version-2 directory, its
/// decoded trace in a version-1 one. The grid size is `ctas.len()`.
#[derive(Debug, Clone)]
pub(crate) struct DirKernel<C = (u64, u64)> {
    pub name: String,
    pub block_threads: u32,
    pub regs_per_thread: u32,
    pub smem_per_cta: u32,
    pub ctas: Vec<C>,
}

/// One command of a stream directory.
#[derive(Debug, Clone)]
pub(crate) enum DirCmd<C = (u64, u64)> {
    Launch(DirKernel<C>),
    Marker(String),
}

/// One stream of a directory.
#[derive(Debug, Clone)]
pub(crate) struct DirStream<C = (u64, u64)> {
    pub id: StreamId,
    pub kind: StreamKind,
    pub cmds: Vec<DirCmd<C>>,
}

/// Write the header and stream directory both layouts share. `ctas` writes
/// the per-CTA part of each launch: inline blobs (v1) or payload spans (v2).
fn write_directory<W: Write>(
    w: &mut Writer<W>,
    version: u32,
    bundle: &TraceBundle,
    mut ctas: impl FnMut(&mut Writer<W>, &KernelTrace) -> io::Result<()>,
) -> io::Result<()> {
    w.header(MAGIC, version)?;
    w.len(bundle.streams.len())?;
    for s in &bundle.streams {
        w.stream(s.id)?;
        w.stream_kind(s.kind)?;
        w.len(s.commands.len())?;
        for c in &s.commands {
            match c {
                Command::Launch(k) => {
                    w.u8(CMD_LAUNCH)?;
                    w.str(&k.name)?;
                    w.u32(k.block_threads)?;
                    w.u32(k.regs_per_thread)?;
                    w.u32(k.smem_per_cta)?;
                    w.len(k.ctas.len())?;
                    ctas(w, k)?;
                }
                Command::Marker(m) => {
                    w.u8(CMD_MARKER)?;
                    w.str(m)?;
                }
            }
        }
    }
    Ok(())
}

/// Read a stream directory written by [`write_directory`] (after the
/// header). `read_cta` reads one CTA entry of a launch, given the most
/// warps the launch geometry allows.
fn read_directory<R: Read, C>(
    r: &mut Reader<R>,
    mut read_cta: impl FnMut(&mut Reader<R>, usize) -> io::Result<C>,
) -> io::Result<Vec<DirStream<C>>> {
    let n_streams = r.u64()? as usize;
    let mut streams: Vec<DirStream<C>> = Vec::with_capacity(n_streams.min(1024));
    for _ in 0..n_streams {
        let id = r.stream()?;
        let kind = r.stream_kind()?;
        let n_cmds = r.u64()? as usize;
        let mut cmds = Vec::with_capacity(n_cmds.min(1 << 16));
        for _ in 0..n_cmds {
            cmds.push(match r.u8()? {
                CMD_LAUNCH => {
                    let name = r.str()?;
                    let block_threads = r.u32()?;
                    let regs_per_thread = r.u32()?;
                    let smem_per_cta = r.u32()?;
                    let grid = r.u64()? as usize;
                    let max_warps = max_warps_of(block_threads);
                    let mut ctas = Vec::with_capacity(grid.min(1 << 20));
                    for _ in 0..grid {
                        ctas.push(read_cta(r, max_warps)?);
                    }
                    DirCmd::Launch(DirKernel {
                        name,
                        block_threads,
                        regs_per_thread,
                        smem_per_cta,
                        ctas,
                    })
                }
                CMD_MARKER => DirCmd::Marker(r.str()?),
                _ => return Err(bad("bad command tag")),
            });
        }
        if streams.iter().any(|s| s.id == id) {
            return Err(bad(format!("duplicate stream id {id} in directory")));
        }
        streams.push(DirStream { id, kind, cmds });
    }
    Ok(streams)
}

/// Serialize a bundle in the version-2 indexed layout, with a hook that lets
/// the chaos harness corrupt the index on the way out: `mutate_span` sees
/// every CTA span (global index order) and may rewrite it, and `payload_pad`
/// appends bytes to the payload that no span covers.
fn write_bundle_v2_core<W: Write>(
    bundle: &TraceBundle,
    w: &mut W,
    mutate_span: &mut dyn FnMut(usize, (u64, u64)) -> (u64, u64),
    payload_pad: &[u8],
) -> io::Result<()> {
    // Encode every CTA blob into the payload first, recording spans.
    let mut payload = Vec::new();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for s in &bundle.streams {
        for c in &s.commands {
            if let Command::Launch(k) = c {
                for cta in &k.ctas {
                    let offset = payload.len() as u64;
                    write_cta_blob(&mut Writer::new(&mut payload), cta)?;
                    spans.push((offset, payload.len() as u64 - offset));
                }
            }
        }
    }
    let mut w = Writer::new(w);
    let mut span_idx = 0usize;
    write_directory(&mut w, VERSION_V2, bundle, |w, k| {
        for _ in &k.ctas {
            let (off, len) = mutate_span(span_idx, spans[span_idx]);
            span_idx += 1;
            w.u64(off)?;
            w.u64(len)?;
        }
        Ok(())
    })?;
    w.len(payload.len() + payload_pad.len())?;
    w.raw(&payload)?;
    w.raw(payload_pad)
}

/// Write a bundle in the CRSP binary format (version 2, indexed).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_bundle<W: Write>(bundle: &TraceBundle, w: &mut W) -> io::Result<()> {
    write_bundle_v2_core(bundle, w, &mut |_, s| s, &[])
}

/// Write a bundle with a corrupted CTA index — the fault-injection hook
/// behind the chaos harness. `mutate_span` may rewrite any `(offset, len)`
/// span (called once per CTA in global index order); a non-empty
/// `payload_pad` leaves payload bytes no span covers.
#[doc(hidden)]
pub fn write_bundle_mutated<W: Write>(
    bundle: &TraceBundle,
    w: &mut W,
    mut mutate_span: impl FnMut(usize, (u64, u64)) -> (u64, u64),
    payload_pad: &[u8],
) -> io::Result<()> {
    write_bundle_v2_core(bundle, w, &mut mutate_span, payload_pad)
}

/// Write a bundle in the legacy version-1 (index-less) layout: each launch
/// carries its CTA blobs inline. Only useful for exercising the
/// compatibility reader; new files are always version 2.
#[doc(hidden)]
pub fn write_bundle_v1<W: Write>(bundle: &TraceBundle, w: &mut W) -> io::Result<()> {
    write_directory(&mut Writer::new(w), VERSION_V1, bundle, |w, k| {
        k.ctas.iter().try_for_each(|cta| write_cta_blob(w, cta))
    })
}

/// A container as [`read_container`] leaves it.
pub(crate) enum Container {
    /// A version-1 file, decoded whole (it has no index to page from).
    Bundle(TraceBundle),
    /// A version-2 file's validated directory; the reader stands at the
    /// first payload byte.
    Indexed(Vec<DirStream>),
}

/// Read a container's header and directory, dispatching on its version.
pub(crate) fn read_container<R: Read>(r: R) -> io::Result<Container> {
    let mut r = Reader::new(r);
    if r.header(MAGIC, &[VERSION_V1, VERSION_V2], FORMAT_NAME)? == VERSION_V1 {
        let dir = read_directory(&mut r, read_cta_blob)?;
        return Ok(Container::Bundle(bundle_of(dir)));
    }
    let dir = read_directory(&mut r, |r, _| Ok((r.u64()?, r.u64()?)))?;
    validate_index(&dir, r.u64()?)?;
    Ok(Container::Indexed(dir))
}

/// Assemble a fully decoded (version-1) directory into a bundle.
fn bundle_of(dir: Vec<DirStream<CtaTrace>>) -> TraceBundle {
    let streams = dir
        .into_iter()
        .map(|d| {
            let mut s = Stream::new(d.id, d.kind);
            for c in d.cmds {
                match c {
                    DirCmd::Launch(k) => {
                        s.launch(KernelTrace::new(
                            k.name,
                            k.block_threads,
                            k.regs_per_thread,
                            k.smem_per_cta,
                            k.ctas,
                        ));
                    }
                    DirCmd::Marker(m) => {
                        s.marker(m);
                    }
                }
            }
            s
        })
        .collect();
    TraceBundle::from_streams(streams)
}

/// The three structural invariants of the CTA index, each with its own
/// error so fault injection (and users debugging corrupt files) can tell
/// them apart: spans in bounds, no overlap, exact payload coverage.
fn validate_index(streams: &[DirStream], payload_len: u64) -> io::Result<()> {
    let mut all: Vec<(u64, u64)> = Vec::new();
    for s in streams {
        for c in &s.cmds {
            if let DirCmd::Launch(k) = c {
                all.extend_from_slice(&k.ctas);
            }
        }
    }
    for &(off, len) in &all {
        let end = off
            .checked_add(len)
            .ok_or_else(|| bad("CTA span offset overflow"))?;
        if end > payload_len {
            return Err(bad(format!(
                "CTA span out of bounds: offset {off} + len {len} exceeds payload of \
                 {payload_len} bytes"
            )));
        }
    }
    all.sort_unstable();
    let mut covered = 0u64;
    for &(off, len) in &all {
        if off < covered {
            return Err(bad("overlapping CTA spans in trace index"));
        }
        if off > covered {
            return Err(bad(format!(
                "trace index does not cover the payload: gap at byte {covered}"
            )));
        }
        covered = off + len;
    }
    if covered != payload_len {
        return Err(bad(format!(
            "trace index does not cover the payload: {covered} of {payload_len} bytes indexed"
        )));
    }
    Ok(())
}

/// Write a bundle to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(bundle: &TraceBundle, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_bundle(bundle, &mut f)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DataClass, Instr, MemAccess, Op, Reg, Space};
    use crate::source::TraceInput;

    fn sample_bundle() -> TraceBundle {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::FpFma, Reg(3), &[Reg(1), Reg(2)]));
        w.push(Instr::load(
            Reg(4),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1234_5678, 32),
        ));
        w.push(Instr::load(
            Reg(5),
            MemAccess::scattered(Space::Tex, DataClass::Texture, 8, vec![500, 100, 900_000]),
        ));
        w.push(Instr::store(
            Reg(3),
            MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 16),
        ));
        w.push(Instr::bar());
        w.push(Instr::branch());
        w.seal();
        let k = KernelTrace::new(
            "kern",
            64,
            24,
            4096,
            vec![CtaTrace::new(vec![w.clone(), w])],
        );
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.marker("draw:x").launch(k.clone());
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(k);
        TraceBundle::from_streams(vec![g, c])
    }

    /// Decode a whole container the way every caller does: open a source,
    /// then materialize it.
    fn decode(bytes: &[u8]) -> io::Result<TraceBundle> {
        TraceInput::reader(io::Cursor::new(bytes.to_vec()))
            .open()?
            .to_bundle()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle(&b, &mut buf).unwrap();
        assert_eq!(b, decode(&buf).unwrap());
    }

    #[test]
    fn v1_compat_roundtrip_preserves_everything() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle_v1(&b, &mut buf).unwrap();
        assert_eq!(b, decode(&buf).unwrap());
    }

    #[test]
    fn encoding_is_compact() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle(&b, &mut buf).unwrap();
        // 2 streams × (7 instrs × 2 warps); a coalesced 32-lane access costs
        // a couple of bytes per lane, not 8. The CTA index adds a few bytes
        // per CTA on top of the v1 size.
        assert!(buf.len() < 900, "encoding too large: {} bytes", buf.len());
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            Writer::new(&mut buf).u64(v).unwrap();
            assert_eq!(Reader::new(buf.as_slice()).u64().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            let mut buf = Vec::new();
            Writer::new(&mut buf).i64(v).unwrap();
            assert_eq!(Reader::new(buf.as_slice()).i64().unwrap(), v);
            if (-64..64).contains(&v) {
                assert_eq!(buf.len(), 1, "small magnitude {v} must stay one byte");
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = b"NOPE".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn magic_errors_report_found_and_expected() {
        let mut buf = b"CKPT".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        let err = decode(&buf).unwrap_err().to_string();
        assert!(err.contains("CKPT"), "found magic missing: {err}");
        assert!(err.contains("CRSP"), "expected magic missing: {err}");
    }

    #[test]
    fn version_errors_report_found_and_expected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&42u32.to_le_bytes());
        let err = decode(&buf).unwrap_err().to_string();
        assert!(err.contains("found 42"), "found version missing: {err}");
        assert!(
            err.contains("expected 1 or 2"),
            "expected versions missing: {err}"
        );
    }

    #[test]
    fn out_of_bounds_span_is_a_distinct_error() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle_mutated(
            &b,
            &mut buf,
            |i, (off, len)| {
                if i == 0 {
                    (off + (1 << 20), len)
                } else {
                    (off, len)
                }
            },
            &[],
        )
        .unwrap();
        let err = decode(&buf).unwrap_err().to_string();
        assert!(err.contains("out of bounds"), "wrong error: {err}");
    }

    #[test]
    fn overlapping_spans_are_a_distinct_error() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        // Point the second CTA span at the first one's bytes.
        let mut first: Option<(u64, u64)> = None;
        write_bundle_mutated(
            &b,
            &mut buf,
            |i, span| {
                if i == 0 {
                    first = Some(span);
                    span
                } else {
                    first.unwrap()
                }
            },
            &[],
        )
        .unwrap();
        let err = decode(&buf).unwrap_err().to_string();
        assert!(err.contains("overlapping"), "wrong error: {err}");
    }

    #[test]
    fn uncovered_payload_is_a_distinct_error() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle_mutated(&b, &mut buf, |_, s| s, &[0xAA; 7]).unwrap();
        let err = decode(&buf).unwrap_err().to_string();
        assert!(err.contains("does not cover"), "wrong error: {err}");
    }

    #[test]
    fn overfull_cta_in_stream_is_an_error_not_a_panic() {
        // Hand-craft a v1 container whose only CTA claims 2 warps in a
        // 32-thread block.
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.header(MAGIC, VERSION_V1).unwrap();
        w.len(1).unwrap(); // streams
        w.stream(StreamId(0)).unwrap();
        w.stream_kind(StreamKind::Compute).unwrap();
        w.len(1).unwrap(); // commands
        w.u8(CMD_LAUNCH).unwrap();
        w.str("k").unwrap();
        w.u32(32).unwrap(); // block_threads
        w.u32(8).unwrap(); // regs
        w.u32(0).unwrap(); // smem
        w.len(1).unwrap(); // grid
        w.len(2).unwrap(); // warps in cta 0: too many
        let err = decode(&buf).unwrap_err().to_string();
        assert!(err.contains("more warps"), "wrong error: {err}");
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle(&b, &mut buf).unwrap();
        for cut in [5, 10, buf.len() / 2, buf.len() - 1] {
            assert!(decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let b = sample_bundle();
        let p = std::env::temp_dir().join("crisp_codec_test.crsp");
        save(&b, &p).unwrap();
        let back = TraceInput::from(p.clone()).open().unwrap().to_bundle();
        assert_eq!(b, back.unwrap());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn all_op_tags_roundtrip() {
        let spaces = [Space::Global, Space::Shared, Space::Local, Space::Tex];
        let mut ops = vec![
            Op::IntAlu,
            Op::FpAlu,
            Op::FpMul,
            Op::FpFma,
            Op::Sfu,
            Op::Tensor,
            Op::Branch,
            Op::Bar(0),
            Op::Exit,
        ];
        for s in spaces {
            ops.push(Op::Ld(s));
            ops.push(Op::St(s));
        }
        for op in ops {
            assert_eq!(tag_op(op_tag(op)).unwrap(), op);
        }
    }

    #[test]
    fn named_barrier_instr_roundtrips() {
        for id in 0..crate::NUM_BARRIERS as u8 {
            let mut bytes = Vec::new();
            write_instr(&mut Writer::new(&mut bytes), &Instr::bar_at(id)).unwrap();
            if id == 0 {
                // Slot 0 keeps the classic one-byte tag: pre-named-barrier
                // containers and their readers stay byte-compatible.
                assert_eq!(bytes[0], 7);
            } else {
                assert_eq!(&bytes[..2], &[OP_TAG_NAMED_BAR, id]);
            }
            let back = read_instr(&mut Reader::new(bytes.as_slice())).unwrap();
            assert_eq!(back.op, Op::Bar(id));
        }
    }

    #[test]
    fn non_canonical_or_out_of_range_barrier_slots_are_rejected() {
        for bad_id in [0u8, 16, 200] {
            let mut bytes = Vec::new();
            write_instr(&mut Writer::new(&mut bytes), &Instr::bar()).unwrap();
            bytes[0] = OP_TAG_NAMED_BAR;
            bytes.insert(1, bad_id);
            let err = read_instr(&mut Reader::new(bytes.as_slice())).unwrap_err();
            assert!(err.to_string().contains("barrier slot"), "{err}");
        }
    }
}
