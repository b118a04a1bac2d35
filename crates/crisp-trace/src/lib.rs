//! Trace ISA and stream model for the CRISP GPU simulator.
//!
//! CRISP is trace-driven, like Accel-Sim: frontends (the functional graphics
//! pipeline in `crisp-gfx`, the compute-workload generators in `crisp-scenes`)
//! produce instruction traces, and the timing model (`crisp-sim`) replays them
//! cycle by cycle. This crate defines the interchange format.
//!
//! A trace records, per warp, the dynamic instruction stream with
//! register-level dependencies and per-lane memory addresses — exactly the
//! information Accel-Sim's SASS tracer captures on silicon, and all that a
//! cycle-level timing model needs. Traces are organised as
//! [`Instr`] → [`WarpTrace`] → [`CtaTrace`] → [`KernelTrace`] →
//! [`Stream`] → [`TraceBundle`].
//!
//! # Example
//!
//! ```
//! use crisp_trace::{Instr, Op, Reg, Space, DataClass, MemAccess, WarpTrace};
//!
//! let mut w = WarpTrace::new();
//! // A global load into r1 followed by a dependent FMA.
//! w.push(Instr::load(
//!     Reg(1),
//!     MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
//! ));
//! w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1), Reg(2)]));
//! w.push(Instr::exit());
//! assert_eq!(w.len(), 3);
//! ```

mod analysis;
pub mod codec;
mod isa;
mod kernel;
mod source;
mod stream;
pub mod validate;
pub mod wire;

pub use analysis::{
    ClassFootprint, InstrMix, ReuseHistogram, TexLinesHistogram, LINE_BYTES, SECTOR_BYTES,
};
pub use isa::{DataClass, Instr, MemAccess, Op, Reg, Space, MAX_SRCS, NUM_BARRIERS, WARP_SIZE};
pub use kernel::{CtaTrace, KernelTrace, WarpTrace};
pub use source::{
    cta_resident_cost, CommandMeta, KernelId, KernelInfo, StreamMeta, TraceInput, TraceSource,
    TraceStats,
};
pub use stream::{Command, Stream, StreamId, StreamKind, TraceBundle};
pub use validate::{
    validate_bundle, validate_kernel, validate_source, TraceError, TraceErrorKind, TraceErrorSite,
    SCOREBOARD_REGS,
};

/// Tests of the [`wire`] layer's scalar and header encodings. They sit at
/// the crate root because the layer is the crate's persistence boundary:
/// both the CRSP container and the CKPT checkpoint are written through it.
#[cfg(test)]
mod tests {
    use crate::wire::{Reader, Writer};

    const MAGIC: &[u8; 4] = b"CKPT";
    const VERSION: u32 = 3;
    const WHAT: &str = "CKPT checkpoint";

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.header(MAGIC, VERSION).unwrap();
        w.u8(7).unwrap();
        w.u16(0xBEEF).unwrap();
        w.u32(0xDEAD_BEEF).unwrap();
        w.u64(u64::MAX).unwrap();
        w.i64(-42).unwrap();
        w.f64(0.1 + 0.2).unwrap();
        w.u128(1u128 << 99 | 3).unwrap();
        w.bool(true).unwrap();
        w.str("hello").unwrap();
        w.option(Some(&5u64), |w, v| w.u64(*v)).unwrap();
        w.option::<u64>(None, |w, v| w.u64(*v)).unwrap();

        let mut r = Reader::new(buf.as_slice());
        assert_eq!(r.header(MAGIC, &[VERSION], WHAT).unwrap(), VERSION);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.u128().unwrap(), 1u128 << 99 | 3);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.option(|r| r.u64()).unwrap(), Some(5));
        assert_eq!(r.option(|r| r.u64()).unwrap(), None);
    }

    #[test]
    fn header_rejects_foreign_magic_with_both_names() {
        let mut buf = b"CRSP".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        let err = Reader::new(buf.as_slice())
            .header(MAGIC, &[VERSION], WHAT)
            .unwrap_err()
            .to_string();
        assert!(err.contains("CRSP") && err.contains("CKPT"), "{err}");
    }

    #[test]
    fn header_rejects_future_version() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = Reader::new(buf.as_slice())
            .header(MAGIC, &[VERSION], WHAT)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("found 99") && err.contains("expected 3"),
            "{err}"
        );
    }

    #[test]
    fn len_cap_blocks_oversized_allocations() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).u64(u64::MAX).unwrap();
        assert!(Reader::new(buf.as_slice()).len(1000).is_err());
    }

    #[test]
    fn bad_bool_and_option_tags_error() {
        assert!(Reader::new([2u8].as_slice()).bool().is_err());
        assert!(Reader::new([9u8].as_slice()).option(|r| r.u8()).is_err());
    }

    #[test]
    fn bytes_roundtrip_and_cap() {
        let blob: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        Writer::new(&mut buf).bytes(&blob).unwrap();
        assert_eq!(Reader::new(buf.as_slice()).bytes(blob.len()).unwrap(), blob);
        assert!(Reader::new(buf.as_slice()).bytes(blob.len() - 1).is_err());
    }

    #[test]
    fn truncated_bytes_blob_errors_instead_of_allocating() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).u64(1 << 40).unwrap(); // huge claimed length, no payload
        assert!(Reader::new(buf.as_slice()).bytes(usize::MAX).is_err());
    }
}
