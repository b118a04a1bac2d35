//! The binary codec layer under both of the simulator's on-disk formats:
//! the `CRSP` trace container ([`codec`](crate::codec)) and the `CKPT`
//! checkpoint (`GpuSim::write_checkpoint` in `crisp-sim`).
//!
//! * [`Writer`]/[`Reader`]: a tiny, dependency-free typed codec over any
//!   [`Write`]/[`Read`] — LEB128 varints, zig-zag signed values, bit-exact
//!   `f64`, little-endian fixed-width integers, and length-capped
//!   allocations so corrupt input fails with `Err` instead of panicking or
//!   exhausting memory. Every enum that crosses the wire ([`Space`],
//!   [`DataClass`], [`StreamKind`]) has its one tag table here.
//! * [`CheckpointState`]: the trait every stateful simulator component
//!   implements to expose a stable, ordered view of itself.
//!
//! A file starts with a 4-byte magic tag and a little-endian `u32` version,
//! written by [`Writer::header`] and checked by [`Reader::header`], which
//! reports found-vs-expected so mixing the two file kinds up fails with a
//! message naming both.
//!
//! The component serializers live next to the components (they need
//! private-field access); this module only defines the wire discipline. The
//! checkpoint determinism contract is: `save` walks every collection in a
//! deterministic order (sorted keys for hash maps, heap contents as sorted
//! lists), so the byte stream — and therefore the restored simulator — is
//! identical no matter how many worker threads produced the state.

use std::io::{self, Read, Write};

use crate::isa::{DataClass, Space};
use crate::stream::{StreamId, StreamKind};

/// Strings longer than this are rejected before allocating.
const MAX_STRING: usize = 1 << 20;

/// An `InvalidData` error with the given message.
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Wire tag of a [`Space`]; the CRSP op tags of loads and stores build on it.
pub(crate) fn space_tag(s: Space) -> u8 {
    match s {
        Space::Global => 0,
        Space::Shared => 1,
        Space::Local => 2,
        Space::Tex => 3,
    }
}

/// Inverse of [`space_tag`].
pub(crate) fn tag_space(t: u8) -> io::Result<Space> {
    Ok(match t {
        0 => Space::Global,
        1 => Space::Shared,
        2 => Space::Local,
        3 => Space::Tex,
        t => return Err(bad(format!("bad space tag {t}"))),
    })
}

/// Typed writer: a thin layer over any [`Write`].
#[derive(Debug)]
pub struct Writer<W: Write> {
    inner: W,
}

impl<W: Write> Writer<W> {
    /// Wrap a sink. Call [`Writer::header`] first for a standalone file.
    pub fn new(inner: W) -> Self {
        Writer { inner }
    }

    /// Write a file's magic tag and format version.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) -> io::Result<()> {
        self.raw(magic)?;
        self.u32(version)
    }

    /// Write bytes as they are, with no length prefix.
    pub(crate) fn raw(&mut self, b: &[u8]) -> io::Result<()> {
        self.inner.write_all(b)
    }

    /// Write one raw byte.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u8(&mut self, v: u8) -> io::Result<()> {
        self.raw(&[v])
    }

    /// Write a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u16(&mut self, v: u16) -> io::Result<()> {
        self.raw(&v.to_le_bytes())
    }

    /// Write a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u32(&mut self, v: u32) -> io::Result<()> {
        self.raw(&v.to_le_bytes())
    }

    /// Write a `u64` as an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u64(&mut self, mut v: u64) -> io::Result<()> {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                return self.u8(byte);
            }
            self.u8(byte | 0x80)?;
        }
    }

    /// Write a `usize` as a varint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn len(&mut self, v: usize) -> io::Result<()> {
        self.u64(v as u64)
    }

    /// Write an `i64` zig-zag encoded, so small magnitudes of either sign
    /// encode as short varints.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn i64(&mut self, v: i64) -> io::Result<()> {
        self.u64(((v << 1) ^ (v >> 63)) as u64)
    }

    /// Write an `f64` bit-exactly (as its IEEE-754 bit pattern).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn f64(&mut self, v: f64) -> io::Result<()> {
        self.raw(&v.to_bits().to_le_bytes())
    }

    /// Write a `u128` as two varint halves (scoreboard masks).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u128(&mut self, v: u128) -> io::Result<()> {
        self.u64(v as u64)?;
        self.u64((v >> 64) as u64)
    }

    /// Write a bool as one byte.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn bool(&mut self, v: bool) -> io::Result<()> {
        self.u8(v as u8)
    }

    /// Write a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn str(&mut self, s: &str) -> io::Result<()> {
        self.bytes(s.as_bytes())
    }

    /// Write an `Option` as a presence byte plus the value.
    ///
    /// # Errors
    ///
    /// Propagates I/O and callback errors.
    pub fn option<T>(
        &mut self,
        v: Option<&T>,
        f: impl FnOnce(&mut Self, &T) -> io::Result<()>,
    ) -> io::Result<()> {
        match v {
            Some(x) => {
                self.u8(1)?;
                f(self, x)
            }
            None => self.u8(0),
        }
    }

    /// Write a length-prefixed raw byte blob (e.g. an embedded CRSP
    /// container for checkpoint self-containment).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.len(b.len())?;
        self.raw(b)
    }

    /// Write a [`StreamId`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn stream(&mut self, s: StreamId) -> io::Result<()> {
        self.u32(s.0)
    }

    /// Write a [`StreamKind`] tag.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn stream_kind(&mut self, k: StreamKind) -> io::Result<()> {
        self.u8(match k {
            StreamKind::Graphics => 0,
            StreamKind::Compute => 1,
        })
    }

    /// Write a [`DataClass`] tag.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn class(&mut self, c: DataClass) -> io::Result<()> {
        self.u8(match c {
            DataClass::Texture => 0,
            DataClass::Pipeline => 1,
            DataClass::Compute => 2,
        })
    }

    /// Write a [`Space`] tag.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn space(&mut self, s: Space) -> io::Result<()> {
        self.u8(space_tag(s))
    }
}

/// Typed reader: the counterpart of [`Writer`], with every length-driven
/// allocation capped so corrupt input fails with `Err` instead of panicking
/// or exhausting memory.
#[derive(Debug)]
pub struct Reader<R: Read> {
    inner: R,
}

impl<R: Read> Reader<R> {
    /// Wrap a source. Call [`Reader::header`] first for a standalone file.
    pub fn new(inner: R) -> Self {
        Reader { inner }
    }

    /// Check a file's magic tag and return its version, which must be one
    /// of `versions`. `what` names the format (e.g. `"CRSP trace"`) in the
    /// found-vs-expected error messages.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a foreign magic or an unsupported version; I/O
    /// errors otherwise.
    pub fn header(&mut self, magic: &[u8; 4], versions: &[u32], what: &str) -> io::Result<u32> {
        let mut found = [0u8; 4];
        self.inner.read_exact(&mut found)?;
        if &found != magic {
            return Err(bad(format!(
                "not a {what} file: found magic `{}`, expected `{}`",
                found.escape_ascii(),
                magic.escape_ascii()
            )));
        }
        let version = self.u32()?;
        if !versions.contains(&version) {
            let expected: Vec<String> = versions.iter().map(u32::to_string).collect();
            return Err(bad(format!(
                "unsupported {what} version: found {version}, expected {}",
                expected.join(" or ")
            )));
        }
        Ok(version)
    }

    /// Read one raw byte.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.inner.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// Read a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u16(&mut self) -> io::Result<u16> {
        let mut b = [0u8; 2];
        self.inner.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a varint `u64`.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a varint longer than 64 bits; I/O errors otherwise.
    pub fn u64(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(bad("varint overflow"));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint length and require it to be at most `cap`. Every
    /// collection restore goes through this so a flipped bit in a length
    /// prefix cannot drive an unbounded allocation.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the length exceeds `cap`.
    pub fn len(&mut self, cap: usize) -> io::Result<usize> {
        let n = self.u64()?;
        if n > cap as u64 {
            return Err(bad(format!("length {n} exceeds cap {cap}")));
        }
        Ok(n as usize)
    }

    /// Read a zig-zag encoded `i64`.
    ///
    /// # Errors
    ///
    /// `InvalidData` on overflow; I/O errors otherwise.
    pub fn i64(&mut self) -> io::Result<i64> {
        let v = self.u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read an `f64` bit-exactly.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn f64(&mut self) -> io::Result<f64> {
        let mut b = [0u8; 8];
        self.inner.read_exact(&mut b)?;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Read a `u128` written by [`Writer::u128`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn u128(&mut self) -> io::Result<u128> {
        let lo = self.u64()?;
        let hi = self.u64()?;
        Ok((lo as u128) | ((hi as u128) << 64))
    }

    /// Read a bool; any byte other than 0/1 is corruption.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a non-boolean byte.
    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("bad bool byte {b}"))),
        }
    }

    /// Read a length-prefixed string (capped at 1 MiB).
    ///
    /// # Errors
    ///
    /// `InvalidData` on oversized length or invalid UTF-8.
    pub fn str(&mut self) -> io::Result<String> {
        let n = self.u64()? as usize;
        if n > MAX_STRING {
            return Err(bad("string too long"));
        }
        let mut buf = vec![0u8; n];
        self.inner.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|_| bad("invalid utf-8"))
    }

    /// Read an `Option` written by [`Writer::option`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad presence byte; propagates callback errors.
    pub fn option<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(bad(format!("bad option tag {b}"))),
        }
    }

    /// Read a length-prefixed byte blob written by [`Writer::bytes`],
    /// with the length capped at `cap`.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the length exceeds `cap`; I/O errors otherwise.
    pub fn bytes(&mut self, cap: usize) -> io::Result<Vec<u8>> {
        let n = self.len(cap)?;
        // Read in bounded chunks so a corrupt length that passes `cap`
        // cannot commit the full allocation before hitting EOF.
        let mut buf = Vec::with_capacity(n.min(1 << 20));
        let mut remaining = n;
        let mut chunk = [0u8; 8192];
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            self.inner.read_exact(&mut chunk[..take])?;
            buf.extend_from_slice(&chunk[..take]);
            remaining -= take;
        }
        Ok(buf)
    }

    /// Read a [`StreamId`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn stream(&mut self) -> io::Result<StreamId> {
        Ok(StreamId(self.u32()?))
    }

    /// Read a [`StreamKind`] tag.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an unknown tag.
    pub fn stream_kind(&mut self) -> io::Result<StreamKind> {
        Ok(match self.u8()? {
            0 => StreamKind::Graphics,
            1 => StreamKind::Compute,
            t => return Err(bad(format!("bad stream-kind tag {t}"))),
        })
    }

    /// Read a [`DataClass`] tag.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an unknown tag.
    pub fn class(&mut self) -> io::Result<DataClass> {
        Ok(match self.u8()? {
            0 => DataClass::Texture,
            1 => DataClass::Pipeline,
            2 => DataClass::Compute,
            t => return Err(bad(format!("bad data-class tag {t}"))),
        })
    }

    /// Read a [`Space`] tag.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an unknown tag.
    pub fn space(&mut self) -> io::Result<Space> {
        tag_space(self.u8()?)
    }
}

/// State that can be checkpointed and restored.
///
/// `SaveCtx`/`RestoreCtx` carry whatever surrounding information the
/// component does not own itself — typically its configuration (geometry,
/// capacities), which the checkpoint stores once at the top level rather
/// than repeating per component, or the run's trace source for paging
/// resident CTAs back in.
pub trait CheckpointState: Sized {
    /// Context borrowed during save (most components need none).
    type SaveCtx<'a>;
    /// Context borrowed during restore (e.g. configuration to rebuild
    /// derived fields from).
    type RestoreCtx<'a>;

    /// Serialize `self` deterministically.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn save<W: Write>(&self, w: &mut Writer<W>, ctx: Self::SaveCtx<'_>) -> io::Result<()>;

    /// Rebuild a value from the stream. Implementations must validate every
    /// index and capacity against `ctx` and return `Err` — never panic — on
    /// corrupt input.
    ///
    /// # Errors
    ///
    /// `InvalidData` on corrupt input; I/O errors otherwise.
    fn restore<R: Read>(r: &mut Reader<R>, ctx: Self::RestoreCtx<'_>) -> io::Result<Self>;
}
