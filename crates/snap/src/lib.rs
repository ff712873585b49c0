//! Deterministic checkpoint/restore for the powadapt suite.
//!
//! Every simulation in this workspace is a pure function of `(spec, seed)`,
//! which makes the complete dynamic state of a run serializable: write it
//! out at time `T`, rebuild the object graph from the same spec, overlay
//! the saved state, and the continuation is bit-identical to a run that
//! never stopped. This crate provides the three pieces every layer shares:
//!
//! - [`SnapWriter`] / [`SnapReader`]: a little-endian binary codec for the
//!   primitive shapes simulation state is made of. Floats round-trip
//!   through [`f64::to_bits`], never through text, so restored
//!   accumulators are bit-exact.
//! - The file envelope ([`seal`] / [`open`]): magic, format version, and a
//!   trailing word-wise [`checksum`] that costs little more than a memory
//!   pass. Corrupt, truncated, or foreign files fail closed with a typed
//!   [`SnapError`] — never a panic, never a silently wrong restore.
//! - The [`Snapshot`] / [`Restore`] traits implemented across the sim,
//!   device, io, core, obs, place, and cluster crates — each from one
//!   ordered field list ([`snapshot!`]) over [`Codec`] values, so no
//!   struct spells its layout twice and rustc rejects a field that is
//!   neither serialized nor explicitly skipped.
//!
//! The format is deliberately dependency-free (no serde): the workspace
//! builds offline, and the layout is pinned by the golden equivalence
//! tests and the checkpoint-digest fixture rather than by a derive.
//!
//! # Versioning and forward compatibility
//!
//! The payload layout is versioned as a whole by [`FORMAT_VERSION`]. Any
//! change to any field list's layout bumps the version; readers reject
//! every version other than their own ([`SnapError::UnsupportedVersion`]).
//! Snapshots are warm-start artifacts, not archives: a snapshot is only
//! meaningful against the exact code that wrote it, so cross-version
//! migration is out of scope by design (DESIGN.md §7).

// Library error paths return the crate's typed error: a panic here
// kills a whole fleet run. A provably infallible site carries a reasoned
// `#[expect(clippy::..., reason = "...")]`.
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::error::Error;
use std::fmt;

mod codec;

pub use codec::{restore_len, ById, Codec, Keyed, Wire, WireWith};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"PSNP";

/// Version of the snapshot payload layout. Bump on any layout change.
///
/// History: 1 = original checkpoint/restore layout; 2 = sim-kernel
/// overhaul (SSD in-flight reads table moved ahead of the event queue,
/// die queues serialize translated IO ids); 3 = sketch-backed metrics
/// registry and the cluster energy-attribution ledger (integer-femtojoule
/// `u128` accounts); 4 = placement tier (extent catalog, in-flight
/// migrations, standby pins), cluster IO-owner tagging, the ledger's
/// reserved system account, and the HDD write-through media-op variant;
/// 5 = word-wise envelope checksum (four `u64` lanes) in place of the
/// byte-at-a-time FNV-1a, with the payload bytes unchanged from 4.
/// Older checkpoints are rejected with [`SnapError::UnsupportedVersion`]
/// rather than mis-parsed.
pub const FORMAT_VERSION: u32 = 5;

/// Typed failures of snapshot decoding. Every malformed input maps to one
/// of these; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The file does not start with the [`MAGIC`] bytes.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum recomputed over the received bytes.
        computed: u64,
        /// Checksum stored in the file.
        stored: u64,
    },
    /// The input ended before the decoder got what the layout promises.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Bytes remain after the payload was fully decoded.
    TrailingBytes(usize),
    /// A decoded value is structurally impossible (bad discriminant,
    /// out-of-range index, non-boolean byte, ...).
    InvalidValue(String),
    /// The component does not support snapshotting.
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a powadapt snapshot (bad magic)"),
            SnapError::UnsupportedVersion(v) => write!(
                f,
                "snapshot format version {v} is not supported (this build reads version {FORMAT_VERSION})"
            ),
            SnapError::ChecksumMismatch { computed, stored } => write!(
                f,
                "snapshot checksum mismatch: computed {computed:#018x}, stored {stored:#018x} — the file is corrupt"
            ),
            SnapError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} byte(s), only {remaining} remain"
            ),
            SnapError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} unexpected trailing byte(s)")
            }
            SnapError::InvalidValue(what) => write!(f, "invalid snapshot value: {what}"),
            SnapError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
        }
    }
}

impl Error for SnapError {}

/// Multiplier of every checksum step: the 64-bit golden ratio, odd, so
/// multiplying by it is a bijection on `u64`.
const CHECKSUM_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Starting values of the four checksum lanes (hex digits of pi):
/// distinct, so the same word in two lanes feeds two different states.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Starting value of the fold over the lanes (the next digits of pi).
const FOLD_SEED: u64 = 0x4528_21e6_38d0_1377;

/// One checksum step. For a fixed `lane` it is a bijection in `word`, and
/// for a fixed `word` a bijection in `lane` (xor, multiply by an odd
/// constant, rotate: each is invertible), so a changed input word always
/// changes the state, and every later step carries the change through.
/// The rotation brings the high product bits, which the multiply fills
/// last, down to where the next multiply spreads them.
fn checksum_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(CHECKSUM_K).rotate_left(31)
}

/// The envelope checksum over `bytes`. Not cryptographic; it exists to
/// turn bit rot and truncation into typed errors.
///
/// The input is read as little-endian `u64` words dealt round-robin to
/// four independent lanes, so four multiply chains run side by side and
/// the pass runs at memory speed. The lanes are then folded with the
/// same step in lane order, followed by the tail of fewer than 32 bytes
/// one byte at a time, then the length. Every step is a bijection in
/// both arguments, so any change confined to one input word (an aligned
/// 8-byte span of the blocks, or one byte of the tail) always changes
/// the result; a single-bit flip is such a change.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(word);
            *lane = checksum_step(*lane, u64::from_le_bytes(le));
        }
    }
    let mut h = FOLD_SEED;
    for lane in lanes {
        h = checksum_step(h, lane);
    }
    for &b in blocks.remainder() {
        h = checksum_step(h, u64::from(b));
    }
    checksum_step(h, bytes.len() as u64)
}

/// Serializes state into a growing byte buffer. All integers are
/// little-endian; floats go through [`f64::to_bits`] so accumulated sums
/// restore bit-exactly.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The serialized payload so far.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128` as two little-endian `u64` halves, low half first.
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` bit-exactly via [`f64::to_bits`].
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes a sequence length prefix; the caller then writes each item.
    pub fn seq_len(&mut self, n: usize) {
        self.usize(n);
    }
}

/// Decodes state previously produced by a [`SnapWriter`]. Every method
/// fails closed on malformed input; nothing here panics.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Upper bound accepted for any one sequence/string length. Snapshots are
/// written by this workspace and are megabytes at most; a length past this
/// bound is corruption, not data, and is rejected before any allocation.
const MAX_SEQ_LEN: u64 = 1 << 32;

impl<'a> SnapReader<'a> {
    /// Wraps an already-unsealed payload.
    pub fn new(payload: &'a [u8]) -> Self {
        SnapReader {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`SnapError::TrailingBytes`] unless fully consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(s);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(i64::from_le_bytes(a))
    }

    /// Reads a `u128` written by [`SnapWriter::u128`] (low half first).
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(lo | (hi << 64))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`].
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::InvalidValue(format!("usize out of range: {v}")))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is invalid.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::InvalidValue(format!("bool byte {b}"))),
        }
    }

    /// Reads an `f64` bit-exactly via [`f64::from_bits`].
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| SnapError::InvalidValue(format!("non-utf8 string: {e}")))
    }

    /// Reads a length-prefixed byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.seq_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a sequence length prefix, bounds-checked against both the
    /// sanity cap and the bytes actually remaining (each element takes at
    /// least one byte), so corrupt lengths cannot drive huge allocations.
    pub fn seq_len(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        if n > MAX_SEQ_LEN || n > self.remaining() as u64 {
            return Err(SnapError::InvalidValue(format!(
                "sequence length {n} exceeds remaining input ({})",
                self.remaining()
            )));
        }
        // MAX_SEQ_LEN fits usize on every supported target.
        Ok(n as usize)
    }
}

/// Wraps `payload` in the snapshot envelope:
/// `MAGIC ++ version:u32 ++ payload_len:u64 ++ payload ++ checksum:u64`,
/// where the [`checksum`] covers everything before it.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates the envelope of `data` and returns the payload slice.
///
/// # Errors
///
/// [`SnapError::BadMagic`], [`SnapError::UnsupportedVersion`],
/// [`SnapError::Truncated`], [`SnapError::TrailingBytes`], or
/// [`SnapError::ChecksumMismatch`] — one typed error per way a file can be
/// wrong.
pub fn open(data: &[u8]) -> Result<&[u8], SnapError> {
    let mut r = SnapReader::new(data);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let len = r.usize()?;
    let payload_start = r.pos;
    let payload = r.take(len)?;
    let checksum_start = payload_start + len;
    let stored = r.u64()?;
    r.finish()?;
    let computed = checksum(&data[..checksum_start]);
    if computed != stored {
        return Err(SnapError::ChecksumMismatch { computed, stored });
    }
    Ok(payload)
}

/// A component whose dynamic state can be serialized.
///
/// Implementations write *state*, never configuration: restore rebuilds
/// the object graph from the original spec and overlays this state, so
/// anything derivable from the spec stays out of the snapshot.
pub trait Snapshot {
    /// Appends this component's dynamic state to `w`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] when the component cannot be
    /// snapshotted.
    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError>;
}

/// A component whose dynamic state can be overlaid from a snapshot.
///
/// `read_state` must consume exactly what the matching
/// [`Snapshot::write_state`] produced, and must not emit observability
/// events: a restored run's traces continue the original's, they do not
/// replay it.
pub trait Restore {
    /// Overlays this component's dynamic state from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on malformed input. On error the component may be
    /// left partially restored and must be discarded.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.i64(-42);
        w.usize(12345);
        w.bool(true);
        w.bool(false);
        w.f64(std::f64::consts::PI);
        w.f64(-0.0);
        Some(1.5f64).encode(&mut w);
        None::<f64>.encode(&mut w);
        Some(9u64).encode(&mut w);
        None::<u64>.encode(&mut w);
        w.str("hello, snapshot");
        w.bytes(&[1, 2, 3]);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 12345);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(Option::<f64>::decode(&mut r).unwrap(), Some(1.5));
        assert_eq!(Option::<f64>::decode(&mut r).unwrap(), None);
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), None);
        assert_eq!(r.str().unwrap(), "hello, snapshot");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn u128_round_trips_low_half_first() {
        let big = (u64::MAX as u128) * 3 + 7;
        let mut w = SnapWriter::new();
        w.u128(0);
        w.u128(big);
        w.u128(u128::MAX);
        let payload = w.into_payload();
        // Layout is two u64 halves, low first — readable as plain u64s.
        let mut halves = SnapReader::new(&payload);
        assert_eq!(halves.u64().unwrap(), 0);
        assert_eq!(halves.u64().unwrap(), 0);
        assert_eq!(halves.u64().unwrap(), big as u64);
        assert_eq!(halves.u64().unwrap(), (big >> 64) as u64);
        let mut r = SnapReader::new(&payload);
        assert_eq!(r.u128().unwrap(), 0);
        assert_eq!(r.u128().unwrap(), big);
        assert_eq!(r.u128().unwrap(), u128::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn envelope_round_trips() {
        let payload = b"some simulation state".to_vec();
        let sealed = seal(&payload);
        assert_eq!(open(&sealed).unwrap(), payload.as_slice());
    }

    #[test]
    fn empty_payload_seals() {
        let sealed = seal(&[]);
        assert_eq!(open(&sealed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut sealed = seal(b"x");
        sealed[0] = b'Q';
        assert_eq!(open(&sealed), Err(SnapError::BadMagic));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut sealed = seal(b"x");
        sealed[4] = 99;
        assert_eq!(open(&sealed), Err(SnapError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncation_is_rejected() {
        let sealed = seal(b"payload bytes");
        for cut in 0..sealed.len() {
            let err = open(&sealed[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapError::Truncated { .. }
                        | SnapError::BadMagic
                        | SnapError::ChecksumMismatch { .. }
                        | SnapError::InvalidValue(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_is_rejected() {
        let sealed = seal(b"payload bytes");
        for i in 0..sealed.len() {
            for bit in [0u8, 3, 7] {
                let mut bad = sealed.clone();
                bad[i] ^= 1 << bit;
                assert!(open(&bad).is_err(), "flip byte {i} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut sealed = seal(b"x");
        sealed.push(0);
        assert!(matches!(
            open(&sealed),
            Err(SnapError::TrailingBytes(_) | SnapError::InvalidValue(_))
        ));
    }

    #[test]
    fn bool_rejects_junk() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(r.bool(), Err(SnapError::InvalidValue(_))));
    }

    #[test]
    fn seq_len_rejects_absurd_lengths() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(r.seq_len(), Err(SnapError::InvalidValue(_))));
    }

    #[test]
    fn errors_display_useful_diagnostics() {
        let s = SnapError::ChecksumMismatch {
            computed: 1,
            stored: 2,
        }
        .to_string();
        assert!(s.contains("corrupt"));
        assert!(SnapError::BadMagic.to_string().contains("magic"));
        assert!(SnapError::UnsupportedVersion(9)
            .to_string()
            .contains("version 9"));
    }
}
