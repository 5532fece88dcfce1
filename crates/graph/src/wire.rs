//! Binary wire codec for graphs and parameter stores, plus the versioned
//! frame layer that every artifact crossing the trust boundary is wrapped
//! in.
//!
//! The obfuscated bucket is the artifact that actually crosses the trust
//! boundary between model owner and optimizer (and that an adversary
//! intercepts, per the paper's threat model §3.1), so it needs a concrete
//! byte format. Graphs and parameter stores use a compact little-endian
//! tag-length-value encoding; per-bucket payloads are wrapped in a
//! [`Frame`] carrying a magic number, a wire-protocol version, the
//! request id and bucket index, and a payload checksum, so that a peer
//! can stream buckets one at a time, reject frames from unknown protocol
//! versions explicitly ([`WireError::UnknownVersion`]), and detect
//! in-flight corruption ([`WireError::ChecksumMismatch`]) without ever
//! panicking.

use crate::exec::{Tensor, TensorMap};
use crate::graph::{Graph, Node, NodeId};
use crate::op::{
    Activation, BatchNormAttrs, ConvAlgo, ConvAttrs, GemmAttrs, LayerNormAttrs, Op, PoolAttrs,
};
use crate::shape::Shape;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic bytes opening every [`Frame`] and every record.
pub const FRAME_MAGIC: [u8; 4] = *b"PRTB";

/// The version of the [`RECORD`] row: a `PRTB` envelope whose one fixed
/// field is a `u32` tag, under FNV-1a. Sealed by [`seal_record`] and
/// opened by [`open_record`]; it is the envelope of WAL records and
/// artifact sections, and a request decoder refuses it.
pub const WIRE_VERSION_V1: u16 = 1;

/// The request frame version: the header carries a `request_id`, so one
/// byte stream can interleave frames of many concurrent requests
/// (encoded by [`encode_frame_v3`]), and its checksum is the
/// [`word_hash64`]. Version 2 (the same layout under FNV-1a) is refused.
pub const WIRE_VERSION_V3: u16 = 3;

/// The newest wire-protocol version this library speaks. [`decode_frame`]
/// accepts [`WIRE_VERSION_V3`] and rejects every other version with
/// [`WireError::UnknownVersion`] — version negotiation is explicit,
/// never a silent misparse.
pub const WIRE_VERSION: u16 = WIRE_VERSION_V3;

/// Decoding error. Every malformed input maps to a typed variant — decode
/// paths never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the named field could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// A field decoded to an impossible value (bad tag, out-of-range id,
    /// implausible count, invalid UTF-8, ...).
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// A frame did not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// A frame was produced by a wire-protocol version this library does
    /// not speak.
    UnknownVersion {
        /// Version found in the frame header.
        got: u16,
        /// Newest version this library supports.
        supported: u16,
    },
    /// A frame's payload checksum did not match its header — the bytes
    /// were corrupted in flight.
    ChecksumMismatch {
        /// Checksum the header claimed.
        expected: u64,
        /// Checksum the received bytes hash to.
        got: u64,
    },
}

impl WireError {
    /// Shorthand for [`WireError::Truncated`].
    pub fn truncated(context: impl Into<String>) -> WireError {
        WireError::Truncated {
            context: context.into(),
        }
    }

    /// Shorthand for [`WireError::Malformed`].
    pub fn malformed(detail: impl Into<String>) -> WireError {
        WireError::Malformed {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "wire decode error: truncated input reading {context}")
            }
            WireError::Malformed { detail } => write!(f, "wire decode error: {detail}"),
            WireError::BadMagic { got } => {
                write!(f, "wire decode error: bad frame magic {got:02x?}")
            }
            WireError::UnknownVersion { got, supported } => write!(
                f,
                "wire decode error: unknown wire version {got} (this library speaks versions up to {supported})"
            ),
            WireError::ChecksumMismatch { expected, got } => write!(
                f,
                "wire decode error: payload checksum mismatch (header says {expected:#018x}, payload hashes to {got:#018x})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

type WResult<T> = std::result::Result<T, WireError>;

/// Checks that `buf` still holds the `n` bytes of field `what`
/// ([`WireError::Truncated`] naming it otherwise).
pub fn need(buf: &impl Buf, n: usize, what: &str) -> WResult<()> {
    if buf.remaining() < n {
        Err(WireError::truncated(what))
    } else {
        Ok(())
    }
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `data`: the checksum of every format whose bytes are
/// stored (WAL records, `PRTA` sections, `PRTM`) or exchanged in a hello,
/// and the store's content digests. Not cryptographic (the threat model's
/// adversary is honest-but-curious, §3.1); it exists to catch corruption
/// deterministically.
pub fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_continue(FNV_OFFSET_BASIS, data)
}

/// Feeds more bytes into a running FNV-1a state — the envelope code hashes
/// header fields and body without copying them into one buffer, and the
/// durable store chains record digests by seeding each record's hash with
/// the previous record's digest.
pub fn fnv1a64_continue(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// The little-endian word in the first 8 bytes of `b` (`b.len() >= 8`).
fn word(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

/// One multiply-rotate step of a lane.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The word hash of `data` under `seed`: four 64-bit multiply-rotate
/// lanes over 32-byte stripes, the length folded in, then 8-byte, 4-byte
/// and byte tails, and a final avalanche. Bit for bit this is XXH64, so
/// any XXH64 implementation checks it. It reads eight bytes per step
/// where FNV-1a reads one, and four independent lanes keep the
/// multiplier busy, so it runs at memory speed. It is the checksum of
/// request and error frames ([`Checksum::Word`]); like FNV-1a it catches
/// corruption, not tampering. A caller hashes two pieces without copying
/// them together by seeding the second with the first's hash.
pub fn word_hash64(seed: u64, data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut h = if data.len() >= 32 {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for s in &mut stripes {
            v[0] = round(v[0], word(&s[0..]));
            v[1] = round(v[1], word(&s[8..]));
            v[2] = round(v[2], word(&s[16..]));
            v[3] = round(v[3], word(&s[24..]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| {
            (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(data.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u64::from(u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]));
        h = (h ^ half.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The hash an envelope row's checksum uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checksum {
    /// [`fnv1a64`], byte at a time: every stored format (WAL records,
    /// `PRTA` sections, `PRTM`) and the hellos, whose bytes must not move.
    Fnv1a,
    /// [`word_hash64`]: request and error frames, which carry the
    /// megabytes a request moves. No stored format uses them as its
    /// envelope; a journal holds request frames only as record payload.
    Word,
}

impl Checksum {
    /// The checksum of the covered `header` bytes followed by `body`,
    /// chained so neither is copied: the body is hashed on from the
    /// header's state (FNV-1a) or seeded with the header's hash (word).
    fn of(self, header: &[u8], body: &[u8]) -> u64 {
        match self {
            Checksum::Fnv1a => fnv1a64_continue(fnv1a64(header), body),
            Checksum::Word => word_hash64(word_hash64(0, header), body),
        }
    }
}

/// Caps an untrusted element count for pre-allocation: never reserve more
/// elements than the remaining bytes could possibly encode (at `min_bytes`
/// encoded bytes per element). The decode loop still reads the full
/// declared count — a lying header hits a typed [`WireError::Truncated`]
/// instead of demanding a multi-GiB allocation first. Shared by every
/// codec that decodes untrusted counts (wire, artifact, store).
pub fn bounded_capacity(count: usize, buf: &impl Buf, min_bytes: usize) -> usize {
    count.min(buf.remaining() / min_bytes.max(1))
}

/// Offset of an envelope's fixed fields, after `magic[4] | version u16`.
pub const ENVELOPE_FIELDS_AT: usize = 6;

/// One row of the envelope table. Every checksummed format — `PRTB`
/// records and frames, `PRTE` error frames, `PRTH`/`PRTS` hellos, the
/// `PRTM` commit marker — is one layout:
///
/// ```text
/// magic[4] | version u16 | fixed fields | [body_len u32] | checksum u64 | body
/// ```
///
/// The checksum covers every byte between the magic and the checksum
/// field, then the body, so corruption anywhere after the magic is
/// caught. A row names one layout: its version, its fixed-field width
/// and its checksum; sealing, opening and measuring envelopes is this
/// one piece of code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Names the format in [`WireError::Truncated`] contexts.
    pub name: &'static str,
    /// The four bytes opening the envelope.
    pub magic: [u8; 4],
    /// The one version the row accepts (any other is
    /// [`WireError::UnknownVersion`]), or `None` for a format that judges
    /// the version after decoding (the handshake answers a skewed
    /// `net_protocol` typed).
    pub version: Option<u16>,
    /// Width of the fixed fields, in bytes.
    pub fields: usize,
    /// The hash of the checksum field.
    pub checksum: Checksum,
    /// Whether a `u32` body length precedes the checksum; without one
    /// the envelope has no body.
    pub has_len: bool,
    /// Largest body accepted: a longer one is [`WireError::Malformed`],
    /// on sealing and on opening before any body byte is awaited.
    pub max_body: usize,
}

/// The little-endian integer in `data[at..at + n]`, `n <= 8`.
fn le(data: &[u8], at: usize, n: usize) -> u64 {
    data[at..at + n]
        .iter()
        .rev()
        .fold(0, |v, &b| v << 8 | u64::from(b))
}

impl Envelope {
    /// Header length: magic through checksum, with no body.
    pub const fn header_len(&self) -> usize {
        ENVELOPE_FIELDS_AT + self.fields + if self.has_len { 4 } else { 0 } + 8
    }

    /// Checks the magic, then the version, opening `data`: `Ok(None)`
    /// while too few bytes are present to decide, else the version.
    fn head(&self, data: &[u8]) -> WResult<Option<u16>> {
        if data.len() < 4 {
            return Ok(None);
        }
        if data[..4] != self.magic {
            let mut got = [0u8; 4];
            got.copy_from_slice(&data[..4]);
            return Err(WireError::BadMagic { got });
        }
        if data.len() < ENVELOPE_FIELDS_AT {
            return Ok(None);
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        self.accepts(version)?;
        Ok(Some(version))
    }

    /// [`WireError::UnknownVersion`] unless the row accepts `version`.
    fn accepts(&self, version: u16) -> WResult<()> {
        match self.version {
            Some(supported) if supported != version => Err(WireError::UnknownVersion {
                got: version,
                supported,
            }),
            _ => Ok(()),
        }
    }

    /// The body length in the length field at `at`, held to the row's
    /// cap and to `cap`.
    fn body_len(&self, data: &[u8], at: usize, cap: usize) -> WResult<usize> {
        let len = if self.has_len {
            le(data, at, 4) as usize
        } else {
            0
        };
        self.within_cap(len, cap)
    }

    /// `len` unless it exceeds the row's cap or `cap`
    /// ([`WireError::Malformed`]).
    fn within_cap(&self, len: usize, cap: usize) -> WResult<usize> {
        let cap = cap.min(self.max_body);
        if len > cap {
            return Err(WireError::malformed(format!(
                "{} body length {len} exceeds the cap of {cap} bytes",
                self.name
            )));
        }
        Ok(len)
    }

    /// Writes `magic | version | fields | [body_len] | checksum | body`,
    /// the `fields` closure writing the format's fixed fields.
    ///
    /// # Errors
    /// [`WireError::UnknownVersion`] when the row does not accept
    /// `version`, and [`WireError::Malformed`] for a body over the row's
    /// cap: no decoder would open the bytes.
    ///
    /// # Panics
    /// If `body` exceeds `u32::MAX` bytes — the length field could not
    /// represent it; formats bound their bodies far below this.
    pub fn seal(
        &self,
        version: u16,
        fields: impl FnOnce(&mut BytesMut),
        body: &[u8],
    ) -> WResult<Bytes> {
        self.accepts(version)?;
        self.within_cap(body.len(), usize::MAX)?;
        Ok(self.seal_in(version, fields, body.len(), |b| b.put_slice(body)))
    }

    /// Seals the row's fixed fields with no body, at the one version the
    /// row names. Unlike [`Envelope::seal`] this cannot be refused: the
    /// version is the row's own and an empty body is within every cap
    /// (the store's commit marker).
    ///
    /// # Panics
    /// If the row names no version (`version: None`): such a row is
    /// sealed at a version its caller chooses, through [`Envelope::seal`].
    pub fn seal_fields(&self, fields: impl FnOnce(&mut BytesMut)) -> Bytes {
        let Some(version) = self.version else {
            panic!("the {} row names no version to seal at", self.name);
        };
        self.seal_in(version, fields, 0, |_| {})
    }

    /// Seals `version` with the body written in place by `body` into the
    /// envelope's own buffer, pre-sized for a `body_len`-byte body. The
    /// length and checksum fields are patched from the bytes actually
    /// written, so `body_len` only sizes the allocation. Private: the
    /// encoders in this module pass the row's own version and a body
    /// within its cap; everyone else goes through the checked
    /// [`Envelope::seal`].
    ///
    /// # Panics
    /// As [`Envelope::seal`], if the written body exceeds `u32::MAX` bytes.
    fn seal_in(
        &self,
        version: u16,
        fields: impl FnOnce(&mut BytesMut),
        body_len: usize,
        body: impl FnOnce(&mut BytesMut),
    ) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.header_len() + body_len);
        buf.put_slice(&self.magic);
        buf.put_u16_le(version);
        fields(&mut buf);
        let len_at = buf.len();
        if self.has_len {
            buf.put_u32_le(0);
        }
        let sum_at = buf.len();
        buf.put_u64_le(0);
        body(&mut buf);
        let written = buf.len() - sum_at - 8;
        let Ok(written_u32) = u32::try_from(written) else {
            panic!(
                "{} body of {written} bytes exceeds the u32 length field",
                self.name
            );
        };
        if self.has_len {
            buf[len_at..sum_at].copy_from_slice(&written_u32.to_le_bytes());
        }
        let sum = self.checksum.of(&buf[4..sum_at], &buf[sum_at + 8..]);
        buf[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        buf.freeze()
    }

    /// Opens the envelope at the front of `buf`, leaving trailing bytes,
    /// and returns `(version, fixed fields, body)`. Every format is checked
    /// in one order: magic, version, header present, body cap, body
    /// present, checksum. `buf` is untouched on error.
    ///
    /// # Errors
    /// [`WireError::BadMagic`], [`WireError::UnknownVersion`],
    /// [`WireError::Truncated`], [`WireError::Malformed`] for a body
    /// length over the cap, [`WireError::ChecksumMismatch`].
    pub fn open(&self, buf: &mut Bytes) -> WResult<(u16, Bytes, Bytes)> {
        let truncated = |part: &str| WireError::truncated(format!("{} {part}", self.name));
        let Some(version) = self.head(buf)? else {
            return Err(truncated(if buf.len() < 4 { "magic" } else { "version" }));
        };
        let at = ENVELOPE_FIELDS_AT + self.fields;
        let header = self.header_len();
        if buf.len() < header {
            return Err(truncated("header"));
        }
        let body = self.body_len(buf, at, usize::MAX)?;
        if buf.len() < header + body {
            return Err(truncated("body"));
        }
        let expected = le(buf, header - 8, 8);
        let got = self
            .checksum
            .of(&buf[4..header - 8], &buf[header..header + body]);
        if got != expected {
            return Err(WireError::ChecksumMismatch { expected, got });
        }
        let raw = buf.split_to(header + body);
        Ok((
            version,
            raw.slice(ENVELOPE_FIELDS_AT..at),
            raw.slice(header..raw.len()),
        ))
    }
}

/// How long the envelope at the front of a stream buffer is — the length
/// its row's [`Envelope::open`] consumes — for a reader that waits for
/// whole envelopes: `Ok(None)` until its magic, version, fixed fields and
/// length field are buffered. Bodies longer than `cap` (or the row's own
/// cap) are refused before they are awaited.
///
/// # Errors
/// [`WireError::BadMagic`] when no row in `rows` (which must not be
/// empty) opens `data`, and the row's version and body-cap rejections.
pub fn envelope_len(rows: &[&Envelope], data: &[u8], cap: usize) -> WResult<Option<usize>> {
    // a magic no row carries is reported by the first row's check
    let row = rows
        .iter()
        .find(|r| data.starts_with(&r.magic))
        .unwrap_or(&rows[0]);
    if row.head(data)?.is_none() {
        return Ok(None);
    }
    let at = ENVELOPE_FIELDS_AT + row.fields;
    if data.len() < at + if row.has_len { 4 } else { 0 } {
        return Ok(None);
    }
    Ok(Some(row.header_len() + row.body_len(data, at, cap)?))
}

/// The `PRTB` record row: version 1, `tag u32` under FNV-1a. It is the
/// envelope of everything stored — WAL records and `PRTA` sections —
/// never of a request. Bodies are not capped here.
pub const RECORD: Envelope = Envelope {
    name: "record",
    magic: FRAME_MAGIC,
    version: Some(WIRE_VERSION_V1),
    fields: 4,
    checksum: Checksum::Fnv1a,
    has_len: true,
    max_body: usize::MAX,
};

/// The `PRTB` request-frame row: version 3, `request_id u64 |
/// bucket_index u32` under the word hash. Bodies are not capped here; a
/// stream reader applies its own limit.
pub const FRAME: Envelope = Envelope {
    name: "frame",
    magic: FRAME_MAGIC,
    version: Some(WIRE_VERSION_V3),
    fields: 12,
    checksum: Checksum::Word,
    has_len: true,
    max_body: usize::MAX,
};

/// The `PRTE` error-frame row: `request_id u64 | code u16`, version 3
/// under the word hash, detail at most [`MAX_ERROR_DETAIL`] bytes.
pub const ERROR_FRAME: Envelope = Envelope {
    name: "error frame",
    magic: ERROR_FRAME_MAGIC,
    version: Some(WIRE_VERSION_V3),
    fields: 10,
    checksum: Checksum::Word,
    has_len: true,
    max_body: MAX_ERROR_DETAIL,
};

/// Wraps the concatenation of `payload` in a [`RECORD`] envelope:
///
/// ```text
/// magic[4] | version=1 u16 | tag u32 | payload_len u32 | checksum u64 |
/// payload
/// ```
///
/// The pieces are written straight into the record's buffer, so a caller
/// prefixing a body (the WAL's chain prefix) copies it once.
///
/// # Panics
/// As [`Envelope::seal`], if the payload exceeds `u32::MAX` bytes.
pub fn seal_record(tag: u32, payload: &[&[u8]]) -> Bytes {
    let len = payload.iter().map(|p| p.len()).sum();
    RECORD.seal_in(
        WIRE_VERSION_V1,
        |f| f.put_u32_le(tag),
        len,
        |b| payload.iter().for_each(|p| b.put_slice(p)),
    )
}

/// Opens the [`RECORD`] at the front of `buf`, leaving trailing bytes
/// (a stream of records opens by repeated calls), and returns
/// `(tag, payload)`.
///
/// # Errors
/// As [`Envelope::open`]; a request frame is
/// [`WireError::UnknownVersion`] `{ supported: 1 }`.
pub fn open_record(buf: &mut Bytes) -> WResult<(u32, Bytes)> {
    let (_, mut fields, payload) = RECORD.open(buf)?;
    Ok((fields.get_u32_le(), payload))
}

/// One decoded request frame: header fields plus the raw payload (the
/// payload codec is the caller's concern — for Proteus it is a sealed
/// bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Which request of a multiplexed stream this frame belongs to.
    pub request_id: u64,
    /// Which bucket of the obfuscated model this frame carries.
    pub bucket_index: u32,
    /// The checksummed payload bytes.
    pub payload: Bytes,
}

/// Wraps `payload` in a [`FRAME`] envelope:
///
/// ```text
/// magic[4] | version=3 u16 | request_id u64 | bucket_index u32 |
/// payload_len u32 | checksum u64 | payload
/// ```
///
/// The request id sits in the checksummed header, so one byte stream can
/// carry interleaved frames of many concurrent requests and a receiver
/// can demultiplex them — corruption of the id is caught like any other
/// header corruption. The checksum is the [`word_hash64`].
///
/// # Panics
/// As [`Envelope::seal`], if `payload` exceeds `u32::MAX` bytes; buckets
/// are bounded far below this by partitioning.
pub fn encode_frame_v3(request_id: u64, bucket_index: u32, payload: &[u8]) -> Bytes {
    seal_frame(request_id, bucket_index, payload.len(), |b| {
        b.put_slice(payload)
    })
}

/// Seals a [`FRAME`] whose payload the `payload` closure writes in
/// place, into the frame's own buffer pre-sized for `payload_len` bytes:
/// the bytes of [`encode_frame_v3`] over the same payload, without
/// building the payload in a buffer of its own first. The length and
/// checksum fields are patched from the bytes actually written.
///
/// # Panics
/// As [`encode_frame_v3`], if the payload exceeds `u32::MAX` bytes.
pub fn seal_frame(
    request_id: u64,
    bucket_index: u32,
    payload_len: usize,
    payload: impl FnOnce(&mut BytesMut),
) -> Bytes {
    let fields = |f: &mut BytesMut| {
        f.put_u64_le(request_id);
        f.put_u32_le(bucket_index);
    };
    FRAME.seal_in(WIRE_VERSION_V3, fields, payload_len, payload)
}

/// Reads the request id out of a frame header without decoding — or
/// checksum-verifying — the payload: the cheap peek a demultiplexing
/// router needs to pick the owning lane before handing the untouched
/// bytes on for full validation.
///
/// # Errors
/// [`WireError::BadMagic`] / [`WireError::UnknownVersion`] /
/// [`WireError::Truncated`] for headers too malformed to route; a
/// record, which carries no request id, and a v2 frame are
/// [`WireError::UnknownVersion`].
pub fn peek_frame_request_id(data: &[u8]) -> WResult<u64> {
    match FRAME.head(data)? {
        None => Err(WireError::truncated("frame header peek")),
        Some(_) => data
            .get(ENVELOPE_FIELDS_AT..ENVELOPE_FIELDS_AT + 8)
            .map(|id| le(id, 0, 8))
            .ok_or_else(|| WireError::truncated("frame request id")),
    }
}

/// Decodes one request frame from the front of `buf`, leaving any
/// trailing bytes (a stream of frames decodes by repeated calls). Only
/// [`WIRE_VERSION_V3`], whose header names the request, is accepted.
///
/// # Errors
/// As [`Envelope::open`]: [`WireError::BadMagic`] /
/// [`WireError::UnknownVersion`] / [`WireError::ChecksumMismatch`] for
/// the respective header violations, [`WireError::Truncated`] when the
/// buffer ends early. A record or a v2 frame is
/// [`WireError::UnknownVersion`] `{ supported: 3 }`.
pub fn decode_frame(buf: &mut Bytes) -> WResult<Frame> {
    let (_, mut fields, payload) = FRAME.open(buf)?;
    Ok(Frame {
        request_id: fields.get_u64_le(),
        bucket_index: fields.get_u32_le(),
        payload,
    })
}

/// Magic bytes opening every [`ErrorFrame`] on the wire. Distinct from
/// [`FRAME_MAGIC`] so a receiver can tell data from errors after reading
/// four bytes, before committing to a header layout.
pub const ERROR_FRAME_MAGIC: [u8; 4] = *b"PRTE";

/// Largest error-frame detail string a decoder will accept. Details are
/// human-oriented diagnostics, not payloads; anything bigger is a
/// malformed length field, not a legitimate message.
pub const MAX_ERROR_DETAIL: usize = 64 * 1024;

/// Typed reason codes carried by [`ErrorFrame`]s — the service-level error
/// taxonomy, flattened to stable `u16` values so failures cross the trust
/// boundary as values a client can match on instead of as dropped
/// connections. Codes 1–11 mirror the core `ProteusError` variants; codes
/// 12–18 are service conditions that only exist at the network boundary
/// (handshake rejection, admission control, shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// Invalid obfuscation configuration on the serving side.
    Config = 1,
    /// Graph partitioning failed for the request.
    Partition = 2,
    /// A frame failed wire decoding (truncation, corruption, bad magic).
    Wire = 3,
    /// Graph validation or execution failed.
    Graph = 4,
    /// A protocol invariant was violated (wrong lane, recv on idle lane).
    Protocol = 5,
    /// The same bucket index was submitted twice for one request.
    DuplicateFrame = 6,
    /// A persistent artifact could not be loaded or verified.
    Artifact = 7,
    /// A serving worker crashed while optimizing the frame.
    WorkerCrashed = 8,
    /// The request missed its latency deadline.
    Deadline = 9,
    /// The serving runtime could not be brought up (a worker thread
    /// failed to spawn).
    ReplicaUnavailable = 10,
    /// Reserved: no longer produced. Kept so the value is never reused.
    RetriesExhausted = 11,
    /// Handshake rejected: peer speaks an unsupported protocol version.
    VersionMismatch = 12,
    /// Handshake rejected: the tenant auth token is not recognised.
    BadAuth = 13,
    /// Handshake rejected: the client expects a different trained
    /// artifact than the one the server was given.
    FingerprintMismatch = 14,
    /// Admission rejected: the tenant exceeded its concurrent-request
    /// quota.
    QuotaExceeded = 15,
    /// Admission rejected: the server is at its connection limit.
    ConnectionLimit = 16,
    /// The server is draining for shutdown and accepts no new requests.
    Shutdown = 17,
    /// Any other server-side failure.
    Internal = 18,
}

impl ErrorCode {
    /// Every defined code, in ascending wire-value order.
    pub const ALL: [ErrorCode; 18] = [
        ErrorCode::Config,
        ErrorCode::Partition,
        ErrorCode::Wire,
        ErrorCode::Graph,
        ErrorCode::Protocol,
        ErrorCode::DuplicateFrame,
        ErrorCode::Artifact,
        ErrorCode::WorkerCrashed,
        ErrorCode::Deadline,
        ErrorCode::ReplicaUnavailable,
        ErrorCode::RetriesExhausted,
        ErrorCode::VersionMismatch,
        ErrorCode::BadAuth,
        ErrorCode::FingerprintMismatch,
        ErrorCode::QuotaExceeded,
        ErrorCode::ConnectionLimit,
        ErrorCode::Shutdown,
        ErrorCode::Internal,
    ];

    /// The stable wire value of this code.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire value back to a typed code. Unknown values are a
    /// decode error, not a silent `Internal` — a peer speaking a newer
    /// taxonomy must be surfaced, per the same explicit-rejection policy
    /// as [`WireError::UnknownVersion`].
    pub fn from_u16(v: u16) -> WResult<ErrorCode> {
        ErrorCode::ALL
            .iter()
            .copied()
            .find(|c| c.as_u16() == v)
            .ok_or_else(|| WireError::malformed(format!("unknown error code {v}")))
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Config => "config",
            ErrorCode::Partition => "partition",
            ErrorCode::Wire => "wire",
            ErrorCode::Graph => "graph",
            ErrorCode::Protocol => "protocol",
            ErrorCode::DuplicateFrame => "duplicate-frame",
            ErrorCode::Artifact => "artifact",
            ErrorCode::WorkerCrashed => "worker-crashed",
            ErrorCode::Deadline => "deadline",
            ErrorCode::ReplicaUnavailable => "replica-unavailable",
            ErrorCode::RetriesExhausted => "retries-exhausted",
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::BadAuth => "bad-auth",
            ErrorCode::FingerprintMismatch => "fingerprint-mismatch",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::ConnectionLimit => "connection-limit",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// A server→client error notification: which request failed, a typed
/// reason code, and a human-oriented detail string. Encoded with
/// [`encode_error_frame`]; carried on the same byte stream as data
/// frames, distinguished by [`ERROR_FRAME_MAGIC`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request the failure belongs to; `0` for connection-level
    /// failures that predate any request (handshake rejection).
    pub request_id: u64,
    /// The typed reason.
    pub code: ErrorCode,
    /// Human-oriented diagnostic detail (UTF-8, possibly empty).
    pub detail: String,
}

impl ErrorFrame {
    /// Builds an error frame.
    pub fn new(request_id: u64, code: ErrorCode, detail: impl Into<String>) -> ErrorFrame {
        ErrorFrame {
            request_id,
            code,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "remote error [{}] on request {}: {}",
            self.code, self.request_id, self.detail
        )
    }
}

/// Encodes an [`ErrorFrame`] as an [`ERROR_FRAME`] envelope:
///
/// ```text
/// magic[4]="PRTE" | version u16 | request_id u64 | code u16 |
/// detail_len u32 | checksum u64 | detail bytes
/// ```
///
/// Details longer than [`MAX_ERROR_DETAIL`] are truncated on encode — an
/// error report must never itself become undecodable.
pub fn encode_error_frame(frame: &ErrorFrame) -> Bytes {
    let detail = frame.detail.as_bytes();
    let detail = &detail[..floor_char_boundary(&frame.detail, detail.len().min(MAX_ERROR_DETAIL))];
    let fields = |f: &mut BytesMut| {
        f.put_u64_le(frame.request_id);
        f.put_u16_le(frame.code.as_u16());
    };
    ERROR_FRAME.seal_in(WIRE_VERSION_V3, fields, detail.len(), |b| {
        b.put_slice(detail)
    })
}

/// Largest UTF-8 boundary at or below `at` (stable substitute for the
/// unstable `str::floor_char_boundary`).
fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Decodes one [`ErrorFrame`] from the front of `buf`, leaving any
/// trailing bytes.
///
/// # Errors
/// [`WireError::BadMagic`] when the buffer does not open with
/// [`ERROR_FRAME_MAGIC`], [`WireError::UnknownVersion`] for versions other
/// than [`WIRE_VERSION_V3`], [`WireError::Malformed`] for unknown codes,
/// implausible detail lengths, or invalid UTF-8,
/// [`WireError::ChecksumMismatch`] for corrupted bytes, and
/// [`WireError::Truncated`] when the buffer ends early.
pub fn decode_error_frame(buf: &mut Bytes) -> WResult<ErrorFrame> {
    let (_, mut fields, detail) = ERROR_FRAME.open(buf)?;
    let request_id = fields.get_u64_le();
    let code = ErrorCode::from_u16(fields.get_u16_le())?;
    let detail = String::from_utf8(detail.to_vec())
        .map_err(|_| WireError::malformed("error detail is not valid utf8"))?;
    Ok(ErrorFrame {
        request_id,
        code,
        detail,
    })
}

/// Longest string [`get_str`] accepts (1 MiB). Its length prefix is
/// checked against the input first, so a lying prefix is `Truncated`.
pub const MAX_STRING_LEN: usize = 1 << 20;

/// Writes a `u32` length-prefixed UTF-8 string.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    put_blob(buf, s.as_bytes());
}

/// Reads a [`put_str`] string: `Truncated` naming `what` when the input
/// ends early, `Malformed` past [`MAX_STRING_LEN`] or on invalid UTF-8.
pub fn get_str(buf: &mut Bytes, what: &str) -> WResult<String> {
    let raw = get_blob(buf, what)?;
    if raw.len() > MAX_STRING_LEN {
        return Err(WireError::malformed(format!(
            "implausible string length {} reading {what}",
            raw.len()
        )));
    }
    String::from_utf8(raw.to_vec())
        .map_err(|_| WireError::malformed(format!("invalid utf8 reading {what}")))
}

/// Writes a `u32` length-prefixed byte blob.
pub fn put_blob(buf: &mut impl BufMut, blob: &[u8]) {
    buf.put_u32_le(blob.len() as u32);
    buf.put_slice(blob);
}

/// Reads a [`put_blob`] blob without copying it (`Truncated` naming
/// `what` when the input ends early).
pub fn get_blob(buf: &mut Bytes, what: &str) -> WResult<Bytes> {
    need(buf, 4, what)?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, what)?;
    Ok(buf.split_to(len))
}

fn put_shape(buf: &mut impl BufMut, s: &Shape) {
    buf.put_u32_le(s.rank() as u32);
    for &d in s.dims() {
        buf.put_u64_le(d as u64);
    }
}

fn get_shape(buf: &mut Bytes) -> WResult<Shape> {
    need(buf, 4, "shape rank")?;
    let rank = buf.get_u32_le() as usize;
    if rank > 64 {
        return Err(WireError::malformed(format!("implausible rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        need(buf, 8, "shape dim")?;
        dims.push(buf.get_u64_le() as usize);
    }
    Ok(Shape::new(dims))
}

fn act_tag(a: Activation) -> u8 {
    Activation::ALL
        .iter()
        .position(|&x| x == a)
        .expect("known activation") as u8
}

fn act_from(tag: u8) -> WResult<Activation> {
    Activation::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| WireError::malformed(format!("bad activation tag {tag}")))
}

fn put_conv(buf: &mut impl BufMut, c: &ConvAttrs) {
    buf.put_u32_le(c.in_channels as u32);
    buf.put_u32_le(c.out_channels as u32);
    buf.put_u16_le(c.kernel as u16);
    buf.put_u16_le(c.stride as u16);
    buf.put_u16_le(c.padding as u16);
    buf.put_u32_le(c.groups as u32);
    buf.put_u8(c.has_bias as u8);
    buf.put_u8(matches!(c.algo, ConvAlgo::Winograd) as u8);
    match c.fused_act {
        Some(a) => {
            buf.put_u8(1);
            buf.put_u8(act_tag(a));
        }
        None => buf.put_u8(0),
    }
    buf.put_u8(c.fused_add as u8);
}

fn get_conv(buf: &mut Bytes) -> WResult<ConvAttrs> {
    need(buf, 4 + 4 + 2 + 2 + 2 + 4 + 3, "conv attrs")?;
    let in_channels = buf.get_u32_le() as usize;
    let out_channels = buf.get_u32_le() as usize;
    let kernel = buf.get_u16_le() as usize;
    let stride = buf.get_u16_le() as usize;
    let padding = buf.get_u16_le() as usize;
    let groups = buf.get_u32_le() as usize;
    let has_bias = buf.get_u8() != 0;
    let winograd = buf.get_u8() != 0;
    let has_act = buf.get_u8() != 0;
    let fused_act = if has_act {
        need(buf, 1, "conv act tag")?;
        Some(act_from(buf.get_u8())?)
    } else {
        None
    };
    need(buf, 1, "conv fused_add")?;
    let fused_add = buf.get_u8() != 0;
    Ok(ConvAttrs {
        in_channels,
        out_channels,
        kernel,
        stride,
        padding,
        groups,
        has_bias,
        algo: if winograd {
            ConvAlgo::Winograd
        } else {
            ConvAlgo::Direct
        },
        fused_act,
        fused_add,
    })
}

fn put_op(buf: &mut impl BufMut, op: &Op) {
    match op {
        Op::Input { shape } => {
            buf.put_u8(0);
            put_shape(buf, shape);
        }
        Op::Constant { shape } => {
            buf.put_u8(1);
            put_shape(buf, shape);
        }
        Op::Conv(c) => {
            buf.put_u8(2);
            put_conv(buf, c);
        }
        Op::Gemm(g) => {
            buf.put_u8(3);
            buf.put_u64_le(g.in_features as u64);
            buf.put_u64_le(g.out_features as u64);
            buf.put_u8(g.has_bias as u8);
            match g.fused_act {
                Some(a) => {
                    buf.put_u8(1);
                    buf.put_u8(act_tag(a));
                }
                None => buf.put_u8(0),
            }
        }
        Op::MatMul => buf.put_u8(4),
        Op::MatMulT => buf.put_u8(5),
        Op::BatchNorm(b) => {
            buf.put_u8(6);
            buf.put_u64_le(b.channels as u64);
        }
        Op::LayerNorm(l) => {
            buf.put_u8(7);
            buf.put_u64_le(l.dim as u64);
        }
        Op::SkipLayerNorm(l) => {
            buf.put_u8(8);
            buf.put_u64_le(l.dim as u64);
        }
        Op::Activation(a) => {
            buf.put_u8(9);
            buf.put_u8(act_tag(*a));
        }
        Op::Softmax { axis } => {
            buf.put_u8(10);
            buf.put_i64_le(*axis as i64);
        }
        Op::Add => buf.put_u8(11),
        Op::Sub => buf.put_u8(12),
        Op::Mul => buf.put_u8(13),
        Op::Div => buf.put_u8(14),
        Op::AddAct(a) => {
            buf.put_u8(15);
            buf.put_u8(act_tag(*a));
        }
        Op::MaxPool(p) => {
            buf.put_u8(16);
            buf.put_u16_le(p.kernel as u16);
            buf.put_u16_le(p.stride as u16);
            buf.put_u16_le(p.padding as u16);
        }
        Op::AveragePool(p) => {
            buf.put_u8(17);
            buf.put_u16_le(p.kernel as u16);
            buf.put_u16_le(p.stride as u16);
            buf.put_u16_le(p.padding as u16);
        }
        Op::GlobalAveragePool => buf.put_u8(18),
        Op::Concat { axis } => {
            buf.put_u8(19);
            buf.put_u64_le(*axis as u64);
        }
        Op::Flatten => buf.put_u8(20),
        Op::Reshape { shape } => {
            buf.put_u8(21);
            put_shape(buf, shape);
        }
        Op::Transpose { perm } => {
            buf.put_u8(22);
            buf.put_u32_le(perm.len() as u32);
            for &p in perm {
                buf.put_u32_le(p as u32);
            }
        }
        Op::Identity => buf.put_u8(23),
        Op::Dropout { p } => {
            buf.put_u8(24);
            buf.put_u32_le(*p);
        }
        Op::ReduceMean { axes, keepdims } => {
            buf.put_u8(25);
            buf.put_u32_le(axes.len() as u32);
            for &a in axes {
                buf.put_u32_le(a as u32);
            }
            buf.put_u8(*keepdims as u8);
        }
        Op::Gather { vocab, dim } => {
            buf.put_u8(26);
            buf.put_u64_le(*vocab as u64);
            buf.put_u64_le(*dim as u64);
        }
    }
}

fn get_op(buf: &mut Bytes) -> WResult<Op> {
    need(buf, 1, "op tag")?;
    let tag = buf.get_u8();
    Ok(match tag {
        0 => Op::Input {
            shape: get_shape(buf)?,
        },
        1 => Op::Constant {
            shape: get_shape(buf)?,
        },
        2 => Op::Conv(get_conv(buf)?),
        3 => {
            need(buf, 8 + 8 + 2, "gemm attrs")?;
            let in_features = buf.get_u64_le() as usize;
            let out_features = buf.get_u64_le() as usize;
            let has_bias = buf.get_u8() != 0;
            let has_act = buf.get_u8() != 0;
            let fused_act = if has_act {
                need(buf, 1, "gemm act tag")?;
                Some(act_from(buf.get_u8())?)
            } else {
                None
            };
            Op::Gemm(GemmAttrs {
                in_features,
                out_features,
                has_bias,
                fused_act,
            })
        }
        4 => Op::MatMul,
        5 => Op::MatMulT,
        6 => {
            need(buf, 8, "bn channels")?;
            Op::BatchNorm(BatchNormAttrs {
                channels: buf.get_u64_le() as usize,
            })
        }
        7 => {
            need(buf, 8, "ln dim")?;
            Op::LayerNorm(LayerNormAttrs {
                dim: buf.get_u64_le() as usize,
            })
        }
        8 => {
            need(buf, 8, "skip-ln dim")?;
            Op::SkipLayerNorm(LayerNormAttrs {
                dim: buf.get_u64_le() as usize,
            })
        }
        9 => {
            need(buf, 1, "activation tag")?;
            Op::Activation(act_from(buf.get_u8())?)
        }
        10 => {
            need(buf, 8, "softmax axis")?;
            Op::Softmax {
                axis: buf.get_i64_le() as isize,
            }
        }
        11 => Op::Add,
        12 => Op::Sub,
        13 => Op::Mul,
        14 => Op::Div,
        15 => {
            need(buf, 1, "add-act tag")?;
            Op::AddAct(act_from(buf.get_u8())?)
        }
        16 | 17 => {
            need(buf, 6, "pool attrs")?;
            let p = PoolAttrs::new(
                buf.get_u16_le() as usize,
                buf.get_u16_le() as usize,
                buf.get_u16_le() as usize,
            );
            if tag == 16 {
                Op::MaxPool(p)
            } else {
                Op::AveragePool(p)
            }
        }
        18 => Op::GlobalAveragePool,
        19 => {
            need(buf, 8, "concat axis")?;
            Op::Concat {
                axis: buf.get_u64_le() as usize,
            }
        }
        20 => Op::Flatten,
        21 => Op::Reshape {
            shape: get_shape(buf)?,
        },
        22 => {
            need(buf, 4, "perm len")?;
            let len = buf.get_u32_le() as usize;
            if len > 64 {
                return Err(WireError::malformed(format!(
                    "implausible perm length {len}"
                )));
            }
            let mut perm = Vec::with_capacity(len);
            for _ in 0..len {
                need(buf, 4, "perm entry")?;
                perm.push(buf.get_u32_le() as usize);
            }
            Op::Transpose { perm }
        }
        23 => Op::Identity,
        24 => {
            need(buf, 4, "dropout p")?;
            Op::Dropout {
                p: buf.get_u32_le(),
            }
        }
        25 => {
            need(buf, 4, "axes len")?;
            let len = buf.get_u32_le() as usize;
            if len > 64 {
                return Err(WireError::malformed(format!(
                    "implausible axes length {len}"
                )));
            }
            let mut axes = Vec::with_capacity(len);
            for _ in 0..len {
                need(buf, 4, "axis")?;
                axes.push(buf.get_u32_le() as usize);
            }
            need(buf, 1, "keepdims")?;
            Op::ReduceMean {
                axes,
                keepdims: buf.get_u8() != 0,
            }
        }
        26 => {
            need(buf, 16, "gather attrs")?;
            Op::Gather {
                vocab: buf.get_u64_le() as usize,
                dim: buf.get_u64_le() as usize,
            }
        }
        other => return Err(WireError::malformed(format!("unknown op tag {other}"))),
    })
}

/// A [`BufMut`] that only counts: sizes an encoding exactly by running
/// its writer without storing a byte.
struct Tally(usize);

impl BufMut for Tally {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// Writes an already-compacted graph.
fn put_graph(buf: &mut impl BufMut, g: &Graph) {
    put_str(buf, g.name());
    buf.put_u32_le(g.len() as u32);
    for (_, node) in g.iter() {
        put_str(buf, &node.name);
        put_op(buf, &node.op);
        buf.put_u32_le(node.inputs.len() as u32);
        for inp in &node.inputs {
            buf.put_u32_le(inp.index() as u32);
        }
    }
    buf.put_u32_le(g.outputs().len() as u32);
    for out in g.outputs() {
        buf.put_u32_le(out.index() as u32);
    }
}

/// One graph and its parameter store made ready for the wire: the graph
/// is compacted once, and both encodings' exact lengths are known before
/// a byte is written, so a caller can write many of them into one
/// pre-sized buffer. [`encode_graph`] and [`encode_params`] produce the
/// same bytes one buffer each.
#[derive(Debug)]
pub struct MemberEncoder<'p> {
    graph: Graph,
    graph_len: usize,
    /// `(compacted node index, tensors)` in the source graph's order.
    params: Vec<(u32, &'p [Tensor])>,
}

impl<'p> MemberEncoder<'p> {
    /// Compacts `graph` and maps `params` onto the compacted numbering.
    pub fn new(graph: &Graph, params: &'p TensorMap) -> MemberEncoder<'p> {
        let (compacted, mapping) = graph.compact();
        let params = graph
            .iter()
            .filter_map(|(id, _)| params.get(id).map(|t| (mapping[&id].index() as u32, t)))
            .collect();
        let mut tally = Tally(0);
        put_graph(&mut tally, &compacted);
        MemberEncoder {
            graph: compacted,
            graph_len: tally.0,
            params,
        }
    }

    /// Length of the graph encoding.
    pub fn graph_len(&self) -> usize {
        self.graph_len
    }

    /// Length of the parameter-store encoding.
    pub fn params_len(&self) -> usize {
        let tensor = |t: &Tensor| 4 + 8 * t.shape().rank() + 4 * t.data().len();
        let entry = |ts: &[Tensor]| 8 + ts.iter().map(tensor).sum::<usize>();
        4 + self.params.iter().map(|(_, ts)| entry(ts)).sum::<usize>()
    }

    /// Appends the graph encoding ([`encode_graph`]'s bytes).
    pub fn put_graph(&self, buf: &mut BytesMut) {
        put_graph(buf, &self.graph);
    }

    /// Appends the parameter-store encoding ([`encode_params`]'s bytes):
    /// each tensor's data is one `resize` of the buffer, filled four
    /// bytes per float.
    pub fn put_params(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.params.len() as u32);
        for &(idx, tensors) in &self.params {
            buf.put_u32_le(idx);
            buf.put_u32_le(tensors.len() as u32);
            for t in tensors {
                put_shape(buf, t.shape());
                let at = buf.len();
                buf.resize(at + 4 * t.data().len(), 0);
                for (dst, v) in buf[at..].chunks_exact_mut(4).zip(t.data()) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
}

/// Encodes a graph (compacted: tombstones dropped, ids renumbered).
pub fn encode_graph(graph: &Graph) -> Bytes {
    let (g, _) = graph.compact();
    let mut buf = BytesMut::new();
    put_graph(&mut buf, &g);
    buf.freeze()
}

/// Decodes a graph from [`encode_graph`] bytes.
pub fn decode_graph(buf: &mut Bytes) -> WResult<Graph> {
    let name = get_str(buf, "graph name")?;
    let mut g = Graph::new(name);
    need(buf, 4, "node count")?;
    let count = buf.get_u32_le() as usize;
    if count > 10_000_000 {
        return Err(WireError::malformed(format!(
            "implausible node count {count}"
        )));
    }
    // a node encodes to at least 9 bytes (empty name, 1-byte op, input
    // count), so a tiny buffer claiming millions of nodes cannot force a
    // matching pre-allocation
    let cap = bounded_capacity(count, buf, 9);
    let mut ids: Vec<NodeId> = Vec::with_capacity(cap);
    let mut pending: Vec<Node> = Vec::with_capacity(cap);
    for _ in 0..count {
        let node_name = get_str(buf, "node name")?;
        let op = get_op(buf)?;
        need(buf, 4, "input count")?;
        let n_in = buf.get_u32_le() as usize;
        if n_in > count {
            return Err(WireError::malformed(format!(
                "node has {n_in} inputs in {count}-node graph"
            )));
        }
        let mut inputs = Vec::with_capacity(bounded_capacity(n_in, buf, 4));
        for _ in 0..n_in {
            need(buf, 4, "input id")?;
            let raw = buf.get_u32_le() as usize;
            if raw >= count {
                return Err(WireError::malformed(format!("input id {raw} out of range")));
            }
            inputs.push(NodeId::from_index(raw));
        }
        pending.push(Node {
            op,
            inputs,
            name: node_name,
        });
    }
    for node in pending {
        let id = g.add_named(node.op, node.inputs, node.name);
        ids.push(id);
    }
    need(buf, 4, "output count")?;
    let n_out = buf.get_u32_le() as usize;
    if n_out > count {
        return Err(WireError::malformed(format!(
            "{n_out} outputs in {count}-node graph"
        )));
    }
    let mut outs = Vec::with_capacity(bounded_capacity(n_out, buf, 4));
    for _ in 0..n_out {
        need(buf, 4, "output id")?;
        let raw = buf.get_u32_le() as usize;
        if raw >= count {
            return Err(WireError::malformed(format!(
                "output id {raw} out of range"
            )));
        }
        outs.push(NodeId::from_index(raw));
    }
    g.set_outputs(outs);
    Ok(g)
}

/// Encodes a parameter store against a graph's (compacted) node numbering.
pub fn encode_params(graph: &Graph, params: &TensorMap) -> Bytes {
    let member = MemberEncoder::new(graph, params);
    let mut buf = BytesMut::with_capacity(member.params_len());
    member.put_params(&mut buf);
    buf.freeze()
}

/// Decodes a parameter store from [`encode_params`] bytes.
///
/// # Errors
/// [`WireError::Truncated`] when the bytes end early,
/// [`WireError::Malformed`] for an implausible tensor count or a shape
/// whose byte count overflows `usize`.
pub fn decode_params(buf: &mut Bytes) -> WResult<TensorMap> {
    need(buf, 4, "param entry count")?;
    let count = buf.get_u32_le() as usize;
    let mut map = TensorMap::new();
    for _ in 0..count {
        need(buf, 8, "param header")?;
        let idx = buf.get_u32_le() as usize;
        let n = buf.get_u32_le() as usize;
        if n > 16 {
            return Err(WireError::malformed(format!(
                "implausible tensor count {n}"
            )));
        }
        let mut tensors = Vec::with_capacity(n);
        for _ in 0..n {
            let shape = get_shape(buf)?;
            let len = shape
                .checked_numel()
                .and_then(|n| n.checked_mul(4))
                .ok_or_else(|| {
                    WireError::malformed(format!("tensor shape {shape} overflows its byte count"))
                })?;
            need(buf, len, "tensor data")?;
            let data = buf
                .split_to(len)
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            tensors.push(Tensor::new(shape, data));
        }
        map.insert(NodeId::from_index(idx), tensors);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rich_graph() -> Graph {
        let mut g = Graph::new("rich");
        let x = g.input([1, 3, 16, 16]);
        let c = g.add(Op::Conv(ConvAttrs::new(3, 8, 3).padding(1)), [x]);
        let bn = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c]);
        let r = g.add(Op::Activation(Activation::Relu), [bn]);
        let p = g.add(Op::MaxPool(PoolAttrs::new(2, 2, 0)), [r]);
        let gap = g.add(Op::GlobalAveragePool, [p]);
        let f = g.add(Op::Flatten, [gap]);
        let fc = g.add(Op::Gemm(GemmAttrs::new(8, 4)), [f]);
        let sm = g.add(Op::Softmax { axis: -1 }, [fc]);
        g.set_outputs([sm]);
        g
    }

    #[test]
    fn graph_roundtrip() {
        let g = rich_graph();
        let bytes = encode_graph(&g);
        let mut buf = bytes.clone();
        let back = decode_graph(&mut buf).unwrap();
        assert_eq!(back.len(), g.len());
        assert_eq!(back.edge_count(), g.edge_count());
        back.validate().unwrap();
        let mut a: Vec<_> = g.iter().map(|(_, n)| n.op.opcode()).collect();
        let mut b: Vec<_> = back.iter().map(|(_, n)| n.op.opcode()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(buf.is_empty(), "no trailing bytes");
    }

    #[test]
    fn every_op_roundtrips() {
        use crate::op::LayerNormAttrs;
        let ops = vec![
            Op::Input {
                shape: Shape::from([1, 2]),
            },
            Op::Constant {
                shape: Shape::from([3]),
            },
            Op::Conv(ConvAttrs::new(4, 8, 3).stride(2).padding(1).groups(2)),
            Op::Gemm(GemmAttrs::new(5, 6)),
            Op::MatMul,
            Op::MatMulT,
            Op::BatchNorm(BatchNormAttrs { channels: 7 }),
            Op::LayerNorm(LayerNormAttrs { dim: 9 }),
            Op::SkipLayerNorm(LayerNormAttrs { dim: 11 }),
            Op::Activation(Activation::Gelu),
            Op::Softmax { axis: -1 },
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::AddAct(Activation::Relu6),
            Op::MaxPool(PoolAttrs::new(3, 2, 1)),
            Op::AveragePool(PoolAttrs::new(2, 2, 0)),
            Op::GlobalAveragePool,
            Op::Concat { axis: 1 },
            Op::Flatten,
            Op::Reshape {
                shape: Shape::from([2, 3]),
            },
            Op::Transpose {
                perm: vec![1, 0, 2],
            },
            Op::Identity,
            Op::Dropout { p: 30 },
            Op::ReduceMean {
                axes: vec![1, 2],
                keepdims: true,
            },
            Op::Gather {
                vocab: 100,
                dim: 16,
            },
        ];
        for op in ops {
            let mut buf = BytesMut::new();
            put_op(&mut buf, &op);
            let mut bytes = buf.freeze();
            let back = get_op(&mut bytes).unwrap();
            assert_eq!(back, op);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn params_roundtrip() {
        let g = rich_graph();
        let params = TensorMap::init_random(&g, 11);
        let bytes = encode_params(&g, &params);
        let mut buf = bytes;
        let back = decode_params(&mut buf).unwrap();
        assert_eq!(back.len(), params.len());
        // semantics preserved against the re-encoded graph
        let gb = {
            let mut b = encode_graph(&g);
            decode_graph(&mut b).unwrap()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::random([1, 3, 16, 16], 1.0, &mut rng);
        let a = crate::exec::Executor::new(&g, &params)
            .run(std::slice::from_ref(&x))
            .unwrap();
        let b = crate::exec::Executor::new(&gb, &back).run(&[x]).unwrap();
        assert!(a[0].allclose(&b[0], 1e-6));
    }

    #[test]
    fn truncated_input_rejected() {
        let g = rich_graph();
        let bytes = encode_graph(&g);
        for cut in [0usize, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut buf = bytes.slice(0..cut);
            assert!(decode_graph(&mut buf).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn garbage_tag_rejected() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "g");
        buf.put_u32_le(1);
        put_str(&mut buf, "n");
        buf.put_u8(200); // unknown op tag
        let mut bytes = buf.freeze();
        assert!(decode_graph(&mut bytes).is_err());
    }

    #[test]
    fn frame_roundtrip_preserves_header_and_payload() {
        let payload = b"stored section payload";
        let mut buf = seal_record(7, &[b"stored ", b"section payload"]);
        let (tag, back) = open_record(&mut buf).unwrap();
        assert_eq!((tag, &back[..]), (7, &payload[..]));
        assert!(buf.is_empty(), "no trailing bytes");
    }

    #[test]
    fn v3_frame_roundtrip_preserves_request_id() {
        let payload = b"multiplexed sealed bucket payload";
        let bytes = encode_frame_v3(0xDEAD_BEEF_CAFE_F00D, 3, payload);
        let mut buf = bytes;
        let frame = decode_frame(&mut buf).unwrap();
        assert_eq!(frame.request_id, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(frame.bucket_index, 3);
        assert_eq!(&frame.payload[..], payload);
        assert!(buf.is_empty(), "no trailing bytes");
    }

    /// Records and request frames share the `PRTB` magic but not a row:
    /// each decoder refuses the other's envelope, untouched, and a stream
    /// mixing both decodes in order when each is opened by its own.
    #[test]
    fn mixed_version_stream_decodes_sequentially() {
        let mut stream = BytesMut::new();
        stream.put_slice(&seal_record(0, &[b"record"]));
        stream.put_slice(&encode_frame_v3(42, 1, b"mux a"));
        stream.put_slice(&encode_frame_v3(7, 0, b"mux b"));
        stream.put_slice(&seal_record(1, &[b"record tail"]));
        let mut buf = stream.freeze();
        let as_frame = WireError::UnknownVersion {
            got: WIRE_VERSION_V1,
            supported: WIRE_VERSION_V3,
        };
        let as_record = WireError::UnknownVersion {
            got: WIRE_VERSION_V3,
            supported: WIRE_VERSION_V1,
        };
        let before = buf.clone();
        assert_eq!(decode_frame(&mut buf), Err(as_frame.clone()));
        assert_eq!(buf, before, "a refused record is left in place");
        assert_eq!(open_record(&mut buf).unwrap().0, 0);
        for (rid, index) in [(42, 1), (7, 0)] {
            assert_eq!(open_record(&mut buf), Err(as_record.clone()));
            let f = decode_frame(&mut buf).unwrap();
            assert_eq!((f.request_id, f.bucket_index), (rid, index));
        }
        assert_eq!(decode_frame(&mut buf), Err(as_frame));
        assert_eq!(open_record(&mut buf).unwrap().0, 1);
        assert!(buf.is_empty());
    }

    #[test]
    fn peek_reads_request_id_without_decoding() {
        let v3 = encode_frame_v3(0xFEED_F00D, 9, b"payload");
        assert_eq!(peek_frame_request_id(&v3).unwrap(), 0xFEED_F00D);
        // a record names no request, so it cannot be routed
        let record = seal_record(9, &[b"payload"]);
        assert!(matches!(
            peek_frame_request_id(&record),
            Err(WireError::UnknownVersion {
                got: 1,
                supported: 3
            })
        ));
        // malformed headers are typed errors, not panics
        assert!(matches!(
            peek_frame_request_id(b"JUNKxx"),
            Err(WireError::BadMagic { .. })
        ));
        assert!(matches!(
            peek_frame_request_id(&v3[..5]),
            Err(WireError::Truncated { .. })
        ));
        let mut raw = v3.to_vec();
        raw[4] = 9;
        assert!(matches!(
            peek_frame_request_id(&raw),
            Err(WireError::UnknownVersion { got: 9, .. })
        ));
        // the peek does NOT validate payload integrity — that stays the
        // full decoder's job
        let last = raw.len() - 1;
        raw[4] = WIRE_VERSION_V3 as u8;
        raw[last] ^= 0xFF;
        assert_eq!(peek_frame_request_id(&raw).unwrap(), 0xFEED_F00D);
    }

    #[test]
    fn v3_frame_detects_single_byte_corruption_everywhere() {
        let bytes = encode_frame_v3(0x1234_5678_9ABC_DEF0, 5, b"checksummed mux payload");
        for pos in 0..bytes.len() {
            let mut raw = bytes.to_vec();
            raw[pos] ^= 0x40;
            let mut buf = Bytes::copy_from_slice(&raw);
            assert!(
                decode_frame(&mut buf).is_err(),
                "corruption at byte {pos} decoded successfully"
            );
        }
    }

    #[test]
    fn v3_frame_rejects_truncation_at_every_length() {
        let bytes = encode_frame_v3(99, 1, b"truncate the mux frame");
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(
                matches!(decode_frame(&mut buf), Err(WireError::Truncated { .. })),
                "cut at {cut} not rejected as truncated"
            );
        }
    }

    #[test]
    fn frame_stream_decodes_sequentially() {
        let mut stream = BytesMut::new();
        for i in 0..3u32 {
            stream.put_slice(&seal_record(i, &[format!("payload {i}").as_bytes()]));
        }
        let mut buf = stream.freeze();
        for i in 0..3u32 {
            let (tag, payload) = open_record(&mut buf).unwrap();
            assert_eq!(tag, i);
            assert_eq!(&payload[..], format!("payload {i}").as_bytes());
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn frame_rejects_unknown_version() {
        let mut raw = seal_record(0, &[b"payload"]).to_vec();
        raw[4] = 99; // bump the version field
        let mut buf = Bytes::copy_from_slice(&raw);
        assert_eq!(
            open_record(&mut buf),
            Err(WireError::UnknownVersion {
                got: 99,
                supported: WIRE_VERSION_V1
            })
        );
    }

    #[test]
    fn frame_rejects_bad_magic() {
        let mut raw = seal_record(0, &[b"payload"]).to_vec();
        raw[0] = b'X';
        let mut buf = Bytes::copy_from_slice(&raw);
        assert!(matches!(
            open_record(&mut buf),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn frame_detects_single_byte_corruption_everywhere() {
        let bytes = seal_record(3, &[b"some payload that is checksummed"]);
        for pos in 0..bytes.len() {
            let mut raw = bytes.to_vec();
            raw[pos] ^= 0x40;
            let mut buf = Bytes::copy_from_slice(&raw);
            assert!(
                open_record(&mut buf).is_err(),
                "corruption at byte {pos} opened successfully"
            );
        }
    }

    #[test]
    fn frame_rejects_truncation_at_every_length() {
        let bytes = seal_record(1, &[b"truncate me"]);
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(
                matches!(open_record(&mut buf), Err(WireError::Truncated { .. })),
                "cut at {cut} not rejected as truncated"
            );
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Pins the WIRE.md layouts of the `PRTB` record (v1), the `PRTB`
    /// frame (v3) and `PRTE` v3 byte for byte: one literal per header
    /// field, checksum included. The retired v2 rows keep their old bytes
    /// here, and both are refused.
    #[test]
    fn frame_layouts_match_golden_bytes() {
        let v1 = concat!("50525442", "0100", "03000000", "03000000");
        assert_eq!(
            hex(&seal_record(3, &[b"abc"])),
            format!("{v1}dcc3b2b26c9c5af8616263")
        );
        let v3 = concat!(
            "50525442",
            "0300",
            "0807060504030201",
            "03000000",
            "03000000"
        );
        assert_eq!(
            hex(&encode_frame_v3(0x0102_0304_0506_0708, 3, b"abc")),
            format!("{v3}c2af2728925e1f65616263")
        );
        let prte = concat!("50525445", "0300", "0700000000000000", "0d00", "02000000");
        assert_eq!(
            hex(&encode_error_frame(&ErrorFrame::new(
                7,
                ErrorCode::BadAuth,
                "no"
            ))),
            format!("{prte}65e8f95af4d204466e6f")
        );
        let unhex = |h: &str| {
            (0..h.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap())
                .collect::<Vec<u8>>()
        };
        let v2 = concat!(
            "50525442",
            "0200",
            "0807060504030201",
            "03000000",
            "03000000",
            "59d0abd51b0cef9c616263"
        );
        let prte_v2 = concat!(
            "50525445",
            "0200",
            "0700000000000000",
            "0d00",
            "02000000",
            "545cc4e2c589ba496e6f"
        );
        let retired = WireError::UnknownVersion {
            got: 2,
            supported: 3,
        };
        let mut buf = Bytes::from(unhex(v2));
        assert_eq!(decode_frame(&mut buf), Err(retired.clone()));
        let mut buf = Bytes::from(unhex(prte_v2));
        assert_eq!(decode_error_frame(&mut buf), Err(retired));
    }

    /// Sealing a version its row does not accept, or a body over its
    /// cap, is a typed error, never bytes that no decoder opens; the
    /// row's own version seals what the encoders produce.
    #[test]
    fn sealing_an_unlisted_version_is_a_typed_error() {
        let fields = |f: &mut BytesMut| {
            f.put_u64_le(7);
            f.put_u32_le(0);
        };
        let rows = [
            (FRAME, 2, WIRE_VERSION_V3),
            (FRAME, 1, WIRE_VERSION_V3),
            (ERROR_FRAME, 1, WIRE_VERSION_V3),
            (ERROR_FRAME, 2, WIRE_VERSION_V3),
            (RECORD, 3, WIRE_VERSION_V1),
        ];
        for (row, version, supported) in rows {
            assert_eq!(
                row.seal(version, fields, b"abc"),
                Err(WireError::UnknownVersion {
                    got: version,
                    supported
                }),
                "{} v{version}",
                row.name
            );
        }
        assert_eq!(
            FRAME.seal(WIRE_VERSION_V3, fields, b"abc"),
            Ok(encode_frame_v3(7, 0, b"abc"))
        );
        assert_eq!(
            Ok(FRAME.seal_fields(fields)),
            FRAME.seal(WIRE_VERSION_V3, fields, &[])
        );
        let detail = |f: &mut BytesMut| {
            f.put_u64_le(7);
            f.put_u16_le(ErrorCode::Wire.as_u16());
        };
        let over = vec![b'x'; MAX_ERROR_DETAIL + 1];
        assert!(matches!(
            ERROR_FRAME.seal(WIRE_VERSION_V3, detail, &over),
            Err(WireError::Malformed { .. })
        ));
        let mut at_cap = ERROR_FRAME
            .seal(WIRE_VERSION_V3, detail, &over[1..])
            .unwrap();
        assert_eq!(
            decode_error_frame(&mut at_cap).unwrap().detail.len(),
            MAX_ERROR_DETAIL
        );
    }

    /// Known answers of the word hash, so it cannot drift: the lengths
    /// straddle every branch (empty, byte tail, 4-byte tail, one word,
    /// stripes with and without tails) of a fixed pattern, under seed 0
    /// and a nonzero seed, plus a 1 MiB buffer. The seed-0 values are
    /// XXH64's; `""`, `"a"` and `"abc"` are its published test vectors.
    #[test]
    fn word_hash_matches_known_answers() {
        let pattern = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
                .collect()
        };
        assert_eq!(word_hash64(0, b""), 0xef46_db37_51d8_e999);
        assert_eq!(word_hash64(0, b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(word_hash64(0, b"abc"), 0x44bc_2cf5_ad77_0999);
        let seed = 0x9e37_79b9_7f4a_7c15;
        let known: [(usize, u64, u64); 9] = [
            (0, 0xef46_db37_51d8_e999, 0xc434_9fc9_3c01_0000),
            (1, 0xa96c_7f0c_e858_bbb7, 0x5858_8242_2a61_65e7),
            (7, 0xafbe_fc3d_6c6f_9a8e, 0x2ce9_adec_2b2c_8104),
            (8, 0x3da5_c7aa_2696_83e0, 0x7588_48f0_33fa_76a2),
            (9, 0x4b17_a9ba_9e21_5c09, 0xd457_6cf5_54b7_d929),
            (31, 0x4a74_f3a1_a39a_d4a1, 0x8137_041f_5af8_8413),
            (32, 0x8d57_d6a4_671c_c43d, 0x184e_bcf3_745c_d46c),
            (33, 0x62c9_fd21_ed85_7664, 0x52fa_c3c9_81f3_cc2e),
            (64, 0x7bba_bbc4_5729_d17e, 0xf7f2_2435_fe1a_b128),
        ];
        for (len, unseeded, seeded) in known {
            let data = pattern(len);
            assert_eq!(word_hash64(0, &data), unseeded, "{len} bytes, seed 0");
            assert_eq!(word_hash64(seed, &data), seeded, "{len} bytes, seeded");
        }
        let mib: Vec<u8> = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
        assert_eq!(word_hash64(0, &mib), 0x89ac_0399_c446_4a31);
    }

    /// Pins `encode_params` byte for byte on the float classes a bulk codec
    /// could mangle — negative zero, a NaN with a payload, a subnormal —
    /// plus 1.5 and a rank-0 tensor, against a graph whose compaction
    /// renumbers the parameterized node.
    #[test]
    fn params_layout_matches_golden_bytes() {
        let mut g = Graph::new("w");
        let x = g.input([2, 2]);
        let dead = g.add(Op::Identity, [x]);
        let c = g.add(
            Op::Constant {
                shape: Shape::from([2, 2]),
            },
            [],
        );
        let y = g.add(Op::Add, [x, c]);
        g.set_outputs([y]);
        g.remove(dead);
        let values = [-0.0, f32::from_bits(0x7fc0_1234), f32::from_bits(1), 1.5];
        let mut params = TensorMap::new();
        params.insert(
            c,
            vec![
                Tensor::new([2, 2], values.to_vec()),
                Tensor::new(Shape::new(vec![]), vec![-2.0]),
            ],
        );
        let bytes = encode_params(&g, &params);
        let golden = concat!(
            "01000000",
            "01000000",
            "02000000",
            "02000000",
            "0200000000000000",
            "0200000000000000",
            "00000080",
            "3412c07f",
            "01000000",
            "0000c03f",
            "00000000",
            "000000c0",
        );
        assert_eq!(hex(&bytes), golden);
        let back = decode_params(&mut bytes.clone()).unwrap();
        let tensors = back.get(NodeId::from_index(1)).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tensors[0]), values.map(f32::to_bits));
        assert_eq!(tensors[0].shape(), &Shape::from([2, 2]));
        assert_eq!(bits(&tensors[1]), vec![(-2.0f32).to_bits()]);
        assert_eq!(tensors[1].shape().rank(), 0);
    }

    /// Hand-builds an error frame with arbitrary raw fields and a correct
    /// checksum, so tests can exercise decoder rejections that
    /// `encode_error_frame` refuses to produce.
    fn raw_error_frame(version: u16, request_id: u64, code: u16, detail: &[u8]) -> Bytes {
        let fields = |f: &mut BytesMut| {
            f.put_u64_le(request_id);
            f.put_u16_le(code);
        };
        let row = Envelope {
            version: None,
            ..ERROR_FRAME
        };
        row.seal(version, fields, detail)
            .expect("a row of no fixed version seals every version")
    }

    #[test]
    fn error_frame_roundtrips_every_code() {
        for (i, code) in ErrorCode::ALL.iter().copied().enumerate() {
            let ef = ErrorFrame::new(0xAB00 + i as u64, code, format!("detail for {code}"));
            let mut buf = encode_error_frame(&ef);
            let back = decode_error_frame(&mut buf).unwrap();
            assert_eq!(back, ef);
            assert!(buf.is_empty(), "no trailing bytes");
        }
    }

    #[test]
    fn error_frame_roundtrips_empty_detail() {
        let ef = ErrorFrame::new(0, ErrorCode::Shutdown, "");
        let mut buf = encode_error_frame(&ef);
        assert_eq!(decode_error_frame(&mut buf).unwrap(), ef);
    }

    #[test]
    fn error_code_wire_values_are_stable() {
        // these values are the wire contract — changing one silently
        // breaks deployed clients, so pin each explicitly
        let pinned: [(ErrorCode, u16); 18] = [
            (ErrorCode::Config, 1),
            (ErrorCode::Partition, 2),
            (ErrorCode::Wire, 3),
            (ErrorCode::Graph, 4),
            (ErrorCode::Protocol, 5),
            (ErrorCode::DuplicateFrame, 6),
            (ErrorCode::Artifact, 7),
            (ErrorCode::WorkerCrashed, 8),
            (ErrorCode::Deadline, 9),
            (ErrorCode::ReplicaUnavailable, 10),
            (ErrorCode::RetriesExhausted, 11),
            (ErrorCode::VersionMismatch, 12),
            (ErrorCode::BadAuth, 13),
            (ErrorCode::FingerprintMismatch, 14),
            (ErrorCode::QuotaExceeded, 15),
            (ErrorCode::ConnectionLimit, 16),
            (ErrorCode::Shutdown, 17),
            (ErrorCode::Internal, 18),
        ];
        for (code, value) in pinned {
            assert_eq!(code.as_u16(), value);
            assert_eq!(ErrorCode::from_u16(value).unwrap(), code);
        }
        assert!(ErrorCode::from_u16(0).is_err());
        assert!(ErrorCode::from_u16(19).is_err());
        assert!(ErrorCode::from_u16(u16::MAX).is_err());
    }

    #[test]
    fn error_frame_detects_single_byte_corruption_everywhere() {
        let ef = ErrorFrame::new(0x1122_3344_5566_7788, ErrorCode::Deadline, "missed by 3ms");
        let bytes = encode_error_frame(&ef);
        for pos in 0..bytes.len() {
            let mut raw = bytes.to_vec();
            raw[pos] ^= 0x40;
            let mut buf = Bytes::copy_from_slice(&raw);
            assert!(
                decode_error_frame(&mut buf).is_err(),
                "corruption at byte {pos} decoded successfully"
            );
        }
    }

    #[test]
    fn error_frame_rejects_truncation_at_every_length() {
        let ef = ErrorFrame::new(9, ErrorCode::BadAuth, "token unknown");
        let bytes = encode_error_frame(&ef);
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(
                matches!(
                    decode_error_frame(&mut buf),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut} not rejected as truncated"
            );
        }
    }

    #[test]
    fn error_frame_rejects_unknown_code_with_valid_checksum() {
        // a validly-checksummed frame carrying a code from a newer
        // taxonomy must surface as Malformed, never as a silent default
        let mut buf = raw_error_frame(WIRE_VERSION_V3, 1, 999, b"future code");
        assert!(matches!(
            decode_error_frame(&mut buf),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn error_frame_rejects_unknown_version_and_bad_magic() {
        let mut buf = raw_error_frame(7, 1, 1, b"x");
        assert_eq!(
            decode_error_frame(&mut buf),
            Err(WireError::UnknownVersion {
                got: 7,
                supported: WIRE_VERSION
            })
        );
        let bytes = encode_error_frame(&ErrorFrame::new(1, ErrorCode::Wire, "x"));
        let mut raw = bytes.to_vec();
        raw[0] = b'X';
        let mut buf = Bytes::copy_from_slice(&raw);
        assert!(matches!(
            decode_error_frame(&mut buf),
            Err(WireError::BadMagic { .. })
        ));
        // a data frame handed to the error decoder is a magic mismatch,
        // not a misparse
        let mut buf = encode_frame_v3(5, 0, b"data");
        assert!(matches!(
            decode_error_frame(&mut buf),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn error_frame_rejects_invalid_utf8_detail() {
        let mut buf = raw_error_frame(WIRE_VERSION_V3, 1, 3, &[0xFF, 0xFE, 0x41]);
        assert!(matches!(
            decode_error_frame(&mut buf),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn error_frame_rejects_implausible_detail_length() {
        let mut buf = raw_error_frame(WIRE_VERSION_V3, 1, 3, b"short");
        // rewrite detail_len to something past MAX_ERROR_DETAIL; the
        // length check must fire before any attempt to read that much
        let mut raw = buf.to_vec();
        raw[16..20].copy_from_slice(&(MAX_ERROR_DETAIL as u32 + 1).to_le_bytes());
        buf = Bytes::copy_from_slice(&raw);
        assert!(matches!(
            decode_error_frame(&mut buf),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn error_frame_truncates_oversized_detail_on_encode() {
        let ef = ErrorFrame::new(1, ErrorCode::Internal, "x".repeat(MAX_ERROR_DETAIL + 500));
        let mut buf = encode_error_frame(&ef);
        let back = decode_error_frame(&mut buf).unwrap();
        assert_eq!(back.detail.len(), MAX_ERROR_DETAIL);
        assert_eq!(back.code, ErrorCode::Internal);
    }

    #[test]
    fn error_frames_interleave_with_data_frames_on_one_stream() {
        let mut stream = BytesMut::new();
        stream.put_slice(&encode_frame_v3(10, 0, b"bucket"));
        stream.put_slice(&encode_error_frame(&ErrorFrame::new(
            11,
            ErrorCode::Deadline,
            "late",
        )));
        stream.put_slice(&encode_frame_v3(10, 1, b"bucket2"));
        let mut buf = stream.freeze();
        // receiver branches on the 4-byte magic before committing to a
        // header layout
        assert_eq!(&buf[0..4], &FRAME_MAGIC);
        let f = decode_frame(&mut buf).unwrap();
        assert_eq!(f.request_id, 10);
        assert_eq!(&buf[0..4], &ERROR_FRAME_MAGIC);
        let e = decode_error_frame(&mut buf).unwrap();
        assert_eq!((e.request_id, e.code), (11, ErrorCode::Deadline));
        let f = decode_frame(&mut buf).unwrap();
        assert_eq!(f.bucket_index, 1);
        assert!(buf.is_empty());
    }
}
