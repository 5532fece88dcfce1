//! Incremental frame codec: reassembles wire frames from arbitrary TCP
//! read-chunk boundaries.
//!
//! The in-process codec (`proteus_graph::wire::decode_frame`) assumes it
//! is handed at least one whole frame. A TCP receiver has no such
//! luxury: a `read` may return one byte of a header, a header plus half
//! a payload, or three frames back to back. [`FrameReader`] buffers
//! whatever arrives and yields exactly the frames that have fully
//! landed, in order, without copying payload bytes out of the
//! reassembly buffer more than once.
//!
//! The reader recognises both frame families by their 4-byte magic —
//! `PRTB` data frames (v1 and v2) and `PRTE` error frames — so one
//! stream can interleave results and failures. Data frames are yielded
//! as their *raw bytes* ([`NetFrame::Data`]): the server forwards them
//! untouched into `RequestHandle::submit_bytes` (which does the full
//! checksum validation), and the client hands them to
//! `DeobfuscationSession::accept_mux_bytes` — the reader never weakens
//! the end-to-end integrity check by re-encoding. Error frames are fully
//! decoded and checksum-verified here ([`NetFrame::Error`]).

use crate::error::NetError;
use bytes::{Bytes, BytesMut};
use proteus_graph::wire::{
    decode_error_frame, envelope_len, Envelope, ErrorFrame, WireError, ERROR_FRAME,
    ERROR_FRAME_MAGIC, FRAME,
};
use std::io::Write;

/// Largest data-frame payload the incremental reader will buffer
/// (1 GiB). A length field beyond this is a corrupt or hostile header,
/// not a legitimate bucket — sealed buckets are orders of magnitude
/// smaller — and rejecting it keeps a malformed peer from ballooning
/// server memory.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// The envelope rows a frame stream carries.
const STREAM: [&Envelope; 2] = [&FRAME, &ERROR_FRAME];

/// One frame reassembled from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFrame {
    /// A complete data frame, as its raw wire bytes (header included) —
    /// ready for `submit_bytes` / `accept_mux_bytes`, which perform the
    /// full checksum validation.
    Data(Bytes),
    /// A complete, checksum-verified error frame.
    Error(ErrorFrame),
}

/// Buffers raw socket bytes and yields complete frames.
///
/// Feed chunks with [`FrameReader::push`]; drain frames with
/// [`FrameReader::try_next`]. Any split is legal — 1-byte feeds, a
/// split inside the magic, inside a length field, or mid-payload — and
/// back-to-back frames delivered in one chunk come out one at a time.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: BytesMut,
    /// Set on the first framing error: the byte position is
    /// unsynchronisable afterwards, so every later poll re-errors
    /// instead of guessing at a resync point.
    poisoned: bool,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends freshly-read socket bytes to the reassembly buffer.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered and not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Splits the next complete envelope of one of `rows` off the
    /// buffer, `Ok(None)` while more bytes are needed. The envelope table
    /// decides the length; anything after the envelope stays buffered.
    /// The handshake layer shares this with [`FrameReader::try_next`], so
    /// bytes a peer pipelines after its hello stay queued for frames.
    ///
    /// Once the header tells the envelope's length (already capped at
    /// [`MAX_FRAME_PAYLOAD`]), the buffer reserves the whole envelope, so
    /// a large frame lands in one allocation instead of growing by
    /// doubling across socket reads.
    pub(crate) fn next_envelope(&mut self, rows: &[&Envelope]) -> Result<Option<Bytes>, NetError> {
        match envelope_len(rows, &self.buf, MAX_FRAME_PAYLOAD)? {
            Some(len) if self.buf.len() >= len => Ok(Some(self.buf.split_to(len).freeze())),
            Some(len) => {
                self.buf.reserve(len - self.buf.len());
                Ok(None)
            }
            None => Ok(None),
        }
    }

    /// Yields the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    /// [`NetError::Wire`] with [`WireError::BadMagic`] /
    /// [`WireError::UnknownVersion`] / [`WireError::Malformed`] when the
    /// buffered bytes cannot be a frame this library speaks, and with
    /// the error decoder's rejections for corrupt `PRTE` frames. All of
    /// these are fatal for the stream: after a framing error the byte
    /// position is unsynchronisable and the connection must close. The
    /// reader enforces that itself — once it has returned any error,
    /// every subsequent poll errors too, regardless of what is pushed.
    pub fn try_next(&mut self) -> Result<Option<NetFrame>, NetError> {
        if self.poisoned {
            return Err(NetError::Wire(WireError::Malformed {
                detail: "frame stream already failed; the connection must close".to_string(),
            }));
        }
        let frame = match self.next_envelope(&STREAM) {
            Ok(Some(mut raw)) if raw.starts_with(&ERROR_FRAME_MAGIC) => {
                decode_error_frame(&mut raw)
                    .map(|e| Some(NetFrame::Error(e)))
                    .map_err(NetError::Wire)
            }
            raw => raw.map(|raw| raw.map(NetFrame::Data)),
        };
        self.poisoned = frame.is_err();
        frame
    }
}

/// Writes whole frames to a byte sink. Thin — frames arrive
/// pre-encoded — but it centralises the write-all-or-fail contract:
/// a frame is never partially written without the error surfacing, so a
/// receiver never sees a torn frame from a live sender.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    sink: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a sink.
    pub fn new(sink: W) -> FrameWriter<W> {
        FrameWriter { sink }
    }

    /// Writes one pre-encoded frame in full.
    ///
    /// # Errors
    /// [`NetError::Io`] when the sink fails; the frame may then be torn
    /// on the wire and the connection must close.
    pub fn write_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sink
            .write_all(frame)
            .map_err(|e| NetError::io("writing frame", e))
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    // tests assert on Results aggressively; the unwrap/expect discipline
    // is for production paths
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use proteus_graph::wire::{encode_error_frame, encode_frame, encode_frame_v2, ErrorCode};

    fn feed_in_chunks(frames: &[Bytes], chunk: usize) -> Vec<NetFrame> {
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.to_vec()).collect();
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.push(piece);
            while let Some(frame) = reader.try_next().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(reader.buffered(), 0, "no leftover bytes");
        out
    }

    #[test]
    fn one_byte_feeds_reassemble_mixed_stream() {
        let frames = vec![
            encode_frame_v2(7, 0, b"first bucket"),
            encode_error_frame(&ErrorFrame::new(8, ErrorCode::Deadline, "late")),
            encode_frame(3, b"legacy v1"),
            encode_frame_v2(7, 1, b"second bucket"),
        ];
        for chunk in [1usize, 2, 3, 5, 7, 13, 64, 4096] {
            let out = feed_in_chunks(&frames, chunk);
            assert_eq!(out.len(), 4, "chunk size {chunk}");
            assert_eq!(out[0], NetFrame::Data(frames[0].clone()));
            assert!(matches!(&out[1], NetFrame::Error(e) if e.code == ErrorCode::Deadline));
            assert_eq!(out[2], NetFrame::Data(frames[2].clone()));
            assert_eq!(out[3], NetFrame::Data(frames[3].clone()));
        }
    }

    #[test]
    fn back_to_back_frames_in_one_push() {
        let a = encode_frame_v2(1, 0, b"aa");
        let b = encode_frame_v2(2, 0, b"bb");
        let mut reader = FrameReader::new();
        let mut joined = a.to_vec();
        joined.extend_from_slice(&b);
        reader.push(&joined);
        assert_eq!(reader.try_next().unwrap(), Some(NetFrame::Data(a)));
        assert_eq!(reader.try_next().unwrap(), Some(NetFrame::Data(b)));
        assert_eq!(reader.try_next().unwrap(), None);
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut reader = FrameReader::new();
        reader.push(b"JUNKJUNKJUNK");
        assert!(matches!(
            reader.try_next(),
            Err(NetError::Wire(WireError::BadMagic { .. }))
        ));
    }

    #[test]
    fn unknown_version_is_fatal() {
        let frame = encode_frame_v2(1, 0, b"x");
        let mut raw = frame.to_vec();
        raw[4] = 99;
        let mut reader = FrameReader::new();
        reader.push(&raw);
        assert!(matches!(
            reader.try_next(),
            Err(NetError::Wire(WireError::UnknownVersion { got: 99, .. }))
        ));
    }

    #[test]
    fn oversized_length_field_is_fatal_before_buffering() {
        let frame = encode_frame_v2(1, 0, b"x");
        let mut raw = frame.to_vec();
        // payload_len field of a v2 frame sits at bytes 18..22
        raw[18..22].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        let mut reader = FrameReader::new();
        reader.push(&raw[..22]);
        assert!(matches!(
            reader.try_next(),
            Err(NetError::Wire(WireError::Malformed { .. }))
        ));
    }

    #[test]
    fn partial_header_and_partial_payload_wait_for_more() {
        let frame = encode_frame_v2(5, 2, b"payload bytes here");
        let mut reader = FrameReader::new();
        reader.push(&frame[..3]); // inside the magic
        assert_eq!(reader.try_next().unwrap(), None);
        reader.push(&frame[3..19]); // inside the length field
        assert_eq!(reader.try_next().unwrap(), None);
        reader.push(&frame[19..frame.len() - 1]); // all but the last byte
        assert_eq!(reader.try_next().unwrap(), None);
        reader.push(&frame[frame.len() - 1..]);
        assert_eq!(reader.try_next().unwrap(), Some(NetFrame::Data(frame)));
    }

    #[test]
    fn corrupt_error_frame_is_fatal() {
        let frame = encode_error_frame(&ErrorFrame::new(1, ErrorCode::Internal, "boom"));
        let mut raw = frame.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        let mut reader = FrameReader::new();
        reader.push(&raw);
        assert!(matches!(
            reader.try_next(),
            Err(NetError::Wire(WireError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn writer_passes_frames_through_verbatim() {
        let frame = encode_frame_v2(9, 0, b"verbatim");
        let mut writer = FrameWriter::new(Vec::new());
        writer.write_frame(&frame).unwrap();
        writer.write_frame(&frame).unwrap();
        let sink = writer.into_inner();
        assert_eq!(sink.len(), frame.len() * 2);
        assert_eq!(&sink[..frame.len()], &frame[..]);
    }
}
