//! The owner-side network client: opens an authenticated connection,
//! streams sealed-bucket frames out, and collects optimized frames (or
//! typed error frames) back.
//!
//! The client never decodes bucket payloads itself — response frames
//! are returned as raw wire bytes for
//! [`proteus::DeobfuscationSession::accept_mux_bytes`], so the
//! end-to-end checksum check happens exactly once, at reassembly, the
//! same as the in-process path.

use crate::codec::{FrameReader, FrameWriter, NetFrame};
use crate::error::NetError;
use crate::handshake::{read_hello_bytes, ClientHello, ServerHello, NET_PROTOCOL_VERSION};
use bytes::Bytes;
use proteus_graph::wire::{decode_error_frame, WIRE_VERSION};
use proteus_graph::wire::{peek_frame_request_id, ErrorFrame, ERROR_FRAME_MAGIC};
use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::thread;

/// One request to stream through a connection: its id and its
/// pre-encoded v3 mux frames (from `SealedBucket::to_mux_bytes`).
#[derive(Debug, Clone)]
pub struct NetRequest {
    /// The request id carried in every frame header.
    pub request_id: u64,
    /// The request's frames, in submission order.
    pub frames: Vec<Bytes>,
}

/// The server's answer for one request.
#[derive(Debug, Clone)]
pub struct NetResponse {
    /// The request this answers.
    pub request_id: u64,
    /// The optimized frames (raw wire bytes, submission-independent
    /// completion order), or the typed failure the server reported.
    pub result: Result<Vec<Bytes>, ErrorFrame>,
}

/// An authenticated connection to a `proteus-serve` daemon.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    hello: ServerHello,
}

impl NetClient {
    /// Connects, authenticates, and verifies the server's artifact
    /// fingerprint.
    ///
    /// # Errors
    /// - [`NetError::Io`] — connect/read/write failure;
    /// - [`NetError::Remote`] — the server rejected the handshake with
    ///   a typed error frame ([`proteus_graph::ErrorCode::BadAuth`],
    ///   [`proteus_graph::ErrorCode::FingerprintMismatch`], ...);
    /// - [`NetError::FingerprintMismatch`] — the server *accepted* but
    ///   announced a different artifact than expected (belt and
    ///   braces; a correct server rejects first);
    /// - [`NetError::VersionMismatch`] — the server speaks a different
    ///   network protocol version;
    /// - [`NetError::Wire`] / [`NetError::Handshake`] — a malformed
    ///   reply, or (before dialing) a token too long for a hello.
    pub fn connect(
        addr: impl ToSocketAddrs,
        token: &str,
        expected_fingerprint: u64,
    ) -> Result<NetClient, NetError> {
        let hello = ClientHello::new(expected_fingerprint, token).encode()?;
        let mut stream =
            TcpStream::connect(addr).map_err(|e| NetError::io("connecting to server", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::io("setting nodelay", e))?;
        FrameWriter::new(&mut stream).write_frame(&hello)?;

        let mut reader = FrameReader::new();
        let mut reply = read_hello_bytes(&mut stream, &mut reader)?;
        if reply.len() >= 4 && reply[0..4] == ERROR_FRAME_MAGIC {
            // typed rejection; the server closes after sending it
            let frame = decode_error_frame(&mut reply)?;
            return Err(NetError::Remote(frame));
        }
        let server = ServerHello::decode(&mut reply)?;
        if server.net_protocol != NET_PROTOCOL_VERSION {
            return Err(NetError::VersionMismatch {
                got: server.net_protocol,
                supported: NET_PROTOCOL_VERSION,
            });
        }
        if server.wire_version != WIRE_VERSION {
            return Err(NetError::VersionMismatch {
                got: server.wire_version,
                supported: WIRE_VERSION,
            });
        }
        if server.fingerprint != expected_fingerprint {
            return Err(NetError::FingerprintMismatch {
                expected: expected_fingerprint,
                got: server.fingerprint,
            });
        }
        Ok(NetClient {
            stream,
            reader,
            hello: server,
        })
    }

    /// The hello the server answered with.
    pub fn server_hello(&self) -> &ServerHello {
        &self.hello
    }

    /// Streams a batch of requests through the connection and collects
    /// every answer, consuming the connection (the write half is closed
    /// to signal end-of-stream; the server drains and closes).
    ///
    /// Frames of different requests are interleaved round-robin on the
    /// wire — deliberately, to exercise the server's per-connection
    /// demultiplexer the way concurrent tenants would. A reader thread
    /// drains response frames concurrently with submission, so neither
    /// side's socket buffer can fill and deadlock the exchange.
    ///
    /// # Errors
    /// [`NetError::Io`] / [`NetError::Wire`] for transport and framing
    /// failures; [`NetError::Protocol`] when the server closed before
    /// answering every frame of a request that got no error frame, sent
    /// more frames for a request than it was sent, or answered a request
    /// id the batch never sent; [`NetError::Remote`] for an error frame
    /// naming the whole connection (request id 0, when the batch sent no
    /// request 0). Per-request server failures do NOT fail the batch —
    /// they come back typed in the matching [`NetResponse::result`].
    pub fn run_requests(self, requests: Vec<NetRequest>) -> Result<Vec<NetResponse>, NetError> {
        let NetClient {
            stream,
            reader,
            hello: _,
        } = self;
        let read_half = stream
            .try_clone()
            .map_err(|e| NetError::io("cloning stream for reader", e))?;
        let collector = thread::spawn(move || collect_responses(read_half, reader));

        let mut writer = FrameWriter::new(&stream);
        let mut write_err: Option<NetError> = None;
        // round-robin interleave across requests
        let max_len = requests.iter().map(|r| r.frames.len()).max().unwrap_or(0);
        'outer: for i in 0..max_len {
            for req in &requests {
                if let Some(frame) = req.frames.get(i) {
                    if let Err(e) = writer.write_frame(frame) {
                        // server may have torn the connection down with a
                        // typed error in flight — keep it, prefer what
                        // the collector saw
                        write_err = Some(e);
                        break 'outer;
                    }
                }
            }
        }
        let _ = stream.shutdown(Shutdown::Write);

        let (mut by_request, fatal) = match collector.join() {
            Ok(r) => r,
            Err(_) => {
                return Err(NetError::protocol(
                    "response collector thread panicked".to_string(),
                ))
            }
        };
        if let Some(e) = fatal {
            return Err(e);
        }
        if let Some(e) = write_err {
            return Err(e);
        }
        // an answer to a request id this batch never sent fails the batch;
        // request id 0 is how the server names the whole connection
        let sent: HashSet<u64> = requests.iter().map(|r| r.request_id).collect();
        let foreign = by_request
            .iter()
            .filter(|(rid, _)| !sent.contains(rid))
            .min_by_key(|(rid, _)| **rid);
        if let Some((&rid, answer)) = foreign {
            return Err(match answer {
                Err(frame) if rid == 0 => NetError::Remote(frame.clone()),
                Err(_) => NetError::protocol(format!(
                    "server sent an error frame for request {rid:#x}, which this batch never sent"
                )),
                Ok(frames) => NetError::protocol(format!(
                    "server sent {} frames for request {rid:#x}, which this batch never sent",
                    frames.len()
                )),
            });
        }
        requests
            .iter()
            .map(|req| {
                let result = by_request.remove(&req.request_id).unwrap_or(Ok(Vec::new()));
                let (rid, sent) = (req.request_id, req.frames.len());
                match &result {
                    // the server answers every frame once, or fails the lane
                    Ok(frames) if frames.len() < sent => Err(NetError::protocol(format!(
                        "server closed without answering request {rid:#x}: {} of {sent} frames came back",
                        frames.len()
                    ))),
                    Ok(frames) if frames.len() > sent => Err(NetError::protocol(format!(
                        "server answered request {rid:#x} with {} frames, but {sent} were sent",
                        frames.len()
                    ))),
                    _ => Ok(NetResponse {
                        request_id: rid,
                        result,
                    }),
                }
            })
            .collect()
    }

    /// [`NetClient::run_requests`] for a single request, surfacing a
    /// server-side failure as [`NetError::Remote`].
    ///
    /// # Errors
    /// As [`NetClient::run_requests`], plus [`NetError::Remote`] when
    /// the server answered with an error frame.
    pub fn run_request(self, request_id: u64, frames: Vec<Bytes>) -> Result<Vec<Bytes>, NetError> {
        let mut responses = self.run_requests(vec![NetRequest { request_id, frames }])?;
        let response = responses
            .pop()
            .ok_or_else(|| NetError::protocol("no response for request"))?;
        response.result.map_err(NetError::Remote)
    }
}

type ResponseMap = HashMap<u64, Result<Vec<Bytes>, ErrorFrame>>;

/// Reads the stream to EOF, demultiplexing data frames by request id
/// and recording the first error frame per request (an errored lane
/// yields no further data).
fn collect_responses(
    mut stream: TcpStream,
    mut reader: FrameReader,
) -> (ResponseMap, Option<NetError>) {
    let mut out: ResponseMap = HashMap::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // drain everything already buffered before blocking on the socket
        loop {
            match reader.try_next() {
                Ok(Some(NetFrame::Data(raw))) => {
                    let rid = match peek_frame_request_id(&raw) {
                        Ok(rid) => rid,
                        Err(e) => return (out, Some(NetError::Wire(e))),
                    };
                    if let Ok(frames) = out.entry(rid).or_insert_with(|| Ok(Vec::new())) {
                        frames.push(raw);
                    }
                }
                Ok(Some(NetFrame::Error(frame))) => {
                    out.insert(frame.request_id, Err(frame));
                }
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if reader.buffered() > 0 {
                    return (
                        out,
                        Some(NetError::protocol(
                            "server closed mid-frame (torn response)",
                        )),
                    );
                }
                return (out, None);
            }
            Ok(n) => reader.push(&chunk[..n]),
            Err(e) => return (out, Some(NetError::io("reading responses", e))),
        }
    }
}

#[cfg(test)]
mod tests {
    // tests assert on Results aggressively; the unwrap/expect discipline
    // is for production paths
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use proteus_graph::wire::{encode_error_frame, encode_frame_v3, ErrorCode};
    use std::net::TcpListener;

    /// A stub daemon that completes the handshake, reads the client's
    /// frames to end-of-stream, echoes back the first `answered` of them,
    /// then closes cleanly without an error frame.
    fn stub_server(answered: usize) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
        stub_server_replying(move |frames| frames.into_iter().take(answered).collect())
    }

    /// [`stub_server`], answering with whatever `reply` makes of the
    /// frames it read.
    fn stub_server_replying(
        reply: impl FnOnce(Vec<Bytes>) -> Vec<Bytes> + Send + 'static,
    ) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new();
            read_hello_bytes(&mut stream, &mut reader).unwrap();
            let hello = ServerHello::new(7, "stub").encode().unwrap();
            FrameWriter::new(&mut stream).write_frame(&hello).unwrap();
            let mut frames = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                while let Some(NetFrame::Data(raw)) = reader.try_next().unwrap() {
                    frames.push(raw);
                }
                match stream.read(&mut chunk).unwrap() {
                    0 => break,
                    n => reader.push(&chunk[..n]),
                }
            }
            let mut writer = FrameWriter::new(&mut stream);
            for frame in reply(frames) {
                writer.write_frame(&frame).unwrap();
            }
        });
        (addr, server)
    }

    #[test]
    fn unanswered_request_fails_typed() {
        let frames = vec![
            encode_frame_v3(0x51, 0, b"a"),
            encode_frame_v3(0x51, 1, b"b"),
        ];
        for answered in [0, 1] {
            let (addr, server) = stub_server(answered);
            let client = NetClient::connect(addr, "token", 7).unwrap();
            let err = client.run_request(0x51, frames.clone()).unwrap_err();
            server.join().unwrap();
            let NetError::Protocol { detail } = &err else {
                panic!("answered {answered}: wrong variant {err:?}");
            };
            assert!(
                detail.contains("request 0x51") && detail.contains(&format!("{answered} of 2")),
                "{detail}"
            );
        }
    }

    #[test]
    fn answers_the_batch_never_asked_for_fail_typed() {
        let frames = vec![
            encode_frame_v3(0x51, 0, b"a"),
            encode_frame_v3(0x51, 1, b"b"),
        ];
        let foreign = |frames: Vec<Bytes>| {
            let mut out = frames;
            out.push(encode_frame_v3(0x52, 0, b"c"));
            out
        };
        let foreign_error = |frames: Vec<Bytes>| {
            let mut out = frames;
            let frame = ErrorFrame::new(0x52, ErrorCode::Internal, "not yours");
            out.push(encode_error_frame(&frame));
            out
        };
        let extra = |frames: Vec<Bytes>| {
            let mut out = frames.clone();
            out.push(frames[0].clone());
            out
        };
        type Reply = Box<dyn FnOnce(Vec<Bytes>) -> Vec<Bytes> + Send>;
        let cases: [(Reply, &[&str]); 3] = [
            (
                Box::new(foreign),
                &["request 0x52", "never sent", "1 frames"],
            ),
            (
                Box::new(foreign_error),
                &["request 0x52", "never sent", "error frame"],
            ),
            (
                Box::new(extra),
                &["request 0x51", "3 frames", "2 were sent"],
            ),
        ];
        for (reply, needles) in cases {
            let (addr, server) = stub_server_replying(reply);
            let client = NetClient::connect(addr, "token", 7).unwrap();
            let err = client.run_request(0x51, frames.clone()).unwrap_err();
            server.join().unwrap();
            let NetError::Protocol { detail } = &err else {
                panic!("{needles:?}: wrong variant {err:?}");
            };
            for needle in needles {
                assert!(detail.contains(needle), "{needle}: {detail}");
            }
        }
    }

    #[test]
    fn connection_error_frame_surfaces_as_remote() {
        let (addr, server) = stub_server_replying(|_| {
            let frame = ErrorFrame::new(0, ErrorCode::Wire, "unsynchronisable stream");
            vec![encode_error_frame(&frame)]
        });
        let client = NetClient::connect(addr, "token", 7).unwrap();
        let err = client
            .run_request(0x51, vec![encode_frame_v3(0x51, 0, b"a")])
            .unwrap_err();
        server.join().unwrap();
        assert!(
            matches!(&err, NetError::Remote(f) if f.code == ErrorCode::Wire),
            "{err:?}"
        );
    }
}
