//! Versioned, length-prefixed connection handshake.
//!
//! Before any frame flows, the client sends a [`ClientHello`] and the
//! server answers with either a [`ServerHello`] (accepted) or a `PRTE`
//! error frame (rejected, typed) followed by a close. Both hellos are
//! rows of the envelope table in `proteus_graph::wire`, sealed and
//! checked by the same code as data frames, so a corrupted handshake is
//! caught byte-for-byte instead of misparsing.
//!
//! What the handshake pins down:
//!
//! - **network protocol version** ([`NET_PROTOCOL_VERSION`]) — the
//!   framing/handshake layout itself;
//! - **wire version** — the data-frame format the client will send
//!   (the server rejects versions it does not speak);
//! - **tenant auth token** — admission control and per-tenant quotas;
//! - **artifact fingerprint** — the client states which trained
//!   artifact it expects to be talking to
//!   ([`proteus::artifact::config_fingerprint`]); a server given a
//!   different trained artifact rejects the connection rather than
//!   serve subtly-different bytes.

use crate::codec::FrameReader;
use crate::error::NetError;
use bytes::{Buf, BufMut, Bytes};
use proteus_graph::wire::{Checksum, Envelope, WireError, ERROR_FRAME, WIRE_VERSION};
use std::io::Read;

/// The handshake + framing layout version this library speaks. Bumped
/// whenever the hello byte layout or the frame family set changes.
pub const NET_PROTOCOL_VERSION: u16 = 1;

/// Largest auth token / banner a hello may carry.
pub const MAX_HELLO_BLOB: usize = 4096;

/// The `PRTH` envelope row: `wire_version u16 | fingerprint u64` after a
/// `net_protocol` version the handshake judges itself, then the token.
pub const CLIENT_HELLO: Envelope = Envelope {
    name: "hello",
    magic: *b"PRTH",
    version: None,
    fields: 10,
    checksum: Checksum::Fnv1a,
    has_len: true,
    max_body: MAX_HELLO_BLOB,
};

/// The `PRTS` envelope row: [`CLIENT_HELLO`]'s layout carrying the banner.
pub const SERVER_HELLO: Envelope = Envelope {
    magic: *b"PRTS",
    ..CLIENT_HELLO
};

/// What can open a connection or answer a hello: either hello, or the
/// `PRTE` frame a rejecting server answers with.
const HELLO_REPLIES: [&Envelope; 3] = [&CLIENT_HELLO, &SERVER_HELLO, &ERROR_FRAME];

/// The client's opening message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Handshake/framing layout version the client speaks.
    pub net_protocol: u16,
    /// Data-frame wire version the client will send.
    pub wire_version: u16,
    /// Fingerprint of the trained artifact the client expects the
    /// server to have been given.
    pub fingerprint: u64,
    /// Tenant auth token.
    pub token: String,
}

/// The server's acceptance message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Handshake/framing layout version the server speaks.
    pub net_protocol: u16,
    /// Newest data-frame wire version the server accepts.
    pub wire_version: u16,
    /// Fingerprint of the trained artifact the server is serving.
    pub fingerprint: u64,
    /// Free-form server identification banner.
    pub banner: String,
}

fn encode_hello(
    row: &Envelope,
    proto: u16,
    wire: u16,
    fingerprint: u64,
    blob: &str,
) -> Result<Bytes, NetError> {
    let fields = |f: &mut bytes::BytesMut| {
        f.put_u16_le(wire);
        f.put_u64_le(fingerprint);
    };
    Ok(row.seal(proto, fields, blob.as_bytes())?)
}

/// Decodes a hello as `(net_protocol, wire_version, fingerprint, blob)`.
fn decode_hello(row: &Envelope, buf: &mut Bytes) -> Result<(u16, u16, u64, String), NetError> {
    let (proto, mut fields, blob) = row.open(buf)?;
    let blob = String::from_utf8(blob.to_vec())
        .map_err(|_| NetError::Wire(WireError::malformed("hello blob is not valid utf8")))?;
    Ok((proto, fields.get_u16_le(), fields.get_u64_le(), blob))
}

impl ClientHello {
    /// Builds the hello this library sends for a connection.
    pub fn new(fingerprint: u64, token: impl Into<String>) -> ClientHello {
        ClientHello {
            net_protocol: NET_PROTOCOL_VERSION,
            wire_version: WIRE_VERSION,
            fingerprint,
            token: token.into(),
        }
    }

    /// Encodes to wire bytes.
    ///
    /// # Errors
    /// [`NetError::Wire`] with [`WireError::Malformed`] for a token
    /// longer than [`MAX_HELLO_BLOB`]: no peer would read the hello.
    pub fn encode(&self) -> Result<Bytes, NetError> {
        encode_hello(
            &CLIENT_HELLO,
            self.net_protocol,
            self.wire_version,
            self.fingerprint,
            &self.token,
        )
    }

    /// Decodes from the front of `buf`, leaving trailing bytes.
    ///
    /// # Errors
    /// [`NetError::Wire`] for bad magic, truncation, corruption,
    /// implausible token length, or invalid UTF-8.
    pub fn decode(buf: &mut Bytes) -> Result<ClientHello, NetError> {
        let (net_protocol, wire_version, fingerprint, token) = decode_hello(&CLIENT_HELLO, buf)?;
        Ok(ClientHello {
            net_protocol,
            wire_version,
            fingerprint,
            token,
        })
    }
}

impl ServerHello {
    /// Builds the hello a server answers an accepted connection with.
    pub fn new(fingerprint: u64, banner: impl Into<String>) -> ServerHello {
        ServerHello {
            net_protocol: NET_PROTOCOL_VERSION,
            wire_version: WIRE_VERSION,
            fingerprint,
            banner: banner.into(),
        }
    }

    /// Encodes to wire bytes.
    ///
    /// # Errors
    /// As [`ClientHello::encode`], for a banner longer than
    /// [`MAX_HELLO_BLOB`].
    pub fn encode(&self) -> Result<Bytes, NetError> {
        encode_hello(
            &SERVER_HELLO,
            self.net_protocol,
            self.wire_version,
            self.fingerprint,
            &self.banner,
        )
    }

    /// Decodes from the front of `buf`, leaving trailing bytes.
    ///
    /// # Errors
    /// As [`ClientHello::decode`].
    pub fn decode(buf: &mut Bytes) -> Result<ServerHello, NetError> {
        let (net_protocol, wire_version, fingerprint, banner) = decode_hello(&SERVER_HELLO, buf)?;
        Ok(ServerHello {
            net_protocol,
            wire_version,
            fingerprint,
            banner,
        })
    }
}

/// Reads one hello's worth of bytes from a stream into `reader`,
/// tolerating arbitrary chunking: the envelope table says how long the
/// buffered hello (or `PRTE` rejection) is, and the loop reads until it
/// has landed. Returns the complete envelope bytes; anything the peer
/// pipelined after it stays buffered in `reader` for frame reassembly.
///
/// # Errors
/// [`NetError::Io`] on read failure, [`NetError::Handshake`] on EOF
/// mid-hello, [`NetError::Wire`] for a bad magic or an implausible blob
/// length.
pub fn read_hello_bytes(
    stream: &mut impl Read,
    reader: &mut FrameReader,
) -> Result<Bytes, NetError> {
    let mut chunk = [0u8; 512];
    loop {
        if let Some(hello) = reader.next_envelope(&HELLO_REPLIES)? {
            return Ok(hello);
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| NetError::io("reading handshake", e))?;
        if n == 0 {
            return Err(NetError::handshake("peer closed mid-handshake"));
        }
        reader.push(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    // tests assert on Results aggressively; the unwrap/expect discipline
    // is for production paths
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::io::Cursor;

    #[test]
    fn client_hello_roundtrip() {
        let hello = ClientHello::new(0xFEED_CAFE_1234_5678, "tenant-token");
        let mut buf = hello.encode().unwrap();
        assert_eq!(ClientHello::decode(&mut buf).unwrap(), hello);
        assert!(buf.is_empty());
    }

    #[test]
    fn server_hello_roundtrip() {
        let hello = ServerHello::new(42, "proteus-serve/0.1");
        let mut buf = hello.encode().unwrap();
        assert_eq!(ServerHello::decode(&mut buf).unwrap(), hello);
        assert!(buf.is_empty());
    }

    /// Pins the WIRE.md `PRTH`/`PRTS` layout byte for byte: magic,
    /// versions, fingerprint, blob length, checksum, blob. Hellos keep
    /// FNV-1a; only the advertised wire version moved (2 → 3).
    #[test]
    fn hello_layouts_match_golden_bytes() {
        let hex = |b: Bytes| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let fields = concat!("0100", "0300", "0807060504030201", "03000000");
        assert_eq!(
            hex(ClientHello::new(0x0102_0304_0506_0708, "tok")
                .encode()
                .unwrap()),
            format!("50525448{fields}12b5e18b3ef8c239746f6b")
        );
        assert_eq!(
            hex(ServerHello::new(0x0102_0304_0506_0708, "srv")
                .encode()
                .unwrap()),
            format!("50525453{fields}4948bbab3e1c7673737276")
        );
    }

    /// A hello whose token or banner no reader would accept is refused
    /// when it is encoded, not sent for the peer to drop.
    #[test]
    fn an_over_cap_hello_does_not_encode() {
        let blob = "t".repeat(MAX_HELLO_BLOB + 1);
        assert!(matches!(
            ClientHello::new(1, blob.as_str()).encode(),
            Err(NetError::Wire(WireError::Malformed { .. }))
        ));
        assert!(matches!(
            ServerHello::new(1, blob.as_str()).encode(),
            Err(NetError::Wire(WireError::Malformed { .. }))
        ));
        let mut at_cap = ClientHello::new(1, &blob[1..]).encode().unwrap();
        assert_eq!(ClientHello::decode(&mut at_cap).unwrap().token, blob[1..]);
    }

    #[test]
    fn hello_detects_single_byte_corruption_everywhere() {
        let bytes = ClientHello::new(7, "secret").encode().unwrap();
        for pos in 0..bytes.len() {
            let mut raw = bytes.to_vec();
            raw[pos] ^= 0x20;
            let mut buf = Bytes::copy_from_slice(&raw);
            assert!(
                ClientHello::decode(&mut buf).is_err(),
                "corruption at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn hello_rejects_truncation_at_every_length() {
        let bytes = ServerHello::new(7, "banner").encode().unwrap();
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(0..cut);
            assert!(
                ServerHello::decode(&mut buf).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn hello_directions_do_not_cross_decode() {
        let mut c = ClientHello::new(1, "t").encode().unwrap();
        assert!(matches!(
            ServerHello::decode(&mut c),
            Err(NetError::Wire(WireError::BadMagic { .. }))
        ));
        let mut s = ServerHello::new(1, "b").encode().unwrap();
        assert!(matches!(
            ClientHello::decode(&mut s),
            Err(NetError::Wire(WireError::BadMagic { .. }))
        ));
    }

    #[test]
    fn read_hello_bytes_tolerates_any_chunking() {
        let hello = ClientHello::new(9, "some-longer-token-value");
        let encoded = hello.encode().unwrap();
        // Cursor reads in whatever sizes the loop's buffer allows; also
        // exercise a sink that returns one byte at a time
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut reader = FrameReader::new();
        let mut bytes = read_hello_bytes(&mut Cursor::new(encoded.to_vec()), &mut reader).unwrap();
        assert_eq!(ClientHello::decode(&mut bytes).unwrap(), hello);
        let mut reader = FrameReader::new();
        let mut bytes = read_hello_bytes(&mut OneByte(&encoded, 0), &mut reader).unwrap();
        assert_eq!(ClientHello::decode(&mut bytes).unwrap(), hello);
    }

    #[test]
    fn read_hello_leaves_pipelined_frames_buffered() {
        use proteus_graph::wire::encode_frame_v3;
        let hello = ClientHello::new(9, "token");
        let frame = encode_frame_v3(5, 0, b"eager payload");
        let mut stream = hello.encode().unwrap().to_vec();
        stream.extend_from_slice(&frame);
        let mut reader = FrameReader::new();
        let mut bytes = read_hello_bytes(&mut Cursor::new(stream), &mut reader).unwrap();
        assert_eq!(ClientHello::decode(&mut bytes).unwrap(), hello);
        // the frame the peer pipelined right behind its hello is intact
        assert_eq!(
            reader.try_next().unwrap(),
            Some(crate::codec::NetFrame::Data(frame))
        );
    }

    #[test]
    fn read_hello_bytes_rejects_eof_mid_hello() {
        let encoded = ClientHello::new(9, "token").encode().unwrap();
        let partial = &encoded[..encoded.len() - 2];
        let mut reader = FrameReader::new();
        assert!(matches!(
            read_hello_bytes(&mut Cursor::new(partial.to_vec()), &mut reader),
            Err(NetError::Handshake { .. })
        ));
    }
}
