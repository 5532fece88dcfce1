//! The obfuscated bucket — the wire artifact exchanged with the optimizer
//! party (paper Figure 1's "Obfuscated Bucket").
//!
//! A [`Bucket`] is everything the optimizer (and hence an interceptor)
//! sees of one protected subgraph: `k + 1` anonymized candidate subgraphs
//! in shuffled order. Which member is real is recorded only in
//! [`ObfuscationSecrets`], which never leaves the model owner.
//!
//! On the wire each bucket travels as one [`SealedBucket`] frame (magic,
//! version, request id, bucket index, payload checksum — see
//! [`proteus_graph::wire`]), so the two parties stream buckets one at a
//! time instead of shipping the whole model as a single blob: the
//! optimizer works on bucket *i* while the owner is still generating
//! bucket *i + 1*. Sealed buckets are always v3 frames; a record (v1)
//! names no request and a v2 frame uses the retired FNV-1a checksum, so
//! both are refused.

// Decoding and sealing run on the serving path for every request: no
// `unwrap`/`expect` outside tests (CI runs clippy with `-D warnings`).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use proteus_graph::wire::{
    bounded_capacity, decode_frame, decode_graph, decode_params, encode_graph, fnv1a64, seal_frame,
    MemberEncoder, WireError,
};
use proteus_graph::{Graph, TensorMap};
use proteus_partition::PartitionPlan;
use serde::{Deserialize, Serialize};

/// One candidate subgraph: structure plus (optional) parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BucketMember {
    /// The anonymized subgraph.
    pub graph: Graph,
    /// Its parameter tensors (empty for structure-only protocols).
    pub params: TensorMap,
}

/// The `k + 1` candidates hiding one protected subgraph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Bucket {
    /// The candidates, in shuffled on-the-wire order.
    pub members: Vec<BucketMember>,
}

/// One bucket sealed for transport: the bucket plus its position in the
/// obfuscated model, framed and checksummed on the wire.
///
/// This is the unit of the streaming protocol:
/// [`crate::ObfuscationSession`] yields sealed buckets one at a time and
/// [`crate::DeobfuscationSession`] accepts them back in any order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SealedBucket {
    /// Which bucket of the model this is (`0..num_buckets`).
    pub bucket_index: u32,
    /// How many buckets the full model has — every frame carries the
    /// total so a receiver can size its reassembly state from any frame.
    pub num_buckets: u32,
    /// The `k + 1` anonymized candidates.
    pub bucket: Bucket,
}

/// One member still in wire form: its graph and params encodings, split
/// out of the payload by their length prefixes but not decoded.
#[derive(Debug)]
pub(crate) struct RawMember {
    pub(crate) graph: Bytes,
    pub(crate) params: Bytes,
}

/// The encoding of an empty parameter store: a zero entry count.
const EMPTY_PARAMS: [u8; 4] = [0; 4];

impl RawMember {
    /// Splits the next member off `data` (a frame payload or an
    /// [`encode_chunk`] chunk), reading only its two length prefixes.
    pub(crate) fn split(data: &mut Bytes) -> Result<RawMember, WireError> {
        let mut part = |len: &str, body: &str| {
            if data.remaining() < 4 {
                return Err(WireError::truncated(len));
            }
            let n = data.get_u32_le() as usize;
            if data.remaining() < n {
                return Err(WireError::truncated(body));
            }
            Ok(data.split_to(n))
        };
        let graph = part("member graph length", "member graph body")?;
        let params = part("member params length", "member params body")?;
        Ok(RawMember { graph, params })
    }

    /// Whether the member carries no weights: its params slice is the
    /// empty store's encoding.
    pub(crate) fn is_graph_only(&self) -> bool {
        self.params[..] == EMPTY_PARAMS
    }

    /// Decodes the member. Each slice must be read to its end: bytes a
    /// decoder leaves over are a typed error, so a slice that decodes is
    /// exactly one graph or one parameter store.
    pub(crate) fn decode(mut self) -> Result<BucketMember, WireError> {
        let graph = decode_graph(&mut self.graph)?;
        let params = decode_params(&mut self.params)?;
        for (part, rest) in [("graph", &self.graph), ("params", &self.params)] {
            if !rest.is_empty() {
                return Err(WireError::malformed(format!(
                    "{} trailing bytes in member {part}",
                    rest.len()
                )));
            }
        }
        Ok(BucketMember { graph, params })
    }
}

/// One optimized member on its way into a response frame.
#[derive(Debug)]
pub(crate) enum OptimizedMember {
    /// Already encoded as a wire chunk ([`encode_chunk`]).
    Chunk(Bytes),
    /// Still decoded; encoded straight into its frame when sealed.
    Decoded(BucketMember),
}

/// A member as a frame writes it: `graph_len u32 | graph | params_len
/// u32 | params`, from an encoded chunk or encoded in place.
enum Part<'a> {
    Chunk(&'a [u8]),
    Encoder(MemberEncoder<'a>),
}

impl<'a> Part<'a> {
    fn encode(member: &'a BucketMember) -> Part<'a> {
        Part::Encoder(MemberEncoder::new(&member.graph, &member.params))
    }

    fn len(&self) -> usize {
        match self {
            Part::Chunk(chunk) => chunk.len(),
            Part::Encoder(m) => 8 + m.graph_len() + m.params_len(),
        }
    }

    fn put(&self, buf: &mut BytesMut) {
        match self {
            Part::Chunk(chunk) => buf.put_slice(chunk),
            Part::Encoder(m) => {
                buf.put_u32_le(m.graph_len() as u32);
                m.put_graph(buf);
                buf.put_u32_le(m.params_len() as u32);
                m.put_params(buf);
            }
        }
    }
}

/// Seals one v3 frame from its members' parts, in the layout
/// [`SealedBucket::to_mux_bytes`] documents.
fn seal_parts(request_id: u64, bucket_index: u32, num_buckets: u32, parts: &[Part<'_>]) -> Bytes {
    let payload_len = 8 + parts.iter().map(Part::len).sum::<usize>();
    seal_frame(request_id, bucket_index, payload_len, |buf| {
        buf.put_u32_le(num_buckets);
        buf.put_u32_le(parts.len() as u32);
        for part in parts {
            part.put(buf);
        }
    })
}

/// Seals optimized members into the frame [`SealedBucket::to_mux_bytes`]
/// would write for them decoded: chunks are copied, decoded members
/// encoded in place.
pub(crate) fn seal_optimized(
    request_id: u64,
    bucket_index: u32,
    num_buckets: u32,
    members: &[OptimizedMember],
) -> Bytes {
    let parts: Vec<Part<'_>> = members
        .iter()
        .map(|m| match m {
            OptimizedMember::Chunk(chunk) => Part::Chunk(chunk),
            OptimizedMember::Decoded(member) => Part::encode(member),
        })
        .collect();
    seal_parts(request_id, bucket_index, num_buckets, &parts)
}

/// Encodes one member as the wire chunk a frame carries for it.
pub(crate) fn encode_chunk(member: &BucketMember) -> Bytes {
    let part = Part::encode(member);
    let mut buf = BytesMut::with_capacity(part.len());
    part.put(&mut buf);
    buf.freeze()
}

/// A checksum-verified sealed-bucket frame whose members are split out
/// but not decoded: every length prefix has been walked (so a lying
/// prefix or trailing bytes are already typed errors), and a caller
/// decodes only the members it needs — the owner keeps one per bucket.
#[derive(Debug)]
pub(crate) struct RawSealed {
    pub(crate) request_id: u64,
    pub(crate) bucket_index: u32,
    pub(crate) num_buckets: u32,
    pub(crate) members: Vec<RawMember>,
}

impl RawSealed {
    /// Opens the v3 frame at the front of `data`, leaving trailing bytes.
    fn open_from(data: &mut Bytes) -> Result<RawSealed, WireError> {
        let frame = decode_frame(data)?;
        let mut payload = frame.payload;
        if payload.remaining() < 8 {
            return Err(WireError::truncated("sealed bucket header"));
        }
        let num_buckets = payload.get_u32_le();
        let nm = payload.get_u32_le() as usize;
        if nm > 1_000_000 {
            return Err(WireError::malformed(format!(
                "implausible member count {nm}"
            )));
        }
        if frame.bucket_index >= num_buckets {
            return Err(WireError::malformed(format!(
                "bucket index {} out of range for {num_buckets}-bucket model",
                frame.bucket_index
            )));
        }
        // clamp the pre-allocation by what the payload could possibly
        // hold (a member encodes to at least its two length prefixes) —
        // the loop still walks all `nm` members, so a lying count is a
        // typed truncation, not a huge allocation
        let mut members = Vec::with_capacity(bounded_capacity(nm, &payload, 8));
        for _ in 0..nm {
            members.push(RawMember::split(&mut payload)?);
        }
        if !payload.is_empty() {
            return Err(WireError::malformed(format!(
                "{} trailing bytes in sealed bucket payload",
                payload.remaining()
            )));
        }
        Ok(RawSealed {
            request_id: frame.request_id,
            bucket_index: frame.bucket_index,
            num_buckets,
            members,
        })
    }

    /// Opens exactly one frame: trailing bytes after it are rejected.
    pub(crate) fn open(mut data: Bytes) -> Result<RawSealed, WireError> {
        let raw = RawSealed::open_from(&mut data)?;
        if !data.is_empty() {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after sealed bucket frame",
                data.remaining()
            )));
        }
        Ok(raw)
    }

    /// How many members the frame carries.
    pub(crate) fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Decodes member `pos` alone; `None` when the frame has no such
    /// member.
    pub(crate) fn decode_member(self, pos: usize) -> Option<Result<BucketMember, WireError>> {
        self.members.into_iter().nth(pos).map(RawMember::decode)
    }

    /// Decodes every member.
    fn decode(self) -> Result<(u64, SealedBucket), WireError> {
        let members = self
            .members
            .into_iter()
            .map(RawMember::decode)
            .collect::<Result<Vec<_>, _>>()?;
        let sealed = SealedBucket {
            bucket_index: self.bucket_index,
            num_buckets: self.num_buckets,
            bucket: Bucket { members },
        };
        Ok((self.request_id, sealed))
    }
}

impl SealedBucket {
    /// Serializes to one multiplexed (v3) wire frame tagged with
    /// `request_id`, so the frame can share a byte stream with frames of
    /// other concurrent requests. Each member's graph is compacted once,
    /// the payload length is known before the first byte is written, and
    /// the header, the member graphs and their params land in one buffer:
    ///
    /// ```text
    /// num_buckets u32 | member_count u32 |
    /// { graph_len u32 | graph | params_len u32 | params } per member
    /// ```
    pub fn to_mux_bytes(&self, request_id: u64) -> Bytes {
        let parts: Vec<Part<'_>> = self.bucket.members.iter().map(Part::encode).collect();
        seal_parts(request_id, self.bucket_index, self.num_buckets, &parts)
    }

    /// Decodes one frame from the front of `data` and returns it together
    /// with its request id, leaving any trailing bytes — the
    /// demultiplexing entry point for a byte stream carrying interleaved
    /// requests.
    ///
    /// # Errors
    /// Typed [`WireError`]s: unknown wire versions (a v1 record included:
    /// it carries no request id; and v2), bad magic, checksum mismatches,
    /// truncation, malformed payload fields.
    pub fn decode_mux_from(data: &mut Bytes) -> Result<(u64, SealedBucket), WireError> {
        RawSealed::open_from(data)?.decode()
    }

    /// Decodes a sealed bucket plus request id from exactly one frame.
    ///
    /// # Errors
    /// As [`SealedBucket::decode_mux_from`], plus trailing garbage after
    /// the frame is rejected.
    pub fn from_mux_bytes(data: Bytes) -> Result<(u64, SealedBucket), WireError> {
        RawSealed::open(data)?.decode()
    }
}

/// The model owner's private reassembly material.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObfuscationSecrets {
    /// The request these secrets belong to. Reassembly sessions use it to
    /// reject frames injected from a different request's stream and to
    /// name the request in protocol errors. The store's secrets codec
    /// (`store::codec::encode_secrets`) always writes it; the serde derives
    /// are inert shims, so nothing ever deserializes a default.
    #[serde(default)]
    pub request_id: u64,
    /// The partition plan (boundary wiring, original interfaces).
    pub plan: PartitionPlan,
    /// For bucket `i`, the index of the real subgraph within
    /// `buckets[i].members`.
    pub real_positions: Vec<usize>,
}

/// Strips identifying names from a graph, *content-addressed*: every node
/// is renamed to `op_index`, and the graph's name is derived from a hash
/// of its own anonymized wire encoding. The real subgraph and the
/// sentinels must be indistinguishable by labels, and two structurally
/// identical members encode to identical wire bytes wherever they appear
/// — across slots, buckets, requests, and tenants — which is what lets
/// the serving runtime's optimized-member cache recognize a repeated
/// sentinel by its bytes alone. Names still leak nothing: the hash is
/// computed over the anonymized form, whose only inputs are topology,
/// opcodes, and attributes the optimizer sees anyway.
pub fn anonymize_content(graph: &Graph) -> Graph {
    let (mut g, _) = graph.compact();
    let ids = g.node_ids();
    for (i, id) in ids.into_iter().enumerate() {
        if let Some(node) = g.node_mut(id) {
            let base = format!("{:?}", node.op.opcode()).to_lowercase();
            node.name = format!("{base}_{i}");
        }
    }
    g.set_name("subgraph".to_string());
    let salt = fnv1a64(&encode_graph(&g));
    g.set_name(format!("subgraph_{salt:016x}"));
    g
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use proteus_graph::{Activation, ConvAttrs, Op};

    fn member(seed: u64) -> BucketMember {
        let mut g = Graph::new(format!("m{seed}"));
        let x = g.input([1, 3, 8, 8]);
        let c = g.add(Op::Conv(ConvAttrs::new(3, 4, 3).padding(1)), [x]);
        let r = g.add(Op::Activation(Activation::Relu), [c]);
        g.set_outputs([r]);
        let params = TensorMap::init_random(&g, seed);
        BucketMember { graph: g, params }
    }

    fn two_frames() -> Vec<SealedBucket> {
        let buckets = [
            vec![member(1), member(2)],
            vec![member(3), member(4), member(5)],
        ];
        buckets
            .into_iter()
            .enumerate()
            .map(|(i, members)| SealedBucket {
                bucket_index: i as u32,
                num_buckets: 2,
                bucket: Bucket { members },
            })
            .collect()
    }

    #[test]
    fn wire_roundtrip() {
        // a stream of concatenated frames decodes one frame per call
        let frames = two_frames();
        let mut stream = BytesMut::new();
        for f in &frames {
            stream.put_slice(&f.to_mux_bytes(0x51));
        }
        let mut stream = stream.freeze();
        for sealed in &frames {
            let (rid, back) = SealedBucket::decode_mux_from(&mut stream).unwrap();
            assert_eq!(rid, 0x51);
            assert_eq!(back.bucket_index, sealed.bucket_index);
            assert_eq!(back.num_buckets, 2);
            assert_eq!(back.bucket.members.len(), sealed.bucket.members.len());
            for (ma, mb) in sealed.bucket.members.iter().zip(&back.bucket.members) {
                assert_eq!(ma.graph.len(), mb.graph.len());
                assert_eq!(ma.params.len(), mb.params.len());
            }
        }
        assert!(stream.is_empty(), "no trailing bytes");
    }

    #[test]
    fn sealed_bucket_roundtrip() {
        let sealed = SealedBucket {
            bucket_index: 1,
            num_buckets: 3,
            bucket: Bucket {
                members: vec![member(7), member(8)],
            },
        };
        let (_, back) = SealedBucket::from_mux_bytes(sealed.to_mux_bytes(3)).unwrap();
        assert_eq!(back.bucket_index, 1);
        assert_eq!(back.num_buckets, 3);
        assert_eq!(back.bucket.members.len(), 2);
        for (a, b) in sealed.bucket.members.iter().zip(&back.bucket.members) {
            assert_eq!(a.graph.len(), b.graph.len());
            assert_eq!(a.params.len(), b.params.len());
        }
    }

    #[test]
    fn sealed_bucket_mux_roundtrip_carries_request_id() {
        let sealed = SealedBucket {
            bucket_index: 0,
            num_buckets: 2,
            bucket: Bucket {
                members: vec![member(11)],
            },
        };
        let wire = sealed.to_mux_bytes(0xFACE);
        let (rid, back) = SealedBucket::from_mux_bytes(wire).unwrap();
        assert_eq!(rid, 0xFACE);
        assert_eq!(back.bucket_index, 0);
        assert_eq!(back.num_buckets, 2);
        assert_eq!(back.bucket.members.len(), 1);
        // the same payload behind a record header names no request: refused
        let payload = decode_frame(&mut sealed.to_mux_bytes(0)).unwrap().payload;
        let record = proteus_graph::wire::seal_record(0, &[&payload]);
        assert!(matches!(
            SealedBucket::from_mux_bytes(record),
            Err(WireError::UnknownVersion { got: 1, .. })
        ));
    }

    #[test]
    fn sealed_bucket_rejects_index_out_of_range() {
        let sealed = SealedBucket {
            bucket_index: 5,
            num_buckets: 3,
            bucket: Bucket {
                members: vec![member(1)],
            },
        };
        assert!(matches!(
            SealedBucket::from_mux_bytes(sealed.to_mux_bytes(0)),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn corrupted_bytes_rejected() {
        let sealed = SealedBucket {
            bucket_index: 0,
            num_buckets: 1,
            bucket: Bucket {
                members: vec![member(1)],
            },
        };
        let bytes = sealed.to_mux_bytes(0);
        let truncated = bytes.slice(0..bytes.len() / 2);
        assert!(SealedBucket::from_mux_bytes(truncated).is_err());
        // flip one payload byte: the frame checksum catches it
        let mut raw = bytes.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x10;
        assert!(SealedBucket::from_mux_bytes(Bytes::copy_from_slice(&raw)).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A member whose one weight tensor holds -0.0, a NaN with a payload,
    /// a subnormal and 1.5, bit for bit.
    fn special_member() -> BucketMember {
        let mut g = Graph::new("s");
        let x = g.input([1, 4]);
        let c = g.add(
            Op::Constant {
                shape: [1, 4].into(),
            },
            [],
        );
        let y = g.add(Op::Add, [x, c]);
        g.set_outputs([y]);
        let mut params = TensorMap::new();
        let values = vec![-0.0, f32::from_bits(0x7fc0_1234), f32::from_bits(1), 1.5];
        params.insert(c, vec![proteus_graph::Tensor::new([1, 4], values)]);
        BucketMember { graph: g, params }
    }

    /// Pins one v3 frame carrying a weighted member (and a graph-only one)
    /// byte for byte: frame header, payload header, then each member's
    /// length-prefixed graph and params. The bytes after the header are
    /// the payload the v2 golden pinned, unchanged.
    #[test]
    fn weighted_v3_frame_matches_golden_bytes() {
        let mut bare = special_member();
        bare.params = TensorMap::new();
        let sealed = SealedBucket {
            bucket_index: 1,
            num_buckets: 2,
            bucket: Bucket {
                members: vec![special_member(), bare],
            },
        };
        let wire = sealed.to_mux_bytes(0x0102_0304_0506_0708);
        // the one graph both members share: name, three nodes, outputs
        let graph = concat!(
            "01000000",
            "73",
            "03000000",
            "07000000",
            "696e7075745f30",
            "00",
            "02000000",
            "0100000000000000",
            "0400000000000000",
            "00000000",
            "07000000",
            "636f6e73745f31",
            "01",
            "02000000",
            "0100000000000000",
            "0400000000000000",
            "00000000",
            "05000000",
            "6164645f32",
            "0b",
            "02000000",
            "00000000",
            "01000000",
            "01000000",
            "02000000",
        );
        // node 1's one [1, 4] tensor: -0.0, NaN(0x1234), 1 ulp, 1.5
        let params = concat!(
            "01000000",
            "01000000",
            "01000000",
            "02000000",
            "0100000000000000",
            "0400000000000000",
            "00000080",
            "3412c07f",
            "01000000",
            "0000c03f",
        );
        // the payload, byte for byte the one the v2 frame carried
        let payload = [
            concat!("02000000", "02000000"),
            "6f000000",
            graph,
            "30000000",
            params,
            "6f000000",
            graph,
            concat!("04000000", "00000000"),
        ]
        .concat();
        let header = concat!(
            "50525442",
            "0300",
            "0807060504030201",
            "01000000",
            "2a010000",
            "f8416ac00f73292c"
        );
        assert_eq!(hex(&wire[..30]), header);
        assert_eq!(hex(&wire[30..]), payload);
        let (rid, back) = SealedBucket::from_mux_bytes(wire).unwrap();
        assert_eq!(rid, 0x0102_0304_0506_0708);
        let tensors = back.bucket.members[0]
            .params
            .get(proteus_graph::NodeId::from_index(1))
            .unwrap();
        let bits: Vec<u32> = tensors[0].data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, vec![0x8000_0000, 0x7fc0_1234, 1, 0x3fc0_0000]);
        assert!(back.bucket.members[1].params.is_empty());
    }

    /// A tensor shape whose element count overflows `usize` is a typed
    /// `Malformed`, not a multiply-overflow panic or a wrapped zero-length
    /// tensor.
    #[test]
    fn overflowing_tensor_shape_is_malformed() {
        let g = special_member().graph;
        let graph = encode_graph(&g);
        let mut params = BytesMut::new();
        params.put_u32_le(1); // one entry
        params.put_u32_le(1); // node 1
        params.put_u32_le(1); // one tensor
        params.put_u32_le(2); // rank 2
        params.put_u64_le(1 << 32);
        params.put_u64_le(1 << 32);
        let mut payload = BytesMut::new();
        payload.put_u32_le(1); // num_buckets
        payload.put_u32_le(1); // members
        payload.put_u32_le(graph.len() as u32);
        payload.put_slice(&graph);
        payload.put_u32_le(params.len() as u32);
        payload.put_slice(&params);
        let wire = proteus_graph::wire::encode_frame_v3(9, 0, &payload);
        assert!(matches!(
            SealedBucket::from_mux_bytes(wire),
            Err(WireError::Malformed { .. })
        ));
    }

    /// A member slice longer than what it encodes is refused, naming the
    /// part and the count of leftover bytes: the graph slice with three
    /// extra bytes, then the params slice with five.
    #[test]
    fn member_slices_with_trailing_bytes_are_malformed() {
        let m = member(3);
        let graph = encode_graph(&m.graph);
        let params = proteus_graph::wire::encode_params(&m.graph, &m.params);
        for (part, extra) in [("graph", 3), ("params", 5)] {
            let (mut g, mut p) = (graph.to_vec(), params.to_vec());
            let slice = if part == "graph" { &mut g } else { &mut p };
            slice.resize(slice.len() + extra, 0xA5);
            let mut payload = BytesMut::new();
            payload.put_u32_le(1); // num_buckets
            payload.put_u32_le(1); // members
            payload.put_u32_le(g.len() as u32);
            payload.put_slice(&g);
            payload.put_u32_le(p.len() as u32);
            payload.put_slice(&p);
            let wire = proteus_graph::wire::encode_frame_v3(4, 0, &payload);
            match SealedBucket::from_mux_bytes(wire) {
                Err(WireError::Malformed { detail }) => {
                    assert_eq!(detail, format!("{extra} trailing bytes in member {part}"))
                }
                other => panic!("{part} slice with {extra} extra bytes: {other:?}"),
            }
        }
    }

    /// A frame sealed from optimized members — graph-only ones as wire
    /// chunks, weighted ones still decoded — is byte for byte the frame
    /// `to_mux_bytes` writes for the same members decoded.
    #[test]
    fn sealing_chunks_and_decoded_members_matches_to_mux_bytes() {
        let bare = |seed| BucketMember {
            params: TensorMap::new(),
            ..member(seed)
        };
        let sealed = SealedBucket {
            bucket_index: 2,
            num_buckets: 3,
            bucket: Bucket {
                members: vec![bare(1), member(2), bare(3), special_member(), bare(5)],
            },
        };
        let optimized: Vec<OptimizedMember> = sealed
            .bucket
            .members
            .iter()
            .map(|m| {
                if m.params.is_empty() {
                    OptimizedMember::Chunk(encode_chunk(m))
                } else {
                    OptimizedMember::Decoded(m.clone())
                }
            })
            .collect();
        assert!(matches!(optimized[0], OptimizedMember::Chunk(_)));
        assert!(matches!(optimized[1], OptimizedMember::Decoded(_)));
        assert_eq!(
            seal_optimized(0xC0DE, 2, 3, &optimized),
            sealed.to_mux_bytes(0xC0DE)
        );
        // a chunk splits back into the member it encodes
        let mut chunk = encode_chunk(&sealed.bucket.members[0]);
        let raw = RawMember::split(&mut chunk).unwrap();
        assert!(chunk.is_empty() && raw.is_graph_only());
        assert_eq!(raw.decode().unwrap().graph, sealed.bucket.members[0].graph);
    }

    #[test]
    fn anonymize_strips_names() {
        let m = member(9);
        let anon = anonymize_content(&m.graph);
        assert!(anon.name().starts_with("subgraph_"), "{}", anon.name());
        for (_, node) in anon.iter() {
            assert!(!node.name.contains("m9"), "leaked name {}", node.name);
        }
        assert_eq!(anon.len(), m.graph.len());
    }

    #[test]
    fn content_anonymization_is_position_independent() {
        // same structure under different original names → identical bytes
        let a = member(9).graph;
        let mut b = a.clone();
        b.set_name("completely_different".to_string());
        let (ea, eb) = (
            encode_graph(&anonymize_content(&a)),
            encode_graph(&anonymize_content(&b)),
        );
        assert_eq!(ea, eb, "identical structures got different wire bytes");
        let anon = anonymize_content(&a);
        assert!(anon.name().starts_with("subgraph_"), "{}", anon.name());
        for (_, node) in anon.iter() {
            assert!(!node.name.contains("m9"), "leaked name {}", node.name);
        }
        // a structural change moves the content hash
        let mut c = Graph::new("m9".to_string());
        let x = c.input([1, 3, 8, 8]);
        let r = c.add(Op::Activation(Activation::Relu), [x]);
        c.set_outputs([r]);
        assert_ne!(anonymize_content(&c).name(), anon.name());
    }
}
