//! The obfuscated bucket — the wire artifact exchanged with the optimizer
//! party (paper Figure 1's "Obfuscated Bucket").
//!
//! [`ObfuscatedModel`] is everything the optimizer (and hence an
//! interceptor) sees: for each of the `n` protected subgraphs, `k + 1`
//! anonymized candidate subgraphs in shuffled order. Which member is real
//! is recorded only in [`ObfuscationSecrets`], which never leaves the model
//! owner.
//!
//! On the wire each bucket travels as one [`SealedBucket`] frame (magic,
//! version, bucket index, payload checksum — see [`proteus_graph::wire`]),
//! so the two parties can stream buckets one at a time instead of shipping
//! the whole model as a single blob: the optimizer works on bucket *i*
//! while the owner is still generating bucket *i + 1*. The batch
//! [`ObfuscatedModel::to_bytes`] format is simply a frame count followed by
//! the same frames, which is what makes the streaming and batch paths
//! byte-compatible.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use proteus_graph::wire::{
    bounded_capacity, decode_frame, decode_graph, decode_params, encode_frame, encode_graph,
    encode_params, fnv1a64, WireError, FRAME,
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

fn encode_member(buf: &mut BytesMut, member: &BucketMember) {
    let g = encode_graph(&member.graph);
    let p = encode_params(&member.graph, &member.params);
    buf.put_u32_le(g.len() as u32);
    buf.put_slice(&g);
    buf.put_u32_le(p.len() as u32);
    buf.put_slice(&p);
}

fn decode_member(data: &mut Bytes) -> Result<BucketMember, WireError> {
    let need = |data: &Bytes, n: usize, what: &str| -> Result<(), WireError> {
        if data.remaining() < n {
            Err(WireError::truncated(what))
        } else {
            Ok(())
        }
    };
    need(data, 4, "member graph length")?;
    let glen = data.get_u32_le() as usize;
    need(data, glen, "member graph body")?;
    let mut gbytes = data.split_to(glen);
    let graph = decode_graph(&mut gbytes)?;
    need(data, 4, "member params length")?;
    let plen = data.get_u32_le() as usize;
    need(data, plen, "member params body")?;
    let mut pbytes = data.split_to(plen);
    let params = decode_params(&mut pbytes)?;
    Ok(BucketMember { graph, params })
}

/// Builds the frame payload of one sealed bucket (bucket count, member
/// count, members) — shared by the v1 and v2 frame encoders.
fn encode_sealed_payload(num_buckets: u32, bucket: &Bucket) -> Bytes {
    let mut payload = BytesMut::new();
    payload.put_u32_le(num_buckets);
    payload.put_u32_le(bucket.members.len() as u32);
    for member in &bucket.members {
        encode_member(&mut payload, member);
    }
    payload.freeze()
}

/// Seals a borrowed bucket into v1 frame bytes — the shared encoder behind
/// [`SealedBucket::to_bytes`] and [`ObfuscatedModel::to_bytes`] (which
/// must stay byte-compatible, and neither should clone the bucket to
/// serialize it).
fn encode_sealed(bucket_index: u32, num_buckets: u32, bucket: &Bucket) -> Bytes {
    encode_frame(bucket_index, &encode_sealed_payload(num_buckets, bucket))
}

/// Parses a sealed bucket out of a decoded [`proteus_graph::wire::Frame`]
/// payload — the shared decoder behind the single-request and multiplexed
/// entry points.
fn decode_sealed_payload(bucket_index: u32, mut payload: Bytes) -> Result<SealedBucket, WireError> {
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
    if bucket_index >= num_buckets {
        return Err(WireError::malformed(format!(
            "bucket index {bucket_index} out of range for {num_buckets}-bucket model"
        )));
    }
    // clamp the pre-allocation by what the payload could possibly hold (a
    // member encodes to at least its two length prefixes) — the loop still
    // reads all `nm` members, so a lying count is a typed truncation, not
    // a huge allocation
    let mut members = Vec::with_capacity(nm.min(payload.remaining() / 8));
    for _ in 0..nm {
        members.push(decode_member(&mut payload)?);
    }
    if !payload.is_empty() {
        return Err(WireError::malformed(format!(
            "{} trailing bytes in sealed bucket payload",
            payload.remaining()
        )));
    }
    Ok(SealedBucket {
        bucket_index,
        num_buckets,
        bucket: Bucket { members },
    })
}

impl SealedBucket {
    /// Serializes to one single-request (v1) wire frame.
    pub fn to_bytes(&self) -> Bytes {
        encode_sealed(self.bucket_index, self.num_buckets, &self.bucket)
    }

    /// Serializes to one multiplexed (v2) wire frame tagged with
    /// `request_id`, so the frame can share a byte stream with frames of
    /// other concurrent requests.
    pub fn to_mux_bytes(&self, request_id: u64) -> Bytes {
        proteus_graph::wire::encode_frame_v2(
            request_id,
            self.bucket_index,
            &encode_sealed_payload(self.num_buckets, &self.bucket),
        )
    }

    /// Decodes one sealed bucket from the front of `data`, leaving any
    /// trailing bytes (for decoding a stream of frames). Accepts v1 and
    /// v2 frames alike; use [`SealedBucket::decode_mux_from`] when the
    /// caller needs the demultiplexing request id.
    ///
    /// # Errors
    /// Typed [`WireError`]s: unknown wire versions, bad magic, checksum
    /// mismatches, truncation, malformed payload fields.
    pub fn decode_from(data: &mut Bytes) -> Result<SealedBucket, WireError> {
        SealedBucket::decode_mux_from(data).map(|(_, sealed)| sealed)
    }

    /// Decodes one frame from the front of `data` and returns it together
    /// with its request id — the demultiplexing entry point for a byte
    /// stream carrying interleaved requests. Legacy v1 frames carry no id
    /// on the wire and decode to request id `0`
    /// ([`crate::LEGACY_REQUEST_ID`]).
    ///
    /// # Errors
    /// As [`SealedBucket::decode_from`].
    pub fn decode_mux_from(data: &mut Bytes) -> Result<(u64, SealedBucket), WireError> {
        let frame = decode_frame(data)?;
        let sealed = decode_sealed_payload(frame.bucket_index, frame.payload)?;
        Ok((frame.request_id, sealed))
    }

    /// Decodes a sealed bucket plus request id from exactly one frame.
    ///
    /// # Errors
    /// As [`SealedBucket::decode_mux_from`], plus trailing garbage after
    /// the frame is rejected.
    pub fn from_mux_bytes(mut data: Bytes) -> Result<(u64, SealedBucket), WireError> {
        let (request_id, sealed) = SealedBucket::decode_mux_from(&mut data)?;
        if !data.is_empty() {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after sealed bucket frame",
                data.remaining()
            )));
        }
        Ok((request_id, sealed))
    }

    /// Decodes a sealed bucket from exactly one frame.
    ///
    /// # Errors
    /// As [`SealedBucket::decode_from`], plus trailing garbage after the
    /// frame is rejected.
    pub fn from_bytes(mut data: Bytes) -> Result<SealedBucket, WireError> {
        let sealed = SealedBucket::decode_from(&mut data)?;
        if !data.is_empty() {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after sealed bucket frame",
                data.remaining()
            )));
        }
        Ok(sealed)
    }

    /// Unwraps the transported bucket.
    pub fn into_bucket(self) -> Bucket {
        self.bucket
    }
}

/// Everything the optimizer party receives.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObfuscatedModel {
    /// One bucket per protected subgraph, in bucket-index order.
    pub buckets: Vec<Bucket>,
}

impl ObfuscatedModel {
    /// Total number of subgraphs across all buckets.
    pub fn total_subgraphs(&self) -> usize {
        self.buckets.iter().map(|b| b.members.len()).sum()
    }

    /// `n` — the number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Serializes the model to its byte wire format: a bucket count
    /// followed by one [`SealedBucket`] frame per bucket. The bytes are
    /// identical to concatenating the frames of a streaming session behind
    /// the same count, so batch and streamed transfers are interchangeable
    /// on the wire.
    pub fn to_bytes(&self) -> Bytes {
        let nb = self.buckets.len() as u32;
        let mut buf = BytesMut::new();
        buf.put_u32_le(nb);
        for (i, bucket) in self.buckets.iter().enumerate() {
            buf.put_slice(&encode_sealed(i as u32, nb, bucket));
        }
        buf.freeze()
    }

    /// Deserializes a model from [`ObfuscatedModel::to_bytes`] output.
    ///
    /// # Errors
    /// Returns [`WireError`] on malformed input — including frames out of
    /// order, from unknown wire versions, or with corrupted checksums.
    pub fn from_bytes(mut data: Bytes) -> Result<ObfuscatedModel, WireError> {
        if data.remaining() < 4 {
            return Err(WireError::truncated("bucket count"));
        }
        let nb = data.get_u32_le() as usize;
        if nb > 1_000_000 {
            return Err(WireError::malformed(format!(
                "implausible bucket count {nb}"
            )));
        }
        // a sealed frame is at least a frame header; clamp the
        // pre-allocation so a corrupt count cannot demand gigabytes
        let mut buckets = Vec::with_capacity(bounded_capacity(nb, &data, FRAME.min_len()));
        for i in 0..nb {
            let sealed = SealedBucket::decode_from(&mut data)?;
            if sealed.bucket_index as usize != i || sealed.num_buckets as usize != nb {
                return Err(WireError::malformed(format!(
                    "frame {}/{} at position {i} of a {nb}-bucket model",
                    sealed.bucket_index, sealed.num_buckets
                )));
            }
            buckets.push(sealed.bucket);
        }
        if !data.is_empty() {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after final frame",
                data.remaining()
            )));
        }
        Ok(ObfuscatedModel { buckets })
    }
}

/// The model owner's private reassembly material.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObfuscationSecrets {
    /// The request these secrets belong to. Reassembly sessions use it to
    /// reject frames injected from a different request's stream and to
    /// name the request in protocol errors. Defaults to `0`
    /// ([`crate::LEGACY_REQUEST_ID`]) when deserializing secrets persisted
    /// before this field existed — matching the v1-frame semantics.
    #[serde(default)]
    pub request_id: u64,
    /// The partition plan (boundary wiring, original interfaces).
    pub plan: PartitionPlan,
    /// For bucket `i`, the index of the real subgraph within
    /// `buckets[i].members`.
    pub real_positions: Vec<usize>,
}

/// Strips identifying names from a graph: the graph gets a neutral name and
/// every node is renamed to `op_index`. The real subgraph and the sentinels
/// must be indistinguishable by labels.
pub fn anonymize(graph: &Graph, tag: usize) -> Graph {
    let (mut g, _) = graph.compact();
    g.set_name(format!("subgraph_{tag}"));
    let ids = g.node_ids();
    for (i, id) in ids.into_iter().enumerate() {
        let base = {
            let node = g.node(id).expect("live");
            node.op.opcode()
        };
        if let Some(node) = g.node_mut(id) {
            node.name = format!("{}_{}", format!("{base:?}").to_lowercase(), i);
        }
    }
    g
}

/// [`anonymize`], but *content-addressed*: the graph's name is derived
/// from a hash of its own (already-anonymized) wire encoding instead of a
/// caller-supplied slot tag. Two structurally identical members therefore
/// encode to identical wire bytes wherever they appear — across slots,
/// buckets, requests, and tenants — which is what lets the serving
/// runtime's optimized-member cache recognize a repeated sentinel by its
/// bytes alone. Names still leak nothing: the hash is computed over the
/// anonymized form, whose only inputs are topology, opcodes, and
/// attributes the optimizer sees anyway.
pub fn anonymize_content(graph: &Graph) -> Graph {
    let (mut g, _) = graph.compact();
    let ids = g.node_ids();
    for (i, id) in ids.into_iter().enumerate() {
        let base = {
            let node = g.node(id).expect("live");
            node.op.opcode()
        };
        if let Some(node) = g.node_mut(id) {
            node.name = format!("{}_{}", format!("{base:?}").to_lowercase(), i);
        }
    }
    g.set_name("subgraph".to_string());
    let salt = fnv1a64(&encode_graph(&g));
    g.set_name(format!("subgraph_{salt:016x}"));
    g
}

#[cfg(test)]
mod tests {
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

    fn two_bucket_model() -> ObfuscatedModel {
        ObfuscatedModel {
            buckets: vec![
                Bucket {
                    members: vec![member(1), member(2)],
                },
                Bucket {
                    members: vec![member(3), member(4), member(5)],
                },
            ],
        }
    }

    #[test]
    fn wire_roundtrip() {
        let model = two_bucket_model();
        let bytes = model.to_bytes();
        let back = ObfuscatedModel::from_bytes(bytes).unwrap();
        assert_eq!(back.num_buckets(), 2);
        assert_eq!(back.total_subgraphs(), 5);
        for (a, b) in model.buckets.iter().zip(&back.buckets) {
            for (ma, mb) in a.members.iter().zip(&b.members) {
                assert_eq!(ma.graph.len(), mb.graph.len());
                assert_eq!(ma.params.len(), mb.params.len());
            }
        }
    }

    #[test]
    fn model_bytes_are_count_plus_sealed_frames() {
        let model = two_bucket_model();
        let mut expected = BytesMut::new();
        expected.put_u32_le(2);
        for (i, bucket) in model.buckets.iter().enumerate() {
            let sealed = SealedBucket {
                bucket_index: i as u32,
                num_buckets: 2,
                bucket: bucket.clone(),
            };
            expected.put_slice(&sealed.to_bytes());
        }
        assert_eq!(model.to_bytes().to_vec(), expected.freeze().to_vec());
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
        let back = SealedBucket::from_bytes(sealed.to_bytes()).unwrap();
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
        // a v1 frame decodes through the mux entry point as request id 0
        let (rid, _) = SealedBucket::from_mux_bytes(sealed.to_bytes()).unwrap();
        assert_eq!(rid, 0);
        // and a v2 frame decodes through the v1 entry point, dropping the id
        let again = SealedBucket::from_bytes(sealed.to_mux_bytes(7)).unwrap();
        assert_eq!(again.bucket.members.len(), 1);
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
            SealedBucket::from_bytes(sealed.to_bytes()),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn corrupted_bytes_rejected() {
        let model = ObfuscatedModel {
            buckets: vec![Bucket {
                members: vec![member(1)],
            }],
        };
        let bytes = model.to_bytes();
        let truncated = bytes.slice(0..bytes.len() / 2);
        assert!(ObfuscatedModel::from_bytes(truncated).is_err());
        // flip one payload byte: the frame checksum catches it
        let mut raw = bytes.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x10;
        assert!(ObfuscatedModel::from_bytes(Bytes::copy_from_slice(&raw)).is_err());
    }

    #[test]
    fn model_from_bytes_rejects_out_of_order_frames() {
        let model = two_bucket_model();
        let nb = 2u32;
        let mut buf = BytesMut::new();
        buf.put_u32_le(nb);
        // swap the two frames
        for i in [1usize, 0] {
            let sealed = SealedBucket {
                bucket_index: i as u32,
                num_buckets: nb,
                bucket: model.buckets[i].clone(),
            };
            buf.put_slice(&sealed.to_bytes());
        }
        assert!(matches!(
            ObfuscatedModel::from_bytes(buf.freeze()),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn anonymize_strips_names() {
        let m = member(9);
        let anon = anonymize(&m.graph, 3);
        assert_eq!(anon.name(), "subgraph_3");
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
