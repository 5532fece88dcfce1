//! Canonical binary codecs for checkpointed owner state: the
//! [`ObfuscationSecrets`] (partition plan, boundary wiring, real
//! positions) and the [`SessionCheckpoint`] a mid-flight
//! [`DeobfuscationSession`](crate::DeobfuscationSession) serializes to.
//!
//! The encodings are explicit tag-length-value layouts over the same
//! primitives as the wire and artifact codecs ([`encode_graph`] /
//! [`encode_params`], little-endian integers, length-prefixed strings) —
//! *not* a generic serializer — so checkpoint bytes are canonical:
//! piece graphs are built dense by partitioning, which makes the
//! graph/params round trip bit-exact, and that is what lets the
//! recovery battery assert byte-identical reassembly after a resume.
//!
//! Every decoder is fail-closed: typed [`WireError`]s on truncation or
//! malformed counts, pre-allocations clamped by the remaining buffer
//! (the same untrusted-length discipline as the artifact codec).

use crate::bucket::{BucketMember, ObfuscationSecrets};
use crate::error::ProteusError;
use crate::session::DeobfuscationSession;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use proteus_graph::wire::{
    bounded_capacity, decode_graph, decode_params, encode_graph, encode_params, get_blob, get_str,
    need, put_blob, put_str,
};
use proteus_graph::{NodeId, WireError};
use proteus_partition::{BoundaryRef, PartitionPlan, Piece};

type CResult<T> = std::result::Result<T, WireError>;

/// Version byte opening every encoded secrets blob.
const SECRETS_CODEC_VERSION: u8 = 1;
/// Version byte opening every encoded session checkpoint.
const CHECKPOINT_CODEC_VERSION: u8 = 1;
fn put_member(buf: &mut BytesMut, member: &BucketMember) {
    put_blob(buf, &encode_graph(&member.graph));
    put_blob(buf, &encode_params(&member.graph, &member.params));
}

fn get_member(buf: &mut Bytes, what: &str) -> CResult<BucketMember> {
    let mut gbytes = get_blob(buf, what)?;
    let graph = decode_graph(&mut gbytes)?;
    let mut pbytes = get_blob(buf, what)?;
    let params = decode_params(&mut pbytes)?;
    Ok(BucketMember { graph, params })
}

/// Serializes the owner's reassembly secrets to their canonical bytes.
pub fn encode_secrets(secrets: &ObfuscationSecrets) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(SECRETS_CODEC_VERSION);
    buf.put_u64_le(secrets.request_id);
    put_str(&mut buf, &secrets.plan.model_name);
    buf.put_u32_le(secrets.plan.pieces.len() as u32);
    for piece in &secrets.plan.pieces {
        // encode_graph compacts before writing; piece graphs are dense by
        // construction so the mapping is the identity, but boundary ids
        // are remapped through it anyway so the pair stays consistent
        // even for a piece that somehow carries tombstones
        let (_, mapping) = piece.graph.compact();
        put_blob(&mut buf, &encode_graph(&piece.graph));
        put_blob(&mut buf, &encode_params(&piece.graph, &piece.params));
        buf.put_u32_le(piece.boundary.len() as u32);
        for (node, bref) in &piece.boundary {
            buf.put_u32_le(mapping[node].index() as u32);
            buf.put_u32_le(bref.piece as u32);
            buf.put_u32_le(bref.output as u32);
        }
        buf.put_u32_le(piece.original_outputs.len() as u32);
        for id in &piece.original_outputs {
            buf.put_u32_le(id.index() as u32);
        }
    }
    buf.put_u32_le(secrets.plan.global_outputs.len() as u32);
    for bref in &secrets.plan.global_outputs {
        buf.put_u32_le(bref.piece as u32);
        buf.put_u32_le(bref.output as u32);
    }
    buf.put_u32_le(secrets.real_positions.len() as u32);
    for &pos in &secrets.real_positions {
        buf.put_u32_le(pos as u32);
    }
    buf.freeze()
}

/// Decodes secrets from [`encode_secrets`] bytes. Fail-closed: typed
/// [`WireError`]s, trailing bytes rejected.
pub fn decode_secrets(buf: &mut Bytes) -> CResult<ObfuscationSecrets> {
    need(buf, 1, "secrets codec version")?;
    let version = buf.get_u8();
    if version != SECRETS_CODEC_VERSION {
        return Err(WireError::malformed(format!(
            "unknown secrets codec version {version}"
        )));
    }
    need(buf, 8, "secrets request id")?;
    let request_id = buf.get_u64_le();
    let model_name = get_str(buf, "secrets model name")?;
    need(buf, 4, "piece count")?;
    let n_pieces = buf.get_u32_le() as usize;
    if n_pieces > 1 << 20 {
        return Err(WireError::malformed(format!(
            "implausible piece count {n_pieces}"
        )));
    }
    let mut pieces = Vec::with_capacity(bounded_capacity(n_pieces, buf, 16));
    for pi in 0..n_pieces {
        let mut gbytes = get_blob(buf, "piece graph")?;
        let graph = decode_graph(&mut gbytes)?;
        let mut pbytes = get_blob(buf, "piece params")?;
        let params = decode_params(&mut pbytes)?;
        need(buf, 4, "boundary count")?;
        let n_boundary = buf.get_u32_le() as usize;
        let mut boundary = Vec::with_capacity(bounded_capacity(n_boundary, buf, 12));
        for _ in 0..n_boundary {
            need(buf, 12, "boundary entry")?;
            let node = buf.get_u32_le() as usize;
            if node >= graph.len() {
                return Err(WireError::malformed(format!(
                    "piece {pi}: boundary node id {node} out of range for {}-node graph",
                    graph.len()
                )));
            }
            let piece = buf.get_u32_le() as usize;
            let output = buf.get_u32_le() as usize;
            if piece >= n_pieces {
                return Err(WireError::malformed(format!(
                    "piece {pi}: boundary references piece {piece} of {n_pieces}"
                )));
            }
            boundary.push((NodeId::from_index(node), BoundaryRef { piece, output }));
        }
        need(buf, 4, "original output count")?;
        let n_orig = buf.get_u32_le() as usize;
        let mut original_outputs = Vec::with_capacity(bounded_capacity(n_orig, buf, 4));
        for _ in 0..n_orig {
            need(buf, 4, "original output id")?;
            original_outputs.push(NodeId::from_index(buf.get_u32_le() as usize));
        }
        pieces.push(Piece {
            graph,
            params,
            boundary,
            original_outputs,
        });
    }
    need(buf, 4, "global output count")?;
    let n_global = buf.get_u32_le() as usize;
    let mut global_outputs = Vec::with_capacity(bounded_capacity(n_global, buf, 8));
    for _ in 0..n_global {
        need(buf, 8, "global output entry")?;
        let piece = buf.get_u32_le() as usize;
        let output = buf.get_u32_le() as usize;
        if piece >= n_pieces {
            return Err(WireError::malformed(format!(
                "global output references piece {piece} of {n_pieces}"
            )));
        }
        global_outputs.push(BoundaryRef { piece, output });
    }
    need(buf, 4, "real position count")?;
    let n_real = buf.get_u32_le() as usize;
    let mut real_positions = Vec::with_capacity(bounded_capacity(n_real, buf, 4));
    for _ in 0..n_real {
        need(buf, 4, "real position")?;
        real_positions.push(buf.get_u32_le() as usize);
    }
    if !buf.is_empty() {
        return Err(WireError::malformed(format!(
            "{} trailing bytes after secrets",
            buf.remaining()
        )));
    }
    Ok(ObfuscationSecrets {
        request_id,
        plan: PartitionPlan {
            pieces,
            global_outputs,
            model_name,
        },
        real_positions,
    })
}

/// A self-contained snapshot of a mid-flight reassembly: the secrets
/// plus every real member extracted so far. Produced by
/// [`DeobfuscationSession::checkpoint`], serializable with
/// [`SessionCheckpoint::to_bytes`], and resumable with
/// [`SessionCheckpoint::resume`] — the resumed session accepts the
/// remaining frames and finishes bit-identically to an uninterrupted
/// run (request-id-keyed determinism makes that exactly assertable).
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// The owner's reassembly secrets (owned — the checkpoint outlives
    /// the session that produced it).
    pub secrets: ObfuscationSecrets,
    /// One slot per bucket: the extracted real member, for every frame
    /// accepted before the checkpoint.
    pub(crate) slots: Vec<Option<BucketMember>>,
}

impl SessionCheckpoint {
    /// Builds a checkpoint from a session's parts (crate-internal; the
    /// public entry is [`DeobfuscationSession::checkpoint`]).
    pub(crate) fn from_parts(
        secrets: ObfuscationSecrets,
        slots: Vec<Option<BucketMember>>,
    ) -> SessionCheckpoint {
        SessionCheckpoint { secrets, slots }
    }

    /// The request this checkpoint belongs to.
    pub fn request_id(&self) -> u64 {
        self.secrets.request_id
    }

    /// Frames that were already accepted when the checkpoint was taken.
    pub fn received(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Serializes the checkpoint to its canonical bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(CHECKPOINT_CODEC_VERSION);
        put_blob(&mut buf, &encode_secrets(&self.secrets));
        buf.put_u32_le(self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                None => buf.put_u8(0),
                Some(member) => {
                    buf.put_u8(1);
                    put_member(&mut buf, member);
                }
            }
        }
        buf.freeze()
    }

    /// Decodes a checkpoint from [`SessionCheckpoint::to_bytes`] bytes.
    ///
    /// # Errors
    /// [`ProteusError::Wire`] on any truncation or malformation;
    /// [`ProteusError::Protocol`] when the slot count disagrees with the
    /// decoded plan.
    pub fn from_bytes(mut data: Bytes) -> Result<SessionCheckpoint, ProteusError> {
        let buf = &mut data;
        need(buf, 1, "checkpoint codec version").map_err(ProteusError::Wire)?;
        let version = buf.get_u8();
        if version != CHECKPOINT_CODEC_VERSION {
            return Err(ProteusError::Wire(WireError::malformed(format!(
                "unknown checkpoint codec version {version}"
            ))));
        }
        let mut sbytes = get_blob(buf, "checkpoint secrets").map_err(ProteusError::Wire)?;
        let secrets = decode_secrets(&mut sbytes).map_err(ProteusError::Wire)?;
        need(buf, 4, "checkpoint slot count").map_err(ProteusError::Wire)?;
        let n_slots = buf.get_u32_le() as usize;
        if n_slots != secrets.plan.pieces.len() {
            return Err(ProteusError::protocol(format!(
                "checkpoint has {n_slots} slots for a {}-piece plan",
                secrets.plan.pieces.len()
            )));
        }
        let mut slots = Vec::with_capacity(bounded_capacity(n_slots, buf, 1));
        for i in 0..n_slots {
            need(buf, 1, "checkpoint slot flag").map_err(ProteusError::Wire)?;
            match buf.get_u8() {
                0 => slots.push(None),
                1 => slots.push(Some(
                    get_member(buf, "checkpoint member").map_err(ProteusError::Wire)?,
                )),
                other => {
                    return Err(ProteusError::Wire(WireError::malformed(format!(
                        "checkpoint slot {i}: unknown presence flag {other}"
                    ))))
                }
            }
        }
        if !buf.is_empty() {
            return Err(ProteusError::Wire(WireError::malformed(format!(
                "{} trailing bytes after checkpoint",
                buf.remaining()
            ))));
        }
        Ok(SessionCheckpoint { secrets, slots })
    }

    /// Resumes the reassembly where the checkpoint left it: the returned
    /// session borrows this checkpoint's secrets, already holds every
    /// member accepted before the crash, and accepts the remaining
    /// frames exactly as the original session would have.
    pub fn resume(&self) -> DeobfuscationSession<'_> {
        DeobfuscationSession::resume_from_slots(&self.secrets, self.slots.clone())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn truncated_secrets_fail_typed_everywhere() {
        let secrets = ObfuscationSecrets {
            request_id: 42,
            plan: PartitionPlan {
                pieces: Vec::new(),
                global_outputs: Vec::new(),
                model_name: "empty".into(),
            },
            real_positions: vec![0, 1],
        };
        let bytes = encode_secrets(&secrets);
        let back = decode_secrets(&mut bytes.clone()).unwrap();
        assert_eq!(back.request_id, 42);
        assert_eq!(back.real_positions, vec![0, 1]);
        for cut in 0..bytes.len() {
            let mut prefix = bytes.slice(0..cut);
            assert!(
                decode_secrets(&mut prefix).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn implausible_counts_are_rejected_without_allocation() {
        // version byte, rid, empty name, then a piece count demanding
        // a million pieces from an empty buffer
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(7);
        buf.put_u32_le(0);
        buf.put_u32_le(1 << 20);
        let mut data = buf.freeze();
        assert!(matches!(
            decode_secrets(&mut data),
            Err(WireError::Truncated { .. })
        ));
    }
}
