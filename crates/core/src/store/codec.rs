//! The canonical binary codec for the owner's reassembly secrets
//! ([`ObfuscationSecrets`]: partition plan, boundary wiring, real
//! positions), the body of every `SessionOpen` record the store
//! journals.
//!
//! The encoding is an explicit tag-length-value layout over the same
//! primitives as the wire and artifact codecs ([`encode_graph`] /
//! [`encode_params`], little-endian integers, length-prefixed strings) —
//! *not* a generic serializer — so the bytes are canonical: piece
//! graphs are built dense by partitioning, which makes the graph/params
//! round trip bit-exact, and that is what lets the recovery battery
//! assert byte-identical reassembly after a resume.
//!
//! The decoder is fail-closed: typed [`WireError`]s on truncation or
//! malformed counts, pre-allocations clamped by the remaining buffer
//! (the same untrusted-length discipline as the artifact codec).

use crate::bucket::ObfuscationSecrets;
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
