//! The correctness gate and the quality metrics: what the daemon sent
//! back must match optimizing the same frames in process, byte for byte,
//! and a fixed verification set yields the optimization slowdown and the
//! obfuscation search space, so a speed-up that weakens either shows.

use crate::stats::{geomean, mean};
use crate::workload::Schedule;
use bytes::Bytes;
use proteus::{DeobfuscationSession, Proteus};
use proteus_graph::TensorMap;
use proteus_models::zoo;
use proteus_opt::Optimizer;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// An order-independent digest of a response: the daemon sends frames in
/// completion order, so frames are hashed one by one and the sorted
/// hashes are hashed again.
pub fn frames_digest(frames: &[Bytes]) -> u64 {
    let mut each: Vec<u64> = frames
        .iter()
        .map(|f| {
            let mut h = DefaultHasher::new();
            f[..].hash(&mut h);
            h.finish()
        })
        .collect();
    each.sort_unstable();
    let mut h = DefaultHasher::new();
    each.hash(&mut h);
    h.finish()
}

/// Regenerates the first `n` schedule entries from (model, request id),
/// optimizes each frame serially in process with
/// `SealedBucket::optimize(.., Some(1))` as `proteus-client` does, and
/// compares digests with what the daemon returned. Entries without a
/// digest failed in transport and are already counted as failures.
///
/// Returns one message per mismatch.
///
/// # Errors
/// When the owner cannot regenerate an entry at all.
pub fn check_digests(
    proteus: &Proteus,
    optimizer: &Optimizer,
    schedule: &Schedule,
    digests: &HashMap<usize, u64>,
    n: usize,
) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    for index in 0..n {
        let Some(&got) = digests.get(&index) else {
            continue;
        };
        let entry = schedule.entry(index);
        let (graph, params) = entry.inputs();
        let rid = entry.request_id;
        let session = proteus
            .obfuscate_session(&graph, &params, rid)
            .map_err(|e| format!("regenerating entry {index} ({}): {e}", entry.kind))?;
        let want: Vec<Bytes> = session
            .map(|frame| frame.optimize(optimizer, Some(1)).to_mux_bytes(rid))
            .collect();
        if frames_digest(&want) != got {
            mismatches.push(format!(
                "entry {index} ({}, request {rid:#x}): daemon frames differ from the in-process path",
                entry.kind
            ));
        }
    }
    Ok(mismatches)
}

/// Protocol quality over a fixed set: every zoo model once, graph only,
/// at fixed request ids, so both numbers repeat exactly for one build.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Geometric mean over the set of
    /// `estimate_us(reassembled) / estimate_us(optimize(plain))`, the
    /// paper's Figure 4 slowdown.
    pub opt_slowdown: f64,
    /// Mean of `n_buckets · log10(k + 1)`: the decimal size of the
    /// search space an attacker faces.
    pub space_log10: f64,
    /// Models in the set.
    pub models: usize,
}

/// Request ids of the quality set: one per zoo model, from this base.
const QUALITY_REQUEST_BASE: u64 = 0x5EED_0000;

/// Computes [`Quality`] by optimizing each model obfuscated (frames
/// optimized serially, then reassembled) and plain.
///
/// # Errors
/// When a model cannot be obfuscated, reassembled or costed.
pub fn quality(proteus: &Proteus, optimizer: &Optimizer) -> Result<Quality, String> {
    let choices = (proteus.config().k + 1) as f64;
    let mut slowdowns = Vec::new();
    let mut spaces = Vec::new();
    let none = TensorMap::new();
    for (i, model) in zoo::all().iter().enumerate() {
        let fail = |e: &dyn std::fmt::Display| format!("quality set, {}: {e}", model.name);
        let graph = (model.build)();
        let rid = QUALITY_REQUEST_BASE + i as u64;
        let mut session = proteus
            .obfuscate_session(&graph, &none, rid)
            .map_err(|e| fail(&e))?;
        let buckets = session.num_buckets();
        let optimized: Vec<_> = session
            .by_ref()
            .map(|frame| frame.optimize(optimizer, Some(1)))
            .collect();
        let secrets = session.finish().map_err(|e| fail(&e))?;
        let mut back = DeobfuscationSession::new(&secrets);
        for frame in optimized {
            back.accept(frame).map_err(|e| fail(&e))?;
        }
        let (reassembled, _) = back.finish().map_err(|e| fail(&e))?;
        let (plain, _, _) = optimizer.optimize(&graph, &none);
        let protected_us = optimizer.estimate_us(&reassembled).map_err(|e| fail(&e))?;
        let plain_us = optimizer.estimate_us(&plain).map_err(|e| fail(&e))?;
        slowdowns.push(protected_us / plain_us);
        spaces.push(buckets as f64 * choices.log10());
    }
    Ok(Quality {
        opt_slowdown: geomean(&slowdowns),
        space_log10: mean(&spaces),
        models: slowdowns.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_frame_order_but_not_content() {
        let a = Bytes::from(&b"frame-a"[..]);
        let b = Bytes::from(&b"frame-b"[..]);
        let c = Bytes::from(&b"frame-c"[..]);
        assert_eq!(
            frames_digest(&[a.clone(), b.clone()]),
            frames_digest(&[b.clone(), a.clone()])
        );
        assert_ne!(
            frames_digest(&[a.clone(), b]),
            frames_digest(&[a.clone(), c])
        );
        assert_ne!(
            frames_digest(std::slice::from_ref(&a)),
            frames_digest(&[a.clone(), a])
        );
    }
}
