//! Streaming obfuscation/de-obfuscation sessions — the service-shaped
//! protocol surface.
//!
//! The paper's protocol (Figure 1) is two services talking across a trust
//! boundary, and at service scale the interesting unit of work is the
//! *bucket*, not the whole model: an [`ObfuscationSession`] yields one
//! [`SealedBucket`] frame at a time, so the optimizer party can pipeline —
//! optimizing bucket *i* while the owner is still generating bucket
//! *i + 1* — and a [`DeobfuscationSession`] accepts optimized frames back
//! in any order, reassembling once every bucket has returned.
//!
//! # Per-request determinism
//!
//! A trained [`Proteus`] is immutable and can be shared (e.g. via
//! [`std::sync::Arc`]) across concurrent requests. Each session derives
//! its own seed from the master seed and the caller's `request_id` with a
//! splitmix64 finalizer ([`derive_request_seed`]), and every sentinel's
//! parameter stream gets a further per-(bucket, member) derivation
//! ([`derive_member_seed`], injective over bucket/member indices below
//! 2³²). The same `request_id` therefore yields byte-identical frames
//! across runs, while distinct requests — and distinct sentinels within a
//! bucket — share no seed.
//!
//! These sessions are the only way into and out of the protocol. An
//! in-process round trip drains an [`ObfuscationSession`] (it is an
//! [`Iterator`] over [`SealedBucket`]) through an optimizer and feeds the
//! results to a [`DeobfuscationSession`], or hands the whole request to
//! [`crate::ServeRuntime::serve_request`].

// Sessions run on the owner's request path: no `unwrap`/`expect` outside
// tests (CI runs clippy with `-D warnings`).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::bucket::{
    anonymize_content, Bucket, BucketMember, ObfuscationSecrets, RawSealed, SealedBucket,
};
use crate::error::ProteusError;
use crate::pipeline::Proteus;
use bytes::Bytes;
use proteus_graph::{Graph, TensorMap};
use proteus_partition::{partition_balanced, PartitionPlan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The splitmix64 finalizer: a bijective avalanche over `u64`. Every seed
/// in the session API derives through this, so neighboring inputs
/// (consecutive request ids, consecutive bucket/member indices) land on
/// uncorrelated seeds.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-request seed: splitmix over `master_seed ⊕ request_id`. Injective
/// in `request_id` for a fixed master seed (xor then a bijection), so no
/// two requests of one deployment share a randomness stream.
pub fn derive_request_seed(master_seed: u64, request_id: u64) -> u64 {
    splitmix64(master_seed ^ request_id)
}

/// Per-sentinel parameter seed, mixing the bucket *and* member index
/// through splitmix64. Injective over `(bucket, member)` pairs below 2³²
/// for a fixed request seed, so sentinel parameter streams are
/// pairwise-distinct by construction — two sentinels never share a
/// parameter initialization, even when the generator samples them the
/// same topology. (The seed's `seed ^ (i << 8)` derivation mixed neither
/// the member index nor bucket 0, so every sentinel in a bucket drew the
/// same stream.)
pub fn derive_member_seed(request_seed: u64, bucket: usize, member: usize) -> u64 {
    splitmix64(request_seed ^ splitmix64(((bucket as u64) << 32) | member as u64))
}

/// An in-flight obfuscation request: partitioned up front, sentinels
/// generated lazily, one sealed bucket per [`next_frame`] call.
///
/// Yields frames in bucket order (the sentinel generator's randomness
/// stream is sequential), then [`finish`] releases the owner's
/// [`ObfuscationSecrets`]. Also an [`Iterator`] over [`SealedBucket`].
///
/// [`next_frame`]: ObfuscationSession::next_frame
/// [`finish`]: ObfuscationSession::finish
#[derive(Debug)]
pub struct ObfuscationSession<'p> {
    proteus: &'p Proteus,
    request_id: u64,
    request_seed: u64,
    rng: StdRng,
    plan: PartitionPlan,
    real_positions: Vec<usize>,
    emitted: usize,
}

impl<'p> ObfuscationSession<'p> {
    pub(crate) fn new(
        proteus: &'p Proteus,
        graph: &Graph,
        params: &TensorMap,
        request_id: u64,
    ) -> Result<ObfuscationSession<'p>, ProteusError> {
        let config = proteus.config();
        graph.validate()?;
        let request_seed = derive_request_seed(config.seed, request_id);
        let n = config.num_partitions(graph.len());
        let assignment = partition_balanced(graph, n, config.partition_restarts, request_seed);
        let plan = PartitionPlan::extract(graph, params, &assignment)
            .map_err(|e| ProteusError::partition(e.to_string()))?;
        let buckets = plan.pieces.len();
        Ok(ObfuscationSession {
            proteus,
            request_id,
            request_seed,
            rng: StdRng::seed_from_u64(request_seed),
            plan,
            real_positions: Vec::with_capacity(buckets),
            emitted: 0,
        })
    }

    /// The caller-supplied request id this session is keyed by.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The derived per-request seed (exposed for auditing/evaluation).
    pub fn request_seed(&self) -> u64 {
        self.request_seed
    }

    /// `n` — how many buckets this session will emit in total.
    pub fn num_buckets(&self) -> usize {
        self.plan.pieces.len()
    }

    /// Frames not yet emitted.
    pub fn remaining(&self) -> usize {
        self.plan.pieces.len() - self.emitted
    }

    /// Generates and seals the next bucket: the real piece hidden among
    /// `k` freshly generated sentinels, anonymized and shuffled. Returns
    /// `None` once every bucket has been emitted.
    pub fn next_frame(&mut self) -> Option<SealedBucket> {
        let i = self.emitted;
        let piece = self.plan.pieces.get(i)?;
        let config = self.proteus.config();
        let sentinels = self.proteus.factory().generate_with(
            &piece.graph,
            config.k,
            config.mode,
            &mut self.rng,
            Some(self.proteus.inventory()),
        );
        let mut members: Vec<BucketMember> = Vec::with_capacity(sentinels.len() + 1);
        members.push(BucketMember {
            graph: piece.graph.clone(),
            params: piece.params.clone(),
        });
        for (j, s) in sentinels.into_iter().enumerate() {
            // sentinels carry plausible random parameters so that the
            // presence/absence of weights does not mark the real piece;
            // each member draws its own derived stream
            let sp = if piece.params.is_empty() {
                TensorMap::new()
            } else {
                TensorMap::init_random(&s, derive_member_seed(self.request_seed, i, j + 1))
            };
            members.push(BucketMember {
                graph: s,
                params: sp,
            });
        }
        // Shuffle via an explicit permutation: `order[dst] = src`. The
        // inverse permutation is total by construction, so locating the
        // real member (source index 0) has no failure path.
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.shuffle(&mut self.rng);
        let mut inverse = vec![0usize; order.len()];
        for (dst, &src) in order.iter().enumerate() {
            inverse[src] = dst;
        }
        let real_at = inverse[0];
        let mut slots: Vec<Option<BucketMember>> = (0..order.len()).map(|_| None).collect();
        for (src, m) in members.into_iter().enumerate() {
            slots[inverse[src]] = Some(m);
        }
        let mut shuffled: Vec<BucketMember> = slots.into_iter().flatten().collect();
        debug_assert_eq!(shuffled.len(), order.len(), "inverse is a permutation");
        for m in shuffled.iter_mut() {
            m.graph = anonymize_content(&m.graph);
        }
        self.real_positions.push(real_at);
        self.emitted += 1;
        Some(SealedBucket {
            bucket_index: i as u32,
            num_buckets: self.plan.pieces.len() as u32,
            bucket: Bucket { members: shuffled },
        })
    }

    /// Releases the owner's secrets once every frame has been emitted.
    ///
    /// # Errors
    /// [`ProteusError::Protocol`] if frames are still pending — secrets
    /// for a half-generated model would let reassembly silently drop
    /// pieces.
    pub fn finish(self) -> Result<ObfuscationSecrets, ProteusError> {
        if self.emitted < self.plan.pieces.len() {
            return Err(ProteusError::protocol(format!(
                "secrets requested with {} of {} frames still pending",
                self.plan.pieces.len() - self.emitted,
                self.plan.pieces.len()
            )));
        }
        Ok(ObfuscationSecrets {
            request_id: self.request_id,
            plan: self.plan,
            real_positions: self.real_positions,
        })
    }
}

impl Iterator for ObfuscationSession<'_> {
    type Item = SealedBucket;

    fn next(&mut self) -> Option<SealedBucket> {
        self.next_frame()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for ObfuscationSession<'_> {}

/// The owner's reassembly endpoint: accepts optimized [`SealedBucket`]
/// frames in any order, reassembles once complete.
///
/// Only the real member of each accepted frame is retained (the session
/// holds the secrets, so it can discard the `k` sentinels on arrival) —
/// memory stays proportional to the protected model, not the obfuscated
/// one.
#[derive(Debug)]
pub struct DeobfuscationSession<'s> {
    secrets: &'s ObfuscationSecrets,
    slots: Vec<Option<BucketMember>>,
    received: usize,
}

impl<'s> DeobfuscationSession<'s> {
    /// Starts a reassembly session against the secrets of the matching
    /// obfuscation session.
    pub fn new(secrets: &'s ObfuscationSecrets) -> DeobfuscationSession<'s> {
        let n = secrets.plan.pieces.len();
        DeobfuscationSession {
            secrets,
            slots: vec![None; n],
            received: 0,
        }
    }

    /// Rebuilds a session from checkpointed state: the secrets plus the
    /// raw wire frames accepted before the interruption (e.g. the frames
    /// a [`crate::store::Store`] journaled for this request). Each frame
    /// is re-accepted through the normal validation path, so a journal
    /// that was tampered with or truncated mid-frame fails typed instead
    /// of resuming silently wrong.
    ///
    /// Request-id-keyed determinism makes the resumed run exactly
    /// assertable: accepting the remaining frames and calling
    /// [`DeobfuscationSession::finish`] yields bytes identical to an
    /// uninterrupted session.
    ///
    /// # Errors
    /// Everything [`DeobfuscationSession::accept_mux_bytes`] rejects —
    /// decode failures, frames of another request, duplicates,
    /// out-of-range frames.
    pub fn resume(
        secrets: &'s ObfuscationSecrets,
        frames: &[Bytes],
    ) -> Result<DeobfuscationSession<'s>, ProteusError> {
        let mut session = DeobfuscationSession::new(secrets);
        for frame in frames {
            session.accept_mux_bytes(frame.clone())?;
        }
        Ok(session)
    }

    /// `n` — how many frames this session expects in total.
    pub fn num_buckets(&self) -> usize {
        self.slots.len()
    }

    /// Frames accepted so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Frames still outstanding.
    pub fn missing(&self) -> usize {
        self.slots.len() - self.received
    }

    /// Whether every frame has arrived.
    pub fn is_complete(&self) -> bool {
        self.received == self.slots.len()
    }

    /// Accepts one optimized frame. Frames may arrive in any order; the
    /// real member is extracted immediately and the sentinels dropped.
    ///
    /// # Errors
    /// [`ProteusError::Protocol`] when the frame belongs to a different
    /// model (bucket count mismatch), is out of range, duplicates an
    /// already-accepted frame, or no longer holds the recorded real
    /// position.
    pub fn accept(&mut self, sealed: SealedBucket) -> Result<(), ProteusError> {
        let (index, total) = (sealed.bucket_index, sealed.num_buckets);
        let members = sealed.bucket.members;
        let count = members.len();
        self.keep(index, total, count, |pos| {
            members.into_iter().nth(pos).map(Ok)
        })
    }

    /// The shared tail of every accept path: validates the frame against
    /// the session, then stores the real member `take` yields for the
    /// recorded position (`None` when the frame's `count` members do not
    /// reach it).
    fn keep(
        &mut self,
        bucket_index: u32,
        num_buckets: u32,
        count: usize,
        take: impl FnOnce(usize) -> Option<Result<BucketMember, ProteusError>>,
    ) -> Result<(), ProteusError> {
        let i = bucket_index as usize;
        let pos = self.check_frame(i, num_buckets)?;
        let member = take(pos).ok_or_else(|| {
            ProteusError::protocol(format!(
                "real position {pos} out of range in {count}-member bucket {i}"
            ))
        })??;
        self.slots[i] = Some(member);
        self.received += 1;
        Ok(())
    }

    /// Validates a frame's header against the session state and returns
    /// the recorded real position for its bucket.
    fn check_frame(&mut self, i: usize, num_buckets: u32) -> Result<usize, ProteusError> {
        let expected = self.slots.len();
        if num_buckets as usize != expected {
            return Err(ProteusError::protocol(format!(
                "frame claims a {num_buckets}-bucket model, session expects {expected}"
            )));
        }
        if i >= expected {
            return Err(ProteusError::protocol(format!(
                "bucket index {i} out of range for {expected}-bucket session"
            )));
        }
        if self.slots[i].is_some() {
            // never overwrite: the first accepted frame stays, the replay
            // is rejected with the dedicated variant
            return Err(ProteusError::DuplicateFrame {
                bucket_index: i as u32,
                request_id: self.secrets.request_id,
            });
        }
        self.secrets.real_positions.get(i).copied().ok_or_else(|| {
            ProteusError::protocol(format!("secrets record no real position for bucket {i}"))
        })
    }

    /// Decodes one multiplexed (v3) frame and accepts it after checking
    /// that its request id matches this session's secrets — frames
    /// injected from another request's stream are rejected before any of
    /// their content is taken, so multiplexed transports cannot leak data
    /// across requests. A record (v1) carries no request id and a v2 frame
    /// the retired FNV-1a checksum; both are refused as
    /// [`proteus_graph::WireError::UnknownVersion`].
    ///
    /// Only the real member is decoded. The checksum still covers the
    /// whole frame and every member's length prefixes are still walked,
    /// so a corrupted or truncated sentinel is rejected all the same.
    ///
    /// # Errors
    /// [`ProteusError::Wire`] on decode failure (unknown version,
    /// corrupted checksum, truncation), [`ProteusError::Protocol`] on a
    /// request-id mismatch, plus everything
    /// [`DeobfuscationSession::accept`] rejects.
    pub fn accept_mux_bytes(&mut self, wire: Bytes) -> Result<(), ProteusError> {
        let raw = RawSealed::open(wire)?;
        let (request_id, expected) = (raw.request_id, self.secrets.request_id);
        if request_id != expected {
            return Err(ProteusError::protocol(format!(
                "frame for request {request_id:#x} injected into the stream of request {expected:#x}"
            )));
        }
        let (index, total, count) = (raw.bucket_index, raw.num_buckets, raw.member_count());
        self.keep(index, total, count, |pos| {
            raw.decode_member(pos).map(|m| m.map_err(Into::into))
        })
    }

    /// Reassembles the protected model from the collected real pieces
    /// (paper §4.3).
    ///
    /// # Errors
    /// [`ProteusError::Protocol`] when frames are missing;
    /// [`ProteusError::Graph`] when the optimized pieces' interfaces no
    /// longer match the plan.
    pub fn finish(self) -> Result<(Graph, TensorMap), ProteusError> {
        if !self.is_complete() {
            return Err(ProteusError::protocol(format!(
                "reassembly attempted with {} of {} frames missing",
                self.missing(),
                self.slots.len()
            )));
        }
        let mut pieces = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.into_iter().enumerate() {
            let member = slot.ok_or_else(|| {
                ProteusError::protocol(format!("bucket {i} vanished before reassembly"))
            })?;
            pieces.push((member.graph, member.params));
        }
        self.secrets.plan.reassemble(&pieces).map_err(Into::into)
    }
}
