//! The traced run's server half: a sample of the measured schedule is
//! regenerated from (model, request id) and pushed, in process, through
//! the public functions the daemon calls on each frame, timing each one.
//! The daemon itself stays a black box; this attributes its share of the
//! exchange to layers.

use crate::workload::Schedule;
use bytes::Bytes;
use proteus::store::Store;
use proteus::{Bucket, BucketMember, OptimizedCache, Proteus, SealedBucket};
use proteus_opt::Optimizer;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Time spent in each server-side layer over the replayed requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLayers {
    /// Requests replayed (warm-up entries excluded).
    pub requests: usize,
    /// `SealedBucket::from_mux_bytes`.
    pub decode: Duration,
    /// `OptimizedCache::key_for`.
    pub key: Duration,
    /// `OptimizedCache::lookup`.
    pub lookup: Duration,
    /// `OptimizedCache::insert` after a miss.
    pub insert: Duration,
    /// `Optimizer::optimize` on misses.
    pub optimize: Duration,
    /// `SealedBucket::to_mux_bytes` of the optimized frame.
    pub encode: Duration,
    /// `Store::record_lane_frame` per frame plus `finish_lane` (durable
    /// workloads only).
    pub store: Duration,
    /// Members answered from the cache.
    pub hits: usize,
    /// Members the optimizer ran on.
    pub misses: usize,
}

impl ServerLayers {
    /// Mean milliseconds per replayed request.
    pub fn per_request_ms(&self, d: Duration) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            d.as_secs_f64() * 1e3 / self.requests as f64
        }
    }

    /// Every layer's total, with the name of its per-request mean.
    pub fn named(&self) -> [(&'static str, Duration); 7] {
        [
            ("serve.decode.mean_ms", self.decode),
            ("cache.key.mean_ms", self.key),
            ("cache.lookup.mean_ms", self.lookup),
            ("cache.insert.mean_ms", self.insert),
            ("opt.optimize.mean_ms", self.optimize),
            ("serve.encode.mean_ms", self.encode),
            ("store.append.mean_ms", self.store),
        ]
    }
}

/// Adds `f`'s wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed();
    out
}

/// The server path of one frame as the daemon runs it: journal, decode,
/// cache key and lookup per member, optimize and publish misses, encode.
fn serve_frame(
    rid: u64,
    frame: Bytes,
    cache: &OptimizedCache,
    optimizer: &Optimizer,
    store: Option<&Store>,
    layers: &mut ServerLayers,
) -> Result<(), String> {
    if let Some(store) = store {
        timed(&mut layers.store, || store.record_lane_frame(rid, &frame))
            .map_err(|e| e.to_string())?;
    }
    let (_, sealed) = timed(&mut layers.decode, || SealedBucket::from_mux_bytes(frame))
        .map_err(|e| e.to_string())?;
    let profile = optimizer.profile();
    let mut members = Vec::with_capacity(sealed.bucket.members.len());
    for member in sealed.bucket.members {
        let key = timed(&mut layers.key, || {
            OptimizedCache::key_for(profile, &member.graph, &member.params)
        });
        if let Some(hit) = timed(&mut layers.lookup, || cache.lookup(&key)) {
            layers.hits += 1;
            members.push(hit);
            continue;
        }
        layers.misses += 1;
        let (graph, params, _) = timed(&mut layers.optimize, || {
            optimizer.optimize(&member.graph, &member.params)
        });
        timed(&mut layers.insert, || {
            cache.insert(key, graph.clone(), params.clone())
        });
        members.push(BucketMember { graph, params });
    }
    let optimized = SealedBucket {
        bucket_index: sealed.bucket_index,
        num_buckets: sealed.num_buckets,
        bucket: Bucket { members },
    };
    timed(&mut layers.encode, || optimized.to_mux_bytes(rid));
    Ok(())
}

/// Replays `warm` untimed to fill a fresh cache of `capacity` entries,
/// then replays `sample` timing every server-side layer. With
/// `store_dir`, frames are journaled into a fresh store there.
///
/// # Errors
/// When an entry cannot be regenerated or a layer fails.
pub fn replay(
    proteus: &Proteus,
    schedule: &Schedule,
    warm: Range<usize>,
    sample: Range<usize>,
    capacity: usize,
    store_dir: Option<&Path>,
) -> Result<ServerLayers, String> {
    let optimizer = Optimizer::new(proteus_opt::Profile::OrtLike);
    let cache = OptimizedCache::new(capacity);
    let store = match store_dir {
        Some(dir) => Some(Store::open_or_create(dir).map_err(|e| e.to_string())?.0),
        None => None,
    };
    let mut unmeasured = ServerLayers::default();
    let mut layers = ServerLayers::default();
    for index in warm.chain(sample.clone()) {
        let entry = schedule.entry(index);
        let rid = entry.request_id;
        let (graph, params) = entry.inputs();
        let frames: Vec<Bytes> = proteus
            .obfuscate_session(&graph, &params, rid)
            .map_err(|e| e.to_string())?
            .map(|frame| frame.to_mux_bytes(rid))
            .collect();
        let acc = if sample.contains(&index) {
            layers.requests += 1;
            &mut layers
        } else {
            &mut unmeasured
        };
        for frame in frames {
            serve_frame(rid, frame, &cache, &optimizer, store.as_ref(), acc)?;
        }
        if let Some(store) = &store {
            timed(&mut acc.store, || store.finish_lane(rid)).map_err(|e| e.to_string())?;
        }
    }
    Ok(layers)
}
