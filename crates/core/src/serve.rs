//! Multi-tenant serving runtime: many concurrent obfuscation requests
//! multiplexed over one shared optimizer worker pool.
//!
//! This is the one place a request is optimized. Sessions make a single
//! request streamable; at service scale the optimizer party faces *many*
//! owners at once, and a thread fan-out per call would let any one
//! request grab every core while others queue behind it. The
//! [`ServeRuntime`] inverts that: a fixed pool of workers is created once,
//! every request's [`SealedBucket`](crate::SealedBucket) frames are split into per-member tasks
//! on one run queue that every worker pops oldest-first, so workers
//! interleave members of *different* requests — a request with one small
//! bucket is not stuck behind a tenant streaming a hundred large ones.
//!
//! Flow control is per request: a [`RequestHandle`] admits at most
//! [`ServeConfig::window`] frames in flight (submitted but not yet
//! optimized); submitting past the window blocks the producer, which is
//! exactly the backpressure a bounded transport would exert. Completed
//! frames are reassembled member-by-member and surface on the handle in
//! completion order — [`crate::DeobfuscationSession`] accepts them in any
//! order, so nothing downstream cares that bucket 3 finished before
//! bucket 0.
//!
//! A lane is bytes in, bytes out. Every frame enters
//! [`RequestHandle::submit`] as v3 wire bytes
//! ([`SealedBucket::to_mux_bytes`](crate::SealedBucket::to_mux_bytes))
//! and completes as a sealed v3 [`CompletedFrame`], which
//! [`RequestHandle::recv`] and [`RequestHandle::try_recv`] hand out as it
//! is. Between the two, a member is decoded only to be optimized and
//! encoded once, after optimization.
//!
//! On the wire, concurrent requests share one byte stream via the v3
//! multiplexed frame ([`proteus_graph::wire::encode_frame_v3`]): the
//! header carries a `request_id`, and [`RequestHandle::submit`]
//! rejects frames whose id does not match the handle (cross-request
//! injection). A record (v1) carries no request id and a v2 frame the
//! retired FNV-1a checksum; both are refused as
//! [`proteus_graph::WireError::UnknownVersion`].
//!
//! Two serving-only accelerations ride on top. The shared
//! [`OptimizedCache`] replays optimizer outputs for bucket members whose
//! exact wire bytes were optimized before — sentinels are anonymized
//! content-addressed ([`crate::bucket::anonymize_content`]), so the same
//! sentinel repeating across buckets, requests, or tenants costs the pool
//! exactly one optimization. A lane keys a graph-only member on the bytes
//! it received and the cache holds optimized members as wire bytes, so a
//! hit is neither decoded nor re-encoded, and a frame whose members all
//! hit is sealed at submit. [`Proteus::warm_inventory`] fills a trained
//! instance's [`crate::SentinelInventory`] ahead of traffic so sessions
//! draw pre-built sentinels instead of generating them inline on the
//! request path. Both are pure memoization: served bytes stay
//! bit-identical to the cold path, and the e2e benchmark's per-layer
//! spans measure the win instead of asserting it.
//!
//! # Crash containment
//!
//! The runtime is crash-contained. Every pool task runs under
//! `catch_unwind`: a panicking optimizer task fails *its own request's*
//! lane with a typed [`ProteusError::WorkerCrashed`] — in-flight frames
//! of that request are abandoned (a frame never surfaces with missing
//! members) while every other lane keeps flowing. A panic that ever
//! escapes that containment restarts the worker's loop in place on the
//! same thread, so the pool keeps its capacity. Lock poisoning is
//! recovered structurally where the data cannot be inconsistent (the run
//! queue, the handle registry) and converted to typed lane failures where
//! it can (a request's reassembly state). The optimizer is reached through
//! the [`MemberOptimizer`] seam, so the chaos battery (`tests/serve_chaos.rs`)
//! injects panics and stalls with a test optimizer and replays exact
//! failure schedules from a seed.
//!
//! # Example
//!
//! ```
//! use proteus::serve::{ServeRuntime};
//! use proteus::{PartitionSpec, Proteus, ProteusConfig, ServeConfig};
//! use proteus_graph::TensorMap;
//! use proteus_graphgen::GraphRnnConfig;
//! use proteus_opt::{Optimizer, Profile};
//!
//! let config = ProteusConfig {
//!     k: 2,
//!     partitions: PartitionSpec::Count(2),
//!     graphrnn: GraphRnnConfig { epochs: 1, ..Default::default() },
//!     topology_pool: 10,
//!     ..Default::default()
//! };
//! let proteus = Proteus::train(config, &[proteus_models::build(proteus_models::ModelKind::ResNet)])?;
//!
//! // the optimizer party: one pool shared by every request
//! let runtime = ServeRuntime::new(
//!     Optimizer::new(Profile::OrtLike),
//!     ServeConfig { workers: 2, window: 2, ..Default::default() },
//! )?;
//!
//! // each request streams through the shared pool under its own id
//! let secret = proteus_models::build(proteus_models::ModelKind::AlexNet);
//! let (optimized, _params) = runtime.serve_request(&proteus, &secret, &TensorMap::new(), 11)?;
//! assert!(optimized.validate().is_ok());
//! assert!(runtime.stats().tasks_executed > 0);
//! # Ok::<(), proteus::ProteusError>(())
//! ```

// The serving hot path must never panic on behalf of a request: every
// `unwrap`/`expect` here is either converted to a typed error or justified
// as a true invariant at the use site. CI runs clippy with `-D warnings`,
// so a new unjustified panic path fails the build.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::bucket::{
    encode_chunk, seal_optimized, BucketMember, OptimizedMember, RawMember, RawSealed,
};
use crate::config::ServeConfig;
use crate::error::ProteusError;
use crate::pipeline::Proteus;
use crate::session::DeobfuscationSession;
use bytes::{BufMut, Bytes, BytesMut};
use proteus_graph::wire::{word_hash64, MemberEncoder};
use proteus_graph::{Graph, TensorMap};
use proteus_opt::{Optimizer, Profile};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Locks a mutex, recovering from poison by taking the guard anyway.
///
/// Only used for locks whose protected data stays structurally valid
/// across a panic: the run queue (single push/pop operations and a
/// flag), the handle registry (a vector of weak pointers) and the worker
/// join handles. A panic on another thread cannot leave any of these
/// half-mutated in a way later readers would misinterpret, so propagating
/// the poison would turn one contained crash into a pool-wide outage for
/// no safety gain.
/// Request-lane locks are NOT handled here — their reassembly state *can*
/// be mid-mutation, so [`RequestState::lane`] heals them and surfaces a
/// typed error instead.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a human-readable message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The optimizer party as the pool sees it: a rewrite profile (it keys
/// the [`OptimizedCache`]) and a pure rewrite of one bucket member.
/// Implemented for [`Optimizer`], which is what every deployment serves;
/// the chaos battery (`tests/serve_chaos.rs`) implements it with a
/// wrapper that panics and stalls on a seeded schedule.
pub trait MemberOptimizer: Send + Sync {
    /// The rewrite profile; optimized outputs differ per profile.
    fn profile(&self) -> Profile;

    /// Optimizes one bucket member, returning its graph and parameters.
    fn optimize(&self, graph: &Graph, params: &TensorMap) -> (Graph, TensorMap);
}

impl MemberOptimizer for Optimizer {
    fn profile(&self) -> Profile {
        Optimizer::profile(self)
    }

    fn optimize(&self, graph: &Graph, params: &TensorMap) -> (Graph, TensorMap) {
        let (graph, params, _) = Optimizer::optimize(self, graph, params);
        (graph, params)
    }
}

/// One cached optimizer output as its wire chunk, retained with its full
/// key so a fingerprint collision can never substitute the wrong member.
#[derive(Debug)]
struct CacheEntry {
    key: Bytes,
    chunk: Bytes,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Entries bucketed by the 64-bit fingerprint of their full key.
    /// Within a bucket, entries sit in insertion order; FIFO eviction
    /// pops the front, so the deque keeps eviction O(1) where a `Vec`
    /// would shift the whole colliding bucket on every eviction.
    buckets: HashMap<u64, VecDeque<CacheEntry>>,
    /// Insertion order of fingerprints, for FIFO eviction.
    order: VecDeque<u64>,
}

/// A shared cache of optimizer outputs, keyed by the member's exact wire
/// bytes plus the optimizer profile.
///
/// Sentinel members are anonymized content-addressed
/// ([`crate::bucket::anonymize_content`]): the same sentinel drawn into
/// different buckets, requests, or tenants serializes to identical bytes,
/// so its optimized form is computed once by the worker pool and replayed
/// on every later appearance. Real subgraphs are partitioned under a
/// per-request seed and essentially never repeat — they miss and take the
/// pool as before, which is exactly right: the cache must never make the
/// protected pieces distinguishable by *skipping* them, and it does not,
/// because hits and misses produce byte-identical frames.
///
/// Both sides of an entry are wire bytes. The key is a profile tag
/// followed by the member's graph and params encodings, exactly as the
/// frame carried them, so the runtime keys a received member without
/// decoding it. The value is the optimized member's wire chunk
/// (`graph_len u32 | graph | params_len u32 | params`, the bytes
/// [`SealedBucket::to_mux_bytes`](crate::SealedBucket::to_mux_bytes)
/// writes for it), so a hit is copied into its response frame as it is:
/// nothing is decoded or re-encoded.
/// [`OptimizedCache::key_for`], [`OptimizedCache::lookup`] and
/// [`OptimizedCache::insert`] convert decoded members to and from these
/// bytes.
///
/// Weighted members bypass the cache: the runtime keys only members
/// with empty params. Sentinel weights are drawn per (request, bucket,
/// member), so a weighted key effectively never repeats, and keying one
/// would hash, store and copy megabytes for no hit.
///
/// The u64 fingerprint ([`word_hash64`] of the key, in memory only)
/// only buckets; every hit compares the full key bytes, so a collision
/// degrades to a miss, never to a wrong answer.
/// Eviction is FIFO at [`ServeConfig::cache_capacity`] entries; capacity
/// `0` disables the cache entirely (every member goes to the pool).
///
/// The cache self-heals from lock poisoning: it is pure memoization, so
/// when a panic poisons the lock mid-mutation the recovery path drops
/// every resident entry, clears the poison, and keeps serving — losing
/// cached latency, never correctness. [`OptimizedCache::poison_heals`]
/// counts how often that happened.
#[derive(Debug)]
pub struct OptimizedCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Times a poisoned lock was healed by dropping all entries.
    heals: AtomicUsize,
}

/// The key's first byte: optimized outputs differ per profile.
fn profile_tag(profile: Profile) -> u8 {
    match profile {
        Profile::OrtLike => 0,
        Profile::HidetLike => 1,
        Profile::TvmLike => 2,
    }
}

impl OptimizedCache {
    /// Creates a cache holding at most `capacity` optimized members;
    /// `0` disables caching (lookups miss, inserts drop).
    pub fn new(capacity: usize) -> OptimizedCache {
        OptimizedCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            heals: AtomicUsize::new(0),
        }
    }

    /// Locks the cache, healing a poisoned lock by dropping every entry.
    /// A panic mid-`insert` can leave `buckets` and `order` disagreeing,
    /// so the only state the recovered guard may expose is the empty one;
    /// correctness is unaffected because every entry is recomputable.
    fn guard(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.buckets.clear();
                guard.order.clear();
                self.inner.clear_poison();
                self.heals.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Whether the cache stores anything at all (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.guard().order.len()
    }

    /// Times a poisoned cache lock was healed (entries dropped, poison
    /// cleared). Nonzero only after a thread panicked while holding the
    /// cache lock.
    pub fn poison_heals(&self) -> usize {
        self.heals.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that returned a cached member.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing and sent the member to the pool.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// The cache key of one unoptimized bucket member: a profile tag byte
    /// (outputs differ per optimizer profile) followed by the member's
    /// canonical wire encoding. The encoding compacts before writing
    /// ([`MemberEncoder`]), so structurally identical graphs key
    /// identically regardless of their in-memory node numbering. For a
    /// member as the owner sends it, this is the key the runtime builds
    /// from the frame's slices.
    pub fn key_for(profile: Profile, graph: &Graph, params: &TensorMap) -> Bytes {
        let member = MemberEncoder::new(graph, params);
        let mut buf = BytesMut::with_capacity(1 + member.graph_len() + member.params_len());
        buf.put_u8(profile_tag(profile));
        member.put_graph(&mut buf);
        member.put_params(&mut buf);
        buf.freeze()
    }

    /// The cache key of a member still in wire form, from the graph and
    /// params slices its frame carried.
    fn key_of(profile: Profile, member: &RawMember) -> Bytes {
        let mut buf = BytesMut::with_capacity(1 + member.graph.len() + member.params.len());
        buf.put_u8(profile_tag(profile));
        buf.put_slice(&member.graph);
        buf.put_slice(&member.params);
        buf.freeze()
    }

    /// Returns the optimized member cached under `key`, decoded, counting
    /// a hit or miss. Always a miss when disabled.
    pub fn lookup(&self, key: &Bytes) -> Option<BucketMember> {
        if !self.is_enabled() {
            return None;
        }
        // chunks are written only by `encode_chunk`, so one always
        // decodes; were it ever not to, it is counted and answered as a
        // miss, never as a hit
        let member = self.find(key).and_then(|mut chunk| {
            RawMember::split(&mut chunk)
                .and_then(RawMember::decode)
                .ok()
        });
        self.count(usize::from(member.is_some()), usize::from(member.is_none()));
        member
    }

    /// Returns the wire chunk cached under `key` without counting it. A
    /// disabled cache never stores, so it finds nothing.
    fn find(&self, key: &[u8]) -> Option<Bytes> {
        let fp = word_hash64(0, key);
        let inner = self.guard();
        inner
            .buckets
            .get(&fp)
            .and_then(|bucket| bucket.iter().find(|e| e.key[..] == *key))
            .map(|e| e.chunk.clone())
    }

    /// Adds lookups that hit and missed to the counters.
    fn count(&self, hits: usize, misses: usize) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Publishes one optimized member under its key, encoded, evicting
    /// the oldest entry when full. Returns whether the entry was stored
    /// (`false` when disabled or when a racing worker already published
    /// this key — the first result stays, and determinism makes both
    /// identical).
    pub fn insert(&self, key: Bytes, graph: Graph, params: TensorMap) -> bool {
        self.insert_chunk(key, || encode_chunk(&BucketMember { graph, params }))
    }

    /// [`OptimizedCache::insert`] of a member as its wire chunk, which
    /// `chunk` makes only when the cache is enabled.
    fn insert_chunk(&self, key: Bytes, chunk: impl FnOnce() -> Bytes) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let chunk = chunk();
        let fp = word_hash64(0, &key);
        let mut inner = self.guard();
        if inner
            .buckets
            .get(&fp)
            .is_some_and(|bucket| bucket.iter().any(|e| e.key == key))
        {
            return false;
        }
        if inner.order.len() >= self.capacity {
            if let Some(old_fp) = inner.order.pop_front() {
                if let Some(bucket) = inner.buckets.get_mut(&old_fp) {
                    // entries within a fingerprint bucket are in insertion
                    // order, so popping the front evicts exactly the entry
                    // `order` named — same FIFO order as the old
                    // `Vec::remove(0)`, without the O(n) shift
                    bucket.pop_front();
                    if bucket.is_empty() {
                        inner.buckets.remove(&old_fp);
                    }
                }
            }
        }
        inner
            .buckets
            .entry(fp)
            .or_default()
            .push_back(CacheEntry { key, chunk });
        inner.order.push_back(fp);
        true
    }
}

/// One unit of pool work: optimize a single bucket member of one
/// request's frame.
struct Task {
    req: Arc<RequestState>,
    bucket_index: u32,
    member: usize,
    /// The member as received, decoded.
    input: BucketMember,
    /// When the optimized cache is enabled and the member is graph-only,
    /// its key — the worker publishes its result there for later
    /// requests.
    cache_key: Option<Bytes>,
}

/// A frame being reassembled from its optimized members.
struct PartialBucket {
    num_buckets: u32,
    remaining: usize,
    slots: Vec<Option<OptimizedMember>>,
}

impl PartialBucket {
    /// Seals the frame from its filled slots; `Err` names the first
    /// empty one.
    fn seal(self, request_id: u64, bucket_index: u32) -> Result<CompletedFrame, usize> {
        let members = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.ok_or(i))
            .collect::<Result<Vec<_>, usize>>()?;
        Ok(CompletedFrame {
            num_buckets: self.num_buckets,
            wire: seal_optimized(request_id, bucket_index, self.num_buckets, &members),
        })
    }
}

/// One optimized frame as its lane completes it: sealed v3 wire bytes,
/// tagged with the lane's request id and sent as they are, next to the
/// bucket count their header carries.
#[derive(Debug, Clone)]
pub struct CompletedFrame {
    /// How many buckets the answered model has.
    pub num_buckets: u32,
    /// The sealed frame.
    pub wire: Bytes,
}

/// Request-side state: window accounting, partial reassembly, completed
/// frames.
struct RequestInner {
    /// Frames submitted but not yet fully optimized.
    inflight: usize,
    /// Bucket indices ever submitted on this handle (duplicate defense).
    seen: HashSet<u32>,
    /// Frames with members still being optimized.
    partial: HashMap<u32, PartialBucket>,
    /// Fully optimized frames, in completion order.
    done: VecDeque<CompletedFrame>,
    /// Set when the runtime shuts down — receivers stop blocking.
    closed: bool,
    /// Set (once, first failure wins) when the lane fails: a worker
    /// crashed on one of this request's tasks or the lane's own lock was
    /// poisoned. Submit/recv surface it as a typed error after any
    /// already-completed frames drain.
    failed: Option<ProteusError>,
}

impl RequestInner {
    /// Fails the lane with `err` (first failure wins) and abandons its
    /// in-flight reassembly — a frame must never surface with missing
    /// members. The caller wakes the lane once the lock is released.
    fn fail(&mut self, err: ProteusError) {
        self.failed.get_or_insert(err);
        self.partial.clear();
        self.inflight = 0;
    }
}

struct RequestState {
    request_id: u64,
    window: usize,
    inner: Mutex<RequestInner>,
    cv: Condvar,
    /// Set when every [`RequestHandle`] clone for this lane is dropped:
    /// pending pool tasks detach (skip the optimizer, drop their result)
    /// instead of filling reassembly state nobody will read.
    cancelled: AtomicBool,
    /// Called on every [`RequestState::wake`], after the condvar
    /// ([`ServeRuntime::handle_waking`]).
    waker: Box<dyn Fn() + Send + Sync>,
}

impl RequestState {
    /// Tells whoever waits on this lane that it changed: a frame
    /// completed, the lane failed, or it was closed or cancelled.
    fn wake(&self) {
        self.cv.notify_all();
        (self.waker)();
    }

    /// Blocks on the lane's condvar until the lane changes, or, with a
    /// `deadline`, until it passes: the one wait behind both a full
    /// submit window and an empty receive queue. The caller re-checks its
    /// condition on return.
    ///
    /// # Errors
    /// [`ProteusError::Deadline`] once `deadline` has passed, with the
    /// time elapsed since `started`.
    fn wait<'a>(
        &self,
        lane: MutexGuard<'a, RequestInner>,
        deadline: Option<Instant>,
        started: Instant,
    ) -> Result<MutexGuard<'a, RequestInner>, ProteusError> {
        let Some(deadline) = deadline else {
            return Ok(self.cv.wait(lane).unwrap_or_else(PoisonError::into_inner));
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(ProteusError::Deadline {
                request_id: self.request_id,
                elapsed_ms: started.elapsed().as_millis() as u64,
            });
        }
        Ok(self
            .cv
            .wait_timeout(lane, deadline - now)
            .unwrap_or_else(PoisonError::into_inner)
            .0)
    }

    /// The typed failure for a frame that reached completion with member
    /// `member` never filled: the frame is withheld, never sent
    /// half-built.
    fn missing_member(&self, bucket_index: u32, member: usize) -> ProteusError {
        ProteusError::WorkerCrashed {
            request_id: self.request_id,
            detail: format!(
                "bucket {bucket_index} member {member} missing at completion; frame withheld"
            ),
        }
    }

    /// Locks the lane, healing a poisoned lock into a typed failure.
    ///
    /// A poisoned lane lock means bookkeeping died mid-update, so the
    /// reassembly state (`partial`, `inflight`) may be inconsistent —
    /// the heal abandons it and marks the lane failed (first failure
    /// wins), which is exactly the contract a crashed worker gets. Frames
    /// already in `done` are complete and stay deliverable.
    fn lane(&self) -> MutexGuard<'_, RequestInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.fail(ProteusError::WorkerCrashed {
                    request_id: self.request_id,
                    detail: "lane bookkeeping interrupted by a panic (lock poisoned); \
                             in-flight frames abandoned"
                        .into(),
                });
                self.inner.clear_poison();
                self.wake();
                guard
            }
        }
    }
}

/// Drop hook shared by every clone of a [`RequestHandle`]: when the last
/// clone goes away, mark the lane cancelled so queued tasks detach and
/// abandoned reassembly state is freed — a dropped handle must never
/// strand worker results or block runtime shutdown.
struct CancelGuard {
    state: Arc<RequestState>,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        self.state.cancelled.store(true, Ordering::SeqCst);
        let mut lane = self.state.lane();
        lane.partial.clear();
        lane.inflight = 0;
        drop(lane);
        self.state.wake();
    }
}

/// Counters of a running [`ServeRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Member-optimization tasks executed since construction. Cache hits
    /// never become tasks, so this counts optimizer invocations.
    pub tasks_executed: usize,
    /// High-water mark of tasks queued and not yet claimed by a worker.
    pub max_queue_depth: usize,
    /// Bucket members served straight from the [`OptimizedCache`].
    /// Counted when their frame is admitted: a refused frame (malformed,
    /// duplicate, timed out) counts neither hits nor misses.
    pub cache_hits: usize,
    /// Members that missed the cache and went to the worker pool.
    pub cache_misses: usize,
    /// Entries currently resident in the [`OptimizedCache`].
    pub cache_entries: usize,
    /// Tasks whose execution panicked; each failed its request's lane
    /// with [`ProteusError::WorkerCrashed`] and was contained there.
    pub tasks_crashed: usize,
    /// Tasks dropped without running because their request's handle was
    /// dropped (or lane already failed) — cancelled work, not lost work.
    pub tasks_detached: usize,
    /// Times a poisoned [`OptimizedCache`] lock self-healed.
    pub cache_poison_heals: usize,
}

/// The pool's scheduling state, all under one lock: the queued tasks,
/// oldest first, and whether the runtime has shut down.
#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<Task>,
    /// Set by [`ServeRuntime::shutdown`]: no task is queued after it,
    /// and workers exit once `tasks` is empty.
    closed: bool,
}

struct PoolShared {
    optimizer: Box<dyn MemberOptimizer>,
    cache: OptimizedCache,
    queue: Mutex<RunQueue>,
    /// Signalled when `queue` gains tasks or closes.
    ready: Condvar,
    tasks_executed: AtomicUsize,
    max_queue_depth: AtomicUsize,
    tasks_crashed: AtomicUsize,
    tasks_detached: AtomicUsize,
    /// Every handle ever created, so shutdown can wake blocked clients.
    requests: Mutex<Vec<Weak<RequestState>>>,
}

impl PoolShared {
    /// Queues one frame's tasks in one lock hold and wakes the workers.
    /// Returns `false`, queuing nothing, once the runtime is closed: its
    /// workers may already have exited, so nothing would run them.
    fn push_tasks(&self, tasks: impl IntoIterator<Item = Task>) -> bool {
        let mut queue = relock(&self.queue);
        if queue.closed {
            return false;
        }
        queue.tasks.extend(tasks);
        self.max_queue_depth
            .fetch_max(queue.tasks.len(), Ordering::Relaxed);
        drop(queue);
        self.ready.notify_all();
        true
    }

    /// Whether [`ServeRuntime::shutdown`] has closed the run queue.
    fn is_closed(&self) -> bool {
        relock(&self.queue).closed
    }

    /// Fails a request's lane with `err` ([`RequestInner::fail`]) and
    /// wakes it.
    fn fail_request(&self, req: &RequestState, err: ProteusError) {
        req.lane().fail(err);
        req.wake();
    }

    /// Runs one pool task with crash containment.
    fn run_task(&self, task: Task) {
        if task.req.cancelled.load(Ordering::SeqCst) || {
            // skip-before-running: the lane already failed, so this
            // task's output would be dropped anyway
            task.req.lane().failed.is_some()
        } {
            self.tasks_detached.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let req = Arc::clone(&task.req);
        // the whole task — optimizer and completion bookkeeping — runs
        // under catch_unwind, so any panic fails only this request's
        // lane, not the pool. The closure only touches task-local data
        // and lane locks that heal poison, so continuing after the
        // unwind is sound (AssertUnwindSafe).
        let crashed = catch_unwind(AssertUnwindSafe(|| self.execute_task(task))).err();
        if let Some(payload) = crashed {
            self.tasks_crashed.fetch_add(1, Ordering::Relaxed);
            self.fail_request(
                &req,
                ProteusError::WorkerCrashed {
                    request_id: req.request_id,
                    detail: panic_message(payload),
                },
            );
        }
    }

    /// The fallible body of one task: optimize the member, publish a
    /// cacheable result, and land it in the request's reassembly state.
    /// Runs inside `run_task`'s catch_unwind.
    fn execute_task(&self, task: Task) {
        let (graph, params) = self
            .optimizer
            .optimize(&task.input.graph, &task.input.params);
        let member = BucketMember { graph, params };
        // a cacheable member is encoded once: that chunk is both the
        // cache entry and the frame's bytes for it. A weighted one stays
        // decoded until its frame is sealed, saving a copy of its weights
        let out = match task.cache_key {
            Some(key) => {
                let chunk = encode_chunk(&member);
                self.cache.insert_chunk(key, || chunk.clone());
                OptimizedMember::Chunk(chunk)
            }
            None => OptimizedMember::Decoded(member),
        };
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        let (req, bucket_index) = (&task.req, task.bucket_index);
        let finished = {
            let mut lane = req.lane();
            if lane.failed.is_some() || req.cancelled.load(Ordering::SeqCst) {
                // the lane failed or was cancelled while we optimized: the
                // reassembly state is gone, drop the result on the floor
                return;
            }
            let Entry::Occupied(mut entry) = lane.partial.entry(bucket_index) else {
                // same race, observed through the cleared map instead of the
                // flags — a detached task, not an invariant violation
                self.tasks_detached.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let partial = entry.get_mut();
            if let Some(slot) = partial.slots.get_mut(task.member) {
                *slot = Some(out);
            }
            partial.remaining = partial.remaining.saturating_sub(1);
            if partial.remaining > 0 {
                return;
            }
            entry.remove()
        };
        // seal outside the lane lock: a frame of weighted members encodes
        // megabytes. The frame still counts as in flight, so a receiver
        // waits for it rather than finding nothing pending
        match finished.seal(req.request_id, bucket_index) {
            Ok(frame) => {
                let mut lane = req.lane();
                // the lane may have failed or been cancelled while this
                // frame was sealed; a receiver may already have seen that
                // error, so the frame is dropped, never delivered after it
                if lane.failed.is_none() && !req.cancelled.load(Ordering::SeqCst) {
                    lane.done.push_back(frame);
                }
                lane.inflight = lane.inflight.saturating_sub(1);
                // wake after unlocking: a woken consumer takes this lock first
                drop(lane);
                req.wake();
            }
            // remaining hit zero, so every slot was filled by a cache hit
            // or a landed task; an empty slot is accounting corruption
            // and fails the lane instead of emitting the frame half-built
            Err(member) => self.fail_request(req, req.missing_member(bucket_index, member)),
        }
    }

    /// A worker thread's body. A panic that ever escapes per-task
    /// containment restarts the loop in place; the loop returns only at
    /// shutdown.
    fn run_worker(&self) {
        let work = || {
            while let Some(task) = self.next_task() {
                self.run_task(task);
            }
        };
        while catch_unwind(AssertUnwindSafe(work)).is_err() {}
    }

    /// Takes the oldest queued task, sleeping while the queue is empty;
    /// `None` once the runtime is closed and every task has been taken.
    fn next_task(&self) -> Option<Task> {
        self.ready
            .wait_while(relock(&self.queue), |q| q.tasks.is_empty() && !q.closed)
            .unwrap_or_else(PoisonError::into_inner)
            .tasks
            .pop_front()
    }
}

/// The optimizer party as a long-lived service: a fixed worker pool that
/// interleaves sealed-bucket frames from many concurrent requests.
///
/// Construct once (per process, per optimizer profile), then open one
/// [`RequestHandle`] per obfuscation request with [`ServeRuntime::handle`]
/// — or drive a whole owner-side request through
/// [`ServeRuntime::serve_request`]. [`ServeRuntime::shutdown`] (or
/// dropping the runtime) drains every queued task, stops the workers, and
/// unblocks any waiting client with a typed error.
///
/// See the [module docs](crate::serve) for the scheduling and
/// backpressure model, and the README's "Serving architecture" section
/// for the deployment picture.
#[derive(Debug)]
pub struct ServeRuntime {
    shared: Arc<PoolShared>,
    config: ServeConfig,
    /// Worker threads, joined by [`ServeRuntime::shutdown`].
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("queued", &relock(&self.queue).tasks.len())
            .finish_non_exhaustive()
    }
}

impl ServeRuntime {
    /// Starts the worker pool.
    ///
    /// # Errors
    /// [`ProteusError::Config`] when `config` is degenerate
    /// ([`ServeConfig::validate`]); [`ProteusError::ReplicaUnavailable`]
    /// when the OS refuses to spawn the pool's threads.
    pub fn new(
        optimizer: impl MemberOptimizer + 'static,
        config: ServeConfig,
    ) -> Result<ServeRuntime, ProteusError> {
        config.validate()?;
        let workers = config.num_workers();
        let runtime = ServeRuntime {
            shared: Arc::new(PoolShared {
                optimizer: Box::new(optimizer),
                cache: OptimizedCache::new(config.cache_capacity),
                queue: Mutex::new(RunQueue::default()),
                ready: Condvar::new(),
                tasks_executed: AtomicUsize::new(0),
                max_queue_depth: AtomicUsize::new(0),
                tasks_crashed: AtomicUsize::new(0),
                tasks_detached: AtomicUsize::new(0),
                requests: Mutex::new(Vec::new()),
            }),
            config,
            workers: Mutex::new(Vec::with_capacity(workers)),
        };
        for w in 0..workers {
            let pool = Arc::clone(&runtime.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("proteus-serve-{w}"))
                .spawn(move || pool.run_worker())
                .map_err(|e| ProteusError::ReplicaUnavailable {
                    detail: format!("failed to spawn serve worker {w}: {e}"),
                })?; // dropping `runtime` joins the workers already spawned
            relock(&runtime.workers).push(spawned);
        }
        Ok(runtime)
    }

    /// The configuration the pool was started with.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Current pool counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            workers: self.config.num_workers(),
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
            cache_hits: self.shared.cache.hits(),
            cache_misses: self.shared.cache.misses(),
            cache_entries: self.shared.cache.len(),
            tasks_crashed: self.shared.tasks_crashed.load(Ordering::Relaxed),
            tasks_detached: self.shared.tasks_detached.load(Ordering::Relaxed),
            cache_poison_heals: self.shared.cache.poison_heals(),
        }
    }

    /// Whether the runtime can still accept work (not shut down).
    pub fn is_healthy(&self) -> bool {
        !self.shared.is_closed()
    }

    /// Stops the runtime: closes the run queue (a submit that reaches it
    /// afterwards fails its lane, typed), lets the workers drain every
    /// queued task and exit, and unblocks any client still waiting on a
    /// handle with a typed error. Handles opened afterwards are born
    /// closed. Idempotent; dropping the runtime calls it.
    pub fn shutdown(&self) {
        relock(&self.shared.queue).closed = true;
        self.shared.ready.notify_all();
        let workers = std::mem::take(&mut *relock(&self.workers));
        for worker in workers {
            let _ = worker.join();
        }
        // workers have drained every queued task; unblock any client
        // still waiting on a handle
        let mut requests = relock(&self.shared.requests);
        for weak in requests.drain(..) {
            if let Some(req) = weak.upgrade() {
                req.lane().closed = true;
                req.wake();
            }
        }
    }

    /// Opens a handle for one request's frame stream. Handles are cheap;
    /// every concurrent request gets its own, all sharing this pool.
    pub fn handle(&self, request_id: u64) -> RequestHandle {
        self.handle_waking(request_id, || {})
    }

    /// [`ServeRuntime::handle`] whose lane also calls `wake` each time it
    /// changes (a frame completed, or it failed, closed or was cancelled),
    /// so a consumer of many lanes can sleep until one has news. `wake`
    /// runs on the changing thread, so it must be quick and must not call
    /// into the handle.
    pub fn handle_waking(
        &self,
        request_id: u64,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> RequestHandle {
        // a handle opened on a shut-down runtime is born closed so its
        // first recv reports the typed condition immediately
        let state = Arc::new(RequestState {
            request_id,
            window: self.config.window,
            inner: Mutex::new(RequestInner {
                inflight: 0,
                seen: HashSet::new(),
                partial: HashMap::new(),
                done: VecDeque::new(),
                closed: self.shared.is_closed(),
                failed: None,
            }),
            cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
            waker: Box::new(wake),
        });
        let mut requests = relock(&self.shared.requests);
        // prune dead entries on every registration so a long-lived
        // runtime's registry stays proportional to *live* requests, not
        // to every request ever served
        requests.retain(|w| w.strong_count() > 0);
        requests.push(Arc::downgrade(&state));
        drop(requests);
        RequestHandle {
            pool: Arc::clone(&self.shared),
            _cancel: Arc::new(CancelGuard {
                state: Arc::clone(&state),
            }),
            state,
        }
    }

    /// Re-runs one interrupted serving lane from its journaled input
    /// frames (raw v3 wire bytes, as a durable
    /// [`Store`](crate::store::Store) replays them) and returns the
    /// optimized response frames in completion order. Request-id-keyed
    /// determinism makes the replayed responses byte-identical to what
    /// the killed daemon would have produced.
    ///
    /// # Errors
    /// Everything [`RequestHandle::submit`] / [`RequestHandle::recv`]
    /// reject: decode failures, request-id mismatches, duplicates, and
    /// lane failures.
    pub fn resume_lane(
        &self,
        request_id: u64,
        frames: &[Bytes],
    ) -> Result<Vec<Bytes>, ProteusError> {
        let handle = self.handle(request_id);
        // submit-all-then-recv-all is deadlock-free: the window counts
        // frames awaiting optimization, not awaiting recv, so completed
        // frames accumulate in the done queue while we keep submitting
        for frame in frames {
            handle.submit(frame.clone())?;
        }
        let mut out = Vec::with_capacity(frames.len());
        for _ in frames {
            out.push(handle.recv()?.wire);
        }
        Ok(out)
    }

    /// Drives one owner-side request end to end through the shared pool:
    /// streams the obfuscation session's frames in (overlapping generation
    /// with optimization), collects optimized frames as they complete, and
    /// reassembles the optimized protected model.
    ///
    /// The result is bit-identical to driving the session by hand with
    /// [`SealedBucket::optimize`](crate::SealedBucket::optimize) per frame under the same `request_id` —
    /// the concurrency stress suite asserts exactly that. This is the
    /// in-process round trip for callers that play both parties.
    ///
    /// # Errors
    /// Everything [`Proteus::obfuscate_session`], [`RequestHandle`], and
    /// [`DeobfuscationSession`] can reject.
    pub fn serve_request(
        &self,
        proteus: &Proteus,
        graph: &Graph,
        params: &TensorMap,
        request_id: u64,
    ) -> Result<(Graph, TensorMap), ProteusError> {
        let mut session = proteus.obfuscate_session(graph, params, request_id)?;
        let handle = self.handle(request_id);
        let mut completed: Vec<Bytes> = Vec::with_capacity(session.num_buckets());
        while let Some(frame) = session.next_frame() {
            handle.submit(frame.to_mux_bytes(request_id))?;
            // opportunistically drain finished frames while generating
            while let Some(done) = handle.try_recv() {
                completed.push(done.wire);
            }
        }
        let secrets = session.finish()?;
        // reassembly decodes only each frame's real member
        let mut reassembly = DeobfuscationSession::new(&secrets);
        for wire in completed {
            reassembly.accept_mux_bytes(wire)?;
        }
        while !reassembly.is_complete() {
            reassembly.accept_mux_bytes(handle.recv()?.wire)?;
        }
        reassembly.finish()
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One request's lane into a [`ServeRuntime`]: submit sealed frames
/// (blocking once the backpressure window fills), receive optimized
/// frames in completion order.
///
/// Cloning is cheap and clones refer to the same lane, so a producer
/// thread can submit while a consumer thread receives. When the **last**
/// clone is dropped the lane is cancelled: tasks still queued for it
/// detach (workers skip them), its reassembly state is freed, and
/// runtime shutdown never waits on the abandoned request.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    pool: Arc<PoolShared>,
    state: Arc<RequestState>,
    /// Shared drop hook: fires when the last clone goes away. Held only
    /// for its Drop side effect.
    _cancel: Arc<CancelGuard>,
}

impl std::fmt::Debug for CancelGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelGuard")
            .field("request_id", &self.state.request_id)
            .finish()
    }
}

impl std::fmt::Debug for RequestState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestState")
            .field("request_id", &self.request_id)
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl RequestHandle {
    /// The request this handle serves.
    pub fn request_id(&self) -> u64 {
        self.state.request_id
    }

    /// Frames submitted and not yet fully optimized.
    pub fn in_flight(&self) -> usize {
        self.state.lane().inflight
    }

    /// Submits one multiplexed v3 wire frame to the shared pool,
    /// splitting it into per-member tasks. Blocks while the request
    /// already has [`ServeConfig::window`] frames in flight — the
    /// backpressure that keeps one tenant from flooding the pool. A frame
    /// whose request id does not match this handle is rejected, so a
    /// frame injected from another request's stream never reaches this
    /// request's pipeline.
    ///
    /// The frame's checksum and every member length are checked, but a
    /// member is decoded only when it misses the [`OptimizedCache`]: a
    /// graph-only member is keyed on the bytes it arrived as, and a hit
    /// is answered with the cached bytes.
    ///
    /// # Errors
    /// [`ProteusError::Wire`] when the frame fails to decode or its bucket
    /// index is out of range; [`ProteusError::Protocol`] on a request-id
    /// mismatch or when the runtime has shut down;
    /// [`ProteusError::DuplicateFrame`] when this bucket index was already
    /// submitted on this handle; [`ProteusError::WorkerCrashed`] when the
    /// lane already failed.
    pub fn submit(&self, wire: Bytes) -> Result<(), ProteusError> {
        self.submit_inner(wire, None)
    }

    /// [`RequestHandle::submit`] with a wall-clock deadline on the
    /// backpressure wait: when the window is still full at `deadline`
    /// (e.g. every worker is stalled), returns [`ProteusError::Deadline`]
    /// instead of blocking forever.
    ///
    /// # Errors
    /// [`ProteusError::Deadline`] on timeout, plus everything
    /// [`RequestHandle::submit`] rejects.
    pub fn submit_deadline(&self, wire: Bytes, deadline: Instant) -> Result<(), ProteusError> {
        self.submit_inner(wire, Some(deadline))
    }

    fn submit_inner(&self, wire: Bytes, deadline: Option<Instant>) -> Result<(), ProteusError> {
        let RawSealed {
            request_id,
            bucket_index,
            num_buckets,
            members,
        } = RawSealed::open(wire)?;
        if request_id != self.state.request_id {
            return Err(ProteusError::protocol(format!(
                "frame for request {request_id:#x} injected into the stream of request {:#x}",
                self.state.request_id
            )));
        }
        {
            let lane = self.state.lane();
            if let Some(err) = &lane.failed {
                return Err(err.clone());
            }
            if lane.seen.contains(&bucket_index) {
                return Err(ProteusError::DuplicateFrame {
                    bucket_index,
                    request_id,
                });
            }
        }
        // classify members against the shared optimized-member cache
        // *outside* the request lock: a graph-only member is keyed on its
        // received bytes, and a hit fills its slot with the cached chunk.
        // Only misses are decoded; they become pool tasks carrying their
        // key so the worker can publish its result for later requests.
        // Weighted members get no key: sentinel weights are drawn per
        // (request, bucket, member), so their key never repeats, and
        // keying, looking up and caching megabytes of weights would only
        // cost. Lookups are counted once the frame is admitted, so a
        // refused frame leaves the cache counters as they were
        let profile = self.pool.optimizer.profile();
        let cache = &self.pool.cache;
        let mut slots: Vec<Option<OptimizedMember>> = Vec::with_capacity(members.len());
        let mut misses: Vec<(usize, BucketMember, Option<Bytes>)> = Vec::new();
        for (member, raw) in members.into_iter().enumerate() {
            let key = (cache.is_enabled() && raw.is_graph_only())
                .then(|| OptimizedCache::key_of(profile, &raw));
            if let Some(chunk) = key.as_deref().and_then(|k| cache.find(k)) {
                slots.push(Some(OptimizedMember::Chunk(chunk)));
            } else {
                slots.push(None);
                misses.push((member, raw.decode()?, key));
            }
        }
        let looked_up = (
            slots.len() - misses.len(),
            misses.iter().filter(|(_, _, key)| key.is_some()).count(),
        );
        let partial = PartialBucket {
            num_buckets,
            remaining: misses.len(),
            slots,
        };
        {
            let mut inner = self.state.lane();
            let started = Instant::now();
            while inner.inflight >= self.state.window && !inner.closed && inner.failed.is_none() {
                inner = self.state.wait(inner, deadline, started)?;
            }
            if let Some(err) = &inner.failed {
                return Err(err.clone());
            }
            if inner.closed {
                return Err(self.shut_down_error(bucket_index));
            }
            // re-check: a concurrent producer on a cloned handle may have
            // submitted the same bucket while we classified or waited
            if !inner.seen.insert(bucket_index) {
                return Err(ProteusError::DuplicateFrame {
                    bucket_index,
                    request_id,
                });
            }
            cache.count(looked_up.0, looked_up.1);
            if misses.is_empty() {
                // every member cached (or the frame was empty): nothing to
                // optimize, so the frame is sealed from its chunks now and
                // recv() sees it without a trip through the pool
                match partial.seal(request_id, bucket_index) {
                    Ok(frame) => inner.done.push_back(frame),
                    Err(member) => {
                        let err = self.state.missing_member(bucket_index, member);
                        inner.fail(err.clone());
                        drop(inner);
                        self.state.wake();
                        return Err(err);
                    }
                }
                drop(inner);
                self.state.wake();
                return Ok(());
            }
            inner.inflight += 1;
            inner.partial.insert(bucket_index, partial);
        }
        let tasks = misses.into_iter().map(|(member, input, cache_key)| Task {
            req: Arc::clone(&self.state),
            bucket_index,
            member,
            input,
            cache_key,
        });
        if !self.pool.push_tasks(tasks) {
            // the runtime shut down after this lane's `closed` check (or
            // before the handle was registered): nothing will run the
            // frame, so fail the lane rather than strand it in flight
            let err = self.shut_down_error(bucket_index);
            self.pool.fail_request(&self.state, err.clone());
            return Err(err);
        }
        Ok(())
    }

    fn shut_down_error(&self, bucket_index: u32) -> ProteusError {
        ProteusError::protocol(format!(
            "request {:#x}: serve runtime shut down while submitting bucket {bucket_index}",
            self.state.request_id
        ))
    }

    /// Returns the next fully optimized frame, blocking until one
    /// completes: the sealed v3 wire frame, tagged with this request's id
    /// and ready to share a response byte stream with other requests.
    /// Frames surface in completion order, not bucket order.
    ///
    /// Already-completed frames drain before a failure surfaces: a lane
    /// that crashed after finishing three of five buckets still delivers
    /// those three (complete, byte-exact) frames, then the typed error.
    ///
    /// # Errors
    /// [`ProteusError::WorkerCrashed`] when the lane failed;
    /// [`ProteusError::Protocol`] when nothing is in flight (the frame
    /// being waited for was never submitted — blocking would deadlock) or
    /// when the runtime shut down with this request's queue empty.
    pub fn recv(&self) -> Result<CompletedFrame, ProteusError> {
        self.recv_inner(None)
    }

    /// [`RequestHandle::recv`] with a wall-clock deadline: returns
    /// [`ProteusError::Deadline`] when no frame has completed by
    /// `deadline` — a per-request latency budget.
    ///
    /// # Errors
    /// [`ProteusError::Deadline`] on timeout, plus everything
    /// [`RequestHandle::recv`] rejects.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<CompletedFrame, ProteusError> {
        self.recv_inner(Some(deadline))
    }

    fn recv_inner(&self, deadline: Option<Instant>) -> Result<CompletedFrame, ProteusError> {
        let started = Instant::now();
        let mut inner = self.state.lane();
        loop {
            if let Some(frame) = inner.done.pop_front() {
                return Ok(frame);
            }
            if let Some(err) = &inner.failed {
                return Err(err.clone());
            }
            if inner.closed {
                return Err(ProteusError::protocol(format!(
                    "request {:#x}: serve runtime shut down with no completed frames pending",
                    self.state.request_id
                )));
            }
            if inner.inflight == 0 {
                return Err(ProteusError::protocol(format!(
                    "request {:#x}: recv with no frames in flight",
                    self.state.request_id
                )));
            }
            inner = self.state.wait(inner, deadline, started)?;
        }
    }

    /// Returns the next fully optimized frame if one is ready, as
    /// [`RequestHandle::recv`] would.
    pub fn try_recv(&self) -> Option<CompletedFrame> {
        self.state.lane().done.pop_front()
    }

    /// The lane's failure, if it failed — without consuming completed
    /// frames the way [`RequestHandle::recv`] would.
    pub fn failure(&self) -> Option<ProteusError> {
        self.state.lane().failed.clone()
    }
}

#[cfg(test)]
mod tests {
    // tests assert on Results aggressively; the unwrap/expect discipline
    // applies to the production request path, not to test scaffolding
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::bucket::{Bucket, SealedBucket};
    use crate::config::{PartitionSpec, ProteusConfig};
    use proteus_graph::wire::encode_graph;
    use proteus_graphgen::GraphRnnConfig;
    use proteus_models::{build, ModelKind};
    use proteus_opt::Profile;

    fn quick_proteus() -> Proteus {
        Proteus::train(
            ProteusConfig {
                k: 2,
                partitions: PartitionSpec::Count(3),
                graphrnn: GraphRnnConfig {
                    epochs: 2,
                    max_nodes: 20,
                    ..Default::default()
                },
                topology_pool: 30,
                ..Default::default()
            },
            &[build(ModelKind::ResNet)],
        )
        .expect("train")
    }

    fn runtime(workers: usize, window: usize) -> ServeRuntime {
        ServeRuntime::new(
            Optimizer::new(Profile::OrtLike),
            ServeConfig {
                workers,
                window,
                ..Default::default()
            },
        )
        .expect("runtime starts")
    }

    /// The bucket index a completed frame answers.
    fn bucket_of(frame: CompletedFrame) -> u32 {
        let (_, sealed) = SealedBucket::from_mux_bytes(frame.wire).expect("sealed frames decode");
        sealed.bucket_index
    }

    fn runtime_uncached(workers: usize, window: usize) -> ServeRuntime {
        ServeRuntime::new(
            Optimizer::new(Profile::OrtLike),
            ServeConfig {
                workers,
                window,
                cache_capacity: 0,
            },
        )
        .expect("runtime starts")
    }

    /// A store written before wire v3 journaled its lane and session
    /// frames as v2 (FNV-1a). After the upgrade, a pending lane replayed
    /// from it and an open session resumed from it fail closed, typed.
    #[test]
    fn journaled_v2_frames_fail_closed_typed_on_resume() {
        use proteus_graph::wire::{decode_frame, Checksum, Envelope, FRAME};
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let mut session = proteus
            .obfuscate_session(&g, &TensorMap::new(), 17)
            .expect("session");
        let frame = decode_frame(&mut session.next_frame().expect("frame").to_mux_bytes(17))
            .expect("v3 frame");
        let secrets = {
            session.by_ref().for_each(drop);
            session.finish().expect("secrets")
        };
        let v2_row = Envelope {
            version: Some(2),
            checksum: Checksum::Fnv1a,
            ..FRAME
        };
        let fields = |f: &mut BytesMut| {
            f.put_u64_le(frame.request_id);
            f.put_u32_le(frame.bucket_index);
        };
        let v2 = v2_row
            .seal(2, fields, &frame.payload)
            .expect("the row lists v2");
        let retired = proteus_graph::WireError::UnknownVersion {
            got: 2,
            supported: 3,
        };
        let err = runtime(1, 2)
            .resume_lane(17, std::slice::from_ref(&v2))
            .unwrap_err();
        assert_eq!(err, ProteusError::Wire(retired.clone()));
        let err = DeobfuscationSession::resume(&secrets, &[v2]).err();
        assert_eq!(err, Some(ProteusError::Wire(retired)));
    }

    /// A pass-through optimizer that counts its calls, each of which
    /// waits while the test holds the gate's write lock.
    struct GatedOptimizer(Arc<(std::sync::RwLock<()>, AtomicUsize)>);

    impl MemberOptimizer for GatedOptimizer {
        fn profile(&self) -> Profile {
            Profile::OrtLike
        }

        fn optimize(&self, graph: &Graph, params: &TensorMap) -> (Graph, TensorMap) {
            self.0 .1.fetch_add(1, Ordering::SeqCst);
            drop(self.0 .0.read());
            (graph.clone(), params.clone())
        }
    }

    #[test]
    fn shutdown_drains_the_run_queue_and_refuses_later_tasks() {
        let gate = Arc::new((std::sync::RwLock::new(()), AtomicUsize::new(0)));
        let closed = gate.0.write().unwrap();
        let config = ServeConfig {
            workers: 1,
            window: 8,
            cache_capacity: 0,
        };
        let rt = ServeRuntime::new(GatedOptimizer(Arc::clone(&gate)), config).unwrap();
        let member = BucketMember {
            graph: build(ModelKind::AlexNet),
            params: TensorMap::new(),
        };
        let frame = |bucket_index: u32, members: usize| {
            SealedBucket {
                bucket_index,
                num_buckets: 4,
                bucket: Bucket {
                    members: vec![member.clone(); members],
                },
            }
            .to_mux_bytes(7)
        };
        let handle = rt.handle(7);
        handle.submit(frame(0, 3)).unwrap();
        // the one worker holds a task at the gate; every later task queues
        while gate.1.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        handle.submit(frame(1, 2)).unwrap();
        handle.submit(frame(2, 4)).unwrap();
        let (members, queued) = (3 + 2 + 4, 3 + 2 + 4 - 1);
        assert_eq!(relock(&rt.shared.queue).tasks.len(), queued);
        assert_eq!(rt.stats().max_queue_depth, queued);

        // shutdown closes the queue with every task still in it, then
        // waits for the worker to run them all
        std::thread::scope(|scope| {
            let stopping = scope.spawn(|| rt.shutdown());
            while rt.is_healthy() {
                std::thread::yield_now();
            }
            drop(closed);
            stopping.join().unwrap();
        });
        assert_eq!(rt.stats().tasks_executed, members);
        let mut delivered: Vec<u32> = (0..3).map(|_| bucket_of(handle.recv().unwrap())).collect();
        delivered.sort_unstable();
        assert_eq!(delivered, [0, 1, 2]);

        // a lane that missed the shutdown (registered after shutdown
        // closed the registered lanes) is refused by the queue, typed
        handle.state.lane().closed = false;
        let err = handle.submit(frame(3, 2)).unwrap_err();
        assert!(
            matches!(&err, ProteusError::Protocol { detail } if detail.contains("shut down")),
            "{err:?}"
        );
        assert_eq!(handle.in_flight(), 0);
        assert!(relock(&rt.shared.queue).tasks.is_empty());
        assert_eq!(rt.stats().tasks_executed, members);
    }

    #[test]
    fn served_request_matches_serial_session() {
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let optimizer = Optimizer::new(Profile::OrtLike);
        let rt = runtime(2, 2);
        let (served, served_params) = rt
            .serve_request(&proteus, &g, &TensorMap::new(), 5)
            .expect("serve");

        // serial reference: same session, frames optimized inline
        let mut session = proteus
            .obfuscate_session(&g, &TensorMap::new(), 5)
            .expect("session");
        let frames: Vec<SealedBucket> = session
            .by_ref()
            .map(|f| f.optimize(&optimizer, Some(1)))
            .collect();
        let secrets = session.finish().expect("secrets");
        let mut reassembly = DeobfuscationSession::new(&secrets);
        for f in frames {
            reassembly.accept(f).expect("accept");
        }
        let (serial, serial_params) = reassembly.finish().expect("finish");
        assert_eq!(served, serial, "pool output diverged from serial path");
        assert_eq!(served_params, serial_params);
        assert!(rt.stats().tasks_executed >= 9, "3 buckets x 3 members");
    }

    #[test]
    fn duplicate_submission_is_rejected_with_typed_variant() {
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let rt = runtime(1, 4);
        let mut session = proteus
            .obfuscate_session(&g, &TensorMap::new(), 9)
            .expect("session");
        let frame = session.next_frame().expect("frame").to_mux_bytes(9);
        let handle = rt.handle(9);
        handle.submit(frame.clone()).expect("first submit");
        let err = handle.submit(frame).unwrap_err();
        assert!(
            matches!(
                err,
                ProteusError::DuplicateFrame {
                    bucket_index: 0,
                    request_id: 9
                }
            ),
            "{err:?}"
        );
        // the original frame still completes
        let done = handle.recv().expect("completes");
        assert_eq!(bucket_of(done), 0);
    }

    #[test]
    fn recv_without_inflight_is_a_typed_error_not_a_deadlock() {
        let rt = runtime(1, 1);
        let handle = rt.handle(1);
        let err = handle.recv().unwrap_err();
        assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn cross_request_injection_is_rejected_at_submit() {
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let rt = runtime(1, 4);
        let mut session = proteus
            .obfuscate_session(&g, &TensorMap::new(), 21)
            .expect("session");
        let frame = session.next_frame().expect("frame");
        let handle = rt.handle(22); // a different request's lane
        let err = handle.submit(frame.to_mux_bytes(21)).unwrap_err();
        assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
        assert_eq!(handle.in_flight(), 0, "injected frame must not enqueue");
        // the matching lane accepts the same bytes
        let own = rt.handle(21);
        own.submit(frame.to_mux_bytes(21)).expect("submit");
        let done = own.recv().expect("optimized frame returns").wire;
        let (rid, _) = SealedBucket::from_mux_bytes(done).expect("decodes");
        assert_eq!(rid, 21);
    }

    #[test]
    fn shutdown_unblocks_waiting_receivers() {
        let rt = runtime(1, 1);
        let handle = rt.handle(2);
        drop(rt);
        let err = handle.recv().unwrap_err();
        assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
        let err = handle
            .submit(
                SealedBucket {
                    bucket_index: 0,
                    num_buckets: 1,
                    bucket: Bucket {
                        members: Vec::new(),
                    },
                }
                .to_mux_bytes(2),
            )
            .unwrap_err();
        assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn explicit_shutdown_is_idempotent_and_closes_later_handles() {
        let rt = runtime(2, 2);
        rt.shutdown();
        rt.shutdown();
        assert!(!rt.is_healthy());
        let err = rt.handle(3).recv().unwrap_err();
        assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn optimized_cache_replays_only_exact_keys() {
        let cache = OptimizedCache::new(2);
        let g1 = build(ModelKind::AlexNet);
        let g2 = build(ModelKind::MobileNet);
        let k1 = OptimizedCache::key_for(Profile::OrtLike, &g1, &TensorMap::new());
        let k2 = OptimizedCache::key_for(Profile::OrtLike, &g2, &TensorMap::new());
        // the profile participates in the key: same graph, different tag
        let k1_hidet = OptimizedCache::key_for(Profile::HidetLike, &g1, &TensorMap::new());
        assert_ne!(k1, k1_hidet);

        assert!(cache.lookup(&k1).is_none());
        assert!(cache.insert(k1.clone(), g1.clone(), TensorMap::new()));
        let hit = cache.lookup(&k1).expect("cached");
        assert_eq!(hit.graph, g1);
        assert!(cache.lookup(&k2).is_none(), "exact-key match only");
        // duplicate insert is a no-op, not a second resident copy
        assert!(!cache.insert(k1.clone(), g1.clone(), TensorMap::new()));
        assert_eq!(cache.len(), 1);

        // FIFO eviction: filling past capacity drops the oldest key
        assert!(cache.insert(k2.clone(), g2.clone(), TensorMap::new()));
        assert!(cache.insert(k1_hidet.clone(), g1.clone(), TensorMap::new()));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&k1).is_none(), "oldest entry evicted");
        assert!(cache.lookup(&k2).is_some());
        assert!(cache.lookup(&k1_hidet).is_some());

        // capacity 0 disables storage entirely
        let disabled = OptimizedCache::new(0);
        assert!(!disabled.is_enabled());
        assert!(!disabled.insert(k1.clone(), g1, TensorMap::new()));
        assert!(disabled.lookup(&k1).is_none());
        assert_eq!(disabled.len(), 0);
    }

    /// For every member the owner emits across the zoo, the key built from
    /// the member's wire slices is `key_for` of the decoded member, so a
    /// lane keying received bytes and a caller keying decoded members
    /// share cache entries.
    #[test]
    fn wire_slice_keys_match_key_for_across_the_zoo() {
        let proteus = quick_proteus();
        let mut members = 0;
        for (i, entry) in proteus_models::zoo::all().iter().enumerate() {
            let rid = 0x6B65_0000 + i as u64;
            let session = proteus
                .obfuscate_session(&(entry.build)(), &TensorMap::new(), rid)
                .expect("session");
            for frame in session {
                let raw = RawSealed::open(frame.to_mux_bytes(rid)).expect("opens");
                for member in raw.members {
                    assert!(member.is_graph_only(), "{}", entry.name);
                    let from_slices = OptimizedCache::key_of(Profile::OrtLike, &member);
                    let decoded = member.decode().expect("decodes");
                    let from_member =
                        OptimizedCache::key_for(Profile::OrtLike, &decoded.graph, &decoded.params);
                    assert_eq!(from_slices, from_member, "{}", entry.name);
                    members += 1;
                }
            }
        }
        assert!(
            members >= 3 * proteus_models::zoo::COUNT,
            "{members} members"
        );
    }

    #[test]
    fn cache_replays_identical_requests_without_new_tasks() {
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let rt = runtime(2, 2);
        let (first, first_params) = rt
            .serve_request(&proteus, &g, &TensorMap::new(), 5)
            .expect("first serve");
        let tasks_after_first = rt.stats().tasks_executed;
        assert!(tasks_after_first > 0);
        let (second, second_params) = rt
            .serve_request(&proteus, &g, &TensorMap::new(), 5)
            .expect("replay serve");
        let stats = rt.stats();
        assert_eq!(first, second, "cache hit diverged from pool output");
        assert_eq!(first_params, second_params);
        assert_eq!(
            stats.tasks_executed, tasks_after_first,
            "a replayed request must be served entirely from the cache"
        );
        assert!(stats.cache_hits > 0);
        assert_eq!(stats.cache_entries, tasks_after_first);
    }

    #[test]
    fn disabling_the_cache_preserves_output_bytes() {
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let cached = runtime(2, 2);
        let uncached = runtime_uncached(2, 2);
        let (a, pa) = cached
            .serve_request(&proteus, &g, &TensorMap::new(), 11)
            .expect("cached serve");
        let (b, pb) = uncached
            .serve_request(&proteus, &g, &TensorMap::new(), 11)
            .expect("uncached serve");
        assert_eq!(a, b, "cache toggled the served output");
        assert_eq!(pa, pb);
        let stats = uncached.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.cache_entries, 0);
    }

    #[test]
    fn sentinel_pool_warms_the_shared_inventory() {
        let proteus = Proteus::train(
            ProteusConfig {
                k: 2,
                partitions: PartitionSpec::Count(2),
                graphrnn: GraphRnnConfig {
                    epochs: 2,
                    max_nodes: 20,
                    ..Default::default()
                },
                topology_pool: 8,
                sentinel_variants: 2,
                ..Default::default()
            },
            &[build(ModelKind::ResNet)],
        )
        .expect("train");
        assert!(proteus.inventory().is_empty());
        let built = proteus.warm_inventory();
        assert!(built > 0);
        // every key is memoized (even failed builds), so sessions never
        // re-derive a key the sweep already visited
        let keys = proteus.factory().key_space();
        let swept = keys.len();
        assert_eq!(proteus.inventory().len(), swept);
        // warm entries are byte-identical to pure rebuilds
        for key in keys.into_iter().take(6) {
            let warm = proteus.inventory().lookup(&key).expect("memoized");
            let pure = proteus.factory().build_sentinel(key);
            match (warm, pure) {
                (Some(w), Some(p)) => assert_eq!(encode_graph(&w), encode_graph(&p)),
                (None, None) => {}
                (w, p) => panic!("warm {w:?} vs pure {p:?} diverged for {key:?}"),
            }
        }
        // the sweep is idempotent: a second pass builds nothing new
        assert_eq!(proteus.warm_inventory(), built);
        assert_eq!(proteus.inventory().len(), swept);
    }

    #[test]
    fn poisoned_cache_lock_heals_and_keeps_bytes_identical() {
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let rt = runtime(2, 4);
        let (first, first_params) = rt
            .serve_request(&proteus, &g, &TensorMap::new(), 91)
            .expect("first serve");
        let entries = rt.stats().cache_entries;
        assert!(entries > 0, "first serve fills the cache");
        // poison the cache lock exactly as a thread panicking mid-insert
        // would leave it
        let cache = &rt.shared.cache;
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.inner.lock();
                panic!("cache lock poisoned while held");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.inner.is_poisoned());
        let (poisoned_run, pp) = rt
            .serve_request(&proteus, &g, &TensorMap::new(), 91)
            .expect("request survives the poisoned cache");
        let stats = rt.stats();
        assert!(stats.cache_poison_heals >= 1, "heal path exercised");
        // the heal dropped every entry; the pool recomputed and
        // republished them
        assert_eq!(stats.cache_entries, entries);
        // bytes are unaffected: compare with the unpoisoned run and with
        // a clean cached runtime
        assert_eq!(poisoned_run, first, "poison heal changed bytes");
        assert_eq!(pp, first_params);
        let clean = runtime(2, 4);
        let (clean_run, cp) = clean
            .serve_request(&proteus, &g, &TensorMap::new(), 91)
            .expect("clean serve");
        assert_eq!(poisoned_run, clean_run, "poison heal changed bytes");
        assert_eq!(pp, cp);
        // the healed cache still works: a replay now hits
        let tasks_before = rt.stats().tasks_executed;
        let _ = rt
            .serve_request(&proteus, &g, &TensorMap::new(), 91)
            .expect("replay");
        assert_eq!(
            rt.stats().tasks_executed,
            tasks_before,
            "replay served from the healed cache"
        );
    }

    #[test]
    fn backpressure_window_bounds_inflight_frames() {
        let proteus = quick_proteus();
        let g = build(ModelKind::AlexNet);
        let rt = runtime(1, 1);
        let mut session = proteus
            .obfuscate_session(&g, &TensorMap::new(), 3)
            .expect("session");
        let handle = rt.handle(3);
        let mut submitted = 0;
        while let Some(frame) = session.next_frame() {
            // window = 1: submit blocks until the previous frame finished,
            // so in_flight can never exceed 1
            handle.submit(frame.to_mux_bytes(3)).expect("submit");
            submitted += 1;
            assert!(handle.in_flight() <= 1, "window violated");
        }
        for _ in 0..submitted {
            handle.recv().expect("frame");
        }
    }

    /// A frame refused after its members were looked up leaves the cache
    /// counters as they were: bucket 1's first member hits, its second
    /// carries a graph slice with trailing bytes, so the frame is
    /// `Malformed`. A duplicate of an admitted frame counts nothing
    /// either.
    #[test]
    fn refused_frames_count_no_cache_lookups() {
        let rt = runtime(1, 2);
        let graph = build(ModelKind::AlexNet);
        let warm = SealedBucket {
            bucket_index: 0,
            num_buckets: 2,
            bucket: Bucket {
                members: vec![BucketMember {
                    graph: graph.clone(),
                    params: TensorMap::new(),
                }],
            },
        }
        .to_mux_bytes(3);
        let handle = rt.handle(3);
        handle.submit(warm.clone()).unwrap();
        handle.recv().unwrap();
        let counted = |rt: &ServeRuntime| (rt.stats().cache_hits, rt.stats().cache_misses);
        assert_eq!(counted(&rt), (0, 1));

        let exact = encode_graph(&graph);
        let mut long = exact.to_vec();
        long.extend_from_slice(&[0xA5; 3]);
        let mut payload = BytesMut::new();
        payload.put_u32_le(2); // num_buckets
        payload.put_u32_le(2); // members
        for slice in [&exact[..], &long[..]] {
            payload.put_u32_le(slice.len() as u32);
            payload.put_slice(slice);
            payload.put_u32_le(4);
            payload.put_u32_le(0); // no params
        }
        let wire = proteus_graph::wire::encode_frame_v3(3, 1, &payload);
        let err = handle.submit(wire).unwrap_err();
        assert!(
            matches!(&err, ProteusError::Wire(proteus_graph::WireError::Malformed { detail })
                if detail == "3 trailing bytes in member graph"),
            "{err:?}"
        );
        let err = handle.submit(warm).unwrap_err();
        assert!(
            matches!(err, ProteusError::DuplicateFrame { .. }),
            "{err:?}"
        );
        assert_eq!(counted(&rt), (0, 1));
    }

    /// A pass-through optimizer that panics on every graph-only member,
    /// but only once a weighted member's call has returned, so the crash
    /// lands while that member's frame is being sealed.
    struct CrashWhileSealing(Arc<AtomicBool>);

    impl MemberOptimizer for CrashWhileSealing {
        fn profile(&self) -> Profile {
            Profile::OrtLike
        }

        fn optimize(&self, graph: &Graph, params: &TensorMap) -> (Graph, TensorMap) {
            if params.is_empty() {
                while !self.0.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                panic!("injected crash in bucket 1");
            }
            let out = (graph.clone(), params.clone());
            self.0.store(true, Ordering::SeqCst);
            out
        }
    }

    /// Once `recv` has reported a lane's failure, no later `recv` hands
    /// out a frame: bucket 0 (megabytes of weights) is sealed while a
    /// task of bucket 1 crashes, and that frame is dropped with the lane.
    #[test]
    fn no_frame_surfaces_after_the_lane_failure_was_reported() {
        use proteus_graph::{ConvAttrs, Op};
        let mut wide = Graph::new("wide");
        let x = wide.input([1, 256, 4, 4]);
        let conv = wide.add(Op::Conv(ConvAttrs::new(256, 512, 3).padding(1)), [x]);
        wide.set_outputs([conv]);
        let weighted = BucketMember {
            params: TensorMap::init_random(&wide, 3),
            graph: wide,
        };
        let graph_only = BucketMember {
            graph: build(ModelKind::AlexNet),
            params: TensorMap::new(),
        };
        let frame = |bucket_index, member| {
            SealedBucket {
                bucket_index,
                num_buckets: 2,
                bucket: Bucket {
                    members: vec![member],
                },
            }
            .to_mux_bytes(9)
        };
        let config = ServeConfig {
            workers: 2,
            window: 2,
            cache_capacity: 0,
        };
        let rt = ServeRuntime::new(CrashWhileSealing(Arc::default()), config).unwrap();
        let handle = rt.handle(9);
        handle.submit(frame(0, weighted)).unwrap();
        handle.submit(frame(1, graph_only)).unwrap();
        let reported = loop {
            if let Err(err) = handle.recv() {
                break err;
            }
        };
        assert!(
            matches!(&reported, ProteusError::WorkerCrashed { detail, .. }
                if detail.contains("injected crash")),
            "{reported:?}"
        );
        // joins the workers, so bucket 0's task has finished
        rt.shutdown();
        assert_eq!(handle.recv().map(bucket_of), Err(reported));
    }

    /// A Conv→BatchNorm member whose BatchNorm entry carries 2 of its 4
    /// tensors passes the checksum, but `fold_bn_into_conv` reads all
    /// four: submit refuses the frame as `Malformed`, so no task runs and
    /// none crashes.
    #[test]
    fn short_batch_norm_params_are_refused_at_submit() {
        use proteus_graph::{BatchNormAttrs, ConvAttrs, Op};
        let rt = runtime(1, 2);
        let mut g = Graph::new("conv_bn");
        let x = g.input([1, 4, 8, 8]);
        let c = g.add(
            Op::Conv(ConvAttrs::new(4, 4, 3).padding(1).bias(false)),
            [x],
        );
        let bn = g.add(Op::BatchNorm(BatchNormAttrs { channels: 4 }), [c]);
        g.set_outputs([bn]);
        let mut params = TensorMap::init_random(&g, 5);
        let short = params.get(bn).unwrap()[..2].to_vec();
        params.insert(bn, short);
        let wire = SealedBucket {
            bucket_index: 0,
            num_buckets: 1,
            bucket: Bucket {
                members: vec![BucketMember { graph: g, params }],
            },
        }
        .to_mux_bytes(6);
        let handle = rt.handle(6);
        let err = handle.submit(wire).unwrap_err();
        assert!(
            matches!(&err, ProteusError::Wire(proteus_graph::WireError::Malformed { detail })
                if detail == "params of node 2 (BatchNorm) are [[4], [4]], \
                              its operator takes [[4], [4], [4], [4]]"),
            "{err:?}"
        );
        assert!(handle.failure().is_none(), "{:?}", handle.failure());
        rt.shutdown();
        let stats = rt.stats();
        assert_eq!((stats.tasks_executed, stats.tasks_crashed), (0, 0));
    }

    /// What the owner keeps owns its floats: a weighted member decoded
    /// from a response frame reads its words in place, but the model the
    /// owner reassembles from those frames holds no tensor inside them.
    #[test]
    fn reassembled_weights_do_not_pin_response_frames() {
        use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, Op, Tensor};
        let mut g = Graph::new("weighted");
        let x = g.input([1, 3, 8, 8]);
        let c1 = g.add(Op::Conv(ConvAttrs::new(3, 8, 3).padding(1)), [x]);
        let b1 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c1]);
        let r1 = g.add(Op::Activation(Activation::Relu), [b1]);
        let c2 = g.add(Op::Conv(ConvAttrs::new(8, 8, 3).padding(1)), [r1]);
        let a = g.add(Op::Add, [c2, r1]);
        let r2 = g.add(Op::Activation(Activation::Relu), [a]);
        let gap = g.add(Op::GlobalAveragePool, [r2]);
        g.set_outputs([gap]);
        let params = TensorMap::init_random(&g, 9);
        let tensors = |g: &Graph, p: &TensorMap| -> Vec<Tensor> {
            g.iter()
                .filter_map(|(id, _)| p.get(id))
                .flatten()
                .cloned()
                .collect()
        };

        let proteus = quick_proteus();
        let rt = runtime(2, 4);
        let mut session = proteus.obfuscate_session(&g, &params, 0x0A11).unwrap();
        let handle = rt.handle(0x0A11);
        let mut sent = 0;
        while let Some(frame) = session.next_frame() {
            handle.submit(frame.to_mux_bytes(0x0A11)).unwrap();
            sent += 1;
        }
        let frames: Vec<Bytes> = (0..sent).map(|_| handle.recv().unwrap().wire).collect();
        let secrets = session.finish().unwrap();
        let inside = |at: *const u8| frames.iter().any(|f| f.as_ptr_range().contains(&at));

        let mut word_backed = 0;
        for wire in &frames {
            let (_, sealed) = SealedBucket::from_mux_bytes(wire.clone()).unwrap();
            let real = &sealed.bucket.members[secrets.real_positions[sealed.bucket_index as usize]];
            for t in tensors(&real.graph, &real.params) {
                let words = t.words().expect("decoded tensors read the frame's words");
                assert!(inside(words.as_ptr()));
                word_backed += 1;
            }
        }
        assert!(word_backed > 0, "the real pieces carry weights");

        let mut reassembly = DeobfuscationSession::new(&secrets);
        for wire in &frames {
            reassembly.accept_mux_bytes(wire.clone()).unwrap();
        }
        let (model, model_params) = reassembly.finish().unwrap();
        let kept = tensors(&model, &model_params);
        assert!(!kept.is_empty());
        for t in &kept {
            assert!(t.words().is_none(), "a kept tensor reads a frame's words");
            assert!(!inside(t.data().as_ptr().cast()));
        }
    }
}
