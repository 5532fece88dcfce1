//! Multi-tenant serving runtime: many concurrent obfuscation requests
//! multiplexed over one shared optimizer worker pool.
//!
//! PR 3's sessions made a single request streamable; at service scale the
//! optimizer party faces *many* owners at once, and spawning a thread
//! fan-out per call (the old [`crate::optimize_model`] behavior) lets any
//! one request grab every core while others queue behind it. The
//! [`ServeRuntime`] inverts that: a fixed pool of workers is created once,
//! every request's [`SealedBucket`] frames are split into per-member tasks
//! on a work-stealing scheduler ([`StealQueues`]), and workers interleave
//! members of *different* requests — so a request with one small bucket is
//! not stuck behind a tenant streaming a hundred large ones.
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
//! On the wire, concurrent requests share one byte stream via the v2
//! multiplexed frame ([`proteus_graph::wire::encode_frame_v2`]): the
//! header carries a `request_id`, [`RequestHandle::submit_bytes`] rejects
//! frames whose id does not match the handle (cross-request injection),
//! and v1 single-request frames are still decoded for backward
//! compatibility.
//!
//! Two serving-only accelerations ride on top. The shared
//! [`OptimizedCache`] replays optimizer outputs for bucket members whose
//! exact wire bytes were optimized before — sentinels are anonymized
//! content-addressed ([`crate::bucket::anonymize_content`]), so the same
//! sentinel repeating across buckets, requests, or tenants costs the pool
//! exactly one optimization. [`Proteus::warm_inventory`] fills a trained
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
//! recovered structurally where the data cannot be inconsistent (queues,
//! park/registry locks) and converted to typed lane failures where it can
//! (a request's reassembly state). The optimizer is reached through the
//! [`MemberOptimizer`] seam, so the chaos battery (`tests/serve_chaos.rs`)
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
//! let proteus = Proteus::builder()
//!     .config(ProteusConfig {
//!         k: 2,
//!         partitions: PartitionSpec::Count(2),
//!         graphrnn: GraphRnnConfig { epochs: 1, ..Default::default() },
//!         topology_pool: 10,
//!         ..Default::default()
//!     })
//!     .corpus_model(proteus_models::build(proteus_models::ModelKind::ResNet))
//!     .train_shared()?;
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

use crate::bucket::{Bucket, BucketMember, SealedBucket};
use crate::config::ServeConfig;
use crate::error::ProteusError;
use crate::pipeline::Proteus;
use crate::session::DeobfuscationSession;
use bytes::{BufMut, Bytes, BytesMut};
use proteus_graph::wire::{fnv1a64, MemberEncoder};
use proteus_graph::{Graph, TensorMap};
use proteus_opt::{Optimizer, Profile};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Locks a mutex, recovering from poison by taking the guard anyway.
///
/// Only used for locks whose protected data stays structurally valid
/// across a panic: the steal deques (single push/pop operations), the
/// park rendezvous lock (a `()` payload), the handle registry (a vector
/// of weak pointers) and the worker join handles. A panic on another thread cannot leave any of these
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

/// A work-stealing task scheduler over plain std primitives: one deque
/// per worker, round-robin placement, and steal-from-the-back when a
/// worker's own deque runs dry.
///
/// Used by the [`ServeRuntime`] pool (persistent workers) and by the
/// batch fan-out in [`crate::optimize_model_with_threads`] (scoped
/// workers) — both face the same imbalance: bucket members vary wildly in
/// size, so fixed chunking leaves workers idle behind one loaded with the
/// big graphs, and a single shared queue serializes every pop on one
/// lock.
///
/// ```
/// use proteus::serve::StealQueues;
///
/// let q: StealQueues<usize> = StealQueues::new(2);
/// for task in 0..4 {
///     q.push(task);
/// }
/// // worker 1 drains its own deque, then steals worker 0's
/// let drained: Vec<usize> = std::iter::from_fn(|| q.pop(1)).collect();
/// assert_eq!(drained.len(), 4);
/// ```
#[derive(Debug)]
pub struct StealQueues<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    next: AtomicUsize,
}

impl<T> StealQueues<T> {
    /// Creates one deque per worker (at least one).
    pub fn new(workers: usize) -> StealQueues<T> {
        StealQueues {
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// How many worker deques the scheduler has.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Places one task, round-robin across worker deques. Poisoned deque
    /// locks are recovered: a deque is always a valid deque even when the
    /// poisoning panic happened elsewhere in the critical section.
    pub fn push(&self, item: T) {
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        relock(&self.queues[w]).push_back(item);
    }

    /// Pops the next task for `worker`: the front of its own deque, or —
    /// when that is empty — a steal from the back of another worker's.
    pub fn pop(&self, worker: usize) -> Option<T> {
        let n = self.queues.len();
        let own = worker % n;
        if let Some(item) = relock(&self.queues[own]).pop_front() {
            return Some(item);
        }
        for off in 1..n {
            let victim = (own + off) % n;
            if let Some(item) = relock(&self.queues[victim]).pop_back() {
                return Some(item);
            }
        }
        None
    }
}

/// One cached optimizer output, retained with its full key so a
/// fingerprint collision can never substitute the wrong graph.
#[derive(Debug)]
struct CacheEntry {
    key: Bytes,
    graph: Graph,
    params: TensorMap,
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
/// Weighted members bypass the cache: the runtime keys only members
/// with empty params. Sentinel weights are drawn per (request, bucket,
/// member), so a weighted key effectively never repeats, and keying one
/// would hash, store and clone megabytes for no hit.
///
/// The u64 fingerprint only buckets; every hit compares the full key
/// bytes, so a collision degrades to a miss, never to a wrong answer.
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
    /// identically regardless of their in-memory node numbering.
    pub fn key_for(profile: Profile, graph: &Graph, params: &TensorMap) -> Bytes {
        let tag: u8 = match profile {
            Profile::OrtLike => 0,
            Profile::HidetLike => 1,
            Profile::TvmLike => 2,
        };
        let member = MemberEncoder::new(graph, params);
        let mut buf = BytesMut::with_capacity(1 + member.graph_len() + member.params_len());
        buf.put_u8(tag);
        member.put_graph(&mut buf);
        member.put_params(&mut buf);
        buf.freeze()
    }

    /// Returns the optimized member cached under `key`, counting a hit or
    /// miss. Always a miss when disabled.
    pub fn lookup(&self, key: &Bytes) -> Option<BucketMember> {
        if !self.is_enabled() {
            return None;
        }
        let fp = fnv1a64(key);
        let found = {
            let inner = self.guard();
            inner
                .buckets
                .get(&fp)
                .and_then(|bucket| bucket.iter().find(|e| e.key == *key))
                .map(|e| BucketMember {
                    graph: e.graph.clone(),
                    params: e.params.clone(),
                })
        };
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Publishes one optimized member under its key, evicting the oldest
    /// entry when full. Returns whether the entry was stored (`false`
    /// when disabled or when a racing worker already published this key —
    /// the first result stays, and determinism makes both identical).
    pub fn insert(&self, key: Bytes, graph: Graph, params: TensorMap) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let fp = fnv1a64(&key);
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
            .push_back(CacheEntry { key, graph, params });
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
    graph: Graph,
    params: TensorMap,
    /// When the optimized cache is enabled, the member's key — the worker
    /// publishes its result there for later requests.
    cache_key: Option<Bytes>,
}

/// A frame being reassembled from its optimized members.
struct PartialBucket {
    num_buckets: u32,
    remaining: usize,
    slots: Vec<Option<BucketMember>>,
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
    done: VecDeque<SealedBucket>,
    /// Set when the runtime shuts down — receivers stop blocking.
    closed: bool,
    /// Set (once, first failure wins) when the lane fails: a worker
    /// crashed on one of this request's tasks or the lane's own lock was
    /// poisoned. Submit/recv surface it as a typed error after any
    /// already-completed frames drain.
    failed: Option<ProteusError>,
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
}

impl RequestState {
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
                if guard.failed.is_none() {
                    guard.failed = Some(ProteusError::WorkerCrashed {
                        request_id: self.request_id,
                        detail: "lane bookkeeping interrupted by a panic (lock poisoned); \
                                 in-flight frames abandoned"
                            .into(),
                    });
                }
                guard.partial.clear();
                guard.inflight = 0;
                self.inner.clear_poison();
                self.cv.notify_all();
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
        self.state.cv.notify_all();
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

struct PoolShared {
    optimizer: Box<dyn MemberOptimizer>,
    cache: OptimizedCache,
    queues: StealQueues<Task>,
    /// Tasks pushed and not yet claimed; the park/wake signal.
    pending: AtomicUsize,
    park: Mutex<()>,
    cv: Condvar,
    shutdown: AtomicBool,
    tasks_executed: AtomicUsize,
    max_queue_depth: AtomicUsize,
    tasks_crashed: AtomicUsize,
    tasks_detached: AtomicUsize,
    /// Every handle ever created, so shutdown can wake blocked clients.
    requests: Mutex<Vec<Weak<RequestState>>>,
}

impl PoolShared {
    fn push_task(&self, task: Task) {
        self.queues.push(task);
        let depth = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        let _guard = relock(&self.park);
        self.cv.notify_all();
    }

    /// Fails a request's lane with `err` (first failure wins) and
    /// abandons its in-flight reassembly — a frame must never surface
    /// with missing members.
    fn fail_request(&self, req: &RequestState, err: ProteusError) {
        let mut lane = req.lane();
        if lane.failed.is_none() {
            lane.failed = Some(err);
        }
        lane.partial.clear();
        lane.inflight = 0;
        drop(lane);
        req.cv.notify_all();
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

    /// The fallible body of one task: optimize the member and land it in
    /// the request's reassembly state. Runs inside `run_task`'s
    /// catch_unwind.
    fn execute_task(&self, task: Task) {
        let (graph, params) = self.optimizer.optimize(&task.graph, &task.params);
        if let Some(key) = task.cache_key {
            self.cache.insert(key, graph.clone(), params.clone());
        }
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        let mut lane = task.req.lane();
        if lane.failed.is_some() || task.req.cancelled.load(Ordering::SeqCst) {
            // the lane failed or was cancelled while we optimized: the
            // reassembly state is gone, drop the result on the floor
            return;
        }
        let Some(partial) = lane.partial.get_mut(&task.bucket_index) else {
            // same race, observed through the cleared map instead of the
            // flags — a detached task, not an invariant violation
            self.tasks_detached.fetch_add(1, Ordering::Relaxed);
            return;
        };
        partial.slots[task.member] = Some(BucketMember { graph, params });
        partial.remaining -= 1;
        if partial.remaining == 0 {
            let Some(finished) = lane.partial.remove(&task.bucket_index) else {
                // just held under the same lock guard
                unreachable!("partial bucket vanished between get_mut and remove");
            };
            let mut members: Vec<BucketMember> = Vec::with_capacity(finished.slots.len());
            for (i, slot) in finished.slots.into_iter().enumerate() {
                match slot {
                    Some(m) => members.push(m),
                    // remaining hit zero, so every slot was filled by a
                    // cache prefill or a landed task; an empty slot here
                    // is accounting corruption and the frame must not be
                    // emitted half-built — fail the lane instead
                    None => {
                        drop(lane);
                        self.fail_request(
                            &task.req,
                            ProteusError::WorkerCrashed {
                                request_id: task.req.request_id,
                                detail: format!(
                                    "bucket {} member {i} missing at completion; \
                                     frame withheld",
                                    task.bucket_index
                                ),
                            },
                        );
                        return;
                    }
                }
            }
            lane.done.push_back(SealedBucket {
                bucket_index: task.bucket_index,
                num_buckets: finished.num_buckets,
                bucket: Bucket { members },
            });
            lane.inflight = lane.inflight.saturating_sub(1);
            task.req.cv.notify_all();
        }
    }

    /// A worker thread's body. A panic that ever escapes per-task
    /// containment restarts the loop in place; the loop returns only at
    /// shutdown.
    fn run_worker(&self, worker: usize) {
        while catch_unwind(AssertUnwindSafe(|| self.worker_loop(worker))).is_err() {}
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            if let Some(task) = self.queues.pop(worker) {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                self.run_task(task);
                continue;
            }
            let mut guard = relock(&self.park);
            while self.pending.load(Ordering::SeqCst) == 0 && !self.shutdown.load(Ordering::SeqCst)
            {
                guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            if self.pending.load(Ordering::SeqCst) == 0 && self.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
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
            .field("workers", &self.queues.workers())
            .field("pending", &self.pending.load(Ordering::Relaxed))
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
                queues: StealQueues::new(workers),
                pending: AtomicUsize::new(0),
                park: Mutex::new(()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
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
                .spawn(move || pool.run_worker(w))
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
            workers: self.shared.queues.workers(),
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
        !self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Stops the runtime: workers drain every queued task and exit, and
    /// any client still waiting on a handle is unblocked with a typed error. Handles opened afterwards
    /// are born closed. Idempotent; dropping the runtime calls it.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = relock(&self.shared.park);
            self.shared.cv.notify_all();
        }
        let workers = std::mem::take(&mut *relock(&self.workers));
        for worker in workers {
            let _ = worker.join();
        }
        // workers have drained every queued task; unblock any client
        // still waiting on a handle
        let mut requests = relock(&self.shared.requests);
        for weak in requests.drain(..) {
            if let Some(req) = weak.upgrade() {
                let mut lane = req.lane();
                lane.closed = true;
                drop(lane);
                req.cv.notify_all();
            }
        }
    }

    /// Opens a handle for one request's frame stream. Handles are cheap;
    /// every concurrent request gets its own, all sharing this pool.
    pub fn handle(&self, request_id: u64) -> RequestHandle {
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
                closed: self.shared.shutdown.load(Ordering::SeqCst),
                failed: None,
            }),
            cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
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
    /// frames (raw v1/v2 wire bytes, as a durable
    /// [`Store`](crate::store::Store) replays them) and returns the
    /// optimized response frames in completion order. Request-id-keyed
    /// determinism makes the replayed responses byte-identical to what
    /// the killed daemon would have produced.
    ///
    /// # Errors
    /// Everything [`RequestHandle::submit_bytes`] / [`RequestHandle::recv_bytes`]
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
            handle.submit_bytes(frame.clone())?;
        }
        let mut out = Vec::with_capacity(frames.len());
        for _ in frames {
            out.push(handle.recv_bytes()?);
        }
        Ok(out)
    }

    /// Drives one owner-side request end to end through the shared pool:
    /// streams the obfuscation session's frames in (overlapping generation
    /// with optimization), collects optimized frames as they complete, and
    /// reassembles the optimized protected model.
    ///
    /// The result is bit-identical to the serial single-session path —
    /// the concurrency stress suite asserts exactly that.
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
        let mut completed: Vec<SealedBucket> = Vec::with_capacity(session.num_buckets());
        while let Some(frame) = session.next_frame() {
            handle.submit(frame)?;
            // opportunistically drain finished frames while generating
            while let Some(done) = handle.try_recv() {
                completed.push(done);
            }
        }
        let secrets = session.finish()?;
        let mut reassembly = DeobfuscationSession::new(&secrets);
        for frame in completed {
            reassembly.accept(frame)?;
        }
        while !reassembly.is_complete() {
            reassembly.accept(handle.recv()?)?;
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

    /// Submits one sealed frame to the shared pool, splitting it into
    /// per-member tasks. Blocks while the request already has
    /// [`ServeConfig::window`] frames in flight — the backpressure that
    /// keeps one tenant from flooding the pool.
    ///
    /// # Errors
    /// [`ProteusError::DuplicateFrame`] when this bucket index was already
    /// submitted on this handle; [`ProteusError::Protocol`] when the
    /// runtime has shut down; [`ProteusError::WorkerCrashed`] when the
    /// lane already failed.
    pub fn submit(&self, frame: SealedBucket) -> Result<(), ProteusError> {
        self.submit_inner(frame, None)
    }

    /// [`RequestHandle::submit`] with a wall-clock deadline on the
    /// backpressure wait: when the window is still full at `deadline`
    /// (e.g. every worker is stalled), returns [`ProteusError::Deadline`]
    /// instead of blocking forever.
    ///
    /// # Errors
    /// [`ProteusError::Deadline`] on timeout, plus everything
    /// [`RequestHandle::submit`] rejects.
    pub fn submit_deadline(
        &self,
        frame: SealedBucket,
        deadline: Instant,
    ) -> Result<(), ProteusError> {
        self.submit_inner(frame, Some(deadline))
    }

    fn submit_inner(
        &self,
        frame: SealedBucket,
        deadline: Option<Instant>,
    ) -> Result<(), ProteusError> {
        let SealedBucket {
            bucket_index,
            num_buckets,
            bucket,
        } = frame;
        {
            let lane = self.state.lane();
            if let Some(err) = &lane.failed {
                return Err(err.clone());
            }
            if lane.seen.contains(&bucket_index) {
                return Err(ProteusError::DuplicateFrame {
                    bucket_index,
                    request_id: self.state.request_id,
                });
            }
        }
        // classify members against the shared optimized-member cache
        // *outside* the request lock: hits are prefilled into their
        // reassembly slots, misses become pool tasks carrying their key so
        // the worker can publish its result for later requests. Weighted
        // members get no key: sentinel weights are drawn per (request,
        // bucket, member), so their key never repeats, and keying,
        // looking up and caching megabytes of weights would only cost
        let profile = self.pool.optimizer.profile();
        let mut slots: Vec<Option<BucketMember>> = Vec::with_capacity(bucket.members.len());
        let mut misses: Vec<(usize, Graph, TensorMap, Option<Bytes>)> = Vec::new();
        for (member, m) in bucket.members.into_iter().enumerate() {
            let key = (self.pool.cache.is_enabled() && m.params.is_empty())
                .then(|| OptimizedCache::key_for(profile, &m.graph, &m.params));
            if let Some(hit) = key.as_ref().and_then(|k| self.pool.cache.lookup(k)) {
                slots.push(Some(hit));
            } else {
                slots.push(None);
                misses.push((member, m.graph, m.params, key));
            }
        }
        {
            let mut inner = self.state.lane();
            let submit_started = Instant::now();
            while inner.inflight >= self.state.window && !inner.closed && inner.failed.is_none() {
                match deadline {
                    None => {
                        inner = self
                            .state
                            .cv
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(ProteusError::Deadline {
                                request_id: self.state.request_id,
                                elapsed_ms: submit_started.elapsed().as_millis() as u64,
                            });
                        }
                        inner = self
                            .state
                            .cv
                            .wait_timeout(inner, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
            }
            if let Some(err) = &inner.failed {
                return Err(err.clone());
            }
            if inner.closed {
                return Err(ProteusError::protocol(format!(
                    "request {:#x}: serve runtime shut down while submitting bucket {bucket_index}",
                    self.state.request_id
                )));
            }
            // re-check: a concurrent producer on a cloned handle may have
            // submitted the same bucket while we classified or waited
            if !inner.seen.insert(bucket_index) {
                return Err(ProteusError::DuplicateFrame {
                    bucket_index,
                    request_id: self.state.request_id,
                });
            }
            if misses.is_empty() {
                // every member cached (or the frame was empty): nothing to
                // optimize, complete immediately so recv() and reassembly
                // see the frame without a trip through the pool. Every
                // slot was prefilled by construction (no misses), so an
                // empty one is memory corruption, not a request error.
                let mut members = Vec::with_capacity(slots.len());
                for (i, slot) in slots.into_iter().enumerate() {
                    match slot {
                        Some(m) => members.push(m),
                        None => {
                            unreachable!(
                                "bucket {bucket_index} member {i} neither cached nor missed"
                            )
                        }
                    }
                }
                inner.done.push_back(SealedBucket {
                    bucket_index,
                    num_buckets,
                    bucket: Bucket { members },
                });
                self.state.cv.notify_all();
                return Ok(());
            }
            inner.inflight += 1;
            inner.partial.insert(
                bucket_index,
                PartialBucket {
                    num_buckets,
                    remaining: misses.len(),
                    slots,
                },
            );
        }
        for (member, graph, params, cache_key) in misses {
            self.pool.push_task(Task {
                req: Arc::clone(&self.state),
                bucket_index,
                member,
                graph,
                params,
                cache_key,
            });
        }
        Ok(())
    }

    /// Decodes one multiplexed wire frame and submits it, rejecting
    /// frames whose request id does not match this handle — a frame
    /// injected from another request's stream never reaches this
    /// request's pipeline.
    ///
    /// # Errors
    /// [`ProteusError::Wire`] on decode failure, [`ProteusError::Protocol`]
    /// on a request-id mismatch, plus everything
    /// [`RequestHandle::submit`] rejects.
    pub fn submit_bytes(&self, wire: Bytes) -> Result<(), ProteusError> {
        let (request_id, sealed) = SealedBucket::from_mux_bytes(wire)?;
        if request_id != self.state.request_id {
            return Err(ProteusError::protocol(format!(
                "frame for request {request_id:#x} injected into the stream of request {:#x}",
                self.state.request_id
            )));
        }
        self.submit(sealed)
    }

    /// Returns the next fully optimized frame, blocking until one
    /// completes. Frames surface in completion order, not bucket order.
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
    pub fn recv(&self) -> Result<SealedBucket, ProteusError> {
        self.recv_inner(None)
    }

    /// [`RequestHandle::recv`] with a wall-clock deadline: returns
    /// [`ProteusError::Deadline`] when no frame has completed by
    /// `deadline` — a per-request latency budget.
    ///
    /// # Errors
    /// [`ProteusError::Deadline`] on timeout, plus everything
    /// [`RequestHandle::recv`] rejects.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<SealedBucket, ProteusError> {
        self.recv_inner(Some(deadline))
    }

    fn recv_inner(&self, deadline: Option<Instant>) -> Result<SealedBucket, ProteusError> {
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
            match deadline {
                None => {
                    inner = self
                        .state
                        .cv
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ProteusError::Deadline {
                            request_id: self.state.request_id,
                            elapsed_ms: started.elapsed().as_millis() as u64,
                        });
                    }
                    inner = self
                        .state
                        .cv
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Returns the next fully optimized frame if one is ready.
    pub fn try_recv(&self) -> Option<SealedBucket> {
        self.state.lane().done.pop_front()
    }

    /// The lane's failure, if it failed — without consuming completed
    /// frames the way [`RequestHandle::recv`] would.
    pub fn failure(&self) -> Option<ProteusError> {
        self.state.lane().failed.clone()
    }

    /// [`RequestHandle::recv`], encoded as one v2 multiplexed wire frame
    /// tagged with this request's id — ready to share a response byte
    /// stream with other requests.
    ///
    /// # Errors
    /// As [`RequestHandle::recv`].
    pub fn recv_bytes(&self) -> Result<Bytes, ProteusError> {
        Ok(self.recv()?.to_mux_bytes(self.state.request_id))
    }
}

#[cfg(test)]
mod tests {
    // tests assert on Results aggressively; the unwrap/expect discipline
    // applies to the production request path, not to test scaffolding
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
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

    #[test]
    fn steal_queues_drain_from_any_worker() {
        let q: StealQueues<u32> = StealQueues::new(3);
        for i in 0..10 {
            q.push(i);
        }
        let mut seen: Vec<u32> = std::iter::from_fn(|| q.pop(2)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(q.pop(0).is_none());
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
        let frame = session.next_frame().expect("frame");
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
        assert_eq!(done.bucket_index, 0);
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
        let err = handle.submit_bytes(frame.to_mux_bytes(21)).unwrap_err();
        assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
        assert_eq!(handle.in_flight(), 0, "injected frame must not enqueue");
        // the matching lane accepts the same bytes
        let own = rt.handle(21);
        own.submit_bytes(frame.to_mux_bytes(21)).expect("submit");
        let done = own.recv_bytes().expect("optimized frame returns");
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
            .submit(SealedBucket {
                bucket_index: 0,
                num_buckets: 1,
                bucket: Bucket {
                    members: Vec::new(),
                },
            })
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
        );
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
            handle.submit(frame).expect("submit");
            submitted += 1;
            assert!(handle.in_flight() <= 1, "window violated");
        }
        for _ in 0..submitted {
            handle.recv().expect("frame");
        }
    }
}
