//! Serve-latency parity battery: the warm sentinel inventory and the
//! optimized-member cache are pure memoization, so every byte a request
//! observes must be identical whether its sentinels were drawn warm or
//! generated inline, and whether its members were optimized by the pool
//! or replayed from the cache — across the full model zoo.
//!
//! The suite also pins the structural win: under PR 4's inline path every
//! bucket member became an optimizer task; with the cache on, a replayed
//! request reaches the pool zero times and a mixed workload executes
//! strictly fewer tasks than it has members.
//!
//! CI runs this suite in release mode (the `serve-stress` job).

use proteus::serve::ServeRuntime;
use proteus::{
    DeobfuscationSession, PartitionSpec, Proteus, ProteusConfig, SealedBucket, ServeConfig,
};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::sync::{Arc, OnceLock};

fn quick_config() -> ProteusConfig {
    ProteusConfig {
        k: 2,
        partitions: PartitionSpec::Count(3),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 20,
        sentinel_variants: 2,
        ..Default::default()
    }
}

/// One shared trained instance; training dominates suite time.
fn trained() -> &'static Arc<Proteus> {
    static TRAINED: OnceLock<Arc<Proteus>> = OnceLock::new();
    TRAINED.get_or_init(|| Arc::new(Proteus::train(quick_config(), &[build(ModelKind::ResNet)])))
}

fn runtime(cache_capacity: usize) -> ServeRuntime {
    ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 2,
            window: 2,
            cache_capacity,
        },
    )
    .expect("runtime starts")
}

/// All sealed (unoptimized) frame bytes of one request, in bucket order.
fn session_frame_bytes(proteus: &Proteus, kind: ModelKind, rid: u64) -> Vec<Vec<u8>> {
    proteus
        .obfuscate_session(&build(kind), &TensorMap::new(), rid)
        .expect("session")
        .map(|f| f.to_bytes().to_vec())
        .collect()
}

/// Drives one request through a runtime and returns its optimized frames
/// (bucket order) plus the reassembled model.
fn serve_one(
    rt: &ServeRuntime,
    proteus: &Proteus,
    kind: ModelKind,
    rid: u64,
) -> (Vec<SealedBucket>, (proteus_graph::Graph, TensorMap)) {
    let mut session = proteus
        .obfuscate_session(&build(kind), &TensorMap::new(), rid)
        .expect("session");
    let handle = rt.handle(rid);
    let n = session.num_buckets();
    let mut optimized = Vec::with_capacity(n);
    while let Some(frame) = session.next_frame() {
        handle.submit(frame).expect("submit");
        while let Some(done) = handle.try_recv() {
            optimized.push(done);
        }
    }
    while optimized.len() < n {
        optimized.push(handle.recv().expect("recv"));
    }
    optimized.sort_by_key(|f| f.bucket_index);
    let secrets = session.finish().expect("secrets");
    let mut reassembly = DeobfuscationSession::new(&secrets);
    for f in &optimized {
        reassembly.accept(f.clone()).expect("accept");
    }
    (optimized, reassembly.finish().expect("finish"))
}

#[test]
fn warm_inventory_frames_match_inline_generation_across_the_zoo() {
    let proteus = trained();
    // full warm first, so the warm path below is entirely inventory
    // draws
    let built = proteus.warm_inventory();
    assert!(built > 0, "warmer built nothing");

    for (i, kind) in ModelKind::ALL.into_iter().enumerate() {
        let rid = 1000 + i as u64;
        proteus.inventory().set_enabled(true);
        let hits_before = proteus.inventory().stats().hits;
        let warm = session_frame_bytes(proteus, kind, rid);
        assert!(
            proteus.inventory().stats().hits > hits_before,
            "{kind}: warm session never touched the inventory"
        );

        proteus.inventory().set_enabled(false);
        let inline = session_frame_bytes(proteus, kind, rid);
        proteus.inventory().set_enabled(true);

        assert_eq!(
            warm, inline,
            "{kind}: warm-inventory frames diverge from inline generation"
        );
    }
}

#[test]
fn cache_hits_and_misses_produce_identical_bytes() {
    let proteus = trained();
    let cached = runtime(4096);
    let uncached = runtime(0);

    for (i, kind) in [ModelKind::AlexNet, ModelKind::MobileNet, ModelKind::Bert]
        .into_iter()
        .enumerate()
    {
        let rid = 2000 + i as u64;
        // first pass populates the cache (all misses), replay hits it,
        // and the cacheless runtime never consults it — all three must
        // produce the same optimized frame bytes and reassembly
        let (miss_frames, miss_model) = serve_one(&cached, proteus, kind, rid);
        let (hit_frames, hit_model) = serve_one(&cached, proteus, kind, rid);
        let (cold_frames, cold_model) = serve_one(&uncached, proteus, kind, rid);

        let bytes = |frames: &[SealedBucket]| -> Vec<Vec<u8>> {
            frames.iter().map(|f| f.to_bytes().to_vec()).collect()
        };
        assert_eq!(
            bytes(&miss_frames),
            bytes(&hit_frames),
            "{kind}: cache-hit frames diverge from the miss pass"
        );
        assert_eq!(
            bytes(&miss_frames),
            bytes(&cold_frames),
            "{kind}: cached frames diverge from the cacheless runtime"
        );
        assert_eq!(miss_model, hit_model, "{kind}: reassembly diverged");
        assert_eq!(miss_model, cold_model, "{kind}: reassembly diverged");
    }
    assert!(cached.stats().cache_hits > 0);
    assert_eq!(uncached.stats().cache_hits, 0);
}

#[test]
fn warm_path_task_count_drops_below_the_inline_baseline() {
    let proteus = trained();
    let rt = runtime(4096);
    let kind = ModelKind::AlexNet;

    // PR 4 baseline, pinned: the inline path paid one optimizer task per
    // member. A cold request on an empty cache can only do better when a
    // sentinel repeats across its own buckets, never worse.
    let (frames, _) = serve_one(&rt, proteus, kind, 3000);
    let members: usize = frames.iter().map(|f| f.bucket.members.len()).sum();
    let cold_tasks = rt.stats().tasks_executed;
    assert!(
        cold_tasks > 0 && cold_tasks <= members,
        "cold request executed {cold_tasks} tasks for {members} members"
    );

    // replaying the same request reaches the pool zero times
    let (_, _) = serve_one(&rt, proteus, kind, 3000);
    assert_eq!(
        rt.stats().tasks_executed,
        cold_tasks,
        "replayed request must be served entirely from the cache"
    );

    // a mixed workload over fresh request ids repeats sentinels across
    // requests (content-addressed anonymization), so total tasks stay
    // strictly below total members
    let mut total_members = members;
    for rid in 3001..3009 {
        let (frames, _) = serve_one(&rt, proteus, kind, rid);
        total_members += frames.iter().map(|f| f.bucket.members.len()).sum::<usize>();
    }
    let stats = rt.stats();
    assert!(
        stats.tasks_executed < total_members,
        "warm path executed {} tasks for {} members — no cross-request reuse",
        stats.tasks_executed,
        total_members
    );
    assert!(stats.cache_hits > 0);
}
