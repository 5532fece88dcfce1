//! Chaos battery for the serving runtime: deterministic fault injection
//! ([`FaultPlan`]: worker panics, stalls, cache-lock poisoning) against
//! one [`ServeRuntime`] must never escape the typed error family, never
//! leak a partial frame, and never take down the lanes it did not hit.
//! Every request either fails typed or comes back **bit-identical** to
//! the serial single-session path.
//!
//! CI runs this battery in release mode across several fault seeds
//! (the `serve-chaos` job); `PROTEUS_CHAOS_SEEDS` overrides the storm's
//! seed list.

use proteus::serve::ServeRuntime;
use proteus::{
    DeobfuscationSession, FaultPlan, PartitionSpec, Proteus, ProteusConfig, ProteusError,
    SealedBucket, ServeConfig,
};
use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Graph, Op, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// Injected faults panic on purpose (contained by the runtime's
/// `catch_unwind`); suppress their backtrace spew so real test failures
/// stay readable. Non-fault panics still print via the previous hook.
fn quiet_fault_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("fault injection") {
                prev(info);
            }
        }));
    });
}

fn quick_config(k: usize, n: usize) -> ProteusConfig {
    ProteusConfig {
        k,
        partitions: PartitionSpec::Count(n),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 30,
        ..Default::default()
    }
}

/// One shared trained instance for the whole battery (training is
/// model-independent; every test keys its requests by distinct ids).
fn shared_proteus() -> &'static Arc<Proteus> {
    static SHARED: OnceLock<Arc<Proteus>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Proteus::builder()
            .config(quick_config(2, 2))
            .corpus_model(build(ModelKind::ResNet))
            .train_shared()
            .expect("train")
    })
}

/// An executable CNN with parameters so chaos also covers parameter
/// streams and tensor reassembly.
fn executable_cnn() -> (Graph, TensorMap) {
    let mut g = Graph::new("chaos-cnn");
    let x = g.input([1, 3, 12, 12]);
    let c1 = g.add(
        Op::Conv(ConvAttrs::new(3, 8, 3).padding(1).bias(false)),
        [x],
    );
    let b1 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c1]);
    let r1 = g.add(Op::Activation(Activation::Relu), [b1]);
    let c2 = g.add(
        Op::Conv(ConvAttrs::new(8, 8, 3).padding(1).bias(false)),
        [r1],
    );
    let a = g.add(Op::Add, [c2, r1]);
    let r2 = g.add(Op::Activation(Activation::Relu), [a]);
    let f = g.add(Op::Flatten, [r2]);
    let fc = g.add(Op::Gemm(GemmAttrs::new(8 * 12 * 12, 10)), [f]);
    g.set_outputs([fc]);
    let params = TensorMap::init_random(&g, 99);
    (g, params)
}

/// The protected model of request `rid` — a rotation so chaos requests
/// carry different shapes and parameter loads.
fn request_model(rid: u64) -> (Graph, TensorMap) {
    match rid % 3 {
        0 => executable_cnn(),
        1 => (build(ModelKind::AlexNet), TensorMap::new()),
        _ => (build(ModelKind::MobileNet), TensorMap::new()),
    }
}

/// The serial single-session reference the runtime must be bit-identical
/// to whenever it reports success.
fn serial_reference(
    proteus: &Proteus,
    optimizer: &Optimizer,
    rid: u64,
    graph: &Graph,
    params: &TensorMap,
) -> (Graph, TensorMap) {
    let mut session = proteus
        .obfuscate_session(graph, params, rid)
        .expect("session");
    let frames: Vec<SealedBucket> = session
        .by_ref()
        .map(|f| f.optimize(optimizer, Some(1)))
        .collect();
    let secrets = session.finish().expect("secrets");
    let mut reassembly = DeobfuscationSession::new(&secrets);
    for f in frames {
        reassembly.accept(f).expect("accept");
    }
    reassembly.finish().expect("finish")
}

/// No fault may leak a partial frame: every frame a faulted runtime
/// delivers carries all `k + 1` members, and fully-delivered requests
/// reassemble bit-identically to the serial path.
#[test]
fn no_fault_leaks_a_partial_frame() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let k = 2; // quick_config(2, 2)
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 2,
            window: 4,
            cache_capacity: 0,
            faults: FaultPlan {
                seed: 0xF00D,
                panic_one_in: 3,
                ..Default::default()
            },
        },
    )
    .expect("runtime");
    let mut crashed = 0usize;
    let mut completed = 0usize;
    for rid in 400..412u64 {
        let (graph, params) = request_model(rid);
        let mut session = proteus
            .obfuscate_session(&graph, &params, rid)
            .expect("session");
        let n = session.num_buckets();
        let handle = runtime.handle(rid);
        let mut frames = Vec::new();
        let mut failure = None;
        while let Some(frame) = session.next_frame() {
            if let Err(e) = handle.submit(frame) {
                failure = Some(e);
                break;
            }
        }
        let secrets = session.finish().expect("secrets");
        while failure.is_none() && frames.len() < n {
            match handle.recv() {
                Ok(frame) => frames.push(frame),
                Err(e) => failure = Some(e),
            }
        }
        // the invariant under test: every delivered frame is whole
        for frame in &frames {
            assert_eq!(
                frame.bucket.members.len(),
                k + 1,
                "rid {rid}: a fault leaked a partial frame"
            );
        }
        match failure {
            Some(ProteusError::WorkerCrashed { request_id, .. }) => {
                assert_eq!(request_id, rid);
                crashed += 1;
            }
            Some(other) => panic!("rid {rid}: untyped chaos escape {other:?}"),
            None => {
                let mut reassembly = DeobfuscationSession::new(&secrets);
                for frame in frames {
                    reassembly.accept(frame).expect("accept");
                }
                let (got_g, got_p) = reassembly.finish().expect("finish");
                let (want_g, want_p) = serial_reference(proteus, &optimizer, rid, &graph, &params);
                assert_eq!(got_g, want_g, "rid {rid}");
                assert_eq!(got_p, want_p, "rid {rid}");
                completed += 1;
            }
        }
    }
    assert!(
        crashed > 0,
        "the 1-in-3 panic rate never fired in 12 requests"
    );
    assert!(completed > 0, "every request crashed; parity never checked");
    let stats = runtime.stats();
    // two tasks of one request can both pass the lane's failed check on
    // different workers and both crash; the counter is bumped before the
    // lane fails, so it bounds the crashed lanes from above
    assert!(
        stats.tasks_crashed >= crashed,
        "{} crashed tasks cannot explain {crashed} crashed lanes",
        stats.tasks_crashed
    );
    assert!(
        runtime.is_healthy(),
        "contained crashes never down the pool"
    );
}

/// Serves one request through `runtime` like
/// [`ServeRuntime::serve_request`], but with every backpressure and
/// receive wait bounded by `deadline`.
fn serve_before(
    runtime: &ServeRuntime,
    proteus: &Proteus,
    rid: u64,
    graph: &Graph,
    params: &TensorMap,
    deadline: Instant,
) -> Result<(Graph, TensorMap), ProteusError> {
    let mut session = proteus.obfuscate_session(graph, params, rid)?;
    let handle = runtime.handle(rid);
    while let Some(frame) = session.next_frame() {
        handle.submit_deadline(frame, deadline)?;
    }
    let secrets = session.finish()?;
    let mut reassembly = DeobfuscationSession::new(&secrets);
    while !reassembly.is_complete() {
        reassembly.accept(handle.recv_deadline(deadline)?)?;
    }
    reassembly.finish()
}

/// Seeded chaos storm: one runtime armed with a seeded panic rate,
/// stalls and a cache-lock poisoning serves a stream of requests. Every
/// request must end in either a bit-identical success or a typed
/// `WorkerCrashed`/`Deadline` — across every seed in the battery — and
/// the runtime keeps serving after each failure.
#[test]
fn seeded_chaos_storm_yields_only_parity_or_typed_errors() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let seeds: Vec<u64> = std::env::var("PROTEUS_CHAOS_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("PROTEUS_CHAOS_SEEDS: u64 list"))
                .collect()
        })
        .unwrap_or_else(|| vec![0x5EED_0001, 0x5EED_0002, 0x5EED_0003]);
    for seed in seeds {
        let runtime = ServeRuntime::new(
            Optimizer::new(Profile::OrtLike),
            ServeConfig {
                workers: 1,
                window: 4,
                faults: FaultPlan {
                    seed,
                    panic_one_in: 8,
                    stall_one_in: 5,
                    stall_ms: 3,
                    poison_cache_at: 1 + (seed % 3) as u32,
                    ..Default::default()
                },
                ..Default::default() // cache ON for the poison fault
            },
        )
        .expect("runtime starts");
        let (mut succeeded, mut failed) = (0usize, 0usize);
        for i in 0..12u64 {
            let rid = seed.wrapping_mul(131).wrapping_add(i * 17);
            let (graph, params) = request_model(rid);
            let deadline = Instant::now() + Duration::from_secs(30);
            match serve_before(&runtime, proteus, rid, &graph, &params, deadline) {
                Ok((got_g, got_p)) => {
                    let (want_g, want_p) =
                        serial_reference(proteus, &optimizer, rid, &graph, &params);
                    assert_eq!(got_g, want_g, "seed {seed:#x} rid {rid:#x}");
                    assert_eq!(got_p, want_p, "seed {seed:#x} rid {rid:#x}");
                    succeeded += 1;
                }
                Err(ProteusError::WorkerCrashed { .. } | ProteusError::Deadline { .. }) => {
                    failed += 1; // typed fault-family error: acceptable chaos outcome
                }
                Err(other) => panic!("seed {seed:#x} rid {rid:#x}: untyped escape {other:?}"),
            }
        }
        // the storm exercises both sides of the rule: faults fire, and
        // the runtime still serves bit-identically around them
        assert!(
            succeeded > 0 && failed > 0,
            "seed {seed:#x}: {succeeded} served, {failed} failed; the storm needs both"
        );
        assert!(
            runtime.is_healthy(),
            "seed {seed:#x}: faults downed the runtime"
        );
    }
}
