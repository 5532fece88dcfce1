//! Concurrency parity stress suite for the multi-tenant serving runtime:
//! many client threads, each juggling several in-flight requests against
//! ONE shared [`ServeRuntime`], must end up with per-request deobfuscated
//! graphs and tensors **bit-identical** to the serial single-session path
//! — no matter how the worker pool interleaves their frames.
//!
//! CI runs this suite in release mode (the `serve-stress` job).

use proteus::serve::ServeRuntime;
use proteus::{
    DeobfuscationSession, PartitionSpec, Proteus, ProteusConfig, SealedBucket, ServeConfig,
};
use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Graph, Op, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::collections::HashMap;
use std::sync::Arc;

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

/// An executable CNN with parameters, so parity also covers sentinel
/// parameter streams and tensor reassembly.
fn executable_cnn() -> (Graph, TensorMap) {
    let mut g = Graph::new("stress-cnn");
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

/// The protected model of request `rid` — a rotation so concurrent
/// requests carry different shapes and parameter loads.
fn request_model(rid: u64) -> (Graph, TensorMap) {
    match rid % 3 {
        0 => executable_cnn(),
        1 => (build(ModelKind::AlexNet), TensorMap::new()),
        _ => (build(ModelKind::MobileNet), TensorMap::new()),
    }
}

/// The serial single-session reference: one request, frames optimized
/// inline one member at a time, reassembled in order.
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

#[test]
fn concurrent_clients_are_bit_identical_to_serial_path() {
    const CLIENTS: usize = 3; // N client threads
    const IN_FLIGHT: usize = 3; // M concurrently driven requests per thread

    let proteus =
        Arc::new(Proteus::train(quick_config(2, 3), &[build(ModelKind::ResNet)]).expect("train"));
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 4,
            window: 2,
            // cache off: this test pins the pool's exact task accounting
            // (one task per member); cache semantics are pinned by
            // tests/serve_latency.rs
            cache_capacity: 0,
        },
    )
    .expect("runtime");
    let optimizer = Optimizer::new(Profile::OrtLike);

    let results: Vec<(u64, Graph, TensorMap)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for client in 0..CLIENTS as u64 {
            let proteus = Arc::clone(&proteus);
            let runtime = &runtime;
            joins.push(scope.spawn(move || {
                // M requests driven concurrently by one client thread:
                // round-robin one frame per request per round, so frames
                // of this client's requests interleave at the pool too
                let rids: Vec<u64> = (0..IN_FLIGHT as u64).map(|j| 100 * client + j).collect();
                let models: Vec<(Graph, TensorMap)> =
                    rids.iter().map(|&rid| request_model(rid)).collect();
                let mut sessions: Vec<_> = rids
                    .iter()
                    .zip(&models)
                    .map(|(&rid, (g, p))| proteus.obfuscate_session(g, p, rid).expect("session"))
                    .collect();
                let handles: Vec<_> = rids.iter().map(|&rid| runtime.handle(rid)).collect();
                let mut open = sessions.len();
                while open > 0 {
                    open = 0;
                    for (session, handle) in sessions.iter_mut().zip(&handles) {
                        if let Some(frame) = session.next_frame() {
                            handle
                                .submit(frame.to_mux_bytes(handle.request_id()))
                                .expect("submit");
                            open += 1;
                        }
                    }
                }
                let mut out = Vec::new();
                for ((session, handle), rid) in sessions.into_iter().zip(&handles).zip(&rids) {
                    let secrets = session.finish().expect("secrets");
                    let mut reassembly = DeobfuscationSession::new(&secrets);
                    while !reassembly.is_complete() {
                        reassembly
                            .accept_mux_bytes(handle.recv().expect("recv").wire)
                            .expect("accept");
                    }
                    let (g, p) = reassembly.finish().expect("finish");
                    out.push((*rid, g, p));
                }
                out
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });

    assert_eq!(results.len(), CLIENTS * IN_FLIGHT);
    let expected_tasks: usize = results.len() * 3 * 3; // n=3 buckets x (k+1)=3 members
    assert_eq!(
        runtime.stats().tasks_executed,
        expected_tasks,
        "every member optimized exactly once through the shared pool"
    );
    for (rid, graph, params) in results {
        let (model_graph, model_params) = request_model(rid);
        let (want_graph, want_params) =
            serial_reference(&proteus, &optimizer, rid, &model_graph, &model_params);
        assert_eq!(graph, want_graph, "request {rid:#x}: graphs diverge");
        assert_eq!(params, want_params, "request {rid:#x}: tensors diverge");
    }
}

#[test]
fn warm_cached_concurrent_requests_match_serial_frame_bytes() {
    // The deployed hot path under concurrency: a warm sentinel inventory,
    // the optimized-member cache on, and v2 multiplexed bytes from several
    // requests at once. Every optimized frame must be byte-identical to
    // its input re-optimized serially (no pool, cache or inventory), on
    // the cold wave that fills the cache and on the replay that hits it.
    let proteus = Proteus::train(quick_config(2, 3), &[build(ModelKind::ResNet)]).expect("train");
    assert!(proteus.warm_inventory() > 0);
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 4,
            window: 2,
            ..Default::default()
        },
    )
    .expect("runtime");
    let optimizer = Optimizer::new(Profile::OrtLike);

    let wave = || -> Vec<(Vec<SealedBucket>, Vec<SealedBucket>)> {
        std::thread::scope(|scope| {
            let joins: Vec<_> = (0..6u64)
                .map(|rid| {
                    let (proteus, runtime) = (&proteus, &runtime);
                    scope.spawn(move || {
                        let (g, p) = request_model(rid);
                        let inputs: Vec<SealedBucket> = proteus
                            .obfuscate_session(&g, &p, rid)
                            .expect("session")
                            .collect();
                        let handle = runtime.handle(rid);
                        for frame in &inputs {
                            handle.submit(frame.to_mux_bytes(rid)).expect("submit");
                        }
                        let mut got: Vec<SealedBucket> = inputs
                            .iter()
                            .map(|_| {
                                let wire = handle.recv().expect("recv").wire;
                                SealedBucket::from_mux_bytes(wire).expect("decode").1
                            })
                            .collect();
                        got.sort_by_key(|f| f.bucket_index);
                        (inputs, got)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread"))
                .collect()
        })
    };
    let cold = wave();
    let replay = wave();
    for (rid, ((inputs, got), (_, replayed))) in cold.iter().zip(&replay).enumerate() {
        assert_eq!(got.len(), inputs.len(), "request {rid}: frame count");
        for ((input, got), replayed) in inputs.iter().zip(got).zip(replayed) {
            let want = input.optimize(&optimizer, Some(1)).to_mux_bytes(0);
            assert_eq!(
                got.to_mux_bytes(0),
                want,
                "request {rid}: cold frame diverged"
            );
            assert_eq!(
                replayed.to_mux_bytes(0),
                want,
                "request {rid}: cached frame diverged"
            );
        }
    }
    assert!(
        runtime.stats().cache_hits > 0,
        "the replay never hit the cache"
    );
}

#[test]
fn multiplexed_byte_stream_serves_interleaved_requests() {
    // One byte stream, many requests: every frame of every request is
    // encoded as a v2 multiplexed frame, the streams are interleaved
    // round-robin, a demultiplexing service loop routes them by request
    // id into one shared runtime, and the interleaved response stream is
    // demultiplexed back — each request must reassemble bit-identically
    // to its serial path.
    const REQUESTS: u64 = 4;

    let proteus = Proteus::train(quick_config(2, 2), &[build(ModelKind::ResNet)]).expect("train");
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 2,
            window: 4,
            ..Default::default()
        },
    )
    .expect("runtime");
    let optimizer = Optimizer::new(Profile::OrtLike);

    // owner side: generate every request's frames, interleave round-robin
    let mut secrets = HashMap::new();
    let mut per_request_frames: Vec<Vec<bytes::Bytes>> = Vec::new();
    for rid in 0..REQUESTS {
        let (g, p) = request_model(rid);
        let mut session = proteus.obfuscate_session(&g, &p, rid).expect("session");
        let frames: Vec<bytes::Bytes> = session.by_ref().map(|f| f.to_mux_bytes(rid)).collect();
        secrets.insert(rid, session.finish().expect("secrets"));
        per_request_frames.push(frames);
    }
    let max_len = per_request_frames.iter().map(Vec::len).max().unwrap();
    let mut wire_in: Vec<bytes::Bytes> = Vec::new();
    for round in 0..max_len {
        for frames in &per_request_frames {
            if let Some(frame) = frames.get(round) {
                wire_in.push(frame.clone());
            }
        }
    }

    // service loop: demultiplex by request id, one handle per request
    let mut handles: HashMap<u64, proteus::RequestHandle> = HashMap::new();
    for wire in wire_in {
        let rid = proteus_graph::peek_frame_request_id(&wire).expect("peek");
        handles
            .entry(rid)
            .or_insert_with(|| runtime.handle(rid))
            .submit(wire)
            .expect("routed submit");
    }

    // interleaved response stream: drain one frame per request per round
    let mut wire_out: Vec<bytes::Bytes> = Vec::new();
    let mut outstanding: HashMap<u64, usize> = secrets
        .iter()
        .map(|(&rid, s)| (rid, s.real_positions.len()))
        .collect();
    while outstanding.values().any(|&n| n > 0) {
        for rid in 0..REQUESTS {
            if outstanding[&rid] > 0 {
                wire_out.push(handles[&rid].recv().expect("recv").wire);
                *outstanding.get_mut(&rid).unwrap() -= 1;
            }
        }
    }

    // owner side: demultiplex responses into per-request reassembly
    let mut reassembly: HashMap<u64, DeobfuscationSession> = secrets
        .iter()
        .map(|(&rid, s)| (rid, DeobfuscationSession::new(s)))
        .collect();
    for wire in wire_out {
        let rid = proteus_graph::peek_frame_request_id(&wire).expect("peek");
        reassembly
            .get_mut(&rid)
            .expect("known request")
            .accept_mux_bytes(wire)
            .expect("accept");
    }
    for rid in 0..REQUESTS {
        let (got_graph, got_params) = reassembly.remove(&rid).unwrap().finish().expect("complete");
        let (g, p) = request_model(rid);
        let (want_graph, want_params) = serial_reference(&proteus, &optimizer, rid, &g, &p);
        assert_eq!(got_graph, want_graph, "request {rid}: graphs diverge");
        assert_eq!(got_params, want_params, "request {rid}: tensors diverge");
    }
}

#[test]
fn window_one_under_contention_still_converges() {
    // The tightest backpressure setting with more clients than workers:
    // every submit waits for the previous frame, nothing deadlocks, and
    // results stay correct.
    let proteus =
        Arc::new(Proteus::train(quick_config(1, 2), &[build(ModelKind::ResNet)]).expect("train"));
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 1,
            window: 1,
            ..Default::default()
        },
    )
    .expect("runtime");
    let optimizer = Optimizer::new(Profile::OrtLike);

    let results: Vec<(u64, Graph, TensorMap)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..4u64)
            .map(|rid| {
                let proteus = Arc::clone(&proteus);
                let runtime = &runtime;
                scope.spawn(move || {
                    let (g, p) = request_model(rid);
                    let (graph, params) =
                        runtime.serve_request(&proteus, &g, &p, rid).expect("serve");
                    (rid, graph, params)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });
    for (rid, graph, params) in results {
        let (g, p) = request_model(rid);
        let (want_graph, want_params) = serial_reference(&proteus, &optimizer, rid, &g, &p);
        assert_eq!(graph, want_graph, "request {rid}: graphs diverge");
        assert_eq!(params, want_params, "request {rid}: tensors diverge");
    }
}
