//! Cross-crate integration tests: the full obfuscate → optimize →
//! de-obfuscate protocol on executable models, checked for functional
//! equivalence with the reference interpreter.

use proteus::{
    DeobfuscationSession, ObfuscationSecrets, PartitionSpec, Proteus, ProteusConfig, SealedBucket,
    SentinelMode, ServeConfig, ServeRuntime,
};
use proteus_graph::{
    Activation, BatchNormAttrs, ConvAttrs, Executor, GemmAttrs, Graph, Op, PoolAttrs, Tensor,
    TensorMap,
};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Drains one request's session: its frames and the owner's secrets.
fn drain(
    proteus: &Proteus,
    g: &Graph,
    params: &TensorMap,
) -> (Vec<SealedBucket>, ObfuscationSecrets) {
    let mut session = proteus.obfuscate_session(g, params, 1).expect("obfuscate");
    let frames: Vec<SealedBucket> = session.by_ref().collect();
    (frames, session.finish().expect("secrets"))
}

/// Reassembles a request from its returned frames.
fn reassemble(
    secrets: &ObfuscationSecrets,
    frames: impl IntoIterator<Item = SealedBucket>,
) -> (Graph, TensorMap) {
    let mut session = DeobfuscationSession::new(secrets);
    for frame in frames {
        session.accept(frame).expect("accept");
    }
    session.finish().expect("deobfuscate")
}

/// An executable CNN with residual, BN, pooling, and a classifier head —
/// enough structure to exercise every optimizer rule family.
fn executable_cnn() -> (Graph, TensorMap) {
    let mut g = Graph::new("itest-cnn");
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
    let b2 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c2]);
    let a = g.add(Op::Add, [b2, r1]);
    let r2 = g.add(Op::Activation(Activation::Relu), [a]);
    let p = g.add(Op::MaxPool(PoolAttrs::new(2, 2, 0)), [r2]);
    let d = g.add(Op::Dropout { p: 20 }, [p]);
    let f = g.add(Op::Flatten, [d]);
    let fc = g.add(Op::Gemm(GemmAttrs::new(8 * 6 * 6, 10)), [f]);
    g.set_outputs([fc]);
    let params = TensorMap::init_random(&g, 77);
    (g, params)
}

#[test]
fn protocol_preserves_semantics_for_both_optimizers() {
    let (g, params) = executable_cnn();
    let proteus = Proteus::train(quick_config(3, 4), &[build(ModelKind::ResNet)]).expect("train");
    let (frames, secrets) = drain(&proteus, &g, &params);
    assert_eq!(frames.len(), 4);
    let members: usize = frames.iter().map(|f| f.bucket.members.len()).sum();
    assert_eq!(members, 4 * 4);

    let mut rng = StdRng::seed_from_u64(1);
    let probe = Tensor::random([1, 3, 12, 12], 1.0, &mut rng);
    let expected = Executor::new(&g, &params)
        .run(std::slice::from_ref(&probe))
        .expect("run");

    for profile in [Profile::OrtLike, Profile::HidetLike] {
        let optimizer = Optimizer::new(profile);
        let optimized = frames.iter().map(|f| f.optimize(&optimizer, None));
        let (model, mparams) = reassemble(&secrets, optimized);
        model.validate().expect("valid");
        let got = Executor::new(&model, &mparams)
            .run(std::slice::from_ref(&probe))
            .expect("run");
        assert!(
            got[0].allclose(&expected[0], 1e-2),
            "{profile:?}: outputs diverged by {}",
            got[0].max_abs_diff(&expected[0])
        );
    }
}

#[test]
fn wire_roundtrip_through_the_whole_protocol() {
    let (g, params) = executable_cnn();
    let proteus =
        Proteus::train(quick_config(2, 3), &[build(ModelKind::MobileNet)]).expect("train");
    let (frames, secrets) = drain(&proteus, &g, &params);

    // owner -> bytes -> service -> bytes -> owner, one frame at a time
    let optimizer = Optimizer::new(Profile::OrtLike);
    let mut reassembly = DeobfuscationSession::new(&secrets);
    for frame in &frames {
        let wire = frame.to_mux_bytes(secrets.request_id);
        let (rid, received) = SealedBucket::from_mux_bytes(wire).expect("decode");
        let wire_back = received.optimize(&optimizer, None).to_mux_bytes(rid);
        reassembly.accept_mux_bytes(wire_back).expect("accept");
    }
    let (model, mparams) = reassembly.finish().expect("deobfuscate");

    let mut rng = StdRng::seed_from_u64(2);
    let probe = Tensor::random([1, 3, 12, 12], 1.0, &mut rng);
    let expected = Executor::new(&g, &params)
        .run(std::slice::from_ref(&probe))
        .expect("run");
    let got = Executor::new(&model, &mparams).run(&[probe]).expect("run");
    assert!(got[0].allclose(&expected[0], 1e-2));
}

#[test]
fn perturb_mode_protocol_roundtrip() {
    let (g, params) = executable_cnn();
    let mut config = quick_config(3, 3);
    config.mode = SentinelMode::Perturb;
    let proteus = Proteus::train(config, &[build(ModelKind::ResNet)]).expect("train");
    let runtime = ServeRuntime::new(Optimizer::new(Profile::OrtLike), ServeConfig::default())
        .expect("runtime");
    let (model, mparams) = runtime
        .serve_request(&proteus, &g, &params, 3)
        .expect("serve request");
    let mut rng = StdRng::seed_from_u64(3);
    let probe = Tensor::random([1, 3, 12, 12], 1.0, &mut rng);
    let expected = Executor::new(&g, &params)
        .run(std::slice::from_ref(&probe))
        .expect("run");
    let got = Executor::new(&model, &mparams).run(&[probe]).expect("run");
    assert!(got[0].allclose(&expected[0], 1e-2));
}

#[test]
fn zoo_models_structural_protocol() {
    // structure-only (no weights): every zoo model obfuscates and
    // reassembles into a graph with identical opcode multiset and shapes
    let proteus = Proteus::train(quick_config(1, 6), &[build(ModelKind::ResNet)]).expect("train");
    for kind in [
        ModelKind::GoogleNet,
        ModelKind::DistilBert,
        ModelKind::MnasNet,
    ] {
        let g = build(kind);
        let (frames, secrets) = drain(&proteus, &g, &TensorMap::new());
        let (back, _) = reassemble(&secrets, frames);
        assert_eq!(back.len(), g.len(), "{kind}");
        proteus_graph::infer_shapes(&back).unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn sentinels_in_buckets_are_valid_graphs() {
    let (g, params) = executable_cnn();
    let proteus =
        Proteus::train(quick_config(4, 3), &[build(ModelKind::GoogleNet)]).expect("train");
    let (frames, secrets) = drain(&proteus, &g, &params);
    for (bi, frame) in frames.iter().enumerate() {
        let b = &frame.bucket;
        for (mi, m) in b.members.iter().enumerate() {
            m.graph
                .validate()
                .unwrap_or_else(|e| panic!("bucket {bi} member {mi}: {e}"));
        }
        // exactly one member is the real one
        assert!(secrets.real_positions[bi] < b.members.len());
    }
}
