//! Workspace smoke tests: the core flow of every `examples/` program,
//! exercised through library calls so example rot is caught by tier-1
//! (`cargo test -q`) instead of by someone running the binaries by hand.
//!
//! Each test is a scaled-down mirror of one example:
//! - [`quickstart_flow`] <-> `examples/quickstart.rs`
//! - [`confidential_service_flow`] <-> `examples/confidential_service.rs`
//! - [`adversary_attack_flow`] <-> `examples/adversary_attack.rs`
//! - [`sentinel_gallery_flow`] <-> `examples/sentinel_gallery.rs`

use proteus::{
    random_opcode_sentinels, PartitionSpec, Proteus, ProteusConfig, SealedBucket, SentinelMode,
};
use proteus_adversary::{attack_buckets, Example, LabelledBucket, SageClassifier, SageConfig};
use proteus_graph::{
    dot::to_dot, Activation, ConvAttrs, Executor, Graph, GraphStats, Op, Tensor, TensorMap,
};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use proteus_partition::{partition_by_size, PartitionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The quickstart example's secret model: stride-2 stem plus a residual
/// 3x3 block. Channel counts matter — below ~32 channels the OrtLike
/// profile's Winograd heuristic legitimately backfires (the paper's §6.1
/// NAS observation), so the smoke test must stay in the regime the example
/// demonstrates.
fn secret_cnn() -> (Graph, TensorMap) {
    let mut g = Graph::new("workspace-secret");
    let x = g.input([1, 3, 32, 32]);
    let c1 = g.add(Op::Conv(ConvAttrs::new(3, 64, 3).stride(2).padding(1)), [x]);
    let r1 = g.add(Op::Activation(Activation::Relu), [c1]);
    let c2 = g.add(Op::Conv(ConvAttrs::new(64, 64, 3).padding(1)), [r1]);
    let skip = g.add(Op::Add, [c2, r1]);
    let r2 = g.add(Op::Activation(Activation::Relu), [skip]);
    let gap = g.add(Op::GlobalAveragePool, [r2]);
    g.set_outputs([gap]);
    let params = TensorMap::init_random(&g, 42);
    (g, params)
}

/// One trained pipeline shared by all smoke tests — `Proteus::train` is the
/// slow step and its output is immutable.
fn trained() -> &'static Proteus {
    static PROTEUS: OnceLock<Proteus> = OnceLock::new();
    PROTEUS.get_or_init(|| {
        let config = ProteusConfig {
            k: 2,
            partitions: PartitionSpec::Count(2),
            graphrnn: GraphRnnConfig {
                epochs: 2,
                ..Default::default()
            },
            topology_pool: 20,
            ..Default::default()
        };
        Proteus::train(config, &[build(ModelKind::MobileNet)]).expect("train")
    })
}

/// `examples/quickstart.rs`: obfuscate -> optimize every member ->
/// de-obfuscate -> identical function, non-worse latency estimate.
#[test]
fn quickstart_flow() {
    let (secret, weights) = secret_cnn();
    let proteus = trained();
    let mut session = proteus
        .obfuscate_session(&secret, &weights, 1)
        .expect("obfuscate");
    let frames: Vec<SealedBucket> = session.by_ref().collect();
    let secrets = session.finish().expect("secrets");
    assert_eq!(frames[0].bucket.members.len(), proteus.config().k + 1);

    let optimizer = Optimizer::new(Profile::OrtLike);
    let mut reassembly = proteus.deobfuscate_session(&secrets);
    for frame in &frames {
        reassembly
            .accept(frame.optimize(&optimizer, None))
            .expect("accept");
    }
    let (model, params) = reassembly.finish().expect("deobfuscate");

    let mut rng = StdRng::seed_from_u64(7);
    let probe = Tensor::random([1, 3, 32, 32], 1.0, &mut rng);
    let before = Executor::new(&secret, &weights)
        .run(std::slice::from_ref(&probe))
        .expect("run secret");
    let after = Executor::new(&model, &params)
        .run(std::slice::from_ref(&probe))
        .expect("run optimized");
    let diff = before[0].max_abs_diff(&after[0]);
    assert!(diff < 1e-3, "optimization changed semantics: diff {diff}");

    let t_before = optimizer.estimate_us(&secret).expect("estimate");
    let t_after = optimizer.estimate_us(&model).expect("estimate");
    assert!(
        t_after <= t_before,
        "optimized model slower: {t_after} > {t_before}"
    );
}

/// `examples/confidential_service.rs`: only serialized frames cross the
/// trust boundary, one sealed bucket at a time, in both directions.
#[test]
fn confidential_service_flow() {
    let (secret, weights) = secret_cnn();
    let proteus = trained();
    let optimizer = Optimizer::new(Profile::OrtLike);

    // owner -> service -> owner, frame by frame
    let mut session = proteus
        .obfuscate_session(&secret, &weights, 0xCAFE)
        .expect("session opens");
    let mut returned_wire = Vec::new();
    while let Some(frame) = session.next_frame() {
        // owner seals the frame...
        let wire = frame.to_mux_bytes(0xCAFE);
        assert!(!wire.is_empty());
        // ...the service decodes, optimizes, re-seals...
        let (rid, received) = SealedBucket::from_mux_bytes(wire).expect("service decode");
        assert_eq!(received.bucket.members.len(), proteus.config().k + 1);
        returned_wire.push(received.optimize(&optimizer, None).to_mux_bytes(rid));
    }
    let secrets = session.finish().expect("secrets after all frames");

    // ...and the owner reassembles from frames in any order
    let mut reassembly = proteus.deobfuscate_session(&secrets);
    returned_wire.reverse();
    for wire in returned_wire {
        reassembly.accept_mux_bytes(wire).expect("owner decode");
    }
    let (model, params) = reassembly.finish().expect("reassemble");
    model.validate().expect("reassembled model is well-formed");

    let mut rng = StdRng::seed_from_u64(11);
    let probe = Tensor::random([1, 3, 32, 32], 1.0, &mut rng);
    let before = Executor::new(&secret, &weights)
        .run(std::slice::from_ref(&probe))
        .expect("run secret");
    let after = Executor::new(&model, &params)
        .run(std::slice::from_ref(&probe))
        .expect("run optimized");
    assert!(before[0].allclose(&after[0], 1e-3));
}

/// `examples/adversary_attack.rs`: the GNN adversary attacks buckets of
/// Proteus and of random-opcode baseline sentinels; reports stay sane.
#[test]
fn adversary_attack_flow() {
    let proteus = trained();
    let mut rng = StdRng::seed_from_u64(5);
    let protected = build(ModelKind::ResNet);
    let assignment = partition_by_size(&protected, 10, 8, 3);
    let plan = PartitionPlan::extract(&protected, &TensorMap::new(), &assignment).expect("extract");
    let k = 3;

    let pieces: Vec<&Graph> = plan.pieces.iter().map(|p| &p.graph).take(3).collect();
    let mut buckets = Vec::new();
    let mut examples = Vec::new();
    for piece in &pieces {
        let sentinels = proteus
            .factory()
            .generate(piece, k, SentinelMode::Generative, &mut rng);
        assert_eq!(
            sentinels.len(),
            k,
            "factory must always produce k sentinels"
        );
        for s in &sentinels {
            examples.push(Example::new(s, true));
        }
        examples.push(Example::new(piece, false));
        buckets.push(LabelledBucket {
            real: (*piece).clone(),
            sentinels,
        });
    }
    // The baseline generator rides the same sampler band (paper §5.3.2).
    let baseline = random_opcode_sentinels(
        pieces[0],
        k,
        proteus.factory().sampler(),
        proteus.config().beta,
        &mut rng,
    );
    assert_eq!(baseline.len(), k);

    let mut clf = SageClassifier::new(
        SageConfig {
            epochs: 2,
            ..Default::default()
        },
        11,
    );
    let history = clf.train(&examples, 13);
    assert!(!history.is_empty());
    assert!(history.iter().all(|l| l.is_finite()));

    let report = attack_buckets(&clf, &buckets);
    assert!(
        (0.0..=1.0).contains(&report.min_gamma),
        "min_gamma {} out of range",
        report.min_gamma
    );
    assert!((0.0..=1.0).contains(&report.specificity));
    assert!(report.log10_candidates >= 0.0);
}

/// `examples/sentinel_gallery.rs`: sentinels render as Graphviz DOT with
/// survey-style statistics.
#[test]
fn sentinel_gallery_flow() {
    let proteus = trained();
    let mut rng = StdRng::seed_from_u64(2024);
    let g = build(ModelKind::SEResNet);
    let a = partition_by_size(&g, 10, 8, 17);
    let plan = PartitionPlan::extract(&g, &TensorMap::new(), &a).expect("extract");
    let piece = plan
        .pieces
        .iter()
        .map(|p| p.graph.clone())
        .find(|g| (8..=16).contains(&g.len()))
        .expect("a survey-sized piece exists");
    let sentinel = proteus
        .factory()
        .generate(&piece, 1, SentinelMode::Generative, &mut rng)
        .remove(0);

    for graph in [&piece, &sentinel] {
        let stats = GraphStats::of(graph);
        assert!(stats.avg_degree > 0.0);
        let dot = to_dot(graph);
        assert!(
            dot.starts_with("digraph"),
            "not DOT: {}",
            &dot[..20.min(dot.len())]
        );
        assert!(dot.contains("->"), "DOT output has no edges");
    }
}
