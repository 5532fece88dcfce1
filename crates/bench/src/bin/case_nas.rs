//! Case study §6.1: optimizing a NAS (NATS-Bench-style) model.
//!
//! The paper's observations to reproduce:
//! 1. the ONNXRuntime-style optimizer *slows the exotic model down*
//!    (paper: 2.15x) because optimizations tuned for common models misfire;
//! 2. Proteus faithfully mirrors that outcome (paper: 2.164x slowdown) —
//!    confidentiality does not mask the optimizer's behaviour, good or bad;
//! 3. the GNN adversary still faces an astronomically large search space
//!    (paper: 1.18e21 with n = 24, k = 50).
//!
//! Usage: `cargo run --release -p proteus-bench --bin case_nas [-- --quick]`

use proteus::{random_opcode_sentinels, PartitionSpec, Proteus, ProteusConfig, SentinelMode};
use proteus_adversary::{attack_buckets, LabelledBucket};
use proteus_bench::{train_adversary, AttackScale};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, nats, ModelKind};
use proteus_opt::{Optimizer, Profile};
use proteus_partition::{partition_balanced, PartitionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        AttackScale::quick()
    } else {
        AttackScale::full()
    };
    let k = if quick { 8 } else { 50 }; // paper's case study uses k = 50
    let n = 24; // paper: n = 24 (avg subgraph size 8)

    let model = nats::sample_conv_rich_model(3, 5);
    println!("\n== Case study: NAS model ({} nodes) ==\n", model.len());

    let optimizer = Optimizer::new(Profile::OrtLike);
    let unopt = optimizer.estimate_us(&model).expect("infers");
    let (best_graph, _, _) = optimizer.optimize(&model, &TensorMap::new());
    let best = optimizer.estimate_us(&best_graph).expect("infers");
    println!(
        "direct optimization:  {unopt:.0} us -> {best:.0} us  (slowdown {:.3}x; paper: 2.15x)",
        best / unopt
    );

    // Proteus path: partition, optimize pieces, reassemble
    let assignment = partition_balanced(&model, n, 16, 9);
    let plan = PartitionPlan::extract(&model, &TensorMap::new(), &assignment).expect("extract");
    let optimized: Vec<_> = plan
        .pieces
        .iter()
        .map(|p| {
            let (g, params, _) = optimizer.optimize(&p.graph, &p.params);
            (g, params)
        })
        .collect();
    let (merged, _) = plan.reassemble(&optimized).expect("reassemble");
    let proteus_us = optimizer.estimate_us(&merged).expect("infers");
    println!(
        "with Proteus (n={n}): {unopt:.0} us -> {proteus_us:.0} us  (slowdown {:.3}x; paper: 2.164x)",
        proteus_us / unopt
    );

    // GNN adversary on the obfuscated buckets
    let corpus: Vec<_> = ModelKind::ALL.iter().map(|&m| build(m)).collect();
    let config = ProteusConfig {
        k,
        partitions: PartitionSpec::Count(n),
        graphrnn: GraphRnnConfig {
            epochs: scale.rnn_epochs,
            ..Default::default()
        },
        topology_pool: scale.pool,
        ..Default::default()
    };
    let proteus = Proteus::train(config, &corpus).expect("train");
    let mut rng = StdRng::seed_from_u64(77);
    let mut buckets = Vec::new();
    let mut train_examples = Vec::new();
    for (i, piece) in plan.pieces.iter().enumerate() {
        let sentinels =
            proteus
                .factory()
                .generate(&piece.graph, k, SentinelMode::Generative, &mut rng);
        buckets.push(LabelledBucket {
            real: piece.graph.clone(),
            sentinels,
        });
        // training data for the adversary: zoo subgraphs + their sentinels
        if i < 4 {
            let corpus_piece = &corpus[i % corpus.len()];
            let a = partition_balanced(corpus_piece, 10, 4, i as u64);
            if let Ok(p2) = PartitionPlan::extract(corpus_piece, &TensorMap::new(), &a) {
                for cp in p2.pieces.iter().take(6) {
                    train_examples.push(proteus_adversary::Example::new(&cp.graph, false));
                    for s in proteus.factory().generate(
                        &cp.graph,
                        scale.k_train,
                        SentinelMode::Generative,
                        &mut rng,
                    ) {
                        train_examples.push(proteus_adversary::Example::new(&s, true));
                    }
                }
            }
        }
    }
    let clf = train_adversary(&train_examples, scale.gnn_epochs, 13);
    let report = attack_buckets(&clf, &buckets);
    println!(
        "\nGNN adversary: gamma = {:.3}, sensitivity held at 1.0, search space = {} (10^{:.1})",
        report.min_gamma,
        report.candidates_string(),
        report.log10_candidates
    );
    println!("(paper: 1.18e21 candidates with n = 24, k = 50)");

    // Also sanity-report the random-opcode collapse on this model.
    let mut rng2 = StdRng::seed_from_u64(78);
    let ro_buckets: Vec<LabelledBucket> = plan
        .pieces
        .iter()
        .map(|p| LabelledBucket {
            real: p.graph.clone(),
            sentinels: random_opcode_sentinels(
                &p.graph,
                k,
                proteus.factory().sampler(),
                proteus.config().beta,
                &mut rng2,
            ),
        })
        .collect();
    let ro_report = attack_buckets(&clf, &ro_buckets);
    println!(
        "random-opcode baseline search space = {} (10^{:.1})",
        ro_report.candidates_string(),
        ro_report.log10_candidates
    );
}
