//! Case study §6.2: optimizing a ResNet-like model (SEResNet).
//!
//! The protected model closely resembles a popular architecture (ResNet
//! with squeeze-excitation blocks), so Proteus uses the *perturbation*
//! sentinel mode. To reproduce:
//! 1. the optimizer attains a solid speedup directly (paper: 1.663x);
//! 2. Proteus keeps most of it (paper: 1.494x, a ~10% penalty);
//! 3. the GNN adversary's search space stays enormous (paper: 1.22e87
//!    with n = 83, k = 20 — our SEResNet is smaller, so n is smaller and
//!    the exponent scales down accordingly).
//!
//! Usage: `cargo run --release -p proteus-bench --bin case_seresnet [-- --quick]`

use proteus::{PartitionSpec, Proteus, ProteusConfig, SentinelMode};
use proteus_adversary::{attack_buckets, LabelledBucket};
use proteus_bench::{train_adversary, AttackScale};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use proteus_partition::{partition_by_size, PartitionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        AttackScale::quick()
    } else {
        AttackScale::full()
    };
    let k = if quick { 6 } else { 20 };

    let model = build(ModelKind::SEResNet);
    println!("\n== Case study: SEResNet ({} nodes) ==\n", model.len());

    let optimizer = Optimizer::new(Profile::OrtLike);
    let unopt = optimizer.estimate_us(&model).expect("infers");
    let (best_graph, _, _) = optimizer.optimize(&model, &TensorMap::new());
    let best = optimizer.estimate_us(&best_graph).expect("infers");
    println!(
        "direct optimization:  speedup {:.3}x  (paper: 1.663x)",
        unopt / best
    );

    let assignment = partition_by_size(&model, 8, 16, 5);
    let plan = PartitionPlan::extract(&model, &TensorMap::new(), &assignment).expect("extract");
    let n = plan.pieces.len();
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
        "with Proteus (n={n}): speedup {:.3}x  (paper: 1.494x, ~10% penalty; penalty here {:.1}%)",
        unopt / proteus_us,
        (proteus_us - best) / best * 100.0
    );

    // perturbation-mode sentinels: the protected model resembles ResNet
    let corpus: Vec<_> = ModelKind::ALL
        .iter()
        .filter(|&&m| m != ModelKind::SEResNet)
        .map(|&m| build(m))
        .collect();
    let config = ProteusConfig {
        k,
        partitions: PartitionSpec::TargetSize(8),
        mode: SentinelMode::Perturb,
        graphrnn: GraphRnnConfig {
            epochs: scale.rnn_epochs,
            ..Default::default()
        },
        topology_pool: scale.pool,
        ..Default::default()
    };
    let proteus = Proteus::train(config, &corpus).expect("train");
    let mut rng = StdRng::seed_from_u64(21);
    let buckets: Vec<LabelledBucket> = plan
        .pieces
        .iter()
        .map(|p| LabelledBucket {
            real: p.graph.clone(),
            sentinels: proteus
                .factory()
                .generate(&p.graph, k, SentinelMode::Perturb, &mut rng),
        })
        .collect();

    // adversary trained on other models' pieces + their perturbation
    // sentinels (it knows the mechanism, per the threat model)
    let mut examples = Vec::new();
    for (i, g) in corpus.iter().take(4).enumerate() {
        let a = partition_by_size(g, 8, 4, i as u64);
        if let Ok(p2) = PartitionPlan::extract(g, &TensorMap::new(), &a) {
            for cp in p2.pieces.iter().take(8) {
                examples.push(proteus_adversary::Example::new(&cp.graph, false));
                for s in proteus.factory().generate(
                    &cp.graph,
                    scale.k_train,
                    SentinelMode::Perturb,
                    &mut rng,
                ) {
                    examples.push(proteus_adversary::Example::new(&s, true));
                }
            }
        }
    }
    let clf = train_adversary(&examples, scale.gnn_epochs, 31);
    let report = attack_buckets(&clf, &buckets);
    println!(
        "\nGNN adversary: specificity = {:.3}, gamma = {:.3}, search space = {} (10^{:.1})",
        report.specificity,
        report.min_gamma,
        report.candidates_string(),
        report.log10_candidates
    );
    println!(
        "(paper: sensitivity 44% at gamma 0.79 -> 1.22e87 candidates with n = 83, k = 20;\n our n = {n}, so compare log10-per-bucket: paper {:.2}, ours {:.2})",
        87.09 / 83.0,
        report.log10_candidates / n as f64
    );
}
