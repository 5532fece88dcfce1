//! §5.3.3 / Appendix A.8: the expert survey, reproduced mechanically.
//!
//! The paper showed 13 ML researchers 20 subgraphs (10 real from
//! torchvision/HuggingFace, 10 Proteus sentinels of sizes 8-16) and
//! measured 52% accuracy — chance level. Humans judge by visual
//! pattern-matching; `ExpertReviewer` codifies those patterns as explicit
//! rules, so the survey becomes a measurable harness. A sanity arm checks
//! that the same expert *does* beat chance on random-opcode sentinels.
//!
//! Usage: `cargo run --release -p proteus-bench --bin survey [-- --quick] [-- --dot]`

use proteus::{random_opcode_sentinels, Proteus, ProteusConfig, SentinelMode};
use proteus_adversary::ExpertReviewer;
use proteus_bench::AttackScale;
use proteus_graph::{dot::to_dot, Graph, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_partition::{partition_by_size, PartitionPlan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let emit_dot = std::env::args().any(|a| a == "--dot");
    let scale = if quick {
        AttackScale::quick()
    } else {
        AttackScale::full()
    };
    let trials = if quick { 3 } else { 10 };

    // survey pool: real subgraphs of size 8-16 from image + language models
    let sources = [
        ModelKind::ResNet,
        ModelKind::MobileNet,
        ModelKind::GoogleNet,
        ModelKind::DenseNet,
        ModelKind::Bert,
        ModelKind::DistilBert,
    ];
    let mut pieces: Vec<Graph> = Vec::new();
    for kind in sources {
        let g = build(kind);
        let a = partition_by_size(&g, 10, 8, 3);
        let plan = PartitionPlan::extract(&g, &TensorMap::new(), &a).expect("extract");
        pieces.extend(
            plan.pieces
                .iter()
                .map(|p| p.graph.clone())
                .filter(|g| (8..=16).contains(&g.len())),
        );
    }

    let corpus: Vec<Graph> = sources.iter().map(|&k| build(k)).collect();
    let config = ProteusConfig {
        k: 1,
        graphrnn: GraphRnnConfig {
            epochs: scale.rnn_epochs,
            ..Default::default()
        },
        topology_pool: scale.pool,
        ..Default::default()
    };
    let proteus = Proteus::train(config, &corpus).expect("train");
    let expert = ExpertReviewer::default();

    let mut rng = StdRng::seed_from_u64(99);
    let mut proteus_accs = Vec::new();
    let mut baseline_accs = Vec::new();
    for trial in 0..trials {
        let mut reals: Vec<Graph> = pieces.clone();
        reals.shuffle(&mut rng);
        let reals: Vec<Graph> = reals.into_iter().take(10).collect();
        // 10 Proteus sentinels generated from those same pieces
        let mut sentinels = Vec::new();
        let mut ro_sentinels = Vec::new();
        for r in &reals {
            sentinels.extend(
                proteus
                    .factory()
                    .generate(r, 1, SentinelMode::Generative, &mut rng),
            );
            ro_sentinels.extend(random_opcode_sentinels(
                r,
                1,
                proteus.factory().sampler(),
                proteus.config().beta,
                &mut rng,
            ));
        }
        let survey: Vec<(Graph, bool)> = reals
            .iter()
            .map(|g| (g.clone(), false))
            .chain(sentinels.iter().map(|g| (g.clone(), true)))
            .collect();
        proteus_accs.push(expert.accuracy(&survey));
        let ro_survey: Vec<(Graph, bool)> = reals
            .iter()
            .map(|g| (g.clone(), false))
            .chain(ro_sentinels.iter().map(|g| (g.clone(), true)))
            .collect();
        baseline_accs.push(expert.accuracy(&ro_survey));

        if emit_dot && trial == 0 {
            println!("--- sample real subgraph (DOT) ---\n{}", to_dot(&reals[0]));
            println!("--- sample sentinel (DOT) ---\n{}", to_dot(&sentinels[0]));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\n== Survey (A.8): expert identification accuracy over {trials} 20-graph surveys ==\n"
    );
    println!(
        "expert vs Proteus sentinels:       {:.1}%  (paper: 52%, i.e. chance)",
        mean(&proteus_accs) * 100.0
    );
    println!(
        "expert vs random-opcode sentinels: {:.1}%  (sanity arm: should beat chance)",
        mean(&baseline_accs) * 100.0
    );
}
