//! Play the adversary: train the paper's GNN classifier and attack an
//! obfuscated bucket, comparing Proteus sentinels against the
//! random-opcode baseline (paper §5.3.2, Figure 6 in miniature).
//!
//! Run with: `cargo run --release --example adversary_attack`

use proteus::{random_opcode_sentinels, Proteus, ProteusConfig, SentinelMode};
use proteus_adversary::{attack_buckets, Example, LabelledBucket, SageClassifier, SageConfig};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_partition::{partition_by_size, PartitionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 6;
    // The protected model is ResNet; the adversary trains on *other* models.
    let protected = build(ModelKind::ResNet);
    let train_models = [
        ModelKind::MobileNet,
        ModelKind::GoogleNet,
        ModelKind::DenseNet,
    ];

    let config = ProteusConfig {
        k,
        graphrnn: GraphRnnConfig {
            epochs: 4,
            ..Default::default()
        },
        topology_pool: 60,
        ..Default::default()
    };
    let corpus: Vec<_> = train_models.iter().map(|&m| build(m)).collect();
    let proteus = Proteus::train(config, &corpus)?;
    let mut rng = StdRng::seed_from_u64(5);

    // Build the protected model's buckets (what the adversary intercepts).
    let assignment = partition_by_size(&protected, 8, 16, 3);
    let plan = PartitionPlan::extract(&protected, &TensorMap::new(), &assignment)?;
    println!(
        "protected model split into n = {} subgraphs, k = {k}",
        plan.pieces.len()
    );

    let mut proteus_buckets = Vec::new();
    let mut baseline_buckets = Vec::new();
    for piece in &plan.pieces {
        proteus_buckets.push(LabelledBucket {
            real: piece.graph.clone(),
            sentinels: proteus.factory().generate(
                &piece.graph,
                k,
                SentinelMode::Generative,
                &mut rng,
            ),
        });
        baseline_buckets.push(LabelledBucket {
            real: piece.graph.clone(),
            sentinels: random_opcode_sentinels(
                &piece.graph,
                k,
                proteus.factory().sampler(),
                proteus.config().beta,
                &mut rng,
            ),
        });
    }

    // The adversary's training data: other models' pieces + sentinels.
    let mut proteus_examples = Vec::new();
    let mut baseline_examples = Vec::new();
    for (i, g) in corpus.iter().enumerate() {
        let a = partition_by_size(g, 8, 8, i as u64);
        let p = PartitionPlan::extract(g, &TensorMap::new(), &a)?;
        for piece in &p.pieces {
            proteus_examples.push(Example::new(&piece.graph, false));
            baseline_examples.push(Example::new(&piece.graph, false));
            for s in proteus
                .factory()
                .generate(&piece.graph, 2, SentinelMode::Generative, &mut rng)
            {
                proteus_examples.push(Example::new(&s, true));
            }
            for s in random_opcode_sentinels(
                &piece.graph,
                2,
                proteus.factory().sampler(),
                proteus.config().beta,
                &mut rng,
            ) {
                baseline_examples.push(Example::new(&s, true));
            }
        }
    }

    for (name, examples, buckets) in [
        (
            "random-opcode baseline",
            &baseline_examples,
            &baseline_buckets,
        ),
        ("Proteus", &proteus_examples, &proteus_buckets),
    ] {
        let mut clf = SageClassifier::new(
            SageConfig {
                epochs: 6,
                ..Default::default()
            },
            11,
        );
        let history = clf.train(examples, 13);
        let report = attack_buckets(&clf, buckets);
        println!("\n--- attacking {name} sentinels ---");
        println!(
            "classifier training loss: {:.3} -> {:.3}",
            history[0],
            history.last().unwrap()
        );
        println!(
            "min gamma keeping all real subgraphs: {:.3}",
            report.min_gamma
        );
        println!("specificity at that gamma: {:.3}", report.specificity);
        println!(
            "surviving search space: {} architectures (10^{:.1})",
            report.candidates_string(),
            report.log10_candidates
        );
    }
    println!("\nExpected shape (paper Figure 6): the baseline collapses to few");
    println!("candidates; Proteus leaves an astronomically large space.");
    Ok(())
}
