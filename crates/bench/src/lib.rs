//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each `src/bin/fig*.rs` binary reproduces one experiment; this library
//! holds the protocol code they share: leave-one-out sentinel factories,
//! bucket construction, the partition→optimize→reassemble latency pipeline,
//! and table printing. See EXPERIMENTS.md for the experiment index.

use proteus::{random_opcode_sentinels, Proteus, ProteusConfig, SentinelMode};
use proteus_adversary::{
    Example, LabelledBucket, SageClassifier, SageConfig, StructuralAttacker, StructuralConfig,
    StructuralExample,
};
use proteus_graph::{Graph, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, zoo, ModelKind};
use proteus_opt::{Optimizer, Profile};
use proteus_partition::{partition_balanced, partition_by_size, PartitionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Returns `(unoptimized, best_attainable, proteus)` latency estimates in
/// microseconds for a model under a profile (the three bars of Figure 4).
///
/// "Proteus" optimizes each partition independently and reassembles —
/// optimizations cannot cross partition boundaries, which is where the
/// slowdown relative to Best Attainable comes from.
pub fn latency_triple(
    graph: &Graph,
    profile: Profile,
    target_size: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let optimizer = Optimizer::new(profile);
    let unopt = optimizer.estimate_us(graph).expect("model infers");
    let (best_graph, _, _) = optimizer.optimize(graph, &TensorMap::new());
    let best = optimizer
        .estimate_us(&best_graph)
        .expect("optimized infers");

    let assignment = partition_by_size(graph, target_size, 16, seed);
    let plan =
        PartitionPlan::extract(graph, &TensorMap::new(), &assignment).expect("extraction succeeds");
    let optimized: Vec<(Graph, TensorMap)> = plan
        .pieces
        .iter()
        .map(|p| {
            let (g, params, _) = optimizer.optimize(&p.graph, &p.params);
            (g, params)
        })
        .collect();
    let (merged, _) = plan.reassemble(&optimized).expect("reassembly succeeds");
    let proteus = optimizer.estimate_us(&merged).expect("merged infers");
    (unopt, best, proteus)
}

/// Same as [`latency_triple`] but with an explicit partition count and the
/// option to disable the balance restarts (the `--raw-ks` ablation).
pub fn latency_triple_n(
    graph: &Graph,
    profile: Profile,
    n: usize,
    balanced: bool,
    seed: u64,
) -> (f64, f64, f64) {
    let optimizer = Optimizer::new(profile);
    let unopt = optimizer.estimate_us(graph).expect("model infers");
    let (best_graph, _, _) = optimizer.optimize(graph, &TensorMap::new());
    let best = optimizer
        .estimate_us(&best_graph)
        .expect("optimized infers");
    let restarts = if balanced { 16 } else { 1 };
    let assignment = partition_balanced(graph, n, restarts, seed);
    let plan =
        PartitionPlan::extract(graph, &TensorMap::new(), &assignment).expect("extraction succeeds");
    let optimized: Vec<(Graph, TensorMap)> = plan
        .pieces
        .iter()
        .map(|p| {
            let (g, params, _) = optimizer.optimize(&p.graph, &p.params);
            (g, params)
        })
        .collect();
    let (merged, _) = plan.reassemble(&optimized).expect("reassembly succeeds");
    let proteus = optimizer.estimate_us(&merged).expect("merged infers");
    (unopt, best, proteus)
}

/// Experiment-scale knobs shared by the attack harnesses.
#[derive(Debug, Clone, Copy)]
pub struct AttackScale {
    /// Sentinels per protected subgraph for the attacked model (`k`).
    pub k: usize,
    /// Sentinels per training subgraph (classifier training data).
    pub k_train: usize,
    /// GraphRNN epochs.
    pub rnn_epochs: usize,
    /// GraphRNN sample-pool size.
    pub pool: usize,
    /// GNN classifier epochs.
    pub gnn_epochs: usize,
}

impl AttackScale {
    /// Paper-scale settings.
    pub fn full() -> AttackScale {
        AttackScale {
            k: 20,
            k_train: 4,
            rnn_epochs: 10,
            pool: 150,
            gnn_epochs: 8,
        }
    }

    /// Reduced settings for `--quick` runs.
    pub fn quick() -> AttackScale {
        AttackScale {
            k: 8,
            k_train: 2,
            rnn_epochs: 4,
            pool: 60,
            gnn_epochs: 5,
        }
    }
}

/// Subgraph material for one model: the real pieces plus Proteus and
/// random-opcode sentinels for each piece.
#[derive(Debug)]
pub struct ModelMaterial {
    pub kind: ModelKind,
    pub n: usize,
    pub pieces: Vec<Graph>,
    pub proteus_sentinels: Vec<Vec<Graph>>,
    pub baseline_sentinels: Vec<Vec<Graph>>,
}

/// Builds the leave-one-out sentinel material for `kind`: the factory is
/// trained on every model in the zoo registry *except* the protected one
/// (paper §5.3.2 protocol, extended to the full registry), then generates
/// `k` sentinels per piece.
pub fn build_material(kind: ModelKind, n: usize, scale: AttackScale, seed: u64) -> ModelMaterial {
    let corpus: Vec<Graph> = zoo::all()
        .iter()
        .filter(|e| e.kind != kind)
        .map(|e| (e.build)())
        .collect();
    let config = ProteusConfig {
        k: scale.k,
        graphrnn: GraphRnnConfig {
            epochs: scale.rnn_epochs,
            ..Default::default()
        },
        topology_pool: scale.pool,
        seed,
        ..Default::default()
    };
    let proteus = Proteus::train(config, &corpus).expect("train");
    let graph = build(kind);
    let assignment = partition_balanced(&graph, n, 16, seed);
    let plan = PartitionPlan::extract(&graph, &TensorMap::new(), &assignment)
        .expect("extraction succeeds");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
    let mut pieces = Vec::new();
    let mut proteus_sentinels = Vec::new();
    let mut baseline_sentinels = Vec::new();
    for piece in &plan.pieces {
        let s =
            proteus
                .factory()
                .generate(&piece.graph, scale.k, SentinelMode::Generative, &mut rng);
        let b = random_opcode_sentinels(
            &piece.graph,
            scale.k,
            proteus.factory().sampler(),
            proteus.config().beta,
            &mut rng,
        );
        pieces.push(piece.graph.clone());
        proteus_sentinels.push(s);
        baseline_sentinels.push(b);
    }
    ModelMaterial {
        kind,
        n,
        pieces,
        proteus_sentinels,
        baseline_sentinels,
    }
}

/// Labelled buckets for the attack evaluation.
pub fn buckets_of(material: &ModelMaterial, use_baseline: bool) -> Vec<LabelledBucket> {
    material
        .pieces
        .iter()
        .zip(if use_baseline {
            &material.baseline_sentinels
        } else {
            &material.proteus_sentinels
        })
        .map(|(real, sentinels)| LabelledBucket {
            real: real.clone(),
            sentinels: sentinels.clone(),
        })
        .collect()
}

/// Training examples from *other* models' material (leave-one-out).
pub fn training_examples(
    materials: &[ModelMaterial],
    holdout: ModelKind,
    use_baseline: bool,
    k_train: usize,
) -> Vec<Example> {
    let mut out = Vec::new();
    for m in materials.iter().filter(|m| m.kind != holdout) {
        let sentinels = if use_baseline {
            &m.baseline_sentinels
        } else {
            &m.proteus_sentinels
        };
        for (piece, fakes) in m.pieces.iter().zip(sentinels) {
            out.push(Example::new(piece, false));
            for f in fakes.iter().take(k_train) {
                out.push(Example::new(f, true));
            }
        }
    }
    out
}

/// Trains the paper's GNN adversary on the leave-one-out example set.
pub fn train_adversary(examples: &[Example], epochs: usize, seed: u64) -> SageClassifier {
    let mut clf = SageClassifier::new(
        SageConfig {
            epochs,
            ..Default::default()
        },
        seed,
    );
    clf.train(examples, seed ^ 0x1234);
    clf
}

/// Structural-attacker training examples from *other* models' material
/// (leave-one-out), featurized with the whole-graph summary.
pub fn structural_examples(
    materials: &[ModelMaterial],
    holdout: ModelKind,
    use_baseline: bool,
    k_train: usize,
) -> Vec<StructuralExample> {
    let mut out = Vec::new();
    for m in materials.iter().filter(|m| m.kind != holdout) {
        let sentinels = if use_baseline {
            &m.baseline_sentinels
        } else {
            &m.proteus_sentinels
        };
        for (piece, fakes) in m.pieces.iter().zip(sentinels) {
            out.push(StructuralExample::new(piece, false));
            for f in fakes.iter().take(k_train) {
                out.push(StructuralExample::new(f, true));
            }
        }
    }
    out
}

/// Trains the learned structural attacker on the leave-one-out set.
pub fn train_structural_adversary(
    examples: &[StructuralExample],
    epochs: usize,
    seed: u64,
) -> StructuralAttacker {
    let mut clf = StructuralAttacker::new(
        StructuralConfig {
            epochs,
            ..Default::default()
        },
        seed,
    );
    clf.train(examples, seed ^ 0x1234);
    clf
}

/// Mean of a seeded measurement over a fixed seed set — the de-flake
/// pattern for adversary accuracy pins: single training draws are noisy,
/// so bands are pinned on the average over ≥3 fixed seeds.
///
/// # Panics
/// Panics if `seeds` is empty.
pub fn mean_over_seeds(seeds: &[u64], mut f: impl FnMut(u64) -> f64) -> f64 {
    assert!(!seeds.is_empty(), "seed averaging needs at least one seed");
    seeds.iter().map(|&s| f(s)).sum::<f64>() / seeds.len() as f64
}

/// The fixed seed set used by the adversary regression suites, overridable
/// via `PROTEUS_ADVERSARY_SEEDS` (comma-separated u64s) so CI can run the
/// same bands under alternate seeds.
pub fn adversary_seeds() -> Vec<u64> {
    match std::env::var("PROTEUS_ADVERSARY_SEEDS") {
        Ok(csv) => {
            let seeds: Vec<u64> = csv
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("PROTEUS_ADVERSARY_SEEDS: bad u64 `{s}`"))
                })
                .collect();
            assert!(!seeds.is_empty(), "PROTEUS_ADVERSARY_SEEDS is empty");
            seeds
        }
        Err(_) => vec![0x5EED, 0xBEEF, 0xCAFE],
    }
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect();
    println!("| {} |", row.join(" | "));
}

/// Prints a table header with a separator line.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_triple_orders_sanely() {
        let g = build(ModelKind::ResNet);
        let (unopt, best, proteus) = latency_triple(&g, Profile::OrtLike, 8, 42);
        assert!(best < unopt, "best {best} !< unopt {unopt}");
        assert!(
            proteus >= best * 0.999,
            "proteus {proteus} beats best {best}?"
        );
        assert!(proteus < unopt, "proteus {proteus} !< unopt {unopt}");
    }

    #[test]
    fn quick_material_has_expected_shape() {
        let scale = AttackScale {
            k: 2,
            k_train: 1,
            rnn_epochs: 1,
            pool: 15,
            gnn_epochs: 1,
        };
        let m = build_material(ModelKind::AlexNet, 3, scale, 7);
        assert_eq!(m.pieces.len(), 3);
        assert!(m.proteus_sentinels.iter().all(|s| s.len() == 2));
        assert!(m.baseline_sentinels.iter().all(|s| s.len() == 2));
    }
}
