//! Figure 5 / Figure 11: distributions of graph statistics (average degree,
//! clustering coefficient, diameter, node count) for real torchvision-style
//! subgraphs vs Proteus-generated sentinels. The paper's claim: the
//! distributions are close enough that statistics-based identification
//! fails. We report mean/std per group and the Kolmogorov–Smirnov distance,
//! plus the heuristic (stats-likelihood) adversary's accuracy.
//!
//! `--naive` ablates Algorithm 1's importance correction.
//!
//! Usage: `cargo run --release -p proteus-bench --bin fig5 [-- --naive]`

use proteus::{Proteus, ProteusConfig, SentinelMode};
use proteus_adversary::StatsAdversary;
use proteus_bench::{print_header, print_row};
use proteus_graph::stats::{ks_distance, mean_std};
use proteus_graph::{Graph, GraphStats, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_partition::{partition_by_size, PartitionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let naive = std::env::args().any(|a| a == "--naive");
    // real subgraphs from the CNN zoo (the paper compares against
    // torchvision models)
    let cnn_models = [
        ModelKind::AlexNet,
        ModelKind::MobileNet,
        ModelKind::ResNet,
        ModelKind::DenseNet,
        ModelKind::GoogleNet,
        ModelKind::ResNeXt,
        ModelKind::Inception,
        ModelKind::MnasNet,
    ];
    let mut real_pieces: Vec<Graph> = Vec::new();
    for kind in cnn_models {
        let g = build(kind);
        let a = partition_by_size(&g, 8, 8, 11);
        let plan = PartitionPlan::extract(&g, &TensorMap::new(), &a).expect("extract");
        real_pieces.extend(plan.pieces.iter().map(|p| p.graph.clone()));
    }

    let config = ProteusConfig {
        k: 4,
        graphrnn: GraphRnnConfig {
            epochs: 10,
            ..Default::default()
        },
        topology_pool: 200,
        ..Default::default()
    };
    let corpus: Vec<Graph> = cnn_models.iter().map(|&k| build(k)).collect();
    let proteus = Proteus::train(config, &corpus).expect("train");
    let mut rng = StdRng::seed_from_u64(33);

    let mut sentinels: Vec<Graph> = Vec::new();
    for piece in real_pieces.iter().take(60) {
        if naive {
            // ablation: skip the uniform-band importance sampler, drawing
            // topologies straight from the pool density
            let topo = proteus_graphgen::UGraph::from_graph(piece);
            let raw =
                proteus
                    .factory()
                    .sampler()
                    .sample_naive(&topo, proteus.config().beta, 4, &mut rng);
            for t in raw {
                let dag = proteus_graphgen::induce_orientation(&t);
                if let Some(g) = proteus::populate(
                    &dag,
                    proteus::detect_regime(piece),
                    proteus.factory().bigram(),
                    &proteus.config().population,
                    &mut rng,
                ) {
                    sentinels.push(g);
                }
            }
        } else {
            sentinels.extend(proteus.factory().generate(
                piece,
                4,
                SentinelMode::Generative,
                &mut rng,
            ));
        }
    }

    let real_stats: Vec<[f64; 4]> = real_pieces
        .iter()
        .map(|g| GraphStats::of(g).to_vec())
        .collect();
    let gen_stats: Vec<[f64; 4]> = sentinels
        .iter()
        .map(|g| GraphStats::of(g).to_vec())
        .collect();

    println!(
        "\n== Figure 5: graph statistics, real vs generated ({} real, {} sentinel{}) ==\n",
        real_stats.len(),
        gen_stats.len(),
        if naive {
            ", NAIVE sampling ablation"
        } else {
            ""
        }
    );
    let widths = [22usize, 16, 16, 10];
    print_header(
        &["metric", "real mean+-std", "gen mean+-std", "KS dist"],
        &widths,
    );
    for (d, name) in GraphStats::FEATURE_NAMES.iter().enumerate() {
        let real_col: Vec<f64> = real_stats.iter().map(|f| f[d]).collect();
        let gen_col: Vec<f64> = gen_stats.iter().map(|f| f[d]).collect();
        let (rm, rs) = mean_std(&real_col);
        let (gm, gs) = mean_std(&gen_col);
        let ks = ks_distance(&real_col, &gen_col);
        print_row(
            &[
                name.to_string(),
                format!("{rm:.2}+-{rs:.2}"),
                format!("{gm:.2}+-{gs:.2}"),
                format!("{ks:.3}"),
            ],
            &widths,
        );
    }

    // heuristic adversary accuracy on a balanced labelled set
    let adv = StatsAdversary::fit(&real_pieces, 0.05);
    let labelled: Vec<(Graph, bool)> = real_pieces
        .iter()
        .take(sentinels.len())
        .map(|g| (g.clone(), false))
        .chain(sentinels.iter().map(|g| (g.clone(), true)))
        .collect();
    let acc = adv.accuracy(&labelled);
    println!(
        "\nStats-likelihood adversary accuracy: {:.1}% (chance = 50%)",
        acc * 100.0
    );
    println!("(paper: distributions visually indistinguishable; Figure 5/11)");
}
