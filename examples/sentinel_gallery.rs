//! Render real subgraphs and Proteus sentinels side by side as Graphviz
//! DOT, like the paper's survey material and appendix Figures 12/13.
//! Pipe any block into `dot -Tpng` to see it.
//!
//! Run with: `cargo run --release --example sentinel_gallery`

use proteus::{Proteus, ProteusConfig, SentinelMode};
use proteus_graph::{dot::to_dot, GraphStats, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_partition::{partition_by_size, PartitionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ProteusConfig {
        k: 2,
        graphrnn: GraphRnnConfig {
            epochs: 5,
            ..Default::default()
        },
        topology_pool: 80,
        ..Default::default()
    };
    let corpus: Vec<_> = [
        ModelKind::ResNet,
        ModelKind::MobileNet,
        ModelKind::GoogleNet,
    ]
    .iter()
    .map(|&k| build(k))
    .collect();
    let proteus = Proteus::train(config, &corpus)?;
    let mut rng = StdRng::seed_from_u64(2024);

    // pick survey-sized pieces from two very different models
    for kind in [ModelKind::SEResNet, ModelKind::DistilBert] {
        let g = build(kind);
        let a = partition_by_size(&g, 10, 8, 17);
        let plan = PartitionPlan::extract(&g, &TensorMap::new(), &a)?;
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

        let ps = GraphStats::of(&piece);
        let ss = GraphStats::of(&sentinel);
        println!("//==================================================================");
        println!(
            "// {kind}: REAL subgraph ({} nodes, avg deg {:.2}, diam {})",
            piece.len(),
            ps.avg_degree,
            ps.diameter
        );
        println!("//==================================================================");
        println!("{}", to_dot(&piece));
        println!("//------------------------------------------------------------------");
        println!(
            "// {kind}: SENTINEL ({} nodes, avg deg {:.2}, diam {})",
            sentinel.len(),
            ss.avg_degree,
            ss.diameter
        );
        println!("//------------------------------------------------------------------");
        println!("{}", to_dot(&sentinel));
    }
    println!("// Render with: cargo run --example sentinel_gallery | csplit - '/^\\/\\/====/' ...");
    println!("// or paste a digraph block into https://dreampuf.github.io/GraphvizOnline");
    Ok(())
}
