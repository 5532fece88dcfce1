//! Figures 8/9 and Appendix A.2: the tunable-parameter tradeoff table and
//! the measured compilation-overhead of optimizing a bucket versus the
//! original model.
//!
//! Usage: `cargo run --release -p proteus-bench --bin fig9 [-- --quick]`

use proteus::{PartitionSpec, Proteus, ProteusConfig, SealedBucket};
use proteus_adversary::analytic_log10_candidates;
use proteus_bench::{print_header, print_row};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("\n== Figure 8: tunable parameters ==\n");
    println!("  n  - number of graph partitions generated from the protected graph");
    println!("  k  - number of sentinel subgraphs generated per protected subgraph");

    println!("\n== Figure 9: analytic tradeoffs ==\n");
    let widths = [38usize, 22];
    print_header(&["item", "cost"], &widths);
    print_row(
        &["recovery cost of adversary".into(), "O((k+1)^n)".into()],
        &widths,
    );
    print_row(
        &["computational overhead of optimizer".into(), "O(k)".into()],
        &widths,
    );
    print_row(
        &["quality of model optimizations".into(), "see fig10".into()],
        &widths,
    );

    println!("\nSearch-space size for representative (n, k) at specificity 0:\n");
    let widths2 = [6usize, 6, 22];
    print_header(&["n", "k", "log10 candidates"], &widths2);
    for (n, k) in [(10usize, 20usize), (16, 20), (25, 20), (24, 50), (83, 20)] {
        print_row(
            &[
                n.to_string(),
                k.to_string(),
                format!("{:.1}", analytic_log10_candidates(n, k, 0.0)),
            ],
            &widths2,
        );
    }

    // A.2: measured compilation overhead — optimizing the bucket costs
    // ~(k+1)x the original compile time.
    let k = if quick { 3 } else { 10 };
    println!("\n== Appendix A.2: compilation overhead (measured, k = {k}) ==\n");
    let corpus: Vec<_> = [ModelKind::MobileNet, ModelKind::GoogleNet]
        .iter()
        .map(|&m| build(m))
        .collect();
    let config = ProteusConfig {
        k,
        partitions: PartitionSpec::TargetSize(8),
        graphrnn: GraphRnnConfig {
            epochs: if quick { 2 } else { 6 },
            ..Default::default()
        },
        topology_pool: if quick { 30 } else { 100 },
        ..Default::default()
    };
    let proteus = Proteus::train(config, &corpus).expect("train");
    let optimizer = Optimizer::new(Profile::OrtLike);
    let widths3 = [12usize, 14, 14, 10];
    print_header(&["model", "direct (ms)", "bucket (ms)", "ratio"], &widths3);
    for kind in [ModelKind::ResNet, ModelKind::DistilBert] {
        let g = build(kind);
        let t0 = Instant::now();
        let _ = optimizer.optimize(&g, &TensorMap::new());
        let direct = t0.elapsed().as_secs_f64() * 1e3;

        let frames: Vec<SealedBucket> = proteus
            .obfuscate_session(&g, &TensorMap::new(), 0)
            .expect("obfuscate")
            .collect();
        let t1 = Instant::now();
        for frame in &frames {
            let _ = frame.optimize(&optimizer, Some(1));
        }
        let bucketed = t1.elapsed().as_secs_f64() * 1e3;
        print_row(
            &[
                kind.to_string(),
                format!("{direct:.1}"),
                format!("{bucketed:.1}"),
                format!("{:.1}x", bucketed / direct),
            ],
            &widths3,
        );
    }
    println!("\n(paper: a k-fold compile-time increase, e.g. 6 s -> ~5 min at k = 50;");
    println!(" the ratio ~= k+1 since every bucket member is compiled once)");
}
