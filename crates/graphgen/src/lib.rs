//! Sentinel topology generation for Proteus (paper §4.1.2, Algorithms 1 & 3).
//!
//! The pipeline implemented here mirrors the paper's topology-selection
//! stage end to end:
//!
//! 1. [`graphrnn::GraphRnn`] — an autoregressive generator (GraphRNN-S)
//!    trained on BFS adjacency sequences ([`bfs_seq`]) of real model
//!    subgraphs, producing a pool of realistic undirected topologies.
//! 2. [`sample::TopologySampler`] — Algorithm 1: importance sampling from
//!    the pool so that the sentinel graph statistics form a uniform band
//!    around the protected subgraph's statistics.
//! 3. [`orient::induce_orientation`] — Algorithm 3: converting undirected
//!    samples into DAGs via diameter-endpoint BFS orientation.
//! 4. [`mod@perturb`] — the alternative generator for protected models that
//!    resemble popular architectures.
//!
//! ```
//! use proteus_graphgen::{GraphRnn, GraphRnnConfig, UGraph, induce_orientation};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // a tiny corpus of chain topologies
//! let corpus: Vec<UGraph> = (5..9).map(|n| {
//!     let mut g = UGraph::new(n);
//!     for i in 1..n { g.add_edge(i - 1, i); }
//!     g
//! }).collect();
//!
//! let mut model = GraphRnn::new(GraphRnnConfig { epochs: 2, ..Default::default() }, 0);
//! model.train(&corpus, 1);
//! let mut rng = StdRng::seed_from_u64(2);
//! let topo = model.sample(&mut rng);
//! let dag = induce_orientation(&topo);
//! assert!(dag.is_acyclic());
//! ```

pub mod bfs_seq;
pub mod density;
pub mod graphrnn;
pub mod orient;
pub mod perturb;
pub mod sample;
pub mod ugraph;

pub use density::{Kde1d, StatsDensity};
pub use graphrnn::{GraphRnn, GraphRnnConfig};
pub use orient::induce_orientation;
pub use perturb::{perturb, perturb_many, PerturbConfig};
pub use sample::TopologySampler;
pub use ugraph::{Dag, UGraph};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn arb_ugraph() -> impl Strategy<Value = UGraph> {
        (
            2usize..20,
            proptest::collection::vec((0usize..40, 0usize..40), 1..60),
        )
            .prop_map(|(n, pairs)| {
                let mut g = UGraph::new(n);
                // spanning chain keeps it connected
                for i in 1..n {
                    g.add_edge(i - 1, i);
                }
                for (a, b) in pairs {
                    g.add_edge(a % n, b % n);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn orientation_yields_dag_with_all_edges(g in arb_ugraph()) {
            let dag = induce_orientation(&g);
            prop_assert!(dag.is_acyclic());
            prop_assert_eq!(dag.edges().len(), g.edge_count());
            prop_assert_eq!(dag.len(), g.len());
        }

        #[test]
        fn bfs_roundtrip_with_full_lookback(g in arb_ugraph(), seed in 0u64..100) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let seq = bfs_seq::encode(&g, g.len(), &mut rng);
            let back = seq.to_graph();
            prop_assert_eq!(back.edge_count(), g.edge_count());
        }
    }
}
