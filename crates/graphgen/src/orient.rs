//! Orientation induction (paper Algorithm 3, Appendix A.1).
//!
//! GraphRNN generates *undirected* topologies, but computational graphs are
//! DAGs. `induce_orientation` finds the endpoints of a graph diameter,
//! records the BFS visit order from one endpoint, and orients every edge
//! from the earlier-visited node to the later-visited one. Orienting along
//! a single vertex ordering cannot create cycles, so the result is a DAG.

use crate::ugraph::{Dag, UGraph};
use proteus_graph::stats::diameter_endpoints;
use std::collections::VecDeque;

/// Orients an undirected topology into a DAG (Algorithm 3).
///
/// Ties in BFS order are broken by node index, making the result
/// deterministic.
pub fn induce_orientation(g: &UGraph) -> Dag {
    if g.is_empty() {
        return Dag::new(0, Vec::new());
    }
    let start = diameter_endpoints(g.adjacency()).map_or(0, |(u, _)| u);
    // BFS visit order from the diameter endpoint
    let mut ord = vec![usize::MAX; g.len()];
    let mut next = 0usize;
    let mut q = VecDeque::new();
    q.push_back(start);
    ord[start] = next;
    next += 1;
    while let Some(u) = q.pop_front() {
        let mut neigh: Vec<usize> = g.neighbors(u).to_vec();
        neigh.sort_unstable();
        for v in neigh {
            if ord[v] == usize::MAX {
                ord[v] = next;
                next += 1;
                q.push_back(v);
            }
        }
    }
    // unreachable nodes (disconnected inputs) get trailing orders
    for o in ord.iter_mut() {
        if *o == usize::MAX {
            *o = next;
            next += 1;
        }
    }
    let mut edges = Vec::with_capacity(g.edge_count());
    for u in 0..g.len() {
        for &v in g.neighbors(u) {
            if u < v {
                if ord[u] < ord[v] {
                    edges.push((u, v));
                } else {
                    edges.push((v, u));
                }
            }
        }
    }
    edges.sort_unstable();
    Dag::new(g.len(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn orientation_of_path_is_a_chain() {
        let mut g = UGraph::new(5);
        for i in 1..5 {
            g.add_edge(i - 1, i);
        }
        let dag = induce_orientation(&g);
        assert!(dag.is_acyclic());
        assert_eq!(dag.edges().len(), 4);
        // exactly one source and one sink
        let preds = dag.preds();
        let succs = dag.succs();
        assert_eq!(preds.iter().filter(|p| p.is_empty()).count(), 1);
        assert_eq!(succs.iter().filter(|s| s.is_empty()).count(), 1);
    }

    #[test]
    fn orientation_always_acyclic_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [4usize, 8, 16, 25] {
            for _ in 0..20 {
                let mut g = UGraph::new(n);
                for i in 1..n {
                    g.add_edge(i, rng.gen_range(0..i));
                }
                for _ in 0..n / 2 {
                    g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
                }
                let dag = induce_orientation(&g);
                assert!(dag.is_acyclic(), "n={n}");
                assert_eq!(dag.edges().len(), g.edge_count());
            }
        }
    }

    #[test]
    fn orientation_is_deterministic() {
        let mut g = UGraph::new(7);
        for i in 1..7 {
            g.add_edge(i - 1, i);
        }
        g.add_edge(0, 3);
        g.add_edge(2, 5);
        assert_eq!(induce_orientation(&g), induce_orientation(&g));
    }

    #[test]
    fn cycle_graph_becomes_diamond() {
        // 4-cycle: orientation must break the cycle
        let mut g = UGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        let dag = induce_orientation(&g);
        assert!(dag.is_acyclic());
        assert_eq!(dag.edges().len(), 4);
    }
}
