//! Graph statistics used by the sentinel sampler (Algorithm 1) and by
//! heuristic adversaries (paper §5.3.1, Figures 5/11).
//!
//! All metrics treat the computational graph as an *undirected* simple graph,
//! matching the paper's use of GraphRNN (which models undirected topology)
//! and its reported metrics: average degree, clustering coefficient,
//! diameter, and node count.

use crate::graph::Graph;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The four topology statistics Proteus matches between real and sentinel
/// subgraphs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GraphStats {
    /// Mean undirected degree, `2|E| / |V|`.
    pub avg_degree: f64,
    /// Mean local clustering coefficient.
    pub clustering: f64,
    /// Diameter of the largest connected component (in hops).
    pub diameter: f64,
    /// Number of live nodes.
    pub num_nodes: f64,
}

impl GraphStats {
    /// Computes the statistics of a graph's undirected view, its nodes
    /// indexed in node-id order ([`Graph::undirected_adjacency`]).
    pub fn of(graph: &Graph) -> GraphStats {
        Self::of_adjacency(&graph.undirected_adjacency())
    }

    /// Computes the statistics from indexed adjacency: `adj[u]` lists the
    /// neighbours of node `u`, with no duplicates and no self-loops. The
    /// order within a list does not matter; every sum and tie runs in
    /// index order, so the result is the same bits in every process.
    pub fn of_adjacency(adj: &[Vec<usize>]) -> GraphStats {
        let n = adj.len();
        if n == 0 {
            return GraphStats::default();
        }
        let edges2: usize = adj.iter().map(Vec::len).sum();
        let avg_degree = edges2 as f64 / n as f64;
        GraphStats {
            avg_degree,
            clustering: average_clustering(adj),
            diameter: diameter(adj) as f64,
            num_nodes: n as f64,
        }
    }

    /// The statistics as a fixed-order feature vector
    /// `[avg_degree, clustering, diameter, num_nodes]`.
    pub fn to_vec(self) -> [f64; 4] {
        [
            self.avg_degree,
            self.clustering,
            self.diameter,
            self.num_nodes,
        ]
    }

    /// Feature names matching [`GraphStats::to_vec`] order.
    pub const FEATURE_NAMES: [&'static str; 4] =
        ["avg_degree", "clustering", "diameter", "num_nodes"];
}

/// Mean local clustering coefficient of an undirected graph, summed in
/// index order.
pub fn average_clustering(adj: &[Vec<usize>]) -> f64 {
    if adj.is_empty() {
        return 0.0;
    }
    // `owner[v] == u` marks `v` as a neighbour of the node `u` being scored
    let mut owner = vec![usize::MAX; adj.len()];
    let mut total = 0.0;
    for (u, neigh) in adj.iter().enumerate() {
        let k = neigh.len();
        if k < 2 {
            continue;
        }
        for &v in neigh {
            owner[v] = u;
        }
        // every link between two neighbours is seen from both ends
        let ends: usize = neigh
            .iter()
            .map(|&v| adj[v].iter().filter(|&&w| owner[w] == u).count())
            .sum();
        total += ends as f64 / (k * (k - 1)) as f64;
    }
    total / adj.len() as f64
}

/// BFS hop counts from `src`; `None` for unreachable nodes.
pub fn bfs_distances(adj: &[Vec<usize>], src: usize) -> Vec<Option<usize>> {
    let mut dist = vec![None; adj.len()];
    dist[src] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let next = dist[u].map(|d| d + 1);
        for &v in &adj[u] {
            if dist[v].is_none() {
                dist[v] = next;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Diameter (max eccentricity) of the largest connected component.
pub fn diameter(adj: &[Vec<usize>]) -> usize {
    farthest_pair(adj).map_or(0, |(d, _, _)| d)
}

/// Returns the endpoints `(u, v)` of a diameter path of the largest
/// component, used by Algorithm 3 (orientation induction). Deterministic:
/// among the farthest pairs, the smallest `(u, v)`.
pub fn diameter_endpoints(adj: &[Vec<usize>]) -> Option<(usize, usize)> {
    farthest_pair(adj).map(|(_, u, v)| (u, v))
}

/// `(distance, u, v)` of the smallest farthest pair of the largest
/// component.
fn farthest_pair(adj: &[Vec<usize>]) -> Option<(usize, usize, usize)> {
    let component = largest_component(adj);
    let mut best: Option<(usize, usize, usize)> = None;
    // pairs come in increasing `(u, v)` order, so only a strictly longer
    // distance replaces the best pair
    for &u in &component {
        let dist = bfs_distances(adj, u);
        for &v in &component {
            if let Some(d) = dist[v] {
                if best.is_none_or(|(bd, _, _)| d > bd) {
                    best = Some((d, u, v));
                }
            }
        }
    }
    best
}

/// Nodes of the largest connected component in increasing index order
/// (by size, ties by smallest index).
pub fn largest_component(adj: &[Vec<usize>]) -> Vec<usize> {
    let mut seen = vec![false; adj.len()];
    let mut best: Vec<usize> = Vec::new();
    for start in 0..adj.len() {
        if seen[start] {
            continue;
        }
        let dist = bfs_distances(adj, start);
        let comp: Vec<usize> = (0..adj.len()).filter(|&v| dist[v].is_some()).collect();
        for &v in &comp {
            seen[v] = true;
        }
        if comp.len() > best.len() {
            best = comp;
        }
    }
    best
}

/// Kolmogorov–Smirnov distance between two empirical samples.
///
/// Used by the evaluation (Figure 5) to quantify how close sentinel and real
/// graph-statistic distributions are.
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let mut xs: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    xs.sort_by(|p, q| p.partial_cmp(q).expect("no NaN"));
    let cdf = |sample: &[f64], x: f64| -> f64 {
        sample.iter().filter(|&&v| v <= x).count() as f64 / sample.len() as f64
    };
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(|p, q| p.partial_cmp(q).expect("no NaN"));
    sb.sort_by(|p, q| p.partial_cmp(q).expect("no NaN"));
    xs.iter()
        .map(|&x| (cdf(&sa, x) - cdf(&sb, x)).abs())
        .fold(0.0, f64::max)
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Activation, Op};

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new("path");
        let mut prev = g.input([1, 8]);
        for _ in 1..n {
            prev = g.add(Op::Activation(Activation::Relu), [prev]);
        }
        g.set_outputs([prev]);
        g
    }

    fn triangle() -> Graph {
        // x -> a -> add; x -> add  (undirected triangle x-a-add)
        let mut g = Graph::new("tri");
        let x = g.input([4]);
        let a = g.add(Op::Activation(Activation::Relu), [x]);
        let s = g.add(Op::Add, [x, a]);
        g.set_outputs([s]);
        g
    }

    #[test]
    fn path_stats() {
        let g = path_graph(5);
        let st = GraphStats::of(&g);
        assert_eq!(st.num_nodes, 5.0);
        assert_eq!(st.diameter, 4.0);
        assert!((st.avg_degree - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(st.clustering, 0.0);
    }

    #[test]
    fn triangle_clustering_is_one() {
        let g = triangle();
        let st = GraphStats::of(&g);
        assert!((st.clustering - 1.0).abs() < 1e-12);
        assert_eq!(st.diameter, 1.0);
        assert_eq!(st.avg_degree, 2.0);
    }

    #[test]
    fn diameter_endpoints_on_path() {
        let g = path_graph(6);
        let adj = g.undirected_adjacency();
        let (u, v) = diameter_endpoints(&adj).unwrap();
        let dist = bfs_distances(&adj, u);
        assert_eq!(dist[v], Some(5));
    }

    #[test]
    fn ks_distance_extremes() {
        let a = [1.0, 2.0, 3.0];
        assert!(ks_distance(&a, &a) < 1e-12);
        let b = [100.0, 101.0];
        assert!((ks_distance(&a, &b) - 1.0).abs() < 1e-12);
        let c = [1.5, 2.5];
        let d = ks_distance(&a, &c);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn largest_component_of_disconnected() {
        let mut g = path_graph(4);
        // isolated pair
        let i1 = g.input([2]);
        let _i2 = g.add(Op::Activation(Activation::Tanh), [i1]);
        let adj = g.undirected_adjacency();
        assert_eq!(largest_component(&adj).len(), 4);
        assert_eq!(GraphStats::of(&g).num_nodes, 6.0);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }
}
