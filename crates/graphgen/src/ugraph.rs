//! Undirected graph and DAG value types used by the topology generator.

use proteus_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A simple undirected graph over `0..n` (the GraphRNN sample space).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UGraph {
    adj: Vec<Vec<usize>>,
}

impl UGraph {
    /// An edgeless graph with `n` nodes.
    pub fn new(n: usize) -> UGraph {
        UGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// Adds an undirected edge (idempotent, ignores self-loops).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v || u >= self.len() || v >= self.len() {
            return;
        }
        if !self.adj[u].contains(&v) {
            self.adj[u].push(v);
            self.adj[v].push(u);
        }
    }

    /// Neighbors of `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// The raw adjacency lists, in their exact in-memory order.
    ///
    /// Neighbor order is kept exactly as built: persisting a trained pool
    /// (see `proteus-core::artifact`) must round-trip the lists verbatim —
    /// not as a canonicalized edge set — so a reloaded pool re-encodes to
    /// the same bytes.
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adj
    }

    /// Rebuilds a graph from raw adjacency lists, preserving neighbor
    /// order exactly (the inverse of [`UGraph::adjacency`]).
    ///
    /// # Errors
    /// Returns a description of the first violation when the lists do not
    /// form a simple undirected graph: an out-of-range endpoint, a
    /// self-loop, a duplicate neighbor, or an asymmetric edge.
    pub fn from_adjacency(adj: Vec<Vec<usize>>) -> Result<UGraph, String> {
        let n = adj.len();
        for (u, neigh) in adj.iter().enumerate() {
            let mut seen = std::collections::HashSet::with_capacity(neigh.len());
            for &v in neigh {
                if v >= n {
                    return Err(format!(
                        "node {u} lists out-of-range neighbor {v} (n = {n})"
                    ));
                }
                if v == u {
                    return Err(format!("node {u} lists a self-loop"));
                }
                if !seen.insert(v) {
                    return Err(format!("node {u} lists neighbor {v} twice"));
                }
                if !adj[v].contains(&u) {
                    return Err(format!("edge {u}-{v} is asymmetric: {v} does not list {u}"));
                }
            }
        }
        Ok(UGraph { adj })
    }

    /// Builds the undirected view of a computational graph, densely
    /// renumbering nodes.
    pub fn from_graph(g: &Graph) -> UGraph {
        let ids = g.node_ids();
        let index: HashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut u = UGraph::new(ids.len());
        for (id, node) in g.iter() {
            for &inp in &node.inputs {
                u.add_edge(index[&inp], index[&id]);
            }
        }
        u
    }

    /// Graph statistics of this topology, summed in node-index order.
    pub fn stats(&self) -> proteus_graph::GraphStats {
        proteus_graph::GraphStats::of_adjacency(&self.adj)
    }

    /// Restricts to the largest connected component, renumbering nodes.
    pub fn largest_component(&self) -> UGraph {
        let comp = proteus_graph::stats::largest_component(&self.adj);
        let mut index = vec![usize::MAX; self.len()];
        for (i, &u) in comp.iter().enumerate() {
            index[u] = i;
        }
        let mut out = UGraph::new(comp.len());
        for &u in &comp {
            for &v in &self.adj[u] {
                out.add_edge(index[u], index[v]);
            }
        }
        out
    }
}

/// An unlabeled DAG over `0..n` — the output of orientation induction and
/// the input to operator population.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Dag {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl Dag {
    /// Builds a DAG from an edge list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Dag {
        for &(u, v) in &edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        }
        Dag { n, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Directed edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Predecessor lists.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            p[v].push(u);
        }
        p
    }

    /// Successor lists.
    pub fn succs(&self) -> Vec<Vec<usize>> {
        let mut s = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            s[u].push(v);
        }
        s
    }

    /// True when the edge relation is acyclic.
    pub fn is_acyclic(&self) -> bool {
        let mut indeg = vec![0usize; self.n];
        for &(_, v) in &self.edges {
            indeg[v] += 1;
        }
        let succs = self.succs();
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = ready.pop() {
            seen += 1;
            for &v in &succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(v);
                }
            }
        }
        seen == self.n
    }

    /// A topological order of the nodes.
    ///
    /// # Panics
    /// Panics if the DAG is cyclic (use [`Dag::is_acyclic`] first).
    pub fn topo_order(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.n];
        for &(_, v) in &self.edges {
            indeg[v] += 1;
        }
        let succs = self.succs();
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = ready.pop() {
            order.push(u);
            for &v in &succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(v);
                }
            }
        }
        assert_eq!(order.len(), self.n, "Dag::topo_order on cyclic graph");
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::{Activation, Op};

    #[test]
    fn ugraph_from_graph_counts() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let a = g.add(Op::Activation(Activation::Relu), [x]);
        let b = g.add(Op::Activation(Activation::Tanh), [x]);
        let c = g.add(Op::Add, [a, b]);
        g.set_outputs([c]);
        let u = UGraph::from_graph(&g);
        assert_eq!(u.len(), 4);
        assert_eq!(u.edge_count(), 4);
        let st = u.stats();
        assert_eq!(st.num_nodes, 4.0);
    }

    #[test]
    fn add_edge_dedups_and_ignores_self_loops() {
        let mut u = UGraph::new(3);
        u.add_edge(0, 1);
        u.add_edge(1, 0);
        u.add_edge(2, 2);
        assert_eq!(u.edge_count(), 1);
        assert_eq!(u.neighbors(2).len(), 0);
    }

    #[test]
    fn largest_component_extraction() {
        let mut u = UGraph::new(5);
        u.add_edge(0, 1);
        u.add_edge(1, 2);
        u.add_edge(3, 4);
        let c = u.largest_component();
        assert_eq!(c.len(), 3);
        assert_eq!(c.edge_count(), 2);
    }

    /// Per-node clustering coefficients of `g`, in index order.
    fn local_clustering(g: &UGraph) -> Vec<f64> {
        let adj = g.adjacency();
        adj.iter()
            .map(|neigh| {
                let k = neigh.len();
                if k < 2 {
                    return 0.0;
                }
                let mut links = 0usize;
                for i in 0..k {
                    for j in (i + 1)..k {
                        if adj[neigh[i]].contains(&neigh[j]) {
                            links += 1;
                        }
                    }
                }
                2.0 * links as f64 / (k * (k - 1)) as f64
            })
            .collect()
    }

    #[test]
    fn clustering_sums_in_index_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 30;
        let mut g = UGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < 0.3 {
                    g.add_edge(u, v);
                }
            }
        }
        let local = local_clustering(&g);
        let want = local.iter().sum::<f64>() / n as f64;
        // the topology is order-sensitive: another summation order moves
        // the last bits
        let reversed = local.iter().rev().sum::<f64>() / n as f64;
        assert_ne!(want.to_bits(), reversed.to_bits());
        for round in 0..32 {
            let fresh = UGraph::from_adjacency(g.adjacency().to_vec()).expect("valid");
            let got = fresh.stats().clustering;
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round {round}: clustering {got:e} is not the index-order sum {want:e}"
            );
        }
    }

    #[test]
    fn dag_acyclicity() {
        let d = Dag::new(3, vec![(0, 1), (1, 2), (0, 2)]);
        assert!(d.is_acyclic());
        assert_eq!(d.topo_order(), vec![0, 1, 2]);
        let c = Dag::new(2, vec![(0, 1), (1, 0)]);
        assert!(!c.is_acyclic());
    }
}
