//! Graph → tensor featurization for the GNN adversary.
//!
//! Mirrors the paper's classifier input (Figure 7): per-node operator
//! information (one-hot opcode embedding input) plus the adjacency
//! structure. Degree features are appended so arity-implausible operator
//! placements (the tell of naive sentinels) are visible to the model.

use proteus_graph::{Graph, NodeId, OpCode};
use proteus_nn::Matrix;
use std::collections::HashMap;

/// Width of the per-node feature vector.
pub const NODE_FEATURES: usize = OpCode::COUNT + 2;

/// Number of coarse opcode classes in the structural summary histogram.
const OPCODE_CLASSES: usize = 7;

/// Width of the whole-graph structural summary vector.
pub const SUMMARY_FEATURES: usize = 8 + OPCODE_CLASSES;

/// Coarse class of an opcode for the summary histogram: contraction-heavy
/// (conv), dense (gemm/matmul), normalization, activation, data movement,
/// reduction, and everything else.
fn opcode_class(code: OpCode) -> usize {
    match code {
        OpCode::Conv => 0,
        OpCode::Gemm | OpCode::MatMul | OpCode::MatMulT => 1,
        OpCode::BatchNorm | OpCode::LayerNorm | OpCode::SkipLayerNorm | OpCode::Softmax => 2,
        c if OpCode::ACTIVATIONS.contains(&c) => 3,
        OpCode::Concat
        | OpCode::Flatten
        | OpCode::Reshape
        | OpCode::Transpose
        | OpCode::Identity
        | OpCode::Gather => 4,
        OpCode::MaxPool | OpCode::AveragePool | OpCode::GlobalAveragePool | OpCode::ReduceMean => 5,
        _ => 6,
    }
}

/// Whole-graph structural summary: normalized size/degree/branching
/// statistics plus a coarse opcode-class histogram. This is the
/// fixed-width side input of the learned structural attacker — the
/// statistics the provenance-sanitization literature identifies as the
/// residual leakage channels of a sanitized graph.
pub fn structural_summary(graph: &Graph) -> Vec<f32> {
    let ids = graph.node_ids();
    let n = ids.len();
    let mut v = vec![0.0f32; SUMMARY_FEATURES];
    if n == 0 {
        return v;
    }
    let succ = graph.successors();
    let mut edges = 0usize;
    let mut branches = 0usize; // nodes feeding >1 consumer
    let mut merges = 0usize; // nodes with >1 operand
    let mut max_in = 0usize;
    let mut max_out = 0usize;
    let mut skip_edges = 0usize; // edges spanning >1 position in topo order
    let order = graph.topo_order().unwrap_or_else(|_| ids.clone());
    let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    for &id in &ids {
        let node = graph.node(id).expect("live");
        let indeg = node.inputs.len();
        let outdeg = succ.get(&id).map(|s| s.len()).unwrap_or(0);
        edges += indeg;
        max_in = max_in.max(indeg);
        max_out = max_out.max(outdeg);
        if outdeg > 1 {
            branches += 1;
        }
        if indeg > 1 {
            merges += 1;
        }
        for &src in &node.inputs {
            if pos[&id].saturating_sub(pos[&src]) > 1 {
                skip_edges += 1;
            }
        }
        v[8 + opcode_class(node.op.opcode())] += 1.0;
    }
    // longest path (critical depth) via DP over the topological order
    let mut depth: HashMap<NodeId, usize> = HashMap::new();
    let mut max_depth = 0usize;
    for &id in &order {
        let node = graph.node(id).expect("live");
        let d = 1 + node
            .inputs
            .iter()
            .map(|src| depth.get(src).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        max_depth = max_depth.max(d);
        depth.insert(id, d);
    }
    let nf = n as f32;
    v[0] = nf / 100.0;
    v[1] = edges as f32 / nf;
    v[2] = max_in as f32 / 8.0;
    v[3] = max_out as f32 / 8.0;
    v[4] = branches as f32 / nf;
    v[5] = merges as f32 / nf;
    v[6] = skip_edges as f32 / edges.max(1) as f32;
    v[7] = max_depth as f32 / 100.0;
    for c in 0..OPCODE_CLASSES {
        v[8 + c] /= nf;
    }
    v
}

/// Featurized graph: node features and a row-normalized (undirected)
/// neighbor-aggregation matrix.
#[derive(Debug, Clone)]
pub struct GraphFeatures {
    /// `n x NODE_FEATURES` node feature matrix.
    pub nodes: Matrix,
    /// `n x n` row-normalized adjacency (mean aggregator).
    pub agg: Matrix,
}

impl GraphFeatures {
    /// Extracts features from a computational graph.
    pub fn of(graph: &Graph) -> GraphFeatures {
        let ids = graph.node_ids();
        let n = ids.len().max(1);
        let mut nodes = Matrix::zeros(n, NODE_FEATURES);
        let succ = graph.successors();
        for (row, &id) in ids.iter().enumerate() {
            let node = graph.node(id).expect("live");
            nodes.set(row, node.op.opcode().index(), 1.0);
            // normalized in/out degree
            nodes.set(row, OpCode::COUNT, node.inputs.len() as f32 / 4.0);
            nodes.set(
                row,
                OpCode::COUNT + 1,
                succ.get(&id).map(|s| s.len()).unwrap_or(0) as f32 / 4.0,
            );
        }
        let mut agg = Matrix::zeros(n, n);
        // adjacency rows are in `ids` order
        for (row, neighbors) in graph.undirected_adjacency().iter().enumerate() {
            if neighbors.is_empty() {
                agg.set(row, row, 1.0); // self-loop for isolated nodes
                continue;
            }
            let w = 1.0 / neighbors.len() as f32;
            for &nb in neighbors {
                agg.set(row, nb, w);
            }
        }
        GraphFeatures { nodes, agg }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.rows()
    }

    /// True when the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.rows() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::{Activation, Op};

    #[test]
    fn features_have_expected_shape() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let r = g.add(Op::Activation(Activation::Relu), [x]);
        let s = g.add(Op::Add, [x, r]);
        g.set_outputs([s]);
        let f = GraphFeatures::of(&g);
        assert_eq!(f.len(), 3);
        assert_eq!(f.nodes.cols(), NODE_FEATURES);
        assert_eq!((f.agg.rows(), f.agg.cols()), (3, 3));
    }

    #[test]
    fn opcode_onehot_set() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let r = g.add(Op::Activation(Activation::Relu), [x]);
        g.set_outputs([r]);
        let f = GraphFeatures::of(&g);
        // row order = arena order: input first, relu second
        assert_eq!(f.nodes.get(0, OpCode::Input.index()), 1.0);
        assert_eq!(f.nodes.get(1, OpCode::Relu.index()), 1.0);
        // in-degree of relu is 1 -> 0.25 normalized
        assert_eq!(f.nodes.get(1, OpCode::COUNT), 0.25);
    }

    #[test]
    fn structural_summary_has_fixed_width() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let a = g.add(Op::Activation(Activation::Relu), [x]);
        let b = g.add(Op::Activation(Activation::Tanh), [x]);
        let s = g.add(Op::Add, [a, b]);
        g.set_outputs([s]);
        let v = structural_summary(&g);
        assert_eq!(v.len(), SUMMARY_FEATURES);
        // x feeds two consumers -> one branching node of four
        assert!((v[4] - 0.25).abs() < 1e-6, "branch fraction {}", v[4]);
        // the Add merges two operands -> one merge node of four
        assert!((v[5] - 0.25).abs() < 1e-6, "merge fraction {}", v[5]);
        // opcode-class fractions sum to one
        let hist: f32 = v[8..].iter().sum();
        assert!((hist - 1.0).abs() < 1e-5, "histogram sums to {hist}");
    }

    #[test]
    fn skip_connections_visible_in_summary() {
        // a residual pattern: input -> relu -> add(input) has one edge
        // spanning two topo positions
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let r = g.add(Op::Activation(Activation::Relu), [x]);
        let s = g.add(Op::Add, [x, r]);
        g.set_outputs([s]);
        let v = structural_summary(&g);
        assert!(v[6] > 0.0, "skip fraction should be positive, got {}", v[6]);

        // a pure chain has none
        let mut c = Graph::new("chain");
        let x = c.input([1, 4]);
        let r = c.add(Op::Activation(Activation::Relu), [x]);
        let t = c.add(Op::Activation(Activation::Tanh), [r]);
        c.set_outputs([t]);
        let vc = structural_summary(&c);
        assert_eq!(vc[6], 0.0);
    }

    #[test]
    fn empty_graph_summary_is_zero() {
        let g = Graph::new("empty");
        let v = structural_summary(&g);
        assert_eq!(v, vec![0.0; SUMMARY_FEATURES]);
    }

    #[test]
    fn aggregation_rows_sum_to_one() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let a = g.add(Op::Activation(Activation::Relu), [x]);
        let b = g.add(Op::Activation(Activation::Tanh), [x]);
        let s = g.add(Op::Add, [a, b]);
        g.set_outputs([s]);
        let f = GraphFeatures::of(&g);
        for r in 0..f.agg.rows() {
            let sum: f32 = (0..f.agg.cols()).map(|c| f.agg.get(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }
}
