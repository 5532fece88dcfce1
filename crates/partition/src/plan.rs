//! Subgraph extraction and reassembly (paper §4.1.1 and §4.3).
//!
//! [`PartitionPlan::extract`] turns a node→partition assignment into
//! standalone subgraph *pieces* whose cross-partition edges are replaced by
//! `Input` placeholders, and records the wiring needed to splice optimized
//! pieces back into a full model ([`PartitionPlan::reassemble`]). The wiring
//! (`boundary` references) is the "information about subgraph connections
//! tracked when the graph was partitioned" that the paper's de-obfuscation
//! step relies on; it never leaves the model owner.

use crate::contract::Assignment;
use proteus_graph::{infer_shapes, Graph, GraphError, NodeId, Op, TensorMap};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where a piece's boundary input comes from: output `output` of piece
/// `piece`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryRef {
    /// Index of the producing piece in the plan.
    pub piece: usize,
    /// Index into that piece's output list.
    pub output: usize,
}

/// One extracted subgraph plus its interface wiring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Piece {
    /// The standalone subgraph (cut edges replaced by `Input` placeholders).
    pub graph: Graph,
    /// Parameters of the piece's nodes (keyed by piece-local node ids).
    pub params: TensorMap,
    /// For each placeholder input (piece-local id), where its value comes
    /// from in the plan.
    pub boundary: Vec<(NodeId, BoundaryRef)>,
    /// Original node ids corresponding to `graph.outputs()`, in order.
    pub original_outputs: Vec<NodeId>,
}

/// A complete partitioning of a protected model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// The extracted pieces, indexed by partition id.
    pub pieces: Vec<Piece>,
    /// Graph outputs of the original model as piece interface references.
    pub global_outputs: Vec<BoundaryRef>,
    /// Name of the protected model.
    pub model_name: String,
}

impl PartitionPlan {
    /// Extracts standalone subgraphs according to `assignment`.
    ///
    /// Parameters of the original model (`params`) are distributed to the
    /// owning pieces. Placeholder shapes are taken from shape inference on
    /// the original graph.
    ///
    /// # Errors
    /// Propagates shape-inference failures on the original graph (a graph
    /// that does not infer cannot be partitioned faithfully).
    pub fn extract(
        graph: &Graph,
        params: &TensorMap,
        assignment: &Assignment,
    ) -> Result<PartitionPlan, GraphError> {
        let shapes = infer_shapes(graph)?;
        let n_parts = assignment.num_partitions;
        // Each piece creates its nodes in the original topological order,
        // restricted to its partition, so that piece-local inputs already
        // exist: one order, split by partition.
        let mut piece_order: Vec<Vec<NodeId>> = vec![Vec::new(); n_parts];
        for id in graph.topo_order()? {
            piece_order[assignment.partition_of[&id]].push(id);
        }

        // Which original nodes must be interface outputs of their piece:
        // nodes consumed by another partition or listed as graph outputs.
        let mut interface: Vec<Vec<NodeId>> = vec![Vec::new(); n_parts];
        let mut is_interface: HashMap<NodeId, bool> = HashMap::new();
        let succ = graph.successors();
        for (id, _) in graph.iter() {
            let p = assignment.partition_of[&id];
            let crosses = succ[&id].iter().any(|s| assignment.partition_of[s] != p)
                || graph.outputs().contains(&id);
            if crosses {
                interface[p].push(id);
                is_interface.insert(id, true);
            }
        }
        for list in &mut interface {
            list.sort();
        }
        // interface index lookup
        let mut interface_index: HashMap<NodeId, usize> = HashMap::new();
        for list in &interface {
            for (j, &id) in list.iter().enumerate() {
                interface_index.insert(id, j);
            }
        }

        let mut pieces = Vec::with_capacity(n_parts);
        for (p, order) in piece_order.iter().enumerate() {
            let mut sub = Graph::new(format!("{}::part{}", graph.name(), p));
            let mut sub_params = TensorMap::new();
            let mut local: HashMap<NodeId, NodeId> = HashMap::new();
            let mut boundary: Vec<(NodeId, BoundaryRef)> = Vec::new();
            // placeholder per external producer (dedup within the piece)
            let mut placeholder_of: HashMap<NodeId, NodeId> = HashMap::new();

            for &id in order {
                let node = graph.node(id).expect("live");
                let mut inputs = Vec::with_capacity(node.inputs.len());
                for &inp in &node.inputs {
                    let inp_part = assignment.partition_of[&inp];
                    if inp_part == p {
                        inputs.push(local[&inp]);
                    } else {
                        let ph = *placeholder_of.entry(inp).or_insert_with(|| {
                            let shape = shapes[&inp].clone();
                            let ph = sub.add(Op::Input { shape }, []);
                            boundary.push((
                                ph,
                                BoundaryRef {
                                    piece: inp_part,
                                    output: interface_index[&inp],
                                },
                            ));
                            ph
                        });
                        inputs.push(ph);
                    }
                }
                let new_id = sub.add_named(node.op.clone(), inputs, node.name.clone());
                if let Some(t) = params.get(id) {
                    sub_params.insert(new_id, t.to_vec());
                }
                local.insert(id, new_id);
            }
            let outs: Vec<NodeId> = interface[p].iter().map(|id| local[id]).collect();
            sub.set_outputs(outs);
            pieces.push(Piece {
                graph: sub,
                params: sub_params,
                boundary,
                original_outputs: interface[p].clone(),
            });
        }

        let global_outputs = graph
            .outputs()
            .iter()
            .map(|id| BoundaryRef {
                piece: assignment.partition_of[id],
                output: interface_index[id],
            })
            .collect();

        Ok(PartitionPlan {
            pieces,
            global_outputs,
            model_name: graph.name().to_string(),
        })
    }

    /// Splices pieces back into a single model (the de-obfuscation step).
    ///
    /// `optimized` supplies one graph (and parameter store) per piece — the
    /// optimizer's output. Each optimized piece must preserve its declared
    /// interface: the same number of `Input` placeholders in the same arena
    /// order, and the same number/order of outputs.
    ///
    /// # Errors
    /// Returns [`GraphError::Exec`]-style errors when an optimized piece's
    /// interface no longer matches the plan, and propagates validation
    /// failures of the reassembled model.
    pub fn reassemble(
        &self,
        optimized: &[(Graph, TensorMap)],
    ) -> Result<(Graph, TensorMap), GraphError> {
        if optimized.len() != self.pieces.len() {
            return Err(GraphError::Exec {
                node: format!("<reassemble {}>", self.model_name),
                detail: format!(
                    "expected {} optimized pieces, got {}",
                    self.pieces.len(),
                    optimized.len()
                ),
            });
        }
        let mut merged = Graph::new(self.model_name.clone());
        let mut merged_params = TensorMap::new();
        // (piece, local id) -> merged id
        let mut mapping: HashMap<(usize, NodeId), NodeId> = HashMap::new();

        // The optimizer compacts/renumbers its output, so boundary
        // placeholders are re-identified positionally: optimizers preserve
        // the calling convention, i.e. `Input` nodes survive in arena order.
        let mut boundary_of_piece: Vec<HashMap<NodeId, BoundaryRef>> = Vec::new();
        for (pi, ((g, _), piece)) in optimized.iter().zip(&self.pieces).enumerate() {
            let orig_inputs: Vec<NodeId> = input_ids(&piece.graph);
            let opt_inputs: Vec<NodeId> = input_ids(g);
            if orig_inputs.len() != opt_inputs.len() {
                return Err(GraphError::Exec {
                    node: format!("<piece {pi}>"),
                    detail: format!(
                        "optimizer changed input arity: {} -> {}",
                        orig_inputs.len(),
                        opt_inputs.len()
                    ),
                });
            }
            let pos_of: HashMap<NodeId, usize> = orig_inputs
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
                .collect();
            let mut map = HashMap::new();
            for (orig_ph, bref) in &piece.boundary {
                let pos = pos_of[orig_ph];
                map.insert(opt_inputs[pos], *bref);
            }
            boundary_of_piece.push(map);
        }

        // Pass 1: copy non-placeholder nodes of every piece.
        for (pi, ((g, params), piece)) in optimized.iter().zip(&self.pieces).enumerate() {
            if g.outputs().len() != piece.graph.outputs().len() {
                return Err(GraphError::Exec {
                    node: format!("<piece {pi}>"),
                    detail: format!(
                        "optimizer changed output arity: {} -> {}",
                        piece.graph.outputs().len(),
                        g.outputs().len()
                    ),
                });
            }
            for (id, node) in g.iter() {
                if boundary_of_piece[pi].contains_key(&id) {
                    continue;
                }
                // inputs rewired in pass 2; keep local ids for now
                let new_id =
                    merged.add_named(node.op.clone(), node.inputs.clone(), node.name.clone());
                if let Some(t) = params.get(id) {
                    merged_params.insert(new_id, t.to_vec());
                }
                mapping.insert((pi, id), new_id);
            }
        }

        // Resolve a boundary reference to a merged node id. When a piece's
        // optimizer eliminated everything between a boundary placeholder
        // and an interface output (e.g. an identity-only piece), the
        // reference chases through to the producing piece transitively.
        let resolve = |start: BoundaryRef,
                       optimized: &[(Graph, TensorMap)],
                       mapping: &HashMap<(usize, NodeId), NodeId>|
         -> Result<NodeId, GraphError> {
            let mut bref = start;
            for _ in 0..=self.pieces.len() {
                let (g, _) = &optimized[bref.piece];
                let out_local = *g
                    .outputs()
                    .get(bref.output)
                    .ok_or_else(|| GraphError::Exec {
                        node: format!("<piece {}>", bref.piece),
                        detail: format!("missing interface output {}", bref.output),
                    })?;
                if let Some(&id) = mapping.get(&(bref.piece, out_local)) {
                    return Ok(id);
                }
                if let Some(&next) = boundary_of_piece[bref.piece].get(&out_local) {
                    bref = next; // passthrough piece: follow the chain
                    continue;
                }
                return Err(GraphError::Exec {
                    node: format!("<piece {}>", bref.piece),
                    detail: format!(
                        "interface output {} resolves to an unknown placeholder",
                        bref.output
                    ),
                });
            }
            Err(GraphError::Exec {
                node: format!("<piece {}>", start.piece),
                detail: "cyclic passthrough chain between pieces".into(),
            })
        };

        // Pass 2: rewire inputs.
        for (pi, (g, _)) in optimized.iter().enumerate() {
            let boundary_of = &boundary_of_piece[pi];
            for (id, node) in g.iter() {
                if boundary_of.contains_key(&id) {
                    continue;
                }
                let merged_id = mapping[&(pi, id)];
                let mut new_inputs = Vec::with_capacity(node.inputs.len());
                for &inp in &node.inputs {
                    if let Some(&bref) = boundary_of.get(&inp) {
                        new_inputs.push(resolve(bref, optimized, &mapping)?);
                    } else {
                        new_inputs.push(mapping[&(pi, inp)]);
                    }
                }
                merged.node_mut(merged_id).expect("copied").inputs = new_inputs;
            }
        }

        let outs: Result<Vec<NodeId>, GraphError> = self
            .global_outputs
            .iter()
            .map(|&bref| resolve(bref, optimized, &mapping))
            .collect();
        merged.set_outputs(outs?);
        merged.validate()?;
        Ok((merged, merged_params))
    }

    /// Reassembles the *unoptimized* pieces (identity round-trip).
    pub fn reassemble_identity(&self) -> Result<(Graph, TensorMap), GraphError> {
        let pieces: Vec<(Graph, TensorMap)> = self
            .pieces
            .iter()
            .map(|p| (p.graph.clone(), p.params.clone()))
            .collect();
        self.reassemble(&pieces)
    }

    /// Average piece size in nodes (excluding boundary placeholders).
    pub fn average_piece_size(&self) -> f64 {
        if self.pieces.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .pieces
            .iter()
            .map(|p| p.graph.len() - p.boundary.len())
            .sum();
        total as f64 / self.pieces.len() as f64
    }
}

/// `Input` node ids of a graph, in arena order — the positional calling
/// convention optimizers must preserve.
fn input_ids(g: &Graph) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = g
        .iter()
        .filter(|(_, n)| matches!(n.op, Op::Input { .. }))
        .map(|(id, _)| id)
        .collect();
    ids.sort();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::partition_balanced;
    use proteus_graph::{Activation, ConvAttrs, Executor, Op, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cnn() -> (Graph, TensorMap) {
        let mut g = Graph::new("small");
        let x = g.input([1, 3, 8, 8]);
        let c1 = g.add(Op::Conv(ConvAttrs::new(3, 4, 3).padding(1)), [x]);
        let r1 = g.add(Op::Activation(Activation::Relu), [c1]);
        let c2 = g.add(Op::Conv(ConvAttrs::new(4, 4, 3).padding(1)), [r1]);
        let s = g.add(Op::Add, [c2, r1]);
        let r2 = g.add(Op::Activation(Activation::Relu), [s]);
        let gap = g.add(Op::GlobalAveragePool, [r2]);
        g.set_outputs([gap]);
        let params = TensorMap::init_random(&g, 9);
        (g, params)
    }

    #[test]
    fn extract_covers_all_nodes() {
        let (g, params) = small_cnn();
        let a = partition_balanced(&g, 3, 8, 1);
        let plan = PartitionPlan::extract(&g, &params, &a).unwrap();
        assert_eq!(plan.pieces.len(), 3);
        let total: usize = plan
            .pieces
            .iter()
            .map(|p| p.graph.len() - p.boundary.len())
            .sum();
        assert_eq!(total, g.len());
        for piece in &plan.pieces {
            piece.graph.validate().unwrap();
        }
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let (g, params) = small_cnn();
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor::random([1, 3, 8, 8], 1.0, &mut rng);
        let expected = Executor::new(&g, &params)
            .run(std::slice::from_ref(&input))
            .unwrap();

        for n in 1..=5 {
            let a = partition_balanced(&g, n, 8, n as u64);
            let plan = PartitionPlan::extract(&g, &params, &a).unwrap();
            let (merged, merged_params) = plan.reassemble_identity().unwrap();
            let got = Executor::new(&merged, &merged_params)
                .run(std::slice::from_ref(&input))
                .unwrap();
            assert_eq!(got.len(), expected.len());
            assert!(
                got[0].allclose(&expected[0], 1e-5),
                "n={n}: max diff {}",
                got[0].max_abs_diff(&expected[0])
            );
        }
    }

    #[test]
    fn pieces_infer_shapes() {
        let (g, params) = small_cnn();
        let a = partition_balanced(&g, 4, 8, 2);
        let plan = PartitionPlan::extract(&g, &params, &a).unwrap();
        for piece in &plan.pieces {
            infer_shapes(&piece.graph)
                .unwrap_or_else(|e| panic!("piece {}: {e}", piece.graph.name()));
        }
    }

    #[test]
    fn interface_mismatch_rejected() {
        let (g, params) = small_cnn();
        let a = partition_balanced(&g, 2, 8, 3);
        let plan = PartitionPlan::extract(&g, &params, &a).unwrap();
        let mut bad: Vec<(Graph, TensorMap)> = plan
            .pieces
            .iter()
            .map(|p| (p.graph.clone(), p.params.clone()))
            .collect();
        // drop an output from the first piece
        let outs = bad[0].0.outputs().to_vec();
        bad[0].0.set_outputs(outs.into_iter().skip(1));
        assert!(plan.reassemble(&bad).is_err());
    }

    #[test]
    fn reassembly_chases_passthrough_pieces() {
        // A piece whose only nodes are eliminated (identity/dropout) ends up
        // exporting a boundary placeholder as its interface output; the
        // resolver must chase through to the producing piece.
        let mut g = Graph::new("chain");
        let x = g.input([1, 4]);
        let a = g.add(Op::Activation(Activation::Relu), [x]);
        let i1 = g.add(Op::Identity, [a]);
        let i2 = g.add(Op::Identity, [i1]);
        let b = g.add(Op::Activation(Activation::Tanh), [i2]);
        g.set_outputs([b]);
        let params = TensorMap::init_random(&g, 1);
        // force the identities into their own partition
        let mut partition_of = std::collections::HashMap::new();
        partition_of.insert(x, 0usize);
        partition_of.insert(a, 0);
        partition_of.insert(i1, 1);
        partition_of.insert(i2, 1);
        partition_of.insert(b, 2);
        let assignment = crate::contract::Assignment {
            partition_of,
            num_partitions: 3,
        };
        let plan = PartitionPlan::extract(&g, &params, &assignment).unwrap();
        // "optimize": eliminate identities from piece 1, rerouting its
        // output straight to the placeholder
        let optimized: Vec<(Graph, TensorMap)> = plan
            .pieces
            .iter()
            .map(|p| {
                let mut og = p.graph.clone();
                let victims: Vec<NodeId> = og
                    .iter()
                    .filter(|(_, n)| matches!(n.op, Op::Identity))
                    .map(|(id, _)| id)
                    .collect();
                for v in victims {
                    let input = og.node(v).unwrap().inputs[0];
                    og.replace_uses(v, input);
                    og.remove(v);
                }
                (og, p.params.clone())
            })
            .collect();
        let (merged, merged_params) = plan.reassemble(&optimized).unwrap();
        merged.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let probe = Tensor::random([1, 4], 1.0, &mut rng);
        let expected = Executor::new(&g, &params)
            .run(std::slice::from_ref(&probe))
            .unwrap();
        let got = Executor::new(&merged, &merged_params)
            .run(&[probe])
            .unwrap();
        assert!(got[0].allclose(&expected[0], 1e-6));
    }

    #[test]
    fn params_distributed_to_pieces() {
        let (g, params) = small_cnn();
        let a = partition_balanced(&g, 3, 8, 4);
        let plan = PartitionPlan::extract(&g, &params, &a).unwrap();
        let piece_params: usize = plan.pieces.iter().map(|p| p.params.len()).sum();
        assert_eq!(piece_params, params.len());
    }
}
