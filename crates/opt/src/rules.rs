//! Graph rewrite rules.
//!
//! Each rule is a sweep returning the number of rewrites it applied. Rules
//! receive a [`RewriteCtx`]: the mutable graph and parameter store plus a
//! [`GraphAnalysis`] snapshot computed by the engine *before* the sweep
//! (successors, use counts, topological order, shapes, opcode index), so no
//! rule recomputes a graph-wide analysis itself. The snapshot is
//! deliberately not refreshed mid-sweep — rules collect candidates against
//! it and re-check liveness as they apply, exactly the semantics the
//! previous standalone sweeps had.
//!
//! Rules preserve functional semantics whenever parameter tensors are
//! available (verified against the reference interpreter in tests); on
//! structure-only graphs (no weights) the BN-fold rule still merges
//! structure, matching what a compiler does with real initializers.

use proteus_graph::{
    Activation, ConvAlgo, Executor, Graph, GraphAnalysis, NodeId, Op, OpCode, Shape, Tensor,
    TensorMap,
};
use std::collections::{HashMap, HashSet};

/// Everything a rule sweep needs: the graph and parameters it rewrites,
/// and the engine's cached analysis snapshot of the pre-sweep graph.
pub struct RewriteCtx<'a> {
    /// The graph being rewritten.
    pub graph: &'a mut Graph,
    /// Parameter tensors keyed by node id (rules move/merge entries as they
    /// rewrite nodes).
    pub params: &'a mut TensorMap,
    /// Analysis snapshot of `graph` as it was when the sweep started.
    pub analysis: &'a GraphAnalysis,
}

/// A rewrite rule: sweeps the graph once, returns how many sites changed.
pub type Rule = fn(&mut RewriteCtx) -> usize;

/// Applies one rule standalone: computes a fresh analysis and runs a single
/// sweep. This is what the engine does per rule, minus caching — handy for
/// tests and one-off surgery.
pub fn apply_once(rule: Rule, graph: &mut Graph, params: &mut TensorMap) -> usize {
    let analysis = GraphAnalysis::compute(graph);
    rule(&mut RewriteCtx {
        graph,
        params,
        analysis: &analysis,
    })
}

/// All ancestors of `node` (transitive inputs).
fn ancestors(g: &Graph, node: NodeId) -> HashSet<NodeId> {
    let mut out = HashSet::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        if let Some(n) = g.node(id) {
            for &inp in &n.inputs {
                if out.insert(inp) {
                    stack.push(inp);
                }
            }
        }
    }
    out
}

/// Removes `Identity` nodes and `Reshape`s whose output equals their input
/// shape (ONNXRuntime "Identity Elimination").
pub fn eliminate_identity(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let candidates = analysis.nodes_with(&[OpCode::Identity, OpCode::Reshape]);
    // Shape inference is only needed to judge Reshape candidates; graphs
    // without any stay on the cheap path.
    let shapes = if candidates
        .iter()
        .any(|&id| matches!(ctx.graph.node(id).map(|n| &n.op), Some(Op::Reshape { .. })))
    {
        analysis.shapes(ctx.graph)
    } else {
        None
    };
    let victims: Vec<NodeId> = candidates
        .into_iter()
        .filter(|&id| {
            let n = ctx.graph.node(id).expect("snapshot lists live nodes");
            match &n.op {
                Op::Identity => true,
                Op::Reshape { shape } => shapes.map(|s| &s[n.inputs[0]] == shape).unwrap_or(false),
                _ => false,
            }
        })
        .collect();
    let g = &mut *ctx.graph;
    for id in &victims {
        let input = g.node(*id).expect("live").inputs[0];
        g.replace_uses(*id, input);
        g.remove(*id);
    }
    victims.len()
}

/// Removes inference-mode `Dropout` nodes.
pub fn eliminate_dropout(ctx: &mut RewriteCtx) -> usize {
    let victims: Vec<NodeId> = ctx.analysis.of_opcode(OpCode::Dropout).to_vec();
    let g = &mut *ctx.graph;
    for id in &victims {
        let input = g.node(*id).expect("live").inputs[0];
        g.replace_uses(*id, input);
        g.remove(*id);
    }
    victims.len()
}

/// Folds `BatchNorm(Conv(x))` into the convolution (weight rewrite when
/// parameters are present; structural fold when both are weightless).
pub fn fold_bn_into_conv(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let candidates: Vec<(NodeId, NodeId)> = analysis
        .of_opcode(OpCode::BatchNorm)
        .iter()
        .filter_map(|&bn_id| {
            let bn = ctx.graph.node(bn_id).expect("snapshot lists live nodes");
            let conv_id = bn.inputs[0];
            match ctx.graph.node(conv_id).map(|n| &n.op) {
                Some(Op::Conv(c))
                    if analysis.use_count(conv_id) == 1
                        && c.fused_act.is_none()
                        && !c.fused_add =>
                {
                    Some((bn_id, conv_id))
                }
                _ => None,
            }
        })
        .collect();
    let (g, params) = (&mut *ctx.graph, &mut *ctx.params);
    let mut applied = 0;
    for (bn_id, conv_id) in candidates {
        let conv_has = params.get(conv_id).is_some();
        let bn_has = params.get(bn_id).is_some();
        if conv_has != bn_has {
            continue; // cannot fold half-parameterized patterns safely
        }
        if conv_has {
            let bn_p = params.get(bn_id).expect("checked").to_vec();
            let (scale, bias, mean, var) = (&bn_p[0], &bn_p[1], &bn_p[2], &bn_p[3]);
            let conv_p = params.get(conv_id).expect("checked").to_vec();
            let mut w = conv_p[0].clone();
            let out_ch = w.shape().dims()[0];
            let per_out = w.shape().numel() / out_ch;
            const EPS: f32 = 1e-5;
            let factors: Vec<f32> = (0..out_ch)
                .map(|c| scale.data()[c] / (var.data()[c] + EPS).sqrt())
                .collect();
            for (oc, &f) in factors.iter().enumerate() {
                for i in 0..per_out {
                    w.data_mut()[oc * per_out + i] *= f;
                }
            }
            let old_bias = conv_p.get(1).cloned();
            let mut b = Tensor::zeros([out_ch]);
            for (oc, &f) in factors.iter().enumerate() {
                let b0 = old_bias.as_ref().map(|t| t.data()[oc]).unwrap_or(0.0);
                b.data_mut()[oc] = (b0 - mean.data()[oc]) * f + bias.data()[oc];
            }
            params.insert(conv_id, vec![w, b]);
        }
        if let Some(node) = g.node_mut(conv_id) {
            if let Op::Conv(c) = &mut node.op {
                // The fold materializes a bias tensor exactly when the
                // pattern carried parameters; structural (param-less) folds
                // leave the conv unbiased.
                c.has_bias = conv_has;
            }
        }
        params.remove(bn_id);
        g.replace_uses(bn_id, conv_id);
        g.remove(bn_id);
        applied += 1;
    }
    applied
}

/// Fuses `Act(Conv(x))` into the convolution's epilogue.
pub fn fuse_conv_act(ctx: &mut RewriteCtx) -> usize {
    fuse_act_into(
        ctx,
        |op| matches!(op, Op::Conv(c) if c.fused_act.is_none()),
        |op, act| {
            if let Op::Conv(c) = op {
                c.fused_act = Some(act);
            }
        },
    )
}

/// Fuses `Act(Gemm(x))` into the GEMM epilogue.
pub fn fuse_gemm_act(ctx: &mut RewriteCtx) -> usize {
    fuse_act_into(
        ctx,
        |op| matches!(op, Op::Gemm(a) if a.fused_act.is_none()),
        |op, act| {
            if let Op::Gemm(a) = op {
                a.fused_act = Some(act);
            }
        },
    )
}

fn fuse_act_into(
    ctx: &mut RewriteCtx,
    eligible: impl Fn(&Op) -> bool,
    set_act: impl Fn(&mut Op, Activation),
) -> usize {
    let analysis = ctx.analysis;
    let candidates: Vec<(NodeId, NodeId, Activation)> = analysis
        .nodes_with(&OpCode::ACTIVATIONS)
        .into_iter()
        .filter_map(|act_id| {
            let n = ctx.graph.node(act_id).expect("snapshot lists live nodes");
            match &n.op {
                Op::Activation(a) => {
                    let prod = n.inputs[0];
                    match ctx.graph.node(prod) {
                        Some(p) if eligible(&p.op) && analysis.use_count(prod) == 1 => {
                            Some((act_id, prod, *a))
                        }
                        _ => None,
                    }
                }
                _ => None,
            }
        })
        .collect();
    let g = &mut *ctx.graph;
    let count = candidates.len();
    for (act_id, prod, act) in candidates {
        // recheck liveness (earlier rewrites in this sweep may invalidate)
        if g.node(act_id).is_none() || g.node(prod).is_none() {
            continue;
        }
        set_act(&mut g.node_mut(prod).expect("live").op, act);
        g.replace_uses(act_id, prod);
        g.remove(act_id);
    }
    count
}

/// Fuses `Add(Conv(x), y)` (residual add) into the convolution when `y`
/// does not depend on the convolution. The fused activation slot must still
/// be empty so the `conv -> add -> act` order is preserved.
pub fn fuse_conv_add(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let mut applied = 0;
    let adds: Vec<NodeId> = analysis.of_opcode(OpCode::Add).to_vec();
    let g = &mut *ctx.graph;
    for add_id in adds {
        let Some(add) = g.node(add_id) else { continue };
        let (a, b) = (add.inputs[0], add.inputs[1]);
        let pick = |g: &Graph, conv: NodeId, other: NodeId| -> bool {
            matches!(
                g.node(conv).map(|n| &n.op),
                Some(Op::Conv(c)) if !c.fused_add && c.fused_act.is_none()
            ) && analysis.use_count(conv) == 1
                && !ancestors(g, other).contains(&conv)
                && conv != other
        };
        let (conv_id, other) = if pick(g, a, b) {
            (a, b)
        } else if pick(g, b, a) {
            (b, a)
        } else {
            continue;
        };
        if let Op::Conv(c) = &mut g.node_mut(conv_id).expect("live").op {
            c.fused_add = true;
        }
        g.node_mut(conv_id).expect("live").inputs.push(other);
        g.replace_uses(add_id, conv_id);
        g.remove(add_id);
        applied += 1;
    }
    applied
}

/// Fuses `Act(Add(a, b))` into a single [`Op::AddAct`] kernel.
pub fn fuse_add_act(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let candidates: Vec<(NodeId, NodeId, Activation)> = analysis
        .nodes_with(&OpCode::ACTIVATIONS)
        .into_iter()
        .filter_map(|act_id| {
            let n = ctx.graph.node(act_id).expect("snapshot lists live nodes");
            match &n.op {
                Op::Activation(a) => {
                    let prod = n.inputs[0];
                    match ctx.graph.node(prod).map(|p| &p.op) {
                        Some(Op::Add) if analysis.use_count(prod) == 1 => Some((act_id, prod, *a)),
                        _ => None,
                    }
                }
                _ => None,
            }
        })
        .collect();
    let g = &mut *ctx.graph;
    let count = candidates.len();
    for (act_id, add_id, act) in candidates {
        if g.node(act_id).is_none() || g.node(add_id).is_none() {
            continue;
        }
        g.node_mut(add_id).expect("live").op = Op::AddAct(act);
        g.replace_uses(act_id, add_id);
        g.remove(act_id);
    }
    count
}

/// Fuses `LayerNorm(Add(a, b))` into a single [`Op::SkipLayerNorm`] kernel
/// (ONNXRuntime's SkipLayerNormalization, the dominant transformer fusion).
pub fn fuse_skip_layernorm(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let candidates: Vec<(NodeId, NodeId)> = analysis
        .of_opcode(OpCode::LayerNorm)
        .iter()
        .filter_map(|&ln_id| {
            let n = ctx.graph.node(ln_id).expect("snapshot lists live nodes");
            let add_id = n.inputs[0];
            match ctx.graph.node(add_id).map(|p| &p.op) {
                Some(Op::Add) if analysis.use_count(add_id) == 1 => Some((ln_id, add_id)),
                _ => None,
            }
        })
        .collect();
    let (g, params) = (&mut *ctx.graph, &mut *ctx.params);
    let count = candidates.len();
    for (ln_id, add_id) in candidates {
        if g.node(ln_id).is_none() || g.node(add_id).is_none() {
            continue;
        }
        let attrs = match &g.node(ln_id).expect("live").op {
            Op::LayerNorm(l) => l.clone(),
            _ => continue,
        };
        g.node_mut(add_id).expect("live").op = Op::SkipLayerNorm(attrs);
        if let Some(p) = params.remove(ln_id) {
            params.insert(add_id, p);
        }
        g.replace_uses(ln_id, add_id);
        g.remove(ln_id);
    }
    count
}

/// Fuses `MatMul(a, Transpose(b))` (transpose of the last two dims) into a
/// single [`Op::MatMulT`] (ONNXRuntime's FusedMatMul with `transB`), the
/// Q·Kᵀ pattern of attention.
pub fn fuse_matmul_transpose(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let candidates: Vec<(NodeId, NodeId)> = analysis
        .of_opcode(OpCode::MatMul)
        .iter()
        .filter_map(|&mm_id| {
            let n = ctx.graph.node(mm_id).expect("snapshot lists live nodes");
            let t_id = n.inputs[1];
            match ctx.graph.node(t_id).map(|p| &p.op) {
                Some(Op::Transpose { perm }) if analysis.use_count(t_id) == 1 => {
                    let r = perm.len();
                    let swaps_last_two = r >= 2
                        && perm[..r - 2].iter().enumerate().all(|(i, &p)| p == i)
                        && perm[r - 2] == r - 1
                        && perm[r - 1] == r - 2;
                    if swaps_last_two {
                        Some((mm_id, t_id))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        })
        .collect();
    let g = &mut *ctx.graph;
    let count = candidates.len();
    for (mm_id, t_id) in candidates {
        if g.node(mm_id).is_none() || g.node(t_id).is_none() {
            continue;
        }
        let src = g.node(t_id).expect("live").inputs[0];
        let mm = g.node_mut(mm_id).expect("live");
        mm.op = Op::MatMulT;
        mm.inputs[1] = src;
        g.remove(t_id);
    }
    count
}

/// Collapses `Reshape(Reshape(x))` chains (ONNXRuntime "Reshape Fusion").
pub fn fuse_reshape_chain(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let candidates: Vec<(NodeId, NodeId)> = analysis
        .of_opcode(OpCode::Reshape)
        .iter()
        .filter_map(|&outer| {
            let n = ctx.graph.node(outer).expect("snapshot lists live nodes");
            let inner = n.inputs[0];
            match ctx.graph.node(inner).map(|p| &p.op) {
                Some(Op::Reshape { .. }) if analysis.use_count(inner) == 1 => Some((outer, inner)),
                _ => None,
            }
        })
        .collect();
    let g = &mut *ctx.graph;
    let count = candidates.len();
    for (outer, inner) in candidates {
        if g.node(outer).is_none() || g.node(inner).is_none() {
            continue;
        }
        let src = g.node(inner).expect("live").inputs[0];
        g.node_mut(outer).expect("live").inputs = vec![src];
        g.remove(inner);
    }
    count
}

/// Eliminates inverse `Transpose(Transpose(x))` pairs.
pub fn eliminate_transpose_pair(ctx: &mut RewriteCtx) -> usize {
    let analysis = ctx.analysis;
    let mut applied = 0;
    let candidates: Vec<(NodeId, NodeId)> = analysis
        .of_opcode(OpCode::Transpose)
        .iter()
        .filter_map(|&outer| {
            let n = ctx.graph.node(outer).expect("snapshot lists live nodes");
            let Op::Transpose { perm: p2 } = &n.op else {
                return None;
            };
            let inner = n.inputs[0];
            match ctx.graph.node(inner).map(|p| &p.op) {
                Some(Op::Transpose { perm: p1 }) if analysis.use_count(inner) == 1 => {
                    // p2 ∘ p1 == identity?
                    let identity = p2.iter().enumerate().all(|(i, &x)| p1[x] == i);
                    if identity {
                        Some((outer, inner))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        })
        .collect();
    let g = &mut *ctx.graph;
    for (outer, inner) in candidates {
        if g.node(outer).is_none() || g.node(inner).is_none() {
            continue;
        }
        let src = g.node(inner).expect("live").inputs[0];
        g.replace_uses(outer, src);
        g.remove(outer);
        g.remove(inner);
        applied += 1;
    }
    applied
}

/// Switches eligible 3x3/stride-1/ungrouped convolutions to the Winograd
/// algorithm. This mirrors a "typically beneficial" library heuristic tuned
/// on ImageNet-scale models: at the small channel counts of NAS cells the
/// transform utilization collapses and the rewrite backfires (paper §6.1).
pub fn winograd_rewrite(ctx: &mut RewriteCtx) -> usize {
    let mut applied = 0;
    let ids: Vec<NodeId> = ctx.analysis.of_opcode(OpCode::Conv).to_vec();
    let g = &mut *ctx.graph;
    for id in ids {
        // check immutably first: `node_mut` counts as a mutation, and a
        // no-op sweep must not dirty the graph (it would wake every
        // Conv-anchored rule each round).
        let eligible = matches!(
            g.node(id).map(|n| &n.op),
            Some(Op::Conv(c))
                if c.kernel == 3 && c.stride == 1 && c.groups == 1 && c.algo == ConvAlgo::Direct
        );
        if !eligible {
            continue;
        }
        if let Op::Conv(c) = &mut g.node_mut(id).expect("live").op {
            c.algo = ConvAlgo::Winograd;
            applied += 1;
        }
    }
    applied
}

/// Common-subexpression elimination: merges nodes with identical operators
/// and identical inputs. `Input` nodes never merge; `Constant`s merge only
/// when their values are present and bit-identical.
pub fn cse(ctx: &mut RewriteCtx) -> usize {
    let Ok(order) = ctx.analysis.topo() else {
        return 0;
    };
    let order: Vec<NodeId> = order.to_vec();
    let (g, params) = (&mut *ctx.graph, &mut *ctx.params);
    // Structural keys (op + input ids); several canonical nodes can share a
    // key when their parameter tensors differ, hence the bucket.
    let mut seen: HashMap<(Op, Vec<NodeId>), Vec<NodeId>> = HashMap::new();
    let mut applied = 0;
    for id in order {
        let Some(node) = g.node(id) else { continue };
        if matches!(node.op, Op::Input { .. }) {
            continue;
        }
        // Parameterized nodes (Conv, Gemm, BN, Constant, ...) compute with
        // their own weights: two such nodes are the same expression only if
        // their parameter tensors are present and bit-identical.
        let parameterized = !proteus_graph::exec::param_signature(&node.op).is_empty();
        if parameterized && params.get(id).is_none() {
            continue;
        }
        let key = (node.op.clone(), node.inputs.clone());
        let bucket = seen.entry(key).or_default();
        let canon = bucket
            .iter()
            .copied()
            .find(|&c| !parameterized || params_bit_equal(params.get(c), params.get(id)));
        match canon {
            Some(canon) => {
                g.replace_uses(id, canon);
                params.remove(id);
                g.remove(id);
                applied += 1;
            }
            None => bucket.push(id),
        }
    }
    applied
}

/// Bit-exact equality of two parameter-tensor lists: shapes plus f32 bit
/// patterns, except that any NaN equals any NaN. That matches the retained
/// naive baseline's debug-string keys (`-0.0` prints differently from
/// `0.0`, but every NaN prints as `NaN`), keeping the engines' merge
/// decisions — and therefore their outputs — bit-identical. Tensors
/// decoded from the wire are compared on their received words in place.
fn params_bit_equal(a: Option<&[Tensor]>, b: Option<&[Tensor]>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bit_equal(x, y)),
        (None, None) => true,
        _ => false,
    }
}

/// One tensor pair under [`params_bit_equal`]'s rule. Two word-backed
/// tensors are compared on their words; otherwise on their floats.
fn bit_equal(x: &Tensor, y: &Tensor) -> bool {
    let same =
        |p: u32, q: u32| p == q || (f32::from_bits(p).is_nan() && f32::from_bits(q).is_nan());
    let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    x.shape() == y.shape()
        && match (x.words(), y.words()) {
            (Some(p), Some(q)) => p
                .chunks_exact(4)
                .zip(q.chunks_exact(4))
                .all(|(a, b)| same(word(a), word(b))),
            _ => x
                .data()
                .iter()
                .zip(y.data())
                .all(|(p, q)| same(p.to_bits(), q.to_bits())),
        }
}

/// Constant folding: evaluates nodes whose inputs are all value-carrying
/// `Constant`s and replaces them with a new `Constant`.
pub fn constant_fold(ctx: &mut RewriteCtx) -> usize {
    let Ok(order) = ctx.analysis.topo() else {
        return 0;
    };
    let order: Vec<NodeId> = order.to_vec();
    let (g, params) = (&mut *ctx.graph, &mut *ctx.params);
    let mut applied = 0;
    for id in order {
        let Some(node) = g.node(id) else { continue };
        if matches!(node.op, Op::Constant { .. } | Op::Input { .. }) || node.inputs.is_empty() {
            continue;
        }
        let all_const = node.inputs.iter().all(|&i| {
            matches!(g.node(i).map(|n| &n.op), Some(Op::Constant { .. })) && params.get(i).is_some()
        });
        if !all_const {
            continue;
        }
        // ops with their own parameters need those too
        if !proteus_graph::exec::param_signature(&node.op).is_empty() && params.get(id).is_none() {
            continue;
        }
        // Build a tiny graph: clone constants + this node, execute.
        let mut tmp = Graph::new("fold");
        let mut tmp_params = TensorMap::new();
        let mut input_map = Vec::new();
        for &i in &node.inputs {
            let shape = match g.node(i).map(|n| &n.op) {
                Some(Op::Constant { shape }) => shape.clone(),
                _ => unreachable!("checked all_const"),
            };
            let c = tmp.constant(shape);
            tmp_params.insert(c, params.get(i).expect("checked").to_vec());
            input_map.push(c);
        }
        let n = tmp.add(node.op.clone(), input_map);
        if let Some(p) = params.get(id) {
            tmp_params.insert(n, p.to_vec());
        }
        tmp.set_outputs([n]);
        let Ok(result) = Executor::new(&tmp, &tmp_params).run(&[]) else {
            continue;
        };
        let value = result.into_iter().next().expect("one output");
        let shape: Shape = value.shape().clone();
        let folded = g.add(Op::Constant { shape }, []);
        params.insert(folded, vec![value]);
        params.remove(id);
        g.replace_uses(id, folded);
        g.remove(id);
        applied += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::{BatchNormAttrs, ConvAttrs, GemmAttrs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_equiv(
        before: &Graph,
        before_p: &TensorMap,
        after: &Graph,
        after_p: &TensorMap,
        input_shape: &[usize],
    ) {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..3 {
            let x = Tensor::random(input_shape.to_vec(), 1.0, &mut rng);
            let a = Executor::new(before, before_p)
                .run(std::slice::from_ref(&x))
                .unwrap();
            let b = Executor::new(after, after_p).run(&[x]).unwrap();
            assert_eq!(a.len(), b.len());
            for (ta, tb) in a.iter().zip(&b) {
                assert!(
                    ta.allclose(tb, 1e-3),
                    "outputs diverge: max diff {}",
                    ta.max_abs_diff(tb)
                );
            }
        }
    }

    #[test]
    fn identity_elimination_preserves_semantics() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let i1 = g.add(Op::Identity, [x]);
        let r = g.add(Op::Activation(Activation::Relu), [i1]);
        let i2 = g.add(Op::Identity, [r]);
        g.set_outputs([i2]);
        let p = TensorMap::new();
        let before = g.clone();
        let mut pm = p.clone();
        let n = apply_once(eliminate_identity, &mut g, &mut pm);
        assert_eq!(n, 2);
        assert_eq!(g.len(), 2);
        g.validate().unwrap();
        assert_equiv(&before, &p, &g, &pm, &[1, 4]);
    }

    #[test]
    fn bn_fold_preserves_semantics() {
        let mut g = Graph::new("t");
        let x = g.input([1, 3, 8, 8]);
        let c = g.add(Op::Conv(ConvAttrs::new(3, 6, 3).padding(1)), [x]);
        let bn = g.add(Op::BatchNorm(BatchNormAttrs { channels: 6 }), [c]);
        let r = g.add(Op::Activation(Activation::Relu), [bn]);
        g.set_outputs([r]);
        let params = TensorMap::init_random(&g, 3);
        let before = g.clone();
        let before_p = params.clone();
        let mut pm = params;
        let n = apply_once(fold_bn_into_conv, &mut g, &mut pm);
        assert_eq!(n, 1);
        g.validate().unwrap();
        assert!(g.iter().all(|(_, n)| !matches!(n.op, Op::BatchNorm(_))));
        assert_equiv(&before, &before_p, &g, &pm, &[1, 3, 8, 8]);
    }

    #[test]
    fn bn_fold_structural_when_weightless() {
        let mut g = Graph::new("t");
        let x = g.input([1, 3, 8, 8]);
        let c = g.add(
            Op::Conv(ConvAttrs::new(3, 6, 3).padding(1).bias(false)),
            [x],
        );
        let bn = g.add(Op::BatchNorm(BatchNormAttrs { channels: 6 }), [c]);
        g.set_outputs([bn]);
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(fold_bn_into_conv, &mut g, &mut pm), 1);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn conv_act_fusion_preserves_semantics() {
        let mut g = Graph::new("t");
        let x = g.input([1, 3, 6, 6]);
        let c = g.add(Op::Conv(ConvAttrs::new(3, 4, 3).padding(1)), [x]);
        let r = g.add(Op::Activation(Activation::Relu), [c]);
        g.set_outputs([r]);
        let params = TensorMap::init_random(&g, 4);
        let before = g.clone();
        let bp = params.clone();
        let mut pm = params;
        assert_eq!(apply_once(fuse_conv_act, &mut g, &mut pm), 1);
        g.validate().unwrap();
        assert_eq!(g.len(), 2);
        assert_equiv(&before, &bp, &g, &pm, &[1, 3, 6, 6]);
    }

    #[test]
    fn conv_add_act_fusion_preserves_semantics() {
        // residual block: relu(add(conv(x), x))
        let mut g = Graph::new("t");
        let x = g.input([1, 4, 6, 6]);
        let c = g.add(Op::Conv(ConvAttrs::new(4, 4, 3).padding(1)), [x]);
        let a = g.add(Op::Add, [c, x]);
        let r = g.add(Op::Activation(Activation::Relu), [a]);
        g.set_outputs([r]);
        let params = TensorMap::init_random(&g, 5);
        let before = g.clone();
        let bp = params.clone();
        let mut pm = params;
        assert_eq!(apply_once(fuse_conv_add, &mut g, &mut pm), 1);
        assert_eq!(apply_once(fuse_conv_act, &mut g, &mut pm), 1);
        g.validate().unwrap();
        assert_eq!(g.len(), 2, "conv+add+relu collapsed into one kernel");
        assert_equiv(&before, &bp, &g, &pm, &[1, 4, 6, 6]);
    }

    #[test]
    fn conv_add_fusion_refuses_cycles() {
        // add(conv(x), relu(conv(x))): other input depends on the conv
        let mut g = Graph::new("t");
        let x = g.input([1, 4, 6, 6]);
        let c = g.add(Op::Conv(ConvAttrs::new(4, 4, 3).padding(1)), [x]);
        let r = g.add(Op::Activation(Activation::Relu), [c]);
        let a = g.add(Op::Add, [c, r]);
        g.set_outputs([a]);
        let mut pm = TensorMap::new();
        // conv is used twice, so fusion must not trigger at all
        assert_eq!(apply_once(fuse_conv_add, &mut g, &mut pm), 0);
        g.validate().unwrap();
    }

    #[test]
    fn add_act_fusion_preserves_semantics() {
        let mut g = Graph::new("t");
        let a = g.input([2, 8]);
        let b = g.input([2, 8]);
        let s = g.add(Op::Add, [a, b]);
        let r = g.add(Op::Activation(Activation::Sigmoid), [s]);
        g.set_outputs([r]);
        let before = g.clone();
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(fuse_add_act, &mut g, &mut pm), 1);
        g.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let x1 = Tensor::random([2, 8], 1.0, &mut rng);
        let x2 = Tensor::random([2, 8], 1.0, &mut rng);
        let empty = TensorMap::new();
        let out_a = Executor::new(&before, &empty)
            .run(&[x1.clone(), x2.clone()])
            .unwrap();
        let out_b = Executor::new(&g, &empty).run(&[x1, x2]).unwrap();
        assert!(out_a[0].allclose(&out_b[0], 1e-6));
    }

    #[test]
    fn gemm_act_fusion() {
        let mut g = Graph::new("t");
        let x = g.input([2, 16]);
        let fc = g.add(Op::Gemm(GemmAttrs::new(16, 8)), [x]);
        let t = g.add(Op::Activation(Activation::Tanh), [fc]);
        g.set_outputs([t]);
        let params = TensorMap::init_random(&g, 8);
        let before = g.clone();
        let bp = params.clone();
        let mut pm = params;
        assert_eq!(apply_once(fuse_gemm_act, &mut g, &mut pm), 1);
        assert_equiv(&before, &bp, &g, &pm, &[2, 16]);
    }

    #[test]
    fn reshape_chain_collapses() {
        let mut g = Graph::new("t");
        let x = g.input([2, 12]);
        let r1 = g.add(
            Op::Reshape {
                shape: Shape::from([4, 6]),
            },
            [x],
        );
        let r2 = g.add(
            Op::Reshape {
                shape: Shape::from([3, 8]),
            },
            [r1],
        );
        g.set_outputs([r2]);
        let before = g.clone();
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(fuse_reshape_chain, &mut g, &mut pm), 1);
        g.validate().unwrap();
        assert_eq!(g.len(), 2);
        assert_equiv(&before, &TensorMap::new(), &g, &pm, &[2, 12]);
    }

    #[test]
    fn transpose_pair_eliminated() {
        let mut g = Graph::new("t");
        let x = g.input([2, 3, 4]);
        let t1 = g.add(
            Op::Transpose {
                perm: vec![2, 0, 1],
            },
            [x],
        );
        let t2 = g.add(
            Op::Transpose {
                perm: vec![1, 2, 0],
            },
            [t1],
        );
        let r = g.add(Op::Activation(Activation::Relu), [t2]);
        g.set_outputs([r]);
        let before = g.clone();
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(eliminate_transpose_pair, &mut g, &mut pm), 1);
        g.validate().unwrap();
        assert_eq!(g.len(), 2);
        assert_equiv(&before, &TensorMap::new(), &g, &pm, &[2, 3, 4]);
    }

    #[test]
    fn non_inverse_transposes_kept() {
        let mut g = Graph::new("t");
        let x = g.input([2, 3, 4]);
        let t1 = g.add(
            Op::Transpose {
                perm: vec![2, 0, 1],
            },
            [x],
        );
        let t2 = g.add(
            Op::Transpose {
                perm: vec![2, 0, 1],
            },
            [t1],
        );
        g.set_outputs([t2]);
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(eliminate_transpose_pair, &mut g, &mut pm), 0);
    }

    #[test]
    fn winograd_rewrite_marks_eligible_convs() {
        let mut g = Graph::new("t");
        let x = g.input([1, 64, 16, 16]);
        let c1 = g.add(Op::Conv(ConvAttrs::new(64, 64, 3).padding(1)), [x]);
        let c2 = g.add(
            Op::Conv(ConvAttrs::new(64, 64, 3).stride(2).padding(1)),
            [c1],
        );
        let c3 = g.add(Op::Conv(ConvAttrs::new(64, 128, 1)), [c2]);
        g.set_outputs([c3]);
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(winograd_rewrite, &mut g, &mut pm), 1);
        assert!(matches!(g.op(c1), Op::Conv(c) if c.algo == ConvAlgo::Winograd));
        assert!(matches!(g.op(c2), Op::Conv(c) if c.algo == ConvAlgo::Direct));
        assert!(matches!(g.op(c3), Op::Conv(c) if c.algo == ConvAlgo::Direct));
    }

    #[test]
    fn cse_merges_identical_branches() {
        let mut g = Graph::new("t");
        let x = g.input([2, 4]);
        let r1 = g.add(Op::Activation(Activation::Relu), [x]);
        let r2 = g.add(Op::Activation(Activation::Relu), [x]);
        let s = g.add(Op::Add, [r1, r2]);
        g.set_outputs([s]);
        let before = g.clone();
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(cse, &mut g, &mut pm), 1);
        g.validate().unwrap();
        assert_eq!(g.len(), 3);
        assert_equiv(&before, &TensorMap::new(), &g, &pm, &[2, 4]);
    }

    #[test]
    fn cse_does_not_merge_valueless_constants() {
        let mut g = Graph::new("t");
        let c1 = g.constant([4]);
        let c2 = g.constant([4]);
        let s = g.add(Op::Add, [c1, c2]);
        g.set_outputs([s]);
        let mut pm = TensorMap::new();
        assert_eq!(apply_once(cse, &mut g, &mut pm), 0);
    }

    #[test]
    fn constant_folding_evaluates_subtrees() {
        let mut g = Graph::new("t");
        let c1 = g.constant([2, 2]);
        let c2 = g.constant([2, 2]);
        let s = g.add(Op::Add, [c1, c2]);
        let x = g.input([2, 2]);
        let out = g.add(Op::Mul, [s, x]);
        g.set_outputs([out]);
        let mut pm = TensorMap::new();
        pm.insert(c1, vec![Tensor::new([2, 2], vec![1.0, 2.0, 3.0, 4.0])]);
        pm.insert(c2, vec![Tensor::new([2, 2], vec![10.0, 20.0, 30.0, 40.0])]);
        assert_eq!(apply_once(constant_fold, &mut g, &mut pm), 1);
        g.prune_dead();
        g.validate().unwrap();
        // the folded constant feeds the Mul
        let mul = g.iter().find(|(_, n)| matches!(n.op, Op::Mul)).unwrap().0;
        let folded = g.node(mul).unwrap().inputs[0];
        let val = &pm.get(folded).unwrap()[0];
        assert_eq!(val.data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    /// CSE's tensor equality is the same on received words as on owned
    /// floats, whichever form each side holds: NaNs with different
    /// payloads are equal, `-0.0` and `0.0` are not.
    #[test]
    fn params_bit_equal_agrees_across_storage() {
        use proteus_graph::wire::{decode_params, encode_params};
        let owned = |v: &[f32]| Tensor::new([v.len()], v.to_vec());
        let words = |v: &[f32]| {
            let mut g = Graph::new("w");
            let c = g.constant([v.len()]);
            g.set_outputs([c]);
            let mut pm = TensorMap::new();
            pm.insert(c, vec![owned(v)]);
            let back = decode_params(&mut encode_params(&g, &pm)).unwrap();
            let t = back.get(c).unwrap()[0].clone();
            assert!(t.words().is_some());
            t
        };
        let nan = f32::from_bits;
        let cases: [(&[f32], &[f32], bool); 5] = [
            (&[nan(0x7fc0_0001), 1.0], &[nan(0xffc0_1234), 1.0], true),
            (&[-0.0, 1.0], &[0.0, 1.0], false),
            (&[f32::from_bits(1), 2.0], &[f32::from_bits(1), 2.0], true),
            (&[1.0, 2.0], &[1.0, 2.5], false),
            (&[1.0], &[1.0, 1.0], false),
        ];
        for (a, b, equal) in cases {
            for x in [owned(a), words(a)] {
                for y in [owned(b), words(b)] {
                    let (xs, ys) = (vec![x.clone()], vec![y.clone()]);
                    assert_eq!(
                        params_bit_equal(Some(&xs), Some(&ys)),
                        equal,
                        "{a:?} vs {b:?}, words {} / {}",
                        x.words().is_some(),
                        y.words().is_some()
                    );
                }
            }
        }
    }
}
