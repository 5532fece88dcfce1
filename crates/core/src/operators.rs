//! Operator population (paper §4.1.2 "Operator Population", Algorithm 2).
//!
//! Given a sentinel DAG topology, assign a DL operator (and consistent
//! hyper-parameters) to every node. The constraints — arity feasibility,
//! channel-flow agreement, spatial-rank agreement — are encoded as a
//! finite-domain CSP and enumerated with `proteus-smt` (the Z3 stand-in),
//! exactly mirroring the paper's `GENERATE RULESET` / `GETSOLUTION` /
//! `Rules ∧ ¬S` loop. Enumerated solutions are scored for semantic
//! consistency with the bigram model and filtered to the top percentile.

use crate::semantic::{top_percentile, BigramModel};
use proteus_graph::{
    Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Graph, LayerNormAttrs, NodeId, Op, OpCode,
    PoolAttrs,
};
use proteus_graphgen::Dag;
use proteus_smt::{Solver, VarId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Which operator family a sentinel draws from — matches the protected
/// subgraph so a CNN piece hides among CNN-looking sentinels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Regime {
    /// Convolutional models: conv/norm/pool/activation operator families.
    #[default]
    Cnn,
    /// Transformer models: gemm/matmul/layernorm/gather operator families.
    Transformer,
}

/// Picks the regime whose signature operators dominate `graph`.
pub fn detect_regime(graph: &Graph) -> Regime {
    let mut cnn = 0usize;
    let mut tfm = 0usize;
    for (_, node) in graph.iter() {
        match node.op.opcode() {
            OpCode::Conv
            | OpCode::BatchNorm
            | OpCode::MaxPool
            | OpCode::AveragePool
            | OpCode::GlobalAveragePool => cnn += 1,
            OpCode::Gemm
            | OpCode::LayerNorm
            | OpCode::SkipLayerNorm
            | OpCode::MatMul
            | OpCode::MatMulT
            | OpCode::Gather
            | OpCode::Gelu => tfm += 1,
            _ => {}
        }
    }
    if tfm > cnn {
        Regime::Transformer
    } else {
        Regime::Cnn
    }
}

/// Tuning knobs of the population step.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// Maximum solutions to enumerate per topology (Algorithm 2's
    /// `max_solns`).
    pub max_solutions: usize,
    /// Fraction of solutions kept after semantic scoring (Algorithm 2's
    /// `pct`).
    pub top_pct: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            max_solutions: 24,
            top_pct: 0.5,
        }
    }
}

const CNN_CHANNELS: [i64; 12] = [8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512];
const TFM_DIMS: [i64; 7] = [64, 128, 192, 256, 384, 512, 768];
const SEQ_LEN: i64 = 128;

/// CNN opcodes by arity class. Order matters only as a value-try order (it
/// is shuffled per node).
fn cnn_ops(in_degree: usize, is_primary_source: bool) -> Vec<OpCode> {
    match in_degree {
        0 if is_primary_source => vec![OpCode::Input],
        0 => vec![OpCode::Input, OpCode::Constant],
        1 => vec![
            OpCode::Conv,
            OpCode::BatchNorm,
            OpCode::Relu,
            OpCode::Relu6,
            OpCode::Sigmoid,
            OpCode::HardSigmoid,
            OpCode::Tanh,
            OpCode::MaxPool,
            OpCode::AveragePool,
            OpCode::GlobalAveragePool,
            OpCode::Softmax,
            OpCode::Dropout,
        ],
        2 => vec![OpCode::Add, OpCode::Mul, OpCode::Concat],
        _ => vec![OpCode::Concat],
    }
}

/// Transformer opcodes by arity class.
fn tfm_ops(in_degree: usize, is_primary_source: bool) -> Vec<OpCode> {
    match in_degree {
        0 if is_primary_source => vec![OpCode::Input],
        0 => vec![OpCode::Input, OpCode::Constant],
        1 => vec![
            OpCode::Gemm,
            OpCode::LayerNorm,
            OpCode::Relu,
            OpCode::Gelu,
            OpCode::Tanh,
            OpCode::Sigmoid,
            OpCode::Softmax,
            OpCode::Dropout,
        ],
        2 => vec![
            OpCode::Add,
            OpCode::Mul,
            OpCode::MatMulT,
            OpCode::MatMul,
            OpCode::Concat,
        ],
        _ => vec![OpCode::Concat],
    }
}

/// One fully-populated solution: opcode + channel width + spatial flag per
/// node.
#[derive(Debug, Clone)]
struct Assignment {
    opcodes: Vec<OpCode>,
    channels: Vec<i64>,
    spatial: Vec<i64>,
}

/// Builds the rule set (paper's `GENERATE RULESET`) and enumerates up to
/// `max_solutions` syntactically valid assignments.
fn enumerate_assignments(
    dag: &Dag,
    regime: Regime,
    cfg: &PopulationConfig,
    rng: &mut StdRng,
) -> Vec<Assignment> {
    let n = dag.len();
    if n == 0 {
        return Vec::new();
    }
    let preds = dag.preds();
    let topo = dag.topo_order();
    let primary = *topo.first().expect("nonempty");
    let mut solver = Solver::new();
    // bound worst-case search on adversarial topologies; typical topologies
    // enumerate their solutions in far fewer nodes, and hard cases are
    // cheaper to replace (resample a topology) than to solve exhaustively
    solver.set_node_budget(20_000);

    let mut op_vars: Vec<VarId> = Vec::with_capacity(n);
    let mut ch_vars: Vec<VarId> = Vec::with_capacity(n);
    let mut sp_vars: Vec<VarId> = Vec::with_capacity(n);
    for (i, pred) in preds.iter().enumerate().take(n) {
        let degree = pred.len();
        let mut ops = match regime {
            Regime::Cnn => cnn_ops(degree, i == primary),
            Regime::Transformer => tfm_ops(degree, i == primary),
        };
        ops.shuffle(rng);
        let dom: Vec<i64> = ops.iter().map(|c| c.index() as i64).collect();
        op_vars.push(solver.add_var(dom));
        let mut channels: Vec<i64> = match regime {
            Regime::Cnn => CNN_CHANNELS.to_vec(),
            Regime::Transformer => TFM_DIMS.to_vec(),
        };
        channels.shuffle(rng);
        ch_vars.push(solver.add_var(channels));
        sp_vars.push(solver.add_var(if regime == Regime::Cnn {
            vec![1, 0]
        } else {
            vec![1]
        }));
    }

    let code = |v: i64| OpCode::from_index(v as usize);
    for i in 0..n {
        let ps = preds[i].clone();
        match ps.len() {
            0 => {}
            1 => {
                let p = ps[0];
                // channel + spatial flow for unary operators
                solver.predicate(
                    vec![op_vars[i], ch_vars[i], ch_vars[p], sp_vars[i], sp_vars[p]],
                    "unary-flow",
                    move |v| {
                        let (op, ci, cp, si, sp) = (code(v[0]), v[1], v[2], v[3], v[4]);
                        match op {
                            OpCode::Conv | OpCode::Gemm => si == sp, // ci free
                            OpCode::GlobalAveragePool => ci == cp && si == 0,
                            OpCode::MatMulT
                            | OpCode::MatMul
                            | OpCode::Concat
                            | OpCode::Add
                            | OpCode::Mul => false, // wrong arity
                            _ => ci == cp && si == sp,
                        }
                    },
                );
            }
            2 => {
                let (p1, p2) = (ps[0], ps[1]);
                solver.predicate(
                    vec![
                        op_vars[i],
                        ch_vars[i],
                        ch_vars[p1],
                        ch_vars[p2],
                        sp_vars[i],
                        sp_vars[p1],
                        sp_vars[p2],
                    ],
                    "binary-flow",
                    move |v| {
                        let (op, ci, c1, c2) = (code(v[0]), v[1], v[2], v[3]);
                        let (si, s1, s2) = (v[4], v[5], v[6]);
                        match op {
                            OpCode::Add | OpCode::Mul => ci == c1 && c1 == c2 && si == s1.max(s2),
                            OpCode::Concat => c1 == c2 && ci == c1 + c2 && s1 == s2 && si == s1,
                            OpCode::MatMulT => {
                                // q·kᵀ: equal model dims, output dim = seq
                                c1 == c2 && ci == SEQ_LEN && si == 1 && s1 == 1 && s2 == 1
                            }
                            OpCode::MatMul => {
                                // probs[seq] x v[d] -> [d]
                                c1 == SEQ_LEN && ci == c2 && si == 1 && s1 == 1 && s2 == 1
                            }
                            _ => false,
                        }
                    },
                );
            }
            _ => {
                // Concat of m >= 3 equal-width inputs.
                let mut vars = vec![op_vars[i], ch_vars[i]];
                vars.extend(ps.iter().map(|&p| ch_vars[p]));
                vars.push(sp_vars[i]);
                vars.extend(ps.iter().map(|&p| sp_vars[p]));
                let m = ps.len();
                solver.predicate(vars, "concat-flow", move |v| {
                    let op = code(v[0]);
                    if op != OpCode::Concat {
                        return false;
                    }
                    let ci = v[1];
                    let chans = &v[2..2 + m];
                    let si = v[2 + m];
                    let sps = &v[3 + m..];
                    chans.iter().all(|&c| c == chans[0])
                        && ci == chans.iter().sum::<i64>()
                        && sps.iter().all(|&s| s == sps[0])
                        && si == sps[0]
                });
            }
        }
    }

    let raw = solver.solve_up_to(cfg.max_solutions);
    raw.into_iter()
        .map(|sol| Assignment {
            opcodes: op_vars.iter().map(|v| code(sol[v.index()])).collect(),
            channels: ch_vars.iter().map(|v| sol[v.index()]).collect(),
            spatial: sp_vars.iter().map(|v| sol[v.index()]).collect(),
        })
        .collect()
}

/// Materializes a populated assignment into a computational graph.
fn build_graph(dag: &Dag, regime: Regime, assignment: &Assignment, rng: &mut StdRng) -> Graph {
    let n = dag.len();
    let preds = dag.preds();
    let succs = dag.succs();
    let topo = dag.topo_order();
    let mut g = Graph::new("sentinel");
    let mut ids: Vec<Option<NodeId>> = vec![None; n];
    for &i in &topo {
        let codev = assignment.opcodes[i];
        let c = assignment.channels[i] as usize;
        let sp = assignment.spatial[i];
        let inputs: Vec<NodeId> = preds[i]
            .iter()
            .map(|&p| ids[p].expect("topo order"))
            .collect();
        let pred_c = preds[i]
            .first()
            .map(|&p| assignment.channels[p] as usize)
            .unwrap_or(c);
        let shape_of = |c: usize, sp: i64| -> proteus_graph::Shape {
            match regime {
                Regime::Cnn => {
                    if sp == 1 {
                        [1, c, 16, 16].into()
                    } else {
                        [1, c, 1, 1].into()
                    }
                }
                Regime::Transformer => [1, SEQ_LEN as usize, c].into(),
            }
        };
        let op = match codev {
            OpCode::Input => Op::Input {
                shape: shape_of(c, sp),
            },
            OpCode::Constant => Op::Constant {
                shape: shape_of(c, sp),
            },
            OpCode::Conv => {
                let kernel = *[1usize, 3, 5].choose(rng).expect("nonempty");
                Op::Conv(
                    ConvAttrs::new(pred_c, c, kernel)
                        .padding(kernel / 2)
                        .bias(rng.gen_bool(0.5)),
                )
            }
            OpCode::Gemm => Op::Gemm(GemmAttrs::new(pred_c, c)),
            OpCode::BatchNorm => Op::BatchNorm(BatchNormAttrs { channels: c }),
            OpCode::LayerNorm => Op::LayerNorm(LayerNormAttrs { dim: c }),
            OpCode::Relu => Op::Activation(Activation::Relu),
            OpCode::Relu6 => Op::Activation(Activation::Relu6),
            OpCode::Sigmoid => Op::Activation(Activation::Sigmoid),
            OpCode::HardSigmoid => Op::Activation(Activation::HardSigmoid),
            OpCode::Tanh => Op::Activation(Activation::Tanh),
            OpCode::Gelu => Op::Activation(Activation::Gelu),
            OpCode::Silu => Op::Activation(Activation::Silu),
            OpCode::Softmax => Op::Softmax {
                axis: if regime == Regime::Cnn { 1 } else { -1 },
            },
            OpCode::Dropout => Op::Dropout {
                p: rng.gen_range(10..=50),
            },
            OpCode::MaxPool => Op::MaxPool(PoolAttrs::new(3, 1, 1)),
            OpCode::AveragePool => Op::AveragePool(PoolAttrs::new(3, 1, 1)),
            OpCode::GlobalAveragePool => Op::GlobalAveragePool,
            OpCode::Add => Op::Add,
            OpCode::Mul => Op::Mul,
            OpCode::Concat => Op::Concat {
                axis: if regime == Regime::Cnn { 1 } else { 2 },
            },
            OpCode::MatMul => Op::MatMul,
            OpCode::MatMulT => Op::MatMulT,
            other => unreachable!("opcode {other:?} not in population vocabulary"),
        };
        ids[i] = Some(g.add(op, inputs));
    }
    // graph outputs: DAG sinks
    let outs: Vec<NodeId> = (0..n)
        .filter(|&i| succs[i].is_empty())
        .map(|i| ids[i].expect("assigned"))
        .collect();
    g.set_outputs(outs);
    g
}

/// Algorithm 2 end to end: enumerate, score, filter, sample one populated
/// sentinel graph. Returns `None` when the topology admits no valid
/// assignment (the caller then tries another topology).
pub fn populate(
    dag: &Dag,
    regime: Regime,
    bigram: &BigramModel,
    cfg: &PopulationConfig,
    rng: &mut StdRng,
) -> Option<Graph> {
    let assignments = enumerate_assignments(dag, regime, cfg, rng);
    if assignments.is_empty() {
        return None;
    }
    let scored: Vec<(Assignment, f64)> = assignments
        .into_iter()
        .map(|a| {
            let score = bigram.assignment_log_likelihood(dag.edges(), &a.opcodes);
            (a, score)
        })
        .collect();
    let kept = top_percentile(scored, cfg.top_pct);
    let choice = kept.choose(rng)?;
    let g = build_graph(dag, regime, choice, rng);
    // Defensive: population must produce a structurally valid graph.
    debug_assert!(g.validate().is_ok(), "populated sentinel invalid: {g:#?}");
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::infer_shapes;
    use rand::SeedableRng;

    fn chain_dag(n: usize) -> Dag {
        Dag::new(n, (1..n).map(|i| (i - 1, i)).collect())
    }

    fn diamond_dag() -> Dag {
        Dag::new(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    fn bigram() -> BigramModel {
        let corpus: Vec<Graph> = proteus_models::zoo().into_iter().map(|(_, g)| g).collect();
        let refs: Vec<&Graph> = corpus.iter().collect();
        BigramModel::fit(&refs, 0.1)
    }

    #[test]
    fn populated_chains_are_valid_and_shaped() {
        let model = bigram();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PopulationConfig::default();
        for n in [3usize, 5, 8, 12] {
            let dag = chain_dag(n);
            for regime in [Regime::Cnn, Regime::Transformer] {
                let g = populate(&dag, regime, &model, &cfg, &mut rng)
                    .unwrap_or_else(|| panic!("no assignment for n={n} {regime:?}"));
                g.validate().unwrap();
                infer_shapes(&g).unwrap_or_else(|e| panic!("shapes n={n} {regime:?}: {e}\n{g:#?}"));
                assert_eq!(g.len(), n);
            }
        }
    }

    #[test]
    fn populated_diamond_handles_binary_ops() {
        let model = bigram();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PopulationConfig::default();
        for seed in 0..10u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let g = populate(&diamond_dag(), Regime::Cnn, &model, &cfg, &mut r).unwrap();
            g.validate().unwrap();
            infer_shapes(&g).unwrap();
            let _ = &mut rng;
        }
    }

    #[test]
    fn high_fanin_becomes_concat() {
        let model = bigram();
        let mut rng = StdRng::seed_from_u64(3);
        let dag = Dag::new(5, vec![(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]);
        let g = populate(
            &dag,
            Regime::Cnn,
            &model,
            &PopulationConfig::default(),
            &mut rng,
        )
        .expect("satisfiable");
        infer_shapes(&g).unwrap();
        let concats = g
            .iter()
            .filter(|(_, n)| matches!(n.op, Op::Concat { .. }))
            .count();
        assert!(concats >= 1);
    }

    #[test]
    fn regime_detection() {
        let cnn = proteus_models::build(proteus_models::ModelKind::ResNet);
        let tfm = proteus_models::build(proteus_models::ModelKind::Bert);
        assert_eq!(detect_regime(&cnn), Regime::Cnn);
        assert_eq!(detect_regime(&tfm), Regime::Transformer);
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let model = bigram();
        let cfg = PopulationConfig::default();
        let dag = chain_dag(8);
        let mut a_rng = StdRng::seed_from_u64(10);
        let mut b_rng = StdRng::seed_from_u64(11);
        let a = populate(&dag, Regime::Cnn, &model, &cfg, &mut a_rng).unwrap();
        let b = populate(&dag, Regime::Cnn, &model, &cfg, &mut b_rng).unwrap();
        let ops_a: Vec<_> = a.iter().map(|(_, n)| n.op.opcode()).collect();
        let ops_b: Vec<_> = b.iter().map(|(_, n)| n.op.opcode()).collect();
        assert_ne!(ops_a, ops_b, "seeds should diversify sentinels");
    }

    #[test]
    fn semantic_filter_prefers_plausible_sequences() {
        // with a corpus of conv->bn->relu models, populated chains should
        // frequently contain that motif rather than e.g. softmax chains
        let model = bigram();
        let cfg = PopulationConfig {
            max_solutions: 32,
            top_pct: 0.25,
        };
        let mut softmax_chains = 0;
        let mut total = 0;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = populate(&chain_dag(6), Regime::Cnn, &model, &cfg, &mut rng).unwrap();
            let codes: Vec<_> = g.iter().map(|(_, n)| n.op.opcode()).collect();
            let softmaxes = codes.iter().filter(|&&c| c == OpCode::Softmax).count();
            if softmaxes >= 3 {
                softmax_chains += 1;
            }
            total += 1;
        }
        assert!(
            softmax_chains * 4 < total,
            "{softmax_chains}/{total} sentinels are softmax-heavy"
        );
    }
}
