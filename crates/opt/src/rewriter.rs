//! The optimizer driver: profiles, the worklist rewrite engine (plus the
//! retained naive-fixpoint baseline), and latency estimation.

use crate::cost::{estimate_runtime_us, CostParams};
use crate::rules::{self, RewriteCtx, Rule};
use proteus_graph::{Graph, GraphAnalysis, GraphError, OpCode, TensorMap};

/// Which optimizer the driver emulates (paper §5.1 evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Profile {
    /// ONNXRuntime-style: the full graph-level rule set, including
    /// speculative algorithm selection (Winograd).
    #[default]
    OrtLike,
    /// Hidet-style: a leaner graph-level set (Hidet pushes most work to
    /// operator-level scheduling), with faster per-kernel parameters.
    HidetLike,
    /// TVM-style: a layout-first rule mix — data-movement cleanups
    /// (reshape chains, transpose pairs) run *before* the fusion passes,
    /// mirroring Relay's canonicalization-then-fuse pipeline, and the
    /// speculative Winograd selection is left to the auto-scheduler (so it
    /// is absent here). Distinct rule subset, distinct anchor ordering.
    TvmLike,
}

impl Profile {
    /// Every profile, in a stable order (the order reports iterate).
    pub const ALL: [Profile; 3] = [Profile::OrtLike, Profile::HidetLike, Profile::TvmLike];

    /// The cost-model parameters of this profile.
    pub fn cost_params(self) -> CostParams {
        match self {
            Profile::OrtLike => CostParams::ort_like(),
            Profile::HidetLike => CostParams::hidet_like(),
            Profile::TvmLike => CostParams::tvm_like(),
        }
    }

    /// The rewrite rules of this profile, in application order.
    pub fn rules(self) -> Vec<RuleSpec> {
        let all = RuleSpec::catalog();
        let pick = |names: &[&str]| -> Vec<RuleSpec> {
            names
                .iter()
                .map(|n| {
                    *all.iter()
                        .find(|r| r.name == *n)
                        .expect("profile names a cataloged rule")
                })
                .collect()
        };
        match self {
            Profile::OrtLike => pick(&[
                "eliminate_identity",
                "eliminate_dropout",
                "constant_fold",
                "fold_bn_into_conv",
                "fuse_conv_add",
                "fuse_conv_act",
                "fuse_gemm_act",
                "fuse_add_act",
                "fuse_skip_layernorm",
                "fuse_matmul_transpose",
                "fuse_reshape_chain",
                "eliminate_transpose_pair",
                "cse",
                "winograd_rewrite",
            ]),
            Profile::HidetLike => pick(&[
                "eliminate_identity",
                "eliminate_dropout",
                "constant_fold",
                "fold_bn_into_conv",
                "fuse_conv_act",
                "fuse_gemm_act",
                "cse",
            ]),
            Profile::TvmLike => pick(&[
                "eliminate_identity",
                "fuse_reshape_chain",
                "eliminate_transpose_pair",
                "fuse_matmul_transpose",
                "eliminate_dropout",
                "constant_fold",
                "fold_bn_into_conv",
                "fuse_conv_add",
                "fuse_conv_act",
                "fuse_gemm_act",
                "fuse_add_act",
                "cse",
            ]),
        }
    }

    /// Table name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Profile::OrtLike => "onnxruntime-like",
            Profile::HidetLike => "hidet-like",
            Profile::TvmLike => "tvm-like",
        }
    }
}

/// Which opcodes can possibly enable a rule: the opcode of every node the
/// rule's match predicate examines (the anchor it scans for plus the
/// neighbors whose op or fan-out it inspects). The worklist engine re-runs
/// a rule only when a mutation has touched one of its anchor opcodes.
#[derive(Debug, Clone, Copy)]
pub enum Anchors {
    /// Any mutation can enable the rule (global sweeps such as CSE and
    /// constant folding, whose matches depend on arbitrary nodes and
    /// parameter tensors).
    Any,
    /// Only mutations touching these opcodes can enable the rule.
    Ops(&'static [OpCode]),
    /// `Ops`, extended with every activation opcode (for the `Act(x)`
    /// fusion rules).
    OpsAndActivations(&'static [OpCode]),
}

impl Anchors {
    /// Bitmask over [`OpCode::index`] — compared against
    /// [`Graph::take_dirty_ops`] masks.
    pub fn mask(self) -> u64 {
        let ops_mask = |ops: &[OpCode]| ops.iter().fold(0u64, |m, c| m | (1u64 << c.index()));
        match self {
            Anchors::Any => !0,
            Anchors::Ops(ops) => ops_mask(ops),
            Anchors::OpsAndActivations(ops) => ops_mask(ops) | ops_mask(&OpCode::ACTIVATIONS),
        }
    }
}

/// One rewrite rule plus the metadata the engine schedules it by.
#[derive(Debug, Clone, Copy)]
pub struct RuleSpec {
    /// Stable rule name (used in [`OptimizeStats::rewrites`]).
    pub name: &'static str,
    /// The sweep itself.
    pub apply: Rule,
    /// Which opcodes can enable this rule.
    pub anchors: Anchors,
}

impl RuleSpec {
    /// Every known rule with its anchor set. Profiles pick ordered subsets
    /// of this catalog.
    pub fn catalog() -> Vec<RuleSpec> {
        let spec = |name, apply, anchors| RuleSpec {
            name,
            apply,
            anchors,
        };
        vec![
            spec(
                "eliminate_identity",
                rules::eliminate_identity as Rule,
                Anchors::Ops(&[OpCode::Identity, OpCode::Reshape]),
            ),
            spec(
                "eliminate_dropout",
                rules::eliminate_dropout,
                Anchors::Ops(&[OpCode::Dropout]),
            ),
            spec("constant_fold", rules::constant_fold, Anchors::Any),
            spec(
                "fold_bn_into_conv",
                rules::fold_bn_into_conv,
                Anchors::Ops(&[OpCode::BatchNorm, OpCode::Conv]),
            ),
            spec(
                "fuse_conv_add",
                rules::fuse_conv_add,
                Anchors::Ops(&[OpCode::Add, OpCode::Conv]),
            ),
            spec(
                "fuse_conv_act",
                rules::fuse_conv_act,
                Anchors::OpsAndActivations(&[OpCode::Conv]),
            ),
            spec(
                "fuse_gemm_act",
                rules::fuse_gemm_act,
                Anchors::OpsAndActivations(&[OpCode::Gemm]),
            ),
            spec(
                "fuse_add_act",
                rules::fuse_add_act,
                Anchors::OpsAndActivations(&[OpCode::Add]),
            ),
            spec(
                "fuse_skip_layernorm",
                rules::fuse_skip_layernorm,
                Anchors::Ops(&[OpCode::LayerNorm, OpCode::Add]),
            ),
            spec(
                "fuse_matmul_transpose",
                rules::fuse_matmul_transpose,
                Anchors::Ops(&[OpCode::MatMul, OpCode::Transpose]),
            ),
            spec(
                "fuse_reshape_chain",
                rules::fuse_reshape_chain,
                Anchors::Ops(&[OpCode::Reshape]),
            ),
            spec(
                "eliminate_transpose_pair",
                rules::eliminate_transpose_pair,
                Anchors::Ops(&[OpCode::Transpose]),
            ),
            spec("cse", rules::cse, Anchors::Any),
            spec(
                "winograd_rewrite",
                rules::winograd_rewrite,
                Anchors::Ops(&[OpCode::Conv]),
            ),
        ]
    }
}

/// Which rewrite engine drives the fixpoint (both produce bit-identical
/// optimized graphs; the parity tests in `tests/engine_parity.rs` enforce
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Dirty-opcode worklist: analyses cached per graph generation, rules
    /// re-run only when a mutation touched one of their anchor opcodes.
    #[default]
    Worklist,
    /// The seed's engine, retained verbatim in `crates/opt/src/naive.rs`:
    /// every rule every iteration, each sweep recomputing its
    /// `HashMap`-based analyses from scratch. The measurement baseline
    /// (`BENCH_opt.json` compares against it) and the independent parity
    /// oracle.
    NaiveFixpoint,
}

/// Statistics of one optimization run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizeStats {
    /// Total rewrites applied, per rule name.
    pub rewrites: Vec<(String, usize)>,
    /// Fixpoint iterations executed.
    pub iterations: usize,
    /// Node count before and after.
    pub nodes_before: usize,
    pub nodes_after: usize,
}

/// A graph-level optimizer (the "optimizer party" of the paper).
///
/// The handle owns its profile's rule catalog, resolved once at
/// construction — in the streaming protocol one `Optimizer` is reused
/// across every [`Optimizer::optimize`] call (all members of all frames),
/// so per-call catalog rebuilds are off the hot path.
#[derive(Debug, Clone)]
pub struct Optimizer {
    profile: Profile,
    engine: Engine,
    rules: Vec<RuleSpec>,
}

impl Default for Optimizer {
    fn default() -> Optimizer {
        Optimizer::new(Profile::default())
    }
}

/// Iteration cap shared by both engines. The naive engine runs at most this
/// many full passes; the worklist engine at most this many rounds (a round
/// is the worklist equivalent of one pass, with clean rules skipped), so
/// even non-converging inputs produce identical graphs.
pub(crate) const MAX_ITERS: usize = 12;

impl Optimizer {
    /// Creates an optimizer with the given profile and the default
    /// (worklist) engine.
    pub fn new(profile: Profile) -> Optimizer {
        Optimizer::with_engine(profile, Engine::default())
    }

    /// Creates an optimizer with an explicit engine.
    pub fn with_engine(profile: Profile, engine: Engine) -> Optimizer {
        Optimizer {
            profile,
            engine,
            rules: profile.rules(),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// The active rewrite engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The rule catalog this handle applies, in application order.
    pub fn rules(&self) -> &[RuleSpec] {
        &self.rules
    }

    /// Optimizes a graph to fixpoint. Returns the optimized graph (compacted
    /// and dead-code-pruned), its parameters, and rewrite statistics.
    ///
    /// The input is never mutated — the optimizer party works on its own
    /// copy, as in the paper's threat model.
    pub fn optimize(&self, graph: &Graph, params: &TensorMap) -> (Graph, TensorMap, OptimizeStats) {
        let mut g = graph.clone();
        let mut p = params.clone();
        let rules = &self.rules;
        let mut stats = OptimizeStats {
            nodes_before: g.len(),
            ..Default::default()
        };
        let mut totals = vec![0usize; rules.len()];
        stats.iterations = match self.engine {
            Engine::Worklist => run_worklist(&mut g, &mut p, rules, &mut totals),
            Engine::NaiveFixpoint => crate::naive::run_fixpoint(&mut g, &mut p, rules, &mut totals),
        };
        g.prune_dead();
        let (compacted, mapping) = g.compact();
        // remap parameters to compacted ids
        let mut new_params = TensorMap::new();
        for (old, new) in &mapping {
            if let Some(t) = p.remove(*old) {
                new_params.insert(*new, t);
            }
        }
        stats.nodes_after = compacted.len();
        stats.rewrites = rules
            .iter()
            .zip(totals)
            .map(|(rule, n)| (rule.name.to_string(), n))
            .collect();
        (compacted, new_params, stats)
    }

    /// Estimated latency (µs) of a graph under this profile's cost model.
    ///
    /// # Errors
    /// Propagates shape-inference failures.
    pub fn estimate_us(&self, graph: &Graph) -> Result<f64, GraphError> {
        estimate_runtime_us(graph, &self.profile.cost_params())
    }

    /// Convenience: `(unoptimized_us, optimized_us, speedup)` for a graph.
    ///
    /// # Errors
    /// Propagates shape-inference failures.
    pub fn speedup(&self, graph: &Graph, params: &TensorMap) -> Result<SpeedupReport, GraphError> {
        let before = self.estimate_us(graph)?;
        let (opt, _, stats) = self.optimize(graph, params);
        let after = self.estimate_us(&opt)?;
        Ok(SpeedupReport {
            unoptimized_us: before,
            optimized_us: after,
            stats,
        })
    }
}

/// The worklist engine. Rules run in profile order, but a rule is skipped
/// when no mutation since its last run touched one of its anchor opcodes —
/// its previous sweep already proved there is nothing to do. The analysis
/// snapshot is recomputed only when the graph generation moved, so quiet
/// stretches of the rule list share one snapshot. Returns the number of
/// rounds in which at least one rule ran.
///
/// Round `k` applies exactly the rewrites naive pass `k` applies (skips are
/// provably no-ops), so both engines yield bit-identical graphs — including
/// at the shared iteration cap.
fn run_worklist(
    g: &mut Graph,
    p: &mut TensorMap,
    rules: &[RuleSpec],
    totals: &mut [usize],
) -> usize {
    let masks: Vec<u64> = rules.iter().map(|r| r.anchors.mask()).collect();
    // Opcodes dirtied since each rule last ran. Everything starts dirty
    // (construction-time dirt in the clone is discarded — the first round
    // runs every rule regardless).
    let mut pending: Vec<u64> = vec![!0u64; rules.len()];
    g.take_dirty_ops();
    let mut analysis = GraphAnalysis::compute(g);
    let mut rounds = 0;
    for _ in 0..MAX_ITERS {
        if pending
            .iter()
            .zip(&masks)
            .all(|(&pend, &mask)| pend & mask == 0)
        {
            break;
        }
        rounds += 1;
        for (i, rule) in rules.iter().enumerate() {
            if pending[i] & masks[i] == 0 {
                continue;
            }
            if !analysis.is_fresh(g) {
                analysis = GraphAnalysis::compute(g);
            } else {
                analysis.assert_fresh(g);
            }
            pending[i] = 0;
            let n = (rule.apply)(&mut RewriteCtx {
                graph: g,
                params: p,
                analysis: &analysis,
            });
            totals[i] += n;
            let dirt = g.take_dirty_ops();
            if dirt != 0 {
                for pend in pending.iter_mut() {
                    *pend |= dirt;
                }
            }
        }
    }
    // In debug builds, verify the skip logic against ground truth: at
    // quiescence every rule must be a no-op. A failure here means a rule
    // mutated state the dirty tracking missed.
    #[cfg(debug_assertions)]
    if rounds < MAX_ITERS {
        for rule in rules {
            let analysis = GraphAnalysis::compute(g);
            let n = (rule.apply)(&mut RewriteCtx {
                graph: g,
                params: p,
                analysis: &analysis,
            });
            assert_eq!(
                n, 0,
                "worklist engine quiesced while rule `{}` still applies — \
                 a mutation escaped the dirty-opcode tracking",
                rule.name
            );
            g.take_dirty_ops();
        }
    }
    rounds
}

/// Result of [`Optimizer::speedup`].
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    pub unoptimized_us: f64,
    pub optimized_us: f64,
    pub stats: OptimizeStats,
}

impl SpeedupReport {
    /// `unoptimized / optimized` (>1 means the optimizer helped).
    pub fn speedup(&self) -> f64 {
        self.unoptimized_us / self.optimized_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::wire::encode_graph;
    use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, Executor, Op, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn residual_block() -> Graph {
        let mut g = Graph::new("block");
        let x = g.input([1, 32, 8, 8]);
        let c1 = g.add(
            Op::Conv(ConvAttrs::new(32, 32, 3).padding(1).bias(false)),
            [x],
        );
        let b1 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 32 }), [c1]);
        let r1 = g.add(Op::Activation(Activation::Relu), [b1]);
        let c2 = g.add(
            Op::Conv(ConvAttrs::new(32, 32, 3).padding(1).bias(false)),
            [r1],
        );
        let b2 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 32 }), [c2]);
        let a = g.add(Op::Add, [b2, x]);
        let r2 = g.add(Op::Activation(Activation::Relu), [a]);
        let d = g.add(Op::Dropout { p: 10 }, [r2]);
        g.set_outputs([d]);
        g
    }

    #[test]
    fn optimize_residual_block_collapses_kernels() {
        let g = residual_block();
        let params = TensorMap::init_random(&g, 21);
        let opt = Optimizer::new(Profile::OrtLike);
        let (og, op, stats) = opt.optimize(&g, &params);
        og.validate().unwrap();
        // conv-bn-relu + conv-bn-add-relu + dropout: collapses to 2 convs
        assert_eq!(og.len(), 3, "{og:#?}");
        assert!(stats.nodes_before > stats.nodes_after);

        // semantics preserved
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::random([1, 32, 8, 8], 1.0, &mut rng);
        let a = Executor::new(&g, &params)
            .run(std::slice::from_ref(&x))
            .unwrap();
        let b = Executor::new(&og, &op).run(&[x]).unwrap();
        assert!(
            a[0].allclose(&b[0], 1e-3),
            "max diff {}",
            a[0].max_abs_diff(&b[0])
        );
    }

    #[test]
    fn optimization_improves_estimated_latency() {
        let g = residual_block();
        let params = TensorMap::init_random(&g, 5);
        let opt = Optimizer::new(Profile::OrtLike);
        let report = opt.speedup(&g, &params).unwrap();
        assert!(
            report.speedup() > 1.3,
            "expected clear speedup, got {:.3}",
            report.speedup()
        );
    }

    #[test]
    fn hidet_profile_applies_fewer_rules() {
        let g = residual_block();
        let params = TensorMap::init_random(&g, 6);
        let (ort_g, _, _) = Optimizer::new(Profile::OrtLike).optimize(&g, &params);
        let (hidet_g, _, _) = Optimizer::new(Profile::HidetLike).optimize(&g, &params);
        assert!(ort_g.len() <= hidet_g.len());
    }

    #[test]
    fn optimizer_is_idempotent() {
        let g = residual_block();
        let params = TensorMap::init_random(&g, 7);
        let opt = Optimizer::new(Profile::OrtLike);
        let (g1, p1, _) = opt.optimize(&g, &params);
        let (g2, _, stats2) = opt.optimize(&g1, &p1);
        assert_eq!(g1.len(), g2.len());
        let total: usize = stats2
            .rewrites
            .iter()
            .filter(|(name, _)| name != "winograd_rewrite")
            .map(|(_, n)| n)
            .sum();
        assert_eq!(total, 0, "second run should be a no-op: {stats2:?}");
    }

    #[test]
    fn zoo_models_optimize_and_validate() {
        use proteus_models::{build, ModelKind};
        for kind in [ModelKind::ResNet, ModelKind::MobileNet, ModelKind::Bert] {
            let g = build(kind);
            let opt = Optimizer::new(Profile::OrtLike);
            let (og, _, stats) = opt.optimize(&g, &TensorMap::new());
            og.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            proteus_graph::infer_shapes(&og).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(
                stats.nodes_after < stats.nodes_before,
                "{kind}: no reduction ({} -> {})",
                stats.nodes_before,
                stats.nodes_after
            );
        }
    }

    #[test]
    fn zoo_models_speed_up() {
        use proteus_models::{build, ModelKind};
        let opt = Optimizer::new(Profile::OrtLike);
        for kind in [
            ModelKind::ResNet,
            ModelKind::GoogleNet,
            ModelKind::DistilBert,
        ] {
            let g = build(kind);
            let report = opt.speedup(&g, &TensorMap::new()).unwrap();
            assert!(
                report.speedup() > 1.05,
                "{kind}: speedup only {:.3}",
                report.speedup()
            );
        }
    }

    #[test]
    fn nats_models_slow_down_under_ort() {
        // the paper's §6.1 phenomenon: graph optimization *hurts* the exotic
        // small-channel NAS model
        use proteus_models::nats;
        let opt = Optimizer::new(Profile::OrtLike);
        let g = nats::sample_conv_rich_model(3, 5);
        let report = opt.speedup(&g, &TensorMap::new()).unwrap();
        // not asserting an exact 2.15x — the shape is: optimized is slower
        assert!(
            report.speedup() < 1.0,
            "NATS model should slow down, got speedup {:.3}",
            report.speedup()
        );
    }

    /// Both engines make the same merge decisions on constants that came
    /// off the wire as they do on owned ones: the duplicates (one exact,
    /// one differing only in its NaN payload) merge, the `-0.0` twin does
    /// not, and every result encodes to the same bytes.
    #[test]
    fn engines_agree_on_constants_decoded_from_the_wire() {
        use proteus_graph::wire::{decode_params, encode_params};
        let mut g = Graph::new("consts");
        let x = g.input([1, 2]);
        let values = [
            [f32::from_bits(0x7fc0_0001), 1.0],
            [f32::from_bits(0x7fc0_0001), 1.0],
            [f32::from_bits(0x7fc0_0777), 1.0],
            [-0.0, 3.0],
            [0.0, 3.0],
        ];
        let mut params = TensorMap::new();
        let mut sums = Vec::new();
        for v in values {
            let c = g.constant([1, 2]);
            params.insert(c, vec![Tensor::new([1, 2], v.to_vec())]);
            sums.push(g.add(Op::Add, [x, c]));
        }
        g.set_outputs(sums);
        let received = decode_params(&mut encode_params(&g, &params)).unwrap();
        let mut outputs = Vec::new();
        for (engine, p) in [
            (Engine::Worklist, &received),
            (Engine::NaiveFixpoint, &received),
            (Engine::Worklist, &params),
        ] {
            let (og, op, stats) = Optimizer::with_engine(Profile::OrtLike, engine).optimize(&g, p);
            // 5 constants and 5 adds become 3 of each, beside the input
            assert_eq!(og.len(), 7, "{engine:?}: {stats:?}");
            outputs.push((encode_graph(&og), encode_params(&og, &op)));
        }
        assert_eq!(outputs[0], outputs[1], "engines diverge on received words");
        assert_eq!(
            outputs[0], outputs[2],
            "received words and owned floats diverge"
        );
    }
}
