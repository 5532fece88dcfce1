//! Engine parity: the worklist rewrite engine must produce **bit-identical**
//! optimized graphs to the retained naive fixpoint, across the full model
//! zoo, obfuscation bucket members (real pieces and GraphRNN-sampled
//! sentinels), and randomly generated graphs.
//!
//! "Bit-identical" is literal: `Graph`'s structural equality covers node
//! ops, attributes, edges, auto-generated names, arena layout after
//! compaction, and declared outputs. Parameter stores and rewrite
//! statistics must match too. This is the contract that makes the worklist
//! engine a pure performance change — every downstream figure (fig4's
//! geomean slowdown included) is unchanged by construction.

use proteus::{PartitionSpec, Proteus, ProteusConfig};
use proteus_graph::{Graph, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, zoo, ModelKind};
use proteus_opt::{check_equivalence, Engine, Optimizer, Profile};

/// Optimizes `g` with both engines under `profile` and asserts the results
/// are indistinguishable. Returns the worklist result for further checks.
fn assert_parity(
    g: &Graph,
    params: &TensorMap,
    profile: Profile,
    label: &str,
) -> (Graph, TensorMap) {
    let worklist = Optimizer::with_engine(profile, Engine::Worklist);
    let naive = Optimizer::with_engine(profile, Engine::NaiveFixpoint);
    let (gw, pw, sw) = worklist.optimize(g, params);
    let (gn, pn, sn) = naive.optimize(g, params);
    assert_eq!(gw, gn, "{label}/{profile:?}: optimized graphs diverge");
    assert_eq!(pw, pn, "{label}/{profile:?}: optimized params diverge");
    assert_eq!(
        sw.rewrites, sn.rewrites,
        "{label}/{profile:?}: per-rule rewrite totals diverge"
    );
    assert_eq!(gw.len(), sn.nodes_after, "{label}/{profile:?}: node count");
    let lw = worklist.estimate_us(&gw);
    let ln = naive.estimate_us(&gn);
    assert_eq!(lw, ln, "{label}/{profile:?}: estimated latencies diverge");
    (gw, pw)
}

#[test]
fn zoo_parity_all_models_all_profiles() {
    // registry-count pin: a silently dropped zoo model is a test failure,
    // not a quiet coverage loss
    assert_eq!(zoo::all().len(), zoo::COUNT);
    for entry in zoo::all() {
        let g = (entry.build)();
        for profile in Profile::ALL {
            let (og, _) = assert_parity(&g, &TensorMap::new(), profile, entry.name);
            og.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        }
    }
}

#[test]
fn bucket_member_parity_over_graphrnn_sentinels() {
    // A small protected model, obfuscated with enough sentinels that the
    // buckets hold > 50 subgraphs: every member (real pieces and
    // GraphRNN-topology sentinels alike) must optimize identically under
    // both engines.
    let (g, params) = {
        use proteus_graph::{Activation, ConvAttrs, Op};
        let mut g = Graph::new("protected");
        let x = g.input([1, 3, 8, 8]);
        let c1 = g.add(Op::Conv(ConvAttrs::new(3, 8, 3).padding(1)), [x]);
        let r1 = g.add(Op::Activation(Activation::Relu), [c1]);
        let c2 = g.add(Op::Conv(ConvAttrs::new(8, 8, 3).padding(1)), [r1]);
        let a = g.add(Op::Add, [c2, r1]);
        let r2 = g.add(Op::Activation(Activation::Relu), [a]);
        let gap = g.add(Op::GlobalAveragePool, [r2]);
        g.set_outputs([gap]);
        let params = TensorMap::init_random(&g, 11);
        (g, params)
    };
    let cfg = ProteusConfig {
        k: 12,
        partitions: PartitionSpec::Count(4),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 30,
        ..Default::default()
    };
    let proteus = Proteus::train(cfg, &[build(ModelKind::ResNet)]).expect("train");
    let frames: Vec<_> = proteus.obfuscate_session(&g, &params, 0).unwrap().collect();
    let members: usize = frames.iter().map(|f| f.bucket.members.len()).sum();
    assert!(
        members >= 50,
        "need >= 50 members for coverage, got {members}"
    );
    for (bi, frame) in frames.iter().enumerate() {
        for (mi, member) in frame.bucket.members.iter().enumerate() {
            for profile in Profile::ALL {
                assert_parity(
                    &member.graph,
                    &member.params,
                    profile,
                    &format!("bucket{bi}/member{mi}"),
                );
            }
        }
    }
}

#[test]
fn worklist_output_is_semantically_equivalent() {
    // Beyond structural parity: the worklist engine's output must still
    // compute the same function as the unoptimized graph (interpreter
    // probes), on a parameterized model where every fusion rewrites
    // weights.
    use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Op, PoolAttrs};
    let mut g = Graph::new("semantic");
    let x = g.input([1, 3, 8, 8]);
    let c1 = g.add(
        Op::Conv(ConvAttrs::new(3, 8, 3).padding(1).bias(false)),
        [x],
    );
    let b1 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c1]);
    let r1 = g.add(Op::Activation(Activation::Relu), [b1]);
    let d = g.add(Op::Dropout { p: 20 }, [r1]);
    let p1 = g.add(Op::MaxPool(PoolAttrs::new(2, 2, 0)), [d]);
    let f = g.add(Op::Flatten, [p1]);
    let fc = g.add(Op::Gemm(GemmAttrs::new(128, 10)), [f]);
    let t = g.add(Op::Activation(Activation::Tanh), [fc]);
    g.set_outputs([t]);
    let params = TensorMap::init_random(&g, 23);
    for profile in Profile::ALL {
        let (og, op) = assert_parity(&g, &params, profile, "semantic");
        let eq = check_equivalence(&g, &params, &og, &op, 3, 1e-3, 5).unwrap();
        assert!(eq.is_equivalent(), "{profile:?}: {eq:?}");
    }
}

#[test]
fn optimizer_default_engine_is_worklist() {
    assert_eq!(Optimizer::new(Profile::OrtLike).engine(), Engine::Worklist);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proteus_graph::{Activation, Op, Shape};

    /// Random DAGs over the ops the rewrite rules interact with:
    /// activations, adds/muls, identities, dropouts, reshape chains, and
    /// transpose pairs — the patterns where sweep-order bugs would surface.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        proptest::collection::vec((0u8..9, proptest::num::u64::ANY), 3..40).prop_map(|specs| {
            let mut g = Graph::new("prop");
            let mut ids = vec![g.input([2, 3, 4])];
            for (kind, pick) in specs {
                let a = ids[(pick as usize) % ids.len()];
                let b = ids[(pick as usize / 3) % ids.len()];
                let id = match kind {
                    0 => g.add(Op::Activation(Activation::Relu), [a]),
                    1 => g.add(Op::Activation(Activation::Sigmoid), [a]),
                    2 => g.add(Op::Identity, [a]),
                    3 => g.add(Op::Dropout { p: 20 }, [a]),
                    4 => g.add(Op::Add, [a, b]),
                    5 => g.add(Op::Mul, [a, b]),
                    6 => g.add(
                        Op::Reshape {
                            shape: Shape::from([2, 12]),
                        },
                        [a],
                    ),
                    7 => g.add(
                        Op::Transpose {
                            perm: vec![0, 2, 1],
                        },
                        [a],
                    ),
                    _ => g.add(
                        Op::Transpose {
                            perm: vec![2, 0, 1],
                        },
                        [a],
                    ),
                };
                ids.push(id);
            }
            let last = *ids.last().expect("nonempty");
            g.set_outputs([last]);
            g
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn engines_agree_on_random_graphs(
            g in arb_graph(),
            profile_idx in 0usize..Profile::ALL.len(),
        ) {
            let profile = Profile::ALL[profile_idx];
            let (og, _) = assert_parity(&g, &TensorMap::new(), profile, "proptest");
            og.validate().unwrap();
        }
    }
}

mod modern_shape_proptests {
    use super::*;
    use proptest::prelude::*;
    use proteus_graph::{Activation, Op};

    /// U-Net-style skip graphs: a chain of activations with channel-axis
    /// `Concat` skip connections back to earlier positions — the shape the
    /// tvm-like profile's reshape/transpose-first anchor ordering sweeps
    /// differently than the other profiles.
    fn arb_skip_graph() -> impl Strategy<Value = Graph> {
        proptest::collection::vec((proptest::num::u64::ANY, proptest::bool::ANY), 2..10).prop_map(
            |specs| {
                let mut g = Graph::new("skips");
                let x = g.input([1, 4, 6, 6]);
                let mut trunk = vec![x];
                for (pick, concat) in specs {
                    let prev = *trunk.last().expect("nonempty");
                    let next = if concat {
                        let skip = trunk[(pick as usize) % trunk.len()];
                        g.add(Op::Concat { axis: 1 }, [prev, skip])
                    } else {
                        g.add(Op::Activation(Activation::Silu), [prev])
                    };
                    trunk.push(next);
                }
                let out = *trunk.last().expect("nonempty");
                g.set_outputs([out]);
                g
            },
        )
    }

    /// GNN-style aggregation graphs: repeated `MatMul` against a constant
    /// adjacency operator with interleaved activations/residuals, closed by
    /// a `ReduceMean` readout.
    fn arb_aggregation_graph() -> impl Strategy<Value = Graph> {
        proptest::collection::vec((0u8..3, proptest::bool::ANY), 1..8).prop_map(|specs| {
            let mut g = Graph::new("aggregate");
            let h0 = g.input([6, 8]);
            let adj = g.constant([6, 6]);
            let mut h = h0;
            for (kind, residual) in specs {
                let next = match kind {
                    0 => g.add(Op::MatMul, [adj, h]),
                    1 => g.add(Op::Activation(Activation::Relu), [h]),
                    _ => g.add(Op::Identity, [h]),
                };
                h = if residual {
                    g.add(Op::Add, [next, h])
                } else {
                    next
                };
            }
            let pooled = g.add(
                Op::ReduceMean {
                    axes: vec![0],
                    keepdims: true,
                },
                [h],
            );
            g.set_outputs([pooled]);
            g
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Parity *and* interpreter equivalence on U-Net skip shapes, under
        // every profile (profile 3 included).
        #[test]
        fn unet_skip_shapes_optimize_equivalently(
            g in arb_skip_graph(),
            profile_idx in 0usize..Profile::ALL.len(),
        ) {
            let profile = Profile::ALL[profile_idx];
            let params = TensorMap::init_random(&g, 17);
            let (og, op) = assert_parity(&g, &params, profile, "unet-skips");
            og.validate().unwrap();
            let eq = check_equivalence(&g, &params, &og, &op, 2, 1e-3, 5).unwrap();
            prop_assert!(eq.is_equivalent(), "{:?}: {:?}", profile, eq);
        }

        // Parity *and* interpreter equivalence on GNN aggregation shapes,
        // under every profile.
        #[test]
        fn gnn_aggregation_shapes_optimize_equivalently(
            g in arb_aggregation_graph(),
            profile_idx in 0usize..Profile::ALL.len(),
        ) {
            let profile = Profile::ALL[profile_idx];
            let params = TensorMap::init_random(&g, 29);
            let (og, op) = assert_parity(&g, &params, profile, "gnn-aggregation");
            og.validate().unwrap();
            let eq = check_equivalence(&g, &params, &og, &op, 2, 1e-3, 5).unwrap();
            prop_assert!(eq.is_equivalent(), "{:?}: {:?}", profile, eq);
        }
    }
}
