//! The learned structural attacker — the escalated adversary of the
//! scenario-diversity battery.
//!
//! Where [`crate::SageClassifier`] mirrors the paper's Figure 7 GNN, this
//! attacker is given strictly more signal: the same message-passing trunk
//! over [`GraphFeatures`], but a two-branch readout (mean *and* max row
//! pooling, so single anomalous nodes survive the pooling) concatenated
//! with the whole-graph [`structural_summary`] vector — degree statistics,
//! branching/merge fractions, skip-edge density, critical depth, and a
//! coarse opcode-class histogram. The summary channels are exactly the
//! aggregate statistics the provenance-sanitization literature flags as
//! residual leakage after structure hiding, so this model upper-bounds
//! what a statistics-aware GNN adversary extracts from a bucket.

use crate::features::{structural_summary, GraphFeatures, NODE_FEATURES, SUMMARY_FEATURES};
use proteus_graph::Graph;
use proteus_nn::{Adam, Linear, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters of the structural attacker.
#[derive(Debug, Clone, Copy)]
pub struct StructuralConfig {
    /// Opcode-embedding width.
    pub embed: usize,
    /// Hidden width of the message-passing layers.
    pub hidden: usize,
    /// Hidden width of the post-readout MLP.
    pub head_hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size (graphs per update).
    pub batch: usize,
}

impl Default for StructuralConfig {
    fn default() -> Self {
        StructuralConfig {
            embed: 24,
            hidden: 24,
            head_hidden: 32,
            epochs: 8,
            lr: 0.01,
            batch: 8,
        }
    }
}

/// One message-passing layer, as in the Sage classifier:
/// `h' = relu([h | mean_neigh(h)] W + b)`.
#[derive(Debug, Clone)]
struct MpLayer {
    lin: Linear,
}

impl MpLayer {
    fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> MpLayer {
        MpLayer {
            lin: Linear::new(name, 2 * in_dim, out_dim, store, rng),
        }
    }

    fn forward(&self, tape: &mut Tape, store: &ParamStore, h: Var, agg: Var) -> Var {
        let neigh = tape.matmul(agg, h);
        let cat = tape.concat_cols(h, neigh);
        let out = self.lin.forward(tape, store, cat);
        tape.relu(out)
    }
}

/// The learned structural attacker.
#[derive(Debug)]
pub struct StructuralAttacker {
    cfg: StructuralConfig,
    store: ParamStore,
    embed: Linear,
    mp1: MpLayer,
    mp2: MpLayer,
    fc1: Linear,
    head: Linear,
}

/// A featurized example for the structural attacker: the Sage features
/// plus the precomputed summary vector.
#[derive(Debug, Clone)]
pub struct StructuralExample {
    /// Node features and aggregation matrix.
    pub features: GraphFeatures,
    /// Whole-graph structural summary.
    pub summary: Vec<f32>,
    /// `1.0` for sentinel, `0.0` for real.
    pub label: f32,
}

impl StructuralExample {
    /// Featurizes a graph.
    pub fn new(graph: &Graph, is_sentinel: bool) -> StructuralExample {
        StructuralExample {
            features: GraphFeatures::of(graph),
            summary: structural_summary(graph),
            label: if is_sentinel { 1.0 } else { 0.0 },
        }
    }
}

impl StructuralAttacker {
    /// Initializes an untrained attacker.
    pub fn new(cfg: StructuralConfig, seed: u64) -> StructuralAttacker {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let embed = Linear::new("s_embed", NODE_FEATURES, cfg.embed, &mut store, &mut rng);
        let mp1 = MpLayer::new("s_mp1", cfg.embed, cfg.hidden, &mut store, &mut rng);
        let mp2 = MpLayer::new("s_mp2", cfg.hidden, cfg.hidden, &mut store, &mut rng);
        // readout = [mean | max | summary]
        let fc1 = Linear::new(
            "s_fc1",
            2 * cfg.hidden + SUMMARY_FEATURES,
            cfg.head_hidden,
            &mut store,
            &mut rng,
        );
        let head = Linear::new("s_head", cfg.head_hidden, 1, &mut store, &mut rng);
        StructuralAttacker {
            cfg,
            store,
            embed,
            mp1,
            mp2,
            fc1,
            head,
        }
    }

    fn logit(&self, tape: &mut Tape, feats: &GraphFeatures, summary: &[f32]) -> Var {
        let x = tape.constant(feats.nodes.clone());
        let agg = tape.constant(feats.agg.clone());
        let h = self.embed.forward(tape, &self.store, x);
        let h = tape.relu(h);
        let h = self.mp1.forward(tape, &self.store, h, agg);
        let h = self.mp2.forward(tape, &self.store, h, agg);
        let mean = tape.mean_rows(h);
        let max = tape.max_rows(h);
        let pooled = tape.concat_cols(mean, max);
        let s = tape.constant(Matrix::new(1, summary.len(), summary.to_vec()));
        let z = tape.concat_cols(pooled, s);
        let z = self.fc1.forward(tape, &self.store, z);
        let z = tape.relu(z);
        self.head.forward(tape, &self.store, z)
    }

    /// Probability that `graph` is a sentinel.
    pub fn confidence(&self, graph: &Graph) -> f64 {
        self.confidence_parts(&GraphFeatures::of(graph), &structural_summary(graph))
    }

    /// Probability from precomputed features.
    pub fn confidence_parts(&self, feats: &GraphFeatures, summary: &[f32]) -> f64 {
        let mut tape = Tape::new();
        let logit = self.logit(&mut tape, feats, summary);
        let v = tape.value(logit).get(0, 0) as f64;
        1.0 / (1.0 + (-v).exp())
    }

    /// Trains on labelled examples; returns per-epoch mean losses.
    pub fn train(&mut self, examples: &[StructuralExample], seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adam = Adam::new(self.cfg.lr);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut history = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.cfg.batch.max(1)) {
                let mut tape = Tape::new();
                let mut total: Option<Var> = None;
                for &i in chunk {
                    let ex = &examples[i];
                    if ex.features.is_empty() {
                        continue;
                    }
                    let logit = self.logit(&mut tape, &ex.features, &ex.summary);
                    let t = tape.constant(Matrix::new(1, 1, vec![ex.label]));
                    let loss = tape.bce_with_logits(logit, t);
                    total = Some(match total {
                        None => loss,
                        Some(acc) => tape.add(acc, loss),
                    });
                }
                let Some(loss) = total else { continue };
                let scaled = tape.scale(loss, 1.0 / chunk.len() as f32);
                epoch_loss += tape.value(scaled).get(0, 0);
                batches += 1;
                let grads = tape.backward(scaled);
                adam.step(&mut self.store, &grads);
            }
            history.push(if batches == 0 {
                0.0
            } else {
                epoch_loss / batches as f32
            });
        }
        history
    }

    /// Classification accuracy at threshold 0.5 over examples.
    pub fn accuracy(&self, examples: &[StructuralExample]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let correct = examples
            .iter()
            .filter(|ex| {
                let p = self.confidence_parts(&ex.features, &ex.summary);
                (p >= 0.5) == (ex.label >= 0.5)
            })
            .count();
        correct as f64 / examples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::{Activation, ConvAttrs, Op};
    use rand::Rng;

    fn toy_dataset(n: usize, seed: u64) -> Vec<StructuralExample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for i in 0..n {
            let len = rng.gen_range(4..9);
            let mut g = Graph::new("toy");
            let mut prev = g.input([1, 8, 8, 8]);
            if i % 2 == 0 {
                for j in 0..len {
                    prev = if j % 2 == 0 {
                        g.add(Op::Conv(ConvAttrs::new(8, 8, 3).padding(1)), [prev])
                    } else {
                        g.add(Op::Activation(Activation::Relu), [prev])
                    };
                }
                g.set_outputs([prev]);
                out.push(StructuralExample::new(&g, false));
            } else {
                for _ in 0..len {
                    let op = match rng.gen_range(0..4) {
                        0 => Op::Softmax { axis: -1 },
                        1 => Op::Activation(Activation::Sigmoid),
                        2 => Op::GlobalAveragePool,
                        _ => Op::Flatten,
                    };
                    prev = g.add(op, [prev]);
                }
                g.set_outputs([prev]);
                out.push(StructuralExample::new(&g, true));
            }
        }
        out
    }

    #[test]
    fn learns_to_separate_obvious_classes() {
        let train = toy_dataset(60, 1);
        let test = toy_dataset(30, 2);
        let mut clf = StructuralAttacker::new(
            StructuralConfig {
                epochs: 10,
                ..Default::default()
            },
            7,
        );
        let history = clf.train(&train, 3);
        assert!(history.last().unwrap() < history.first().unwrap());
        let acc = clf.accuracy(&test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn confidence_in_unit_interval() {
        let clf = StructuralAttacker::new(StructuralConfig::default(), 0);
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let r = g.add(Op::Activation(Activation::Relu), [x]);
        g.set_outputs([r]);
        let c = clf.confidence(&g);
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn training_is_seed_deterministic() {
        let train = toy_dataset(30, 9);
        let mut a = StructuralAttacker::new(StructuralConfig::default(), 5);
        let mut b = StructuralAttacker::new(StructuralConfig::default(), 5);
        let ha = a.train(&train, 11);
        let hb = b.train(&train, 11);
        assert_eq!(ha, hb);
    }
}
