//! GraphRNN-S: autoregressive graph topology generation (You et al., 2018),
//! as used by Proteus' sentinel topology stage (paper §4.1.2).
//!
//! A node-level GRU consumes the previous node's adjacency vector and emits
//! a hidden state from which an edge MLP predicts the new node's connections
//! to the previous `M` nodes. Training maximizes the likelihood of BFS
//! adjacency sequences of *real* model subgraphs; sampling replays the model
//! autoregressively until it emits an all-zero (end-of-sequence) vector.

use crate::bfs_seq::{encode, AdjSeq};
use crate::ugraph::UGraph;
use proteus_nn::{Adam, GruCell, Linear, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the generator.
#[derive(Debug, Clone, Copy)]
pub struct GraphRnnConfig {
    /// BFS lookback window (edge-vector width).
    pub m: usize,
    /// GRU hidden width.
    pub hidden: usize,
    /// Edge-MLP hidden width.
    pub mlp_hidden: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Maximum nodes per sampled graph.
    pub max_nodes: usize,
}

impl Default for GraphRnnConfig {
    fn default() -> Self {
        GraphRnnConfig {
            m: 8,
            hidden: 32,
            mlp_hidden: 32,
            epochs: 12,
            lr: 0.01,
            max_nodes: 40,
        }
    }
}

/// A trained GraphRNN-S generator.
#[derive(Debug)]
pub struct GraphRnn {
    cfg: GraphRnnConfig,
    store: ParamStore,
    gru: GruCell,
    mlp1: Linear,
    mlp2: Linear,
}

impl GraphRnn {
    /// Initializes an untrained model.
    pub fn new(cfg: GraphRnnConfig, seed: u64) -> GraphRnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let gru = GruCell::new("rnn", cfg.m, cfg.hidden, &mut store, &mut rng);
        let mlp1 = Linear::new("edge1", cfg.hidden, cfg.mlp_hidden, &mut store, &mut rng);
        let mlp2 = Linear::new("edge2", cfg.mlp_hidden, cfg.m, &mut store, &mut rng);
        GraphRnn {
            cfg,
            store,
            gru,
            mlp1,
            mlp2,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GraphRnnConfig {
        &self.cfg
    }

    /// Snapshots the trained weights as `(name, matrix)` pairs, sorted by
    /// parameter name so the export order is deterministic (the backing
    /// store is a hash map). This is the state `proteus-core::artifact`
    /// persists for warm starts.
    pub fn export_weights(&self) -> Vec<(String, Matrix)> {
        let mut out: Vec<(String, Matrix)> = self
            .store
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Reconstructs a generator from exported weights (the inverse of
    /// [`GraphRnn::export_weights`]): builds the `cfg`-shaped parameter
    /// skeleton, then overwrites every parameter with the imported matrix.
    ///
    /// # Errors
    /// Returns a description of the first mismatch when the imported set
    /// does not exactly cover the skeleton: a missing or unknown parameter
    /// name, a duplicate, or a matrix of the wrong shape.
    pub fn from_weights(
        cfg: GraphRnnConfig,
        weights: Vec<(String, Matrix)>,
    ) -> Result<GraphRnn, String> {
        // Seed value is irrelevant: every Xavier-initialized matrix is
        // overwritten below, and construction draws nothing else.
        let mut rnn = GraphRnn::new(cfg, 0);
        let expected = rnn.store.len();
        let mut imported = 0usize;
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for (name, matrix) in &weights {
            if !seen.insert(name.as_str()) {
                return Err(format!("duplicate parameter `{name}`"));
            }
            let Some(current) = rnn.store.get(name) else {
                return Err(format!(
                    "unknown parameter `{name}` for this GraphRNN configuration"
                ));
            };
            if (current.rows(), current.cols()) != (matrix.rows(), matrix.cols()) {
                return Err(format!(
                    "parameter `{name}` has shape {}x{}, expected {}x{}",
                    matrix.rows(),
                    matrix.cols(),
                    current.rows(),
                    current.cols()
                ));
            }
            imported += 1;
        }
        if imported != expected {
            return Err(format!(
                "imported {imported} parameters, the configuration defines {expected}"
            ));
        }
        for (name, matrix) in weights {
            rnn.store.insert(name, matrix);
        }
        Ok(rnn)
    }

    fn row_to_input(&self, row: &[bool]) -> Matrix {
        let mut m = Matrix::zeros(1, self.cfg.m);
        for (k, &b) in row.iter().take(self.cfg.m).enumerate() {
            if b {
                m.set(0, k, 1.0);
            }
        }
        m
    }

    /// Teacher-forced negative log-likelihood of one sequence, recorded on
    /// `tape`; returns the loss variable.
    fn sequence_loss(&self, tape: &mut Tape, seq: &AdjSeq) -> Option<Var> {
        if seq.rows.is_empty() {
            return None;
        }
        let mut h = self.gru.zero_state(tape, 1);
        // SOS: all-ones input
        let mut x = tape.constant(Matrix::full(1, self.cfg.m, 1.0));
        let mut total: Option<Var> = None;
        for row in &seq.rows {
            h = self.gru.step(tape, &self.store, x, h);
            let e = self.mlp1.forward(tape, &self.store, h);
            let e = tape.relu(e);
            let logits = self.mlp2.forward(tape, &self.store, e);
            // mask: positions beyond the row's window are "no edge" targets
            // restricted to the valid window by zeroing both logits+targets
            let mut target = Matrix::zeros(1, self.cfg.m);
            for (k, &b) in row.iter().take(self.cfg.m).enumerate() {
                if b {
                    target.set(0, k, 1.0);
                }
            }
            let mut mask = Matrix::zeros(1, self.cfg.m);
            for k in 0..row.len().min(self.cfg.m) {
                mask.set(0, k, 1.0);
            }
            let mask_v = tape.constant(mask);
            let masked_logits = tape.mul(logits, mask_v);
            let t = tape.constant(target);
            let loss = tape.bce_with_logits(masked_logits, t);
            total = Some(match total {
                None => loss,
                Some(acc) => tape.add(acc, loss),
            });
            x = tape.constant(self.row_to_input(row));
        }
        total
    }

    /// Trains on a corpus of undirected topologies (BFS-augmented), and
    /// returns the per-epoch mean losses.
    pub fn train(&mut self, corpus: &[UGraph], seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adam = Adam::new(self.cfg.lr);
        let mut history = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            let mut epoch_loss = 0.0;
            let mut count = 0usize;
            for g in corpus {
                if g.len() < 2 {
                    continue;
                }
                let seq = encode(g, self.cfg.m, &mut rng);
                let mut tape = Tape::new();
                let Some(loss) = self.sequence_loss(&mut tape, &seq) else {
                    continue;
                };
                epoch_loss += tape.value(loss).get(0, 0);
                count += 1;
                let grads = tape.backward(loss);
                adam.step(&mut self.store, &grads);
            }
            history.push(if count == 0 {
                0.0
            } else {
                epoch_loss / count as f32
            });
        }
        history
    }

    /// Samples one topology. The result is the largest connected component
    /// of the raw sample (isolated fragments are rare but possible with a
    /// truncated lookback).
    pub fn sample(&self, rng: &mut StdRng) -> UGraph {
        let mut rows: Vec<Vec<bool>> = Vec::new();
        let mut tape = Tape::new();
        let mut h = self.gru.zero_state(&mut tape, 1);
        let mut x = tape.constant(Matrix::full(1, self.cfg.m, 1.0));
        for i in 1..self.cfg.max_nodes {
            h = self.gru.step(&mut tape, &self.store, x, h);
            let e = self.mlp1.forward(&mut tape, &self.store, h);
            let e = tape.relu(e);
            let logits = self.mlp2.forward(&mut tape, &self.store, e);
            let window = self.cfg.m.min(i);
            let lv = tape.value(logits).clone();
            let mut row = vec![false; window];
            for (k, slot) in row.iter_mut().enumerate() {
                let p = 1.0 / (1.0 + (-lv.get(0, k)).exp());
                *slot = rng.gen::<f32>() < p;
            }
            if row.iter().all(|&b| !b) {
                break; // EOS
            }
            x = tape.constant(self.row_to_input(&row));
            rows.push(row);
        }
        let seq = AdjSeq {
            m: self.cfg.m,
            rows,
        };
        seq.to_graph().largest_component()
    }

    /// Samples `count` topologies with at least `min_nodes` nodes each.
    /// Gives up on a candidate after a bounded number of rejections so the
    /// call always terminates.
    pub fn sample_many(&self, count: usize, min_nodes: usize, rng: &mut StdRng) -> Vec<UGraph> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while out.len() < count && attempts < count * 12 {
            attempts += 1;
            let g = self.sample(rng);
            if g.len() >= min_nodes {
                out.push(g);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_corpus() -> Vec<UGraph> {
        // chains with an occasional skip edge: resembles DL dataflow
        let mut corpus = Vec::new();
        for n in [6usize, 8, 10, 12] {
            let mut g = UGraph::new(n);
            for i in 1..n {
                g.add_edge(i - 1, i);
            }
            if n % 4 == 0 {
                g.add_edge(0, 3);
            }
            corpus.push(g);
        }
        corpus
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = GraphRnnConfig {
            epochs: 8,
            max_nodes: 20,
            ..Default::default()
        };
        let mut model = GraphRnn::new(cfg, 42);
        let history = model.train(&toy_corpus(), 7);
        assert!(history.len() == 8);
        let first = history.first().copied().unwrap();
        let last = history.last().copied().unwrap();
        assert!(
            last < first,
            "loss should decrease: {first} -> {last} ({history:?})"
        );
    }

    #[test]
    fn samples_are_valid_connected_graphs() {
        let cfg = GraphRnnConfig {
            epochs: 6,
            max_nodes: 24,
            ..Default::default()
        };
        let mut model = GraphRnn::new(cfg, 1);
        model.train(&toy_corpus(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = model.sample(&mut rng);
            assert!(g.len() <= 24);
            if g.len() >= 2 {
                // connected by construction (largest component)
                let comp = proteus_graph::stats::largest_component(g.adjacency());
                assert_eq!(comp.len(), g.len());
            }
        }
    }

    #[test]
    fn sample_many_respects_min_size() {
        let cfg = GraphRnnConfig {
            epochs: 4,
            max_nodes: 24,
            ..Default::default()
        };
        let mut model = GraphRnn::new(cfg, 5);
        model.train(&toy_corpus(), 6);
        let mut rng = StdRng::seed_from_u64(8);
        let samples = model.sample_many(5, 4, &mut rng);
        assert!(samples.iter().all(|g| g.len() >= 4));
    }
}
