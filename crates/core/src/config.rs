//! Proteus configuration (paper §4.4, Figure 8's tunable parameters),
//! plus the serving-runtime knobs.

use crate::error::ProteusError;
use crate::operators::PopulationConfig;
use proteus_graphgen::GraphRnnConfig;

/// How many partitions to create.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Exactly `n` subgraphs (the paper's `n` parameter).
    Count(usize),
    /// `n = ⌊N / size⌋` — the paper's "subgraph size 8–16 sweet spot"
    /// convention (§5.2).
    TargetSize(usize),
}

impl Default for PartitionSpec {
    fn default() -> Self {
        PartitionSpec::TargetSize(8)
    }
}

/// How sentinel graphs are produced for each protected subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SentinelMode {
    /// GraphRNN topology sampling + SMT operator population (§4.1.2).
    #[default]
    Generative,
    /// Minor modifications over the protected subgraph itself — for models
    /// that closely resemble popular architectures (§4.1.2 last paragraph,
    /// used by the SEResNet case study).
    Perturb,
}

/// Full configuration of the obfuscation pipeline.
#[derive(Debug, Clone)]
pub struct ProteusConfig {
    /// Partitioning granularity (`n`).
    pub partitions: PartitionSpec,
    /// Sentinels per protected subgraph (`k`).
    pub k: usize,
    /// Balance restarts of the Karger–Stein loop.
    pub partition_restarts: usize,
    /// Band width of Algorithm 1's uniform statistics band (in pool
    /// standard deviations).
    pub beta: f64,
    /// Sentinel generation strategy.
    pub mode: SentinelMode,
    /// GraphRNN hyper-parameters (Generative mode).
    pub graphrnn: GraphRnnConfig,
    /// Topology pool size sampled from the trained GraphRNN.
    pub topology_pool: usize,
    /// Operator-population settings (Algorithm 2).
    pub population: PopulationConfig,
    /// Distinct sentinel variants per (topology, regime) pair. Sentinel
    /// content is a pure function of `(topology index, regime, variant)`
    /// ([`crate::SentinelKey`]), so this bounds the warm inventory at
    /// `topology_pool x 2 x sentinel_variants` entries while keeping
    /// buckets diverse — each draw picks a variant at random from the
    /// session's per-request stream.
    pub sentinel_variants: usize,
    /// Worker threads for the optimizer party's bucket fan-out
    /// ([`crate::optimize_model_with_threads`]). `None` uses all available
    /// parallelism.
    pub optimizer_threads: Option<usize>,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl Default for ProteusConfig {
    fn default() -> Self {
        ProteusConfig {
            partitions: PartitionSpec::default(),
            k: 20,
            partition_restarts: 16,
            beta: 2.0,
            mode: SentinelMode::default(),
            graphrnn: GraphRnnConfig::default(),
            topology_pool: 200,
            population: PopulationConfig::default(),
            sentinel_variants: 4,
            optimizer_threads: None,
            seed: 0xB0B,
        }
    }
}

impl ProteusConfig {
    /// Resolves the partition count for a model with `model_nodes` nodes.
    pub fn num_partitions(&self, model_nodes: usize) -> usize {
        match self.partitions {
            PartitionSpec::Count(n) => n.max(1),
            PartitionSpec::TargetSize(s) => (model_nodes / s.max(1)).max(1),
        }
    }

    /// Rejects degenerate configurations with [`ProteusError::Config`]
    /// instead of letting them surface as empty buckets or panics deep in
    /// the pipeline. Run by [`crate::ProteusBuilder::train`] and by every
    /// [`crate::Proteus::obfuscate_session`] call.
    ///
    /// # Errors
    /// [`ProteusError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), ProteusError> {
        if self.k == 0 {
            return Err(ProteusError::config(
                "k must be at least 1 (a bucket needs sentinels to hide the real subgraph)",
            ));
        }
        if self.topology_pool < self.k {
            return Err(ProteusError::config(format!(
                "topology_pool ({}) must be at least k ({}) so every bucket can draw distinct topologies",
                self.topology_pool, self.k
            )));
        }
        match self.partitions {
            PartitionSpec::Count(0) => {
                return Err(ProteusError::config(
                    "partitions: Count(0) — the model must be cut into at least one piece",
                ));
            }
            PartitionSpec::TargetSize(0) => {
                return Err(ProteusError::config(
                    "partitions: TargetSize(0) — target subgraph size must be at least 1",
                ));
            }
            _ => {}
        }
        if self.partition_restarts == 0 {
            return Err(ProteusError::config(
                "partition_restarts must be at least 1 (the Karger-Stein loop needs one attempt)",
            ));
        }
        if self.sentinel_variants == 0 {
            return Err(ProteusError::config(
                "sentinel_variants must be at least 1 (every sentinel draw needs a variant)",
            ));
        }
        Ok(())
    }
}

/// Configuration of the multi-tenant serving runtime
/// ([`crate::serve::ServeRuntime`]): the shared optimizer worker pool and
/// the per-request flow-control window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads in the shared optimizer pool. `0` means "all
    /// available parallelism" (the serving analogue of
    /// [`ProteusConfig::optimizer_threads`]`: None`).
    pub workers: usize,
    /// Per-request backpressure window: the maximum number of frames a
    /// request may have in flight (submitted but not yet optimized).
    /// Submitting past the window blocks the producer until a frame
    /// completes, so one request can never flood the shared pool.
    pub window: usize,
    /// Capacity (entries) of the shared optimized-member cache
    /// ([`crate::serve::OptimizedCache`]): bucket members whose wire
    /// bytes and optimizer profile match a cached entry skip the worker
    /// pool entirely. `0` disables the cache — every member is optimized
    /// from scratch, the pre-cache behavior.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            window: 4,
            cache_capacity: 4096,
        }
    }
}

impl ServeConfig {
    /// Resolves the worker count (`0` → available parallelism).
    pub fn num_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.workers
        }
    }

    /// Rejects degenerate serving configurations.
    ///
    /// # Errors
    /// [`ProteusError::Config`] when the window is zero — no request could
    /// ever submit a frame.
    pub fn validate(&self) -> Result<(), ProteusError> {
        if self.window == 0 {
            return Err(ProteusError::config(
                "serve window must be at least 1 (a zero window deadlocks every submit)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_config_defaults_and_validation() {
        let cfg = ServeConfig::default();
        cfg.validate().expect("defaults validate");
        assert!(cfg.num_workers() >= 1);
        assert_eq!(ServeConfig { workers: 3, ..cfg }.num_workers(), 3);
        let err = ServeConfig { window: 0, ..cfg }.validate().unwrap_err();
        assert!(matches!(err, ProteusError::Config { .. }), "{err:?}");
    }

    #[test]
    fn partition_resolution() {
        let mut cfg = ProteusConfig {
            partitions: PartitionSpec::Count(7),
            ..Default::default()
        };
        assert_eq!(cfg.num_partitions(100), 7);
        cfg.partitions = PartitionSpec::TargetSize(8);
        assert_eq!(cfg.num_partitions(80), 10);
        assert_eq!(cfg.num_partitions(3), 1);
    }

    #[test]
    fn defaults_match_paper_choices() {
        let cfg = ProteusConfig::default();
        assert_eq!(cfg.k, 20);
        assert_eq!(cfg.partitions, PartitionSpec::TargetSize(8));
        cfg.validate().expect("defaults validate");
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = ProteusConfig::default();
        for (label, cfg) in [
            ("k=0", ProteusConfig { k: 0, ..ok.clone() }),
            (
                "pool<k",
                ProteusConfig {
                    k: 30,
                    topology_pool: 10,
                    ..ok.clone()
                },
            ),
            (
                "count=0",
                ProteusConfig {
                    partitions: PartitionSpec::Count(0),
                    ..ok.clone()
                },
            ),
            (
                "size=0",
                ProteusConfig {
                    partitions: PartitionSpec::TargetSize(0),
                    ..ok.clone()
                },
            ),
            (
                "restarts=0",
                ProteusConfig {
                    partition_restarts: 0,
                    ..ok.clone()
                },
            ),
            (
                "variants=0",
                ProteusConfig {
                    sentinel_variants: 0,
                    ..ok.clone()
                },
            ),
        ] {
            let err = cfg.validate().expect_err(label);
            assert!(
                matches!(err, ProteusError::Config { .. }),
                "{label}: wrong variant {err:?}"
            );
        }
    }
}
