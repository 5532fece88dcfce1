//! Proteus configuration (paper §4.4, Figure 8's tunable parameters),
//! plus the serving-runtime and fault-injection knobs.

use crate::error::ProteusError;
use crate::operators::PopulationConfig;
use crate::session::splitmix64;
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

/// Deterministic fault-injection plan for the serving runtime, threaded
/// through [`ServeConfig::faults`]. Every fault decision is a pure
/// function of `(seed, ordinal)` — the same plan against the same request
/// stream fires the same faults, so every chaos-battery failure is
/// replayable from its seed. The default plan (`FaultPlan::default()`)
/// injects nothing and is what production configs carry.
///
/// Rate-based fields (`*_one_in`) fire when
/// `splitmix64(seed ^ mix(ordinal)) % one_in == 0`; `0` disables the
/// fault. Ordinal-based fields (`*_at`) are 1-based counters over
/// pool-executed tasks (or cache inserts for the cache fault); `0`
/// disables the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    /// Seed for the rate-based fault draws.
    pub seed: u64,
    /// Panic exactly the k-th pool task (1-based; `0` = off). The panic is
    /// contained by `catch_unwind` and surfaces as
    /// [`ProteusError::WorkerCrashed`] on that task's request lane.
    pub panic_at: u32,
    /// Seeded rate: panic roughly one in `panic_one_in` pool tasks.
    pub panic_one_in: u32,
    /// When a contained panic fires, also retire the worker thread that
    /// ran it — exercising the supervisor's respawn path instead of the
    /// in-place containment path.
    pub abort_worker: bool,
    /// Seeded rate: stall roughly one in `stall_one_in` pool tasks for
    /// [`FaultPlan::stall_ms`] before executing.
    pub stall_one_in: u32,
    /// Stall duration in milliseconds.
    pub stall_ms: u32,
    /// Poison the [`crate::serve::OptimizedCache`] lock on the k-th insert
    /// (1-based; `0` = off): a panic is raised *while the cache lock is
    /// held*, exercising the cache's poison self-heal path.
    pub poison_cache_at: u32,
}

impl FaultPlan {
    /// True when any fault is armed. The hot path checks this once per
    /// task and skips all fault draws for the (default) inert plan.
    pub fn is_active(&self) -> bool {
        self.panic_at != 0
            || self.panic_one_in != 0
            || self.stall_one_in != 0
            || self.poison_cache_at != 0
    }

    /// Seeded rate draw: does a `one_in` fault fire at `ordinal`?
    /// `salt` decorrelates the draws of different fault kinds at the same
    /// ordinal.
    fn fires(&self, one_in: u32, ordinal: u64, salt: u64) -> bool {
        one_in != 0
            && splitmix64(self.seed ^ salt ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .is_multiple_of(u64::from(one_in))
    }

    /// Should the task at `ordinal` (1-based) panic?
    pub fn panic_fires(&self, ordinal: u64) -> bool {
        (self.panic_at != 0 && ordinal == u64::from(self.panic_at))
            || self.fires(self.panic_one_in, ordinal, 0x5041_4E49) // "PANI"
    }

    /// Should the task at `ordinal` (1-based) stall first?
    pub fn stall_fires(&self, ordinal: u64) -> bool {
        self.fires(self.stall_one_in, ordinal, 0x5354_414C) // "STAL"
    }

    /// Should the cache lock be poisoned on insert `ordinal` (1-based)?
    pub fn poison_cache_fires(&self, ordinal: u64) -> bool {
        self.poison_cache_at != 0 && ordinal == u64::from(self.poison_cache_at)
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
    /// Deterministic fault-injection plan. The default plan is inert;
    /// chaos tests arm it per runtime.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            window: 4,
            cache_capacity: 4096,
            faults: FaultPlan::default(),
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
    fn fault_plan_default_is_inert_and_draws_are_deterministic() {
        let inert = FaultPlan::default();
        assert!(!inert.is_active());
        for ordinal in 1..200 {
            assert!(!inert.panic_fires(ordinal));
            assert!(!inert.stall_fires(ordinal));
            assert!(!inert.poison_cache_fires(ordinal));
        }

        let plan = FaultPlan {
            seed: 0xC0FFEE,
            panic_one_in: 5,
            stall_one_in: 3,
            ..FaultPlan::default()
        };
        assert!(plan.is_active());
        // same (seed, ordinal) → same decision, always
        let draws: Vec<(bool, bool)> = (1..100)
            .map(|o| (plan.panic_fires(o), plan.stall_fires(o)))
            .collect();
        let replay: Vec<(bool, bool)> = (1..100)
            .map(|o| (plan.panic_fires(o), plan.stall_fires(o)))
            .collect();
        assert_eq!(draws, replay);
        // a one-in-5 rate fires a plausible number of times in 99 draws
        let fired = draws.iter().filter(|(p, _)| *p).count();
        assert!(fired > 4 && fired < 50, "panic draw rate off: {fired}/99");
        // different seeds decorrelate
        let other = FaultPlan {
            seed: 0xBEEF,
            ..plan
        };
        assert!((1..100).any(|o| plan.panic_fires(o) != other.panic_fires(o)));

        // ordinal-pinned faults fire exactly where aimed
        let pinned = FaultPlan {
            panic_at: 7,
            poison_cache_at: 2,
            ..FaultPlan::default()
        };
        assert!(pinned.panic_fires(7) && !pinned.panic_fires(6) && !pinned.panic_fires(8));
        assert!(pinned.poison_cache_fires(2) && !pinned.poison_cache_fires(3));
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
