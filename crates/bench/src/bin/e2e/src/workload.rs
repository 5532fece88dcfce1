//! The three workloads and the seeded request schedule each one draws.

use proteus_graph::{Graph, TensorMap};
use proteus_models::{zoo, ModelKind};
use std::time::Duration;

/// Which models a workload's owners send, and whether with weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Models {
    /// Every `zoo::all()` model once per block of 16 requests, in seeded
    /// order, graph only.
    Zoo,
    /// `graphsage` with seeded random weights on every request.
    WeightedGraphSage,
}

/// One traffic mix, run closed loop by two owners.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    /// The request mix.
    pub models: Models,
    /// Whether the daemon journals every frame (`--store-dir`).
    pub durable: bool,
    /// Warm-up before the measured window: each owner keeps sending until
    /// this much time has passed and it has completed `warmup_requests`.
    pub warmup: Duration,
    /// Minimum warm-up requests per owner.
    pub warmup_requests: usize,
    /// Measured requests in total; `None` measures for `--seconds`
    /// instead. A fixed count bounds the daemon's memory, which grows
    /// with every request when nothing hits its entry-bounded cache.
    pub requests: Option<usize>,
    /// Leading schedule entries regenerated in process and compared
    /// byte for byte (as digests) with what the daemon sent back.
    pub verify: usize,
    /// Measured schedule entries replayed through the server-side layers
    /// in process when tracing.
    pub replay: usize,
}

/// Every workload, in the order a bare run measures them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "zoo-warm",
        why: "16 zoo models, graph only, warm owner inventory and ~90% daemon cache hits: \
              owner generation, wire, cache lookups and connect overhead dominate",
        models: Models::Zoo,
        durable: false,
        warmup: Duration::from_secs(1),
        warmup_requests: 1,
        requests: None,
        verify: 64,
        replay: 256,
    },
    Workload {
        name: "zoo-durable",
        why: "the same traffic with --store-dir: every frame is journaled (fsync and marker \
              rename) before it is optimized, so the store layer dominates",
        models: Models::Zoo,
        durable: true,
        warmup: Duration::from_secs(1),
        warmup_requests: 1,
        requests: None,
        verify: 64,
        replay: 256,
    },
    Workload {
        name: "weights-graphsage",
        why: "graphsage with seeded random weights, ~60 MB each way: wire and cache layers \
              used bytes-first, and per-request sentinel weights bypass the cache",
        models: Models::WeightedGraphSage,
        durable: false,
        warmup: Duration::ZERO,
        warmup_requests: 1,
        requests: Some(24),
        verify: 8,
        replay: 8,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The splitmix64 finalizer: a bijection on `u64` with full avalanche,
/// so neighbouring indices map to unrelated values.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salts that keep the model draw and the weights independent of the
/// request id derived from the same index.
const MODEL_SALT: u64 = 0x6D6F_6465_6C00_0000; // "model"
const WEIGHT_SALT: u64 = 0x7765_6967_6874_0000; // "weight"

/// The endless, seed-determined request sequence of one run. Owners
/// take entries in index order from a shared counter, so whatever the
/// interleaving, the requests sent are always a prefix of the schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    seed: u64,
    models: Models,
    zoo: Vec<ModelKind>,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Position in the schedule.
    pub index: usize,
    /// The model sent.
    pub kind: ModelKind,
    /// The request id: distinct for every index of one seed.
    pub request_id: u64,
    /// Seed of the model's random weights; `None` sends the graph only.
    pub weight_seed: Option<u64>,
}

impl Schedule {
    /// The schedule a workload draws under `seed`.
    pub fn new(seed: u64, models: Models) -> Schedule {
        Schedule {
            seed,
            models,
            zoo: zoo::all().iter().map(|e| e.kind).collect(),
        }
    }

    /// The `index`-th request.
    pub fn entry(&self, index: usize) -> Entry {
        // seed ^ mix(index) is injective in the index and mix is a
        // bijection, so request ids never repeat within a run
        let request_id = mix(self.seed ^ mix(index as u64));
        let (kind, weight_seed) = match self.models {
            Models::Zoo => {
                let n = self.zoo.len();
                let order = self.block_order((index / n) as u64);
                (self.zoo[order[index % n]], None)
            }
            Models::WeightedGraphSage => {
                (ModelKind::GraphSage, Some(mix(request_id ^ WEIGHT_SALT)))
            }
        };
        Entry {
            index,
            kind,
            request_id,
            weight_seed,
        }
    }

    /// The seeded order of the zoo in one block of `zoo.len()` entries.
    /// Every block sends each model exactly once, so the model mix, and
    /// with it the mean request cost, is the same for every seed; the
    /// seed only moves the order.
    fn block_order(&self, block: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.zoo.len()).collect();
        let mut state = mix(self.seed ^ MODEL_SALT ^ mix(block));
        for k in (1..order.len()).rev() {
            state = mix(state);
            order.swap(k, (state % (k as u64 + 1)) as usize);
        }
        order
    }
}

impl Entry {
    /// Builds the model and its parameters: everything an owner holds
    /// before it opens a session.
    pub fn inputs(&self) -> (Graph, TensorMap) {
        let graph = proteus_models::build(self.kind);
        let params = match self.weight_seed {
            Some(seed) => TensorMap::init_random(&graph, seed),
            None => TensorMap::new(),
        };
        (graph, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        for models in [Models::Zoo, Models::WeightedGraphSage] {
            let a = Schedule::new(7, models);
            let b = Schedule::new(7, models);
            let c = Schedule::new(8, models);
            let first: Vec<Entry> = (0..200).map(|i| a.entry(i)).collect();
            assert_eq!(first, (0..200).map(|i| b.entry(i)).collect::<Vec<_>>());
            assert!((0..200).any(|i| c.entry(i).request_id != first[i].request_id));
            if models == Models::WeightedGraphSage {
                assert!(first.iter().all(|e| e.weight_seed.is_some()));
            }
        }
    }

    #[test]
    fn request_ids_never_repeat() {
        let s = Schedule::new(1, Models::Zoo);
        let ids: HashSet<u64> = (0..10_000).map(|i| s.entry(i).request_id).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn every_zoo_block_sends_each_model_once() {
        let s = Schedule::new(3, Models::Zoo);
        for block in 0..50 {
            let kinds: HashSet<ModelKind> = (block * zoo::COUNT..(block + 1) * zoo::COUNT)
                .map(|i| s.entry(i).kind)
                .collect();
            assert_eq!(kinds.len(), zoo::COUNT);
        }
        // the seed moves the order
        let other = Schedule::new(4, Models::Zoo);
        assert!((0..zoo::COUNT).any(|i| s.entry(i).kind != other.entry(i).kind));
    }

    #[test]
    fn workload_names_resolve() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name).map(|f| f.name), Some(w.name));
            assert!(w.verify >= 1 && w.replay >= 1);
        }
        assert!(by_name("nope").is_none());
    }
}
