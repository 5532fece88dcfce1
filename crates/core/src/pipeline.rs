//! The Proteus pipeline: obfuscate → (optimizer party) → de-obfuscate
//! (paper Figure 1 and §4).
//!
//! The protocol surface is session-based ([`Proteus::obfuscate_session`],
//! [`DeobfuscationSession`]): a trained [`Proteus`] is immutable and
//! shareable across requests, each request streams [`SealedBucket`] frames
//! across the trust boundary, and every failure is a typed
//! [`ProteusError`]. The optimizer party serves requests with
//! [`crate::ServeRuntime`]; [`SealedBucket::optimize`] is the per-frame
//! reference its output is compared against.

use crate::bucket::{Bucket, BucketMember, ObfuscationSecrets, SealedBucket};
use crate::config::ProteusConfig;
use crate::error::ProteusError;
use crate::inventory::SentinelInventory;
use crate::sentinel::SentinelFactory;
use crate::session::{DeobfuscationSession, ObfuscationSession};
use proteus_graph::{Graph, TensorMap};
use proteus_opt::Optimizer;

/// The model-owner side of the protocol.
#[derive(Debug)]
pub struct Proteus {
    config: ProteusConfig,
    factory: SentinelFactory,
    inventory: SentinelInventory,
}

impl Proteus {
    /// Trains a Proteus instance: the sentinel factory learns topology and
    /// operator statistics from `corpus` (public models — *not* the
    /// protected one). This is the one-time cost; everything after is
    /// per-request.
    ///
    /// The result is immutable (train-once semantics), so one instance
    /// can serve many concurrent obfuscation requests: share it via
    /// [`Arc`](std::sync::Arc) and give each request its own `request_id`
    /// (see [`Proteus::obfuscate_session`]).
    ///
    /// ```
    /// use proteus::{PartitionSpec, Proteus, ProteusConfig};
    /// use proteus_graphgen::GraphRnnConfig;
    ///
    /// let config = ProteusConfig {
    ///     k: 2,
    ///     partitions: PartitionSpec::Count(1),
    ///     graphrnn: GraphRnnConfig { epochs: 1, ..Default::default() },
    ///     topology_pool: 10,
    ///     ..Default::default()
    /// };
    /// let corpus = [proteus_models::build(proteus_models::ModelKind::ResNet)];
    /// let proteus = std::sync::Arc::new(Proteus::train(config, &corpus)?);
    /// let worker = std::sync::Arc::clone(&proteus); // shareable across requests
    /// # drop(worker);
    /// # Ok::<(), proteus::ProteusError>(())
    /// ```
    ///
    /// # Errors
    /// [`ProteusError::Config`] for degenerate configurations
    /// ([`ProteusConfig::validate`]) or an empty corpus — an untrained
    /// generator would emit sentinels with no resemblance to real models.
    /// Both are refused before paying the training cost.
    pub fn train(config: ProteusConfig, corpus: &[Graph]) -> Result<Proteus, ProteusError> {
        config.validate()?;
        if corpus.is_empty() {
            return Err(ProteusError::config(
                "training corpus is empty — the sentinel generator needs public models to learn \
                 topology and operator statistics from",
            ));
        }
        let factory = SentinelFactory::train(&config, corpus);
        Ok(Proteus::from_trained_parts(config, factory))
    }

    /// Reassembles a trained instance from its parts — the loading half
    /// of the trained-state artifact ([`crate::artifact`]). The parts must
    /// come from a factory trained (or loaded) under `config`; the
    /// artifact decoder enforces that.
    pub(crate) fn from_trained_parts(config: ProteusConfig, factory: SentinelFactory) -> Proteus {
        let inventory = SentinelInventory::new(factory.key_space().len());
        Proteus {
            config,
            factory,
            inventory,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ProteusConfig {
        &self.config
    }

    /// The trained sentinel factory (exposed for evaluation harnesses).
    pub fn factory(&self) -> &SentinelFactory {
        &self.factory
    }

    /// The warm sentinel inventory shared by every session opened on this
    /// instance. Sessions memoize through it transparently; disable it
    /// ([`SentinelInventory::set_enabled`]) to force inline generation —
    /// the output bytes do not change either way.
    pub fn inventory(&self) -> &SentinelInventory {
        &self.inventory
    }

    /// Synchronously builds every sentinel in the factory's key space
    /// into the inventory, walking it in canonical order. Returns the
    /// number of keys that produced a sentinel.
    /// Idempotent — already-memoized keys, failures included, are skipped
    /// at lookup cost. An instance loaded from an artifact written after a
    /// full warm covers the whole key space, so this is then a lookup
    /// sweep that builds nothing.
    pub fn warm_inventory(&self) -> usize {
        self.factory
            .key_space()
            .into_iter()
            .filter(|&key| self.factory.sentinel(key, Some(&self.inventory)).is_some())
            .count()
    }

    /// Opens a streaming obfuscation session for one request: partitions
    /// the protected model up front, then yields one [`SealedBucket`]
    /// frame per call so the optimizer party can start on bucket *i*
    /// while bucket *i + 1* is still being generated.
    ///
    /// All randomness derives from `seed ⊕ request_id` through splitmix64
    /// ([`crate::session::derive_request_seed`]): the same `request_id`
    /// reproduces byte-identical frames, distinct requests share nothing.
    ///
    /// # Errors
    /// [`ProteusError::Graph`] when the protected model fails validation,
    /// [`ProteusError::Partition`] when plan extraction fails.
    pub fn obfuscate_session<'p>(
        &'p self,
        graph: &Graph,
        params: &TensorMap,
        request_id: u64,
    ) -> Result<ObfuscationSession<'p>, ProteusError> {
        ObfuscationSession::new(self, graph, params, request_id)
    }

    /// Opens a reassembly session that accepts optimized frames in any
    /// order (the receiving half of [`Proteus::obfuscate_session`]).
    pub fn deobfuscate_session<'s>(
        &self,
        secrets: &'s ObfuscationSecrets,
    ) -> DeobfuscationSession<'s> {
        DeobfuscationSession::new(secrets)
    }
}

impl SealedBucket {
    /// Optimizes every member of this frame in slot order (the optimizer
    /// party's work on one streamed bucket), preserving the frame header.
    /// Reuse one [`Optimizer`] handle across frames — its rule catalog is
    /// built once at construction.
    ///
    /// This is the serial per-frame reference that
    /// [`crate::ServeRuntime`]'s served frames are compared against; the
    /// runtime's worker pool is the one path that optimizes members in
    /// parallel. `_threads` has no effect and starts no thread: it stays
    /// in the signature only because the end-to-end benchmark package
    /// still passes it.
    pub fn optimize(&self, optimizer: &Optimizer, _threads: Option<usize>) -> SealedBucket {
        let members = self
            .bucket
            .members
            .iter()
            .map(|m| {
                let (graph, params, _) = optimizer.optimize(&m.graph, &m.params);
                BucketMember { graph, params }
            })
            .collect();
        SealedBucket {
            bucket_index: self.bucket_index,
            num_buckets: self.num_buckets,
            bucket: Bucket { members },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartitionSpec, ServeConfig};
    use crate::serve::ServeRuntime;
    use proteus_graph::{Executor, Tensor};
    use proteus_graphgen::GraphRnnConfig;
    use proteus_models::{build, ModelKind};
    use proteus_opt::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn quick_config(k: usize) -> ProteusConfig {
        ProteusConfig {
            k,
            graphrnn: GraphRnnConfig {
                epochs: 2,
                max_nodes: 20,
                ..Default::default()
            },
            topology_pool: 30,
            ..Default::default()
        }
    }

    fn small_model() -> (Graph, TensorMap) {
        use proteus_graph::{Activation, ConvAttrs, Op};
        let mut g = Graph::new("small");
        let x = g.input([1, 3, 8, 8]);
        let c1 = g.add(Op::Conv(ConvAttrs::new(3, 4, 3).padding(1)), [x]);
        let r1 = g.add(Op::Activation(Activation::Relu), [c1]);
        let c2 = g.add(Op::Conv(ConvAttrs::new(4, 4, 3).padding(1)), [r1]);
        let a = g.add(Op::Add, [c2, r1]);
        let r2 = g.add(Op::Activation(Activation::Relu), [a]);
        let gap = g.add(Op::GlobalAveragePool, [r2]);
        g.set_outputs([gap]);
        let params = TensorMap::init_random(&g, 3);
        (g, params)
    }

    /// Drains one request's session: its frames and the owner's secrets.
    fn drain(
        proteus: &Proteus,
        g: &Graph,
        params: &TensorMap,
    ) -> (Vec<SealedBucket>, ObfuscationSecrets) {
        let mut session = proteus.obfuscate_session(g, params, 0).unwrap();
        let frames: Vec<SealedBucket> = session.by_ref().collect();
        (frames, session.finish().unwrap())
    }

    fn reassemble(
        secrets: &ObfuscationSecrets,
        frames: impl IntoIterator<Item = SealedBucket>,
    ) -> Result<(Graph, TensorMap), ProteusError> {
        let mut session = DeobfuscationSession::new(secrets);
        for frame in frames {
            session.accept(frame)?;
        }
        session.finish()
    }

    fn two_bucket_frames() -> Vec<SealedBucket> {
        let (g, params) = small_model();
        let mut cfg = quick_config(2);
        cfg.partitions = PartitionSpec::Count(2);
        let proteus = Proteus::train(cfg, &[build(ModelKind::ResNet)]).unwrap();
        drain(&proteus, &g, &params).0
    }

    #[test]
    fn end_to_end_identity_roundtrip() {
        // obfuscate + deobfuscate without optimization returns an
        // equivalent model
        let (g, params) = small_model();
        let mut cfg = quick_config(3);
        cfg.partitions = PartitionSpec::Count(3);
        let proteus = Proteus::train(cfg, &[build(ModelKind::ResNet)]).unwrap();
        let (frames, secrets) = drain(&proteus, &g, &params);
        assert_eq!(frames.len(), 3);
        let members: usize = frames.iter().map(|f| f.bucket.members.len()).sum();
        assert_eq!(members, 3 * 4);
        let (back, back_params) = reassemble(&secrets, frames).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::random([1, 3, 8, 8], 1.0, &mut rng);
        let a = Executor::new(&g, &params)
            .run(std::slice::from_ref(&x))
            .unwrap();
        let b = Executor::new(&back, &back_params).run(&[x]).unwrap();
        assert!(
            a[0].allclose(&b[0], 1e-4),
            "diff {}",
            a[0].max_abs_diff(&b[0])
        );
    }

    #[test]
    fn end_to_end_with_optimizer_preserves_semantics() {
        let (g, params) = small_model();
        let mut cfg = quick_config(2);
        cfg.partitions = PartitionSpec::Count(2);
        let proteus = Proteus::train(cfg, &[build(ModelKind::MobileNet)]).unwrap();
        let (frames, secrets) = drain(&proteus, &g, &params);
        for profile in Profile::ALL {
            let opt = Optimizer::new(profile);
            let optimized = frames.iter().map(|f| f.optimize(&opt, None));
            let (back, back_params) = reassemble(&secrets, optimized).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            let x = Tensor::random([1, 3, 8, 8], 1.0, &mut rng);
            let a = Executor::new(&g, &params)
                .run(std::slice::from_ref(&x))
                .unwrap();
            let b = Executor::new(&back, &back_params).run(&[x]).unwrap();
            assert!(
                a[0].allclose(&b[0], 1e-3),
                "{profile:?}: diff {}",
                a[0].max_abs_diff(&b[0])
            );
        }
    }

    #[test]
    fn bucket_hides_real_subgraph_names() {
        for frame in two_bucket_frames() {
            for m in &frame.bucket.members {
                assert!(m.graph.name().starts_with("subgraph_"));
                for (_, node) in m.graph.iter() {
                    assert!(!node.name.contains("small"), "leak: {}", node.name);
                }
            }
        }
    }

    #[test]
    fn sentinel_param_streams_are_pairwise_distinct() {
        // The satellite fix for the seed-correlation bug: two sentinels
        // must never share a parameter stream, even with identical
        // topology. Initialize one sentinel graph under the derived seeds
        // of several (bucket, member) slots and require distinct tensors.
        use crate::session::{derive_member_seed, derive_request_seed};
        let (probe, _) = small_model();
        let request_seed = derive_request_seed(ProteusConfig::default().seed, 0);
        let mut streams: Vec<Vec<f32>> = Vec::new();
        for bucket in 0..4 {
            for member in 1..=4 {
                let seed = derive_member_seed(request_seed, bucket, member);
                let pm = TensorMap::init_random(&probe, seed);
                let mut flat: Vec<f32> = Vec::new();
                for id in probe.node_ids() {
                    if let Some(ts) = pm.get(id) {
                        for t in ts {
                            flat.extend_from_slice(t.data());
                        }
                    }
                }
                streams.push(flat);
            }
        }
        assert!(
            streams.iter().all(|s| !s.is_empty()),
            "probe graph must carry parameters"
        );
        for i in 0..streams.len() {
            for j in (i + 1)..streams.len() {
                assert_ne!(
                    streams[i], streams[j],
                    "slots {i} and {j} drew the same parameter stream"
                );
            }
        }
        // the derivation itself is injective over a wider grid
        let mut seeds = std::collections::HashSet::new();
        for bucket in 0..64 {
            for member in 0..64 {
                assert!(
                    seeds.insert(derive_member_seed(request_seed, bucket, member)),
                    "seed collision at ({bucket}, {member})"
                );
            }
        }
    }

    /// Optimizes `frames` as one request through a serving runtime with
    /// `workers` pool threads, returned in bucket order.
    fn serve_through_pool(
        frames: &[SealedBucket],
        workers: usize,
        cache_capacity: usize,
        request_id: u64,
    ) -> Vec<SealedBucket> {
        let runtime = ServeRuntime::new(
            Optimizer::new(Profile::OrtLike),
            ServeConfig {
                workers,
                window: 2,
                cache_capacity,
            },
        )
        .unwrap();
        let wires: Vec<_> = frames.iter().map(|f| f.to_mux_bytes(request_id)).collect();
        let mut served: Vec<SealedBucket> = runtime
            .resume_lane(request_id, &wires)
            .unwrap()
            .into_iter()
            .map(|wire| {
                let (rid, frame) = SealedBucket::from_mux_bytes(wire).unwrap();
                assert_eq!(rid, request_id);
                frame
            })
            .collect();
        served.sort_by_key(|f| f.bucket_index);
        assert_eq!(served.len(), frames.len());
        served
    }

    #[test]
    fn parallel_and_serial_optimization_agree() {
        // the serial reference returns, slot for slot, what the optimizer
        // gives each member on its own, under the frame's own header; the
        // parallel pool returns the same frame
        let opt = Optimizer::new(Profile::OrtLike);
        let frames = two_bucket_frames();
        let pooled = serve_through_pool(&frames, 2, 0, 0);
        for (frame, par) in frames.iter().zip(&pooled) {
            let out = frame.optimize(&opt, None);
            assert_eq!(
                (out.bucket_index, out.num_buckets),
                (frame.bucket_index, frame.num_buckets)
            );
            assert_eq!(out.bucket.members.len(), frame.bucket.members.len());
            for (m, got) in frame.bucket.members.iter().zip(&out.bucket.members) {
                let (graph, params, _) = opt.optimize(&m.graph, &m.params);
                assert_eq!(got.graph, graph);
                assert_eq!(got.params, params);
            }
            assert_eq!(par.to_mux_bytes(0), out.to_mux_bytes(0));
        }
    }

    #[test]
    fn per_bucket_and_whole_model_optimization_agree() {
        // the serving runtime, fed a whole request, answers every frame
        // with the bytes of the per-frame reference
        let opt = Optimizer::new(Profile::OrtLike);
        let frames = two_bucket_frames();
        let served = serve_through_pool(&frames, 2, ServeConfig::default().cache_capacity, 5);
        for (frame, got) in frames.iter().zip(&served) {
            assert_eq!(
                got.to_mux_bytes(5),
                frame.optimize(&opt, None).to_mux_bytes(5),
                "bucket {}",
                frame.bucket_index
            );
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        // the pool's worker count is invisible in the answer: every count
        // returns the serial reference's bytes
        let opt = Optimizer::new(Profile::OrtLike);
        let frames = two_bucket_frames();
        let reference: Vec<_> = frames
            .iter()
            .map(|f| f.optimize(&opt, None).to_mux_bytes(0))
            .collect();
        for workers in [1, 3, 8] {
            let served = serve_through_pool(&frames, workers, 0, 0);
            for (got, want) in served.iter().zip(&reference) {
                assert_eq!(&got.to_mux_bytes(0), want, "workers={workers}");
            }
        }
    }

    #[test]
    fn deobfuscate_rejects_mismatched_buckets() {
        let (g, params) = small_model();
        let mut cfg = quick_config(2);
        cfg.partitions = PartitionSpec::Count(2);
        let proteus = Proteus::train(cfg, &[build(ModelKind::ResNet)]).unwrap();
        let (mut frames, secrets) = drain(&proteus, &g, &params);
        // a missing frame
        frames.pop();
        let err = reassemble(&secrets, frames.clone()).unwrap_err();
        assert!(
            matches!(err, ProteusError::Protocol { .. }),
            "wrong variant: {err:?}"
        );
        // a frame claiming a different bucket count
        frames[0].num_buckets = 3;
        let err = reassemble(&secrets, frames).unwrap_err();
        assert!(
            matches!(err, ProteusError::Protocol { .. }),
            "wrong variant: {err:?}"
        );
    }

    #[test]
    fn train_validates_before_training() {
        let corpus = [build(ModelKind::ResNet)];
        for (label, cfg) in crate::config::degenerate_configs() {
            let err = Proteus::train(cfg, &corpus).expect_err(label);
            assert!(
                matches!(err, ProteusError::Config { .. }),
                "{label}: wrong variant {err:?}"
            );
        }
        let err = Proteus::train(quick_config(2), &[]).unwrap_err();
        assert!(
            matches!(err, ProteusError::Config { .. }),
            "empty corpus must be rejected: {err:?}"
        );
    }

    #[test]
    fn trained_proteus_is_shareable_across_threads() {
        // compile-time guarantee that Arc<Proteus> can serve concurrent
        // requests
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Proteus>();
        assert_send_sync::<SealedBucket>();

        let (g, params) = small_model();
        let mut cfg = quick_config(2);
        cfg.partitions = PartitionSpec::Count(2);
        let proteus = Arc::new(Proteus::train(cfg, &[build(ModelKind::ResNet)]).unwrap());
        let handles: Vec<_> = (0..2u64)
            .map(|rid| {
                let proteus = Arc::clone(&proteus);
                let g = g.clone();
                let params = params.clone();
                std::thread::spawn(move || {
                    let mut session = proteus.obfuscate_session(&g, &params, rid).unwrap();
                    let frames: Vec<_> = session.by_ref().collect();
                    (frames, session.finish().unwrap())
                })
            })
            .collect();
        for h in handles {
            let (frames, secrets) = h.join().unwrap();
            assert_eq!(frames.len(), secrets.plan.pieces.len());
        }
    }
}
