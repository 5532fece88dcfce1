//! Workspace root crate for the Proteus reproduction.
//!
//! This crate only re-exports the member crates so that the repository-level
//! `examples/` and `tests/` can exercise the whole public API surface from a
//! single dependency. See the individual crates for the actual library:
//!
//! - [`proteus`] — the obfuscation pipeline (the paper's contribution)
//! - [`proteus_graph`] — computational-graph IR
//! - [`proteus_models`] — model zoo
//! - [`proteus_partition`] — Karger–Stein-style partitioner
//! - [`proteus_graphgen`] — GraphRNN topology generator + Algorithm 1/3
//! - [`proteus_smt`] — finite-domain constraint solver (Z3 stand-in)
//! - [`proteus_opt`] — graph-level optimizer + latency cost model
//! - [`proteus_adversary`] — learning-based / heuristic / expert adversaries
//! - [`proteus_nn`] — autograd + layers used by graphgen and the adversary
//!
//! # Quickstart
//!
//! The full protocol round trip over the streaming session API — train
//! once, obfuscate a secret model one sealed bucket at a time, let the
//! untrusted optimizer party optimize each frame as it arrives,
//! reassemble, and check that the optimized model computes the same
//! function (a condensed version of `examples/confidential_service.rs`):
//!
//! ```
//! use proteus::{PartitionSpec, Proteus, ProteusConfig, SealedBucket};
//! use proteus_graph::{Activation, Executor, Graph, Op, Tensor, TensorMap};
//! use proteus_graphgen::GraphRnnConfig;
//! use proteus_models::{build, ModelKind};
//! use proteus_opt::{Optimizer, Profile};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // The model developer's secret architecture (with trained weights).
//! let mut secret = Graph::new("secret-model");
//! let x = secret.input([1, 16]);
//! let a = secret.add(Op::Gemm(proteus_graph::GemmAttrs::new(16, 16)), [x]);
//! let r = secret.add(Op::Activation(Activation::Relu), [a]);
//! let skip = secret.add(Op::Add, [r, x]);
//! let out = secret.add(Op::Activation(Activation::Tanh), [skip]);
//! secret.set_outputs([out]);
//! let weights = TensorMap::init_random(&secret, 42);
//!
//! // Train the sentinel generator on PUBLIC models only. Training
//! // validates the config; the trained instance is immutable and can be
//! // shared (Arc) across concurrent requests.
//! let config = ProteusConfig {
//!     k: 2,
//!     partitions: PartitionSpec::Count(1),
//!     graphrnn: GraphRnnConfig { epochs: 1, ..Default::default() },
//!     topology_pool: 12,
//!     ..Default::default()
//! };
//! let proteus = Proteus::train(config, &[build(ModelKind::MobileNet)])?;
//!
//! // Each request streams sealed, versioned, checksummed frames across
//! // the trust boundary; the same request_id replays byte-identical
//! // frames. The optimizer party works frame by frame — it cannot tell
//! // which of the k+1 members is real.
//! let optimizer = Optimizer::new(Profile::OrtLike);
//! let mut session = proteus.obfuscate_session(&secret, &weights, 1)?;
//! let mut returned = Vec::new();
//! while let Some(frame) = session.next_frame() {
//!     assert_eq!(frame.bucket.members.len(), 3); // k + 1
//!     let wire = frame.to_mux_bytes(1); // <- what actually crosses the boundary
//!     let (_request_id, received) = SealedBucket::from_mux_bytes(wire)?;
//!     returned.push(received.optimize(&optimizer, None));
//! }
//! let secrets = session.finish()?;
//!
//! // The developer reassembles from frames (any order) and verifies
//! // semantics survived.
//! let mut reassembly = proteus.deobfuscate_session(&secrets);
//! for frame in returned {
//!     reassembly.accept(frame)?;
//! }
//! let (model, params) = reassembly.finish()?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let probe = Tensor::random([1, 16], 1.0, &mut rng);
//! let before = Executor::new(&secret, &weights).run(&[probe.clone()])?;
//! let after = Executor::new(&model, &params).run(&[probe])?;
//! assert!(before[0].max_abs_diff(&after[0]) < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A process that plays both parties can hand the whole request to
//! [`proteus::ServeRuntime::serve_request`] instead: the same frames run
//! through a shared worker pool, bit-identical to the loop above.
//!
//! # Artifacts & warm start
//!
//! Training is the expensive, model-independent step — do it offline,
//! persist the result as a checksummed `PRTA` artifact
//! ([`proteus::artifact`]), and cold-start serving processes from the
//! file in milliseconds. The loaded instance obfuscates bit-identically
//! to the one that saved it:
//!
//! ```
//! use proteus::{PartitionSpec, Proteus, ProteusConfig};
//! use proteus_graph::TensorMap;
//! use proteus_graphgen::GraphRnnConfig;
//! use proteus_models::{build, ModelKind};
//!
//! let config = ProteusConfig {
//!     k: 2,
//!     partitions: PartitionSpec::Count(1),
//!     graphrnn: GraphRnnConfig { epochs: 1, ..Default::default() },
//!     topology_pool: 12,
//!     ..Default::default()
//! };
//! // offline: train once and ship the artifact
//! let trained = Proteus::train(config.clone(), &[build(ModelKind::MobileNet)])?;
//! let path = std::env::temp_dir().join(format!(
//!     "proteus-quickstart-{}.prta",
//!     std::process::id()
//! ));
//! trained.save_artifact(&path)?;
//!
//! // serving: cold-start from the artifact in a request handler. The
//! // deployment pins its config — an artifact trained under any other
//! // configuration is rejected with a typed fingerprint mismatch.
//! let serving = Proteus::load_artifact_expecting(&path, &config)?;
//! let model = build(ModelKind::AlexNet);
//! let wire = |p: &Proteus| -> Result<Vec<_>, proteus::ProteusError> {
//!     let session = p.obfuscate_session(&model, &TensorMap::new(), 3)?;
//!     Ok(session.map(|frame| frame.to_mux_bytes(3)).collect())
//! };
//! assert_eq!(wire(&trained)?, wire(&serving)?); // bit-identical on the wire
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `proteus-train` binary (`crates/bench`) wraps this workflow:
//! `train` saves an artifact with its corpus recorded as provenance,
//! `inspect` prints a validated summary, and `verify` retrains from the
//! provenance and asserts bit-identical wire output.

pub use proteus;
pub use proteus_adversary;
pub use proteus_graph;
pub use proteus_graphgen;
pub use proteus_models;
pub use proteus_nn;
pub use proteus_opt;
pub use proteus_partition;
pub use proteus_smt;
