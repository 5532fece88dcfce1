//! # Proteus — preserving model confidentiality during graph optimizations
//!
//! A from-scratch Rust implementation of *Proteus* (MLSys 2024): an
//! obfuscation mechanism that lets an independent optimizer party apply
//! graph-level optimizations to a DNN computational graph without learning
//! the protected architecture.
//!
//! The protocol (paper Figure 1):
//!
//! 1. **Obfuscation** ([`Proteus::obfuscate_session`]) — the protected graph is
//!    partitioned into `n` balanced subgraphs (randomized edge contraction,
//!    `proteus-partition`), and each subgraph is hidden among `k` *sentinel*
//!    subgraphs produced by a GraphRNN topology generator + importance
//!    sampler (`proteus-graphgen`) and an SMT-style operator population step
//!    (`proteus-smt`, [`operators`]) filtered for semantic consistency
//!    ([`semantic`]). The result is `n` anonymized, shuffled
//!    [`SealedBucket`] frames with `k + 1` members each — a search space
//!    of `O((k+1)^n)` architectures.
//! 2. **Optimization** ([`ServeRuntime`], or [`SealedBucket::optimize`]
//!    per frame) — the optimizer party applies its graph rewrites to
//!    every bucket member independently (`proteus-opt` stands in for
//!    ONNXRuntime/Hidet).
//! 3. **De-obfuscation** ([`DeobfuscationSession`]) — the owner extracts
//!    the optimized real pieces using its [`ObfuscationSecrets`] and
//!    reassembles the optimized model.
//!
//! # Quickstart: the session API
//!
//! A trained [`Proteus`] is immutable and shareable across requests
//! (train once via [`Proteus::train`], wrap in an `Arc`). Each request
//! opens an [`ObfuscationSession`] keyed by a `request_id`: buckets
//! stream across the trust boundary one [`SealedBucket`] frame at a time,
//! and the [`DeobfuscationSession`] accepts optimized frames back in any
//! order. Same `request_id` → byte-identical frames; every failure is a
//! typed [`ProteusError`].
//!
//! ```
//! use proteus::{Proteus, ProteusConfig, ProteusError, PartitionSpec};
//! use proteus_graph::{Graph, Op, Activation, ConvAttrs, TensorMap};
//! use proteus_graphgen::GraphRnnConfig;
//! use proteus_opt::{Optimizer, Profile};
//!
//! // the secret model
//! let mut g = Graph::new("secret");
//! let x = g.input([1, 3, 8, 8]);
//! let c = g.add(Op::Conv(ConvAttrs::new(3, 8, 3).padding(1)), [x]);
//! let r = g.add(Op::Activation(Activation::Relu), [c]);
//! g.set_outputs([r]);
//!
//! // train the sentinel generator on public models only (validated,
//! // train-once; wrap it in an Arc to share it across request handlers)
//! let config = ProteusConfig {
//!     k: 2,
//!     partitions: PartitionSpec::Count(1),
//!     graphrnn: GraphRnnConfig { epochs: 1, ..Default::default() },
//!     topology_pool: 10,
//!     ..Default::default()
//! };
//! let proteus = Proteus::train(config, &[proteus_models::build(proteus_models::ModelKind::ResNet)])?;
//!
//! // owner -> optimizer -> owner, one frame at a time
//! let optimizer = Optimizer::new(Profile::OrtLike);
//! let mut session = proteus.obfuscate_session(&g, &TensorMap::new(), 7)?;
//! let mut optimized_frames = Vec::new();
//! while let Some(frame) = session.next_frame() {
//!     // `frame.to_mux_bytes(7)` is what would cross the trust boundary; the
//!     // optimizer party can work on this frame while the owner
//!     // generates the next one
//!     optimized_frames.push(frame.optimize(&optimizer, None));
//! }
//! let secrets = session.finish()?;
//! let mut reassembly = proteus.deobfuscate_session(&secrets);
//! for frame in optimized_frames {
//!     reassembly.accept(frame)?; // any order
//! }
//! let (model, _params) = reassembly.finish()?;
//! assert!(model.validate().is_ok());
//! # Ok::<(), ProteusError>(())
//! ```
//!
//! A serving process hands whole requests to a [`ServeRuntime`] instead:
//! [`ServeRuntime::serve_request`] runs this loop through a shared worker
//! pool, bit-identical to the per-frame path above.
//!
//! ## Warm starts
//!
//! Training is model-independent and happens once; persist it with
//! [`Proteus::save_artifact`] and cold-start serving processes from the
//! checksummed `PRTA` artifact with [`Proteus::load_artifact`] (or
//! [`Proteus::load_artifact_expecting`] to pin the deployment config) —
//! milliseconds instead of the GraphRNN/partition training cost, and
//! bit-identical on the wire. See [`artifact`].

#![warn(missing_docs)]

pub mod artifact;
pub mod baseline;
pub mod bucket;
pub mod config;
pub mod error;
pub mod inventory;
pub mod operators;
pub mod pipeline;
pub mod semantic;
pub mod sentinel;
pub mod serve;
pub mod session;
pub mod store;

pub use artifact::{
    config_fingerprint, ArtifactError, ArtifactSummary, TrainedArtifact, ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
};
pub use baseline::{random_opcode_graph, random_opcode_sentinels};
pub use bucket::{anonymize_content, Bucket, BucketMember, ObfuscationSecrets, SealedBucket};
pub use config::{PartitionSpec, ProteusConfig, SentinelMode, ServeConfig};
pub use error::ProteusError;
pub use inventory::{InventoryStats, RegimeTag, SentinelInventory, SentinelKey};
pub use operators::{detect_regime, populate, PopulationConfig, Regime};
pub use pipeline::Proteus;
pub use semantic::{top_percentile, BigramModel};
pub use sentinel::SentinelFactory;
pub use serve::{CompletedFrame, OptimizedCache, RequestHandle, ServeRuntime, ServeStats};
pub use session::{
    derive_member_seed, derive_request_seed, splitmix64, DeobfuscationSession, ObfuscationSession,
};
pub use store::{RecoveryReport, Store, StoreError, VerifyReport};
