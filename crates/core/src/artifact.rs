//! Persistent trained-state artifacts — train once, serve anywhere.
//!
//! [`Proteus::train`] is the expensive
//! step of the protocol: GraphRNN training, pool sampling, and bigram
//! fitting together dominate process start-up, and none of it depends on
//! the protected model. This module persists everything `train` produces
//! as one checksummed, versioned binary blob — the **`PRTA` artifact** —
//! so a serving process can cold-start from disk in milliseconds
//! ([`Proteus::load_artifact`]) instead of retraining, and every serving
//! process can share one vetted generator.
//!
//! # Format
//!
//! ```text
//! magic "PRTA" | artifact_version u16 | section_count u32 | sections…
//! ```
//!
//! Every section is one [`proteus_graph::wire::RECORD`] (magic `PRTB`,
//! record version 1, section tag in the record's tag field, payload
//! length, FNV-1a checksum over header + payload), the envelope the
//! store's WAL records use too: a single flipped byte anywhere in an
//! artifact is rejected with a typed error, never misparsed. The sections, in file order:
//!
//! | tag | section | payload |
//! |-----|---------|---------|
//! | 0 | [`SECTION_META`]      | config fingerprint, provenance string |
//! | 1 | [`SECTION_CONFIG`]    | canonical [`ProteusConfig`] encoding |
//! | 2 | [`SECTION_RNN`]       | GraphRNN weights, sorted by name |
//! | 3 | [`SECTION_POOL`]      | sentinel topology pool, adjacency-exact |
//! | 4 | [`SECTION_BIGRAM`]    | bigram counts/totals/alpha, bit-exact |
//! | 5 | [`SECTION_SENTINELS`] | warm sentinel inventory, key-sorted |
//!
//! The sentinel-inventory section persists the warm sentinels built by
//! the serving runtime across restarts, so a cold-started process begins
//! with whatever inventory the saving process had accumulated. Keys whose
//! population failed persist too (as empty slots), so a fully warmed
//! artifact covers the whole key space and a restart re-proves nothing.
//! Only the current [`ARTIFACT_VERSION`] (3) is read: an artifact from an
//! older version is rejected, and re-running `proteus-train train`
//! replaces it. See `docs/WIRE.md` for the byte-by-byte layout.
//!
//! # Determinism contract
//!
//! A [`Proteus`] loaded from an artifact produces **bit-identical**
//! obfuscation wire bytes to the freshly trained instance that saved it,
//! for every `request_id`: the pool round-trips with neighbor-order-exact
//! adjacency, floats round-trip by bit pattern, and the sampler's derived
//! state (statistics, KDE density) is recomputed by the same deterministic
//! code on both sides. `tests/artifact_robustness.rs` asserts this across
//! the model zoo, and the `proteus-train verify` subcommand re-checks it
//! against a live retrain.

use crate::config::{PartitionSpec, ProteusConfig, SentinelMode};
use crate::error::ProteusError;
use crate::inventory::{RegimeTag, SentinelKey};
use crate::operators::PopulationConfig;
use crate::pipeline::Proteus;
use crate::semantic::BigramModel;
use crate::sentinel::SentinelFactory;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use proteus_graph::wire::{
    self, bounded_capacity, decode_graph, encode_graph, fnv1a64, open_record, put_str, seal_record,
    WireError, MAX_STRING_LEN,
};
use proteus_graph::Graph;
use proteus_graphgen::{GraphRnn, GraphRnnConfig, UGraph};
use proteus_nn::Matrix;
use std::fmt;
use std::path::Path;

/// Magic bytes opening every trained-state artifact.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"PRTA";

/// The artifact format version this library writes and reads. Every
/// other version, older ones included, is rejected with
/// [`ArtifactError::UnknownVersion`] — never misparsed.
pub const ARTIFACT_VERSION: u16 = 3;

/// Section tag: config fingerprint + provenance.
pub const SECTION_META: u32 = 0;
/// Section tag: the canonical [`ProteusConfig`] encoding.
pub const SECTION_CONFIG: u32 = 1;
/// Section tag: GraphRNN weights.
pub const SECTION_RNN: u32 = 2;
/// Section tag: the sentinel topology pool.
pub const SECTION_POOL: u32 = 3;
/// Section tag: the fitted bigram model.
pub const SECTION_BIGRAM: u32 = 4;
/// Section tag: the warm sentinel inventory.
pub const SECTION_SENTINELS: u32 = 5;

const SECTION_TAGS: [u32; 6] = [
    SECTION_META,
    SECTION_CONFIG,
    SECTION_RNN,
    SECTION_POOL,
    SECTION_BIGRAM,
    SECTION_SENTINELS,
];

/// Human-readable name of a section tag (for errors and `inspect`).
pub fn section_name(tag: u32) -> &'static str {
    match tag {
        SECTION_META => "meta",
        SECTION_CONFIG => "config",
        SECTION_RNN => "rnn",
        SECTION_POOL => "pool",
        SECTION_BIGRAM => "bigram",
        SECTION_SENTINELS => "sentinels",
        _ => "unknown",
    }
}

/// Any failure while encoding, decoding, or validating a trained-state
/// artifact. Carried by [`ProteusError::Artifact`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// Reading or writing the artifact file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// The input does not start with [`ARTIFACT_MAGIC`] — it is not an
    /// artifact at all.
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The artifact was written by a format version this library does not
    /// speak.
    UnknownVersion {
        /// Version found in the header.
        got: u16,
        /// Newest version this library supports.
        supported: u16,
    },
    /// The input ended before the named field could be read.
    Truncated {
        /// What was being read.
        context: String,
    },
    /// A section frame failed to decode — truncation, corruption (checksum
    /// mismatch), or an unknown wire version inside the section framing.
    Section {
        /// Zero-based position of the failing section in the file.
        index: u32,
        /// The underlying wire error.
        source: WireError,
    },
    /// A section payload decoded to an impossible value.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section's tag.
        tag: u32,
    },
    /// The same section appears twice.
    DuplicateSection {
        /// The duplicated section's tag.
        tag: u32,
    },
    /// A section carries a tag this version does not define.
    UnknownSection {
        /// The unrecognized tag.
        tag: u32,
    },
    /// Bytes remain after the last declared section.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// The meta section's config fingerprint does not match the config
    /// section — the artifact was assembled inconsistently or tampered
    /// with in a way the per-section checksums cannot see.
    FingerprintMismatch {
        /// Fingerprint recorded in the meta section.
        expected: u64,
        /// Fingerprint recomputed from the config section.
        got: u64,
    },
    /// The artifact's configuration does not match the configuration the
    /// caller requires (see [`Proteus::load_artifact_expecting`]).
    ConfigMismatch {
        /// Fingerprint of the caller's expected configuration.
        expected: u64,
        /// Fingerprint of the configuration stored in the artifact.
        got: u64,
    },
}

impl ArtifactError {
    fn truncated(context: impl Into<String>) -> ArtifactError {
        ArtifactError::Truncated {
            context: context.into(),
        }
    }

    fn malformed(detail: impl Into<String>) -> ArtifactError {
        ArtifactError::Malformed {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, detail } => {
                write!(f, "artifact i/o error at `{path}`: {detail}")
            }
            ArtifactError::BadMagic { got } => {
                write!(f, "artifact error: bad magic {got:02x?} (expected \"PRTA\")")
            }
            ArtifactError::UnknownVersion { got, supported } => write!(
                f,
                "artifact error: unknown artifact version {got} (this library speaks versions up to {supported})"
            ),
            ArtifactError::Truncated { context } => {
                write!(f, "artifact error: truncated input reading {context}")
            }
            ArtifactError::Section { index, source } => {
                write!(f, "artifact error: section {index} failed to decode: {source}")
            }
            ArtifactError::Malformed { detail } => write!(f, "artifact error: {detail}"),
            ArtifactError::MissingSection { tag } => write!(
                f,
                "artifact error: required section `{}` (tag {tag}) is missing",
                section_name(*tag)
            ),
            ArtifactError::DuplicateSection { tag } => write!(
                f,
                "artifact error: section `{}` (tag {tag}) appears more than once",
                section_name(*tag)
            ),
            ArtifactError::UnknownSection { tag } => {
                write!(f, "artifact error: unknown section tag {tag}")
            }
            ArtifactError::TrailingBytes { count } => {
                write!(f, "artifact error: {count} trailing bytes after the final section")
            }
            ArtifactError::FingerprintMismatch { expected, got } => write!(
                f,
                "artifact error: meta section records config fingerprint {expected:#018x} but the config section hashes to {got:#018x}"
            ),
            ArtifactError::ConfigMismatch { expected, got } => write!(
                f,
                "artifact error: artifact config fingerprint {got:#018x} does not match the expected configuration ({expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Section { source, .. } => Some(source),
            _ => None,
        }
    }
}

type AResult<T> = std::result::Result<T, ArtifactError>;

/// A field the shared wire helpers could not read, as the artifact's own
/// error: they fail only with `Truncated` or `Malformed`.
fn field_error(e: WireError) -> ArtifactError {
    match e {
        WireError::Truncated { context } => ArtifactError::Truncated { context },
        WireError::Malformed { detail } => ArtifactError::Malformed { detail },
        other => ArtifactError::malformed(other.to_string()),
    }
}

fn need(buf: &impl Buf, n: usize, what: &str) -> AResult<()> {
    wire::need(buf, n, what).map_err(field_error)
}

fn get_str(buf: &mut Bytes, what: &str) -> AResult<String> {
    wire::get_str(buf, what).map_err(field_error)
}

// ---------------------------------------------------------------------------
// config

/// Canonical binary encoding of a [`ProteusConfig`] — the bytes the config
/// fingerprint is computed over. Fixed field order, little-endian, floats
/// by bit pattern: two configs have equal encodings iff they are
/// observably identical to the pipeline.
fn encode_config(config: &ProteusConfig) -> Bytes {
    let mut buf = BytesMut::new();
    match config.partitions {
        PartitionSpec::Count(n) => {
            buf.put_u8(0);
            buf.put_u64_le(n as u64);
        }
        PartitionSpec::TargetSize(s) => {
            buf.put_u8(1);
            buf.put_u64_le(s as u64);
        }
    }
    buf.put_u64_le(config.k as u64);
    buf.put_u64_le(config.partition_restarts as u64);
    buf.put_u64_le(config.beta.to_bits());
    buf.put_u8(match config.mode {
        SentinelMode::Generative => 0,
        SentinelMode::Perturb => 1,
    });
    let g = &config.graphrnn;
    buf.put_u64_le(g.m as u64);
    buf.put_u64_le(g.hidden as u64);
    buf.put_u64_le(g.mlp_hidden as u64);
    buf.put_u64_le(g.epochs as u64);
    buf.put_u32_le(g.lr.to_bits());
    buf.put_u64_le(g.max_nodes as u64);
    buf.put_u64_le(config.topology_pool as u64);
    buf.put_u64_le(config.population.max_solutions as u64);
    buf.put_u64_le(config.population.top_pct.to_bits());
    buf.put_u64_le(config.seed);
    buf.put_u64_le(config.sentinel_variants as u64);
    buf.freeze()
}

fn decode_config(buf: &mut Bytes) -> AResult<ProteusConfig> {
    need(buf, 9, "partition spec")?;
    let partitions = match buf.get_u8() {
        0 => PartitionSpec::Count(buf.get_u64_le() as usize),
        1 => PartitionSpec::TargetSize(buf.get_u64_le() as usize),
        other => {
            return Err(ArtifactError::malformed(format!(
                "unknown partition spec tag {other}"
            )))
        }
    };
    need(buf, 8 + 8 + 8 + 1, "config scalars")?;
    let k = buf.get_u64_le() as usize;
    let partition_restarts = buf.get_u64_le() as usize;
    let beta = f64::from_bits(buf.get_u64_le());
    let mode = match buf.get_u8() {
        0 => SentinelMode::Generative,
        1 => SentinelMode::Perturb,
        other => {
            return Err(ArtifactError::malformed(format!(
                "unknown sentinel mode tag {other}"
            )))
        }
    };
    need(buf, 8 * 4 + 4 + 8, "graphrnn config")?;
    let graphrnn = GraphRnnConfig {
        m: buf.get_u64_le() as usize,
        hidden: buf.get_u64_le() as usize,
        mlp_hidden: buf.get_u64_le() as usize,
        epochs: buf.get_u64_le() as usize,
        lr: f32::from_bits(buf.get_u32_le()),
        max_nodes: buf.get_u64_le() as usize,
    };
    need(buf, 8 + 8 + 8, "population config")?;
    let topology_pool = buf.get_u64_le() as usize;
    let population = PopulationConfig {
        max_solutions: buf.get_u64_le() as usize,
        top_pct: f64::from_bits(buf.get_u64_le()),
    };
    need(buf, 8 + 8, "seed and sentinel variants")?;
    let seed = buf.get_u64_le();
    let sentinel_variants = buf.get_u64_le() as usize;
    Ok(ProteusConfig {
        partitions,
        k,
        partition_restarts,
        beta,
        mode,
        graphrnn,
        topology_pool,
        population,
        sentinel_variants,
        seed,
    })
}

/// FNV-1a fingerprint of a configuration's canonical encoding. Two
/// configurations fingerprint equally iff every pipeline-visible field
/// (including float bit patterns) is identical — the compatibility check
/// behind [`Proteus::load_artifact_expecting`].
pub fn config_fingerprint(config: &ProteusConfig) -> u64 {
    fnv1a64(&encode_config(config))
}

// ---------------------------------------------------------------------------
// rnn weights

/// Weights are encoded sorted by name so the byte format is canonical
/// regardless of how the `(name, matrix)` pairs were assembled.
fn encode_rnn_weights(weights: &[(String, Matrix)]) -> Bytes {
    let mut ordered: Vec<&(String, Matrix)> = weights.iter().collect();
    ordered.sort_by(|a, b| a.0.cmp(&b.0));
    let mut buf = BytesMut::new();
    buf.put_u32_le(ordered.len() as u32);
    for (name, matrix) in ordered {
        put_str(&mut buf, name);
        buf.put_u32_le(matrix.rows() as u32);
        buf.put_u32_le(matrix.cols() as u32);
        for &v in matrix.data() {
            buf.put_u32_le(v.to_bits());
        }
    }
    buf.freeze()
}

fn decode_rnn_weights(buf: &mut Bytes) -> AResult<Vec<(String, Matrix)>> {
    need(buf, 4, "rnn parameter count")?;
    let count = buf.get_u32_le() as usize;
    if count > 4096 {
        return Err(ArtifactError::malformed(format!(
            "implausible rnn parameter count {count}"
        )));
    }
    // an entry encodes to at least 12 bytes (empty name + shape header)
    let mut out = Vec::with_capacity(bounded_capacity(count, buf, 12));
    for _ in 0..count {
        let name = get_str(buf, "rnn parameter name")?;
        need(buf, 8, "rnn parameter shape")?;
        let rows = buf.get_u32_le() as usize;
        let cols = buf.get_u32_le() as usize;
        let numel = rows
            .checked_mul(cols)
            .filter(|&n| n <= 1 << 24)
            .ok_or_else(|| {
                ArtifactError::malformed(format!("implausible matrix shape {rows}x{cols}"))
            })?;
        need(buf, numel * 4, "rnn parameter data")?;
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(f32::from_bits(buf.get_u32_le()));
        }
        out.push((name, Matrix::new(rows, cols, data)));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// topology pool

fn encode_pool<'a>(pool: impl ExactSizeIterator<Item = &'a UGraph>) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(pool.len() as u32);
    for g in pool {
        let adj = g.adjacency();
        buf.put_u32_le(adj.len() as u32);
        for neigh in adj {
            buf.put_u32_le(neigh.len() as u32);
            for &v in neigh {
                buf.put_u32_le(v as u32);
            }
        }
    }
    buf.freeze()
}

fn decode_pool(buf: &mut Bytes) -> AResult<Vec<UGraph>> {
    need(buf, 4, "pool size")?;
    let count = buf.get_u32_le() as usize;
    if count > 1 << 20 {
        return Err(ArtifactError::malformed(format!(
            "implausible pool size {count}"
        )));
    }
    let mut pool = Vec::with_capacity(bounded_capacity(count, buf, 4));
    for _ in 0..count {
        need(buf, 4, "topology node count")?;
        let n = buf.get_u32_le() as usize;
        if n > 1 << 20 {
            return Err(ArtifactError::malformed(format!(
                "implausible topology node count {n}"
            )));
        }
        let mut adj = Vec::with_capacity(bounded_capacity(n, buf, 4));
        for _ in 0..n {
            need(buf, 4, "neighbor count")?;
            let deg = buf.get_u32_le() as usize;
            if deg > n {
                return Err(ArtifactError::malformed(format!(
                    "node degree {deg} exceeds topology size {n}"
                )));
            }
            let mut neigh = Vec::with_capacity(bounded_capacity(deg, buf, 4));
            for _ in 0..deg {
                need(buf, 4, "neighbor id")?;
                neigh.push(buf.get_u32_le() as usize);
            }
            adj.push(neigh);
        }
        pool.push(UGraph::from_adjacency(adj).map_err(|e| {
            ArtifactError::malformed(format!("pool topology is not a simple graph: {e}"))
        })?);
    }
    Ok(pool)
}

// ---------------------------------------------------------------------------
// bigram model

fn encode_bigram(bigram: &BigramModel) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u64_le(bigram.alpha().to_bits());
    let counts = bigram.counts();
    buf.put_u32_le(counts.len() as u32);
    for row in counts {
        for &c in row {
            buf.put_u64_le(c.to_bits());
        }
    }
    for &t in bigram.totals() {
        buf.put_u64_le(t.to_bits());
    }
    buf.freeze()
}

fn decode_bigram(buf: &mut Bytes) -> AResult<BigramModel> {
    need(buf, 12, "bigram header")?;
    let alpha = f64::from_bits(buf.get_u64_le());
    let v = buf.get_u32_le() as usize;
    if v > 1024 {
        return Err(ArtifactError::malformed(format!(
            "implausible bigram vocabulary {v}"
        )));
    }
    let mut counts = Vec::with_capacity(v);
    for _ in 0..v {
        need(buf, v * 8, "bigram counts row")?;
        let mut row = Vec::with_capacity(v);
        for _ in 0..v {
            row.push(f64::from_bits(buf.get_u64_le()));
        }
        counts.push(row);
    }
    need(buf, v * 8, "bigram totals")?;
    let mut totals = Vec::with_capacity(v);
    for _ in 0..v {
        totals.push(f64::from_bits(buf.get_u64_le()));
    }
    BigramModel::from_parts(counts, totals, alpha)
        .map_err(|e| ArtifactError::malformed(format!("bigram state rejected: {e}")))
}

// ---------------------------------------------------------------------------
// sentinel inventory

/// Entries are encoded in strictly ascending key order (the inventory's
/// canonical snapshot order), each graph as its wire encoding behind a
/// length prefix. A memoized population failure encodes as
/// `graph_len = 0`: a wire-encoded graph is never empty (its name prefix
/// and node and output counts alone take 12 bytes), so the empty slot is
/// unambiguous.
fn encode_sentinels(entries: &[(SentinelKey, Option<Graph>)]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(entries.len() as u32);
    for (key, graph) in entries {
        buf.put_u32_le(key.topo);
        buf.put_u8(key.regime as u8);
        buf.put_u32_le(key.variant);
        match graph {
            Some(graph) => {
                let g = encode_graph(graph);
                buf.put_u32_le(g.len() as u32);
                buf.put_slice(&g);
            }
            None => buf.put_u32_le(0),
        }
    }
    buf.freeze()
}

/// `pool_len` and `variants` bound the key space: a key naming a topology
/// or variant the loaded factory cannot build is rejected rather than
/// silently memoizing a sentinel no inline path could produce. Both
/// checks and the ordering check run before the slot is read, so they
/// hold for memoized failures (`graph_len = 0`, decoded as `None`) too.
fn decode_sentinels(
    buf: &mut Bytes,
    pool_len: usize,
    variants: usize,
) -> AResult<Vec<(SentinelKey, Option<Graph>)>> {
    need(buf, 4, "sentinel entry count")?;
    let count = buf.get_u32_le() as usize;
    let key_space = pool_len.saturating_mul(2).saturating_mul(variants);
    if count > key_space {
        return Err(ArtifactError::malformed(format!(
            "sentinel entry count {count} exceeds the key space \
             ({pool_len} topologies x 2 regimes x {variants} variants)"
        )));
    }
    // an entry encodes to at least 13 bytes (key header + graph length)
    let mut out: Vec<(SentinelKey, Option<Graph>)> =
        Vec::with_capacity(bounded_capacity(count, buf, 13));
    for i in 0..count {
        need(buf, 4 + 1 + 4 + 4, "sentinel entry header")?;
        let topo = buf.get_u32_le();
        let regime = match buf.get_u8() {
            0 => RegimeTag::Cnn,
            1 => RegimeTag::Transformer,
            other => {
                return Err(ArtifactError::malformed(format!(
                    "sentinel entry {i}: unknown regime tag {other}"
                )))
            }
        };
        let variant = buf.get_u32_le();
        if topo as usize >= pool_len || variant as usize >= variants {
            return Err(ArtifactError::malformed(format!(
                "sentinel entry {i}: key (topo {topo}, variant {variant}) outside the \
                 {pool_len}-topology, {variants}-variant key space"
            )));
        }
        let key = SentinelKey {
            topo,
            regime,
            variant,
        };
        if let Some((prev, _)) = out.last() {
            if *prev >= key {
                return Err(ArtifactError::malformed(format!(
                    "sentinel entry {i}: keys are not in strictly ascending order"
                )));
            }
        }
        let len = buf.get_u32_le() as usize;
        if len == 0 {
            out.push((key, None));
            continue;
        }
        need(buf, len, "sentinel graph bytes")?;
        let mut graph_buf = buf.split_to(len);
        let graph = decode_graph(&mut graph_buf).map_err(|e| {
            ArtifactError::malformed(format!("sentinel entry {i}: graph rejected: {e}"))
        })?;
        if !graph_buf.is_empty() {
            return Err(ArtifactError::malformed(format!(
                "sentinel entry {i}: {} trailing bytes after graph",
                graph_buf.len()
            )));
        }
        out.push((key, Some(graph)));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// the artifact

/// A decoded trained-state artifact: everything
/// [`Proteus::train`] produces, in a
/// form that can be inspected without committing to a [`Proteus`]
/// instance (see [`TrainedArtifact::into_proteus`]).
#[derive(Debug, Clone)]
pub struct TrainedArtifact {
    config: ProteusConfig,
    provenance: String,
    rnn_weights: Vec<(String, Matrix)>,
    pool: Vec<UGraph>,
    bigram: BigramModel,
    sentinels: Vec<(SentinelKey, Option<Graph>)>,
}

/// A human-oriented summary of an artifact (the `proteus-train inspect`
/// output).
#[derive(Debug, Clone)]
pub struct ArtifactSummary {
    /// Artifact format version.
    pub version: u16,
    /// FNV-1a fingerprint of the canonical config encoding.
    pub config_fingerprint: u64,
    /// Free-form provenance string recorded at save time (e.g. the
    /// training corpus names). Empty when saved through the library API.
    pub provenance: String,
    /// Number of topologies in the sentinel pool.
    pub pool_len: usize,
    /// Number of GraphRNN parameter tensors.
    pub rnn_params: usize,
    /// Total number of GraphRNN weight scalars.
    pub rnn_scalars: usize,
    /// Bigram vocabulary size (`OpCode::COUNT` at save time).
    pub bigram_vocab: usize,
    /// Persisted sentinels: inventory entries whose key built a graph.
    pub sentinel_entries: usize,
    /// Persisted infeasible keys: memoized population failures
    /// (`graph_len = 0` entries). A load keeps them, so a warm does not
    /// re-prove those keys.
    pub infeasible_entries: usize,
    /// The key space the factory spans (`pool_len x 2 regimes x
    /// sentinel_variants`): a fully warmed artifact's
    /// `sentinel_entries + infeasible_entries` equals it.
    pub key_space: usize,
    /// `(section name, payload bytes)` per section, in file order.
    pub section_bytes: Vec<(&'static str, usize)>,
}

impl TrainedArtifact {
    /// Snapshots a trained instance. `provenance` is a free-form string
    /// stored alongside the state (the CLI records the training corpus
    /// names there so `proteus-train verify` can retrain and compare);
    /// pass `""` when there is nothing to record. Provenance longer than
    /// the codec's 1 MiB string bound is truncated (at a character
    /// boundary) so every saved artifact is loadable by construction.
    pub fn from_proteus(proteus: &Proteus, provenance: impl Into<String>) -> TrainedArtifact {
        let mut provenance: String = provenance.into();
        if provenance.len() > MAX_STRING_LEN {
            let mut cut = MAX_STRING_LEN;
            while !provenance.is_char_boundary(cut) {
                cut -= 1;
            }
            provenance.truncate(cut);
        }
        let factory = proteus.factory();
        TrainedArtifact {
            config: proteus.config().clone(),
            provenance,
            rnn_weights: factory.rnn().export_weights(),
            pool: factory.sampler().topologies().cloned().collect(),
            bigram: factory.bigram().clone(),
            // whatever the inventory has accumulated so far, key-sorted;
            // an idle instance simply persists an empty section
            sentinels: proteus.inventory().snapshot(),
        }
    }

    /// The warm sentinel inventory entries the artifact carries, in
    /// ascending key order; `None` is a memoized population failure.
    pub fn sentinels(&self) -> &[(SentinelKey, Option<Graph>)] {
        &self.sentinels
    }

    /// The configuration the artifact was trained under.
    pub fn config(&self) -> &ProteusConfig {
        &self.config
    }

    /// The provenance string recorded at save time.
    pub fn provenance(&self) -> &str {
        &self.provenance
    }

    /// Serializes to the `PRTA` byte format.
    pub fn to_bytes(&self) -> Bytes {
        let config_payload = encode_config(&self.config);
        let mut meta = BytesMut::new();
        meta.put_u64_le(fnv1a64(&config_payload));
        put_str(&mut meta, &self.provenance);

        let sections: [(u32, Bytes); 6] = [
            (SECTION_META, meta.freeze()),
            (SECTION_CONFIG, config_payload),
            (SECTION_RNN, encode_rnn_weights(&self.rnn_weights)),
            (SECTION_POOL, encode_pool(self.pool.iter())),
            (SECTION_BIGRAM, encode_bigram(&self.bigram)),
            (SECTION_SENTINELS, encode_sentinels(&self.sentinels)),
        ];
        let mut buf = BytesMut::new();
        buf.put_slice(&ARTIFACT_MAGIC);
        buf.put_u16_le(ARTIFACT_VERSION);
        buf.put_u32_le(sections.len() as u32);
        for (tag, payload) in &sections {
            buf.put_slice(&seal_record(*tag, &[payload]));
        }
        buf.freeze()
    }

    /// Decodes and fully validates an artifact: magic, version, every
    /// section checksum, payload well-formedness, and the meta/config
    /// fingerprint cross-check.
    ///
    /// # Errors
    /// A typed [`ArtifactError`] for every defect; corrupted input is
    /// never silently accepted (any single flipped byte is caught).
    pub fn from_bytes(data: &[u8]) -> AResult<TrainedArtifact> {
        let (artifact, _) = TrainedArtifact::from_bytes_with_summary(data)?;
        Ok(artifact)
    }

    /// Reads and decodes the artifact file at `path`.
    ///
    /// # Errors
    /// [`ArtifactError::Io`] when the file cannot be read, else as
    /// [`TrainedArtifact::from_bytes`].
    pub fn read(path: impl AsRef<Path>) -> AResult<TrainedArtifact> {
        let path = path.as_ref();
        let data = std::fs::read(path).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        TrainedArtifact::from_bytes(&data)
    }

    /// [`TrainedArtifact::from_bytes`] plus the [`ArtifactSummary`] the
    /// `inspect` subcommand prints (section sizes are only known during
    /// decoding).
    ///
    /// # Errors
    /// As [`TrainedArtifact::from_bytes`].
    pub fn from_bytes_with_summary(data: &[u8]) -> AResult<(TrainedArtifact, ArtifactSummary)> {
        if data.len() < 4 {
            return Err(ArtifactError::truncated("artifact magic"));
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&data[0..4]);
        if magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic { got: magic });
        }
        if data.len() < 6 {
            return Err(ArtifactError::truncated("artifact version"));
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnknownVersion {
                got: version,
                supported: ARTIFACT_VERSION,
            });
        }
        if data.len() < 10 {
            return Err(ArtifactError::truncated("section count"));
        }
        let count = u32::from_le_bytes([data[6], data[7], data[8], data[9]]) as usize;
        if count > 64 {
            return Err(ArtifactError::malformed(format!(
                "implausible section count {count}"
            )));
        }
        let mut buf = Bytes::copy_from_slice(&data[10..]);
        let mut payloads: [Option<Bytes>; 6] = [None, None, None, None, None, None];
        let mut section_bytes: Vec<(&'static str, usize)> = Vec::with_capacity(count);
        let mut prev_slot: Option<usize> = None;
        for index in 0..count {
            let (tag, payload) =
                open_record(&mut buf).map_err(|source| ArtifactError::Section {
                    index: index as u32,
                    source,
                })?;
            let slot = SECTION_TAGS
                .iter()
                .position(|&t| t == tag)
                .ok_or(ArtifactError::UnknownSection { tag })?;
            if payloads[slot].is_some() {
                return Err(ArtifactError::DuplicateSection { tag });
            }
            // docs/WIRE.md: sections appear in tag order. Enforcing it
            // keeps the encoding canonical — one artifact, one byte string.
            if let Some(prev) = prev_slot {
                if slot < prev {
                    return Err(ArtifactError::malformed(format!(
                        "section `{}` (tag {tag}) appears after tag {} — artifact sections are \
                         encoded in tag order",
                        section_name(tag),
                        SECTION_TAGS[prev]
                    )));
                }
            }
            prev_slot = Some(slot);
            section_bytes.push((section_name(tag), payload.len()));
            payloads[slot] = Some(payload);
        }
        if !buf.is_empty() {
            return Err(ArtifactError::TrailingBytes { count: buf.len() });
        }
        let mut take = |tag: u32| -> AResult<Bytes> {
            let slot = SECTION_TAGS
                .iter()
                .position(|&t| t == tag)
                .expect("take is only called with tags listed in SECTION_TAGS");
            payloads[slot]
                .take()
                .ok_or(ArtifactError::MissingSection { tag })
        };
        let mut meta = take(SECTION_META)?;
        let config_payload = take(SECTION_CONFIG)?;
        let mut rnn = take(SECTION_RNN)?;
        let mut pool = take(SECTION_POOL)?;
        let mut bigram = take(SECTION_BIGRAM)?;
        // required, possibly empty
        let mut sentinels_payload = take(SECTION_SENTINELS)?;

        need(&meta, 8, "config fingerprint")?;
        let recorded = meta.get_u64_le();
        let recomputed = fnv1a64(&config_payload);
        if recorded != recomputed {
            return Err(ArtifactError::FingerprintMismatch {
                expected: recorded,
                got: recomputed,
            });
        }
        let provenance = get_str(&mut meta, "provenance")?;
        if !meta.is_empty() {
            return Err(ArtifactError::malformed(format!(
                "{} trailing bytes in meta section",
                meta.len()
            )));
        }

        let mut config_buf = config_payload.clone();
        let config = decode_config(&mut config_buf)?;
        if !config_buf.is_empty() {
            return Err(ArtifactError::malformed(format!(
                "{} trailing bytes in config section",
                config_buf.len()
            )));
        }
        let rnn_weights = decode_rnn_weights(&mut rnn)?;
        if !rnn.is_empty() {
            return Err(ArtifactError::malformed(format!(
                "{} trailing bytes in rnn section",
                rnn.len()
            )));
        }
        let pool = {
            let decoded = decode_pool(&mut pool)?;
            if !pool.is_empty() {
                return Err(ArtifactError::malformed(format!(
                    "{} trailing bytes in pool section",
                    pool.len()
                )));
            }
            decoded
        };
        let bigram = {
            let decoded = decode_bigram(&mut bigram)?;
            if !bigram.is_empty() {
                return Err(ArtifactError::malformed(format!(
                    "{} trailing bytes in bigram section",
                    bigram.len()
                )));
            }
            decoded
        };
        let sentinels =
            decode_sentinels(&mut sentinels_payload, pool.len(), config.sentinel_variants)?;
        if !sentinels_payload.is_empty() {
            return Err(ArtifactError::malformed(format!(
                "{} trailing bytes in sentinels section",
                sentinels_payload.len()
            )));
        }

        let summary = ArtifactSummary {
            version,
            config_fingerprint: recorded,
            provenance: provenance.clone(),
            pool_len: pool.len(),
            rnn_params: rnn_weights.len(),
            rnn_scalars: rnn_weights.iter().map(|(_, m)| m.data().len()).sum(),
            bigram_vocab: bigram.counts().len(),
            sentinel_entries: sentinels.iter().filter(|(_, g)| g.is_some()).count(),
            infeasible_entries: sentinels.iter().filter(|(_, g)| g.is_none()).count(),
            key_space: pool
                .len()
                .saturating_mul(2)
                .saturating_mul(config.sentinel_variants),
            section_bytes,
        };
        Ok((
            TrainedArtifact {
                config,
                provenance,
                rnn_weights,
                pool,
                bigram,
                sentinels,
            },
            summary,
        ))
    }

    /// Reconstructs a servable [`Proteus`] from the decoded state. The
    /// result is bit-compatible with the instance that was saved: same
    /// config, same pool (in order), same weights, same bigram counts.
    ///
    /// # Errors
    /// [`ArtifactError::Malformed`] when the GraphRNN weights do not fit
    /// the stored configuration, or the stored configuration itself fails
    /// [`ProteusConfig::validate`] (wrapped detail).
    pub fn into_proteus(self) -> AResult<Proteus> {
        self.config.validate().map_err(|e| {
            ArtifactError::malformed(format!("artifact carries an invalid configuration: {e}"))
        })?;
        let rnn = GraphRnn::from_weights(self.config.graphrnn, self.rnn_weights)
            .map_err(|e| ArtifactError::malformed(format!("rnn state rejected: {e}")))?;
        let factory = SentinelFactory::from_parts(
            rnn,
            self.pool,
            self.bigram,
            self.config.population,
            self.config.beta,
            SentinelFactory::generation_seed(self.config.seed),
            self.config.sentinel_variants,
        );
        let proteus = Proteus::from_trained_parts(self.config, factory);
        // entries persisted at save time — sentinels and infeasible keys
        // alike — skip their first inline build (or failed population)
        proteus.inventory().prefill(self.sentinels);
        Ok(proteus)
    }
}

impl Proteus {
    /// Serializes this trained instance's state to `PRTA` artifact bytes
    /// (no provenance recorded; see [`TrainedArtifact::from_proteus`] to
    /// attach one).
    pub fn to_artifact_bytes(&self) -> Bytes {
        TrainedArtifact::from_proteus(self, "").to_bytes()
    }

    /// Reconstructs a trained instance from `PRTA` artifact bytes.
    ///
    /// # Errors
    /// [`ProteusError::Artifact`] for every decode or validation defect.
    pub fn from_artifact_bytes(data: &[u8]) -> Result<Proteus, ProteusError> {
        Ok(TrainedArtifact::from_bytes(data)?.into_proteus()?)
    }

    /// Writes this trained instance's state to `path` as a `PRTA`
    /// artifact — the "train offline, ship the artifact" half of warm
    /// starting.
    ///
    /// # Errors
    /// [`ProteusError::Artifact`] ([`ArtifactError::Io`]) when the write
    /// fails.
    pub fn save_artifact(&self, path: impl AsRef<Path>) -> Result<(), ProteusError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_artifact_bytes()).map_err(|e| {
            ProteusError::Artifact(ArtifactError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })
        })
    }

    /// Cold-starts a trained instance from an artifact on disk — the
    /// serving half of warm starting. Milliseconds instead of the full
    /// GraphRNN/partition training cost.
    ///
    /// # Errors
    /// [`ProteusError::Artifact`] when the file cannot be read or any
    /// validation (version, section checksums, fingerprint, state shape)
    /// fails.
    pub fn load_artifact(path: impl AsRef<Path>) -> Result<Proteus, ProteusError> {
        Ok(TrainedArtifact::read(path)?.into_proteus()?)
    }

    /// [`Proteus::load_artifact`], additionally requiring the artifact's
    /// configuration to fingerprint-match `expected` — deployments pin
    /// their config and refuse artifacts trained under a different one.
    ///
    /// # Errors
    /// As [`Proteus::load_artifact`], plus
    /// [`ArtifactError::ConfigMismatch`] on a fingerprint difference.
    pub fn load_artifact_expecting(
        path: impl AsRef<Path>,
        expected: &ProteusConfig,
    ) -> Result<Proteus, ProteusError> {
        let artifact = TrainedArtifact::read(path)?;
        // fingerprint check before into_proteus: a mismatched artifact is
        // rejected for the decode cost alone, not the RNN/density rebuild
        let want = config_fingerprint(expected);
        let got = config_fingerprint(artifact.config());
        if want != got {
            return Err(ProteusError::Artifact(ArtifactError::ConfigMismatch {
                expected: want,
                got,
            }));
        }
        Ok(artifact.into_proteus()?)
    }

    /// FNV-1a fingerprint of this instance's configuration (see
    /// [`config_fingerprint`]).
    pub fn config_fingerprint(&self) -> u64 {
        config_fingerprint(self.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionSpec;
    use crate::operators::Regime;
    use proteus_graph::TensorMap;
    use proteus_graphgen::GraphRnnConfig;
    use proteus_models::{build, ModelKind};

    // training dominates test time, so the module shares one instance
    fn quick_proteus() -> &'static Proteus {
        static QUICK: std::sync::OnceLock<Proteus> = std::sync::OnceLock::new();
        QUICK.get_or_init(|| {
            let cfg = ProteusConfig {
                k: 2,
                partitions: PartitionSpec::Count(2),
                graphrnn: GraphRnnConfig {
                    epochs: 1,
                    max_nodes: 16,
                    ..Default::default()
                },
                topology_pool: 12,
                ..Default::default()
            };
            Proteus::train(cfg, &[build(ModelKind::ResNet)]).expect("train")
        })
    }

    // the shared instance with its full key space warmed exactly once:
    // concurrent tests sweeping it themselves would race to build the
    // same (slow, in debug) infeasible keys
    fn warmed_quick_proteus() -> &'static Proteus {
        static WARM: std::sync::Once = std::sync::Once::new();
        let proteus = quick_proteus();
        WARM.call_once(|| {
            proteus.warm_inventory();
        });
        proteus
    }

    /// One request's wire frames, drained from a fresh session.
    fn frames_of(proteus: &Proteus, g: &proteus_graph::Graph) -> Vec<Bytes> {
        let session = proteus.obfuscate_session(g, &TensorMap::new(), 0).unwrap();
        session.map(|f| f.to_mux_bytes(0)).collect()
    }

    #[test]
    fn artifact_roundtrips_bit_identically() {
        let fresh = quick_proteus();
        let bytes = fresh.to_artifact_bytes();
        let loaded = Proteus::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(fresh.config_fingerprint(), loaded.config_fingerprint());
        // a second save of the loaded instance reproduces the bytes exactly
        assert_eq!(bytes.to_vec(), loaded.to_artifact_bytes().to_vec());
        // and the loaded instance obfuscates bit-identically
        let g = build(ModelKind::AlexNet);
        assert_eq!(frames_of(fresh, &g), frames_of(&loaded, &g));
    }

    #[test]
    fn summary_reports_sections() {
        let fresh = quick_proteus();
        let artifact = TrainedArtifact::from_proteus(fresh, "resnet");
        let (_, summary) = TrainedArtifact::from_bytes_with_summary(&artifact.to_bytes()).unwrap();
        assert_eq!(summary.version, ARTIFACT_VERSION);
        assert_eq!(summary.provenance, "resnet");
        assert_eq!(summary.config_fingerprint, fresh.config_fingerprint());
        assert!(summary.pool_len > 0);
        // GRU: 3 gates x (w, u, b) = 9; edge MLP: 2 linear layers x (w, b) = 4
        assert_eq!(summary.rnn_params, 13);
        assert!(summary.rnn_scalars > 0);
        let names: Vec<&str> = summary.section_bytes.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["meta", "config", "rnn", "pool", "bigram", "sentinels"]
        );
    }

    #[test]
    fn bad_magic_and_version_skew_rejected() {
        let bytes = quick_proteus().to_artifact_bytes().to_vec();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            TrainedArtifact::from_bytes(&bad),
            Err(ArtifactError::BadMagic { .. })
        ));
        let mut skew = bytes.clone();
        skew[4] = ARTIFACT_VERSION as u8 + 1;
        assert!(matches!(
            TrainedArtifact::from_bytes(&skew),
            Err(ArtifactError::UnknownVersion { .. })
        ));
        assert!(matches!(
            TrainedArtifact::from_bytes(&bytes[..3]),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn section_corruption_rejected() {
        let bytes = quick_proteus().to_artifact_bytes().to_vec();
        // flip one byte inside the first section's payload region
        let mut corrupt = bytes.clone();
        corrupt[40] ^= 0x20;
        let err = TrainedArtifact::from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::Section { .. } | ArtifactError::FingerprintMismatch { .. }
            ),
            "wrong variant: {err:?}"
        );
    }

    #[test]
    fn v2_section_frames_are_rejected() {
        // sections are records by spec (docs/WIRE.md); the same payload
        // behind a valid request frame must not be a second accepted
        // encoding of the artifact: a v3 frame and a retired v2 frame
        // (FNV-1a, as it was sealed) are each an unknown version
        use proteus_graph::wire::{encode_frame_v3, Checksum, Envelope, FRAME};
        let v2_row = Envelope {
            version: Some(2),
            checksum: Checksum::Fnv1a,
            ..FRAME
        };
        let bytes = quick_proteus().to_artifact_bytes();
        let rebuild = |seal: &dyn Fn(u32, &[u8]) -> Bytes| {
            let mut buf = Bytes::copy_from_slice(&bytes[10..]);
            let mut rebuilt: Vec<u8> = bytes[..10].to_vec();
            while !buf.is_empty() {
                let (tag, payload) = open_record(&mut buf).expect("section decodes");
                rebuilt.extend_from_slice(&seal(tag, &payload));
            }
            TrainedArtifact::from_bytes(&rebuilt).unwrap_err()
        };
        let err = rebuild(&|index, payload| encode_frame_v3(0, index, payload));
        assert!(
            matches!(
                err,
                ArtifactError::Section {
                    index: 0,
                    source: WireError::UnknownVersion {
                        got: 3,
                        supported: 1
                    }
                }
            ),
            "wrong variant: {err:?}"
        );
        let err = rebuild(&|index, payload| {
            let fields = |f: &mut bytes::BytesMut| {
                f.put_u64_le(0);
                f.put_u32_le(index);
            };
            v2_row.seal(2, fields, payload).expect("the row lists v2")
        });
        assert!(
            matches!(
                err,
                ArtifactError::Section {
                    index: 0,
                    source: WireError::UnknownVersion {
                        got: 2,
                        supported: 1
                    }
                }
            ),
            "wrong variant: {err:?}"
        );
    }

    #[test]
    fn out_of_order_sections_are_rejected() {
        // sections are encoded in tag order (docs/WIRE.md); a permuted
        // file must not be a second accepted encoding of the artifact
        let bytes = quick_proteus().to_artifact_bytes();
        let mut buf = Bytes::copy_from_slice(&bytes[10..]);
        let mut frames = Vec::with_capacity(6);
        while !buf.is_empty() {
            frames.push(open_record(&mut buf).expect("section decodes"));
        }
        assert_eq!(frames.len(), 6);
        frames.swap(0, 5);
        let mut rebuilt: Vec<u8> = bytes[..10].to_vec();
        for (tag, payload) in &frames {
            rebuilt.extend_from_slice(&seal_record(*tag, &[payload]));
        }
        let err = TrainedArtifact::from_bytes(&rebuilt).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Malformed { .. }),
            "wrong variant: {err:?}"
        );
    }

    #[test]
    fn persisted_inventory_round_trips_and_prefills() {
        let fresh = warmed_quick_proteus();
        // a repeat sweep is all lookups and reports the same count
        let built = fresh.warm_inventory();
        assert!(built > 0, "nothing warmed");
        let bytes = fresh.to_artifact_bytes();
        let (artifact, summary) = TrainedArtifact::from_bytes_with_summary(&bytes).unwrap();
        assert_eq!(summary.version, ARTIFACT_VERSION);
        assert_eq!(summary.sentinel_entries, built);
        assert!(
            summary.infeasible_entries > 0,
            "no infeasible key persisted"
        );
        assert_eq!(
            summary.sentinel_entries + summary.infeasible_entries,
            summary.key_space
        );
        assert_eq!(summary.key_space, fresh.factory().key_space().len());
        let loaded = artifact.into_proteus().unwrap();
        assert_eq!(loaded.inventory().len(), summary.key_space);
        // prefilled entries, a failure included, match what the loaded
        // factory would build
        let snapshot = loaded.inventory().snapshot();
        let negative = snapshot.iter().find(|(_, g)| g.is_none());
        for (key, graph) in snapshot.iter().take(6).chain(negative) {
            let rebuilt = loaded.factory().build_sentinel(*key);
            assert_eq!(
                graph.as_ref().map(encode_graph),
                rebuilt.as_ref().map(encode_graph),
                "persisted entry for {key:?} diverges from the pure build"
            );
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // one key header of the sentinels section: topo u32 | regime u8 |
    // variant u32, followed by an empty (memoized-failure) slot
    fn negative_entry(topo: u32, regime: u8, variant: u32) -> Vec<u8> {
        let mut e = topo.to_le_bytes().to_vec();
        e.push(regime);
        e.extend_from_slice(&variant.to_le_bytes());
        e.extend_from_slice(&0u32.to_le_bytes());
        e
    }

    fn sentinels_payload(entries: &[Vec<u8>]) -> Bytes {
        let mut p = (entries.len() as u32).to_le_bytes().to_vec();
        for e in entries {
            p.extend_from_slice(e);
        }
        Bytes::from(p)
    }

    #[test]
    fn sentinel_section_layout_matches_golden_bytes() {
        // graph "s" holding one Input node "x" of shape [2], output 0
        let mut g = Graph::new("s");
        let x = g.add_named(proteus_graph::Op::Input { shape: [2].into() }, [], "x");
        g.set_outputs([x]);
        let entries = vec![
            (SentinelKey::new(0, Regime::Cnn, 1), Some(g)),
            (SentinelKey::new(1, Regime::Transformer, 0), None),
        ];
        let graph = concat!(
            "01000000",
            "73",       // name "s"
            "01000000", // node_count
            "01000000",
            "78", // node name "x"
            "00",
            "01000000",
            "0200000000000000", // Input, rank 1, dim 2
            "00000000",         // input_count
            "01000000",
            "00000000", // output_count, output id 0
        );
        // entry_count 2, then key (0, Cnn, 1) with a 39-byte graph
        let head = concat!("02000000", "00000000", "00", "01000000", "27000000");
        // key (1, Transformer, 0) with an empty slot: a memoized failure
        let tail = concat!("01000000", "01", "00000000", "00000000");
        let golden = format!("{head}{graph}{tail}");
        let encoded = encode_sentinels(&entries);
        assert_eq!(hex(&encoded), golden);
        let mut buf = encoded.clone();
        assert_eq!(decode_sentinels(&mut buf, 2, 2).unwrap(), entries);
        assert!(buf.is_empty());
    }

    #[test]
    fn negative_entries_are_checked_like_sentinels() {
        let ok = sentinels_payload(&[negative_entry(0, 0, 1), negative_entry(1, 1, 0)]);
        let decoded = decode_sentinels(&mut ok.clone(), 2, 2).unwrap();
        assert!(decoded.iter().all(|(_, g)| g.is_none()));
        let rejected = [
            // topology outside the pool
            sentinels_payload(&[negative_entry(2, 0, 0)]),
            // variant outside the configured range
            sentinels_payload(&[negative_entry(0, 0, 2)]),
            // unknown regime tag
            sentinels_payload(&[negative_entry(0, 2, 0)]),
            // descending keys
            sentinels_payload(&[negative_entry(1, 0, 0), negative_entry(0, 1, 1)]),
            // a key repeated
            sentinels_payload(&[negative_entry(0, 0, 1), negative_entry(0, 0, 1)]),
        ];
        for payload in rejected {
            let err = decode_sentinels(&mut payload.clone(), 2, 2).unwrap_err();
            assert!(
                matches!(err, ArtifactError::Malformed { .. }),
                "{} accepted or wrongly typed: {err:?}",
                hex(&payload)
            );
        }
        // a flipped bit in the final empty slot claims bytes that are not there
        for bit in 0..32 {
            let mut raw = ok.to_vec();
            let at = raw.len() - 4 + bit / 8;
            raw[at] ^= 1 << (bit % 8);
            assert!(decode_sentinels(&mut Bytes::from(raw), 2, 2).is_err());
        }
    }

    #[test]
    fn any_bit_flip_in_a_persisted_negative_entry_is_rejected() {
        let bytes = warmed_quick_proteus().to_artifact_bytes().to_vec();
        // walk to the sentinels section (the last frame) and find the
        // first negative entry inside its payload
        let mut buf = Bytes::copy_from_slice(&bytes[10..]);
        for _ in 0..5 {
            open_record(&mut buf).expect("section record");
        }
        let mut at = bytes.len() - buf.len() + proteus_graph::wire::RECORD.header_len() + 4;
        let negative = loop {
            let len = u32::from_le_bytes(bytes[at + 9..at + 13].try_into().unwrap()) as usize;
            if len == 0 {
                break at;
            }
            at += 13 + len;
        };
        for bit in 0..13 * 8 {
            let mut raw = bytes.clone();
            raw[negative + bit / 8] ^= 1 << (bit % 8);
            assert!(
                TrainedArtifact::from_bytes(&raw).is_err(),
                "bit {bit} of the negative entry at byte {negative} flipped unnoticed"
            );
        }
    }

    #[test]
    fn corrupted_sentinel_section_is_rejected() {
        let bytes = warmed_quick_proteus().to_artifact_bytes().to_vec();
        // flip a byte inside the final (sentinels) section payload
        let mut corrupt = bytes.clone();
        let at = corrupt.len() - 8;
        corrupt[at] ^= 0x01;
        let err = TrainedArtifact::from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Section { .. }),
            "checksum must catch payload corruption: {err:?}"
        );
    }

    #[test]
    fn expecting_mismatched_config_is_rejected() {
        let fresh = quick_proteus();
        let dir = std::env::temp_dir().join("proteus-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("expecting.prta");
        fresh.save_artifact(&path).unwrap();
        let mut other = fresh.config().clone();
        other.k += 1;
        let err = Proteus::load_artifact_expecting(&path, &other).unwrap_err();
        assert!(
            matches!(
                err,
                ProteusError::Artifact(ArtifactError::ConfigMismatch { .. })
            ),
            "wrong variant: {err:?}"
        );
        let ok = Proteus::load_artifact_expecting(&path, fresh.config()).unwrap();
        assert_eq!(ok.config_fingerprint(), fresh.config_fingerprint());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_stored_config_is_refused_on_load() {
        // well-formed bytes whose config fails `validate`: loading is the
        // only guard that keeps such a config out of a `Proteus`
        let mut artifact = TrainedArtifact::from_proteus(quick_proteus(), "");
        artifact.config.k = 0;
        let bytes = artifact.to_bytes();
        assert_eq!(TrainedArtifact::from_bytes(&bytes).unwrap().config().k, 0);
        let err = Proteus::from_artifact_bytes(&bytes).unwrap_err();
        let ProteusError::Artifact(ArtifactError::Malformed { detail }) = &err else {
            panic!("wrong variant: {err:?}");
        };
        assert!(
            detail.contains("invalid configuration") && detail.contains("k must be at least 1"),
            "{detail}"
        );
    }

    #[test]
    fn config_fingerprint_tracks_every_field() {
        let base = ProteusConfig::default();
        let fp = config_fingerprint(&base);
        let variants = [
            ProteusConfig {
                k: 21,
                ..base.clone()
            },
            ProteusConfig {
                seed: base.seed + 1,
                ..base.clone()
            },
            ProteusConfig {
                beta: base.beta + 0.5,
                ..base.clone()
            },
            ProteusConfig {
                partitions: PartitionSpec::Count(8),
                ..base.clone()
            },
            ProteusConfig {
                mode: SentinelMode::Perturb,
                ..base.clone()
            },
            ProteusConfig {
                sentinel_variants: base.sentinel_variants + 1,
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(config_fingerprint(&v), fp, "{v:?} collided");
        }
        assert_eq!(config_fingerprint(&base.clone()), fp);
    }
}
