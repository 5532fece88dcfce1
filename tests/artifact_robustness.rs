//! Trained-state artifact robustness and determinism.
//!
//! Two contracts are enforced here. **Robustness**: every malformed
//! artifact — truncation at any length, any single-bit corruption,
//! version skew, bad magic, internally inconsistent fingerprints — is
//! rejected with a typed [`ArtifactError`], never a panic or a silent
//! misparse (mirroring `tests/wire_robustness.rs` for the bucket
//! protocol). **Determinism**: a `Proteus` loaded from an artifact is
//! indistinguishable on the wire from the freshly trained instance that
//! saved it, across the full model zoo, through both the session path and
//! the multi-tenant serving runtime.
//!
//! CI runs this suite in release mode in the `perf-smoke` job alongside
//! `proteus-train verify`.

use proteus::{
    ArtifactError, ObfuscationSecrets, PartitionSpec, Proteus, ProteusConfig, ProteusError,
    ServeConfig, ServeRuntime, TrainedArtifact, ARTIFACT_VERSION,
};
use proteus_graph::wire::{decode_graph, encode_frame_v3, open_record, seal_record, WireError};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, zoo, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::sync::OnceLock;

fn quick_config() -> ProteusConfig {
    ProteusConfig {
        k: 2,
        partitions: PartitionSpec::Count(3),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 24,
        ..Default::default()
    }
}

/// One shared trained instance (training dominates suite time) plus its
/// artifact bytes.
fn trained() -> &'static (Proteus, Vec<u8>) {
    static TRAINED: OnceLock<(Proteus, Vec<u8>)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let proteus = Proteus::train(
            quick_config(),
            &[build(ModelKind::ResNet), build(ModelKind::MobileNet)],
        )
        .expect("train");
        let bytes = proteus.to_artifact_bytes().to_vec();
        (proteus, bytes)
    })
}

// ---------------------------------------------------------------------------
// determinism: save → load → obfuscate parity

/// One structure-only request's wire frames and its secrets.
fn obfuscate(proteus: &Proteus, g: &proteus_graph::Graph) -> (Vec<Vec<u8>>, ObfuscationSecrets) {
    let mut session = proteus
        .obfuscate_session(g, &TensorMap::new(), 0)
        .expect("obfuscate");
    let frames = session
        .by_ref()
        .map(|f| f.to_mux_bytes(0).to_vec())
        .collect();
    (frames, session.finish().expect("secrets"))
}

#[test]
fn loaded_artifact_obfuscates_bit_identically_across_the_zoo() {
    // registry-count pin: determinism must hold for the whole registry
    assert_eq!(zoo::all().len(), zoo::COUNT);
    let (fresh, bytes) = trained();
    let loaded = Proteus::from_artifact_bytes(bytes).expect("artifact loads");
    assert_eq!(fresh.config_fingerprint(), loaded.config_fingerprint());
    for entry in zoo::all() {
        let kind = entry.name;
        let g = (entry.build)();
        let (a, sa) = obfuscate(fresh, &g);
        let (b, sb) = obfuscate(&loaded, &g);
        assert_eq!(
            a, b,
            "{kind}: wire bytes diverge between trained and loaded instances"
        );
        assert_eq!(
            sa.real_positions, sb.real_positions,
            "{kind}: secrets diverge"
        );
    }
}

#[test]
fn parity_holds_for_distinct_request_ids_and_params() {
    let (fresh, bytes) = trained();
    let loaded = Proteus::from_artifact_bytes(bytes).expect("artifact loads");
    let g = build(ModelKind::ResNet);
    let params = TensorMap::init_random(&g, 99);
    for request_id in [0u64, 7, 0xDEAD_BEEF] {
        let frames_fresh: Vec<Vec<u8>> = fresh
            .obfuscate_session(&g, &params, request_id)
            .expect("session")
            .map(|f| f.to_mux_bytes(request_id).to_vec())
            .collect();
        let frames_loaded: Vec<Vec<u8>> = loaded
            .obfuscate_session(&g, &params, request_id)
            .expect("session")
            .map(|f| f.to_mux_bytes(request_id).to_vec())
            .collect();
        assert_eq!(
            frames_fresh, frames_loaded,
            "request {request_id:#x}: session frames diverge"
        );
    }
}

#[test]
fn save_load_serve_roundtrip_matches_fresh_pipeline() {
    // the full deployment path: load from bytes, serve a request through
    // the multi-tenant runtime, reassemble — bit-identical to the freshly
    // trained instance's frames optimized one by one.
    let (fresh, bytes) = trained();
    let loaded = Proteus::from_artifact_bytes(bytes).expect("artifact loads");
    let optimizer = Optimizer::new(Profile::OrtLike);

    for kind in [ModelKind::AlexNet, ModelKind::Bert] {
        let g = build(kind);
        // fresh instance, per-frame reference path
        let mut session = fresh
            .obfuscate_session(&g, &TensorMap::new(), 42)
            .expect("session");
        let reference: Vec<_> = session
            .by_ref()
            .map(|frame| frame.optimize(&optimizer, Some(1)))
            .collect();
        let secrets = session.finish().expect("secrets");
        let mut reassembly = fresh.deobfuscate_session(&secrets);
        for frame in reference {
            reassembly.accept(frame).expect("accept");
        }
        let (ref_back, _) = reassembly.finish().expect("deobfuscate");

        // loaded instance, serving runtime path
        let runtime =
            ServeRuntime::new(optimizer.clone(), ServeConfig::default()).expect("runtime");
        let (served_back, _) = runtime
            .serve_request(&loaded, &g, &TensorMap::new(), 42)
            .expect("serve request");
        assert_eq!(
            ref_back, served_back,
            "{kind}: warm-started serve path diverged from the fresh serial path"
        );
    }
}

// ---------------------------------------------------------------------------
// robustness: malformed artifacts are typed errors, never panics

#[test]
fn version_skew_is_rejected_for_every_other_version() {
    let (_, bytes) = trained();
    for version in [0u16, 1, 2, ARTIFACT_VERSION + 1, 255, u16::MAX] {
        let mut raw = bytes.clone();
        raw[4..6].copy_from_slice(&version.to_le_bytes());
        match TrainedArtifact::from_bytes(&raw) {
            Err(ArtifactError::UnknownVersion { got, supported }) => {
                assert_eq!(got, version);
                assert_eq!(supported, ARTIFACT_VERSION);
            }
            other => panic!("version {version}: expected UnknownVersion, got {other:?}"),
        }
    }
}

#[test]
fn truncation_at_every_length_is_rejected() {
    let (_, bytes) = trained();
    // every prefix: dense over the header and first section, sampled
    // beyond (the artifact is tens of kilobytes)
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(997));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        assert!(
            TrainedArtifact::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} was accepted"
        );
    }
}

#[test]
fn tampered_config_section_is_a_fingerprint_mismatch() {
    // Rebuild the artifact with a modified config payload behind a *valid*
    // section checksum: the per-section framing passes, and the meta
    // fingerprint cross-check must catch the inconsistency.
    let (_, bytes) = trained();
    let mut buf = bytes::Bytes::copy_from_slice(&bytes[10..]);
    let mut rebuilt: Vec<u8> = bytes[..10].to_vec();
    for _ in 0..6 {
        let (tag, payload) = open_record(&mut buf).expect("section decodes");
        let mut payload = payload.to_vec();
        if tag == 1 {
            // SECTION_CONFIG: flip the stored k
            payload[9] ^= 0x01;
        }
        rebuilt.extend_from_slice(&seal_record(tag, &[&payload]));
    }
    match TrainedArtifact::from_bytes(&rebuilt) {
        Err(ArtifactError::FingerprintMismatch { .. }) => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// robustness: lying length prefixes must never drive allocations

/// Regression for the untrusted-length hardening: a section whose leading
/// element count claims the plausibility maximum while its payload holds
/// almost nothing must be rejected with a typed error. Before the
/// `bounded_capacity` clamps, the count went straight into
/// `Vec::with_capacity`, so a handful of corrupt bytes demanded a
/// megabyte-scale allocation before the decode loop could notice the lie.
#[test]
fn section_claiming_maximal_pool_count_fails_typed() {
    let (_, bytes) = trained();
    let mut buf = bytes::Bytes::copy_from_slice(&bytes[10..]);
    let mut rebuilt: Vec<u8> = bytes[..10].to_vec();
    for _ in 0..6 {
        let (tag, mut payload) = open_record(&mut buf).expect("section decodes");
        if tag == 3 {
            // SECTION_POOL: the largest count the plausibility bound
            // admits (2^20 topologies), backed by 8 bytes of payload,
            // behind a *valid* section checksum
            let mut lying = (1u32 << 20).to_le_bytes().to_vec();
            lying.extend_from_slice(&[0u8; 8]);
            payload = lying.into();
        }
        rebuilt.extend_from_slice(&seal_record(tag, &[&payload]));
    }
    match TrainedArtifact::from_bytes(&rebuilt) {
        Err(ArtifactError::Truncated { .. } | ArtifactError::Malformed { .. }) => {}
        other => panic!("lying pool count: expected a typed decode error, got {other:?}"),
    }
}

/// Same property at the bucket protocol layer: a sealed-bucket payload
/// declaring a million members over a near-empty buffer is a typed
/// truncation, reached without a member-count-sized pre-allocation.
#[test]
fn sealed_bucket_claiming_a_million_members_fails_typed() {
    use proteus::SealedBucket;
    // payload: num_buckets=1 | member count=1_000_000 (largest plausible)
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.extend_from_slice(&1_000_000u32.to_le_bytes());
    payload.extend_from_slice(&[0u8; 4]);
    let framed = encode_frame_v3(0, 0, &payload);
    match SealedBucket::from_mux_bytes(framed) {
        Err(WireError::Truncated { .. }) => {}
        other => panic!("lying member count: expected Truncated, got {other:?}"),
    }
}

/// And at the graph codec: ten million declared nodes (the plausibility
/// ceiling) over an empty tail is typed truncation, with the
/// pre-allocation capped by the bytes actually present.
#[test]
fn graph_bytes_claiming_ten_million_nodes_fail_typed() {
    // encode_graph layout: name (len-prefixed) | node count u32 | nodes...
    let mut raw = 0u32.to_le_bytes().to_vec(); // empty name
    raw.extend_from_slice(&10_000_000u32.to_le_bytes());
    let mut buf = bytes::Bytes::copy_from_slice(&raw);
    match decode_graph(&mut buf) {
        Err(WireError::Truncated { .. }) => {}
        other => panic!("lying node count: expected Truncated, got {other:?}"),
    }
}

#[test]
fn artifact_errors_surface_through_proteus_error() {
    let err = Proteus::from_artifact_bytes(b"NOPE").unwrap_err();
    assert!(
        matches!(err, ProteusError::Artifact(ArtifactError::BadMagic { .. })),
        "wrong variant: {err:?}"
    );
    let err = Proteus::load_artifact("/nonexistent/proteus.prta").unwrap_err();
    assert!(
        matches!(err, ProteusError::Artifact(ArtifactError::Io { .. })),
        "wrong variant: {err:?}"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn single_bit_corruption_anywhere_is_rejected(
            pos_pick in proptest::num::u64::ANY,
            bit in 0u8..8,
        ) {
            let (_, bytes) = trained();
            let pos = (pos_pick as usize) % bytes.len();
            let mut raw = bytes.clone();
            raw[pos] ^= 1u8 << bit;
            prop_assert!(
                TrainedArtifact::from_bytes(&raw).is_err(),
                "corruption at byte {} bit {} was accepted", pos, bit
            );
        }

        #[test]
        fn random_truncation_is_rejected(cut_pick in proptest::num::u64::ANY) {
            let (_, bytes) = trained();
            let cut = (cut_pick as usize) % bytes.len();
            prop_assert!(
                TrainedArtifact::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {} was accepted", cut
            );
        }

        #[test]
        fn garbage_never_panics(data in proptest::collection::vec(proptest::num::u8::ANY, 0..256)) {
            // arbitrary bytes: any result is fine as long as it is a typed
            // error or a (vanishingly unlikely) valid artifact, not a panic
            let _ = TrainedArtifact::from_bytes(&data);
        }
    }
}
