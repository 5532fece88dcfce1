//! Session parity: the serving runtime's whole-request path
//! (`ServeRuntime::serve_request`) must be **bit-identical** to driving
//! the streaming sessions by hand with `SealedBucket::optimize` per frame.
//! Plus the determinism contract of the per-request seed derivation (the
//! same `request_id` yields byte-identical frames across independent
//! sessions, distinct ids diverge) and the owner's request-identity check.
//!
//! CI runs this suite in release mode (the `session-service` job).

use proteus::{
    PartitionSpec, Proteus, ProteusConfig, ProteusError, SealedBucket, ServeConfig, ServeRuntime,
};
use proteus_graph::wire::{decode_frame, seal_record, word_hash64, WireError};
use proteus_graph::{
    Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Graph, Op, PoolAttrs, TensorMap,
};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, zoo, ModelKind};
use proteus_opt::{Optimizer, Profile};

fn quick_config(k: usize, n: usize) -> ProteusConfig {
    ProteusConfig {
        k,
        partitions: PartitionSpec::Count(n),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 30,
        ..Default::default()
    }
}

/// An executable CNN with parameters, so parity also covers the sentinel
/// parameter streams (structure-only models skip them).
fn executable_cnn() -> (Graph, TensorMap) {
    let mut g = Graph::new("parity-cnn");
    let x = g.input([1, 3, 12, 12]);
    let c1 = g.add(
        Op::Conv(ConvAttrs::new(3, 8, 3).padding(1).bias(false)),
        [x],
    );
    let b1 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c1]);
    let r1 = g.add(Op::Activation(Activation::Relu), [b1]);
    let c2 = g.add(
        Op::Conv(ConvAttrs::new(8, 8, 3).padding(1).bias(false)),
        [r1],
    );
    let b2 = g.add(Op::BatchNorm(BatchNormAttrs { channels: 8 }), [c2]);
    let a = g.add(Op::Add, [b2, r1]);
    let r2 = g.add(Op::Activation(Activation::Relu), [a]);
    let p = g.add(Op::MaxPool(PoolAttrs::new(2, 2, 0)), [r2]);
    let f = g.add(Op::Flatten, [p]);
    let fc = g.add(Op::Gemm(GemmAttrs::new(8 * 6 * 6, 10)), [f]);
    g.set_outputs([fc]);
    let params = TensorMap::init_random(&g, 77);
    (g, params)
}

/// Drains a session into its frames' wire bytes.
fn frame_bytes(proteus: &Proteus, g: &Graph, params: &TensorMap, request_id: u64) -> Vec<Vec<u8>> {
    proteus
        .obfuscate_session(g, params, request_id)
        .expect("session opens")
        .map(|frame| frame.to_mux_bytes(request_id).to_vec())
        .collect()
}

#[test]
fn same_request_id_yields_byte_identical_frames() {
    let (g, params) = executable_cnn();
    let proteus =
        Proteus::train(quick_config(3, 3), &[build(ModelKind::MobileNet)]).expect("train");
    let frames_a = frame_bytes(&proteus, &g, &params, 0xFEED);
    let frames_b = frame_bytes(&proteus, &g, &params, 0xFEED);
    assert_eq!(frames_a.len(), frames_b.len());
    for (i, (a, b)) in frames_a.iter().zip(&frames_b).enumerate() {
        assert_eq!(a, b, "frame {i} differs across runs of one request_id");
    }

    // distinct request ids must not replay the same stream
    let frames_c = frame_bytes(&proteus, &g, &params, 0xFEED + 1);
    assert_ne!(
        frames_a, frames_c,
        "distinct request ids produced identical frame streams"
    );
}

#[test]
fn streamed_optimization_matches_serve_request_bit_for_bit() {
    let (g, params) = executable_cnn();
    let proteus = Proteus::train(quick_config(2, 3), &[build(ModelKind::ResNet)]).expect("train");
    let optimizer = Optimizer::new(Profile::OrtLike);
    let request_id = 0x5E;

    // runtime path: the whole request through the shared pool
    let runtime = ServeRuntime::new(optimizer.clone(), ServeConfig::default()).expect("runtime");
    let (served_graph, served_params) = runtime
        .serve_request(&proteus, &g, &params, request_id)
        .expect("serve request");

    // streaming path by hand: frame-at-a-time, returned out of order
    let mut session = proteus
        .obfuscate_session(&g, &params, request_id)
        .expect("session");
    let mut optimized_frames: Vec<SealedBucket> = session
        .by_ref()
        .map(|frame| frame.optimize(&optimizer, None))
        .collect();
    let secrets = session.finish().expect("secrets");
    optimized_frames.reverse(); // any-order acceptance
    let mut reassembly = proteus.deobfuscate_session(&secrets);
    for frame in optimized_frames {
        reassembly.accept(frame).expect("accept");
    }
    let (stream_graph, stream_params) = reassembly.finish().expect("reassemble");

    assert_eq!(served_graph, stream_graph, "optimized graphs diverge");
    assert_eq!(served_params, stream_params, "optimized params diverge");
}

#[test]
fn session_protocol_violations_are_typed_errors() {
    let (g, params) = executable_cnn();
    let proteus = Proteus::train(quick_config(2, 3), &[build(ModelKind::ResNet)]).expect("train");

    // secrets before all frames are emitted
    let mut session = proteus
        .obfuscate_session(&g, &params, 1)
        .expect("session opens");
    let first = session.next_frame().expect("one frame");
    let err = session.finish().unwrap_err();
    assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");

    // duplicate and mismatched frames on the receiving side
    let mut session = proteus.obfuscate_session(&g, &params, 1).expect("session");
    let frames: Vec<SealedBucket> = session.by_ref().collect();
    let secrets = session.finish().expect("secrets");
    let mut reassembly = proteus.deobfuscate_session(&secrets);
    reassembly.accept(frames[0].clone()).expect("first accept");
    let err = reassembly.accept(frames[0].clone()).unwrap_err();
    assert!(
        matches!(
            err,
            ProteusError::DuplicateFrame {
                bucket_index: 0,
                request_id: 1
            }
        ),
        "duplicates get the dedicated variant: {err:?}"
    );
    let mut alien = first;
    alien.num_buckets += 7;
    let err = reassembly.accept(alien).unwrap_err();
    assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");

    // reassembly while frames are missing
    let reassembly = proteus.deobfuscate_session(&secrets);
    let err = reassembly.finish().unwrap_err();
    assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
}

#[test]
fn duplicate_frame_is_rejected_and_never_overwrites() {
    // Regression: a replayed bucket frame must surface as the dedicated
    // DuplicateFrame variant, and the first accepted frame must survive —
    // even when the replay carries *different* (e.g. tampered) content.
    let (g, params) = executable_cnn();
    let proteus = Proteus::train(quick_config(2, 3), &[build(ModelKind::ResNet)]).expect("train");
    let mut session = proteus
        .obfuscate_session(&g, &params, 0xD0)
        .expect("session");
    let frames: Vec<SealedBucket> = session.by_ref().collect();
    let secrets = session.finish().expect("secrets");

    // clean run: the expected reassembly
    let mut clean = proteus.deobfuscate_session(&secrets);
    for f in &frames {
        clean.accept(f.clone()).expect("accept");
    }
    let (expected_graph, expected_params) = clean.finish().expect("finish");

    // replayed run: bucket 0 arrives again with its members reversed (a
    // tampered duplicate) — rejected, and reassembly is unaffected
    let mut reassembly = proteus.deobfuscate_session(&secrets);
    reassembly.accept(frames[0].clone()).expect("first accept");
    let mut tampered = frames[0].clone();
    tampered.bucket.members.reverse();
    let err = reassembly.accept(tampered).unwrap_err();
    assert!(
        matches!(
            err,
            ProteusError::DuplicateFrame {
                bucket_index: 0,
                request_id: 0xD0
            }
        ),
        "{err:?}"
    );
    assert_eq!(reassembly.received(), 1, "duplicate must not count");
    for f in frames.iter().skip(1) {
        reassembly.accept(f.clone()).expect("accept rest");
    }
    let (got_graph, got_params) = reassembly.finish().expect("finish");
    assert_eq!(got_graph, expected_graph, "duplicate overwrote bucket 0");
    assert_eq!(got_params, expected_params);
}

#[test]
fn mux_acceptance_checks_request_identity() {
    // accept_mux_bytes binds a reassembly session to its request id: the
    // matching id is accepted; a frame from another request's stream, or
    // a v1 record that names no request at all, is rejected intact.
    let (g, params) = executable_cnn();
    let proteus = Proteus::train(quick_config(2, 2), &[build(ModelKind::ResNet)]).expect("train");
    let mut session = proteus
        .obfuscate_session(&g, &params, 0xA11CE)
        .expect("session");
    let frames: Vec<SealedBucket> = session.by_ref().collect();
    let secrets = session.finish().expect("secrets");
    assert_eq!(secrets.request_id, 0xA11CE, "secrets record their request");

    let mut reassembly = proteus.deobfuscate_session(&secrets);
    let err = reassembly
        .accept_mux_bytes(frames[0].to_mux_bytes(0xBAD))
        .unwrap_err();
    assert!(matches!(err, ProteusError::Protocol { .. }), "{err:?}");
    assert_eq!(reassembly.received(), 0, "injected frame must not land");
    // the same payload behind a record header (no request id): refused
    let payload = decode_frame(&mut frames[0].to_mux_bytes(0xA11CE))
        .expect("frame")
        .payload;
    let err = reassembly
        .accept_mux_bytes(seal_record(0, &[&payload]))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ProteusError::Wire(WireError::UnknownVersion { got: 1, .. })
        ),
        "{err:?}"
    );
    assert_eq!(reassembly.received(), 0, "a record must not land");
    for f in &frames {
        reassembly
            .accept_mux_bytes(f.to_mux_bytes(0xA11CE))
            .expect("matching id accepted");
    }
    reassembly.finish().expect("reassembles");
}

#[test]
fn config_validation_front_loads_degenerate_requests() {
    // a degenerate config never becomes a Proteus, so no request, served
    // or streamed by hand, can reach the pipeline with one
    let mut cfg = quick_config(2, 3);
    cfg.k = 0;
    let err = Proteus::train(cfg, &[build(ModelKind::ResNet)]).unwrap_err();
    assert!(matches!(err, ProteusError::Config { .. }), "{err:?}");
}

/// `proteus-train train --quick`'s configuration and corpus.
fn train_quick() -> Proteus {
    let config = ProteusConfig {
        k: 2,
        partitions: PartitionSpec::TargetSize(8),
        graphrnn: GraphRnnConfig {
            epochs: 1,
            max_nodes: 16,
            ..Default::default()
        },
        topology_pool: 12,
        seed: 0xB0B,
        ..Default::default()
    };
    Proteus::train(config, &[build(ModelKind::ResNet)]).expect("train")
}

#[test]
fn owner_bytes_match_the_pinned_zoo_digest() {
    // Pins every byte the owner sends, and where it hid each real piece,
    // for the whole zoo at fixed request ids. A change that keeps the
    // protocol must keep this digest; one that changes the draws or the
    // encoding must say why before re-pinning it.
    let proteus = train_quick();
    let mut digest = 0u64;
    for (i, entry) in zoo::all().iter().enumerate() {
        let request_id = 0x0B5E_0000 + i as u64;
        let mut session = proteus
            .obfuscate_session(&(entry.build)(), &TensorMap::new(), request_id)
            .expect("session opens");
        for frame in session.by_ref() {
            digest = word_hash64(digest, &frame.to_mux_bytes(request_id));
        }
        let secrets = session.finish().expect("secrets");
        for &pos in &secrets.real_positions {
            digest = word_hash64(digest, &(pos as u64).to_le_bytes());
        }
    }
    assert_eq!(format!("{digest:#018x}"), "0x7bb25381bde2ab41");
}
