//! Crash-safety battery for the durable store (`proteus::store`).
//!
//! Three contracts are enforced here, mirroring the acceptance bar of the
//! store design:
//!
//! - **Crash recovery**: a SIGKILL-equivalent interruption at *any* WAL
//!   byte boundary — simulated by truncating the on-disk log at every
//!   position past the committed horizon — recovers to exactly the last
//!   committed record. Nothing acknowledged is ever lost, and nothing
//!   unacknowledged ever resurfaces.
//! - **Tamper detection**: any single flipped byte, any duplicated or
//!   reordered record, and any marker/WAL mismatch inside the committed
//!   horizon is a typed [`StoreError`] — never a panic, never a silent
//!   partial recovery.
//! - **Resume parity**: a [`DeobfuscationSession`] interrupted at an
//!   arbitrary point, journaled into the store, and resumed after a
//!   "kill" (drop + reopen from disk) finishes with output bit-identical
//!   to the uninterrupted run, across the full model zoo.
//!
//! CI runs this suite in release mode in the `store-recovery` job,
//! alongside a real `proteus-serve` kill-and-restart round trip.

use proteus::store::{Store, StoreError};
use proteus::{
    DeobfuscationSession, PartitionSpec, Proteus, ProteusConfig, ProteusError, SealedBucket,
};
use proteus_graph::wire::{encode_graph, encode_params, envelope_len, RECORD};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn quick_proteus() -> &'static Proteus {
    static QUICK: OnceLock<Proteus> = OnceLock::new();
    QUICK.get_or_init(|| {
        let cfg = ProteusConfig {
            k: 2,
            partitions: PartitionSpec::Count(3),
            graphrnn: GraphRnnConfig {
                epochs: 2,
                max_nodes: 20,
                ..Default::default()
            },
            topology_pool: 30,
            ..Default::default()
        };
        Proteus::train(cfg, &[build(ModelKind::ResNet)]).expect("train")
    })
}

/// A unique scratch directory per call; callers clean up on success (a
/// failed test leaves its directory behind for inspection).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "proteus-store-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Writes a store directory from raw WAL + marker bytes, bypassing the
/// Store API — how every crash/tamper scenario is staged.
fn stage(dir: &Path, wal: &[u8], marker: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch dir");
    std::fs::write(Store::wal_path(dir), wal).expect("stage wal");
    std::fs::write(Store::marker_path(dir), marker).expect("stage marker");
}

/// Builds a store with `frames_per_lane` journaled frames on each given
/// lane and returns the raw on-disk bytes `(wal, marker)`.
fn journaled_store(tag: &str, lanes: &[u64], frames_per_lane: usize) -> (Vec<u8>, Vec<u8>) {
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open_or_create(&dir).expect("store creates");
    for &rid in lanes {
        for i in 0..frames_per_lane {
            let frame = vec![(rid as u8) ^ (i as u8); 48];
            store.record_lane_frame(rid, &frame).expect("journal");
        }
    }
    drop(store);
    let wal = std::fs::read(Store::wal_path(&dir)).expect("read wal");
    let marker = std::fs::read(Store::marker_path(&dir)).expect("read marker");
    let _ = std::fs::remove_dir_all(&dir);
    (wal, marker)
}

/// Byte offsets where each committed WAL record starts (`PRTB` records,
/// measured by the envelope table).
fn record_offsets(wal: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0usize;
    while at < wal.len() {
        offsets.push(at);
        at += envelope_len(&[&RECORD], &wal[at..], usize::MAX)
            .expect("record header")
            .expect("whole record header");
    }
    assert_eq!(at, wal.len(), "wal parses into whole records");
    offsets
}

// ---------------------------------------------------------------------------
// crash recovery: torn tails at every byte boundary

#[test]
fn kill_at_every_byte_past_the_horizon_recovers_the_committed_state() {
    // commit point: 2 lanes journaled; crash window: 2 more frames
    // appended whose marker rename "never happened"
    let dir = scratch("torn-build");
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open_or_create(&dir).expect("store creates");
    store.record_lane_frame(7, &[0xAA; 40]).expect("journal");
    store.record_lane_frame(9, &[0xBB; 40]).expect("journal");
    let committed = store.committed_len() as usize;
    let mid_marker = std::fs::read(Store::marker_path(&dir)).expect("marker snapshot");
    store.record_lane_frame(7, &[0xCC; 40]).expect("journal");
    store.finish_lane(9).expect("finish");
    drop(store);
    let wal = std::fs::read(Store::wal_path(&dir)).expect("wal snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(wal.len() > committed);

    let dir = scratch("torn");
    for cut in committed..=wal.len() {
        stage(&dir, &wal[..cut], &mid_marker);
        let (reopened, report) =
            Store::open_or_create(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(
            report.truncated_bytes as usize,
            cut - committed,
            "cut {cut}"
        );
        assert_eq!(report.pending_lanes, 2, "cut {cut}");
        // the unacknowledged appends are gone: lane 7 has exactly its
        // one committed frame, lane 9 is still pending
        let lanes = reopened.pending_lanes();
        assert_eq!(lanes[0].0, 7);
        assert_eq!(lanes[0].1.len(), 1, "cut {cut}: torn tail resurfaced");
        assert_eq!(lanes[1].0, 9);
        drop(reopened);
        // the tail was physically truncated: a second open sees a clean log
        let on_disk = std::fs::read(Store::wal_path(&dir)).expect("wal after recovery");
        assert_eq!(on_disk.len(), committed, "cut {cut}: tail not truncated");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_at_every_byte_of_a_multi_record_commit_recovers_all_or_none() {
    // one committed lane frame, then a three-record batch under one
    // commit. A kill anywhere before the batch's marker rename leaves
    // the old marker and some prefix of the batch bytes: none of the
    // batch survives. After the rename, all of it does.
    let dir = scratch("batch-build");
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open_or_create(&dir).expect("store creates");
    store.record_lane_frame(7, &[0xAA; 40]).expect("journal");
    let committed = store.committed_len() as usize;
    let old_marker = std::fs::read(Store::marker_path(&dir)).expect("marker snapshot");
    let batch: [(u64, &[u8]); 3] = [(7, &[0xBB; 40]), (9, &[0xCC; 40]), (11, &[0xDD; 40])];
    store.record_lane_frames(&batch).expect("batch journal");
    drop(store);
    let wal = std::fs::read(Store::wal_path(&dir)).expect("wal snapshot");
    let new_marker = std::fs::read(Store::marker_path(&dir)).expect("marker snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(record_offsets(&wal[committed..]).len(), 3, "three records");

    let dir = scratch("batch");
    for cut in committed..=wal.len() {
        stage(&dir, &wal[..cut], &old_marker);
        let (reopened, report) =
            Store::open_or_create(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(
            report.truncated_bytes as usize,
            cut - committed,
            "cut {cut}"
        );
        let lanes = reopened.pending_lanes();
        assert_eq!(lanes.len(), 1, "cut {cut}: part of the batch resurfaced");
        assert_eq!(
            lanes[0].1.len(),
            1,
            "cut {cut}: part of the batch resurfaced"
        );
    }
    stage(&dir, &wal, &new_marker);
    let (reopened, report) = Store::open_or_create(&dir).expect("committed batch opens");
    assert_eq!(report.truncated_bytes, 0);
    let lanes = reopened.pending_lanes();
    let shape: Vec<(u64, usize)> = lanes.iter().map(|(rid, f)| (*rid, f.len())).collect();
    assert_eq!(shape, [(7, 2), (9, 1), (11, 1)], "the whole batch survives");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batched_commit_writes_the_bytes_of_one_commit_per_record() {
    // the WAL and marker formats do not know about batches: journaling
    // frames in one commit leaves the same bytes as one commit each
    let frames: [(u64, &[u8]); 4] = [
        (3, &[0x31; 24]),
        (5, &[0x51; 40]),
        (3, &[0x32; 8]),
        (8, &[0x81; 56]),
    ];
    let snapshot = |tag: &str, batched: bool| {
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = Store::open_or_create(&dir).expect("store creates");
        if batched {
            store.record_lane_frames(&frames).expect("batch journal");
        } else {
            for (rid, frame) in frames {
                store.record_lane_frame(rid, frame).expect("journal");
            }
        }
        store.finish_lane(5).expect("finish");
        drop(store);
        let wal = std::fs::read(Store::wal_path(&dir)).expect("wal");
        let marker = std::fs::read(Store::marker_path(&dir)).expect("marker");
        let _ = std::fs::remove_dir_all(&dir);
        (wal, marker)
    };
    assert_eq!(
        snapshot("format-batched", true),
        snapshot("format-single", false)
    );
}

/// A store written under another format version (1 also carried
/// artifact records) is refused at open and by the fsck, typed and naming
/// both versions; nothing is migrated or rewritten.
#[test]
fn an_older_store_format_is_refused_typed() {
    use proteus::store::wal::CHAIN_SEED;
    use proteus::store::wal::{chain_digest, encode_marker, encode_record, Marker, RecordTag};
    let genesis = encode_record(RecordTag::Genesis, 0, CHAIN_SEED, &1u32.to_le_bytes());
    let marker = Marker {
        committed_len: genesis.len() as u64,
        chain: chain_digest(CHAIN_SEED, &genesis),
        records: 1,
    };
    let dir = scratch("old-format");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(Store::wal_path(&dir), &genesis).expect("stage wal");
    let marker = encode_marker(&marker);
    std::fs::write(Store::marker_path(&dir), marker).expect("stage marker");
    let want = StoreError::Version {
        found: 1,
        supported: 2,
    };
    assert_eq!(Store::open_or_create(&dir).err(), Some(want.clone()));
    assert_eq!(Store::verify(&dir).err(), Some(want.clone()));
    let text = want.to_string();
    assert!(
        text.contains("version 1") && text.contains("version 2"),
        "{text}"
    );
    let wal = std::fs::read(Store::wal_path(&dir)).expect("wal");
    assert_eq!(wal, genesis.to_vec(), "the WAL was rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_during_store_creation_recovers_to_a_fresh_store() {
    // a crash inside `Store::create` — after the WAL file appeared but
    // before the first marker rename — leaves a prefix of the canonical
    // genesis record and no marker. Nothing was ever acknowledged, so
    // every such state must open as a fresh store, not brick the
    // directory with a Marker error.
    use proteus::store::wal::{encode_record, RecordTag, CHAIN_SEED, STORE_FORMAT_VERSION};
    let genesis = encode_record(
        RecordTag::Genesis,
        0,
        CHAIN_SEED,
        &STORE_FORMAT_VERSION.to_le_bytes(),
    );
    let dir = scratch("create-crash");
    for cut in 0..=genesis.len() {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(Store::wal_path(&dir), &genesis[..cut]).expect("stage partial genesis");
        let (store, report) = Store::open_or_create(&dir)
            .unwrap_or_else(|e| panic!("creation kill at byte {cut} not recovered: {e}"));
        assert!(report.created, "cut {cut}");
        // the recreated store is fully usable
        store
            .record_lane_frame(1, &[0xEE; 32])
            .expect("post-recovery append");
        drop(store);
    }
    // a WAL without a marker that holds *committed-looking* data is a
    // different animal: acknowledged state lost its horizon — refuse
    let (wal, _) = journaled_store("create-crash-build", &[1], 1);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(Store::wal_path(&dir), &wal).expect("stage wal");
    assert!(
        matches!(Store::open_or_create(&dir), Err(StoreError::Marker { .. })),
        "marker-less committed data must refuse to open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_store_keeps_accepting_appends() {
    // recovery is not read-only: the truncated log must chain correctly
    // for every append after the crash
    let (wal, marker) = journaled_store("append-build", &[1, 2], 2);
    let dir = scratch("append");
    stage(&dir, &wal, &marker);
    let (store, report) = Store::open_or_create(&dir).expect("recovers");
    assert_eq!(report.pending_lanes, 2);
    store
        .record_lane_frame(3, &[0xDD; 48])
        .expect("post-crash append");
    store.finish_lane(1).expect("post-crash finish");
    drop(store);
    let (store, report) = Store::open_or_create(&dir).expect("reopens");
    assert_eq!(report.pending_lanes, 2, "lane 1 done, lane 3 new");
    assert_eq!(store.pending_lanes()[0].0, 2);
    assert_eq!(store.pending_lanes()[1].0, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// tamper detection: typed errors, never silent resync

#[test]
fn flipping_any_byte_of_the_committed_wal_is_detected() {
    let (wal, marker) = journaled_store("flip-build", &[5], 3);
    let dir = scratch("flip");
    for pos in 0..wal.len() {
        let mut bad = wal.clone();
        bad[pos] ^= 0x01;
        stage(&dir, &bad, &marker);
        match Store::open_or_create(&dir) {
            Err(StoreError::Corrupt { .. } | StoreError::Marker { .. }) => {}
            other => panic!("flip at byte {pos}: expected Corrupt, got {other:?}"),
        }
        // the fsck path must agree with the recovery path
        assert!(
            Store::verify(&dir).is_err(),
            "verify accepted flip at {pos}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipping_any_byte_of_the_marker_is_detected() {
    let (wal, marker) = journaled_store("marker-build", &[5], 2);
    let dir = scratch("marker");
    for pos in 0..marker.len() {
        let mut bad = marker.clone();
        bad[pos] ^= 0x01;
        stage(&dir, &wal, &bad);
        match Store::open_or_create(&dir) {
            // most flips break the marker checksum; flips *of* the
            // checksum field or the committed-length field can also
            // surface as a chain/length mismatch against the WAL
            Err(StoreError::Marker { .. } | StoreError::Corrupt { .. }) => {}
            other => panic!("marker flip at byte {pos}: expected an error, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swapped_and_duplicated_records_break_the_chain() {
    // 3 equal-sized lane records after genesis: swapping or duplicating
    // whole, individually-valid records must still be detected, because
    // each record names its predecessor's digest and its own sequence
    let (wal, marker) = journaled_store("splice-build", &[5], 3);
    let offsets = record_offsets(&wal);
    assert_eq!(offsets.len(), 4, "genesis + 3 lane records");
    let (r1, r2, r3) = (offsets[1], offsets[2], offsets[3]);
    assert_eq!(r2 - r1, r3 - r2, "equal-sized records");
    let size = r2 - r1;
    let dir = scratch("splice");

    // swap records 1 and 2
    let mut swapped = wal.clone();
    swapped.copy_within(r2..r3, r1);
    swapped[r1 + size..r1 + 2 * size].copy_from_slice(&wal[r1..r2]);
    stage(&dir, &swapped, &marker);
    assert!(
        matches!(Store::open_or_create(&dir), Err(StoreError::Corrupt { .. })),
        "swapped records were accepted"
    );

    // duplicate record 1 over record 2
    let mut duped = wal.clone();
    duped.copy_within(r1..r2, r2);
    stage(&dir, &duped, &marker);
    assert!(
        matches!(Store::open_or_create(&dir), Err(StoreError::Corrupt { .. })),
        "duplicated record was accepted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_shorter_than_the_marker_is_corrupt_not_a_torn_tail() {
    // truncation *inside* the committed horizon means acknowledged data
    // is gone — that is corruption, categorically different from an
    // unacknowledged tail
    let (wal, marker) = journaled_store("short-build", &[5], 2);
    let dir = scratch("short");
    for cut in [0, 1, wal.len() / 2, wal.len() - 1] {
        stage(&dir, &wal[..cut], &marker);
        assert!(
            matches!(Store::open_or_create(&dir), Err(StoreError::Corrupt { .. })),
            "committed-region truncation at {cut} was not Corrupt"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// checkpoint → kill → resume: bit parity across the zoo

#[test]
fn interrupted_sessions_resume_bit_identically_across_the_zoo() {
    let proteus = quick_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let dir = scratch("zoo");
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open_or_create(&dir).expect("store creates");

    let mut expected_open = Vec::new();
    let (mut cut_at_open, mut cut_at_end) = (false, false);
    for (i, kind) in ModelKind::ALL.iter().enumerate() {
        let rid = 0x5000 + i as u64;
        let g = build(*kind);
        let mut session = proteus
            .obfuscate_session(&g, &TensorMap::new(), rid)
            .expect("session");
        let mut optimized: Vec<SealedBucket> = Vec::new();
        while let Some(frame) = session.next_frame() {
            optimized.push(frame.optimize(&optimizer, None));
        }
        let secrets = session.finish().expect("secrets");

        // the uninterrupted reference
        let mut reference = proteus.deobfuscate_session(&secrets);
        for frame in &optimized {
            reference.accept(frame.clone()).expect("accept");
        }
        let (ref_graph, ref_params) = reference.finish().expect("reference finish");

        // interrupted run: journal the secrets and the first
        // `i % (n + 1)` frames (a different interruption point per
        // model, from right after `checkpoint_session` to every frame
        // journaled), then "kill"
        let cut = i % (optimized.len() + 1);
        cut_at_open |= cut == 0;
        cut_at_end |= cut == optimized.len();
        store.checkpoint_session(&secrets).expect("checkpoint");
        let mut partial = proteus.deobfuscate_session(&secrets);
        for frame in &optimized[..cut] {
            let bytes = frame.to_mux_bytes(rid);
            partial.accept_mux_bytes(bytes.clone()).expect("accept");
            store.checkpoint_frame(rid, &bytes).expect("journal frame");
        }
        drop(partial);
        expected_open.push((rid, kind, optimized, cut, ref_graph, ref_params));
    }
    drop(store); // the kill
    assert!(
        cut_at_open && cut_at_end,
        "the zoo misses an interruption point"
    );

    let (store, report) = Store::open_or_create(&dir).expect("recovers");
    assert_eq!(report.open_sessions, ModelKind::ALL.len());
    assert_eq!(store.open_sessions().len(), ModelKind::ALL.len());

    for (rid, kind, optimized, cut, ref_graph, ref_params) in expected_open {
        let (secrets, frames) = store.resume_session(rid).expect("resume_session");
        assert_eq!(frames.len(), cut, "{kind}: journaled frame count");
        let mut resumed = DeobfuscationSession::resume(&secrets, &frames).expect("resume");
        assert_eq!(resumed.received(), cut, "{kind}: resumed progress");
        for frame in &optimized[cut..] {
            resumed.accept(frame.clone()).expect("accept rest");
        }
        let (graph, params) = resumed.finish().expect("resumed finish");
        assert_eq!(
            encode_graph(&graph).to_vec(),
            encode_graph(&ref_graph).to_vec(),
            "{kind}: resumed graph diverges from the uninterrupted run"
        );
        assert_eq!(
            encode_params(&graph, &params).to_vec(),
            encode_params(&ref_graph, &ref_params).to_vec(),
            "{kind}: resumed params diverge from the uninterrupted run"
        );
        store.finish_session(rid).expect("finish_session");
    }
    assert!(store.open_sessions().is_empty(), "every session finished");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_journal_with_a_duplicate_frame_fails_typed() {
    let proteus = quick_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let g = build(ModelKind::AlexNet);
    let rid = 0x6001;
    let mut session = proteus
        .obfuscate_session(&g, &TensorMap::new(), rid)
        .expect("session");
    let first = session
        .next_frame()
        .expect("frame")
        .optimize(&optimizer, None)
        .to_mux_bytes(rid);
    for _ in session.by_ref() {}
    let secrets = session.finish().expect("secrets");
    let frames = vec![first.clone(), first];
    match DeobfuscationSession::resume(&secrets, &frames) {
        Err(ProteusError::DuplicateFrame { request_id, .. }) => assert_eq!(request_id, rid),
        other => panic!("expected DuplicateFrame, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// randomized battery

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn template() -> &'static (Vec<u8>, Vec<u8>, usize) {
        static T: OnceLock<(Vec<u8>, Vec<u8>, usize)> = OnceLock::new();
        T.get_or_init(|| {
            let dir = scratch("prop-build");
            let _ = std::fs::remove_dir_all(&dir);
            let (store, _) = Store::open_or_create(&dir).expect("store creates");
            store.record_lane_frame(11, &[0x11; 64]).expect("journal");
            store.record_lane_frame(13, &[0x13; 64]).expect("journal");
            let committed = store.committed_len() as usize;
            let marker = std::fs::read(Store::marker_path(&dir)).expect("marker");
            store.record_lane_frame(11, &[0x22; 64]).expect("journal");
            store.record_lane_frame(17, &[0x17; 64]).expect("journal");
            drop(store);
            let wal = std::fs::read(Store::wal_path(&dir)).expect("wal");
            let _ = std::fs::remove_dir_all(&dir);
            (wal, marker, committed)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_kill_point_recovers_or_rejects_typed(cut_pick in proptest::num::u64::ANY) {
            let (wal, marker, committed) = template();
            let committed = *committed;
            let cut = (cut_pick as usize) % (wal.len() + 1);
            let dir = scratch("prop-cut");
            stage(&dir, &wal[..cut], marker);
            match Store::open_or_create(&dir) {
                Ok((store, report)) => {
                    // only possible at or past the committed horizon,
                    // and always lands exactly on it
                    prop_assert!(cut >= committed);
                    prop_assert_eq!(report.truncated_bytes as usize, cut - committed);
                    prop_assert_eq!(store.committed_len() as usize, committed);
                    prop_assert_eq!(report.pending_lanes, 2);
                }
                Err(StoreError::Corrupt { .. }) => prop_assert!(cut < committed),
                Err(e) => panic!("untyped failure at cut {cut}: {e}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn random_byte_flip_anywhere_is_never_silent(
            pos_pick in proptest::num::u64::ANY,
            bit in 0u8..8,
        ) {
            let (wal, marker, committed) = template();
            // flip within the *committed* region (the tail is legal to
            // damage: it is truncated unread)
            let pos = (pos_pick as usize) % *committed;
            let mut bad = wal.clone();
            bad[pos] ^= 1u8 << bit;
            let dir = scratch("prop-flip");
            stage(&dir, &bad, marker);
            prop_assert!(
                matches!(
                    Store::open_or_create(&dir),
                    Err(StoreError::Corrupt { .. } | StoreError::Marker { .. })
                ),
                "flip at byte {} bit {} was accepted", pos, bit
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn damage_beyond_the_horizon_never_corrupts_recovery(
            pos_pick in proptest::num::u64::ANY,
            byte in proptest::num::u8::ANY,
        ) {
            let (wal, marker, committed) = template();
            let committed = *committed;
            // the template always carries two uncommitted records
            let tail_len = wal.len() - committed;
            let pos = committed + (pos_pick as usize) % tail_len;
            let mut bad = wal.clone();
            bad[pos] = byte;
            let dir = scratch("prop-tail");
            stage(&dir, &bad, marker);
            let (store, report) = Store::open_or_create(&dir)
                .unwrap_or_else(|e| panic!("tail damage at {pos} broke recovery: {e}"));
            prop_assert_eq!(report.truncated_bytes as usize, tail_len);
            prop_assert_eq!(store.committed_len() as usize, committed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
