//! Property battery for the warm sentinel inventory: concurrent
//! draw/refill interleavings, bounded-capacity exhaustion, and the
//! persisted artifact section must all be invisible on the wire —
//! sentinels are pure functions of the trained state and their key, and
//! the inventory is only a memo over that function.
//!
//! CI runs this suite in release mode (the `serve-stress` job).

use bytes::Bytes;
use proptest::prelude::*;
use proteus::{
    PartitionSpec, Proteus, ProteusConfig, SentinelInventory, SentinelKey, TrainedArtifact,
};
use proteus_graph::wire::{encode_graph, open_record, seal_record};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use std::sync::{Arc, OnceLock};

fn tiny_config(seed: u64) -> ProteusConfig {
    ProteusConfig {
        k: 2,
        partitions: PartitionSpec::Count(2),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 16,
            ..Default::default()
        },
        topology_pool: 8,
        sentinel_variants: 2,
        seed,
        ..Default::default()
    }
}

fn train(seed: u64) -> Proteus {
    Proteus::train(tiny_config(seed), &[build(ModelKind::ResNet)]).expect("train")
}

/// All sealed frame bytes of one request.
fn frames(proteus: &Proteus, rid: u64) -> Vec<Vec<u8>> {
    proteus
        .obfuscate_session(&build(ModelKind::AlexNet), &TensorMap::new(), rid)
        .expect("session")
        .map(|f| f.to_mux_bytes(rid).to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Sessions racing a warmer thread — some draws hit entries the
    // warmer just built, some build inline and store first — must emit
    // the same bytes as an identically trained instance that never uses
    // an inventory at all. The scope's joins with no timeout double as
    // the no-deadlock check.
    #[test]
    fn concurrent_draws_race_the_warmer_without_divergence(
        seed in 0u64..1_000,
        clients in 2usize..4,
    ) {
        let warm = Arc::new(train(seed));
        let reference = train(seed);
        reference.inventory().set_enabled(false);

        let mut built = 0;
        let raced: Vec<(u64, Vec<Vec<u8>>)> = std::thread::scope(|scope| {
            let warmer = scope.spawn(|| warm.warm_inventory());
            let joins: Vec<_> = (0..clients as u64)
                .map(|rid| {
                    let warm = Arc::clone(&warm);
                    scope.spawn(move || (rid, frames(&warm, rid)))
                })
                .collect();
            let raced = joins.into_iter().map(|j| j.join().expect("client")).collect();
            built = warmer.join().expect("warmer");
            raced
        });
        prop_assert!(built > 0, "warmer built nothing");
        prop_assert_eq!(warm.inventory().len(), warm.factory().key_space().len());

        for (rid, got) in raced {
            let want = frames(&reference, rid);
            prop_assert_eq!(
                got, want,
                "request {} diverged while racing the warmer", rid
            );
        }
    }

    // A bounded inventory that fills up (store refused past capacity)
    // must degrade to inline building with identical results, and what
    // it did memoize must replay byte-identically.
    #[test]
    fn exhausted_inventory_falls_back_inline(
        seed in 0u64..1_000,
        capacity in 0usize..6,
    ) {
        let proteus = train(seed);
        let factory = proteus.factory();
        let small = SentinelInventory::new(capacity);
        for key in factory.key_space() {
            let via_memo = factory.sentinel(key, Some(&small));
            let pure = factory.build_sentinel(key);
            prop_assert_eq!(
                via_memo.as_ref().map(encode_graph),
                pure.as_ref().map(encode_graph),
                "key {:?} diverged through the bounded inventory", key
            );
        }
        prop_assert!(small.len() <= capacity, "bounded inventory overflowed");
        // second sweep: stored keys replay, refused keys rebuild — same bytes
        for key in factory.key_space() {
            let replay = factory.sentinel(key, Some(&small)).map(|g| encode_graph(&g));
            let pure = factory.build_sentinel(key).map(|g| encode_graph(&g));
            prop_assert_eq!(replay, pure);
        }
    }

    // Any single-byte corruption inside the persisted sentinel section
    // is a typed artifact error, never a panic or a silent misparse.
    #[test]
    fn corrupted_inventory_section_is_rejected(
        pos_pick in proptest::num::u64::ANY,
        bit in 0u8..8,
    ) {
        let proteus = train(7);
        proteus.warm_inventory();
        let bytes = proteus.to_artifact_bytes().to_vec();

        // the sentinel section is the last of the six section frames;
        // find where it starts by walking the preceding five
        let mut buf = Bytes::copy_from_slice(&bytes[10..]);
        let total = buf.len();
        for _ in 0..5 {
            open_record(&mut buf).expect("section record");
        }
        let tail_start = 10 + (total - buf.len());
        prop_assert!(tail_start < bytes.len());

        let pos = tail_start + (pos_pick as usize) % (bytes.len() - tail_start);
        let mut raw = bytes.clone();
        raw[pos] ^= 1u8 << bit;
        prop_assert!(
            TrainedArtifact::from_bytes(&raw).is_err(),
            "sentinel-section corruption at byte {} bit {} was accepted", pos, bit
        );
    }
}

/// One trained instance with its whole key space warmed, shared by the
/// warm-start tests below (the sweep's infeasible keys dominate its cost).
/// Seed 9's pool holds topologies with no valid operator assignment, so
/// the tests see both kinds of persisted entry.
fn warmed() -> &'static Proteus {
    static WARMED: OnceLock<Proteus> = OnceLock::new();
    WARMED.get_or_init(|| {
        let proteus = train(9);
        proteus.warm_inventory();
        assert!(
            !infeasible_keys(&proteus).is_empty(),
            "training produced no infeasible key"
        );
        proteus
    })
}

/// Keys the inventory memoized as infeasible (no valid operator
/// assignment), in canonical order.
fn infeasible_keys(proteus: &Proteus) -> Vec<SentinelKey> {
    proteus
        .inventory()
        .snapshot()
        .into_iter()
        .filter_map(|(key, graph)| graph.is_none().then_some(key))
        .collect()
}

/// A warm-started process must serve the persisted inventory's sentinels
/// byte-identically to the instance that built them — and actually *use*
/// it: infeasible keys persist too, so the loaded inventory covers the
/// whole key space and warming it again builds nothing.
#[test]
fn persisted_inventory_round_trips_through_serving() {
    let proteus = warmed();
    let warmed = proteus.warm_inventory();
    assert!(warmed > 0);
    let bytes = proteus.to_artifact_bytes();
    let loaded = Proteus::from_artifact_bytes(&bytes).expect("artifact loads");
    assert_eq!(
        loaded.inventory().len(),
        loaded.factory().key_space().len(),
        "prefilled inventory covers the whole key space"
    );

    for rid in [0u64, 5, 0xFEED] {
        assert_eq!(
            frames(proteus, rid),
            frames(&loaded, rid),
            "request {rid:#x}: warm-started frames diverge"
        );
    }
    assert!(
        loaded.inventory().stats().hits > 0,
        "loaded instance never drew from the inventory"
    );
    // the restart re-proves nothing: every key, infeasible ones included,
    // is answered from the persisted section
    assert_eq!(loaded.warm_inventory(), warmed);
    assert_eq!(loaded.inventory().stats().misses, 0);
}

/// Rewrites an artifact's `sentinels` section (the last frame) into the
/// earlier layout that persisted only positive entries: every empty
/// (`graph_len = 0`) slot is dropped and the entry count lowered to match.
fn without_negatives(artifact: &[u8]) -> Vec<u8> {
    let mut rest = Bytes::copy_from_slice(&artifact[10..]);
    for _ in 0..5 {
        open_record(&mut rest).expect("section record");
    }
    let mut out = artifact[..artifact.len() - rest.len()].to_vec();
    let (tag, payload) = open_record(&mut rest).expect("sentinels section");
    let count = u32::from_le_bytes(payload[..4].try_into().unwrap());
    let (mut at, mut kept, mut entries) = (4usize, 0u32, Vec::new());
    for _ in 0..count {
        let len = u32::from_le_bytes(payload[at + 9..at + 13].try_into().unwrap()) as usize;
        if len > 0 {
            entries.extend_from_slice(&payload[at..at + 13 + len]);
            kept += 1;
        }
        at += 13 + len;
    }
    assert_eq!(at, payload.len(), "walked the whole section");
    let mut rewritten = kept.to_le_bytes().to_vec();
    rewritten.extend_from_slice(&entries);
    out.extend_from_slice(&seal_record(tag, &[&rewritten]));
    out
}

/// Artifacts written before infeasible keys were persisted still load:
/// the first warm re-proves exactly the missing keys, the frames stay
/// bit-identical to the training instance's, and a re-save then matches
/// a current-layout artifact byte for byte.
#[test]
fn positive_only_artifacts_still_load_and_reprove_their_negatives() {
    let proteus = warmed();
    let negatives = infeasible_keys(proteus);
    let current = proteus.to_artifact_bytes();
    let legacy = without_negatives(&current);
    assert!(legacy.len() < current.len());

    let (artifact, summary) = TrainedArtifact::from_bytes_with_summary(&legacy).expect("loads");
    assert_eq!(summary.infeasible_entries, 0);
    assert_eq!(
        summary.sentinel_entries + negatives.len(),
        summary.key_space
    );
    let loaded = artifact.into_proteus().expect("restores");
    assert_eq!(loaded.inventory().len(), summary.sentinel_entries);

    loaded.warm_inventory();
    assert_eq!(loaded.inventory().stats().misses, negatives.len());
    assert_eq!(infeasible_keys(&loaded), negatives);
    for rid in [1u64, 9, 0xBEEF] {
        assert_eq!(
            frames(proteus, rid),
            frames(&loaded, rid),
            "request {rid:#x}: frames from a positive-only artifact diverge"
        );
    }
    assert_eq!(loaded.to_artifact_bytes(), current);
}
