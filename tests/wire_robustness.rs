//! Wire-protocol robustness: random buckets must round-trip exactly, and
//! every malformed input — truncation, single-byte corruption, unknown
//! versions, bad magic — must come back as a typed [`WireError`], never a
//! panic or a silent misparse.
//!
//! The `mux` module fuzzes the v3 *multiplexed* protocol: arbitrary
//! interleavings of several requests on one byte stream, duplicated
//! frames, cross-request frame injection, and mid-stream corruption must
//! yield typed errors or bit-correct reassembly — never panics, and never
//! data crossing from one request into another's output.

use bytes::{BufMut, Bytes, BytesMut};
use proteus::{Bucket, BucketMember, SealedBucket};
use proteus_graph::wire::{decode_frame, encode_frame_v3, encode_graph};
use proteus_graph::{Activation, Graph, Op, Shape, Tensor, TensorMap, WireError, WIRE_VERSION};

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random small executable-ish DAGs with parameters — shaped like the
    /// anonymized subgraphs that actually cross the wire.
    fn arb_member() -> impl Strategy<Value = BucketMember> {
        (
            proptest::collection::vec((0u8..7, proptest::num::u64::ANY), 2..14),
            proptest::num::u64::ANY,
        )
            .prop_map(|(specs, seed)| {
                let mut g = Graph::new("wiretest");
                let mut ids = vec![g.input([2, 3, 4])];
                for (kind, pick) in specs {
                    let a = ids[(pick as usize) % ids.len()];
                    let b = ids[(pick as usize / 5) % ids.len()];
                    let id = match kind {
                        0 => g.add(Op::Activation(Activation::Relu), [a]),
                        1 => g.add(Op::Activation(Activation::Gelu), [a]),
                        2 => g.add(Op::Identity, [a]),
                        3 => g.add(Op::Add, [a, b]),
                        4 => g.add(Op::Mul, [a, b]),
                        5 => g.add(
                            Op::Reshape {
                                shape: Shape::from([2, 12]),
                            },
                            [a],
                        ),
                        _ => g.add(
                            Op::Transpose {
                                perm: vec![0, 2, 1],
                            },
                            [a],
                        ),
                    };
                    ids.push(id);
                }
                let last = *ids.last().expect("nonempty");
                g.set_outputs([last]);
                let params = TensorMap::init_random(&g, seed);
                BucketMember { graph: g, params }
            })
    }

    pub(super) fn arb_sealed() -> impl Strategy<Value = SealedBucket> {
        (
            proptest::collection::vec(arb_member(), 1..5),
            0u32..4,
            proptest::num::u64::ANY,
        )
            .prop_map(|(members, index, total_salt)| {
                let num_buckets = index + 1 + (total_salt % 4) as u32;
                SealedBucket {
                    bucket_index: index,
                    num_buckets,
                    bucket: Bucket { members },
                }
            })
    }

    /// Members carrying weights of arbitrary bit patterns (NaN payloads,
    /// subnormals, negative zero) on nodes that sit behind a tombstone,
    /// so compaction renumbers them.
    fn arb_weighted_member() -> impl Strategy<Value = BucketMember> {
        let weights = proptest::collection::vec(
            proptest::collection::vec(proptest::num::u32::ANY, 0..24),
            0..4,
        );
        (arb_member(), weights).prop_map(|(mut m, weights)| {
            let x = m.graph.node_ids()[0];
            let dead = m.graph.add(Op::Identity, [x]);
            for bits in weights {
                let shape = Shape::from([bits.len()]);
                let node = m.graph.add(
                    Op::Constant {
                        shape: shape.clone(),
                    },
                    [],
                );
                let data = bits.into_iter().map(f32::from_bits).collect();
                m.params.insert(node, vec![Tensor::new(shape, data)]);
            }
            m.graph.remove(dead);
            m
        })
    }

    /// The sealed payload built the way the encoder built it before it
    /// sealed in place: each member's graph and params encoded into
    /// buffers of their own — params one `put_f32_le` per float — then
    /// copied in behind their length prefixes.
    fn reference_payload(sealed: &SealedBucket) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u32_le(sealed.num_buckets);
        out.put_u32_le(sealed.bucket.members.len() as u32);
        for m in &sealed.bucket.members {
            let (_, mapping) = m.graph.compact();
            let entries: Vec<_> = m
                .graph
                .iter()
                .filter_map(|(id, _)| m.params.get(id).map(|t| (mapping[&id].index(), t)))
                .collect();
            let mut params = BytesMut::new();
            params.put_u32_le(entries.len() as u32);
            for (idx, tensors) in entries {
                params.put_u32_le(idx as u32);
                params.put_u32_le(tensors.len() as u32);
                for t in tensors {
                    params.put_u32_le(t.shape().rank() as u32);
                    for &d in t.shape().dims() {
                        params.put_u64_le(d as u64);
                    }
                    for &v in t.data() {
                        params.put_f32_le(v);
                    }
                }
            }
            for part in [encode_graph(&m.graph).to_vec(), params.to_vec()] {
                out.put_u32_le(part.len() as u32);
                out.put_slice(&part);
            }
        }
        out.to_vec()
    }

    fn assert_members_equal(a: &Bucket, b: &Bucket) {
        assert_eq!(a.members.len(), b.members.len());
        for (ma, mb) in a.members.iter().zip(&b.members) {
            // encode is compacting, so compare codec-normalized forms
            assert_eq!(ma.graph.len(), mb.graph.len());
            assert_eq!(ma.graph.edge_count(), mb.graph.edge_count());
            assert_eq!(ma.params.len(), mb.params.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sealed_bucket_roundtrips(
            sealed in arb_sealed(),
            request_id in proptest::num::u64::ANY,
        ) {
            let bytes = sealed.to_mux_bytes(request_id);
            let (rid, back) = SealedBucket::from_mux_bytes(bytes.clone()).unwrap();
            prop_assert_eq!(rid, request_id);
            prop_assert_eq!(back.bucket_index, sealed.bucket_index);
            prop_assert_eq!(back.num_buckets, sealed.num_buckets);
            assert_members_equal(&sealed.bucket, &back.bucket);
            // a re-encode of the decoded frame is byte-stable
            prop_assert_eq!(back.to_mux_bytes(rid).to_vec(), bytes.to_vec());
        }

        #[test]
        fn corrupted_frames_rejected_not_panicked(
            sealed in arb_sealed(),
            pos_pick in proptest::num::u64::ANY,
            bit in 0u8..8,
        ) {
            let bytes = sealed.to_mux_bytes(0x0BAD_5EED).to_vec();
            let pos = (pos_pick as usize) % bytes.len();
            let mut raw = bytes;
            raw[pos] ^= 1u8 << bit;
            // every single-bit corruption must surface as a typed error —
            // the checksum covers header fields and payload alike
            let got = SealedBucket::from_mux_bytes(Bytes::copy_from_slice(&raw));
            prop_assert!(got.is_err(), "corruption at byte {} bit {} was accepted", pos, bit);
        }

        #[test]
        fn truncated_frames_rejected(sealed in arb_sealed(), cut_pick in proptest::num::u64::ANY) {
            let bytes = sealed.to_mux_bytes(3);
            let cut = (cut_pick as usize) % bytes.len();
            let got = SealedBucket::from_mux_bytes(bytes.slice(0..cut));
            prop_assert!(got.is_err(), "cut at {} was accepted", cut);
        }

        #[test]
        fn unknown_versions_rejected_with_typed_error(
            sealed in arb_sealed(),
            version in proptest::num::u64::ANY,
        ) {
            // every version but v3 is refused: v1 carries no request id,
            // and v2 is the retired FNV-1a request frame
            let drawn = match (version % 0xFFFF) as u16 {
                WIRE_VERSION => WIRE_VERSION + 1,
                v => v,
            };
            for version in [1, 2, drawn] {
                let mut raw = sealed.to_mux_bytes(9).to_vec();
                raw[4..6].copy_from_slice(&version.to_le_bytes());
                match SealedBucket::from_mux_bytes(Bytes::copy_from_slice(&raw)) {
                    Err(WireError::UnknownVersion { got, supported }) => {
                        prop_assert_eq!(got, version);
                        prop_assert_eq!(supported, WIRE_VERSION);
                    }
                    other => prop_assert!(false, "expected UnknownVersion, got {:?}", other),
                }
            }
        }

        // The in-place sealer writes exactly the bytes of the old
        // two-step path, and the weights decode back bit for bit.
        #[test]
        fn in_place_seal_matches_the_member_by_member_reference(
            members in proptest::collection::vec(arb_weighted_member(), 1..5),
            bucket_index in 0u32..4,
            request_id in proptest::num::u64::ANY,
        ) {
            let sealed = SealedBucket {
                bucket_index,
                num_buckets: bucket_index + 1,
                bucket: Bucket { members },
            };
            let payload = reference_payload(&sealed);
            let want = encode_frame_v3(request_id, bucket_index, &payload);
            let got = sealed.to_mux_bytes(request_id);
            prop_assert_eq!(got.to_vec(), want.to_vec());
            // decoding keeps every weight's bits: the re-encode is the same
            let (_, back) = SealedBucket::from_mux_bytes(got).unwrap();
            prop_assert_eq!(back.to_mux_bytes(request_id).to_vec(), want.to_vec());
        }
    }
}

mod mux {
    use super::*;
    use proptest::prelude::*;
    use proteus::{
        DeobfuscationSession, ObfuscationSecrets, PartitionSpec, Proteus, ProteusConfig,
        ProteusError, ServeConfig, ServeRuntime,
    };
    use proteus_graphgen::GraphRnnConfig;
    use proteus_models::{build, ModelKind};
    use proteus_opt::{Optimizer, Profile};
    use std::sync::OnceLock;

    const RID_A: u64 = 0xAAAA;
    const RID_B: u64 = 0xB0B0;

    /// Two real obfuscation requests with *different* bucket counts, so a
    /// frame re-tagged from one stream to the other is structurally
    /// detectable (bucket-count mismatch) — plus the clean reassembly
    /// reference for each.
    struct Fixture {
        frames_a: Vec<SealedBucket>,
        secrets_a: ObfuscationSecrets,
        reference_a: (Graph, TensorMap),
        frames_b: Vec<SealedBucket>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let proteus = Proteus::train(
                ProteusConfig {
                    k: 2,
                    partitions: PartitionSpec::Count(2),
                    graphrnn: GraphRnnConfig {
                        epochs: 2,
                        max_nodes: 20,
                        ..Default::default()
                    },
                    topology_pool: 30,
                    ..Default::default()
                },
                &[build(ModelKind::ResNet)],
            )
            .expect("train");
            let g = build(ModelKind::AlexNet);
            let drive = |rid: u64, n: usize| {
                let mut config = proteus.config().clone();
                config.partitions = PartitionSpec::Count(n);
                let proteus_n = Proteus::train(config, &[build(ModelKind::ResNet)]).expect("train");
                let mut session = proteus_n
                    .obfuscate_session(&g, &TensorMap::new(), rid)
                    .expect("session");
                let frames: Vec<SealedBucket> = session.by_ref().collect();
                let secrets = session.finish().expect("secrets");
                (frames, secrets)
            };
            let (frames_a, secrets_a) = drive(RID_A, 2);
            let (frames_b, _) = drive(RID_B, 3);
            let mut clean = DeobfuscationSession::new(&secrets_a);
            for f in &frames_a {
                clean.accept(f.clone()).expect("accept");
            }
            let reference_a = clean.finish().expect("reference");
            Fixture {
                frames_a,
                secrets_a,
                reference_a,
                frames_b,
            }
        })
    }

    /// Re-seals request A's `frame` with a valid checksum after `edit`
    /// rewrote its payload, so only the payload walk can catch a lie.
    /// `edit` also gets each member's `(graph_len, params_len)` offsets.
    fn reseal(frame: &SealedBucket, edit: impl FnOnce(&mut Vec<u8>, &[(usize, usize)])) -> Bytes {
        let mut wire = frame.to_mux_bytes(RID_A);
        let mut payload = decode_frame(&mut wire).expect("frame").payload.to_vec();
        let len_at = |p: &[u8], at: usize| {
            u32::from_le_bytes([p[at], p[at + 1], p[at + 2], p[at + 3]]) as usize
        };
        let mut spans = Vec::new();
        let mut at = 8;
        for _ in 0..frame.bucket.members.len() {
            let params_at = at + 4 + len_at(&payload, at);
            spans.push((at, params_at));
            at = params_at + 4 + len_at(&payload, params_at);
        }
        edit(&mut payload, &spans);
        encode_frame_v3(RID_A, frame.bucket_index, &payload)
    }

    /// The owner walks every member's length prefixes but decodes only the
    /// real member: lies and trailing bytes are typed errors, the real
    /// member's content is fully checked, and a sentinel's content is
    /// never parsed.
    #[test]
    fn reassembly_walks_every_member_and_decodes_only_the_real_one() {
        let fx = fixture();
        let frame = &fx.frames_a[0];
        let real = fx.secrets_a.real_positions[frame.bucket_index as usize];
        let sentinel = (real + 1) % frame.bucket.members.len();
        let accept = |wire: Bytes| DeobfuscationSession::new(&fx.secrets_a).accept_mux_bytes(wire);
        let set =
            |p: &mut Vec<u8>, at: usize, v: u32| p[at..at + 4].copy_from_slice(&v.to_le_bytes());

        accept(reseal(frame, |_, _| {})).expect("an honest re-seal is accepted");
        // a params length that runs past the payload
        let err = accept(reseal(frame, |p, spans| set(p, spans[0].1, u32::MAX))).unwrap_err();
        assert!(
            matches!(err, ProteusError::Wire(WireError::Truncated { .. })),
            "{err:?}"
        );
        let err = accept(reseal(frame, |p, _| p.push(0))).unwrap_err();
        assert!(
            matches!(err, ProteusError::Wire(WireError::Malformed { .. })),
            "{err:?}"
        );
        // the graph name's length prefix, inside the member's graph body
        let err = accept(reseal(frame, |p, spans| {
            set(p, spans[real].0 + 4, u32::MAX)
        }))
        .unwrap_err();
        assert!(
            matches!(err, ProteusError::Wire(WireError::Truncated { .. })),
            "{err:?}"
        );
        accept(reseal(frame, |p, spans| {
            set(p, spans[sentinel].0 + 4, u32::MAX)
        }))
        .expect("a sentinel's content is not the owner's to parse");
    }

    /// A member whose graph or params slice is longer than what it
    /// encodes (length prefix and body grown together, checksum valid) is
    /// `Malformed` wherever it is decoded: by the frame decoder, by the
    /// owner for the real member, and by a serving lane — even one whose
    /// cache already holds the honest member, since the lane keys on the
    /// exact bytes it received.
    #[test]
    fn lengthened_member_slices_are_malformed() {
        let fx = fixture();
        let frame = &fx.frames_a[0];
        let real = fx.secrets_a.real_positions[frame.bucket_index as usize];
        let len_at = |p: &[u8], at: usize| {
            u32::from_le_bytes([p[at], p[at + 1], p[at + 2], p[at + 3]]) as usize
        };
        // grows the slice whose length prefix sits at `at` by `extra` bytes
        let lengthen = |p: &mut Vec<u8>, at: usize, extra: usize| {
            let len = len_at(p, at);
            p[at..at + 4].copy_from_slice(&((len + extra) as u32).to_le_bytes());
            let end = at + 4 + len;
            p.splice(end..end, std::iter::repeat_n(0, extra));
        };
        let runtime = ServeRuntime::new(
            Optimizer::new(Profile::OrtLike),
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .expect("runtime");
        let warm = runtime.handle(RID_A);
        warm.submit(frame.to_mux_bytes(RID_A))
            .expect("honest frame");
        warm.recv().expect("honest frame optimized");
        for (graph, extra) in [(true, 3), (false, 5)] {
            let wire = reseal(frame, |p, spans| {
                let (graph_at, params_at) = spans[real];
                lengthen(p, if graph { graph_at } else { params_at }, extra);
            });
            let malformed =
                |err: &ProteusError| matches!(err, ProteusError::Wire(WireError::Malformed { .. }));
            assert!(matches!(
                SealedBucket::from_mux_bytes(wire.clone()),
                Err(WireError::Malformed { .. })
            ));
            let err = DeobfuscationSession::new(&fx.secrets_a)
                .accept_mux_bytes(wire.clone())
                .unwrap_err();
            assert!(malformed(&err), "{err:?}");
            let lane = runtime.handle(RID_A);
            let err = lane.submit(wire).unwrap_err();
            assert!(malformed(&err), "{err:?}");
            assert_eq!(lane.in_flight(), 0, "a refused frame must not enqueue");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Arbitrary multiplexed streams round-trip: every frame keeps its
        // request id and its exact payload bytes — interleaving requests
        // on one stream never mixes their content.
        #[test]
        fn interleaved_mux_streams_roundtrip(
            frames in proptest::collection::vec(
                (proptest::num::u64::ANY, super::proptests::arb_sealed()),
                1..6,
            ),
        ) {
            let mut stream = bytes::BytesMut::new();
            for (rid, sealed) in &frames {
                bytes::BufMut::put_slice(&mut stream, &sealed.to_mux_bytes(*rid));
            }
            let mut buf = stream.freeze();
            for (rid, sealed) in &frames {
                let (got_rid, got) = SealedBucket::decode_mux_from(&mut buf).unwrap();
                prop_assert_eq!(got_rid, *rid);
                // byte-stable re-encode proves the payload survived intact
                prop_assert_eq!(got.to_mux_bytes(*rid).to_vec(), sealed.to_mux_bytes(*rid).to_vec());
            }
            prop_assert!(buf.is_empty());
        }

        // Frames of one request accepted in any order, with arbitrary
        // duplications, through the multiplexed path: first arrival wins,
        // every replay is the typed [`ProteusError::DuplicateFrame`], and
        // the reassembly is bit-identical to the in-order reference.
        #[test]
        fn arbitrary_orderings_and_duplicates_reassemble_exactly(
            order in proptest::collection::vec(0usize..2, 2..10),
        ) {
            let fx = fixture();
            // make sure every frame index appears at least once
            let mut feed: Vec<usize> = order;
            feed.extend(0..fx.frames_a.len());
            let mut reassembly = DeobfuscationSession::new(&fx.secrets_a);
            let mut accepted = vec![false; fx.frames_a.len()];
            for &i in &feed {
                let wire = fx.frames_a[i].to_mux_bytes(RID_A);
                match reassembly.accept_mux_bytes(wire) {
                    Ok(()) => {
                        prop_assert!(!accepted[i], "duplicate silently accepted");
                        accepted[i] = true;
                    }
                    Err(ProteusError::DuplicateFrame { bucket_index, request_id }) => {
                        prop_assert!(accepted[i], "fresh frame rejected as duplicate");
                        prop_assert_eq!(bucket_index as usize, i);
                        prop_assert_eq!(request_id, RID_A);
                    }
                    Err(other) => prop_assert!(false, "unexpected error: {:?}", other),
                }
            }
            let (g, p) = reassembly.finish().unwrap();
            prop_assert_eq!(&g, &fx.reference_a.0);
            prop_assert_eq!(&p, &fx.reference_a.1);
        }

        // Cross-request injection on a multiplexed stream: frames carrying
        // another request's id are rejected before touching session state,
        // and frames *re-tagged* with our id (a misbehaving mux layer) are
        // still caught structurally. Reassembly afterwards is unpoisoned.
        #[test]
        fn cross_request_injection_never_leaks(
            inject_at in 0usize..2,
            retag in proptest::bool::ANY,
        ) {
            let fx = fixture();
            let mut reassembly = DeobfuscationSession::new(&fx.secrets_a);
            for (i, frame) in fx.frames_a.iter().enumerate() {
                if i == inject_at {
                    let alien = &fx.frames_b[i % fx.frames_b.len()];
                    let wire = if retag {
                        // attacker rewrites the header id to ours: the
                        // bucket-count mismatch still rejects it
                        alien.to_mux_bytes(RID_A)
                    } else {
                        alien.to_mux_bytes(RID_B)
                    };
                    let err = reassembly.accept_mux_bytes(wire).unwrap_err();
                    prop_assert!(
                        matches!(err, ProteusError::Protocol { .. }),
                        "injection not rejected: {:?}", err
                    );
                }
                reassembly.accept_mux_bytes(frame.to_mux_bytes(RID_A)).unwrap();
            }
            let (g, p) = reassembly.finish().unwrap();
            prop_assert_eq!(&g, &fx.reference_a.0, "injected frame leaked into output");
            prop_assert_eq!(&p, &fx.reference_a.1);
        }

        // Mid-stream corruption of an interleaved two-request stream:
        // decoding surfaces a typed error at or before the corrupted
        // frame, never panics, and every frame fully decoded beforehand
        // is intact.
        #[test]
        fn mid_stream_corruption_is_a_typed_error(
            pos_pick in proptest::num::u64::ANY,
            bit in 0u8..8,
        ) {
            let fx = fixture();
            // interleave A and B frames round-robin on one stream
            let mut order: Vec<(u64, &SealedBucket)> = Vec::new();
            for i in 0..fx.frames_a.len().max(fx.frames_b.len()) {
                if let Some(f) = fx.frames_a.get(i) { order.push((RID_A, f)); }
                if let Some(f) = fx.frames_b.get(i) { order.push((RID_B, f)); }
            }
            let mut stream = bytes::BytesMut::new();
            for (rid, f) in &order {
                bytes::BufMut::put_slice(&mut stream, &f.to_mux_bytes(*rid));
            }
            let mut raw = stream.freeze().to_vec();
            let pos = (pos_pick as usize) % raw.len();
            raw[pos] ^= 1u8 << bit;
            let mut buf = Bytes::copy_from_slice(&raw);
            let mut decoded = 0usize;
            let outcome = loop {
                if buf.is_empty() {
                    break Ok(());
                }
                match SealedBucket::decode_mux_from(&mut buf) {
                    Ok((rid, sealed)) => {
                        // a frame that decoded must be one of the
                        // originals, byte for byte, under its own id
                        let (want_rid, want) = order[decoded];
                        prop_assert_eq!(rid, want_rid);
                        prop_assert_eq!(
                            sealed.to_mux_bytes(rid).to_vec(),
                            want.to_mux_bytes(rid).to_vec()
                        );
                        decoded += 1;
                    }
                    Err(e) => break Err(e),
                }
            };
            prop_assert!(
                outcome.is_err(),
                "single-bit corruption at byte {} decoded {} frames cleanly",
                pos, decoded
            );
        }
    }
}

/// Fuzzes the *incremental* codec (`proteus_net::FrameReader`) that the
/// TCP boundary uses: a socket hands back arbitrary chunk boundaries, so
/// every partition of a mixed data / error-frame stream — including
/// pathological 1-byte reads — must reassemble the exact same frame
/// sequence, and corruption must surface as a typed fatal error, never a
/// panic or a silent resync.
mod split {
    use proptest::prelude::*;
    use proteus_graph::wire::{encode_error_frame, encode_frame_v3, ErrorCode, ErrorFrame};
    use proteus_net::{FrameReader, NetError, NetFrame};

    /// One frame of any kind the stream can carry, plus its exact wire
    /// bytes and what the reader must yield for it.
    #[derive(Debug, Clone)]
    enum Expected {
        Data(Vec<u8>),
        Error(ErrorFrame),
    }

    fn arb_frame() -> impl Strategy<Value = (Vec<u8>, Expected)> {
        (
            0u8..2, // kind: v3 data, error frame
            proptest::num::u64::ANY,
            0u32..8,
            proptest::collection::vec(proptest::num::u8::ANY, 0..48),
        )
            .prop_map(|(kind, rid, bucket, payload)| match kind {
                0 => {
                    let wire = encode_frame_v3(rid, bucket, &payload).to_vec();
                    (wire.clone(), Expected::Data(wire))
                }
                _ => {
                    let code = ErrorCode::ALL[bucket as usize % ErrorCode::ALL.len()];
                    // reuse the payload bytes as a printable detail string
                    let detail: String =
                        payload.iter().map(|b| char::from(b'a' + b % 26)).collect();
                    let frame = ErrorFrame::new(rid, code, detail);
                    (encode_error_frame(&frame).to_vec(), Expected::Error(frame))
                }
            })
    }

    /// Feeds `stream` to a fresh reader in the given chunk sizes (cycled),
    /// polling after every push, and returns everything yielded.
    fn reassemble(stream: &[u8], chunks: &[usize]) -> Result<Vec<NetFrame>, NetError> {
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let mut fed = 0;
        let mut cycle = chunks.iter().copied().cycle();
        while fed < stream.len() {
            let step = cycle.next().unwrap_or(1).max(1).min(stream.len() - fed);
            reader.push(&stream[fed..fed + step]);
            fed += step;
            while let Some(frame) = reader.try_next()? {
                out.push(frame);
            }
        }
        assert_eq!(reader.buffered(), 0, "trailing bytes left unparsed");
        Ok(out)
    }

    fn assert_sequence(got: &[NetFrame], want: &[(Vec<u8>, Expected)]) {
        assert_eq!(got.len(), want.len(), "frame count diverged");
        for (frame, (_, expected)) in got.iter().zip(want) {
            match (frame, expected) {
                (NetFrame::Data(raw), Expected::Data(wire)) => {
                    assert_eq!(&raw.to_vec(), wire, "data frame bytes diverged");
                }
                (NetFrame::Error(got), Expected::Error(want)) => {
                    assert_eq!(got.request_id, want.request_id);
                    assert_eq!(got.code, want.code);
                    assert_eq!(got.detail, want.detail);
                }
                (got, want) => panic!("frame kind diverged: {got:?} vs {want:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Any chunking of any mixed stream yields the identical frame
        // sequence — chunk boundaries never land anywhere that matters.
        #[test]
        fn any_chunking_reassembles_mixed_streams(
            frames in proptest::collection::vec(arb_frame(), 1..8),
            chunks in proptest::collection::vec(1usize..96, 1..12),
        ) {
            let stream: Vec<u8> =
                frames.iter().flat_map(|(wire, _)| wire.clone()).collect();
            let got = reassemble(&stream, &chunks).expect("clean stream");
            assert_sequence(&got, &frames);
        }

        // The pathological case the issue calls out: 1-byte socket reads,
        // with a poll between every byte, across header and payload
        // splits alike. Also the degenerate opposite: the whole stream
        // (back-to-back frames) in a single push.
        #[test]
        fn one_byte_reads_and_single_push_agree(
            frames in proptest::collection::vec(arb_frame(), 1..6),
        ) {
            let stream: Vec<u8> =
                frames.iter().flat_map(|(wire, _)| wire.clone()).collect();
            let byte_by_byte = reassemble(&stream, &[1]).expect("clean stream");
            assert_sequence(&byte_by_byte, &frames);
            let all_at_once = reassemble(&stream, &[stream.len()]).expect("clean stream");
            assert_sequence(&all_at_once, &frames);
        }

        // Corrupting a frame boundary (magic or version) is fatal and
        // typed: the stream cannot be resynchronized, so the reader must
        // refuse rather than guess — but every frame *before* the
        // corruption still comes out intact.
        #[test]
        fn corrupted_boundaries_are_fatal_typed_errors(
            frames in proptest::collection::vec(arb_frame(), 1..5),
            victim_pick in proptest::num::u64::ANY,
            byte_pick in 0usize..6,
            bit in 0u8..8,
        ) {
            let victim = (victim_pick as usize) % frames.len();
            let offset: usize =
                frames[..victim].iter().map(|(wire, _)| wire.len()).sum();
            let mut stream: Vec<u8> =
                frames.iter().flat_map(|(wire, _)| wire.clone()).collect();
            // inside magic (0..4) or version (4..6): every row the reader
            // knows accepts one version, so any flipped version bit
            // leaves it
            stream[offset + byte_pick] ^= 1u8 << bit;
            let mut reader = FrameReader::new();
            reader.push(&stream);
            for clean in &frames[..victim] {
                let frame = reader.try_next().expect("pre-corruption frames intact")
                    .expect("frame available");
                assert_sequence(std::slice::from_ref(&frame), std::slice::from_ref(clean));
            }
            let got = reader.try_next();
            prop_assert!(
                matches!(got, Err(NetError::Wire(_))),
                "boundary corruption not a typed wire error: {:?}", got
            );
            // fatal means fatal: feeding more bytes never revives the stream
            reader.push(&frames[0].0);
            prop_assert!(reader.try_next().is_err(), "reader resynchronized after fatal error");
        }

        // Error frames are fully validated *inside* the reader (they are
        // consumed at the transport layer, unlike data frames whose
        // checksums the session verifies): any single-bit corruption past
        // the envelope is a typed error, never a mangled ErrorFrame.
        #[test]
        fn corrupted_error_frames_never_yield_garbage(
            rid in proptest::num::u64::ANY,
            detail_bytes in proptest::collection::vec(proptest::num::u8::ANY, 1..40),
            pos_pick in proptest::num::u64::ANY,
            bit in 0u8..8,
        ) {
            let detail: String =
                detail_bytes.iter().map(|b| char::from(b'a' + b % 26)).collect();
            let frame = ErrorFrame::new(rid, ErrorCode::Internal, detail);
            let mut wire = encode_error_frame(&frame).to_vec();
            let pos = 6 + (pos_pick as usize) % (wire.len() - 6); // past magic+version
            wire[pos] ^= 1u8 << bit;
            let mut reader = FrameReader::new();
            reader.push(&wire);
            match reader.try_next() {
                // a corrupted length field may *inflate* detail_len, which
                // legitimately stalls the reader awaiting bytes that never
                // come (the connection's EOF handling reports the tear) —
                // anything else must be a typed wire error
                Ok(None) => prop_assert!(
                    (16..20).contains(&pos),
                    "reader stalled on corruption outside the length field (byte {})", pos
                ),
                Err(NetError::Wire(_)) => {}
                got => prop_assert!(
                    false,
                    "corrupted error frame at byte {} accepted: {:?}", pos, got
                ),
            }
        }
    }
}

/// The stream readers measure every envelope-table row exactly as its
/// decoder does (`PRTB` v3 and `PRTE` through `FrameReader`; `PRTH`,
/// `PRTS` and a `PRTE` rejection through the handshake's hello reader).
/// A two-envelope stream is cut at every byte: the reader yields nothing
/// until the first envelope is whole, then exactly the bytes its decoder
/// consumes, and leaves the pipelined second envelope buffered.
mod envelope_lengths {
    use bytes::Bytes;
    use proteus_graph::wire::{
        decode_error_frame, decode_frame, encode_error_frame, encode_frame_v3, ErrorCode,
        ErrorFrame,
    };
    use proteus_net::handshake::{read_hello_bytes, ClientHello, ServerHello};
    use proteus_net::{FrameReader, NetError, NetFrame};
    use std::io::Cursor;

    type Decoder = fn(&mut Bytes) -> bool;

    /// Runs a peer's reader over a stream `prefix`: the length of the
    /// first envelope it yields and the bytes it leaves buffered, or
    /// `None` while it still waits for more.
    fn read_prefix(hello: bool, prefix: &[u8]) -> Option<(usize, usize)> {
        let mut reader = FrameReader::new();
        if hello {
            return match read_hello_bytes(&mut Cursor::new(prefix.to_vec()), &mut reader) {
                Ok(bytes) => Some((bytes.len(), reader.buffered())),
                Err(NetError::Handshake { .. }) => None, // EOF before a whole hello
                Err(e) => panic!("hello reader failed on a clean prefix: {e}"),
            };
        }
        reader.push(prefix);
        if let NetFrame::Data(raw) = reader.try_next().expect("clean prefix")? {
            assert_eq!(&raw[..], &prefix[..raw.len()], "data frames pass verbatim");
        }
        Some((prefix.len() - reader.buffered(), reader.buffered()))
    }

    #[test]
    fn readers_and_decoders_agree_on_every_envelope_row() {
        let error = encode_error_frame(&ErrorFrame::new(9, ErrorCode::Deadline, "late"));
        let frame: Decoder = |b| decode_frame(b).is_ok();
        let prte: Decoder = |b| decode_error_frame(b).is_ok();
        let rows: [(&str, Bytes, Decoder, bool); 5] = [
            ("PRTB v3", encode_frame_v3(9, 1, b"v3 body"), frame, false),
            ("PRTE", error.clone(), prte, false),
            ("PRTE reply", error, prte, true),
            (
                "PRTH",
                ClientHello::new(5, "token").encode().unwrap(),
                |b| ClientHello::decode(b).is_ok(),
                true,
            ),
            (
                "PRTS",
                ServerHello::new(5, "banner").encode().unwrap(),
                |b| ServerHello::decode(b).is_ok(),
                true,
            ),
        ];
        for (name, envelope, decode, hello) in rows {
            let stream = [&envelope[..], &envelope[..]].concat();
            let mut buf = Bytes::from(stream.clone());
            assert!(decode(&mut buf), "{name} decodes");
            let consumed = stream.len() - buf.len();
            assert_eq!(consumed, envelope.len(), "{name}: decoder length");
            for cut in 0..=stream.len() {
                let want = (cut >= consumed).then(|| (consumed, cut - consumed));
                assert_eq!(
                    read_prefix(hello, &stream[..cut]),
                    want,
                    "{name}: cut at {cut}"
                );
            }
        }
    }
}

#[test]
fn bad_magic_is_a_typed_error() {
    let sealed = SealedBucket {
        bucket_index: 0,
        num_buckets: 1,
        bucket: Bucket {
            members: Vec::new(),
        },
    };
    let mut raw = sealed.to_mux_bytes(0).to_vec();
    raw[0..4].copy_from_slice(b"JUNK");
    assert!(matches!(
        SealedBucket::from_mux_bytes(Bytes::copy_from_slice(&raw)),
        Err(WireError::BadMagic { .. })
    ));
}

#[test]
fn checksum_mismatch_is_a_typed_error() {
    let sealed = SealedBucket {
        bucket_index: 0,
        num_buckets: 1,
        bucket: Bucket {
            members: Vec::new(),
        },
    };
    let mut raw = sealed.to_mux_bytes(0).to_vec();
    let last = raw.len() - 1;
    raw[last] ^= 0xFF; // payload byte (or checksum when payload is tiny)
    let got = SealedBucket::from_mux_bytes(Bytes::copy_from_slice(&raw));
    assert!(
        matches!(got, Err(WireError::ChecksumMismatch { .. })),
        "{got:?}"
    );
}

/// Every single-bit flip of a v3 frame is a typed error: one weighted
/// sealed bucket of several KB (header, payload header, graphs and
/// float weights alike) and one `PRTE` error frame. The word hash covers
/// each bit, and a flipped version or length field fails before it.
#[test]
fn every_bit_flip_of_a_v3_frame_is_a_typed_error() {
    use proteus_graph::wire::{decode_error_frame, encode_error_frame, ErrorCode, ErrorFrame};
    let mut g = Graph::new("weighted");
    let x = g.input([1, 16, 8, 8]);
    let c = g.add(
        Op::Conv(proteus_graph::ConvAttrs::new(16, 8, 3).padding(1)),
        [x],
    );
    let r = g.add(Op::Activation(Activation::Relu), [c]);
    g.set_outputs([r]);
    let params = TensorMap::init_random(&g, 7);
    let sealed = SealedBucket {
        bucket_index: 1,
        num_buckets: 3,
        bucket: Bucket {
            members: vec![BucketMember { graph: g, params }],
        },
    };
    let frame = sealed.to_mux_bytes(0x5EED);
    assert!(frame.len() > 4 * 1024, "{} bytes", frame.len());
    let error = encode_error_frame(&ErrorFrame::new(7, ErrorCode::Deadline, "missed by 3 ms"));
    assert!(SealedBucket::from_mux_bytes(frame.clone()).is_ok());
    for (bit, raw) in flips(&frame) {
        let got = SealedBucket::from_mux_bytes(raw);
        assert!(got.is_err(), "PRTB v3: bit {bit} flipped undetected");
    }
    assert!(decode_error_frame(&mut error.clone()).is_ok());
    for (bit, mut raw) in flips(&error) {
        let got = decode_error_frame(&mut raw);
        assert!(got.is_err(), "PRTE v3: bit {bit} flipped undetected");
    }
}

/// `bytes` with one bit flipped, for every bit, with the bit's index.
fn flips(bytes: &[u8]) -> impl Iterator<Item = (usize, Bytes)> + '_ {
    (0..bytes.len() * 8).map(move |bit| {
        let mut raw = bytes.to_vec();
        raw[bit / 8] ^= 1 << (bit % 8);
        (bit, Bytes::from(raw))
    })
}
