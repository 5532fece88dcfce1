//! Chaos battery for the fault-tolerant replica fleet: deterministic
//! fault injection ([`FaultPlan`]) against a [`Fleet`] of warm
//! [`proteus::serve::ServeRuntime`] replicas must never escape the typed
//! error family, never leak a partial frame, and — when re-dispatch
//! succeeds — produce results **bit-identical** to the serial
//! single-session path (request-id-keyed determinism makes the replay
//! exact; the fleet hard-asserts frame-byte parity across attempts
//! internally).
//!
//! CI runs this battery in release mode across several fault seeds
//! (the `fleet-chaos` job); `PROTEUS_CHAOS_SEEDS` overrides the storm's
//! seed list.

use proteus::fleet::{Fleet, FleetConfig, ReplicaState};
use proteus::serve::ServeRuntime;
use proteus::{
    DeobfuscationSession, FaultPlan, PartitionSpec, Proteus, ProteusConfig, ProteusError,
    SealedBucket, ServeConfig,
};
use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Graph, Op, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::sync::{Arc, Once, OnceLock};
use std::time::Duration;

/// Injected faults panic on purpose (contained by the runtime's
/// `catch_unwind`); suppress their backtrace spew so real test failures
/// stay readable. Non-fault panics still print via the previous hook.
fn quiet_fault_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("fault injection") {
                prev(info);
            }
        }));
    });
}

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

/// One shared trained instance for the whole battery (training is
/// model-independent; every test keys its requests by distinct ids).
fn shared_proteus() -> &'static Arc<Proteus> {
    static SHARED: OnceLock<Arc<Proteus>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Proteus::builder()
            .config(quick_config(2, 2))
            .corpus_model(build(ModelKind::ResNet))
            .train_shared()
            .expect("train")
    })
}

/// An executable CNN with parameters so chaos also covers parameter
/// streams and tensor reassembly.
fn executable_cnn() -> (Graph, TensorMap) {
    let mut g = Graph::new("chaos-cnn");
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
    let a = g.add(Op::Add, [c2, r1]);
    let r2 = g.add(Op::Activation(Activation::Relu), [a]);
    let f = g.add(Op::Flatten, [r2]);
    let fc = g.add(Op::Gemm(GemmAttrs::new(8 * 12 * 12, 10)), [f]);
    g.set_outputs([fc]);
    let params = TensorMap::init_random(&g, 99);
    (g, params)
}

/// The protected model of request `rid` — a rotation so chaos requests
/// carry different shapes and parameter loads.
fn request_model(rid: u64) -> (Graph, TensorMap) {
    match rid % 3 {
        0 => executable_cnn(),
        1 => (build(ModelKind::AlexNet), TensorMap::new()),
        _ => (build(ModelKind::MobileNet), TensorMap::new()),
    }
}

/// The serial single-session reference the fleet must be bit-identical
/// to whenever it reports success.
fn serial_reference(
    proteus: &Proteus,
    optimizer: &Optimizer,
    rid: u64,
    graph: &Graph,
    params: &TensorMap,
) -> (Graph, TensorMap) {
    let mut session = proteus
        .obfuscate_session(graph, params, rid)
        .expect("session");
    let frames: Vec<SealedBucket> = session
        .by_ref()
        .map(|f| f.optimize(optimizer, Some(1)))
        .collect();
    let secrets = session.finish().expect("secrets");
    let mut reassembly = DeobfuscationSession::new(&secrets);
    for f in frames {
        reassembly.accept(f).expect("accept");
    }
    reassembly.finish().expect("finish")
}

fn chaos_fleet(
    replicas: usize,
    faults: &[FaultPlan],
    deadline_ms: u64,
    max_retries: u32,
    cache_capacity: usize,
) -> Fleet {
    Fleet::with_replica_faults(
        Optimizer::new(Profile::OrtLike),
        FleetConfig {
            replicas,
            serve: ServeConfig {
                workers: 1,
                window: 4,
                cache_capacity,
                ..Default::default()
            },
            deadline_ms,
            max_retries,
            backoff_ms: 1,
            auto_respawn: true,
            virtual_nodes: 16,
        },
        faults,
    )
    .expect("fleet starts")
}

/// First request id at or after `from` whose primary route is `replica`.
fn rid_routed_to(fleet: &Fleet, replica: usize, from: u64) -> u64 {
    (from..from + 5_000)
        .find(|&rid| fleet.route(rid) == Some(replica))
        .expect("the ring gives every replica some keyspace")
}

/// Tentpole acceptance: a worker panic on the primary replica re-routes
/// the request, and the re-dispatched result is bit-identical to the
/// serial session path — across the model zoo, parameters included.
#[test]
fn worker_crash_redispatches_bit_identically_zoo_wide() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    // replica 0: every task panics; replica 1: healthy
    let fleet = chaos_fleet(
        2,
        &[FaultPlan {
            panic_one_in: 1,
            ..Default::default()
        }],
        0,
        2,
        0,
    );
    // debug builds cover a zoo slice; the release chaos job covers it all
    let zoo: &[ModelKind] = if cfg!(debug_assertions) {
        &ModelKind::ALL[..5]
    } else {
        &ModelKind::ALL[..]
    };
    for (i, &kind) in zoo.iter().enumerate() {
        let rid = rid_routed_to(&fleet, 0, 1 + (i as u64) * 1_000);
        let graph = build(kind);
        let params = TensorMap::init_random(&graph, rid);
        let got = fleet
            .serve_request_traced(proteus, &graph, &params, rid)
            .unwrap_or_else(|e| panic!("{kind:?} rid {rid}: {e}"));
        assert_eq!(got.attempts, 2, "{kind:?}: crash then one re-dispatch");
        assert_eq!(got.replicas_tried, vec![0, 1], "{kind:?}");
        let (want_g, want_p) = serial_reference(proteus, &optimizer, rid, &graph, &params);
        assert_eq!(got.graph, want_g, "{kind:?}: re-dispatch diverged");
        assert_eq!(got.params, want_p, "{kind:?}: parameters diverged");
        assert!(
            got.phases.backoff_ns > 0,
            "{kind:?}: the retry's backoff must be charged to the breakdown"
        );
    }
    let stats = fleet.stats();
    assert_eq!(stats.served, zoo.len());
    assert_eq!(stats.redispatches, zoo.len(), "one re-dispatch per request");
    assert!(stats.replicas[0].failures >= zoo.len());
}

/// A replica killed mid-request (tasks already completed and witnessed)
/// re-dispatches with byte parity — the in-fleet determinism hard-assert
/// compares the overlapping buckets — and the dead replica is
/// auto-respawned with its faults cleared.
#[test]
fn replica_killed_mid_request_redispatches_with_parity() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    // 2 buckets x 3 members = 6 tasks; the kill fires on task 4, so one
    // full bucket completes first — its bytes are witnessed by attempt 1
    // and re-checked against attempt 2's replay of the same bucket.
    let fleet = chaos_fleet(
        2,
        &[FaultPlan {
            kill_at_task: 4,
            ..Default::default()
        }],
        0,
        2,
        0,
    );
    let rid = rid_routed_to(&fleet, 0, 7);
    let (graph, params) = request_model(rid);
    let got = fleet
        .serve_request_traced(proteus, &graph, &params, rid)
        .expect("re-dispatch recovers from replica loss");
    assert_eq!(got.attempts, 2);
    assert_eq!(got.replicas_tried, vec![0, 1]);
    let (want_g, want_p) = serial_reference(proteus, &optimizer, rid, &graph, &params);
    assert_eq!(got.graph, want_g);
    assert_eq!(got.params, want_p);

    // the killed replica was downed, then auto-respawned fresh
    let stats = fleet.stats();
    assert_eq!(fleet.replica_state(0).expect("index"), ReplicaState::Up);
    assert!(stats.replicas[0].respawns >= 1, "{stats:?}");
    assert_eq!(stats.redispatches, 1);

    // fresh-process semantics: the respawned replica no longer carries
    // the fault plan, so its keyspace serves first-attempt again
    let rid2 = rid_routed_to(&fleet, 0, rid + 1);
    let (graph2, params2) = request_model(rid2);
    let got2 = fleet
        .serve_request_traced(proteus, &graph2, &params2, rid2)
        .expect("respawned replica serves");
    assert_eq!(got2.attempts, 1, "no fault left after respawn");
    assert_eq!(got2.replicas_tried, vec![0]);
}

/// A stalled replica blows the request deadline: the error is typed
/// [`ProteusError::Deadline`] and terminal — the fleet does not burn
/// retries on a budget that is already spent.
#[test]
fn deadline_surfaces_typed_and_is_terminal() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let fleet = chaos_fleet(
        1,
        &[FaultPlan {
            stall_one_in: 1,
            stall_ms: 300,
            ..Default::default()
        }],
        60,
        3,
        0,
    );
    let rid = 0xDEAD;
    let (graph, params) = request_model(rid);
    let started = std::time::Instant::now();
    let err = fleet
        .serve_request_traced(proteus, &graph, &params, rid)
        .expect_err("a 300ms/task stall cannot meet a 60ms deadline");
    let wall = started.elapsed();
    match err {
        ProteusError::Deadline { request_id, .. } => assert_eq!(request_id, rid),
        other => panic!("expected Deadline, got {other:?}"),
    }
    assert!(
        wall >= Duration::from_millis(60),
        "deadline fired before the budget elapsed ({wall:?})"
    );
    assert_eq!(
        fleet.stats().redispatches,
        0,
        "Deadline is terminal: no re-dispatch may follow it"
    );
}

/// When every replica fails retryably, the bounded budget surfaces
/// [`ProteusError::RetriesExhausted`] carrying the final attempt's error.
#[test]
fn retries_exhausted_carries_the_last_error() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let always_panic = FaultPlan {
        panic_one_in: 1,
        ..Default::default()
    };
    let fleet = chaos_fleet(2, &[always_panic, always_panic], 0, 2, 0);
    let rid = 0xEBB;
    let (graph, params) = request_model(rid);
    let err = fleet
        .serve_request_traced(proteus, &graph, &params, rid)
        .expect_err("both replicas always crash");
    match err {
        ProteusError::RetriesExhausted {
            request_id,
            attempts,
            last,
        } => {
            assert_eq!(request_id, rid);
            assert_eq!(attempts, 3, "initial dispatch + max_retries");
            assert!(
                matches!(*last, ProteusError::WorkerCrashed { .. }),
                "carries the final attempt's failure, got {last:?}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert!(!fleet.stats().replicas.iter().any(|r| r.served > 0));
}

/// Drain waits for in-flight requests to complete before taking the
/// replica down — the draining request finishes normally on its original
/// replica (attempt count 1) — and a respawn rejoins the ring.
#[test]
fn drain_completes_in_flight_requests_then_respawn_rejoins() {
    quiet_fault_panics();
    let proteus = Arc::clone(shared_proteus());
    let optimizer = Optimizer::new(Profile::OrtLike);
    // a uniform 30ms/task stall keeps the request in flight long enough
    // for the drain to provably overlap it (6 tasks ≈ 180ms)
    let slow = FaultPlan {
        stall_one_in: 1,
        stall_ms: 30,
        ..Default::default()
    };
    let fleet = Arc::new(chaos_fleet(2, &[slow, slow], 0, 2, 0));
    let rid = rid_routed_to(&fleet, 0, 100);
    let (graph, params) = request_model(rid);

    let client = {
        let fleet = Arc::clone(&fleet);
        let proteus = Arc::clone(&proteus);
        let (graph, params) = (graph.clone(), params.clone());
        std::thread::spawn(move || fleet.serve_request_traced(&proteus, &graph, &params, rid))
    };
    // let the client dispatch (inflight is marked before generation), then
    // drain its replica: drain must block until the request completes
    std::thread::sleep(Duration::from_millis(100));
    fleet
        .drain(0)
        .expect("drain waits out the in-flight request");
    assert_eq!(fleet.replica_state(0).expect("index"), ReplicaState::Down);

    let got = client
        .join()
        .expect("client thread")
        .expect("draining request completes");
    assert_eq!(
        got.replicas_tried,
        vec![0],
        "the draining replica finished its own request"
    );
    assert_eq!(got.attempts, 1, "drain never forced a re-dispatch");
    let (want_g, want_p) = serial_reference(&proteus, &optimizer, rid, &graph, &params);
    assert_eq!(got.graph, want_g);
    assert_eq!(got.params, want_p);

    // while down, its keyspace reroutes; after respawn it returns
    assert_eq!(fleet.route(rid), Some(1));
    fleet.respawn(0).expect("respawn");
    assert_eq!(fleet.replica_state(0).expect("index"), ReplicaState::Up);
    assert_eq!(fleet.route(rid), Some(0));
    let got2 = fleet
        .serve_request_traced(&proteus, &graph, &params, rid + 7_000)
        .expect("respawned replica serves");
    assert!(got2.graph.validate().is_ok());
}

/// Concurrent chaos wave: eight requests in flight at once on four
/// replicas, two of them crash-prone (their first task and then one in
/// four). Re-dispatch must land every request on a healthy replica with
/// results bit-identical to the serial path.
#[test]
fn concurrent_chaos_wave_serves_every_request_bit_identically() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let crashy = FaultPlan {
        seed: 0xC4A05,
        panic_at: 1,
        panic_one_in: 4,
        ..Default::default()
    };
    let fleet = chaos_fleet(4, &[crashy, crashy], 0, 4, 0);
    // two requests primary-routed to each replica
    let rids: Vec<u64> = (0..8u64)
        .map(|i| rid_routed_to(&fleet, (i % 4) as usize, 9_000 + 10_000 * i))
        .collect();
    let served: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = rids
            .iter()
            .map(|&rid| {
                let fleet = &fleet;
                scope.spawn(move || {
                    let (graph, params) = request_model(rid);
                    (
                        rid,
                        fleet.serve_request_traced(proteus, &graph, &params, rid),
                    )
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    for (rid, got) in served {
        let got = got.unwrap_or_else(|e| panic!("rid {rid}: {e}"));
        let (graph, params) = request_model(rid);
        let (want_g, want_p) = serial_reference(proteus, &optimizer, rid, &graph, &params);
        assert_eq!(got.graph, want_g, "rid {rid}");
        assert_eq!(got.params, want_p, "rid {rid}");
    }
    let stats = fleet.stats();
    assert_eq!(stats.served, rids.len());
    assert!(stats.redispatches > 0, "crash-prone replicas never crashed");
}

/// No fault may leak a partial frame: every frame a faulted runtime
/// delivers carries all `k + 1` members, and fully-delivered requests
/// reassemble bit-identically to the serial path.
#[test]
fn no_fault_leaks_a_partial_frame() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let k = 2; // quick_config(2, 2)
    let runtime = ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 2,
            window: 4,
            cache_capacity: 0,
            faults: FaultPlan {
                seed: 0xF00D,
                panic_one_in: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("runtime");
    let mut crashed = 0usize;
    let mut completed = 0usize;
    for rid in 400..412u64 {
        let (graph, params) = request_model(rid);
        let mut session = proteus
            .obfuscate_session(&graph, &params, rid)
            .expect("session");
        let n = session.num_buckets();
        let handle = runtime.handle(rid);
        let mut frames = Vec::new();
        let mut failure = None;
        while let Some(frame) = session.next_frame() {
            if let Err(e) = handle.submit(frame) {
                failure = Some(e);
                break;
            }
        }
        let secrets = session.finish().expect("secrets");
        while failure.is_none() && frames.len() < n {
            match handle.recv() {
                Ok(frame) => frames.push(frame),
                Err(e) => failure = Some(e),
            }
        }
        // the invariant under test: every delivered frame is whole
        for frame in &frames {
            assert_eq!(
                frame.bucket.members.len(),
                k + 1,
                "rid {rid}: a fault leaked a partial frame"
            );
        }
        match failure {
            Some(ProteusError::WorkerCrashed { request_id, .. }) => {
                assert_eq!(request_id, rid);
                crashed += 1;
            }
            Some(other) => panic!("rid {rid}: untyped chaos escape {other:?}"),
            None => {
                let mut reassembly = DeobfuscationSession::new(&secrets);
                for frame in frames {
                    reassembly.accept(frame).expect("accept");
                }
                let (got_g, got_p) = reassembly.finish().expect("finish");
                let (want_g, want_p) = serial_reference(proteus, &optimizer, rid, &graph, &params);
                assert_eq!(got_g, want_g, "rid {rid}");
                assert_eq!(got_p, want_p, "rid {rid}");
                completed += 1;
            }
        }
    }
    assert!(
        crashed > 0,
        "the 1-in-3 panic rate never fired in 12 requests"
    );
    assert!(completed > 0, "every request crashed; parity never checked");
    let stats = runtime.stats();
    // two tasks of one request can both pass the lane's failed check on
    // different workers and both crash; the counter is bumped before the
    // lane fails, so it bounds the crashed lanes from above
    assert!(
        stats.tasks_crashed >= crashed,
        "{} crashed tasks cannot explain {crashed} crashed lanes",
        stats.tasks_crashed
    );
    assert!(
        runtime.is_healthy(),
        "contained crashes never down the pool"
    );
}

/// Seeded chaos storm: mixed faults (crash-prone, kill-prone, cache
/// poisoning + stalls) across a 3-replica fleet. Every request must end
/// in either a bit-identical success or a typed fault-family error —
/// across every seed in the battery.
#[test]
fn seeded_chaos_storm_yields_only_parity_or_typed_errors() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let seeds: Vec<u64> = std::env::var("PROTEUS_CHAOS_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("PROTEUS_CHAOS_SEEDS: u64 list"))
                .collect()
        })
        .unwrap_or_else(|| vec![0x5EED_0001, 0x5EED_0002, 0x5EED_0003]);
    for seed in seeds {
        let faults = [
            // replica 0: seeded crash rate
            FaultPlan {
                seed,
                panic_one_in: 3,
                ..Default::default()
            },
            // replica 1: dies partway into its first request (then
            // respawns clean via the fleet)
            FaultPlan {
                seed,
                kill_at_task: 3 + (seed % 4) as u32,
                ..Default::default()
            },
            // replica 2: stalls and poisons the optimized-member cache
            FaultPlan {
                seed,
                stall_one_in: 5,
                stall_ms: 3,
                poison_cache_at: 1 + (seed % 3) as u32,
                ..Default::default()
            },
        ];
        let fleet = Fleet::with_replica_faults(
            Optimizer::new(Profile::OrtLike),
            FleetConfig {
                replicas: 3,
                serve: ServeConfig {
                    workers: 1,
                    window: 4,
                    ..Default::default() // cache ON for the poison fault
                },
                deadline_ms: 0,
                max_retries: 3,
                backoff_ms: 1,
                auto_respawn: true,
                virtual_nodes: 16,
            },
            &faults,
        )
        .expect("fleet starts");
        let mut succeeded = 0usize;
        for i in 0..8u64 {
            let rid = seed.wrapping_mul(131).wrapping_add(i * 17);
            let (graph, params) = request_model(rid);
            match fleet.serve_request_traced(proteus, &graph, &params, rid) {
                Ok(got) => {
                    let (want_g, want_p) =
                        serial_reference(proteus, &optimizer, rid, &graph, &params);
                    assert_eq!(got.graph, want_g, "seed {seed:#x} rid {rid:#x}");
                    assert_eq!(got.params, want_p, "seed {seed:#x} rid {rid:#x}");
                    succeeded += 1;
                }
                Err(
                    ProteusError::WorkerCrashed { .. }
                    | ProteusError::ReplicaUnavailable { .. }
                    | ProteusError::Deadline { .. }
                    | ProteusError::RetriesExhausted { .. },
                ) => {} // typed fault-family error: acceptable chaos outcome
                Err(other) => panic!("seed {seed:#x} rid {rid:#x}: untyped escape {other:?}"),
            }
        }
        // with one always-recovering fleet and a bounded crash rate, the
        // storm must not starve: most requests still get served
        assert!(
            succeeded >= 4,
            "seed {seed:#x}: only {succeeded}/8 requests survived the storm"
        );
        let stats = fleet.stats();
        assert_eq!(stats.served, succeeded, "seed {seed:#x}: {stats:?}");
    }
}
