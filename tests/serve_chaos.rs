//! Chaos battery for the serving runtime: deterministic fault injection
//! (a [`FaultyOptimizer`] that panics and stalls on a seeded
//! [`FaultPlan`]) against one [`ServeRuntime`] must never escape the
//! typed error family, never leak a partial frame, and never take down
//! the lanes it did not hit. Every request either fails typed or comes
//! back **bit-identical** to the serial single-session path.
//!
//! The faults enter through the runtime's [`MemberOptimizer`] seam, so
//! the runtime itself carries no fault-injection code. The cache's
//! poison self-heal is covered by a unit test in `serve.rs`, which
//! poisons the cache lock directly.
//!
//! CI runs this battery in release mode across several fault seeds
//! (the `serve-chaos` job); `PROTEUS_CHAOS_SEEDS` overrides the storm's
//! seed list.

use bytes::Bytes;
use proteus::serve::{MemberOptimizer, ServeRuntime};
use proteus::{
    splitmix64, DeobfuscationSession, PartitionSpec, Proteus, ProteusConfig, ProteusError,
    SealedBucket, ServeConfig,
};
use proteus_graph::{Activation, BatchNormAttrs, ConvAttrs, GemmAttrs, Graph, Op, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// Deterministic fault plan for [`FaultyOptimizer`]. Every fault
/// decision is a pure function of `(seed, call)` — the same plan against
/// the same request stream fires the same faults, so every chaos-battery
/// failure is replayable from its seed.
///
/// Rate-based fields (`*_one_in`) fire when
/// `splitmix64(seed ^ mix(call)) % one_in == 0`; `0` disables the fault.
/// `panic_at` names one 1-based optimizer call; `0` disables it.
#[derive(Debug, Clone, Copy, Default)]
struct FaultPlan {
    /// Seed for the rate-based fault draws.
    seed: u64,
    /// Panic exactly the k-th optimizer call (1-based; `0` = off).
    panic_at: u32,
    /// Seeded rate: panic roughly one in `panic_one_in` calls.
    panic_one_in: u32,
    /// Seeded rate: stall roughly one in `stall_one_in` calls for
    /// `stall_ms` before optimizing.
    stall_one_in: u32,
    /// Stall duration in milliseconds.
    stall_ms: u32,
}

impl FaultPlan {
    /// True when any fault is armed.
    fn is_active(&self) -> bool {
        self.panic_at != 0 || self.panic_one_in != 0 || self.stall_one_in != 0
    }

    /// Seeded rate draw: does a `one_in` fault fire at `call`? `salt`
    /// decorrelates the draws of different fault kinds at the same call.
    fn fires(&self, one_in: u32, call: u64, salt: u64) -> bool {
        one_in != 0
            && splitmix64(self.seed ^ salt ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .is_multiple_of(u64::from(one_in))
    }

    /// Should optimizer call `call` (1-based) panic?
    fn panic_fires(&self, call: u64) -> bool {
        (self.panic_at != 0 && call == u64::from(self.panic_at))
            || self.fires(self.panic_one_in, call, 0x5041_4E49) // "PANI"
    }

    /// Should optimizer call `call` (1-based) stall first?
    fn stall_fires(&self, call: u64) -> bool {
        self.fires(self.stall_one_in, call, 0x5354_414C) // "STAL"
    }
}

/// The real optimizer behind a seeded fault schedule: it numbers its
/// calls from 1 and, per [`FaultPlan`], stalls and then panics before
/// optimizing. The runtime's per-task `catch_unwind` must contain every
/// panic it raises.
struct FaultyOptimizer {
    inner: Optimizer,
    plan: FaultPlan,
    calls: AtomicU64,
}

impl MemberOptimizer for FaultyOptimizer {
    fn profile(&self) -> Profile {
        self.inner.profile()
    }

    fn optimize(&self, graph: &Graph, params: &TensorMap) -> (Graph, TensorMap) {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.stall_fires(call) {
            std::thread::sleep(Duration::from_millis(u64::from(self.plan.stall_ms)));
        }
        if self.plan.panic_fires(call) {
            panic!("fault injection: optimizer call {call} panicked mid-request");
        }
        MemberOptimizer::optimize(&self.inner, graph, params)
    }
}

/// A runtime whose optimizer faults per `plan`.
fn faulty_runtime(plan: FaultPlan, config: ServeConfig) -> ServeRuntime {
    let optimizer = FaultyOptimizer {
        inner: Optimizer::new(Profile::OrtLike),
        plan,
        calls: AtomicU64::new(0),
    };
    ServeRuntime::new(optimizer, config).expect("runtime starts")
}

/// [`faulty_runtime`] with the cache off, so every member reaches the
/// optimizer.
fn faulty_runtime_uncached(workers: usize, window: usize, plan: FaultPlan) -> ServeRuntime {
    faulty_runtime(
        plan,
        ServeConfig {
            workers,
            window,
            cache_capacity: 0,
        },
    )
}

#[test]
fn fault_plan_default_is_inert_and_draws_are_deterministic() {
    let inert = FaultPlan::default();
    assert!(!inert.is_active());
    for call in 1..200 {
        assert!(!inert.panic_fires(call));
        assert!(!inert.stall_fires(call));
    }

    let plan = FaultPlan {
        seed: 0xC0FFEE,
        panic_one_in: 5,
        stall_one_in: 3,
        ..FaultPlan::default()
    };
    assert!(plan.is_active());
    // same (seed, call) → same decision, always
    let draws: Vec<(bool, bool)> = (1..100)
        .map(|o| (plan.panic_fires(o), plan.stall_fires(o)))
        .collect();
    let replay: Vec<(bool, bool)> = (1..100)
        .map(|o| (plan.panic_fires(o), plan.stall_fires(o)))
        .collect();
    assert_eq!(draws, replay);
    // a one-in-5 rate fires a plausible number of times in 99 draws
    let fired = draws.iter().filter(|(p, _)| *p).count();
    assert!(fired > 4 && fired < 50, "panic draw rate off: {fired}/99");
    // different seeds decorrelate
    let other = FaultPlan {
        seed: 0xBEEF,
        ..plan
    };
    assert!((1..100).any(|o| plan.panic_fires(o) != other.panic_fires(o)));

    // call-pinned faults fire exactly where aimed
    let pinned = FaultPlan {
        panic_at: 7,
        ..FaultPlan::default()
    };
    assert!(pinned.panic_fires(7) && !pinned.panic_fires(6) && !pinned.panic_fires(8));
}

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
        Arc::new(Proteus::train(quick_config(2, 2), &[build(ModelKind::ResNet)]).expect("train"))
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

/// The serial single-session reference the runtime must be bit-identical
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

/// No fault may leak a partial frame: every frame a faulted runtime
/// delivers carries all `k + 1` members, and fully-delivered requests
/// reassemble bit-identically to the serial path.
/// Decodes one sealed response frame.
fn decode(wire: &Bytes) -> SealedBucket {
    let (_, frame) = SealedBucket::from_mux_bytes(wire.clone()).expect("sealed frames decode");
    frame
}

#[test]
fn no_fault_leaks_a_partial_frame() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let optimizer = Optimizer::new(Profile::OrtLike);
    let k = 2; // quick_config(2, 2)
    let runtime = faulty_runtime_uncached(
        2,
        4,
        FaultPlan {
            seed: 0xF00D,
            panic_one_in: 3,
            ..Default::default()
        },
    );
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
            if let Err(e) = handle.submit(frame.to_mux_bytes(rid)) {
                failure = Some(e);
                break;
            }
        }
        let secrets = session.finish().expect("secrets");
        while failure.is_none() && frames.len() < n {
            match handle.recv() {
                Ok(frame) => frames.push(frame.wire),
                Err(e) => failure = Some(e),
            }
        }
        // the invariant under test: every delivered frame is whole
        for wire in &frames {
            assert_eq!(
                decode(wire).bucket.members.len(),
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
                for wire in frames {
                    reassembly.accept_mux_bytes(wire).expect("accept");
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

/// Serves one request through `runtime` like
/// [`ServeRuntime::serve_request`], but with every backpressure and
/// receive wait bounded by `deadline`.
fn serve_before(
    runtime: &ServeRuntime,
    proteus: &Proteus,
    rid: u64,
    graph: &Graph,
    params: &TensorMap,
    deadline: Instant,
) -> Result<(Graph, TensorMap), ProteusError> {
    let mut session = proteus.obfuscate_session(graph, params, rid)?;
    let handle = runtime.handle(rid);
    while let Some(frame) = session.next_frame() {
        handle.submit_deadline(frame.to_mux_bytes(rid), deadline)?;
    }
    let secrets = session.finish()?;
    let mut reassembly = DeobfuscationSession::new(&secrets);
    while !reassembly.is_complete() {
        reassembly.accept_mux_bytes(handle.recv_deadline(deadline)?.wire)?;
    }
    reassembly.finish()
}

/// Seeded chaos storm: one runtime whose optimizer panics and stalls at
/// seeded rates serves a stream of requests, with the cache on. Every
/// request must end in either a bit-identical success or a typed
/// `WorkerCrashed`/`Deadline` — across every seed in the battery — and
/// the runtime keeps serving after each failure.
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
        let runtime = faulty_runtime(
            FaultPlan {
                seed,
                panic_one_in: 8,
                stall_one_in: 5,
                stall_ms: 3,
                ..Default::default()
            },
            ServeConfig {
                workers: 1,
                window: 4,
                ..Default::default() // cache ON: hits and faults mix
            },
        );
        let (mut succeeded, mut failed) = (0usize, 0usize);
        for i in 0..12u64 {
            let rid = seed.wrapping_mul(131).wrapping_add(i * 17);
            let (graph, params) = request_model(rid);
            let deadline = Instant::now() + Duration::from_secs(30);
            match serve_before(&runtime, proteus, rid, &graph, &params, deadline) {
                Ok((got_g, got_p)) => {
                    let (want_g, want_p) =
                        serial_reference(proteus, &optimizer, rid, &graph, &params);
                    assert_eq!(got_g, want_g, "seed {seed:#x} rid {rid:#x}");
                    assert_eq!(got_p, want_p, "seed {seed:#x} rid {rid:#x}");
                    succeeded += 1;
                }
                Err(ProteusError::WorkerCrashed { .. } | ProteusError::Deadline { .. }) => {
                    failed += 1; // typed fault-family error: acceptable chaos outcome
                }
                Err(other) => panic!("seed {seed:#x} rid {rid:#x}: untyped escape {other:?}"),
            }
        }
        // the storm exercises both sides of the rule: faults fire, and
        // the runtime still serves bit-identically around them
        assert!(
            succeeded > 0 && failed > 0,
            "seed {seed:#x}: {succeeded} served, {failed} failed; the storm needs both"
        );
        assert!(
            runtime.is_healthy(),
            "seed {seed:#x}: faults downed the runtime"
        );
    }
}

/// The runtime's contained-crash contract, one lane at a time: the first
/// optimizer call panics, only that request fails (typed), and the pool
/// keeps serving bit-identically.
#[test]
fn worker_panic_fails_only_its_own_lane() {
    quiet_fault_panics();
    let proteus = shared_proteus();
    let g = build(ModelKind::AlexNet);
    // the very first optimizer call panics (contained); later calls run
    let rt = faulty_runtime_uncached(
        1,
        8,
        FaultPlan {
            panic_at: 1,
            ..FaultPlan::default()
        },
    );
    let err = rt
        .serve_request(proteus, &g, &TensorMap::new(), 41)
        .expect_err("first request must fail typed");
    assert!(
        matches!(err, ProteusError::WorkerCrashed { request_id: 41, .. }),
        "{err:?}"
    );
    assert_eq!(rt.stats().tasks_crashed, 1);
    assert!(rt.is_healthy(), "a contained panic must not down the pool");
    // the pool keeps serving: a later request is untouched and
    // bit-identical to its serial path
    let optimizer = Optimizer::new(Profile::OrtLike);
    let (served, served_params) = rt
        .serve_request(proteus, &g, &TensorMap::new(), 42)
        .expect("pool recovered");
    let (serial, serial_params) = serial_reference(proteus, &optimizer, 42, &g, &TensorMap::new());
    assert_eq!(served, serial);
    assert_eq!(served_params, serial_params);
}

#[test]
fn dropping_a_handle_detaches_pending_tasks() {
    let proteus = shared_proteus();
    let g = build(ModelKind::AlexNet);
    // one worker stalling 40ms per call: dropping the handle right after
    // submit leaves most tasks queued, which must detach
    let rt = faulty_runtime_uncached(
        1,
        8,
        FaultPlan {
            stall_one_in: 1,
            stall_ms: 40,
            ..FaultPlan::default()
        },
    );
    let mut session = proteus
        .obfuscate_session(&g, &TensorMap::new(), 71)
        .expect("session");
    let handle = rt.handle(71);
    while let Some(frame) = session.next_frame() {
        handle.submit(frame.to_mux_bytes(71)).expect("submit");
    }
    drop(handle); // cancel with tasks in flight
                  // a fresh request on the same pool is unaffected by the abandoned
                  // lane (its queued tasks are skipped, not executed)
    let (served, _) = rt
        .serve_request(proteus, &g, &TensorMap::new(), 72)
        .expect("pool still serves after cancel");
    assert!(served.validate().is_ok());
    let stats = rt.stats();
    assert!(
        stats.tasks_detached > 0,
        "queued tasks of the dropped handle must detach: {stats:?}"
    );
    // shutdown must not hang on the cancelled request (Drop below joins
    // the workers; reaching the end of the test is the assert)
}

#[test]
fn recv_deadline_times_out_typed() {
    let proteus = shared_proteus();
    let g = build(ModelKind::AlexNet);
    // every call stalls 300ms; a 40ms deadline must fire first
    let rt = faulty_runtime_uncached(
        1,
        8,
        FaultPlan {
            stall_one_in: 1,
            stall_ms: 300,
            ..FaultPlan::default()
        },
    );
    let mut session = proteus
        .obfuscate_session(&g, &TensorMap::new(), 81)
        .expect("session");
    let handle = rt.handle(81);
    let frame = session.next_frame().expect("frame");
    handle.submit(frame.to_mux_bytes(81)).expect("submit");
    let err = handle
        .recv_deadline(Instant::now() + Duration::from_millis(40))
        .expect_err("deadline fires");
    assert!(
        matches!(err, ProteusError::Deadline { request_id: 81, .. }),
        "{err:?}"
    );
}

/// The submit side of the same deadline: with a window of one and a
/// worker stalling on the first frame, a second frame's backpressure wait
/// times out typed, and the refused frame is not counted as submitted.
#[test]
fn submit_deadline_times_out_typed_when_the_window_stays_full() {
    let proteus = shared_proteus();
    let g = build(ModelKind::AlexNet);
    // every call stalls 300ms; a 40ms deadline must fire first
    let rt = faulty_runtime_uncached(
        1,
        1,
        FaultPlan {
            stall_one_in: 1,
            stall_ms: 300,
            ..FaultPlan::default()
        },
    );
    let mut session = proteus
        .obfuscate_session(&g, &TensorMap::new(), 91)
        .expect("session");
    let handle = rt.handle(91);
    let first = session.next_frame().expect("frame").to_mux_bytes(91);
    let second = session.next_frame().expect("second frame").to_mux_bytes(91);
    handle.submit(first).expect("submit");
    let err = handle
        .submit_deadline(second.clone(), Instant::now() + Duration::from_millis(40))
        .expect_err("deadline fires");
    assert!(
        matches!(err, ProteusError::Deadline { request_id: 91, .. }),
        "{err:?}"
    );
    assert_eq!(handle.in_flight(), 1, "the refused frame must not enqueue");
    // the window frees once the first frame completes, and the same
    // bucket is then admitted, not refused as a duplicate
    handle.submit(second).expect("resubmit after the deadline");
}
