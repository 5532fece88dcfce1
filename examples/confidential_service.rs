//! Multi-tenant "optimization as a service" over ONE multiplexed byte
//! stream, mirroring the paper's workflow (Figure 1) at serving scale:
//! several model owners stream sealed buckets concurrently, and a single
//! shared [`ServeRuntime`] worker pool optimizes their frames interleaved.
//!
//! The trust boundary is two byte streams. Every frame on them is a
//! versioned, checksummed **v3 multiplexed frame** whose header carries a
//! `request_id`: the service demultiplexes incoming frames into one
//! runtime lane per request (frames injected with a foreign id are
//! rejected, typed), and each owner demultiplexes the shared response
//! stream back to its own reassembly session with
//! [`DeobfuscationSession::accept_mux_bytes`].
//!
//! Run with: `cargo run --release --example confidential_service`

use proteus::serve::{CompletedFrame, RequestHandle, ServeRuntime};
use proteus::{DeobfuscationSession, Proteus, ProteusConfig, ServeConfig};
use proteus_graph::{peek_frame_request_id, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_opt::{Optimizer, Profile};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// The tenants: each protects a different zoo model under its own
/// request id.
const CLIENTS: [(u64, ModelKind); 3] = [
    (0xA1, ModelKind::AlexNet),
    (0xB2, ModelKind::ResNet),
    (0xC3, ModelKind::MnasNet),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // one trained instance serves every request (train-once semantics)
    let config = ProteusConfig {
        k: 3,
        graphrnn: GraphRnnConfig {
            epochs: 4,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 60,
        ..Default::default()
    };
    let corpus: Vec<_> = [
        ModelKind::MobileNet,
        ModelKind::DenseNet,
        ModelKind::GoogleNet,
    ]
    .iter()
    .map(|&k| build(k))
    .collect();
    let trained = Proteus::train(config.clone(), &corpus)?;

    // Warm start: the training above would normally happen offline. The
    // trained state is persisted as a checksummed PRTA artifact, and the
    // serving process cold-starts from it in milliseconds — bit-identical
    // on the wire to the instance that saved it. `load_artifact_expecting`
    // pins the deployment config: an artifact trained under a different
    // configuration is rejected with a typed fingerprint mismatch.
    let artifact_path = std::env::temp_dir().join(format!(
        "proteus_confidential_service_{}.prta",
        std::process::id()
    ));
    trained.save_artifact(&artifact_path)?;
    drop(trained);
    let warm = Instant::now();
    let proteus = Arc::new(Proteus::load_artifact_expecting(&artifact_path, &config)?);
    println!(
        "warm start: loaded trained state from {} in {:.1} ms (fingerprint {:#018x})",
        artifact_path.display(),
        warm.elapsed().as_secs_f64() * 1e3,
        proteus.config_fingerprint(),
    );
    let start = Instant::now();

    // trust boundary: ONE multiplexed stream each way -------------------
    let (to_service, service_inbox) = mpsc::channel::<bytes::Bytes>();
    let (to_owner, owner_inbox) = mpsc::channel::<bytes::Bytes>();

    std::thread::scope(
        |scope| -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
            // The optimizer party: a shared worker pool, one lane per request
            // id. It never sees the protected models, the plans, or the real
            // positions — only interleaved anonymized frames.
            scope.spawn(move || {
                let runtime = ServeRuntime::new(
                    Optimizer::new(Profile::OrtLike),
                    ServeConfig {
                        workers: 4,
                        window: 2,
                        ..Default::default()
                    },
                )
                .expect("runtime starts");
                let mut lanes: HashMap<u64, RequestHandle> = HashMap::new();
                let mut delivered: HashMap<u64, u32> = HashMap::new();
                let mut deliver = |rid: u64, frame: CompletedFrame| {
                    let count = delivered.entry(rid).or_default();
                    *count += 1;
                    println!(
                        "  [service] t={:>7.1}ms request {rid:#x} frame {count}/{} optimized",
                        start.elapsed().as_secs_f64() * 1e3,
                        frame.num_buckets,
                    );
                    // the sealed frame goes out as it is; the owner
                    // demultiplexer outlives this thread
                    let _ = to_owner.send(frame.wire);
                };
                for wire in service_inbox {
                    // demultiplex: a header-only peek names the lane; the
                    // lane's submit performs the full (checksum) decode
                    let rid = match peek_frame_request_id(&wire) {
                        Ok(rid) => rid,
                        Err(e) => {
                            eprintln!("  [service] rejecting frame: {e}");
                            continue;
                        }
                    };
                    let lane = lanes.entry(rid).or_insert_with(|| runtime.handle(rid));
                    if let Err(e) = lane.submit(wire) {
                        eprintln!("  [service] rejecting frame for {rid:#x}: {e}");
                    }
                    for (&rid, lane) in &lanes {
                        while let Some(frame) = lane.try_recv() {
                            deliver(rid, frame);
                        }
                    }
                }
                // input stream closed: drain each lane, blocking on its
                // next optimized frame while any is still in flight, then
                // taking the completed ones that are left
                for (&rid, lane) in &lanes {
                    while lane.in_flight() > 0 {
                        match lane.recv() {
                            Ok(frame) => deliver(rid, frame),
                            Err(e) => {
                                eprintln!("  [service] request {rid:#x} failed: {e}");
                                break;
                            }
                        }
                    }
                    while let Some(frame) = lane.try_recv() {
                        deliver(rid, frame);
                    }
                }
                let stats = runtime.stats();
                println!(
                    "  [service] pool done: {} workers, {} member tasks, max queue depth {}",
                    stats.workers, stats.tasks_executed, stats.max_queue_depth
                );
                // dropping `to_owner` closes the response stream
            });

            // owner-side demultiplexer: one response stream in, one channel
            // per client out
            let mut client_txs: HashMap<u64, mpsc::Sender<bytes::Bytes>> = HashMap::new();
            let mut client_rxs: HashMap<u64, mpsc::Receiver<bytes::Bytes>> = HashMap::new();
            for (rid, _) in CLIENTS {
                let (tx, rx) = mpsc::channel();
                client_txs.insert(rid, tx);
                client_rxs.insert(rid, rx);
            }
            scope.spawn(move || {
                for wire in owner_inbox {
                    let Ok(rid) = peek_frame_request_id(&wire) else {
                        eprintln!("[owner-demux] undecodable response frame");
                        continue;
                    };
                    let Some(tx) = client_txs.get(&rid) else {
                        eprintln!("[owner-demux] response for unknown request {rid:#x}");
                        continue;
                    };
                    let _ = tx.send(wire);
                }
            });

            // the tenants: generate frames, ship them over the SHARED stream,
            // reassemble from the demultiplexed responses
            let mut joins = Vec::new();
            for (rid, kind) in CLIENTS {
                let proteus = Arc::clone(&proteus);
                let to_service = to_service.clone();
                let responses = client_rxs.remove(&rid).expect("own channel");
                joins.push(scope.spawn(move || -> Result<(), proteus::ProteusError> {
                    let protected = build(kind);
                    println!(
                        "[client {rid:#x}] protecting {} ({} nodes)",
                        protected.name(),
                        protected.len()
                    );
                    let mut session =
                        proteus.obfuscate_session(&protected, &TensorMap::new(), rid)?;
                    let mut wire_bytes = 0usize;
                    while let Some(frame) = session.next_frame() {
                        let wire = frame.to_mux_bytes(rid);
                        wire_bytes += wire.len();
                        if to_service.send(wire).is_err() {
                            break;
                        }
                    }
                    drop(to_service); // this tenant's frames are all shipped
                    let secrets = session.finish()?;
                    let mut reassembly = DeobfuscationSession::new(&secrets);
                    while !reassembly.is_complete() {
                        let wire = responses
                            .recv()
                            .expect("service closed before completing the request");
                        reassembly.accept_mux_bytes(wire)?;
                    }
                    let (model, _params) = reassembly.finish()?;
                    model.validate()?;

                    // what did confidentiality cost this tenant?
                    let optimizer = Optimizer::new(Profile::OrtLike);
                    let unopt = optimizer.estimate_us(&protected)?;
                    let (best_graph, _, _) = optimizer.optimize(&protected, &TensorMap::new());
                    let best = optimizer.estimate_us(&best_graph)?;
                    let with_proteus = optimizer.estimate_us(&model)?;
                    println!(
                        "[client {rid:#x}] t={:>7.1}ms done: {} nodes, {wire_bytes} frame bytes, \
                     latency estimate {unopt:.0} -> {with_proteus:.0} us \
                     (best attainable {best:.0} us, overhead {:+.1}%)",
                        start.elapsed().as_secs_f64() * 1e3,
                        model.len(),
                        (with_proteus - best) / best * 100.0,
                    );
                    Ok(())
                }));
            }
            drop(to_service); // the scope's own sender
            for j in joins {
                j.join().expect("client thread").expect("client succeeds");
            }
            Ok(())
        },
    )
    .map_err(|e| -> Box<dyn std::error::Error> { e })?;

    println!(
        "\nall {} concurrent requests served over one multiplexed stream in {:.1}ms",
        CLIENTS.len(),
        start.elapsed().as_secs_f64() * 1e3
    );
    std::fs::remove_file(&artifact_path).ok();
    Ok(())
}
