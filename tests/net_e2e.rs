//! Loopback end-to-end coverage for the TCP serving boundary
//! (`proteus-net`): the deployed split must be **bit-identical** to the
//! in-process session path, and every rejection at the socket boundary
//! must surface as a *typed* value, never a silent disconnect.
//!
//! - zoo-wide multi-tenant parity: every model of the 13-model zoo,
//!   streamed over real sockets by concurrent tenants with interleaved
//!   request frames, reassembles to the same bytes as optimizing the
//!   same frames in-process;
//! - mid-stream client disconnect: the server lane fails closed (no
//!   partial frame escapes, the server stays healthy);
//! - a frame its lane refuses (corrupt, duplicate) followed by client
//!   EOF: the request fails typed, the connection closes and shutdown
//!   returns;
//! - bad auth / fingerprint mismatch / version skew: typed handshake
//!   rejections; a token or banner too long for a hello is refused
//!   locally, typed, before anything is sent;
//! - per-tenant quotas and connection limits: typed admission
//!   rejections;
//! - durable journal: a request pipelined in one write is journaled,
//!   marked done after its answer, and leaves a store that passes the
//!   fsck;
//! - graceful drain: in-flight requests complete through shutdown, new
//!   connections are refused after it; an idle server bound on an
//!   unspecified address shuts down promptly.
//!
//! CI runs this suite in release mode (the `net-e2e` job).

use proteus::store::Store;
use proteus::{
    DeobfuscationSession, PartitionSpec, Proteus, ProteusConfig, SealedBucket, ServeConfig,
    ServeRuntime,
};
use proteus_graph::wire::{ErrorCode, WireError};
use proteus_graph::TensorMap;
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, ModelKind};
use proteus_net::handshake::{read_hello_bytes, ClientHello, ServerHello, MAX_HELLO_BLOB};
use proteus_net::{
    FrameReader, FrameWriter, NetClient, NetError, NetFrame, NetRequest, NetServer,
    NetServerConfig, NetServerStats, TenantAuth,
};
use proteus_opt::{Optimizer, Profile};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn quick_config() -> ProteusConfig {
    ProteusConfig {
        k: 2,
        partitions: PartitionSpec::Count(3),
        graphrnn: GraphRnnConfig {
            epochs: 2,
            max_nodes: 20,
            ..Default::default()
        },
        topology_pool: 30,
        ..Default::default()
    }
}

/// One shared trained instance for the whole suite — training dominates
/// test wall-clock and every test only needs *a* trained owner/server
/// pair that agree on state.
fn shared_proteus() -> Arc<Proteus> {
    static SHARED: OnceLock<Arc<Proteus>> = OnceLock::new();
    Arc::clone(
        SHARED
            .get_or_init(|| Arc::new(Proteus::train(quick_config(), &[build(ModelKind::ResNet)]))),
    )
}

fn two_tenant_auth() -> Vec<TenantAuth> {
    vec![
        TenantAuth::new("alpha", "alpha-token"),
        TenantAuth::new("beta", "beta-token"),
    ]
}

/// A fresh serving runtime, the daemon's backend.
fn serve_runtime() -> ServeRuntime {
    ServeRuntime::new(
        Optimizer::new(Profile::OrtLike),
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("runtime spawns")
}

/// Spawns a loopback server backed by a fresh serving runtime over the
/// shared trained state.
fn spawn_server(config: NetServerConfig) -> NetServer {
    NetServer::bind(
        serve_runtime(),
        shared_proteus().config_fingerprint(),
        config,
    )
    .expect("server binds")
}

fn default_server() -> NetServer {
    spawn_server(NetServerConfig {
        auth: two_tenant_auth(),
        ..Default::default()
    })
}

/// Owner side of one request: session frames (wire bytes), the input
/// buckets (for the serial reference), and the reassembly secrets.
struct OwnedRequest {
    request: NetRequest,
    inputs: Vec<SealedBucket>,
    secrets: proteus::ObfuscationSecrets,
    kind: ModelKind,
}

fn owned_request(kind: ModelKind, request_id: u64) -> OwnedRequest {
    let proteus = shared_proteus();
    let g = build(kind);
    let mut session = proteus
        .obfuscate_session(&g, &TensorMap::new(), request_id)
        .expect("session opens");
    let mut inputs = Vec::with_capacity(session.num_buckets());
    let mut frames = Vec::with_capacity(session.num_buckets());
    while let Some(frame) = session.next_frame() {
        frames.push(frame.to_mux_bytes(request_id));
        inputs.push(frame);
    }
    let secrets = session.finish().expect("all frames emitted");
    OwnedRequest {
        request: NetRequest { request_id, frames },
        inputs,
        secrets,
        kind,
    }
}

/// The in-process reference: the same input frames optimized serially,
/// as sorted wire bytes (completion order is scheduling-dependent).
fn serial_reference(inputs: &[SealedBucket], request_id: u64) -> Vec<Vec<u8>> {
    let optimizer = Optimizer::new(Profile::OrtLike);
    let mut want: Vec<Vec<u8>> = inputs
        .iter()
        .map(|f| {
            f.optimize(&optimizer, Some(1))
                .to_mux_bytes(request_id)
                .to_vec()
        })
        .collect();
    want.sort();
    want
}

/// Asserts one response matches its serial reference bit-for-bit and
/// reassembles into a valid optimized graph.
fn assert_parity(owned: &OwnedRequest, frames: &[bytes::Bytes]) {
    let mut got: Vec<Vec<u8>> = frames.iter().map(|b| b.to_vec()).collect();
    got.sort();
    assert_eq!(
        got,
        serial_reference(&owned.inputs, owned.request.request_id),
        "remote wire bytes diverge from the in-process path on {} (rid {})",
        owned.kind.name(),
        owned.request.request_id
    );
    let mut reassembly = DeobfuscationSession::new(&owned.secrets);
    for raw in frames {
        reassembly
            .accept_mux_bytes(raw.clone())
            .expect("optimized frame accepted");
    }
    let (graph, _params) = reassembly.finish().expect("reassembly completes");
    graph.validate().expect("optimized graph validates");
}

// ---------------------------------------------------------------------------
// zoo-wide multi-tenant parity
// ---------------------------------------------------------------------------

#[test]
fn zoo_parity_multi_tenant_over_loopback() {
    let server = default_server();
    let addr = server.local_addr();
    let fingerprint = shared_proteus().config_fingerprint();

    // three concurrent tenant connections, each multiplexing a slice of
    // the zoo as interleaved request frames on one socket
    let slices: Vec<(&str, Vec<ModelKind>)> = vec![
        ("alpha-token", ModelKind::ALL[0..5].to_vec()),
        ("beta-token", ModelKind::ALL[5..9].to_vec()),
        ("alpha-token", ModelKind::ALL[9..13].to_vec()),
    ];
    let workers: Vec<std::thread::JoinHandle<()>> = slices
        .into_iter()
        .enumerate()
        .map(|(slot, (token, kinds))| {
            std::thread::spawn(move || {
                let owned: Vec<OwnedRequest> = kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &kind)| owned_request(kind, 1000 * (slot as u64 + 1) + i as u64))
                    .collect();
                let client = NetClient::connect(addr, token, fingerprint).expect("tenant connects");
                let responses = client
                    .run_requests(owned.iter().map(|o| o.request.clone()).collect())
                    .expect("wave completes");
                assert_eq!(responses.len(), owned.len());
                for (owned, response) in owned.iter().zip(&responses) {
                    let frames = response
                        .result
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{} failed remotely: {e}", owned.kind.name()));
                    assert_eq!(frames.len(), owned.inputs.len(), "{}", owned.kind.name());
                    assert_parity(owned, frames);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("tenant thread clean");
    }
    let stats = server.shutdown(Duration::from_secs(30));
    assert_eq!(stats.connections_accepted, 3);
    assert_eq!(stats.requests_completed, 13, "whole zoo served");
    assert_eq!(stats.requests_failed, 0);
    assert_eq!(stats.handshakes_rejected, 0);
}

// ---------------------------------------------------------------------------
// typed handshake rejections
// ---------------------------------------------------------------------------

#[test]
fn bad_auth_is_rejected_typed() {
    let server = default_server();
    let fingerprint = shared_proteus().config_fingerprint();
    let err = NetClient::connect(server.local_addr(), "wrong-token", fingerprint)
        .expect_err("bad token must not connect");
    assert_eq!(err.remote_code(), Some(ErrorCode::BadAuth), "{err}");
    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(stats.handshakes_rejected, 1);
    assert_eq!(stats.requests_completed, 0);
}

#[test]
fn fingerprint_mismatch_is_rejected_typed() {
    let server = default_server();
    let fingerprint = shared_proteus().config_fingerprint();
    let err = NetClient::connect(server.local_addr(), "alpha-token", fingerprint ^ 0xBAD)
        .expect_err("stale artifact expectation must not connect");
    assert_eq!(
        err.remote_code(),
        Some(ErrorCode::FingerprintMismatch),
        "{err}"
    );
    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(stats.handshakes_rejected, 1);
}

#[test]
fn net_protocol_version_skew_is_rejected_typed() {
    let server = default_server();
    let fingerprint = shared_proteus().config_fingerprint();
    // speak a future handshake version by hand
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut hello = ClientHello::new(fingerprint, "alpha-token");
    hello.net_protocol = 99;
    FrameWriter::new(&mut stream)
        .write_frame(&hello.encode())
        .expect("hello written");
    let mut reader = FrameReader::new();
    let reply = read_hello_bytes(&mut stream, &mut reader).expect("server answers");
    let mut buf = reply;
    let frame = proteus_graph::wire::decode_error_frame(&mut buf).expect("typed error frame");
    assert_eq!(frame.code, ErrorCode::VersionMismatch);
    assert_eq!(frame.request_id, 0, "connection-level failure");
    drop(stream);
    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(stats.handshakes_rejected, 1);
}

#[test]
fn oversize_token_is_refused_before_dialing() {
    let server = default_server();
    let fingerprint = shared_proteus().config_fingerprint();
    let token = "t".repeat(MAX_HELLO_BLOB + 1);
    let err = NetClient::connect(server.local_addr(), &token, fingerprint)
        .expect_err("a token the server cannot read must not be sent");
    assert!(
        matches!(err, NetError::Wire(WireError::Malformed { .. })),
        "{err}"
    );
    // the longest legal token still reaches the server (and is rejected
    // there, typed, as unknown)
    let err = NetClient::connect(server.local_addr(), &token[1..], fingerprint)
        .expect_err("unknown token");
    assert_eq!(err.remote_code(), Some(ErrorCode::BadAuth), "{err}");
    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(
        stats.connections_accepted, 1,
        "the oversize token never dialed"
    );
}

#[test]
fn oversize_banner_is_refused_at_bind() {
    let err = NetServer::bind(
        serve_runtime(),
        shared_proteus().config_fingerprint(),
        NetServerConfig {
            auth: two_tenant_auth(),
            banner: "b".repeat(MAX_HELLO_BLOB + 1),
            ..Default::default()
        },
    )
    .expect_err("a banner no client can read must not be served");
    assert!(
        matches!(err, NetError::Wire(WireError::Malformed { .. })),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// admission control
// ---------------------------------------------------------------------------

#[test]
fn tenant_quota_rejects_excess_concurrent_requests_typed() {
    let server = spawn_server(NetServerConfig {
        auth: two_tenant_auth(),
        tenant_quota: 1,
        ..Default::default()
    });
    let fingerprint = shared_proteus().config_fingerprint();
    let first = owned_request(ModelKind::AlexNet, 41);
    let second = owned_request(ModelKind::MobileNet, 42);
    let client = NetClient::connect(server.local_addr(), "alpha-token", fingerprint)
        .expect("tenant connects");
    // frames interleave on the wire, so request 42's first frame arrives
    // while 41 is still active — deterministic quota hit
    let responses = client
        .run_requests(vec![first.request.clone(), second.request.clone()])
        .expect("wave completes");
    let ok = responses[0].result.as_ref().expect("within quota");
    assert_parity(&first, ok);
    let err = responses[1]
        .result
        .as_ref()
        .expect_err("over quota must fail typed");
    assert_eq!(err.code, ErrorCode::QuotaExceeded);
    assert_eq!(err.request_id, 42);
    let stats = server.shutdown(Duration::from_secs(30));
    assert_eq!(stats.requests_completed, 1);
    assert_eq!(stats.requests_failed, 1);
}

#[test]
fn connection_limit_rejects_excess_connections_typed() {
    let server = spawn_server(NetServerConfig {
        auth: two_tenant_auth(),
        max_connections: 1,
        ..Default::default()
    });
    let fingerprint = shared_proteus().config_fingerprint();
    let first = NetClient::connect(server.local_addr(), "alpha-token", fingerprint)
        .expect("first connection admitted");
    let err = NetClient::connect(server.local_addr(), "beta-token", fingerprint)
        .expect_err("second connection must be turned away");
    assert_eq!(err.remote_code(), Some(ErrorCode::ConnectionLimit), "{err}");
    drop(first);
    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(stats.connections_rejected, 1);
}

// ---------------------------------------------------------------------------
// failure semantics on a live stream
// ---------------------------------------------------------------------------

#[test]
fn duplicate_frame_surfaces_typed_midstream() {
    let server = default_server();
    let fingerprint = shared_proteus().config_fingerprint();
    let owned = owned_request(ModelKind::AlexNet, 77);
    let mut frames = owned.request.frames.clone();
    frames.insert(1, frames[0].clone()); // resubmit bucket 0
    let client = NetClient::connect(server.local_addr(), "alpha-token", fingerprint)
        .expect("tenant connects");
    let err = client
        .run_request(77, frames)
        .expect_err("duplicate must surface");
    assert_eq!(err.remote_code(), Some(ErrorCode::DuplicateFrame), "{err}");
    server.shutdown(Duration::from_secs(30));
}

/// Shuts `server` down on its own thread and waits at most `limit` for
/// it, so a wedged connection fails the test instead of hanging it.
fn shutdown_within(server: NetServer, limit: Duration) -> NetServerStats {
    let (tx, rx) = mpsc::channel();
    let drain = std::thread::spawn(move || {
        let _ = tx.send(server.shutdown(Duration::from_secs(5)));
    });
    let stats = rx
        .recv_timeout(limit)
        .expect("shutdown must return instead of joining a wedged connection");
    drain.join().expect("shutdown thread clean");
    stats
}

/// Sends `frames` as request `rid` and half-closes, on a client thread
/// bounded by a timeout. A refused frame must fail the request typed and
/// let the lane drain at client EOF: the server closes the connection,
/// the client returns, and shutdown finds nothing active.
fn refused_frame_fails_typed_and_closes(rid: u64, frames: Vec<bytes::Bytes>) -> NetError {
    let server = default_server();
    let addr = server.local_addr();
    let fingerprint = shared_proteus().config_fingerprint();
    let (tx, rx) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let client = NetClient::connect(addr, "alpha-token", fingerprint).expect("tenant connects");
        let _ = tx.send(client.run_request(rid, frames));
    });
    let result = match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(result) => {
            client.join().expect("client thread clean");
            result
        }
        Err(_) => {
            // the wedged connection would hang the server's drop too:
            // leak it so the test fails instead of hanging
            std::mem::forget(server);
            panic!("rid {rid}: client still waiting 20 s after EOF; the lane never drained");
        }
    };
    let err = result.expect_err("the refused frame must fail the request");
    let stats = shutdown_within(server, Duration::from_secs(30));
    assert_eq!(stats.requests_active, 0, "lane left open: {stats:?}");
    assert_eq!(stats.requests_failed, 1, "{stats:?}");
    err
}

#[test]
fn corrupt_frame_then_eof_fails_typed_and_closes() {
    let owned = owned_request(ModelKind::AlexNet, 78);
    let mut frames = owned.request.frames.clone();
    assert!(frames.len() >= 3, "needs a frame after the corrupt one");
    let mut corrupt = frames[1].to_vec();
    *corrupt.last_mut().expect("non-empty frame") ^= 0xFF;
    frames[1] = corrupt.into();
    let err = refused_frame_fails_typed_and_closes(78, frames);
    assert_eq!(err.remote_code(), Some(ErrorCode::Wire), "{err}");
}

#[test]
fn duplicate_frame_then_eof_fails_typed_and_closes() {
    let owned = owned_request(ModelKind::AlexNet, 79);
    assert_eq!(owned.request.frames.len(), 3, "a 3-bucket request");
    let first = owned.request.frames[0].clone();
    let err = refused_frame_fails_typed_and_closes(79, vec![first.clone(), first]);
    assert_eq!(err.remote_code(), Some(ErrorCode::DuplicateFrame), "{err}");
}

#[test]
fn mid_stream_disconnect_fails_closed_and_server_survives() {
    let server = default_server();
    let addr = server.local_addr();
    let fingerprint = shared_proteus().config_fingerprint();
    let owned = owned_request(ModelKind::ResNet, 55);
    assert!(
        owned.request.frames.len() >= 2,
        "needs a multi-frame request"
    );

    // raw socket: handshake, submit ONE frame of the multi-frame
    // request, then vanish mid-stream
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        FrameWriter::new(&mut stream)
            .write_frame(&ClientHello::new(fingerprint, "alpha-token").encode())
            .expect("hello written");
        let mut reader = FrameReader::new();
        let mut reply = read_hello_bytes(&mut stream, &mut reader).expect("server hello");
        ServerHello::decode(&mut reply).expect("accepted");
        FrameWriter::new(&mut stream)
            .write_frame(&owned.request.frames[0])
            .expect("first frame written");
        // dropping the stream closes both halves abruptly
    }

    // the server must absorb the abandonment and keep serving: a full
    // request on a fresh connection still round-trips with parity
    let retry = owned_request(ModelKind::ResNet, 56);
    let client =
        NetClient::connect(addr, "beta-token", fingerprint).expect("server still accepting");
    let frames = client
        .run_request(56, retry.request.frames.clone())
        .expect("post-disconnect request completes");
    assert_parity(&retry, &frames);

    let stats = server.shutdown(Duration::from_secs(30));
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(
        stats.requests_completed, 1,
        "only the live request completes"
    );
    // the abandoned lane fails closed: it is torn down and counted,
    // with no partial frame ever written to anyone
    assert_eq!(stats.requests_failed, 1);
}

/// Regression for the `requests_active` gauge: lane teardown used to
/// decrement it at four scattered sites (post-join drain, failed-lane
/// removal, completed removal, write-failure drain), and a lane hitting
/// two of them would double-decrement — wrapping the `usize` gauge to
/// ~2^64 and wedging graceful drain forever. Teardown is now single-owned
/// (`release_lane` consumes the `Lane` by value), so after any mix of
/// completed, rejected, and abandoned lanes the gauge must settle at
/// exactly zero and never read as wrapped along the way.
#[test]
fn requests_active_settles_to_zero_after_mixed_outcomes() {
    let server = default_server();
    let addr = server.local_addr();
    let fingerprint = shared_proteus().config_fingerprint();

    // outcome 1: a request that completes normally
    let done = owned_request(ModelKind::MobileNet, 71);
    let client = NetClient::connect(addr, "alpha-token", fingerprint).expect("tenant connects");
    let frames = client
        .run_request(71, done.request.frames.clone())
        .expect("request completes");
    assert_parity(&done, &frames);

    // outcome 2: a request carrying a mid-stream per-frame rejection
    // (the duplicate is refused with a typed error, the lane survives
    // and still completes — exercising the error-queue path alongside
    // the completion teardown)
    let dup = owned_request(ModelKind::AlexNet, 72);
    let mut dup_frames = dup.request.frames.clone();
    dup_frames.insert(1, dup_frames[0].clone());
    let client = NetClient::connect(addr, "beta-token", fingerprint).expect("tenant connects");
    client
        .run_request(72, dup_frames)
        .expect_err("duplicate must surface to the client");

    // outcome 3: a lane abandoned by a mid-stream disconnect (torn down
    // by the post-join drain, not the writer loop)
    {
        let abandoned = owned_request(ModelKind::ResNet, 73);
        let mut stream = TcpStream::connect(addr).expect("connect");
        FrameWriter::new(&mut stream)
            .write_frame(&ClientHello::new(fingerprint, "alpha-token").encode())
            .expect("hello written");
        let mut reader = FrameReader::new();
        let mut reply = read_hello_bytes(&mut stream, &mut reader).expect("server hello");
        ServerHello::decode(&mut reply).expect("accepted");
        FrameWriter::new(&mut stream)
            .write_frame(&abandoned.request.frames[0])
            .expect("first frame written");
        // dropping the stream abandons the lane mid-request
    }

    // every lane above is torn down exactly once: the gauge drains to 0
    // and never wraps (a double-decrement reads as ~2^64, caught by the
    // sanity bound on every observation)
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let active = server.stats().requests_active;
        assert!(
            active <= 3,
            "requests_active read {active}: gauge wrapped past zero"
        );
        if active == 0 && server.stats().active_connections == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gauge never settled: requests_active still {active}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let stats = server.shutdown(Duration::from_secs(30));
    assert_eq!(stats.requests_active, 0, "gauge must end at exactly zero");
    assert_eq!(
        stats.requests_completed, 2,
        "clean + duplicate-carrying lanes both complete"
    );
    assert_eq!(stats.requests_failed, 1, "the abandoned lane fails closed");
}

// ---------------------------------------------------------------------------
// durable journal
// ---------------------------------------------------------------------------

/// With a store, the frames one socket read delivers are journaled as
/// one batch before they are submitted, and the lane is marked done
/// after its answer is written: a request pipelined in a single write
/// leaves genesis + one record per frame + one lane-done mark, no
/// pending lane, and a store that passes the fsck.
#[test]
fn durable_server_journals_a_pipelined_request_and_marks_it_done() {
    use std::io::{Read, Write};
    let dir = std::env::temp_dir().join(format!("proteus-net-e2e-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open_or_create(&dir).expect("store creates");
    let store = Arc::new(store);
    let server = spawn_server(NetServerConfig {
        auth: two_tenant_auth(),
        store: Some(Arc::clone(&store)),
        ..Default::default()
    });
    let fingerprint = shared_proteus().config_fingerprint();
    let owned = owned_request(ModelKind::ResNet, 81);
    let n = owned.request.frames.len();
    assert!(n >= 2, "needs a multi-frame request");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    FrameWriter::new(&mut stream)
        .write_frame(&ClientHello::new(fingerprint, "alpha-token").encode())
        .expect("hello written");
    let mut reader = FrameReader::new();
    let mut reply = read_hello_bytes(&mut stream, &mut reader).expect("server hello");
    ServerHello::decode(&mut reply).expect("accepted");
    let pipelined: Vec<u8> = owned
        .request
        .frames
        .iter()
        .flat_map(|f| f.to_vec())
        .collect();
    stream.write_all(&pipelined).expect("frames written");

    let mut frames = Vec::with_capacity(n);
    let mut chunk = [0u8; 16 * 1024];
    while frames.len() < n {
        match reader.try_next().expect("well-framed reply") {
            Some(NetFrame::Data(raw)) => frames.push(raw),
            Some(NetFrame::Error(e)) => panic!("request failed remotely: {e:?}"),
            None => {
                let read = stream.read(&mut chunk).expect("reply read");
                assert!(read > 0, "server closed after {} frames", frames.len());
                reader.push(&chunk[..read]);
            }
        }
    }
    assert_parity(&owned, &frames);
    drop(stream);

    // shutdown joins the connection, so its lane-done mark has landed
    let stats = server.shutdown(Duration::from_secs(30));
    assert_eq!(stats.requests_completed, 1);
    assert_eq!(stats.journal_errors, 0);
    assert_eq!(store.records(), 1 + n as u64 + 1, "genesis + frames + done");
    assert!(store.pending_lanes().is_empty(), "lane left pending");
    let report = Store::verify(&dir).expect("store passes the fsck");
    assert_eq!(report.pending_lanes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// graceful drain
// ---------------------------------------------------------------------------

#[test]
fn graceful_drain_completes_in_flight_requests() {
    let server = default_server();
    let addr = server.local_addr();
    let fingerprint = shared_proteus().config_fingerprint();

    // a request big enough to still be in flight when shutdown begins
    let owned = owned_request(ModelKind::DenseNet, 91);
    let in_flight = std::thread::spawn(move || {
        let client = NetClient::connect(addr, "alpha-token", fingerprint).expect("tenant connects");
        let frames = client
            .run_request(91, owned.request.frames.clone())
            .expect("in-flight request completes through the drain");
        assert_parity(&owned, &frames);
    });
    // wait until the request's lane is actually admitted (connection
    // counts alone race the first frame's dispatch), then drain
    while server.stats().requests_active == 0 && server.stats().requests_completed == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.shutdown(Duration::from_secs(30));
    in_flight.join().expect("client thread clean");
    assert_eq!(stats.requests_completed, 1);
    assert_eq!(stats.active_connections, 0);

    // after shutdown the listener is gone: new connections are refused
    // by the OS, not left hanging
    assert!(
        NetClient::connect(addr, "alpha-token", fingerprint).is_err(),
        "post-shutdown connect must fail"
    );
}

/// The accept thread blocks in `accept`; shutdown wakes it with one
/// dial. On an unspecified bind address the dial goes to loopback, and
/// a server that never saw traffic still shuts down promptly.
#[test]
fn idle_server_on_unspecified_address_shuts_down_promptly() {
    let server = spawn_server(NetServerConfig {
        addr: "0.0.0.0:0".to_string(),
        auth: two_tenant_auth(),
        ..Default::default()
    });
    assert!(server.local_addr().ip().is_unspecified());
    let stats = shutdown_within(server, Duration::from_secs(10));
    assert_eq!(
        stats.connections_accepted, 0,
        "the wake dial is not a client"
    );
}
