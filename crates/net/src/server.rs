//! The serving daemon: accepts authenticated connections, demultiplexes
//! interleaved frames per connection by peeking the request id, and
//! streams each request through its own lane ([`RequestHandle`]) of one
//! shared [`ServeRuntime`].
//!
//! ## Threading and failure domains
//!
//! One accept thread blocks on the listener; each connection gets a
//! *reader* thread (socket → [`FrameReader`] → lane `submit_bytes`) and
//! a *writer* thread (lane `try_recv` → socket). The reader works one
//! socket read at a time: it drains every complete frame the read
//! finished, admits each in order, journals the admitted ones as one
//! durable batch (with a store), and only then submits them. The split
//! matters for backpressure: a reader blocked in `submit_bytes` (lane
//! window full) stops reading, TCP flow control propagates the stall to
//! the client, and the writer keeps draining completed frames the whole
//! time — so the window opens again and the system never deadlocks on a
//! full socket buffer in either direction.
//!
//! All socket writes after the handshake go through the writer thread;
//! the reader queues error frames for it instead of writing directly.
//! Frames are written whole or not at all, so a live server never emits
//! a torn frame — a client sees either a complete frame or a closed
//! connection.
//!
//! ## Admission control
//!
//! Three gates, each rejected with a typed error frame rather than a
//! reset: connection limit (at accept), tenant auth + version +
//! fingerprint (at handshake), and per-tenant concurrent-request quota
//! (at first frame of a new request id).
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] flags draining (new request ids are rejected
//! with [`ErrorCode::Shutdown`]), wakes the blocked accept with one
//! loopback dial so the listener closes, waits for in-flight
//! requests to finish within the grace period, then force-closes
//! stragglers. The runtime's queues are then drained and its workers
//! joined ([`ServeRuntime::shutdown`]) before the call returns.

use crate::codec::{FrameReader, FrameWriter, NetFrame};
use crate::error::{error_frame_for, NetError};
use crate::handshake::{
    check_hello_blob, read_hello_bytes, ClientHello, ServerHello, NET_PROTOCOL_VERSION,
};
use bytes::Bytes;
use proteus::serve::{RequestHandle, ServeRuntime};
use proteus::store::Store;
use proteus::SealedBucket;
use proteus_graph::wire::{
    encode_error_frame, peek_frame_request_id, ErrorCode, ErrorFrame, FRAME, WIRE_VERSION,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Lock, recovering the guard from a poisoned mutex: the shared state
/// is counters and registries, valid at every instant, so a panicking
/// peer thread must not wedge the rest of the server.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tenant's credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAuth {
    /// Tenant name (quota accounting key).
    pub tenant: String,
    /// The token the tenant authenticates with.
    pub token: String,
}

impl TenantAuth {
    /// Builds a credential.
    pub fn new(tenant: impl Into<String>, token: impl Into<String>) -> TenantAuth {
        TenantAuth {
            tenant: tenant.into(),
            token: token.into(),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free
    /// port; read it back from [`NetServer::local_addr`]).
    pub addr: String,
    /// Accepted tenant credentials. Empty means *no* client can
    /// authenticate — auth is never implicitly open.
    pub auth: Vec<TenantAuth>,
    /// Maximum concurrently-open client connections; `0` = unlimited.
    pub max_connections: usize,
    /// Maximum concurrently-active requests per tenant; `0` =
    /// unlimited.
    pub tenant_quota: usize,
    /// Free-form banner announced in the server hello.
    pub banner: String,
    /// Durable store to journal in-flight lanes into. Every frame a
    /// lane accepts is recorded before serving proceeds (one commit per
    /// socket read), and the lane is marked done after its last frame
    /// (or its error frame) is written — so a killed daemon restarted
    /// with the same store re-runs every lane whose client might not
    /// have its answer. `None` = no durability.
    pub store: Option<Arc<Store>>,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            addr: "127.0.0.1:0".to_string(),
            auth: Vec::new(),
            max_connections: 0,
            tenant_quota: 0,
            banner: "proteus-serve".to_string(),
            store: None,
        }
    }
}

/// Point-in-time server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections that passed the connection limit and were handed to
    /// a handler thread.
    pub connections_accepted: usize,
    /// Connections turned away at the limit.
    pub connections_rejected: usize,
    /// Handshakes rejected (bad auth, version, fingerprint, malformed).
    pub handshakes_rejected: usize,
    /// Requests whose every frame was optimized and written back.
    pub requests_completed: usize,
    /// Requests that ended with an error frame (admission rejections
    /// included).
    pub requests_failed: usize,
    /// Requests admitted and currently streaming (lane open).
    pub requests_active: usize,
    /// Connections currently open.
    pub active_connections: usize,
    /// Durable-journal appends that failed. Non-zero means the daemon
    /// kept serving with durability degraded: lanes opened after the
    /// first failure would not be replayed by a restart. The store
    /// itself stays consistent (failed appends roll back), so this is
    /// a health signal, not a corruption signal.
    pub journal_errors: usize,
}

struct Counters {
    connections_accepted: AtomicUsize,
    connections_rejected: AtomicUsize,
    handshakes_rejected: AtomicUsize,
    requests_completed: AtomicUsize,
    requests_failed: AtomicUsize,
    requests_active: AtomicUsize,
    active_connections: AtomicUsize,
    journal_errors: AtomicUsize,
}

struct ServerShared {
    runtime: ServeRuntime,
    config: NetServerConfig,
    /// token → tenant.
    tokens: HashMap<String, String>,
    fingerprint: u64,
    /// Set once: stop accepting, reject new request ids, drain.
    draining: AtomicBool,
    counters: Counters,
    /// Concurrently-active requests per tenant.
    tenant_active: Mutex<HashMap<String, usize>>,
    /// Each live connection's handler thread, with a clone of its socket
    /// for force-close on shutdown. Finished ones are reaped on the next
    /// accept, so a long-running daemon holds neither the thread nor the
    /// socket of a connection that has ended.
    connections: Mutex<Vec<(Option<TcpStream>, JoinHandle<()>)>>,
}

/// How a lane ended, for the completed/failed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneOutcome {
    Completed,
    Failed,
}

impl ServerShared {
    /// Counts a durable-journal append failure and logs the first one
    /// (stderr is the daemon's operational log). One line, not a flood:
    /// after the first failure the `journal_errors` stat is the signal,
    /// and a poisoned store rejects every later append with the same
    /// error anyway. Serving continues — durability is degraded, but a
    /// live answer still reaches the client.
    fn note_journal_error(&self, request_id: u64, what: &str, err: &proteus::store::StoreError) {
        let seen = self.counters.journal_errors.fetch_add(1, Ordering::SeqCst);
        if seen == 0 {
            eprintln!(
                "proteus-serve: durable {what} failed for request {request_id:#x}: {err} — \
                 serving continues with durability degraded (journal_errors in stats)"
            );
        }
    }

    fn release_tenant(&self, tenant: &str) {
        let mut map = relock(&self.tenant_active);
        if let Some(n) = map.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(tenant);
            }
        }
    }

    /// The single owner of every lane-teardown counter: the
    /// `requests_active` decrement, the tenant-quota release and the
    /// completed/failed counter. Takes the [`Lane`] by value — a lane
    /// can only be passed here once (removing it from the connection's
    /// map is what yields ownership), so the gauge can never
    /// double-decrement no matter how many teardown paths race. Cheap,
    /// so callers run it under the connection lock; the durable mark is
    /// [`ServerShared::mark_lanes_done`], after the lock.
    fn release_lane(&self, lane: Lane, outcome: LaneOutcome) {
        self.release_tenant(&lane.tenant);
        self.counters.requests_active.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            LaneOutcome::Completed => &self.counters.requests_completed,
            LaneOutcome::Failed => &self.counters.requests_failed,
        }
        .fetch_add(1, Ordering::SeqCst);
    }

    /// Marks released lanes done in the durable store, once their last
    /// frames have been written (or the connection is gone): the
    /// journaled lanes must not be re-run on restart. A crash before the
    /// mark only makes a restart re-run a lane whose answer was already
    /// sent, which is harmless. Journal failure must not take down live
    /// serving, but it must not be silent either — count and log it.
    fn mark_lanes_done(&self, request_ids: &[u64]) {
        if let Some(store) = &self.config.store {
            for &request_id in request_ids {
                if let Err(e) = store.finish_lane(request_id) {
                    self.note_journal_error(request_id, "lane-done mark", &e);
                }
            }
        }
    }
}

/// A running TCP serving daemon. Dropping the server shuts it down with
/// a short grace period; call [`NetServer::shutdown`] for an explicit
/// drain with a chosen budget.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field("fingerprint", &self.fingerprint)
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds and starts serving `runtime`'s lanes in background threads.
    ///
    /// # Errors
    /// [`NetError::Wire`] when the banner is too long for a hello,
    /// [`NetError::Io`] when the address cannot be bound.
    pub fn bind(
        runtime: ServeRuntime,
        fingerprint: u64,
        config: NetServerConfig,
    ) -> Result<NetServer, NetError> {
        check_hello_blob("server banner", &config.banner)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| NetError::io(format!("binding {}", config.addr), e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::io("reading bound address", e))?;
        let tokens = config
            .auth
            .iter()
            .map(|a| (a.token.clone(), a.tenant.clone()))
            .collect();
        let shared = Arc::new(ServerShared {
            runtime,
            config,
            tokens,
            fingerprint,
            draining: AtomicBool::new(false),
            counters: Counters {
                connections_accepted: AtomicUsize::new(0),
                connections_rejected: AtomicUsize::new(0),
                handshakes_rejected: AtomicUsize::new(0),
                requests_completed: AtomicUsize::new(0),
                requests_failed: AtomicUsize::new(0),
                requests_active: AtomicUsize::new(0),
                active_connections: AtomicUsize::new(0),
                journal_errors: AtomicUsize::new(0),
            },
            tenant_active: Mutex::new(HashMap::new()),
            connections: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("proteus-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| NetError::io("spawning accept thread", e))?;
        Ok(NetServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> NetServerStats {
        let c = &self.shared.counters;
        NetServerStats {
            connections_accepted: c.connections_accepted.load(Ordering::SeqCst),
            connections_rejected: c.connections_rejected.load(Ordering::SeqCst),
            handshakes_rejected: c.handshakes_rejected.load(Ordering::SeqCst),
            requests_completed: c.requests_completed.load(Ordering::SeqCst),
            requests_failed: c.requests_failed.load(Ordering::SeqCst),
            requests_active: c.requests_active.load(Ordering::SeqCst),
            active_connections: c.active_connections.load(Ordering::SeqCst),
            journal_errors: c.journal_errors.load(Ordering::SeqCst),
        }
    }

    /// Graceful drain: stop accepting, reject new request ids with
    /// [`ErrorCode::Shutdown`], let in-flight requests finish within
    /// `grace`, force-close whatever remains, join every thread, and
    /// drain the runtime ([`ServeRuntime::shutdown`]).
    ///
    /// Returns the final counters.
    pub fn shutdown(mut self, grace: Duration) -> NetServerStats {
        self.shutdown_inner(grace)
    }

    fn shutdown_inner(&mut self, grace: Duration) -> NetServerStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            // the accept thread blocks in `accept`: one dial wakes it, it
            // sees `draining` and exits, closing the listener. Should the
            // dial fail, the thread is left detached rather than joined
            // forever
            if wake_dial(self.local_addr).is_ok() {
                let _ = t.join();
            }
        }
        let deadline = Instant::now() + grace;
        while self
            .shared
            .counters
            .active_connections
            .load(Ordering::SeqCst)
            > 0
            && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(1));
        }
        // force-close stragglers; handler threads then exit on I/O error
        let connections: Vec<_> = relock(&self.shared.connections).drain(..).collect();
        for stream in connections.iter().filter_map(|(stream, _)| stream.as_ref()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, handler) in connections {
            let _ = handler.join();
        }
        self.shared.runtime.shutdown();
        self.stats()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner(Duration::from_secs(5));
        }
    }
}

/// Dials the listener at `addr` once, so a thread blocked in `accept`
/// returns. An unspecified bind address (`0.0.0.0`, `::`) is dialed on
/// loopback at the same port.
fn wake_dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    TcpStream::connect(SocketAddr::new(ip, addr.port()))
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let accepted = listener.accept();
        // shutdown's wake dial (or a client racing it) lands here once
        // `draining` is set: drop it and close the listener
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let limit = shared.config.max_connections;
                let active = shared.counters.active_connections.load(Ordering::SeqCst);
                if limit > 0 && active >= limit {
                    shared
                        .counters
                        .connections_rejected
                        .fetch_add(1, Ordering::SeqCst);
                    reject_connection(
                        stream,
                        ErrorCode::ConnectionLimit,
                        format!("server is at its connection limit of {limit}"),
                    );
                    continue;
                }
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::SeqCst);
                shared
                    .counters
                    .active_connections
                    .fetch_add(1, Ordering::SeqCst);
                let clone = stream.try_clone().ok();
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("proteus-net-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared
                            .counters
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                    });
                match spawned {
                    Ok(handle) => {
                        // reap the connections that have ended: join their
                        // threads and close the registry's socket clones
                        let ended: Vec<_> = {
                            let mut connections = relock(&shared.connections);
                            let (ended, live) = connections
                                .drain(..)
                                .partition(|(_, handler)| handler.is_finished());
                            *connections = live;
                            connections.push((clone, handle));
                            ended
                        };
                        for (_, handler) in ended {
                            let _ = handler.join();
                        }
                    }
                    Err(_) => {
                        // thread spawn failure: undo the accept accounting
                        shared
                            .counters
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            // a real accept error (EMFILE and the like): back off briefly
            // instead of spinning on it
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Answers a connection that never gets a handler thread (limit, or a
/// rejected handshake) with one typed error frame, then closes.
fn reject_connection(mut stream: TcpStream, code: ErrorCode, detail: String) {
    let frame = encode_error_frame(&ErrorFrame::new(0, code, detail));
    let _ = FrameWriter::new(&mut stream).write_frame(&frame);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One request's lane and its per-connection bookkeeping.
struct Lane {
    handle: RequestHandle,
    tenant: String,
    /// Frames from this connection that the lane accepted. A frame the
    /// lane refuses (corrupt, duplicate) is never counted, so at client
    /// EOF the lane drains once every accepted frame has come back.
    submitted: usize,
    /// Optimized frames written back to the client.
    delivered: usize,
    /// Total frames the request will produce, learned from the first
    /// completed bucket (every sealed bucket carries `num_buckets`).
    expected: Option<usize>,
    /// An error frame for this lane has been written; it is dead.
    failed: bool,
}

/// State shared between a connection's reader and writer threads.
struct ConnState {
    lanes: HashMap<u64, Lane>,
    /// Request ids rejected at admission — later frames for them are
    /// dropped without another error frame.
    rejected: HashSet<u64>,
    /// Error frames queued by the reader for the writer to send.
    errors: VecDeque<ErrorFrame>,
    /// The client half-closed (or the read side failed): no more
    /// submissions; drain and close.
    eof: bool,
    /// The connection is unusable (write failed): drop everything now.
    fatal: bool,
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new();

    // --- handshake ---
    let hello = match read_hello_bytes(&mut stream, &mut reader) {
        Ok(mut bytes) => match ClientHello::decode(&mut bytes) {
            Ok(hello) => hello,
            Err(e) => {
                shared
                    .counters
                    .handshakes_rejected
                    .fetch_add(1, Ordering::SeqCst);
                reject_connection(stream, ErrorCode::Protocol, format!("malformed hello: {e}"));
                return;
            }
        },
        Err(_) => {
            // peer vanished, or sent bytes that cannot open a hello (bad
            // magic, oversize blob): nothing it could read as an answer
            shared
                .counters
                .handshakes_rejected
                .fetch_add(1, Ordering::SeqCst);
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let rejection = if hello.net_protocol != NET_PROTOCOL_VERSION {
        Some((
            ErrorCode::VersionMismatch,
            format!(
                "client speaks net protocol {}, server speaks {}",
                hello.net_protocol, NET_PROTOCOL_VERSION
            ),
        ))
    } else if !FRAME.accepts(hello.wire_version) {
        Some((
            ErrorCode::VersionMismatch,
            format!(
                "client sends wire version {}, server accepts up to {}",
                hello.wire_version, WIRE_VERSION
            ),
        ))
    } else if shared.draining.load(Ordering::SeqCst) {
        Some((
            ErrorCode::Shutdown,
            "server is draining for shutdown".to_string(),
        ))
    } else {
        match shared.tokens.get(&hello.token) {
            None => Some((ErrorCode::BadAuth, "unknown tenant auth token".to_string())),
            Some(_) if hello.fingerprint != shared.fingerprint => Some((
                ErrorCode::FingerprintMismatch,
                format!(
                    "client expects artifact {:#018x}, server serves {:#018x}",
                    hello.fingerprint, shared.fingerprint
                ),
            )),
            Some(_) => None,
        }
    };
    if let Some((code, detail)) = rejection {
        shared
            .counters
            .handshakes_rejected
            .fetch_add(1, Ordering::SeqCst);
        reject_connection(stream, code, detail);
        return;
    }
    // tokens map hit is guaranteed by the rejection chain above
    let tenant = match shared.tokens.get(&hello.token) {
        Some(t) => t.clone(),
        None => return,
    };
    let server_hello = ServerHello::new(shared.fingerprint, shared.config.banner.clone());
    if FrameWriter::new(&mut stream)
        .write_frame(&server_hello.encode())
        .is_err()
    {
        return;
    }

    // --- frame exchange ---
    let state = Arc::new(Mutex::new(ConnState {
        lanes: HashMap::new(),
        rejected: HashSet::new(),
        errors: VecDeque::new(),
        eof: false,
        fatal: false,
    }));
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer_state = Arc::clone(&state);
    let writer_shared = Arc::clone(shared);
    let writer = match thread::Builder::new()
        .name("proteus-net-write".to_string())
        .spawn(move || writer_loop(writer_stream, &writer_state, &writer_shared))
    {
        Ok(handle) => handle,
        Err(_) => return,
    };

    reader_loop(&mut stream, &mut reader, &state, shared, &tenant);
    let _ = writer.join();
    // release anything still held (fatal teardown path)
    let released = release_all(&mut relock(&state), shared);
    shared.mark_lanes_done(&released);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Releases every lane still open on a connection that is going away,
/// returning their request ids for the lane-done marks. Dropping the
/// last handle clone cancels a lane: queued tasks detach and nothing is
/// ever written for it — it fails closed.
fn release_all(st: &mut ConnState, shared: &ServerShared) -> Vec<u64> {
    st.lanes
        .drain()
        .map(|(rid, lane)| {
            shared.release_lane(lane, LaneOutcome::Failed);
            rid
        })
        .collect()
}

/// Socket → frames → lanes. Runs on the connection's main thread.
fn reader_loop(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    state: &Arc<Mutex<ConnState>>,
    shared: &Arc<ServerShared>,
    tenant: &str,
) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // drain complete frames before blocking on the socket again; a
        // frame that ends the connection is handled after the frames
        // before it have been dispatched
        let (admitted, end) = drain_frames(reader, state, shared, tenant);
        dispatch(admitted, state, shared);
        if let Some(frame) = end {
            let mut st = relock(state);
            st.errors.push_back(frame);
            st.eof = true;
            return;
        }
        if relock(state).fatal {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                relock(state).eof = true;
                return;
            }
            Ok(n) => reader.push(&chunk[..n]),
            Err(_) => {
                let mut st = relock(state);
                st.eof = true;
                st.fatal = true;
                return;
            }
        }
    }
}

/// A data frame admitted to its lane, waiting to be journaled and
/// submitted.
struct Admitted {
    request_id: u64,
    handle: RequestHandle,
    raw: Bytes,
}

/// Drains every complete frame buffered in `reader`, admitting each data
/// frame in order. Returns the admitted frames and, when the drain ended
/// on something that must close the connection (a framing error, an
/// error frame from the client), the error frame to answer it with.
fn drain_frames(
    reader: &mut FrameReader,
    state: &Arc<Mutex<ConnState>>,
    shared: &Arc<ServerShared>,
    tenant: &str,
) -> (Vec<Admitted>, Option<ErrorFrame>) {
    let mut admitted = Vec::new();
    loop {
        match reader.try_next() {
            Ok(Some(NetFrame::Data(raw))) => match admit_frame(raw, state, shared, tenant) {
                Ok(Some(frame)) => admitted.push(frame),
                Ok(None) => {}
                Err(fatal) => return (admitted, Some(fatal)),
            },
            // clients have no business sending error frames; treat it
            // as a framing violation and close
            Ok(Some(NetFrame::Error(_))) => {
                let frame = ErrorFrame::new(0, ErrorCode::Protocol, "client sent an error frame");
                return (admitted, Some(frame));
            }
            Ok(None) => return (admitted, None),
            // unsynchronisable stream: report once, stop reading
            Err(e) => {
                return (
                    admitted,
                    Some(ErrorFrame::new(0, ErrorCode::Wire, e.to_string())),
                )
            }
        }
    }
}

/// Runs admission for one raw data frame: routes it to its lane,
/// opening the lane (through admission control) on the first frame of a
/// new request id. `Ok(None)` drops the frame — its request id was
/// rejected or its lane failed (any error frame is already queued) — and
/// `Err` carries the error frame of a failure that must end the
/// connection.
fn admit_frame(
    raw: Bytes,
    state: &Arc<Mutex<ConnState>>,
    shared: &Arc<ServerShared>,
    tenant: &str,
) -> Result<Option<Admitted>, ErrorFrame> {
    let request_id = peek_frame_request_id(&raw)
        .map_err(|e| ErrorFrame::new(0, ErrorCode::Wire, e.to_string()))?;
    // fast path: existing lane (the handle is cloned out so submit_bytes
    // — which can block on the backpressure window — runs without the
    // connection lock held)
    let existing = {
        let st = relock(state);
        if st.rejected.contains(&request_id) {
            return Ok(None); // already rejected; drop silently
        }
        match st.lanes.get(&request_id) {
            Some(lane) if lane.failed => return Ok(None),
            Some(lane) => Some(lane.handle.clone()),
            None => None,
        }
    };
    let handle = match existing {
        Some(h) => h,
        None => {
            // admission for a new request id
            let reject = |code: ErrorCode, detail: String| {
                let mut st = relock(state);
                st.rejected.insert(request_id);
                st.errors
                    .push_back(ErrorFrame::new(request_id, code, detail));
                shared
                    .counters
                    .requests_failed
                    .fetch_add(1, Ordering::SeqCst);
            };
            if shared.draining.load(Ordering::SeqCst) {
                reject(
                    ErrorCode::Shutdown,
                    "server is draining; request rejected".to_string(),
                );
                return Ok(None);
            }
            let quota = shared.config.tenant_quota;
            if quota > 0 {
                let mut map = relock(&shared.tenant_active);
                let n = map.entry(tenant.to_string()).or_insert(0);
                if *n >= quota {
                    drop(map);
                    reject(
                        ErrorCode::QuotaExceeded,
                        format!("tenant {tenant} is at its quota of {quota} concurrent requests"),
                    );
                    return Ok(None);
                }
                *n += 1;
            } else {
                *relock(&shared.tenant_active)
                    .entry(tenant.to_string())
                    .or_insert(0) += 1;
            }
            let handle = shared.runtime.handle(request_id);
            // the gauge goes up under the connection lock, so the writer
            // cannot release this lane before it is counted
            let mut st = relock(state);
            st.lanes.insert(
                request_id,
                Lane {
                    handle: handle.clone(),
                    tenant: tenant.to_string(),
                    submitted: 0,
                    delivered: 0,
                    expected: None,
                    failed: false,
                },
            );
            shared
                .counters
                .requests_active
                .fetch_add(1, Ordering::SeqCst);
            handle
        }
    };
    Ok(Some(Admitted {
        request_id,
        handle,
        raw,
    }))
}

/// Journals a drain's admitted frames as one durable batch, then submits
/// each to its lane in order. Journal *before* submitting: once a frame
/// can influence an answer the client might act on, it must survive a
/// daemon kill. A frame the lane then rejects (duplicate, corrupt) is
/// journaled too — harmless, since resume replays it into a lane that
/// rejects it identically. Journal failure must not take down live
/// serving (the store rolls a failed batch back, staying consistent),
/// but it is counted and logged — durability is degraded from here on.
fn dispatch(admitted: Vec<Admitted>, state: &Arc<Mutex<ConnState>>, shared: &Arc<ServerShared>) {
    if let (Some(store), Some(first)) = (&shared.config.store, admitted.first()) {
        let frames: Vec<(u64, &[u8])> = admitted
            .iter()
            .map(|a| (a.request_id, &a.raw[..]))
            .collect();
        if let Err(e) = store.record_lane_frames(&frames) {
            shared.note_journal_error(first.request_id, "frame journal", &e);
        }
    }
    for Admitted {
        request_id,
        handle,
        raw,
    } in admitted
    {
        let accepted = handle.submit_bytes(raw);
        let mut st = relock(state);
        match accepted {
            Ok(()) => {
                if let Some(lane) = st.lanes.get_mut(&request_id) {
                    lane.submitted += 1;
                }
            }
            // the lane survives a per-frame rejection (duplicate,
            // corrupt); the client learns which frame and why
            Err(e) => st.errors.push_back(error_frame_for(request_id, &e)),
        }
    }
}

/// Lanes → socket. Runs until the connection is finished: every lane
/// complete or failed, the reader at EOF, and the error queue flushed.
fn writer_loop(stream: TcpStream, state: &Arc<Mutex<ConnState>>, shared: &Arc<ServerShared>) {
    let mut writer = FrameWriter::new(&stream);
    loop {
        // collect work under the lock, encode and write outside it, so
        // the reader keeps dispatching while a large frame encodes
        let (errors, ready, released, done) = {
            let mut st = relock(state);
            let errors: Vec<ErrorFrame> = st.errors.drain(..).collect();
            let mut ready: Vec<(u64, SealedBucket)> = Vec::new();
            let mut failed: Vec<(u64, ErrorFrame)> = Vec::new();
            let mut completed: Vec<u64> = Vec::new();
            let eof = st.eof;
            for (&rid, lane) in st.lanes.iter_mut() {
                while let Some(bucket) = lane.handle.try_recv() {
                    lane.expected = Some(bucket.num_buckets as usize);
                    lane.delivered += 1;
                    ready.push((rid, bucket));
                }
                if let Some(err) = lane.handle.failure() {
                    if !lane.failed {
                        lane.failed = true;
                        failed.push((rid, error_frame_for(rid, &err)));
                    }
                    continue;
                }
                let complete = lane.expected.is_some_and(|e| lane.delivered == e);
                // at client EOF a lane that will never see its missing
                // frames (client bailed early) finishes once everything
                // actually submitted has come back
                let drained_at_eof =
                    eof && lane.delivered == lane.submitted && lane.handle.in_flight() == 0;
                if complete || drained_at_eof {
                    completed.push(rid);
                }
            }
            // lanes released in this pass; marked done once their
            // frames below are written
            let mut released = Vec::with_capacity(failed.len() + completed.len());
            for (rid, frame) in failed {
                st.errors.push_back(frame);
                if let Some(lane) = st.lanes.remove(&rid) {
                    shared.release_lane(lane, LaneOutcome::Failed);
                    released.push(rid);
                }
                st.rejected.insert(rid);
            }
            for rid in completed {
                if let Some(lane) = st.lanes.remove(&rid) {
                    let outcome = if lane.expected.is_some_and(|e| lane.delivered == e) {
                        LaneOutcome::Completed
                    } else {
                        // drained at EOF short of the full bucket count:
                        // the client abandoned the request mid-stream
                        LaneOutcome::Failed
                    };
                    shared.release_lane(lane, outcome);
                    released.push(rid);
                }
            }
            // take failure frames queued just above in the same pass
            let mut all_errors = errors;
            all_errors.extend(st.errors.drain(..));
            let finished = st.fatal || (st.eof && st.lanes.is_empty() && all_errors.is_empty());
            (all_errors, ready, released, finished)
        };
        let mut write_failed = false;
        for frame in &errors {
            if writer.write_frame(&encode_error_frame(frame)).is_err() {
                write_failed = true;
                break;
            }
        }
        if !write_failed {
            for (rid, bucket) in &ready {
                if writer.write_frame(&bucket.to_mux_bytes(*rid)).is_err() {
                    write_failed = true;
                    break;
                }
            }
        }
        if write_failed {
            // client is gone: fail closed — drop every lane (cancelling
            // queued work) and let the reader observe `fatal`
            let dropped = {
                let mut st = relock(state);
                st.fatal = true;
                release_all(&mut st, shared)
            };
            shared.mark_lanes_done(&released);
            shared.mark_lanes_done(&dropped);
            return;
        }
        // the released lanes' last frames are on the wire: mark them
        // done, outside the connection lock
        shared.mark_lanes_done(&released);
        if done {
            let _ = stream.shutdown(Shutdown::Write);
            return;
        }
        thread::sleep(Duration::from_micros(200));
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use proteus::ServeConfig;
    use proteus_opt::{Optimizer, Profile};

    /// A daemon keeps neither the thread nor the socket of a connection
    /// that has ended: each accept reaps the handlers that have exited,
    /// so the registry stays at the live connections, not every one ever
    /// served.
    #[test]
    fn ended_connections_are_reaped() {
        let config = ServeConfig {
            workers: 1,
            ..Default::default()
        };
        let runtime = ServeRuntime::new(Optimizer::new(Profile::OrtLike), config).unwrap();
        let server = NetServer::bind(runtime, 0, NetServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut dialed = 0;
        loop {
            // each connection closes at once; its handler ends on EOF
            drop(TcpStream::connect(addr).unwrap());
            dialed += 1;
            while server.stats().connections_accepted < dialed && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            let registered = relock(&server.shared.connections).len();
            if dialed >= 8 && registered <= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{registered} of {dialed} ended connections still registered"
            );
            thread::sleep(Duration::from_millis(20));
        }
        server.shutdown(Duration::from_secs(5));
    }
}
