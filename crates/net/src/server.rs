//! The serving daemon: accepts authenticated connections, demultiplexes
//! interleaved frames per connection by peeking the request id, and
//! streams each request through its own lane ([`RequestHandle`]) of one
//! shared [`ServeRuntime`].
//!
//! ## Threading and failure domains
//!
//! One accept thread blocks on the listener; each connection gets a
//! *reader* thread (socket → [`FrameReader`] → lane `submit`) and
//! a *writer* thread (lanes → socket, writing each completed frame's
//! sealed bytes as the lane produced them). The reader works one socket read
//! at a time: it drains every complete frame the read finished, admits
//! each in order, journals the admitted ones as one durable batch (with
//! a store), and only then submits them.
//!
//! The writer alone owns the connection's lanes, and it sleeps until
//! told. The reader sends it events on one channel: a lane opened, a
//! frame submitted, a frame refused, the read ended. Each lane's runtime
//! wake-up ([`ServeRuntime::handle_waking`]) sends "lane has news" on the
//! same channel when a frame completes or the lane fails or closes. A
//! lane is Streaming, then Draining once the reader has stopped, and
//! ends exactly once — Completed, Failed or Cancelled — in one
//! transition that releases its quota and gauge, counts it, and marks it
//! done in the store after its last frame is written. The writer tells
//! the reader of each end before that frame goes out, so a late frame
//! for an answered request id is refused instead of reopening it.
//!
//! The split matters for backpressure: a reader blocked in
//! `submit` (lane window full) stops reading, TCP flow control
//! propagates the stall to the client, and the writer keeps draining
//! completed frames the whole time, since it never waits on the reader.
//! So the window opens again and the system never deadlocks on a full
//! socket buffer in either direction.
//!
//! All socket writes after the handshake go through the writer thread.
//! Frames are written whole or not at all, so a live server never emits
//! a torn frame — a client sees either a complete frame or a closed
//! connection. A failed write cancels every lane of the connection.
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
//! loopback dial so the listener closes, sleeps until the last
//! connection closes or the grace period runs out, then force-closes
//! stragglers. The runtime's queues are then drained and its workers
//! joined ([`ServeRuntime::shutdown`]) before the call returns.

use crate::codec::{FrameReader, FrameWriter, NetFrame};
use crate::error::{error_frame_for, NetError};
use crate::handshake::{read_hello_bytes, ClientHello, ServerHello, NET_PROTOCOL_VERSION};
use bytes::Bytes;
use proteus::serve::{RequestHandle, ServeRuntime, ServeStats};
use proteus::store::Store;
use proteus_graph::wire::{
    encode_error_frame, peek_frame_request_id, ErrorCode, ErrorFrame, WIRE_VERSION,
};
use std::collections::HashMap;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

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
    journal_errors: AtomicUsize,
}

struct ServerShared {
    runtime: ServeRuntime,
    config: NetServerConfig,
    /// token → tenant.
    tokens: HashMap<String, String>,
    fingerprint: u64,
    /// The encoded [`ServerHello`] every accepted connection is answered
    /// with.
    hello: Bytes,
    /// Set once: stop accepting, reject new request ids, drain.
    draining: AtomicBool,
    counters: Counters,
    /// Concurrently-active requests per tenant.
    tenant_active: Mutex<HashMap<String, usize>>,
    /// Connections currently open; `live_cv` signals each close, so a
    /// draining shutdown sleeps until the count reaches zero.
    live: Mutex<usize>,
    live_cv: Condvar,
    /// Each live connection's handler thread, with a clone of its socket
    /// for force-close on shutdown. Finished ones are reaped on the next
    /// accept, so a long-running daemon holds neither the thread nor the
    /// socket of a connection that has ended.
    connections: Mutex<Vec<(Option<TcpStream>, JoinHandle<()>)>>,
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

    fn connection_closed(&self) {
        *relock(&self.live) -= 1;
        self.live_cv.notify_all();
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
        let hello = ServerHello::new(fingerprint, config.banner.clone()).encode()?;
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
            hello,
            draining: AtomicBool::new(false),
            counters: Counters {
                connections_accepted: AtomicUsize::new(0),
                connections_rejected: AtomicUsize::new(0),
                handshakes_rejected: AtomicUsize::new(0),
                requests_completed: AtomicUsize::new(0),
                requests_failed: AtomicUsize::new(0),
                requests_active: AtomicUsize::new(0),
                journal_errors: AtomicUsize::new(0),
            },
            tenant_active: Mutex::new(HashMap::new()),
            live: Mutex::new(0),
            live_cv: Condvar::new(),
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
            active_connections: *relock(&self.shared.live),
            journal_errors: c.journal_errors.load(Ordering::SeqCst),
        }
    }

    /// Point-in-time counters of the serving runtime behind the daemon:
    /// its worker pool and optimized-member cache.
    pub fn serve_stats(&self) -> ServeStats {
        self.shared.runtime.stats()
    }

    /// Blocks until at least one connection has been accepted and none is
    /// open — the end of a one-client session. It sleeps on the open
    /// connection count, which every close signals.
    pub fn wait_served_and_idle(&self) {
        let shared = &self.shared;
        let accepted = || shared.counters.connections_accepted.load(Ordering::SeqCst) > 0;
        let live = relock(&shared.live);
        let waiting = |live: &mut usize| *live > 0 || !accepted();
        drop(shared.live_cv.wait_while(live, waiting));
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
        let live = relock(&self.shared.live);
        let _ = self
            .shared
            .live_cv
            .wait_timeout_while(live, grace, |live| *live > 0);
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
                let mut live = relock(&shared.live);
                if limit > 0 && *live >= limit {
                    drop(live);
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
                *live += 1;
                drop(live);
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::SeqCst);
                let clone = stream.try_clone().ok();
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("proteus-net-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared.connection_closed();
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
                    // thread spawn failure: undo the accept accounting
                    Err(_) => shared.connection_closed(),
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

/// What a connection's reader, and each of its lanes, tell the
/// connection's writer — the only way anything reaches the lanes, which
/// the writer alone owns.
enum Event {
    /// The reader admitted a new request id and opened its lane.
    Opened(u64, RequestHandle),
    /// The lane accepted one more of the client's frames.
    Submitted(u64),
    /// An error frame to send: a frame the reader or its lane refused.
    Refused(ErrorFrame),
    /// The lane changed: a frame completed, or it failed or closed.
    News(u64),
    /// The reader stopped: at client EOF, after a frame that ends the
    /// connection, or (`broken`) because the socket failed.
    ReadEnded { broken: bool },
}

/// Where a lane is in its life. It streams while the client may still
/// send its frames and drains once the reader has stopped; it then ends
/// exactly once — completed, failed or cancelled — in [`Writer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    Streaming,
    Draining,
    Completed,
    Failed,
    Cancelled,
}

/// One request's lane, owned by the connection's writer.
struct Lane {
    handle: RequestHandle,
    /// `Streaming` or `Draining`: a lane that ends leaves the map.
    state: LaneState,
    /// Frames the lane accepted (a refused frame is never counted), so a
    /// draining lane ends once every accepted frame has come back.
    submitted: usize,
    /// Optimized frames written back to the client.
    delivered: usize,
    /// Frames the answer has: every sealed bucket carries `num_buckets`.
    expected: Option<usize>,
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
    } else if hello.wire_version != WIRE_VERSION {
        Some((
            ErrorCode::VersionMismatch,
            format!(
                "client sends wire version {}, server speaks {}",
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
    if FrameWriter::new(&mut stream)
        .write_frame(&shared.hello)
        .is_err()
    {
        return;
    }

    // --- frame exchange ---
    let (events, inbox) = mpsc::channel();
    let (ended_tx, ended) = mpsc::channel();
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let writer = Writer {
        out: Out {
            stream: writer_stream,
            broken: false,
        },
        shared: Arc::clone(shared),
        tenant: tenant.clone(),
        lanes: HashMap::new(),
        ended: ended_tx,
    };
    let Ok(writer) = thread::Builder::new()
        .name("proteus-net-write".to_string())
        .spawn(move || writer.run(&inbox))
    else {
        return;
    };
    Reader {
        shared,
        tenant: &tenant,
        known: HashMap::new(),
        events,
        ended,
    }
    .run(&mut stream, &mut reader);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

/// What the reader knows of a request id it has seen on this connection.
enum Known {
    /// Admitted: the id's frames go to this lane.
    Open(RequestHandle),
    /// Answered in full: a later frame for the id is refused.
    Answered,
    /// Rejected at admission, or its lane failed: the client has its
    /// error frame, and later frames are dropped without another.
    Dropped,
}

/// Socket → frames → lanes. Runs on the connection's own thread.
struct Reader<'a> {
    shared: &'a ServerShared,
    tenant: &'a str,
    known: HashMap<u64, Known>,
    /// Send results are ignored: the writer outlives the reader.
    events: Sender<Event>,
    /// Lanes the writer has ended, each sent before its last frame is
    /// written, so a client holding the answer can only meet the refusal.
    ended: Receiver<(u64, Known)>,
}

/// A data frame admitted to its lane, waiting to be journaled and
/// submitted.
struct Admitted {
    request_id: u64,
    handle: RequestHandle,
    raw: Bytes,
}

impl Reader<'_> {
    fn run(mut self, stream: &mut TcpStream, reader: &mut FrameReader) {
        let mut chunk = [0u8; 16 * 1024];
        let broken = loop {
            while let Ok((request_id, known)) = self.ended.try_recv() {
                self.known.insert(request_id, known);
            }
            // drain complete frames before blocking on the socket again; a
            // frame that ends the connection is answered after the frames
            // before it have been dispatched
            let (admitted, end) = self.drain_frames(reader);
            self.dispatch(admitted);
            if let Some(frame) = end {
                let _ = self.events.send(Event::Refused(frame));
                break false;
            }
            match stream.read(&mut chunk) {
                Ok(0) => break false,
                Ok(n) => reader.push(&chunk[..n]),
                Err(_) => break true,
            }
        };
        let _ = self.events.send(Event::ReadEnded { broken });
    }

    /// Drains every complete frame buffered in `reader`, admitting each
    /// data frame in order. Returns the admitted frames and, when the
    /// drain ended on something that must close the connection (a framing
    /// error, an error frame from the client), the error frame to answer
    /// it with.
    fn drain_frames(&mut self, reader: &mut FrameReader) -> (Vec<Admitted>, Option<ErrorFrame>) {
        let mut admitted = Vec::new();
        loop {
            match reader.try_next() {
                Ok(Some(NetFrame::Data(raw))) => match self.admit(raw) {
                    Ok(Some(frame)) => admitted.push(frame),
                    Ok(None) => {}
                    Err(fatal) => return (admitted, Some(fatal)),
                },
                // clients have no business sending error frames; treat it
                // as a framing violation and close
                Ok(Some(NetFrame::Error(_))) => {
                    let frame =
                        ErrorFrame::new(0, ErrorCode::Protocol, "client sent an error frame");
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
    /// opening the lane (through admission control) on the first frame of
    /// a new request id. `Ok(None)` drops the frame — its request id was
    /// rejected, failed or answered (any error frame is already sent to
    /// the writer) — and `Err` carries the error frame of a failure that
    /// must end the connection.
    fn admit(&mut self, raw: Bytes) -> Result<Option<Admitted>, ErrorFrame> {
        let request_id = peek_frame_request_id(&raw)
            .map_err(|e| ErrorFrame::new(0, ErrorCode::Wire, e.to_string()))?;
        let handle = match self.known.get(&request_id) {
            Some(Known::Open(handle)) => handle.clone(),
            Some(Known::Dropped) => return Ok(None),
            Some(Known::Answered) => {
                let _ = self.events.send(Event::Refused(ErrorFrame::new(
                    request_id,
                    ErrorCode::Protocol,
                    format!("request {request_id:#x} was already answered on this connection"),
                )));
                return Ok(None);
            }
            None => match self.open(request_id) {
                Some(handle) => handle,
                None => return Ok(None),
            },
        };
        Ok(Some(Admitted {
            request_id,
            handle,
            raw,
        }))
    }

    /// Admission for a new request id: the drain and quota gates, then a
    /// lane whose every change wakes the writer. `None` when the id is
    /// rejected (its error frame is sent to the writer).
    fn open(&mut self, request_id: u64) -> Option<RequestHandle> {
        let shared = self.shared;
        let quota = shared.config.tenant_quota;
        let rejection = if shared.draining.load(Ordering::SeqCst) {
            Some((
                ErrorCode::Shutdown,
                "server is draining; request rejected".to_string(),
            ))
        } else {
            let mut map = relock(&shared.tenant_active);
            let n = map.entry(self.tenant.to_string()).or_insert(0);
            if quota > 0 && *n >= quota {
                Some((
                    ErrorCode::QuotaExceeded,
                    format!(
                        "tenant {} is at its quota of {quota} concurrent requests",
                        self.tenant
                    ),
                ))
            } else {
                *n += 1;
                None
            }
        };
        if let Some((code, detail)) = rejection {
            self.known.insert(request_id, Known::Dropped);
            shared
                .counters
                .requests_failed
                .fetch_add(1, Ordering::SeqCst);
            let _ = self
                .events
                .send(Event::Refused(ErrorFrame::new(request_id, code, detail)));
            return None;
        }
        let events = self.events.clone();
        let handle = shared.runtime.handle_waking(request_id, move || {
            let _ = events.send(Event::News(request_id));
        });
        // counted before the writer can see the lane, so the writer's
        // release can never run first
        shared
            .counters
            .requests_active
            .fetch_add(1, Ordering::SeqCst);
        let _ = self.events.send(Event::Opened(request_id, handle.clone()));
        self.known.insert(request_id, Known::Open(handle.clone()));
        Some(handle)
    }

    /// Journals a drain's admitted frames as one durable batch, then
    /// submits each to its lane in order. Journal *before* submitting:
    /// once a frame can influence an answer the client might act on, it
    /// must survive a daemon kill. A frame the lane then rejects
    /// (duplicate, corrupt) is journaled too — harmless, since resume
    /// replays it into a lane that rejects it identically. Journal failure
    /// must not take down live serving (the store rolls a failed batch
    /// back, staying consistent), but it is counted and logged —
    /// durability is degraded from here on.
    fn dispatch(&self, admitted: Vec<Admitted>) {
        let shared = self.shared;
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
            // the lane survives a per-frame rejection (duplicate,
            // corrupt); the client learns which frame and why
            let _ = self.events.send(match handle.submit(raw) {
                Ok(()) => Event::Submitted(request_id),
                Err(e) => Event::Refused(error_frame_for(request_id, &e)),
            });
        }
    }
}

/// Lanes → socket. The connection's lanes live here and nowhere else;
/// the writer sleeps on its event channel until someone has news for it.
struct Writer {
    out: Out,
    shared: Arc<ServerShared>,
    tenant: String,
    lanes: HashMap<u64, Lane>,
    ended: Sender<(u64, Known)>,
}

/// The socket's write half. A failed write breaks it: the client is
/// gone, nothing more is written, and the writer cancels every lane.
struct Out {
    stream: TcpStream,
    broken: bool,
}

impl Out {
    /// Writes one frame whole, unless the socket already failed. A failed
    /// write shuts the socket, which also wakes a reader blocked on it.
    fn write(&mut self, frame: &[u8]) {
        if !self.broken && FrameWriter::new(&self.stream).write_frame(frame).is_err() {
            self.broken = true;
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

impl Writer {
    /// Runs until the reader has stopped and every lane has ended. After
    /// a failed write it keeps consuming events until the reader stops,
    /// so a lane opened meanwhile is still cancelled and released.
    fn run(mut self, inbox: &Receiver<Event>) {
        let mut reading = true;
        while reading || !self.lanes.is_empty() {
            // every live lane's waker holds a sender, so the channel
            // closes only once nothing can reach this writer again
            let Ok(event) = inbox.recv() else { break };
            match event {
                Event::Opened(request_id, handle) => {
                    let lane = Lane {
                        handle,
                        state: LaneState::Streaming,
                        submitted: 0,
                        delivered: 0,
                        expected: None,
                    };
                    self.lanes.insert(request_id, lane);
                }
                Event::Submitted(request_id) => {
                    if let Some(lane) = self.lanes.get_mut(&request_id) {
                        lane.submitted += 1;
                    }
                }
                Event::Refused(frame) => self.out.write(&encode_error_frame(&frame)),
                Event::News(request_id) => self.advance(request_id),
                Event::ReadEnded { broken } => {
                    reading = false;
                    self.out.broken |= broken;
                    for lane in self.lanes.values_mut() {
                        lane.state = LaneState::Draining;
                    }
                    let open: Vec<u64> = self.lanes.keys().copied().collect();
                    for request_id in open {
                        self.advance(request_id);
                    }
                }
            }
            if self.out.broken {
                let open: Vec<u64> = self.lanes.keys().copied().collect();
                for request_id in open {
                    self.end(request_id, LaneState::Cancelled, Vec::new());
                }
            }
        }
        let _ = self.out.stream.shutdown(Shutdown::Write);
    }

    /// Moves a lane on after news: writes the frames it completed, and ends
    /// it once it is answered, has failed, or is draining with every
    /// accepted frame back (the client stopped short, nothing more comes).
    fn advance(&mut self, request_id: u64) {
        // news for a lane that has already ended is stale
        let Some(lane) = self.lanes.get_mut(&request_id) else {
            return;
        };
        // the frame that completes the answer goes out in `end`, once the
        // reader has been told
        let mut last = Vec::new();
        while let Some(frame) = lane.handle.try_recv() {
            lane.expected = Some(frame.num_buckets as usize);
            lane.delivered += 1;
            if lane.expected == Some(lane.delivered) {
                last.push(frame.wire);
            } else {
                self.out.write(&frame.wire);
            }
        }
        let end = if let Some(err) = lane.handle.failure() {
            last.push(encode_error_frame(&error_frame_for(request_id, &err)));
            Some(LaneState::Failed)
        } else if lane.expected == Some(lane.delivered) {
            Some(LaneState::Completed)
        } else if lane.state == LaneState::Draining && lane.delivered == lane.submitted {
            Some(LaneState::Failed)
        } else {
            None
        };
        match end {
            Some(state) => self.end(request_id, state, last),
            None => last.iter().for_each(|frame| self.out.write(frame)),
        }
    }

    /// Ends a lane in `state` (`Completed`, `Failed` or `Cancelled`) and
    /// writes its `last` frames: the one place a lane leaves, so its
    /// gauge, quota and outcome counter move exactly once. The reader is
    /// told and the quota freed before those frames go out; the durable
    /// lane-done mark follows them (a crash in between only re-runs a lane
    /// whose answer was sent, which is harmless).
    fn end(&mut self, request_id: u64, state: LaneState, last: Vec<Bytes>) {
        if self.lanes.remove(&request_id).is_none() {
            return;
        }
        // on a broken connection nothing more reaches the client
        let answered = state == LaneState::Completed && !self.out.broken;
        let counters = &self.shared.counters;
        let (known, outcome) = if answered {
            (Known::Answered, &counters.requests_completed)
        } else {
            (Known::Dropped, &counters.requests_failed)
        };
        let _ = self.ended.send((request_id, known));
        self.shared.release_tenant(&self.tenant);
        counters.requests_active.fetch_sub(1, Ordering::SeqCst);
        outcome.fetch_add(1, Ordering::SeqCst);
        for frame in &last {
            self.out.write(frame);
        }
        // journal failure must not take down live serving, but it must not
        // be silent either
        let shared = &self.shared;
        if let Some(store) = &shared.config.store {
            if let Err(e) = store.finish_lane(request_id) {
                shared.note_journal_error(request_id, "lane-done mark", &e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use proteus::ServeConfig;
    use proteus_opt::{Optimizer, Profile};
    use std::time::Instant;

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

    /// The one-client wait does not return before a connection has come,
    /// nor while it is open, and returns once it closes.
    #[test]
    fn served_and_idle_waits_for_the_only_connection_to_close() {
        let config = ServeConfig {
            workers: 1,
            ..Default::default()
        };
        let runtime = ServeRuntime::new(Optimizer::new(Profile::OrtLike), config).unwrap();
        let server = Arc::new(NetServer::bind(runtime, 0, NetServerConfig::default()).unwrap());
        let (done, returned) = std::sync::mpsc::channel();
        let waiter = {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                server.wait_served_and_idle();
                let _ = done.send(());
            })
        };
        let quiet = Duration::from_millis(200);
        assert!(
            returned.recv_timeout(quiet).is_err(),
            "returned with no connection"
        );
        let client = TcpStream::connect(server.local_addr()).unwrap();
        assert!(returned.recv_timeout(quiet).is_err(), "returned while open");
        drop(client);
        returned
            .recv_timeout(Duration::from_secs(20))
            .expect("the wait returns once the connection closes");
        waiter.join().unwrap();
        if let Ok(server) = Arc::try_unwrap(server) {
            server.shutdown(Duration::from_secs(5));
        }
    }
}
