//! The model owner: closed-loop requests over the real deployment path,
//! one TCP connection per model as `proteus-client` makes them.

use crate::daemon::TOKEN;
use crate::verify::frames_digest;
use crate::workload::{Entry, Schedule, Workload};
use bytes::Bytes;
use proteus::{DeobfuscationSession, ObfuscationSecrets, Proteus, ProteusError};
use proteus_net::NetClient;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Owner threads, and so concurrent connections: the box's two cores.
pub const OWNERS: usize = 2;

/// Where one request's time went, split at the public calls the owner
/// makes. Only traced requests fill it in.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `Proteus::obfuscate_session`: partitioning the model.
    pub partition: Duration,
    /// `next_frame` and `finish`: sentinel generation and sealing.
    pub generate: Duration,
    /// `SealedBucket::to_mux_bytes`.
    pub encode: Duration,
    /// `NetClient::connect`, handshake included.
    pub connect: Duration,
    /// `NetClient::run_request`: frames out, optimized frames back.
    pub exchange: Duration,
    /// `accept_mux_bytes`, `finish` and `Graph::validate`.
    pub reassemble: Duration,
}

impl Spans {
    /// The (mean, tail) metric names of each span, in request order.
    pub const METRICS: [(&'static str, &'static str); 6] = [
        ("owner.partition.mean_ms", "owner.partition.tail_ms"),
        ("owner.generate.mean_ms", "owner.generate.tail_ms"),
        ("owner.encode.mean_ms", "owner.encode.tail_ms"),
        ("net.connect.mean_ms", "net.connect.tail_ms"),
        ("net.exchange.mean_ms", "net.exchange.tail_ms"),
        ("owner.reassemble.mean_ms", "owner.reassemble.tail_ms"),
    ];

    /// Every span, in the order of [`Spans::METRICS`].
    pub fn values(&self) -> [Duration; 6] {
        [
            self.partition,
            self.generate,
            self.encode,
            self.connect,
            self.exchange,
            self.reassemble,
        ]
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Schedule index.
    pub index: usize,
    /// From opening the session to the validated reassembled model.
    pub latency: Duration,
    /// When the reassembled model was validated.
    pub finished: Instant,
    /// Whether `spans` was measured.
    pub traced: bool,
    /// Per-call breakdown (zero unless traced).
    pub spans: Spans,
    /// Frame bytes sent.
    pub bytes_out: usize,
    /// Frame bytes received.
    pub bytes_in: usize,
    /// Frames each way.
    pub frames: usize,
    /// Digest of the optimized frames the daemon sent back.
    pub digest: u64,
}

/// Why a request produced no sample.
#[derive(Debug, Clone)]
pub enum Failure {
    /// The connection or the daemon failed: counts against the error
    /// rate, the run goes on.
    Transport(String),
    /// The owner could not open the session or rebuild a valid model
    /// from the answer: the output is wrong.
    Incorrect(String),
}

/// Runs `f`, adding its wall time to `slot` when `on`.
fn span<T>(on: bool, slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed();
    out
}

/// Rebuilds and validates the optimized model from the daemon's frames.
fn reassemble(secrets: &ObfuscationSecrets, frames: &[Bytes]) -> Result<(), ProteusError> {
    let mut session = DeobfuscationSession::new(secrets);
    for frame in frames {
        session.accept_mux_bytes(frame.clone())?;
    }
    let (graph, _params) = session.finish()?;
    graph.validate()?;
    Ok(())
}

/// An owner holding the trained artifact, pointed at a daemon.
#[derive(Debug, Clone, Copy)]
pub struct Owner<'p> {
    /// The owner's trained state (loaded from the same artifact).
    pub proteus: &'p Proteus,
    /// The daemon's address.
    pub addr: SocketAddr,
    /// The artifact fingerprint the handshake pins.
    pub fingerprint: u64,
}

impl Owner<'_> {
    /// Sends one scheduled model through the daemon and reassembles it.
    ///
    /// # Errors
    /// [`Failure::Transport`] for connection and daemon-side errors,
    /// [`Failure::Incorrect`] when the owner's own half fails.
    pub fn request(&self, entry: &Entry, traced: bool) -> Result<Sample, Failure> {
        let incorrect = |e: ProteusError| Failure::Incorrect(format!("{}: {e}", entry.kind));
        let transport =
            |e: proteus_net::NetError| Failure::Transport(format!("{}: {e}", entry.kind));
        let (graph, params) = entry.inputs();
        let rid = entry.request_id;
        let mut spans = Spans::default();

        let started = Instant::now();
        let mut session = span(traced, &mut spans.partition, || {
            self.proteus.obfuscate_session(&graph, &params, rid)
        })
        .map_err(incorrect)?;
        let mut wire = Vec::with_capacity(session.num_buckets());
        while let Some(frame) = span(traced, &mut spans.generate, || session.next_frame()) {
            wire.push(span(traced, &mut spans.encode, || frame.to_mux_bytes(rid)));
        }
        let secrets = span(traced, &mut spans.generate, || session.finish()).map_err(incorrect)?;
        let frames = wire.len();
        let bytes_out = wire.iter().map(Bytes::len).sum();
        let client = span(traced, &mut spans.connect, || {
            NetClient::connect(self.addr, TOKEN, self.fingerprint)
        })
        .map_err(transport)?;
        let answer = span(traced, &mut spans.exchange, || {
            client.run_request(rid, wire)
        })
        .map_err(transport)?;
        span(traced, &mut spans.reassemble, || {
            reassemble(&secrets, &answer)
        })
        .map_err(incorrect)?;
        let finished = Instant::now();

        Ok(Sample {
            index: entry.index,
            latency: finished - started,
            finished,
            traced,
            spans,
            bytes_out,
            bytes_in: answer.iter().map(Bytes::len).sum(),
            frames,
            digest: frames_digest(&answer),
        })
    }
}

/// How long to drive load and what to record.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload: its warm-up rules, its measured request count if it
    /// has one, and how many leading schedule entries keep their digest
    /// for verification.
    pub workload: Workload,
    /// The measured window, for workloads without a request count.
    pub window: Duration,
    /// Time the owner-side calls of every odd schedule entry, so traced
    /// and untraced requests interleave under the same daemon state.
    pub trace: bool,
}

/// Everything one load phase observed.
#[derive(Debug, Default)]
pub struct Load {
    /// Requests taken in the measured window that completed.
    pub samples: Vec<Sample>,
    /// Requests started, warm-up included: schedule entries
    /// `0..attempted`, since owners take entries in index order.
    pub attempted: usize,
    /// Requests that failed in transport.
    pub failed: usize,
    /// Up to a few transport error messages.
    pub errors: Vec<String>,
    /// Owner-side failures: wrong output.
    pub incorrect: Vec<String>,
    /// Digest of every kept schedule entry that completed.
    pub digests: HashMap<usize, u64>,
    /// When the measured window opened.
    pub window_start: Option<Instant>,
    /// The window's length; `None` when a request count bounded it.
    pub window: Option<Duration>,
    /// First schedule index of the measured window.
    pub measured_from: usize,
}

/// Error messages kept per run; the count is what matters.
const KEEP_ERRORS: usize = 5;

impl Load {
    fn record(
        &mut self,
        index: usize,
        result: Result<Sample, Failure>,
        measured: bool,
        keep: usize,
    ) {
        self.attempted += 1;
        match result {
            Ok(sample) => {
                if index < keep {
                    self.digests.insert(index, sample.digest);
                }
                if measured {
                    self.samples.push(sample);
                }
            }
            Err(Failure::Transport(e)) => {
                self.failed += 1;
                if self.errors.len() < KEEP_ERRORS {
                    self.errors.push(e);
                }
            }
            Err(Failure::Incorrect(e)) => self.incorrect.push(e),
        }
    }

    fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(KEEP_ERRORS);
        self.incorrect.extend(other.incorrect);
        self.digests.extend(other.digests);
    }
}

/// Drives `OWNERS` closed-loop owners through the warm-up and the
/// measured phase: the window, or the workload's request count. Owners
/// take schedule entries from one shared counter and each waits for its
/// model before sending the next; a barrier separates warm-up from the
/// measured phase so every warm-up index precedes every measured one.
/// `halt` stops both owners early.
pub fn drive(
    owner: Owner<'_>,
    schedule: &Schedule,
    plan: &Plan,
    halt: &(dyn Fn() -> bool + Sync),
) -> Load {
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(OWNERS);
    let window_start: OnceLock<(Instant, usize)> = OnceLock::new();
    let total = Mutex::new(Load::default());
    let w = &plan.workload;
    let take = |cap: usize| {
        let i = next.fetch_add(1, Ordering::SeqCst);
        (i < cap && !halt()).then(|| schedule.entry(i))
    };
    std::thread::scope(|scope| {
        for _ in 0..OWNERS {
            scope.spawn(|| {
                let mut mine = Load::default();
                let warm_start = Instant::now();
                let mut warmed = 0;
                while warm_start.elapsed() < w.warmup || warmed < w.warmup_requests {
                    let Some(entry) = take(usize::MAX) else { break };
                    mine.record(entry.index, owner.request(&entry, false), false, w.verify);
                    warmed += 1;
                }
                barrier.wait();
                // the first owner past the barrier opens the window before
                // either takes a measured entry
                let &(start, from) =
                    window_start.get_or_init(|| (Instant::now(), next.load(Ordering::SeqCst)));
                let (end, cap) = match w.requests {
                    Some(n) => (None, from + n),
                    None => (Some(start + plan.window), usize::MAX),
                };
                while end.is_none_or(|end| Instant::now() < end) {
                    let Some(entry) = take(cap) else { break };
                    let traced = plan.trace && entry.index % 2 == 1;
                    mine.record(entry.index, owner.request(&entry, traced), true, w.verify);
                }
                total
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .merge(mine);
            });
        }
    });
    let mut load = total.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(start, from)) = window_start.get() {
        load.window_start = Some(start);
        load.measured_from = from;
    }
    load.window = w.requests.is_none().then_some(plan.window);
    load.samples.sort_by_key(|s| s.index);
    load
}
