//! `proteus-serve` — the TCP serving daemon: warm-starts from a `PRTA`
//! artifact and serves wire-v2 obfuscation traffic on a socket.
//!
//! The daemon is the optimizer party of the paper's threat model: it
//! holds trained sentinel-generation state (so obfuscated buckets are
//! indistinguishable) but never sees a whole model — clients stream
//! sealed buckets at it and reassemble the optimized results with
//! secrets that never leave their process.
//!
//! ```text
//! proteus-serve --artifact zoo.prta --addr 127.0.0.1:7070 \
//!     --token team-a:sesame --token team-b:mellon \
//!     --replicas 2 --quota 8 --max-connections 64
//! ```
//!
//! `--oneshot` serves until the first accepted connection has come and
//! gone, then drains and exits — the deterministic mode CI's loopback
//! round trip uses (no signal choreography needed).
//!
//! `--store-dir DIR` makes the daemon crash-safe: the artifact and every
//! in-flight request are journaled into a durable store
//! ([`proteus::store`]), so a `kill -9`'d daemon restarted on the same
//! directory warm-starts from the stored artifact, re-optimizes exactly
//! the requests whose clients never got their answer (bit-identical, by
//! request-id-keyed determinism), and only then takes new traffic.

use proteus::store::Store;
use proteus::{Fleet, FleetConfig, Proteus, ServeConfig};
use proteus_net::{NetServer, NetServerConfig, TenantAuth};
use proteus_opt::{Optimizer, Profile};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: proteus-serve [--artifact PATH] [--store-dir DIR] [--addr HOST:PORT]\n\
         \x20      [--token TENANT:SECRET ...]\n\
         \x20      [--replicas N] [--workers N] [--window N] [--cache N]\n\
         \x20      [--max-connections N] [--quota N] [--profile ort|hidet]\n\
         \x20      [--oneshot] [--grace-secs N]\n\
         \n\
         --artifact       PRTA artifact to warm-start from (see proteus-train)\n\
         --store-dir      durable store directory: journals the artifact and every\n\
         \x20                in-flight request; a killed daemon restarted here recovers\n\
         \x20                and finishes them. With --artifact, the artifact is stored;\n\
         \x20                without it, the daemon warm-starts from the store\n\
         --addr           bind address (default 127.0.0.1:7070; port 0 picks a free port)\n\
         --token          tenant credential, repeatable (default demo:demo)\n\
         --replicas       replicas in the serving fleet, at least 1 (default 1)\n\
         --quota          max concurrent requests per tenant; 0 = unlimited\n\
         --max-connections max open connections; 0 = unlimited\n\
         --oneshot        exit after the first connection completes\n\
         --grace-secs     shutdown drain budget (default 30)"
    );
    ExitCode::FAILURE
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_usize(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects an integer, got `{v}`")),
    }
}

fn parse_tokens(args: &[String]) -> Result<Vec<TenantAuth>, String> {
    let mut auth = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--token" {
            let spec = args
                .get(i + 1)
                .ok_or("--token expects TENANT:SECRET".to_string())?;
            let (tenant, secret) = spec
                .split_once(':')
                .ok_or_else(|| format!("--token `{spec}` is not TENANT:SECRET"))?;
            if tenant.is_empty() || secret.is_empty() {
                return Err(format!("--token `{spec}` has an empty side"));
            }
            auth.push(TenantAuth::new(tenant, secret));
        }
    }
    if auth.is_empty() {
        auth.push(TenantAuth::new("demo", "demo"));
    }
    Ok(auth)
}

fn run(args: &[String]) -> Result<(), String> {
    let artifact = flag_value(args, "--artifact");
    let store_dir = flag_value(args, "--store-dir");
    if artifact.is_none() && store_dir.is_none() {
        return Err("missing --artifact PATH (or --store-dir DIR holding one)".to_string());
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let auth = parse_tokens(args)?;
    let replicas = parse_usize(args, "--replicas", 1)?;
    let oneshot = args.iter().any(|a| a == "--oneshot");
    let grace = Duration::from_secs(parse_usize(args, "--grace-secs", 30)? as u64);
    let profile = match flag_value(args, "--profile").as_deref() {
        None | Some("ort") => Profile::OrtLike,
        Some("hidet") => Profile::HidetLike,
        Some("tvm") => Profile::TvmLike,
        Some(other) => return Err(format!("unknown profile `{other}` (ort|hidet|tvm)")),
    };
    let serve_config = ServeConfig {
        workers: parse_usize(args, "--workers", 0)?,
        window: parse_usize(args, "--window", 4)?,
        cache_capacity: parse_usize(args, "--cache", 4096)?,
        ..Default::default()
    };

    // a corrupt or tampered store is a hard startup error (typed, never
    // a silent partial recovery) — the operator must intervene
    let store = match &store_dir {
        Some(dir) => {
            let (store, report) = Store::open_or_create(dir).map_err(|e| e.to_string())?;
            eprintln!("store {dir}: {report}");
            Some(Arc::new(store))
        }
        None => None,
    };

    let t = Instant::now();
    let proteus = match (&artifact, &store) {
        (Some(path), _) => Proteus::load_artifact(path).map_err(|e| e.to_string())?,
        (None, Some(store)) => Proteus::load_artifact_store(store).map_err(|e| e.to_string())?,
        (None, None) => unreachable!("rejected above"),
    };
    if let (Some(_), Some(store)) = (&artifact, &store) {
        // make the artifact durable so later restarts need no --artifact
        proteus
            .save_artifact_store(store)
            .map_err(|e| e.to_string())?;
    }
    let fingerprint = proteus.config_fingerprint();
    eprintln!(
        "warm-started from {} in {:.1} ms (config fingerprint {fingerprint:#018x})",
        artifact.as_deref().unwrap_or("store"),
        t.elapsed().as_secs_f64() * 1e3
    );

    let fleet = Fleet::new(
        Optimizer::new(profile),
        FleetConfig {
            replicas,
            serve: serve_config,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;

    // before taking traffic: finish every lane the previous incarnation
    // was killed in the middle of. Re-optimizing is deterministic
    // (request-id-keyed), so a client retrying its request gets
    // bit-identical frames — now served from the warmed cache.
    if let Some(store) = &store {
        for (rid, frames) in store.pending_lanes() {
            let replay = || -> Result<usize, proteus::ProteusError> {
                let handle = fleet.lane(rid)?;
                for frame in &frames {
                    handle.submit_bytes(frame.clone())?;
                }
                let mut delivered = 0;
                for _ in &frames {
                    handle.recv_bytes()?;
                    delivered += 1;
                }
                Ok(delivered)
            };
            match replay() {
                Ok(n) => eprintln!("recovered lane {rid:#x}: re-optimized {n} frame(s)"),
                // a lane that fails on replay failed identically before
                // the kill (duplicates, corrupt frames); it fails closed
                // here exactly like the live path
                Err(e) => eprintln!("recovered lane {rid:#x}: failed closed ({e})"),
            }
            store.finish_lane(rid).map_err(|e| e.to_string())?;
        }
    }

    let tenants = auth.len();
    let server = NetServer::bind(
        fleet,
        fingerprint,
        NetServerConfig {
            addr,
            auth,
            max_connections: parse_usize(args, "--max-connections", 0)?,
            tenant_quota: parse_usize(args, "--quota", 0)?,
            banner: format!("proteus-serve/{}", env!("CARGO_PKG_VERSION")),
            store: store.clone(),
        },
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "listening on {} ({tenants} tenant(s){})",
        server.local_addr(),
        if oneshot { ", oneshot" } else { "" }
    );

    if oneshot {
        // serve until at least one connection has been accepted AND all
        // connections have gone away again, then drain
        loop {
            let stats = server.stats();
            if stats.connections_accepted > 0 && stats.active_connections == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = server.shutdown(grace);
        eprintln!(
            "oneshot complete: {} request(s) completed, {} failed, {} handshake(s) rejected",
            stats.requests_completed, stats.requests_failed, stats.handshakes_rejected
        );
        return Ok(());
    }

    // long-running mode: serve until the process is killed. Park the
    // main thread; connection threads do all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
