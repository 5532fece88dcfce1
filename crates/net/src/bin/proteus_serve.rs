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
//!     --workers 8 --quota 8 --max-connections 64
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
use proteus::{Proteus, ServeConfig, ServeRuntime};
use proteus_net::{NetServer, NetServerConfig, TenantAuth};
use proteus_opt::{Optimizer, Profile};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    let defaults = ServeConfig::default();
    eprintln!(
        "usage: proteus-serve [--artifact PATH] [--store-dir DIR] [--addr HOST:PORT]\n\
         \x20      [--token TENANT:SECRET ...]\n\
         \x20      [--workers N] [--window N] [--cache N]\n\
         \x20      [--max-connections N] [--quota N] [--profile ort|hidet|tvm]\n\
         \x20      [--oneshot] [--grace-secs N]\n\
         \n\
         --artifact       PRTA artifact to warm-start from (see proteus-train)\n\
         --store-dir      durable store directory: journals the artifact and every\n\
         \x20                in-flight request; a killed daemon restarted here recovers\n\
         \x20                and finishes them. With --artifact, the artifact is stored;\n\
         \x20                without it, the daemon warm-starts from the store\n\
         --addr           bind address (default 127.0.0.1:7070; port 0 picks a free port)\n\
         --token          tenant credential, repeatable (default demo:demo)\n\
         --workers        optimizer worker threads; 0 = all cores (default {})\n\
         --window         frames one request may have in flight (default {})\n\
         --cache          optimized-member cache entries; 0 = off (default {})\n\
         --profile        optimizer profile, ort|hidet|tvm (default ort)\n\
         --quota          max concurrent requests per tenant; 0 = unlimited\n\
         --max-connections max open connections; 0 = unlimited\n\
         --oneshot        exit after the first connection completes\n\
         --grace-secs     shutdown drain budget (default 30)",
        defaults.workers, defaults.window, defaults.cache_capacity
    );
    ExitCode::FAILURE
}

/// Flags that take a value, and the one that does not.
const VALUE_FLAGS: [&str; 11] = [
    "--artifact",
    "--store-dir",
    "--addr",
    "--token",
    "--workers",
    "--window",
    "--cache",
    "--max-connections",
    "--quota",
    "--profile",
    "--grace-secs",
];
const SWITCHES: [&str; 1] = ["--oneshot"];

/// Rejects an argument that is not a known flag, and a value flag given
/// without a value (last argument, or followed by another flag), naming
/// it: a mistyped or retired flag, or a missing value, fails startup
/// instead of silently falling back to a default.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            match rest.next() {
                Some(value) if !value.starts_with("--") => {}
                _ => return Err(format!("{arg} expects a value")),
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}` (see --help)"));
        }
    }
    Ok(())
}

/// The value after `flag`, or `None` when the flag is absent
/// ([`check_args`] has already rejected a flag without a value).
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
    check_args(args)?;
    let artifact = flag_value(args, "--artifact");
    let store_dir = flag_value(args, "--store-dir");
    if artifact.is_none() && store_dir.is_none() {
        return Err("missing --artifact PATH (or --store-dir DIR holding one)".to_string());
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let auth = parse_tokens(args)?;
    let oneshot = args.iter().any(|a| a == "--oneshot");
    let grace = Duration::from_secs(parse_usize(args, "--grace-secs", 30)? as u64);
    let profile = match flag_value(args, "--profile").as_deref() {
        None | Some("ort") => Profile::OrtLike,
        Some("hidet") => Profile::HidetLike,
        Some("tvm") => Profile::TvmLike,
        Some(other) => return Err(format!("unknown profile `{other}` (ort|hidet|tvm)")),
    };
    let defaults = ServeConfig::default();
    let serve_config = ServeConfig {
        workers: parse_usize(args, "--workers", defaults.workers)?,
        window: parse_usize(args, "--window", defaults.window)?,
        cache_capacity: parse_usize(args, "--cache", defaults.cache_capacity)?,
    };
    let max_connections = parse_usize(args, "--max-connections", 0)?;
    let tenant_quota = parse_usize(args, "--quota", 0)?;

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

    let runtime =
        ServeRuntime::new(Optimizer::new(profile), serve_config).map_err(|e| e.to_string())?;

    // before taking traffic: finish every lane the previous incarnation
    // was killed in the middle of. Re-optimizing is deterministic
    // (request-id-keyed), so a client retrying its request gets
    // bit-identical frames — now served from the warmed cache.
    if let Some(store) = &store {
        for (rid, frames) in store.pending_lanes() {
            match runtime.resume_lane(rid, &frames) {
                Ok(out) => eprintln!(
                    "recovered lane {rid:#x}: re-optimized {} frame(s)",
                    out.len()
                ),
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
        runtime,
        fingerprint,
        NetServerConfig {
            addr,
            auth,
            max_connections,
            tenant_quota,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn a_value_flag_without_a_value_is_an_error_naming_it() {
        for argv in [
            &["--artifact", "a.prta", "--store-dir"][..],
            &["--store-dir", "--artifact", "a.prta"][..],
        ] {
            let err = run(&args(argv)).expect_err("missing value must not default");
            assert!(err.contains("--store-dir"), "{err}");
        }
        let err = check_args(&args(&["--workers"])).expect_err("no value");
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn an_unknown_flag_is_an_error_naming_it() {
        let err = run(&args(&["--artifact", "a.prta", "--shards", "2"])).expect_err("unknown");
        assert!(err.contains("--shards"), "{err}");
        let known = args(&["--artifact", "a.prta", "--workers", "2", "--oneshot"]);
        assert_eq!(check_args(&known), Ok(()));
    }
}
