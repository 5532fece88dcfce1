//! `e2e` — the real-path end-to-end benchmark: owner → TCP →
//! `proteus-serve` → owner, timed from outside.
//!
//! Each workload trains an artifact with the sibling `proteus-train`,
//! starts the sibling `proteus-serve` on it as a separate process, and
//! drives two closed-loop owner threads against it. Every request opens
//! an obfuscation session, encodes its frames, opens one connection
//! (`NetClient::connect` + `run_request`), and reassembles and validates
//! the optimized model. The end-to-end metrics come from that loop; a
//! traced run (`--trace 1`) also times every owner-side call and replays
//! a sample of the schedule through the server-side public functions in
//! process, attributing the latency to layers.
//!
//! Every run checks its outputs: response digests must match optimizing
//! the same frames in process, or the run exits non-zero.
//!
//! ```text
//! e2e [--workload zoo-warm|zoo-durable|weights-graphsage|all] [--seed N]
//!     [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! The last stdout line of each workload is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; every metric is also printed as a
//! `workload metric value unit` line.

mod daemon;
mod metrics;
mod owner;
mod replay;
mod report;
mod stats;
mod verify;
mod workload;

use daemon::Binaries;
use metrics::{Observed, Setup};
use owner::{drive, Owner, Plan, OWNERS};
use proteus::{Proteus, ServeConfig};
use proteus_opt::{Optimizer, Profile};
use report::{json_str, result_json, text_lines, Machine};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Schedule, Workload, WORKLOADS};

/// Measured window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of the CPU time of the load phase that, taken by the
/// hypervisor, makes the run warn that its timings are disturbed.
const STEAL_WARN: f64 = 0.02;
/// Measured requests of a request-count workload in a smoke run.
const SMOKE_WEIGHTS_REQUESTS: usize = 2;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \n\
         --workload  one of {} (default all)\n\
         --seed      schedule, request id and weight seed (default 1)\n\
         --seconds   measured window of the zoo workloads (default {DEFAULT_SECONDS})\n\
         --trace     1 = report per-layer metrics instead of end-to-end ones\n\
         --smoke     1 s windows, one set-up, {SMOKE_WEIGHTS_REQUESTS} measured weights requests",
        names.join(", ")
    )
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    window: Duration,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        window: Duration::from_secs_f64(DEFAULT_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads = match name.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    _ => vec![workload::by_name(name).ok_or(format!("unknown workload `{name}`"))?],
                };
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects a u64, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds expects a number, got `{v}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
                out.window = Duration::from_secs_f64(s);
            }
            "--trace" => {
                // a bare `--trace` turns tracing on
                out.trace = match it.peek().copied().map(String::as_str) {
                    Some(v @ ("0" | "1")) => {
                        it.next();
                        v == "1"
                    }
                    _ => true,
                };
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.smoke {
        out.window = Duration::from_secs(1);
    }
    Ok(out)
}

/// A working directory removed, with everything in it, on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

/// One workload's outcome.
struct Outcome {
    observed: Observed,
    /// Wrong outputs: owner-side failures and digest mismatches.
    problems: Vec<String>,
    /// Numeric run metadata: window lengths, sample counts.
    meta: Vec<(&'static str, f64)>,
    /// Filesystem type of the directory holding the artifact and store.
    work_fs: String,
}

fn run_workload(
    bins: &Binaries,
    w: Workload,
    args: &Args,
    machine: &Machine,
    dir: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let artifact = dir.join("artifact.prta");
    let rss_limit_kb = match machine.mem_total_kb / 2 {
        0 => u64::MAX,
        half => half,
    };

    // set-up: train once, then start a daemon and a fresh owner several
    // times; the last daemon and owner serve the load
    let mut setup = Setup {
        train: bins.train(&artifact)?,
        ..Setup::default()
    };
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut current = None;
    for i in 0..repeats {
        drop(current.take()); // stops the previous daemon first
        let store_dir = w.durable.then(|| dir.join(format!("store-{i}")));
        let (daemon, started) = bins.serve(&artifact, store_dir.as_deref(), rss_limit_kb)?;
        setup.daemon_start.push(started);
        let t = Instant::now();
        let proteus = Proteus::load_artifact(&artifact)
            .map_err(|e| format!("owner loading the artifact: {e}"))?;
        setup.owner_load.push(t.elapsed());
        let t = Instant::now();
        proteus.warm_inventory();
        setup.owner_warm.push(t.elapsed());
        current = Some((daemon, proteus));
    }
    let (mut daemon, proteus) = current.ok_or("no set-up ran")?;

    // load
    let schedule = Schedule::new(args.seed, w.models);
    let owner = Owner {
        proteus: &proteus,
        addr: daemon.addr(),
        fingerprint: proteus.config_fingerprint(),
    };
    let plan = Plan {
        workload: if args.smoke {
            Workload {
                warmup: Duration::ZERO,
                warmup_requests: 0,
                requests: w.requests.map(|n| n.min(SMOKE_WEIGHTS_REQUESTS)),
                ..w
            }
        } else {
            w
        },
        window: args.window,
        trace: args.trace,
    };
    let halt = || daemon.over_limit();
    let steal_before = report::steal_s();
    let load = drive(owner, &schedule, &plan, &halt);
    let measured = load
        .window_start
        .map_or(Duration::ZERO, |start| start.elapsed());
    let stolen = report::steal_s() - steal_before;
    if stolen > STEAL_WARN * measured.as_secs_f64() * machine.nproc as f64 {
        eprintln!(
            "warning: {}: the hypervisor took {stolen:.1} CPU-s during the {:.1} s load; \
             timings are disturbed by other guests",
            w.name,
            measured.as_secs_f64()
        );
    }
    if daemon.over_limit() {
        return Err(format!(
            "aborted: proteus-serve's resident set passed half of MemTotal ({} MiB)",
            rss_limit_kb / 1024
        ));
    }
    if load.samples.is_empty() {
        return Err(format!(
            "no request completed in the window ({} failed; first error: {})",
            load.failed,
            load.errors.first().map_or("none", String::as_str)
        ));
    }
    let rss_peak_mb = daemon.peak_rss_mb();
    daemon.shutdown();

    // correctness gate and quality over the fixed set
    let optimizer = Optimizer::new(Profile::OrtLike);
    let verified = w.verify.min(load.attempted);
    let mut problems = load.incorrect.clone();
    problems.extend(verify::check_digests(
        &proteus,
        &optimizer,
        &schedule,
        &load.digests,
        verified,
    )?);
    let quality = verify::quality(&proteus, &optimizer)?;

    let replayed = load.measured_from..(load.measured_from + w.replay).min(load.attempted);
    let layers = if args.trace {
        let store_dir = w.durable.then(|| dir.join("replay-store"));
        Some(replay::replay(
            &proteus,
            &schedule,
            0..load.measured_from,
            replayed.clone(),
            ServeConfig::default().cache_capacity,
            store_dir.as_deref(),
        )?)
    } else {
        None
    };

    let meta = vec![
        ("window_s", measured.as_secs_f64()),
        ("host_steal_s", stolen),
        ("warmup_s", plan.workload.warmup.as_secs_f64()),
        ("owners", OWNERS as f64),
        ("setup_repeats", repeats as f64),
        ("samples", load.samples.len() as f64),
        ("warmup_requests", load.measured_from as f64),
        ("verified", verified as f64),
        (
            "replayed",
            if args.trace { replayed.len() } else { 0 } as f64,
        ),
    ];
    for e in &load.errors {
        eprintln!("{}: request failed: {e}", w.name);
    }
    Ok(Outcome {
        observed: Observed {
            setup,
            load,
            rss_peak_mb,
            quality,
            layers,
        },
        problems,
        meta,
        work_fs: report::fs_type(dir),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let bins = match Binaries::locate() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let machine = Machine::probe();
    println!(
        "# machine: nproc {}, cpu {}, MemTotal {} kB, kernel {}",
        machine.nproc, machine.cpu, machine.mem_total_kb, machine.kernel
    );
    let root = Path::new("target")
        .join("e2e-bench")
        .join(std::process::id().to_string());
    let _cleanup = WorkDir(root.clone());

    let mut all_correct = true;
    for w in &args.workloads {
        let outcome = match run_workload(&bins, *w, &args, &machine, &root.join(w.name)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let o = &outcome.observed;
        let fields: Vec<String> = [
            ("workload", json_str(w.name)),
            ("seed", args.seed.to_string()),
            ("nproc", machine.nproc.to_string()),
            ("cpu", json_str(&machine.cpu)),
            ("mem_total_kb", machine.mem_total_kb.to_string()),
            ("kernel", json_str(&machine.kernel)),
            ("work_fs", json_str(&outcome.work_fs)),
        ]
        .into_iter()
        .chain(outcome.meta.iter().map(|&(k, v)| (k, v.to_string())))
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
        println!("# {}: {}", w.name, w.why);
        println!("{{\"meta\": {{{}}}}}", fields.join(", "));
        if w.durable && outcome.work_fs == "tmpfs" {
            eprintln!("warning: the store is on tmpfs, where fsync costs nothing");
        }
        let metrics = if args.trace {
            metrics::per_layer(o)
        } else {
            metrics::end_to_end(o)
        };
        for line in text_lines(w.name, &metrics)
            .into_iter()
            .chain(text_lines(w.name, &metrics::context(o)))
        {
            println!("{line}");
        }
        for p in &outcome.problems {
            eprintln!("INCORRECT {}: {p}", w.name);
        }
        let correct = outcome.problems.is_empty();
        all_correct &= correct;
        println!(
            "{}",
            result_json(correct, o.load.attempted, o.load.failed, &metrics)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
