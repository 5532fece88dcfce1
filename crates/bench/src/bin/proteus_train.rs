//! `proteus-train` — offline training and artifact management for the
//! warm-start serving workflow (see `proteus::artifact`).
//!
//! Subcommands:
//!
//! - `train --out PATH [options]` — train a sentinel generator on named
//!   zoo models and save it as a `PRTA` artifact. The corpus names are
//!   recorded as artifact provenance so `verify` can retrain and compare.
//! - `inspect PATH` — decode, validate every checksum, and print the
//!   artifact summary (version, fingerprint, sections, trained-state
//!   sizes).
//! - `verify PATH [--probe MODEL,...]` — the determinism gate: load the
//!   artifact, retrain a fresh instance from the recorded provenance under
//!   the embedded config, and hard-assert (a) the fresh instance
//!   re-serializes to the same state sections and (b) both instances
//!   produce bit-identical obfuscation wire bytes on the probe models.
//!   Prints one `probe NAME digest 0x…` line per probe (a word hash of
//!   its frames and real-piece positions), so two processes' runs can be
//!   diffed for cross-process determinism.
//! - `store verify DIR` — fsck a durable store directory
//!   (`proteus-serve --store-dir`): replay the committed WAL horizon,
//!   verifying every frame checksum and the Merkle-style digest chain,
//!   and report what is resident. Exits nonzero on any corruption.
//!
//! Examples:
//!
//! ```text
//! proteus-train train --out zoo.prta --corpus resnet,mobilenet --quick
//! proteus-train inspect zoo.prta
//! proteus-train verify zoo.prta --probe alexnet,bert
//! proteus-train store verify /var/lib/proteus/store
//! ```

use proteus::store::Store;
use proteus::{DeobfuscationSession, PartitionSpec, Proteus, ProteusConfig, TrainedArtifact};
use proteus_graph::wire::word_hash64;
use proteus_graph::{Graph, TensorMap};
use proteus_graphgen::GraphRnnConfig;
use proteus_models::{build, zoo, ModelKind};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> String {
    format!(
        "usage: proteus-train <subcommand>\n\
         \n\
         \x20 train --out PATH [--corpus a,b,..] [--k N] [--epochs N] [--pool N]\n\
         \x20       [--seed N] [--target-size N] [--quick]\n\
         \x20 inspect PATH\n\
         \x20 verify PATH [--probe a,b,..]\n\
         \x20 store verify DIR\n\
         \n\
         model names: {}",
        zoo::all()
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The flags `train` takes a value for, and its one switch.
const TRAIN_VALUE_FLAGS: [&str; 7] = [
    "--out",
    "--corpus",
    "--k",
    "--epochs",
    "--pool",
    "--seed",
    "--target-size",
];
const TRAIN_SWITCHES: [&str; 1] = ["--quick"];

/// Rejects an argument that is neither one of `value_flags` nor one of
/// `switches`, and a value flag given without a value (last argument, or
/// followed by another flag), naming it: a mistyped flag or a missing
/// value fails before any work instead of silently falling back to a
/// default.
fn check_args(args: &[String], value_flags: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if value_flags.contains(&arg.as_str()) {
            match rest.next() {
                Some(value) if !value.starts_with("--") => {}
                _ => return Err(format!("{arg} expects a value")),
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    Ok(())
}

fn parse_kinds(list: &str) -> Result<Vec<ModelKind>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| ModelKind::from_name(name).ok_or_else(|| format!("unknown model `{name}`")))
        .collect()
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

fn cmd_train(args: &[String]) -> Result<(), String> {
    check_args(args, &TRAIN_VALUE_FLAGS, &TRAIN_SWITCHES)?;
    let out = flag_value(args, "--out").ok_or("train requires --out PATH")?;
    let quick = args.iter().any(|a| a == "--quick");
    let corpus_names = flag_value(args, "--corpus").unwrap_or_else(|| {
        if quick {
            "resnet".to_string()
        } else {
            "resnet,mobilenet,densenet,googlenet".to_string()
        }
    });
    let kinds = parse_kinds(&corpus_names)?;
    if kinds.is_empty() {
        return Err("--corpus names no models".to_string());
    }
    let config = ProteusConfig {
        k: parse_usize(args, "--k", if quick { 2 } else { 8 })?,
        partitions: PartitionSpec::TargetSize(parse_usize(args, "--target-size", 8)?),
        graphrnn: GraphRnnConfig {
            epochs: parse_usize(args, "--epochs", if quick { 1 } else { 8 })?,
            max_nodes: if quick { 16 } else { 40 },
            ..Default::default()
        },
        topology_pool: parse_usize(args, "--pool", if quick { 12 } else { 120 })?,
        seed: flag_value(args, "--seed")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--seed expects u64, got `{v}`"))
            })
            .transpose()?
            .unwrap_or(0xB0B),
        ..Default::default()
    };
    let provenance: String = kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join(",");
    println!(
        "training on [{provenance}] (k={}, pool={}) ...",
        config.k, config.topology_pool
    );
    let t = Instant::now();
    let corpus: Vec<_> = kinds.iter().map(|&k| build(k)).collect();
    let proteus = Proteus::train(config, &corpus).map_err(|e| e.to_string())?;
    let train_ms = t.elapsed().as_secs_f64() * 1e3;
    // warm the full sentinel inventory so the artifact ships pre-built
    // sentinels and the keys proven infeasible: serving processes skip
    // training, first-draw generation and the failed searches alike (and
    // `verify` reproduces the sweep deterministically)
    let t = Instant::now();
    let warmed = proteus.warm_inventory();
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let artifact = TrainedArtifact::from_proteus(&proteus, provenance);
    let bytes = artifact.to_bytes();
    std::fs::write(&out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "trained in {train_ms:.0} ms, warmed {warmed} sentinels + {} infeasible keys in \
         {warm_ms:.0} ms, wrote {} bytes to {out} (config fingerprint {:#018x})",
        proteus.factory().key_space().len() - warmed,
        bytes.len(),
        proteus.config_fingerprint()
    );
    Ok(())
}

fn cmd_inspect(path: &str, args: &[String]) -> Result<(), String> {
    check_args(args, &[], &[])?;
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (artifact, summary) =
        TrainedArtifact::from_bytes_with_summary(&data).map_err(|e| e.to_string())?;
    println!("artifact            {path} ({} bytes)", data.len());
    println!("format version      {}", summary.version);
    println!("config fingerprint  {:#018x}", summary.config_fingerprint);
    println!(
        "provenance          {}",
        if summary.provenance.is_empty() {
            "(none)"
        } else {
            &summary.provenance
        }
    );
    println!("sentinel pool       {} topologies", summary.pool_len);
    println!(
        "graphrnn            {} parameters, {} scalars",
        summary.rnn_params, summary.rnn_scalars
    );
    println!("bigram vocabulary   {} opcodes", summary.bigram_vocab);
    println!(
        "sentinel inventory  {} sentinels + {} infeasible keys = {}/{}",
        summary.sentinel_entries,
        summary.infeasible_entries,
        summary.sentinel_entries + summary.infeasible_entries,
        summary.key_space
    );
    let cfg = artifact.config();
    println!(
        "config              k={}, partitions={:?}, beta={}, pool={}, seed={:#x}",
        cfg.k, cfg.partitions, cfg.beta, cfg.topology_pool, cfg.seed
    );
    println!("sections:");
    for (name, len) in &summary.section_bytes {
        println!("  {name:<8} {len:>10} bytes (checksum ok)");
    }
    Ok(())
}

fn cmd_verify(path: &str, args: &[String]) -> Result<(), String> {
    check_args(args, &["--probe"], &[])?;
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let t = Instant::now();
    let (artifact, summary) =
        TrainedArtifact::from_bytes_with_summary(&data).map_err(|e| e.to_string())?;
    let loaded = artifact.clone().into_proteus().map_err(|e| e.to_string())?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "decode + validate + load: {load_ms:.1} ms ({} sections, every checksum verified)",
        summary.section_bytes.len()
    );

    let probes: Vec<ModelKind> = match flag_value(args, "--probe") {
        Some(list) => parse_kinds(&list)?,
        None => vec![ModelKind::AlexNet],
    };

    if summary.provenance.is_empty() {
        println!("no provenance recorded: skipping the retrain comparison");
    } else {
        let kinds = parse_kinds(&summary.provenance)
            .map_err(|e| format!("provenance is not a zoo corpus ({e}); cannot retrain"))?;
        println!(
            "retraining fresh from provenance [{}] ...",
            summary.provenance
        );
        let t = Instant::now();
        let corpus: Vec<_> = kinds.iter().map(|&k| build(k)).collect();
        let fresh =
            Proteus::train(artifact.config().clone(), &corpus).map_err(|e| e.to_string())?;
        let train_ms = t.elapsed().as_secs_f64() * 1e3;
        println!("retrained in {train_ms:.0} ms (warm start was {load_ms:.1} ms)");
        // artifacts written by `train` carry a fully warmed inventory;
        // reproduce the deterministic sweep before comparing bytes
        if summary.sentinel_entries + summary.infeasible_entries > 0 {
            fresh.warm_inventory();
        }
        // compare against the original file bytes: the retrained state,
        // serialized with the same provenance, must reproduce the artifact
        // byte for byte
        let refreshed = TrainedArtifact::from_proteus(&fresh, summary.provenance.clone());
        if refreshed.to_bytes()[..] != data[..] {
            return Err("retrained state diverges from the artifact".to_string());
        }
        println!("state check: retrained artifact bytes are identical to the file");
        for &probe in &probes {
            let g = build(probe);
            let a = wire_frames(&fresh, &g)?;
            let b = wire_frames(&loaded, &g)?;
            if a != b {
                return Err(format!(
                    "obfuscation wire bytes diverge on probe `{}`",
                    probe.name()
                ));
            }
            println!(
                "probe {:<12} fresh-vs-loaded wire bytes identical ({} buckets)",
                probe.name(),
                a.len()
            );
        }
    }

    // loaded instance must also round-trip an obfuscation on its own;
    // its digest is what another process must reproduce
    for &probe in &probes {
        let g = build(probe);
        let mut session = loaded
            .obfuscate_session(&g, &TensorMap::new(), VERIFY_REQUEST_ID)
            .map_err(|e| e.to_string())?;
        let frames: Vec<_> = session.by_ref().collect();
        let secrets = session.finish().map_err(|e| e.to_string())?;
        let mut digest = 0u64;
        for frame in &frames {
            digest = word_hash64(digest, &frame.to_mux_bytes(VERIFY_REQUEST_ID));
        }
        for &pos in &secrets.real_positions {
            digest = word_hash64(digest, &(pos as u64).to_le_bytes());
        }
        println!("probe {} digest {digest:#018x}", probe.name());
        let mut reassembly = DeobfuscationSession::new(&secrets);
        for frame in frames {
            reassembly.accept(frame).map_err(|e| e.to_string())?;
        }
        let (back, _) = reassembly.finish().map_err(|e| e.to_string())?;
        back.validate().map_err(|e| e.to_string())?;
    }
    println!("verify OK");
    Ok(())
}

/// The request id `verify` obfuscates its probes under.
const VERIFY_REQUEST_ID: u64 = 0;

/// One probe request's wire frames, drained from a fresh session.
fn wire_frames(proteus: &Proteus, g: &Graph) -> Result<Vec<Vec<u8>>, String> {
    let session = proteus
        .obfuscate_session(g, &TensorMap::new(), VERIFY_REQUEST_ID)
        .map_err(|e| e.to_string())?;
    Ok(session
        .map(|frame| frame.to_mux_bytes(VERIFY_REQUEST_ID).to_vec())
        .collect())
}

fn cmd_store_verify(dir: &str, args: &[String]) -> Result<(), String> {
    check_args(args, &[], &[])?;
    let t = Instant::now();
    // typed failure — Corrupt names the first bad byte offset, Marker a
    // commit marker that cannot be trusted — mapped to a nonzero exit
    let report = Store::verify(dir).map_err(|e| e.to_string())?;
    println!("store               {dir}");
    println!(
        "committed           {} record(s), {} bytes",
        report.records, report.committed_len
    );
    println!("chain digest        {:#018x}", report.chain_digest);
    if report.tail_bytes > 0 {
        println!(
            "uncommitted tail    {} byte(s) (a crash between append and commit;\n\
             \x20                   the next open truncates it — nothing acknowledged is lost)",
            report.tail_bytes
        );
    }
    println!("open sessions       {}", report.open_sessions);
    println!("pending lanes       {}", report.pending_lanes);
    println!(
        "store verify OK ({:.1} ms, every checksum and chain link checked)",
        t.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("store") => match (args.get(1).map(String::as_str), args.get(2)) {
            (Some("verify"), Some(dir)) if !dir.starts_with("--") => {
                cmd_store_verify(dir, &args[3..])
            }
            _ => Err("store expects: store verify DIR".to_string()),
        },
        Some("inspect") => match args.get(1) {
            Some(path) if !path.starts_with("--") => cmd_inspect(path, &args[2..]),
            _ => Err("inspect requires PATH".to_string()),
        },
        Some("verify") => match args.get(1) {
            Some(path) if !path.starts_with("--") => cmd_verify(path, &args[2..]),
            _ => Err("verify requires PATH".to_string()),
        },
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
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

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_flags_and_missing_values_fail_naming_the_flag() {
        let out = std::env::temp_dir().join(format!("proteus-train-typo-{}", std::process::id()));
        let typo = format!("train --out {} --quick --epoch 5", out.display());
        for (line, want) in [
            (typo.as_str(), "unknown argument `--epoch`"),
            ("train --quick --out", "--out expects a value"),
            ("train --k --quick --out a.prta", "--k expects a value"),
            (
                "inspect a.prta --probe alexnet",
                "unknown argument `--probe`",
            ),
            ("verify a.prta --probe", "--probe expects a value"),
            ("verify a.prta --quick", "unknown argument `--quick`"),
            ("store verify dir --out x", "unknown argument `--out`"),
        ] {
            assert_eq!(run(&words(line)), Err(want.to_string()), "{line}");
        }
        assert!(!out.exists(), "trained despite the unknown flag");
    }

    #[test]
    fn every_documented_flag_is_accepted() {
        let train =
            "--out a --corpus resnet --k 2 --epochs 1 --pool 4 --seed 7 --target-size 8 --quick";
        assert_eq!(
            check_args(&words(train), &TRAIN_VALUE_FLAGS, &TRAIN_SWITCHES),
            Ok(())
        );
    }
}
