//! `proteus-client` — the model-owner CLI: streams a model's sealed
//! buckets to a `proteus-serve` daemon and reassembles the optimized
//! model from the frames that come back.
//!
//! The client is the owner party of the paper's threat model: it holds
//! the model and the obfuscation secrets; only sealed buckets (real
//! subgraphs hidden among sentinels) ever cross the socket. By default
//! every response frame is hard-checked for byte parity against the
//! in-process optimization path — the loopback deployment must be
//! bit-identical to running the optimizer in-process, or something on
//! the wire changed semantics.
//!
//! ```text
//! proteus-client --artifact zoo.prta --addr 127.0.0.1:7070 \
//!     --token sesame --models resnet,bert --request-id 100
//! ```

use proteus::{DeobfuscationSession, Proteus};
use proteus_graph::TensorMap;
use proteus_models::{build, ModelKind};
use proteus_net::{NetClient, NetRequest};
use proteus_opt::{Optimizer, Profile};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: proteus-client --artifact PATH --addr HOST:PORT [--token SECRET]\n\
         \x20      [--models a,b,..] [--request-id N] [--profile ort|hidet|tvm] [--no-verify]\n\
         \n\
         --artifact    PRTA artifact (must match the server's fingerprint)\n\
         --token       tenant auth secret (default demo)\n\
         --models      zoo models to optimize remotely (default resnet)\n\
         --request-id  base request id; model i uses base+i (default 1)\n\
         --profile     optimizer profile for the parity check (default ort)\n\
         --no-verify   skip the in-process byte-parity check\n\
         \n\
         model names: {}",
        ModelKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

/// Flags that take a value, and the one that does not.
const VALUE_FLAGS: [&str; 6] = [
    "--artifact",
    "--addr",
    "--token",
    "--models",
    "--request-id",
    "--profile",
];
const SWITCHES: [&str; 1] = ["--no-verify"];

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

fn parse_kinds(list: &str) -> Result<Vec<ModelKind>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            ModelKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == name)
                .ok_or_else(|| format!("unknown model `{name}`"))
        })
        .collect()
}

fn run(args: &[String]) -> Result<(), String> {
    check_args(args)?;
    let artifact = flag_value(args, "--artifact").ok_or("missing --artifact PATH")?;
    let addr = flag_value(args, "--addr").ok_or("missing --addr HOST:PORT")?;
    let token = flag_value(args, "--token").unwrap_or_else(|| "demo".to_string());
    let kinds = parse_kinds(&flag_value(args, "--models").unwrap_or_else(|| "resnet".to_string()))?;
    if kinds.is_empty() {
        return Err("--models names no models".to_string());
    }
    let base_rid: u64 = flag_value(args, "--request-id")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--request-id: bad u64 `{v}`"))
        })
        .transpose()?
        .unwrap_or(1);
    let verify = !args.iter().any(|a| a == "--no-verify");
    let profile = match flag_value(args, "--profile").as_deref() {
        None | Some("ort") => Profile::OrtLike,
        Some("hidet") => Profile::HidetLike,
        Some("tvm") => Profile::TvmLike,
        Some(other) => return Err(format!("unknown profile `{other}` (ort|hidet|tvm)")),
    };

    let t = Instant::now();
    let proteus = Proteus::load_artifact(&artifact).map_err(|e| e.to_string())?;
    let fingerprint = proteus.config_fingerprint();
    eprintln!(
        "warm-started from {artifact} in {:.1} ms (config fingerprint {fingerprint:#018x})",
        t.elapsed().as_secs_f64() * 1e3
    );

    // owner side: one obfuscation session per model, frames pre-encoded
    let params = TensorMap::new();
    let mut requests = Vec::new();
    let mut secrets = Vec::new();
    let mut input_frames = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let rid = base_rid + i as u64;
        let g = build(kind);
        let mut session = proteus
            .obfuscate_session(&g, &params, rid)
            .map_err(|e| e.to_string())?;
        let mut frames = Vec::with_capacity(session.num_buckets());
        let mut wire = Vec::with_capacity(session.num_buckets());
        while let Some(frame) = session.next_frame() {
            wire.push(frame.to_mux_bytes(rid));
            frames.push(frame);
        }
        secrets.push(session.finish().map_err(|e| e.to_string())?);
        input_frames.push(frames);
        requests.push(NetRequest {
            request_id: rid,
            frames: wire,
        });
    }

    let t = Instant::now();
    let client = NetClient::connect(&addr, &token, fingerprint).map_err(|e| e.to_string())?;
    eprintln!(
        "connected to {addr} as tenant token holder ({})",
        client.server_hello().banner
    );
    let responses = client.run_requests(requests).map_err(|e| e.to_string())?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    let optimizer = Optimizer::new(profile);
    let mut total_frames = 0usize;
    for ((response, secret), (kind, inputs)) in responses
        .iter()
        .zip(&secrets)
        .zip(kinds.iter().zip(&input_frames))
    {
        let frames = response
            .result
            .as_ref()
            .map_err(|e| format!("server failed {}: {e}", kind.name()))?;
        if verify {
            // the deployment invariant: remote wire bytes are
            // bit-identical to optimizing the same frames in-process
            let mut want: Vec<Vec<u8>> = inputs
                .iter()
                .map(|f| {
                    f.optimize(&optimizer, Some(1))
                        .to_mux_bytes(response.request_id)
                        .to_vec()
                })
                .collect();
            let mut got: Vec<Vec<u8>> = frames.iter().map(|b| b.to_vec()).collect();
            want.sort();
            got.sort();
            if want != got {
                return Err(format!(
                    "BYTE PARITY VIOLATION on {}: remote frames differ from the in-process path",
                    kind.name()
                ));
            }
        }
        let mut reassembly = DeobfuscationSession::new(secret);
        for raw in frames {
            reassembly
                .accept_mux_bytes(raw.clone())
                .map_err(|e| e.to_string())?;
        }
        let (graph, _params) = reassembly.finish().map_err(|e| e.to_string())?;
        graph.validate().map_err(|e| e.to_string())?;
        total_frames += frames.len();
        println!(
            "{:<12} rid {:>4}  {} frames  {} optimized nodes{}",
            kind.name(),
            response.request_id,
            frames.len(),
            graph.len(),
            if verify { "  parity OK" } else { "" }
        );
    }
    println!(
        "{} model(s), {total_frames} frames round-tripped in {wall_ms:.1} ms{}",
        kinds.len(),
        if verify {
            " — every byte identical to the in-process path"
        } else {
            ""
        }
    );
    Ok(())
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
        // without the check these would dial the default token / model
        for (argv, flag) in [
            (
                &["--artifact", "a.prta", "--addr", "127.0.0.1:1", "--token"][..],
                "--token",
            ),
            (
                &["--models", "--artifact", "a.prta", "--addr", "127.0.0.1:1"][..],
                "--models",
            ),
        ] {
            let err = run(&args(argv)).expect_err("missing value must not default");
            assert!(err.contains(flag), "{err}");
        }
        let err = run(&args(&["--artifact", "a.prta", "--verify"])).expect_err("unknown");
        assert!(err.contains("--verify"), "{err}");
    }
}
