//! Turns what a run observed into the end-to-end and per-layer metrics.

use crate::owner::{Load, Sample, Spans, OWNERS};
use crate::replay::ServerLayers;
use crate::report::Metric;
use crate::stats::{mean, median, ms, percentile, residual, sorted, tail_percentile};
use crate::verify::Quality;
use std::time::Duration;

/// Set-up timings. The artifact is trained once; each repetition then
/// starts a daemon on it, loads it in a fresh owner and warms that
/// owner's inventory: what restarting a deployment costs.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// `proteus-train train` wall time.
    pub train: Duration,
    /// Daemon spawn to its `listening on` line, per repetition.
    pub daemon_start: Vec<Duration>,
    /// `Proteus::load_artifact` in the owner, per repetition.
    pub owner_load: Vec<Duration>,
    /// `Proteus::warm_inventory` in the owner, per repetition: the
    /// population failures the artifact does not persist, paid once per
    /// owner process.
    pub owner_warm: Vec<Duration>,
}

impl Setup {
    /// The median repetition, in seconds.
    pub fn seconds(&self) -> f64 {
        let totals: Vec<f64> = self
            .daemon_start
            .iter()
            .zip(&self.owner_load)
            .zip(&self.owner_warm)
            .map(|((d, l), w)| (*d + *l + *w).as_secs_f64())
            .collect();
        median(&totals)
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Observed {
    /// Set-up timings.
    pub setup: Setup,
    /// The load phase.
    pub load: Load,
    /// The daemon's peak resident set, MiB.
    pub rss_peak_mb: f64,
    /// Quality over the fixed verification set.
    pub quality: Quality,
    /// The server-side replay (traced runs only).
    pub layers: Option<ServerLayers>,
}

fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    sorted(samples.map(|s| ms(s.latency)).collect())
}

/// The measured requests that count: those that completed before a
/// timed window closed, or all of a request-count phase. Returns their
/// latencies (ms, ascending) and completions per second from the window
/// start to the last of them.
fn measured(load: &Load) -> (Vec<f64>, f64) {
    let Some(start) = load.window_start else {
        return (Vec::new(), 0.0);
    };
    let offsets = load
        .samples
        .iter()
        .map(|s| (s, s.finished.saturating_duration_since(start)))
        .filter(|(_, at)| load.window.is_none_or(|w| *at <= w));
    let mut last = Duration::ZERO;
    let mut lat = Vec::new();
    for (s, at) in offsets {
        last = last.max(at);
        lat.push(ms(s.latency));
    }
    let rate = if last > Duration::ZERO {
        lat.len() as f64 / last.as_secs_f64()
    } else {
        0.0
    };
    (sorted(lat), rate)
}

/// The highest well-supported percentile of a sorted sample, with a note
/// naming it; the maximum when the sample is too small for any.
fn tail(sorted: &[f64]) -> (f64, String) {
    match tail_percentile(sorted.len()) {
        Some(p) => (percentile(sorted, p), format!("p{p} of {}", sorted.len())),
        None => (
            percentile(sorted, 100.0),
            format!("max of {}", sorted.len()),
        ),
    }
}

/// The metrics `BENCHMARK.json` bounds, from an untraced run.
pub fn end_to_end(o: &Observed) -> Vec<Metric> {
    let (lat, rate) = measured(&o.load);
    let n = lat.len();
    vec![
        Metric::new("throughput_rps", rate, "req/s")
            .note(format!("{OWNERS} closed-loop owners, {n} samples")),
        Metric::new("latency_p50_ms", percentile(&lat, 50.0), "ms").note(format!("{n} samples")),
        Metric::new("latency_p90_ms", percentile(&lat, 90.0), "ms").note(format!("{n} samples")),
        Metric::new("setup_s", o.setup.seconds(), "s")
            .note(format!("median of {} set-ups", o.setup.daemon_start.len())),
        Metric::new("serve_rss_peak_mb", o.rss_peak_mb, "MB").note("daemon VmHWM"),
        Metric::new("opt_slowdown", o.quality.opt_slowdown, "x")
            .note(format!("geomean over {} models", o.quality.models)),
        Metric::new("space_log10", o.quality.space_log10, "log10")
            .note(format!("mean over {} models", o.quality.models)),
    ]
}

/// Context printed beside the end-to-end metrics but not bounded.
pub fn context(o: &Observed) -> Vec<Metric> {
    let (lat, _) = measured(&o.load);
    let (tail_ms, tail_note) = tail(&lat);
    let error_rate = if o.load.attempted == 0 {
        0.0
    } else {
        o.load.failed as f64 / o.load.attempted as f64
    };
    vec![
        Metric::new("latency_tail_ms", tail_ms, "ms").note(tail_note),
        Metric::new("error_rate", error_rate, "failed/attempted")
            .note(format!("{} of {}", o.load.failed, o.load.attempted)),
    ]
}

/// The per-layer metrics, from a traced run: owner spans from the traced
/// requests, server layers from the in-process replay.
pub fn per_layer(o: &Observed) -> Vec<Metric> {
    let traced: Vec<&Sample> = o.load.samples.iter().filter(|s| s.traced).collect();
    let untraced = latencies_ms(o.load.samples.iter().filter(|s| !s.traced));
    let traced_lat = latencies_ms(traced.iter().copied());
    let mut out = Vec::new();

    let mut span_means = Vec::new();
    for (j, (mean_name, tail_name)) in Spans::METRICS.into_iter().enumerate() {
        let values = sorted(traced.iter().map(|s| ms(s.spans.values()[j])).collect());
        let (t, note) = tail(&values);
        span_means.push(mean(&values));
        out.push(Metric::new(mean_name, mean(&values), "ms"));
        out.push(Metric::new(tail_name, t, "ms").note(note));
    }
    let exchange_mean = mean(
        &traced
            .iter()
            .map(|s| ms(s.spans.exchange))
            .collect::<Vec<_>>(),
    );

    let layers = o.layers.unwrap_or_default();
    let mut server_ms = 0.0;
    for (name, d) in layers.named() {
        let m = layers.per_request_ms(d);
        server_ms += m;
        out.push(Metric::new(name, m, "ms").note(format!("{} replayed requests", layers.requests)));
    }
    let lookups = layers.hits + layers.misses;
    out.push(Metric::new(
        "cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            layers.hits as f64 / lookups as f64
        },
        "ratio",
    ));
    out.push(Metric::new(
        "opt.members_per_req",
        if layers.requests == 0 {
            0.0
        } else {
            layers.misses as f64 / layers.requests as f64
        },
        "count",
    ));
    out.push(
        Metric::new("net.server_other.mean_ms", exchange_mean - server_ms, "ms")
            .note("exchange minus the replayed server layers"),
    );

    let all = &o.load.samples;
    let per_req =
        |f: fn(&Sample) -> usize| mean(&all.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    out.push(Metric::new(
        "wire.bytes_out_per_req",
        per_req(|s| s.bytes_out),
        "B",
    ));
    out.push(Metric::new(
        "wire.bytes_in_per_req",
        per_req(|s| s.bytes_in),
        "B",
    ));
    out.push(Metric::new(
        "wire.frames_per_req",
        per_req(|s| s.frames),
        "count",
    ));

    let med = |v: &[Duration]| median(&v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    out.push(Metric::new(
        "setup.train_s",
        o.setup.train.as_secs_f64(),
        "s",
    ));
    out.push(Metric::new(
        "setup.daemon_start_s",
        med(&o.setup.daemon_start),
        "s",
    ));
    out.push(Metric::new(
        "setup.owner_load_s",
        med(&o.setup.owner_load),
        "s",
    ));
    out.push(Metric::new(
        "setup.owner_warm_s",
        med(&o.setup.owner_warm),
        "s",
    ));

    let (rest_ms, rest_pct) = residual(mean(&traced_lat), &span_means);
    out.push(Metric::new("e2e.samples", traced_lat.len() as f64, "count").note("traced requests"));
    out.push(Metric::new("e2e.residual.mean_ms", rest_ms, "ms"));
    out.push(Metric::new("e2e.residual_pct", rest_pct, "%").note("of the traced mean latency"));
    let base = percentile(&untraced, 50.0);
    let overhead = if base > 0.0 {
        (percentile(&traced_lat, 50.0) - base) / base * 100.0
    } else {
        0.0
    };
    out.push(
        Metric::new("trace.overhead_pct", overhead, "%").note(format!(
            "traced vs untraced p50, {} untraced samples",
            untraced.len()
        )),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn sample(start: Instant, finished_ms: u64, latency_ms: u64) -> Sample {
        Sample {
            index: 0,
            latency: Duration::from_millis(latency_ms),
            finished: start + Duration::from_millis(finished_ms),
            traced: false,
            spans: Spans::default(),
            bytes_out: 0,
            bytes_in: 0,
            frames: 0,
            digest: 0,
        }
    }

    fn close(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-9)
    }

    #[test]
    fn a_timed_window_leaves_out_late_completions() {
        let start = Instant::now();
        let timed = Load {
            samples: vec![
                sample(start, 500, 30),
                sample(start, 1000, 10),
                sample(start, 1500, 20),
            ],
            window_start: Some(start),
            window: Some(Duration::from_secs(1)),
            ..Load::default()
        };
        let (lat, rate) = measured(&timed);
        assert!(close(&lat, &[10.0, 30.0]));
        assert!((rate - 2.0).abs() < 1e-9);

        // a request-count phase keeps every completion
        let counted = Load {
            window: None,
            ..timed
        };
        let (lat, rate) = measured(&counted);
        assert!(close(&lat, &[10.0, 20.0, 30.0]));
        assert!((rate - 2.0).abs() < 1e-9);

        assert_eq!(measured(&Load::default()), (Vec::new(), 0.0));
    }
}
