//! Run metadata and output: one `workload metric value unit` line per
//! metric, and one JSON object per workload as the last line.

use crate::daemon::kb_field;
use std::path::Path;

/// The machine a run measured.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Available parallelism.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu: String,
    /// `/proc/meminfo` MemTotal, KiB.
    pub mem_total_kb: u64,
    /// Kernel release.
    pub kernel: String,
}

impl Machine {
    /// Reads the machine description from `/proc`; unknown fields stay
    /// empty or zero.
    pub fn probe() -> Machine {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        let cpu = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_string(),
                )
            })
            .unwrap_or_default();
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            mem_total_kb: kb_field(&read("/proc/meminfo"), "MemTotal").unwrap_or(0),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
        }
    }
}

/// CPU time the hypervisor has given to other guests since boot, in
/// seconds summed over CPUs: the `steal` column of `/proc/stat`, in
/// Linux's fixed 100 ticks per second. `0` where it is not reported.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// The filesystem type holding `path`: the longest `/proc/mounts` mount
/// point that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (point, kind) = (f.nth(1)?, f.next()?);
            path.starts_with(point)
                .then_some((point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Context printed after the value on the text line (sample count,
    /// the percentile a tail was taken at).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// The same metric with a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives it.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The `workload metric value unit` lines.
pub fn text_lines(workload: &str, metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let line = format!("{workload} {} {} {}", m.name, json_num(m.value), m.unit);
            if m.note.is_empty() {
                line
            } else {
                format!("{line}  # {}", m.note)
            }
        })
        .collect()
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_the_four_keys() {
        let m = [Metric::new("latency_p50_ms", 12.5, "ms")];
        assert_eq!(
            result_json(true, 10, 1, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"latency_p50_ms\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn text_lines_carry_notes() {
        let m = [Metric::new("x", 1.0, "ms").note("p95 of 30")];
        assert_eq!(
            text_lines("w", &m),
            vec!["w x 1 ms  # p95 of 30".to_string()]
        );
    }
}
