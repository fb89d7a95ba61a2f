//! Rendering a run's outcome as JSON lines.
//!
//! Two lines per run: a detail object (host, fingerprint, checks, sample
//! counts and quartiles) for people comparing two commits by eye, then the
//! result object the benchmark contract fixes — `correct`, `attempted`,
//! `failed`, `metrics` — as the last line of standard output.

use std::fmt::Write;

use crate::run::Outcome;
use crate::trace::Span;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit measured (shortest form that round-trips).
///
/// # Panics
///
/// Panics on a non-finite value: no metric may be one.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// Where the numbers came from.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// `rustc -V` of the toolchain that built the binary, if known.
    pub rustc: String,
    /// Git revision of the checkout, if it is one.
    pub revision: String,
}

impl Host {
    /// Describes this host. The toolchain and revision are handed in by
    /// `run.sh` through the environment, because finding them means
    /// starting other programs.
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown", str::trim)
            .to_string();
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env("METABENCH_RUSTC"),
            revision: env("METABENCH_REV"),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"revision\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.revision)
        )
    }
}

/// `failed / attempted` of an outcome.
pub fn failed_share(out: &Outcome) -> f64 {
    out.failed() as f64 / out.attempted().max(1) as f64
}

/// Value of metric `name`; a per-layer metric the workload does not
/// produce reads 0.
fn value_of(out: &Outcome, name: &str) -> f64 {
    out.metrics.get(name).map_or(0.0, |m| m.value)
}

/// The contract's result object for the metrics in `names`.
pub fn result_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value_of(out, name)),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed() == 0,
        out.attempted(),
        out.failed(),
        metrics.join(", ")
    )
}

/// The detail object: everything the result line has no room for.
pub fn detail_line(
    workload: &str,
    seed: u64,
    traced: bool,
    out: &Outcome,
    names: &[(&str, &str)],
    host: &Host,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let mut m = format!(
                "{{\"name\": {}, \"unit\": {}, \"value\": {}",
                json_str(name),
                json_str(unit),
                json_num(value_of(out, name))
            );
            if let Some(q) = out.metrics.get(*name).and_then(|m| m.spread) {
                write!(
                    m,
                    ", \"samples\": {}, \"q1\": {}, \"q3\": {}, \"max\": {}",
                    q.n,
                    json_num(q.q1),
                    json_num(q.q3),
                    json_num(q.max)
                )
                .expect("string write");
            }
            m.push('}');
            m
        })
        .collect();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"host\": {}, \"fingerprint\": \"{:016x}\", \
         \"events\": {}, \"passes\": {}, \"failed_share\": {}, \"checks\": [{}], \"metrics\": [{}]}}",
        json_str(workload),
        seed,
        traced,
        host.json(),
        out.fingerprint,
        out.events,
        out.passes,
        json_num(failed_share(out)),
        checks.join(", "),
        metrics.join(", ")
    )
}

/// The span log as one JSON document.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "  {{\"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}}}",
                json_str(&s.name),
                s.start_us,
                s.end_us,
                s.parent.map_or("null".into(), |p| p.to_string())
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"spans\": [\n{}\n]}}\n",
        json_str(workload),
        seed,
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3");
    }
}
