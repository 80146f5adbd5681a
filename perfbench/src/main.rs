//! The repository benchmark: end-to-end and per-layer metrics for the
//! Spotlight co-design tool and its `serve` daemon. See `README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload codesign-edge --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod codesign;
mod loadgen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run of every workload:
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("best_edp", "cycle.nJ"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// workload that never reaches a layer through the benchmark's seams
/// reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("swsearch.sample_us", "us"),
    ("swsearch.sample_calls", "count"),
    ("swsearch.sampler_share", "fraction"),
    ("features.sw_us", "us"),
    ("features.calls", "count"),
    ("dabo.rank_us", "us"),
    ("dabo.fit_us", "us"),
    ("dabo.suggests", "count"),
    ("eval.evaluations", "count"),
    ("eval.cache_hit_ratio", "fraction"),
    ("eval.infeasible_ratio", "fraction"),
    ("eval.engine_self_us", "us"),
    ("eval.backend_us", "us"),
    ("eval.backend_busy_s", "s"),
    ("codesign.hw_sample_ms", "ms"),
    ("codesign.thread_speedup", "ratio"),
    ("codesign.phase_overcount", "ratio"),
    ("obs.journal_record_us", "us"),
    ("obs.journal_flush_us", "us"),
    ("obs.journal_bytes_per_eval", "B"),
    ("store.create_p50_ms", "ms"),
    ("store.create_p99_ms", "ms"),
    ("store.wal_append_p50_ms", "ms"),
    ("store.wal_append_p99_ms", "ms"),
    ("store.complete_p50_ms", "ms"),
    ("store.complete_p99_ms", "ms"),
    ("scheduler.queue_wait_p50_ms", "ms"),
    ("scheduler.queue_wait_p99_ms", "ms"),
    ("scheduler.backlog_max", "count"),
    ("proto.submit_rtt_p50_ms", "ms"),
    ("proto.submit_rtt_p99_ms", "ms"),
    ("proto.status_rtt_p50_ms", "ms"),
    ("proto.status_rtt_p99_ms", "ms"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("serve.max_ok_rate_jobs_s", "jobs/s"),
    ("serve.fresh_job_p50_ms", "ms"),
    ("serve.repeat_job_p50_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// Workloads, by name.
pub const WORKLOADS: &[&str] = &["codesign-edge", "codesign-sim", "serve-open"];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    /// Operations attempted (runs or jobs).
    pub attempted: u64,
    /// Operations that failed, were refused or degraded.
    pub failed: u64,
}

impl Outcome {
    /// Sets a metric (the name must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("flag `{flag}` needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Renders any error as the message the benchmark reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Scratch directory for journals, state dirs, sockets and span files,
/// inside the directory the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench-out")
}

/// Peak resident set size of a process (`/proc/<pid>/status` `VmHWM`),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = Path::new("/proc").join(pid).join("status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {}", path.display()))
}

fn render_json(out: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if names == PER_LAYER => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    match args.workload.as_str() {
        "serve-open" => serve::run(args),
        _ => codesign::run(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return match serve::daemon_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: spotlight-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in names {
        if let Some(v) = outcome.metrics.get(name) {
            println!("metric {name:<30} {v:>16.6} {unit}");
        }
    }
    for (name, ok) in &outcome.checks {
        println!("check  {name:<60} {}", if *ok { "ok" } else { "FAILED" });
    }
    match render_json(&outcome, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-open --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-open", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve-open --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve-open --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload serve-open --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn json_lists_every_metric_and_fails_on_a_missing_end_to_end_one() {
        let mut o = Outcome {
            attempted: 4,
            ..Default::default()
        };
        o.check("x", true);
        for (name, _) in END_TO_END {
            o.metric(name, 1.5);
        }
        let line = render_json(&o, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        // Per-layer metrics a workload cannot see read 0.
        assert!(render_json(&o, PER_LAYER)
            .unwrap()
            .contains("\"trace.overhead_s\": {\"value\": 0,"));
        o.metrics.remove("wall_s");
        assert!(render_json(&o, END_TO_END).is_err());
        o.check("y", false);
        assert!(!o.correct());
    }
}
