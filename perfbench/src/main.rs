//! `perfbench`: the powadapt performance benchmark.
//!
//! ```text
//! perfbench --workload <placement|failover|figures> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run repeats the workload's unit of work, untraced, until `--seconds`
//! have passed, then checks its outputs outside the timed section (one
//! traced pass, isolated layer replays, and the committed goldens at the
//! golden seed). The last line of standard output is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Any failed check exits with code 1. See `README.md`
//! beside this crate for what each workload and metric is for.

mod cluster;
mod figures;
mod replay;
mod timing;

use std::fmt::Write as _;
use std::process::ExitCode;

use powadapt_obs::EventKind;

use crate::timing::elapsed_ns;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <placement|failover|figures> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Output checks run by a workload: each one counts as an attempted
/// operation, each failure as a failed one.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Operations the program was asked to do in one unit of work
    /// (tenant arrivals, or figure summaries), plus checks run.
    pub attempted: u64,
    /// Dropped arrivals plus failed checks.
    pub failed: u64,
    pub checks: Checks,
    /// The traced pass's spans, as JSON.
    pub spans_json: String,
}

/// Per-layer metrics every workload reports; a layer a workload never
/// enters reports 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("device.submit.calls", "count"),
    ("device.submit.ns", "ns"),
    ("device.advance.calls", "count"),
    ("device.advance.ns", "ns"),
    ("device.next_event.calls", "count"),
    ("device.next_event.ns", "ns"),
    ("device.completions", "count"),
    ("device.power_state.calls", "count"),
    ("device.idle_advance_ratio", "ratio"),
    ("cluster.run_to.ns", "ns"),
    ("cluster.self_ns", "ns"),
    ("cluster.steps", "count"),
    ("cluster.rebalance_rounds", "count"),
    ("cluster.infeasible_rounds", "count"),
    ("tree.rebalance.ns", "ns"),
    ("core.apply_budget.ns", "ns"),
    ("core.replans", "count"),
    ("place.route.calls", "count"),
    ("place.route.ns", "ns"),
    ("place.tick.ns", "ns"),
    ("place.migrations", "count"),
    ("place.migration_bytes", "B"),
    ("snap.snapshot.ns", "ns"),
    ("snap.resume.ns", "ns"),
    ("snap.bytes", "B"),
    ("snap.checkpoints", "count"),
    ("slo_missed", "count"),
    ("cap_violations", "count"),
    ("fail_ratio", "ratio"),
    ("obs.events", "count"),
    ("obs.trace_overhead", "x"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    names.extend(
        EventKind::NAMES
            .iter()
            .map(|k| (format!("obs.events.{k}"), "count")),
    );
    names.extend(
        powadapt_bench::golden::FIGURES
            .iter()
            .map(|f| (format!("io.figure.{f}.ns"), "ns")),
    );
    names
}

/// Collects per-layer values and emits every declared name, 0 where the
/// workload left it unset.
#[derive(Debug, Default)]
pub struct Layers(std::collections::BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        layer_metric_names()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: self.0.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    }
}

/// Median of `v` (which must be non-empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// The fastest host time seen for each piece of a unit of work across
/// the run's repetitions.
///
/// The host is shared: the same piece takes up to 1.6x its fastest time
/// in slow phases that last seconds, and a median over one run's
/// repetitions still moves by a quarter between runs. Interference only
/// ever adds time, so each piece's minimum, summed over the unit, is the
/// steady estimate of what the unit costs.
#[derive(Debug, Default)]
pub struct FastestPieces(Vec<u64>);

impl FastestPieces {
    /// Folds in one repetition's pieces (the same pieces, in the same
    /// order, every repetition).
    pub fn add(&mut self, pieces: &[u64]) {
        if self.0.is_empty() {
            self.0 = pieces.to_vec();
        }
        for (m, &p) in self.0.iter_mut().zip(pieces) {
            *m = (*m).min(p);
        }
    }

    pub fn pieces(&self) -> &[u64] {
        &self.0
    }

    pub fn total_s(&self) -> f64 {
        secs(self.0.iter().sum())
    }
}

/// Repetitions of the unit of work a run always makes, however short
/// `--seconds` is, so every median has a middle.
pub const MIN_REPS: usize = 3;

/// Calls `rep` until `seconds` of host time have passed and at least
/// [`MIN_REPS`] repetitions ran.
pub fn repeat<E>(seconds: f64, mut rep: impl FnMut() -> Result<(), E>) -> Result<usize, E> {
    let t0 = timing::now();
    let mut n = 0;
    loop {
        rep()?;
        n += 1;
        if n >= MIN_REPS && secs(elapsed_ns(t0)) >= seconds {
            return Ok(n);
        }
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn max_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checks.failures.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Where the traced run's spans are written: under the build directory,
/// which `.gitignore` already keeps out of the tree.
fn trace_path(args: &Args) -> std::path::PathBuf {
    // powadapt-lint: allow(D1, reason = "the span file follows the build directory; never feeds a result")
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from);
    dir.join("perfbench-trace")
        .join(format!("{}-{}.json", args.workload, args.seed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "placement" => cluster::run(cluster::Workload::Placement, &args),
        "failover" => cluster::run(cluster::Workload::Failover, &args),
        "figures" => figures::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for f in &outcome.checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if args.trace {
        let path = trace_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, &outcome.spans_json));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!("{}", result_json(&outcome, metrics));
    if outcome.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
