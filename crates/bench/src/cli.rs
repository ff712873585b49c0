//! Command-line and environment configuration of the bench binaries.
//!
//! Every binary calls [`parse`] once, first thing in `main`, and passes
//! what it returns down explicitly: the executor's [`ParallelConfig`], the
//! figures' [`SweepScale`], the trace sink's [`TraceConfig`], and the
//! binary's own flag values. No library code reads the environment or the
//! process arguments.
//!
//! Shared by every binary:
//!
//! ```text
//! --workers N | -j N | --workers=N  sweep workers (0 = one per core);
//!                                   POWADAPT_WORKERS is the fallback,
//!                                   one per core the default
//! --trace-out FILE                  trace destination (perfetto:FILE
//!                                   unless POWADAPT_TRACE picks a mode)
//! POWADAPT_SCALE=quick|paper        figure scale (default quick)
//! POWADAPT_TRACE=events|metrics|perfetto:FILE
//! POWADAPT_PROGRESS                 set: report every sweep on stderr
//! ```
//!
//! An unknown flag, a malformed value or an unknown environment setting
//! prints the usage and exits with status 2, so a typo never silently
//! turns an option off.

use powadapt_cluster::{ClusterReport, ClusterSim, ClusterSpec};
use powadapt_io::{ParallelConfig, SweepScale};
use powadapt_obs::{TraceConfig, TraceMode, TraceSession};
use powadapt_sim::{SimDuration, SimTime};

/// One binary's parsed configuration.
#[derive(Debug)]
pub struct Cli {
    /// Binary name, for messages.
    bin: String,
    /// Sweep executor configuration.
    pub parallel: ParallelConfig,
    /// Figure scale.
    pub scale: SweepScale,
    /// Trace sink selection.
    pub trace: TraceConfig,
    /// Positional arguments, in order.
    pub positionals: Vec<String>,
    /// The binary's own value flags, in command-line order.
    values: Vec<(String, String)>,
}

impl Cli {
    /// The value of the binary flag `flag` (last occurrence wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Starts the trace session this configuration selects. Call it before
    /// any devices are built, so every construction-time recorder capture
    /// sees the installed sink; hand the session to [`finish_tracing`].
    pub fn start_tracing(&self) -> TraceSession {
        TraceSession::start(self.trace.clone())
    }

    /// The number under `"key"` in the committed JSON report named by
    /// `--check`, or `None` when the flag is not set. Exits with status 2
    /// when the report cannot be read or lacks the key.
    pub fn check_baseline(&self, key: &str) -> Option<f64> {
        let path = self.value("--check")?;
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| self.fail(&format!("cannot read {path}"), &e));
        let value = json_number(&text, key)
            .unwrap_or_else(|| self.fail(&format!("no \"{key}\" field in {path}"), &"parse error"));
        Some(value)
    }

    /// Writes `report` to the file named by `--out`, if the flag is set.
    pub fn write_out(&self, report: &str) {
        if let Some(path) = self.value("--out") {
            if let Err(e) = std::fs::write(path, report) {
                self.fail(&format!("cannot write {path}"), &e);
            }
        }
    }

    /// Reports `context: err` on stderr and exits with status 2.
    pub fn fail(&self, context: &str, err: &dyn std::fmt::Display) -> ! {
        eprintln!("{}: {context}: {err}", self.bin);
        std::process::exit(2);
    }
}

/// Uninstalls the recorder and writes the configured trace outputs. A
/// failure to write is reported on stderr and never fails the run.
pub fn finish_tracing(session: TraceSession) {
    if let Err(e) = session.finish() {
        eprintln!("powadapt-obs: could not write trace output: {e}");
    }
}

/// Parses the process arguments and environment for binary `bin`, which
/// takes the value flags in `flags` (`--name`) and, for each entry without
/// a leading dash, one positional argument. Prints the usage and exits
/// with status 2 on any error.
pub fn parse(bin: &str, flags: &[&str]) -> Cli {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "host configuration read once in main: worker count, scale, trace sink; at any fixed setting results are bit-identical, and the goldens pin the default scale"
    )]
    let env = |name: &str| std::env::var(name).ok();
    match parse_from(bin, flags, &argv, env) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{bin}: {msg}\n{}", usage(bin, flags));
            std::process::exit(2);
        }
    }
}

/// [`parse`] over explicit arguments (without the program name) and an
/// environment lookup, returning the error instead of exiting.
///
/// # Errors
///
/// An unknown flag, a flag without its value, an extra positional, a
/// non-numeric worker count, or an unknown `POWADAPT_SCALE` or
/// `POWADAPT_TRACE` value.
pub fn parse_from(
    bin: &str,
    flags: &[&str],
    argv: &[String],
    env: impl Fn(&str) -> Option<String>,
) -> Result<Cli, String> {
    let max_positionals = flags.iter().filter(|f| !f.starts_with('-')).count();
    let mut workers = None;
    let mut trace_out = None;
    let mut values = Vec::new();
    let mut positionals = Vec::new();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) if name.starts_with("--") => (name, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        if !name.starts_with('-') {
            if positionals.len() == max_positionals {
                return Err(format!("unexpected argument `{arg}`"));
            }
            positionals.push(arg.clone());
            continue;
        }
        let known = matches!(name, "--workers" | "-j" | "--trace-out") || flags.contains(&name);
        if !known {
            return Err(format!("unknown flag `{name}`"));
        }
        let Some(value) = inline.or_else(|| args.next().cloned()) else {
            return Err(format!("`{name}` needs a value"));
        };
        match name {
            "--workers" | "-j" => workers = Some(value),
            "--trace-out" => trace_out = Some(value),
            _ => values.push((name.to_string(), value)),
        }
    }

    let mut trace = TraceConfig::parse(&env("POWADAPT_TRACE").unwrap_or_default())?;
    if let Some(path) = trace_out {
        if trace.mode == TraceMode::Off {
            trace.mode = TraceMode::Perfetto(path.clone());
        }
        trace.out = Some(path);
    }
    let mut parallel = match workers.or_else(|| env("POWADAPT_WORKERS")) {
        None => ParallelConfig::per_core(),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => ParallelConfig::per_core(),
            Ok(n) => ParallelConfig::with_workers(n),
            Err(_) => return Err(format!("worker count `{v}` is not a number")),
        },
    };
    parallel.progress = env("POWADAPT_PROGRESS").is_some();
    Ok(Cli {
        bin: bin.to_string(),
        parallel,
        scale: scale(env("POWADAPT_SCALE").as_deref())?,
        trace,
        positionals,
        values,
    })
}

/// The figure scale named by `POWADAPT_SCALE`: `paper` (60 s / 4 GiB,
/// slow) or `quick` (1.2 s / 4 GiB, the default).
fn scale(name: Option<&str>) -> Result<SweepScale, String> {
    match name.unwrap_or_default() {
        "paper" => Ok(SweepScale::paper()),
        "" | "quick" => Ok(SweepScale::quick()),
        other => Err(format!(
            "unknown POWADAPT_SCALE `{other}` (expected quick | paper)"
        )),
    }
}

/// Minimal extraction of `"key": <number>` from a flat JSON report.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn usage(bin: &str, flags: &[&str]) -> String {
    let own: Vec<String> = flags
        .iter()
        .map(|f| {
            if f.starts_with('-') {
                format!("[{f} VALUE]")
            } else {
                format!("[{f}]")
            }
        })
        .collect();
    format!(
        "usage: {bin} [--workers N] [--trace-out FILE] {}\n\
         environment: POWADAPT_WORKERS=N POWADAPT_SCALE=quick|paper \
         POWADAPT_TRACE=events|metrics|perfetto:FILE POWADAPT_PROGRESS=1",
        own.join(" ")
    )
}

/// When `--snapshot-out` takes its snapshot.
#[derive(Debug, Clone, Copy)]
pub enum CheckpointAt {
    /// After `1/n` of the run's simulated span (2 = the midpoint).
    Fraction(u64),
    /// At a fixed simulated time.
    Time(SimTime),
}

impl CheckpointAt {
    /// The simulated time this rule names for `sim`'s run.
    pub fn time(self, sim: &ClusterSim) -> SimTime {
        match self {
            CheckpointAt::Fraction(n) => {
                let span = sim.end_time().duration_since(sim.start_time());
                sim.start_time() + SimDuration::from_nanos(span.as_nanos() / n)
            }
            CheckpointAt::Time(t) => t,
        }
    }
}

/// The checkpoint flags of a cluster binary, on the cell `spec` builds:
/// `--snapshot-out FILE` runs it to `at`, writes the sealed snapshot and
/// finishes the run; `--resume FILE` rebuilds the simulation from that
/// snapshot and runs the rest. Both hand the final report to `print`, so
/// the two paths print the same bytes after their first line. A corrupt,
/// truncated or mismatched snapshot is rejected with a typed error and
/// exit status 2, never a panic.
///
/// Returns false when neither flag is set.
pub fn checkpoint_flags(
    cli: &Cli,
    spec: impl Fn() -> ClusterSpec,
    at: CheckpointAt,
    print: impl Fn(&ClusterReport),
) -> bool {
    let report = if let Some(path) = cli.value("--snapshot-out") {
        let mut sim =
            ClusterSim::new(spec()).unwrap_or_else(|e| cli.fail("cannot build cluster", &e));
        if let Err(e) = sim.run_to(at.time(&sim)) {
            cli.fail("run to checkpoint failed", &e);
        }
        let bytes = sim
            .snapshot()
            .unwrap_or_else(|e| cli.fail("snapshot failed", &e));
        if let Err(e) = std::fs::write(path, &bytes) {
            cli.fail(&format!("cannot write {path}"), &e);
        }
        let pending = sim.placement().map_or(String::new(), |tier| {
            format!(" ({} migrations in flight)", tier.engine().pending())
        });
        println!(
            "checkpoint: {} bytes at t={:?}{pending} -> {path}",
            bytes.len(),
            sim.now()
        );
        sim.finish()
            .unwrap_or_else(|e| cli.fail("rest of the run failed", &e))
    } else if let Some(path) = cli.value("--resume") {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| cli.fail(&format!("cannot read {path}"), &e));
        let sim = ClusterSim::resume(spec(), &bytes)
            .unwrap_or_else(|e| cli.fail("snapshot rejected", &e));
        println!("resumed at t={:?} from {path}", sim.now());
        sim.finish()
            .unwrap_or_else(|e| cli.fail("resumed run failed", &e))
    } else {
        return false;
    };
    print(&report);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let flags = ["--snapshot-out", "--resume"];
        let err = parse_from("placement_eval", &flags, &argv(&["--chek", "x"]), no_env);
        assert!(err.unwrap_err().contains("--chek"));
        let err = parse_from("placement_eval", &flags, &argv(&["--chek=x"]), no_env);
        assert!(err.is_err());
        let err = parse_from("placement_eval", &flags, &argv(&["--resume"]), no_env);
        assert!(err.unwrap_err().contains("needs a value"));
        let err = parse_from("cluster_eval", &flags, &argv(&["stray"]), no_env);
        assert!(err.unwrap_err().contains("stray"));
    }

    #[test]
    fn trace_out_is_a_flag_not_a_positional() {
        let cli = parse_from(
            "all_figures",
            &["FIGURE"],
            &argv(&["--trace-out", "t.json", "table1"]),
            no_env,
        )
        .unwrap();
        assert_eq!(cli.positionals, ["table1"]);
        assert_eq!(cli.trace.mode, TraceMode::Perfetto("t.json".into()));
        assert_eq!(cli.trace.out.as_deref(), Some("t.json"));
        // An explicit POWADAPT_TRACE mode keeps its mode; the flag only
        // picks the destination.
        let env = |name: &str| (name == "POWADAPT_TRACE").then(|| "events".to_string());
        let cli = parse_from("x", &[], &argv(&["--trace-out=c.json"]), env).unwrap();
        assert_eq!(cli.trace.mode, TraceMode::Events);
        assert_eq!(cli.trace.out.as_deref(), Some("c.json"));
    }

    #[test]
    fn worker_flags_and_env_fallback() {
        let workers = |args: &[&str], env: Option<&str>| {
            let env = |name: &str| {
                (name == "POWADAPT_WORKERS")
                    .then(|| env.map(str::to_string))
                    .flatten()
            };
            parse_from("x", &[], &argv(args), env).map(|c| c.parallel)
        };
        assert_eq!(
            workers(&["-j", "3"], None),
            Ok(ParallelConfig::with_workers(3))
        );
        assert_eq!(
            workers(&["--workers", "5"], None),
            Ok(ParallelConfig::with_workers(5))
        );
        assert_eq!(
            workers(&["--workers=0"], None),
            Ok(ParallelConfig::per_core())
        );
        assert_eq!(workers(&[], Some("2")), Ok(ParallelConfig::with_workers(2)));
        assert_eq!(
            workers(&["-j", "4"], Some("2")),
            Ok(ParallelConfig::with_workers(4))
        );
        assert_eq!(workers(&[], None), Ok(ParallelConfig::per_core()));
        assert!(workers(&["-j", "four"], None).is_err());
        assert!(workers(&[], Some("lots")).is_err());
    }

    #[test]
    fn scale_and_progress_come_from_the_environment() {
        let with = |key: &'static str, value: &'static str| {
            move |name: &str| (name == key).then(|| value.to_string())
        };
        let cli = parse_from("x", &[], &[], with("POWADAPT_SCALE", "paper")).unwrap();
        assert_eq!(cli.scale, SweepScale::paper());
        let err = parse_from("x", &[], &[], with("POWADAPT_SCALE", "full"));
        assert!(err.unwrap_err().contains("`full`"));
        let cli = parse_from("x", &[], &[], no_env).unwrap();
        assert_eq!(cli.scale.runtime, SimDuration::from_millis(1200));
        assert!(!cli.parallel.progress);
        let err = parse_from("x", &[], &[], with("POWADAPT_SCALE", "ful"));
        assert!(err.unwrap_err().contains("ful"));
        let cli = parse_from("x", &[], &[], with("POWADAPT_PROGRESS", "1")).unwrap();
        assert!(cli.parallel.progress);
        assert!(parse_from("x", &[], &[], with("POWADAPT_TRACE", "perfeto")).is_err());
    }

    #[test]
    fn binary_flags_take_the_last_value() {
        let cli = parse_from(
            "longhaul",
            &["--days"],
            &argv(&["--days", "2", "--days=7"]),
            no_env,
        )
        .unwrap();
        assert_eq!(cli.value("--days"), Some("7"));
        assert_eq!(cli.value("--resume"), None);
    }
}
