//! End-to-end tracing plumbing: the [`TraceRecorder`] (event log +
//! metrics in one sink), the [`TraceConfig`] a binary selects its sink
//! with, and the [`TraceSession`] lifecycle used by binaries.
//!
//! This crate reads neither the environment nor the command line. The
//! bench binaries parse `POWADAPT_TRACE` and `--trace-out` in their
//! command-line parser (`powadapt_bench::cli`), which builds the
//! [`TraceConfig`]:
//!
//! ```text
//! POWADAPT_TRACE=events            # event-count summary on stderr
//! POWADAPT_TRACE=metrics           # metrics snapshot JSON on stderr
//! POWADAPT_TRACE=perfetto:out.json # Chrome trace -> out.json, plus
//!                                  # out.json.metrics.json,
//!                                  # out.json.events.jsonl (trace_query
//!                                  # input) and out.json.folded
//! --trace-out out.json             # CLI shorthand for perfetto:out.json
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::sync::Arc;

use crate::event::{Event, EventKind};
use crate::export::{chrome_trace, events_jsonl};
use crate::metrics::{push_json_string, MetricsRegistry};
use crate::recorder::{EventLog, Recorder};
use crate::span::collapsed_stacks;

/// A recorder bundling an [`EventLog`] with a [`MetricsRegistry`]: every
/// event is logged, counted (`events.<kind>`), and folded into the
/// derived histograms (`io.latency_us`, `power.watts`).
#[derive(Debug, Default)]
pub struct TraceRecorder {
    log: EventLog,
    metrics: MetricsRegistry,
}

impl TraceRecorder {
    /// A trace recorder whose ring retains `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            log: EventLog::new(capacity),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The underlying event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The derived metrics.
    ///
    /// The `events.<kind>` counter family is synced from the event log's
    /// per-kind totals *here*, at read time — the record hot path never
    /// re-counts kinds into the registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        sync_event_counters(&self.log, &self.metrics);
        &self.metrics
    }

    /// Discard everything recorded so far, keeping the ring's allocation
    /// (see [`EventLog::clear`]) so a warmed recorder can be reset
    /// between measurement passes without re-faulting its pages.
    pub fn clear(&self) {
        self.log.clear();
        self.metrics.clear();
    }
}

/// Publishes the log's per-kind totals as `events.<kind>` counters.
/// Called at read time (snapshots, exports) so the record path pays for
/// one dense array add per event instead of a keyed counter update.
fn sync_event_counters(log: &EventLog, metrics: &MetricsRegistry) {
    for (name, n) in log.counts() {
        metrics.set_counter(&format!("events.{name}"), n);
    }
}

/// Folds one event into a registry: the derived histograms
/// (`io.latency_us`, `power.watts`), the IO byte counters, and the
/// controller gauges. The `events.<kind>` counters are *not* derived
/// here — they mirror the event log's totals and are synced lazily at
/// read time ([`sync_event_counters`]); most kinds therefore never touch
/// the registry on the hot path.
fn derive_event_metrics(metrics: &MetricsRegistry, event: &Event) {
    match &event.kind {
        EventKind::IoComplete {
            dir, len, latency, ..
        } => {
            metrics.observe("io.latency_us", latency.as_secs_f64() * 1e6);
            let counter = match dir {
                crate::IoDir::Read => "io.read_bytes",
                crate::IoDir::Write => "io.write_bytes",
            };
            metrics.inc(counter, *len);
        }
        EventKind::PowerSample { watts } => {
            metrics.observe("power.watts", *watts);
        }
        EventKind::EnergyAttributed(e) => {
            metrics.set_gauge(&format!("energy.stranded_w.{}", e.node), e.stranded_w);
        }
        EventKind::ControllerDecision(d) => {
            metrics.set_gauge("controller.budget_w", d.budget_w);
            metrics.set_gauge("controller.expected_power_w", d.expected_power_w);
            metrics.set_gauge("controller.quarantined", d.quarantined.len() as f64);
        }
        _ => {}
    }
}

impl Recorder for TraceRecorder {
    fn record(&self, event: Event) {
        derive_event_metrics(&self.metrics, &event);
        self.log.record(event);
    }
}

/// What to collect and where to put it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No recorder installed; emit sites are no-ops.
    #[default]
    Off,
    /// Count events; summary to `--trace-out` or stderr at finish.
    Events,
    /// Full metrics snapshot JSON to `--trace-out` or stderr at finish.
    Metrics,
    /// Chrome trace JSON to the given path, plus `<path>.metrics.json`
    /// and `<path>.folded` (collapsed-stack flamegraph).
    Perfetto(String),
}

/// Parsed tracing configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Collection mode.
    pub mode: TraceMode,
    /// `--trace-out` destination override.
    pub out: Option<String>,
}

impl TraceConfig {
    /// Parses a `POWADAPT_TRACE` value.
    pub fn parse(spec: &str) -> Result<TraceConfig, String> {
        let mode = match spec {
            "" | "off" => TraceMode::Off,
            "events" => TraceMode::Events,
            "metrics" => TraceMode::Metrics,
            other => match other.strip_prefix("perfetto:") {
                Some(path) if !path.is_empty() => TraceMode::Perfetto(path.to_string()),
                _ => {
                    return Err(format!(
                        "unrecognized POWADAPT_TRACE `{spec}` \
                         (expected events | metrics | perfetto:<path>)"
                    ))
                }
            },
        };
        Ok(TraceConfig { mode, out: None })
    }
}

/// A tracing scope for a binary: installs a [`TraceRecorder`] as the
/// process-global recorder on `start`, exports everything on
/// [`finish`](TraceSession::finish).
#[derive(Debug)]
pub struct TraceSession {
    config: TraceConfig,
    recorder: Option<Arc<TraceRecorder>>,
}

impl TraceSession {
    /// Starts a session for `config`; a recorder is installed globally
    /// unless the mode is [`TraceMode::Off`].
    pub fn start(config: TraceConfig) -> TraceSession {
        let recorder = match config.mode {
            TraceMode::Off => None,
            _ => {
                let rec = Arc::new(TraceRecorder::new(EventLog::DEFAULT_CAPACITY));
                crate::install(rec.clone());
                Some(rec)
            }
        };
        TraceSession { config, recorder }
    }

    /// True when a recorder is installed.
    pub fn is_active(&self) -> bool {
        self.recorder.is_some()
    }

    /// The session's recorder, when active.
    pub fn recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.recorder.as_ref()
    }

    /// Uninstalls the recorder and writes the configured outputs.
    pub fn finish(self) -> io::Result<()> {
        let Some(rec) = self.recorder else {
            return Ok(());
        };
        crate::uninstall();
        match &self.config.mode {
            TraceMode::Off => Ok(()),
            TraceMode::Events => {
                write_or_stderr(self.config.out.as_deref(), &event_counts_json(&rec))
            }
            TraceMode::Metrics => write_or_stderr(
                self.config.out.as_deref(),
                &rec.metrics().snapshot().to_json(),
            ),
            TraceMode::Perfetto(path) => {
                let path = self.config.out.as_deref().unwrap_or(path);
                let events = rec.log().snapshot();
                fs::write(path, chrome_trace(&events))?;
                fs::write(
                    format!("{path}.metrics.json"),
                    rec.metrics().snapshot().to_json(),
                )?;
                fs::write(format!("{path}.events.jsonl"), events_jsonl(&events))?;
                let folded = collapsed_stacks(&events);
                if !folded.is_empty() {
                    fs::write(format!("{path}.folded"), folded)?;
                }
                eprintln!(
                    "powadapt-obs: wrote {} events to {path} (+ .metrics.json, \
                     .events.jsonl, .folded); open at https://ui.perfetto.dev",
                    events.len()
                );
                Ok(())
            }
        }
    }
}

/// Event-count summary as deterministic JSON (sorted kinds).
pub fn event_counts_json(rec: &TraceRecorder) -> String {
    let mut out = String::from("{\n  \"total\": ");
    out.push_str(&rec.log().total().to_string());
    out.push_str(",\n  \"dropped\": ");
    out.push_str(&rec.log().dropped().to_string());
    out.push_str(",\n  \"counts\": {");
    let counts = rec.log().counts();
    for (i, (name, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(&mut out, name);
        out.push_str(&format!(": {n}"));
    }
    if !counts.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

fn write_or_stderr(out: Option<&str>, content: &str) -> io::Result<()> {
    match out {
        Some(path) => fs::write(path, content),
        None => {
            eprintln!("{content}");
            Ok(())
        }
    }
}

impl fmt::Display for TraceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceMode::Off => f.write_str("off"),
            TraceMode::Events => f.write_str("events"),
            TraceMode::Metrics => f.write_str("metrics"),
            TraceMode::Perfetto(path) => write!(f, "perfetto:{path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoDir;
    use powadapt_sim::{SimDuration, SimTime};

    #[test]
    fn parse_modes() {
        assert_eq!(TraceConfig::parse("").map(|c| c.mode), Ok(TraceMode::Off));
        assert_eq!(
            TraceConfig::parse("events").map(|c| c.mode),
            Ok(TraceMode::Events)
        );
        assert_eq!(
            TraceConfig::parse("metrics").map(|c| c.mode),
            Ok(TraceMode::Metrics)
        );
        assert_eq!(
            TraceConfig::parse("perfetto:x.json").map(|c| c.mode),
            Ok(TraceMode::Perfetto("x.json".into()))
        );
        assert!(TraceConfig::parse("perfetto:").is_err());
        assert!(TraceConfig::parse("nope").is_err());
    }

    #[test]
    fn trace_recorder_derives_metrics() {
        let rec = TraceRecorder::new(16);
        rec.record(Event {
            at: SimTime::from_micros(5),
            track: "device0",
            kind: EventKind::IoComplete {
                id: 1,
                dir: IoDir::Read,
                len: 4096,
                latency: SimDuration::from_micros(120),
            },
        });
        rec.record(Event {
            at: SimTime::from_micros(6),
            track: "meter",
            kind: EventKind::PowerSample { watts: 9.5 },
        });
        assert_eq!(rec.metrics().counter("events.io_complete"), 1);
        assert_eq!(rec.metrics().counter("io.read_bytes"), 4096);
        let snap = rec.metrics().snapshot();
        assert_eq!(snap.histograms.len(), 2);
        let json = event_counts_json(&rec);
        assert!(json.contains("\"io_complete\": 1"));
        assert!(json.contains("\"total\": 2"));
    }

    #[test]
    fn mode_display_round_trips() {
        for spec in ["events", "metrics", "perfetto:a.json"] {
            let cfg = TraceConfig::parse(spec).expect("valid spec");
            assert_eq!(cfg.mode.to_string(), spec);
        }
    }
}
