//! # powadapt-obs — deterministic sim-time observability
//!
//! Telemetry for the powadapt stack that is **deterministic by
//! construction**: every event is stamped with [`SimTime`]
//! (`powadapt_sim::SimTime`), never wall-clock, and recording is strictly
//! write-only from the simulation's point of view — enabling it cannot
//! perturb results. The golden-figure suite proves this: figures render
//! byte-identical with tracing off and with full tracing on.
//!
//! Four pieces:
//!
//! - **Events** ([`Event`], [`EventKind`]): a typed schema for the
//!   observable edges of the simulation — IO lifecycle, power-state
//!   transitions, cap-governor hits, spin-up/down, faults, breaker
//!   transitions, and controller decisions.
//! - **Recorders** ([`Recorder`], [`EventLog`], [`TraceRecorder`]): sinks
//!   behind a cloneable [`RecorderHandle`]; the [`emit!`] macro checks the
//!   handle *before* building the payload, so an uninstalled recorder
//!   costs one `Option` branch.
//! - **Metrics** ([`MetricsRegistry`]): counters, gauges, and
//!   histograms backed by log-bucket quantile sketches ([`Sketch`],
//!   γ = [`sketch::RELATIVE_ERROR`]), atomically snapshotable as
//!   hand-rolled deterministic JSON. Each recorder owns its registry;
//!   there is no process-wide one.
//! - **Profiling & export** ([`span_totals`], [`collapsed_stacks`],
//!   [`chrome_trace`]): sim-time span aggregation, collapsed-stack
//!   flamegraph text, and Chrome `trace_event` JSON loadable in Perfetto
//!   with power rendered as counter tracks alongside IO spans.
//!
//! ## Emitting
//!
//! ```
//! use std::sync::Arc;
//! use powadapt_obs::{emit, Event, EventKind, EventLog, RecorderHandle};
//! use powadapt_sim::SimTime;
//!
//! let log = Arc::new(EventLog::new(1024));
//! let rec = RecorderHandle::new(log.clone());
//! let now = SimTime::from_micros(42);
//! emit!(rec, now, "device0", EventKind::SpinUp);
//! assert_eq!(log.total(), 1);
//! ```
//!
//! ## Tracing a binary
//!
//! ```no_run
//! use powadapt_obs::{TraceConfig, TraceSession};
//!
//! let config = TraceConfig::parse("perfetto:out.json").expect("valid spec");
//! let session = TraceSession::start(config);
//! // ... build devices (they capture the global recorder), run ...
//! session.finish().expect("write trace outputs");
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod event;
mod export;
mod intern;
mod metrics;
mod recorder;
pub mod sketch;
mod span;
mod trace;

pub use event::{
    ConservationViolation, ControllerDecision, EnergyAttributed, Event, EventKind, IoDir,
    RebalanceDecision,
};
pub use export::{chrome_trace, events_jsonl};
pub use intern::intern;
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use recorder::{
    current, install, uninstall, with_installed, EventLog, Recorder, RecorderHandle,
};
pub use sketch::Sketch;
pub use span::{collapsed_stacks, span_totals, SpanStat};
pub use trace::{event_counts_json, TraceConfig, TraceMode, TraceRecorder, TraceSession};

/// Record an event through a [`RecorderHandle`] — free when disabled.
///
/// The handle is checked before the payload expression is evaluated, so
/// an uninstalled recorder costs one `Option` branch.
///
/// The track is an interned `&'static str` ([`intern`]): a literal
/// works directly, a dynamic name (`device{i}`) is interned once at
/// component construction — never per event.
#[macro_export]
macro_rules! emit {
    ($rec:expr, $at:expr, $track:expr, $kind:expr) => {
        if $rec.is_enabled() {
            $rec.record($crate::Event {
                at: $at,
                track: $track,
                kind: $kind,
            });
        }
    };
}

/// Record a profiling span (start + known sim-time duration) — free when
/// disabled. Sugar for [`emit!`] with [`EventKind::Span`]. Track and
/// label are interned `&'static str`s, same contract as [`emit!`]:
/// literals work directly, dynamic names are interned at construction.
#[macro_export]
macro_rules! span {
    ($rec:expr, $start:expr, $track:expr, $label:expr, $dur:expr) => {
        if $rec.is_enabled() {
            $rec.record($crate::Event {
                at: $start,
                track: $track,
                kind: $crate::EventKind::Span {
                    label: $label,
                    dur: $dur,
                },
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_sim::{SimDuration, SimTime};
    use std::sync::Arc;

    #[test]
    fn emit_skips_payload_when_disabled() {
        let rec = RecorderHandle::disabled();
        let mut evaluated = false;
        emit!(rec, SimTime::ZERO, "t", {
            evaluated = true;
            EventKind::SpinUp
        });
        assert!(!evaluated);
    }

    #[test]
    fn span_macro_records() {
        let log = Arc::new(EventLog::new(8));
        let rec = RecorderHandle::new(log.clone());
        span!(
            rec,
            SimTime::from_micros(1),
            "device0",
            "die0.program",
            SimDuration::from_micros(200)
        );
        let events = log.snapshot();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::Span { .. }));
    }

    #[test]
    fn global_slot_round_trip() {
        // One test owns the global slot to avoid cross-test interference.
        let log = Arc::new(EventLog::new(8));
        // The previous occupant (if any) is another test's; just replace it.
        let _prev = install(log.clone());
        let handle = current();
        assert!(handle.is_enabled());
        emit!(handle, SimTime::ZERO, "g", EventKind::SpinDown);
        uninstall();
        assert!(!current().is_enabled());
        assert!(log.total() >= 1);

        // A scoped install restores the previous occupant, even when the
        // scope unwinds.
        let outer = Arc::new(EventLog::new(8));
        install(outer.clone());
        let inner = Arc::new(EventLog::new(8));
        let unwound = std::panic::catch_unwind(|| {
            with_installed(inner.clone(), || {
                emit!(current(), SimTime::ZERO, "g", EventKind::SpinUp);
                panic!("scope fails");
            });
        });
        assert!(unwound.is_err());
        assert_eq!(inner.total(), 1);
        emit!(current(), SimTime::ZERO, "g", EventKind::SpinUp);
        assert_eq!(outer.total(), 1);
        assert_eq!(with_installed(inner.clone(), || 7), 7);
        assert!(uninstall().is_some(), "the outer recorder is back");
        assert!(!current().is_enabled());
    }
}
