//! The metrics registry: counters, gauges, and sketch-backed histograms,
//! snapshotable as hand-rolled deterministic JSON.
//!
//! Everything lives behind one mutex, which is what makes
//! [`MetricsRegistry::snapshot`] *atomic*: a reader can never observe a
//! torn set of totals. Keys are sorted (`BTreeMap`) so snapshots and
//! their JSON rendering are byte-stable. Each recorder owns its registry
//! ([`crate::TraceRecorder::metrics`]); there is no process-wide one.
//!
//! Histograms are [`Sketch`]es (log-bucket quantile sketches, γ =
//! [`crate::sketch::RELATIVE_ERROR`]) rather than stored-sample lists:
//! memory is O(buckets) regardless of stream length and the observe path
//! allocates nothing in steady state.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

use crate::sketch::Sketch;

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Sketch>,
}

/// A thread-safe registry of named counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Add `by` to counter `name` (created at zero on first use).
    ///
    /// Steady state (the counter exists) looks the key up by `&str` and
    /// allocates nothing; only the first increment of a name copies it.
    pub fn inc(&self, name: &str, by: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                inner.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Set counter `name` to an absolute value.
    ///
    /// This is how lazily derived counters (the `events.<kind>` family,
    /// which mirrors the event log's per-kind totals) are published at
    /// read time instead of being re-counted on the record hot path.
    pub fn set_counter(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(c) => *c = value,
            None => {
                inner.counters.insert(name.to_string(), value);
            }
        }
    }

    /// Read counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Record `value` into histogram `name`.
    ///
    /// Steady state (the histogram exists) looks the key up by `&str` and
    /// bumps a fixed bucket array: no allocation.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(s) => s.observe(value),
            None => {
                let slot = inner.histograms.entry(name.to_string());
                slot.or_default().observe(value);
            }
        }
    }

    /// Atomically read every metric. Keys come out sorted; two snapshots
    /// of identical registry state render to identical JSON.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .filter_map(|(k, s)| {
                    Some(HistogramSnapshot {
                        name: k.clone(),
                        count: s.count(),
                        min: s.min()?,
                        max: s.max()?,
                        mean: s.mean()?,
                        p50: s.percentile(50.0)?,
                        p95: s.percentile(95.0)?,
                        p99: s.percentile(99.0)?,
                    })
                })
                .collect(),
        }
    }

    /// Drop every metric.
    pub fn clear(&self) {
        *self.lock() = Inner::default();
    }
}

/// Percentile summary of one histogram, derived from its sketch.
///
/// `min`/`max` are exact; `mean` and the percentiles are within the
/// sketch's relative-error bound ([`crate::sketch::RELATIVE_ERROR`]) of
/// the exact sample statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Samples summarized.
    pub count: u64,
    /// Smallest sample (exact).
    pub min: f64,
    /// Largest sample (exact).
    pub max: f64,
    /// Sketch-derived arithmetic mean.
    pub mean: f64,
    /// Sketch-estimated 50th percentile (interpolated ranks).
    pub p50: f64,
    /// Sketch-estimated 95th percentile.
    pub p95: f64,
    /// Sketch-estimated 99th percentile.
    pub p99: f64,
}

/// An atomic, sorted copy of a registry's state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name. Empty histograms are omitted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name` in this snapshot (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Hand-rolled deterministic JSON: keys in sorted order, floats via
    /// `{:?}` (shortest round-trip form), no whitespace variability.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, &self.counters, |v| v.to_string());
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, &self.gauges, |v| format!("{v:?}"));
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, &h.name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"min\": {:?}, \"max\": {:?}, \"mean\": {:?}, \
                 \"p50\": {:?}, \"p95\": {:?}, \"p99\": {:?}}}",
                h.count, h.min, h.max, h.mean, h.p50, h.p95, h.p99
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_entries<V: Copy>(out: &mut String, entries: &[(String, V)], render: impl Fn(V) -> String) {
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(out, k);
        out.push_str(": ");
        out.push_str(&render(*v));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// Append `s` as a JSON string literal, escaping the characters JSON
/// requires (quotes, backslashes, control bytes).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.inc("a", 2);
        m.inc("a", 3);
        m.inc("b", 1);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_json_stable() {
        let m = MetricsRegistry::new();
        m.inc("z", 1);
        m.inc("a", 2);
        m.set_gauge("power", 11.5);
        m.observe("lat", 1.0);
        m.observe("lat", 3.0);
        let s1 = m.snapshot();
        let s2 = m.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(
            s1.counters,
            vec![("a".to_string(), 2), ("z".to_string(), 1)]
        );
        let json = s1.to_json();
        assert!(json.contains("\"a\": 2"));
        assert!(json.contains("\"power\": 11.5"));
        assert!(json.contains("\"count\": 2"));
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\n\"");
    }
}
