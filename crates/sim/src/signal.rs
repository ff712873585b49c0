//! Piecewise-constant signals over simulated time.
//!
//! Device power draw is modeled as a step function: it changes only at
//! simulation events (a die starts programming, the spindle stops, ...).
//! [`StepSignal`] records those steps and supports point queries, window
//! integration, and trailing-window averages — the latter is exactly the
//! semantics of an NVMe power cap ("average power over any 10-second
//! period").

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// A right-continuous step function of simulated time.
///
/// The signal holds an initial value from time zero and a sequence of
/// `(time, value)` steps. Values are `f64` (watts, in the power use case, but
/// the type is unit-agnostic).
///
/// Memory can be bounded with [`StepSignal::set_retention`]: steps older than
/// the retention window (relative to the latest step) are compacted away,
/// which is what long-running experiments use.
///
/// # Examples
///
/// ```
/// use powadapt_sim::{SimDuration, SimTime, StepSignal};
///
/// let mut s = StepSignal::new(1.0);
/// s.step(SimTime::from_millis(10), 3.0);
/// assert_eq!(s.value_at(SimTime::from_millis(5)), 1.0);
/// assert_eq!(s.value_at(SimTime::from_millis(10)), 3.0);
/// // Integral over [0, 20 ms): 10 ms at 1.0 + 10 ms at 3.0.
/// let area = s.integrate(SimTime::ZERO, SimTime::from_millis(20));
/// assert!((area - 0.04).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StepSignal {
    /// Value before the first retained step.
    base: f64,
    /// Time from which `base` holds (start of retained history).
    base_from: SimTime,
    /// Retained steps, in strictly increasing time order.
    steps: VecDeque<(SimTime, f64)>,
    retention: Option<SimDuration>,
}

impl StepSignal {
    /// Creates a signal that holds `initial` from time zero.
    pub fn new(initial: f64) -> Self {
        StepSignal {
            base: initial,
            base_from: SimTime::ZERO,
            steps: VecDeque::new(),
            retention: None,
        }
    }

    /// Limits retained history to `window` behind the most recent step.
    ///
    /// Queries older than the retained history return the compacted base
    /// value, so only enable retention when older history is not needed.
    pub fn set_retention(&mut self, window: SimDuration) {
        self.retention = Some(window);
        self.compact();
    }

    /// Appends a step: from `at` onward the signal has value `value`.
    ///
    /// Steps at the same instant overwrite; out-of-order steps are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the latest recorded step.
    #[allow(
        clippy::float_cmp,
        reason = "a step is a no-op only when the stored bits match, never when they are merely close"
    )]
    pub fn step(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.steps.back_mut() {
            let (last_t, last_v) = *last;
            assert!(
                at >= last_t,
                "step at {at} precedes latest step at {last_t}"
            );
            if at == last_t {
                last.1 = value;
                return;
            }
            if last_v == value {
                return; // No-op step; keep the history compact.
            }
        } else if self.base == value && at == self.base_from {
            return;
        }
        self.steps.push_back((at, value));
        self.compact();
    }

    /// Current (latest) value of the signal.
    pub fn current(&self) -> f64 {
        self.steps.back().map_or(self.base, |&(_, v)| v)
    }

    /// Value at instant `t` (right-continuous: the step at `t` counts).
    pub fn value_at(&self, t: SimTime) -> f64 {
        // Find the last step at or before t.
        let mut v = self.base;
        for &(st, sv) in &self.steps {
            if st <= t {
                v = sv;
            } else {
                break;
            }
        }
        v
    }

    /// Integral of the signal over `[from, to)`, in value·seconds.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from <= to, "integrate: from {from} after to {to}");
        if from == to {
            return 0.0;
        }
        let mut area = 0.0;
        let mut cursor = from;
        let mut value = self.value_at(from);
        for &(st, sv) in &self.steps {
            if st <= cursor {
                continue;
            }
            if st >= to {
                break;
            }
            area += value * (st - cursor).as_secs_f64();
            cursor = st;
            value = sv;
        }
        area += value * (to - cursor).as_secs_f64();
        area
    }

    /// Mean value over `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "mean requires a non-empty window");
        self.integrate(from, to) / (to - from).as_secs_f64()
    }

    /// Mean over the trailing `window` ending at `now`. If `now` is earlier
    /// than `window`, averages from time zero.
    pub fn trailing_mean(&self, now: SimTime, window: SimDuration) -> f64 {
        let from = if now.as_nanos() > window.as_nanos() {
            now - window
        } else {
            SimTime::ZERO
        };
        if from == now {
            return self.value_at(now);
        }
        self.mean(from, now)
    }

    /// Number of retained steps (diagnostic).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    fn compact(&mut self) {
        let Some(window) = self.retention else {
            return;
        };
        let Some(&(latest, _)) = self.steps.back() else {
            return;
        };
        let horizon = latest.saturating_duration_since(SimTime::ZERO);
        if horizon <= window {
            return;
        }
        let cutoff = latest - window;
        while let Some(&(t, v)) = self.steps.front() {
            // Keep one step at or before the cutoff so value_at(cutoff) stays
            // exact; fold strictly older steps into the base.
            if let Some(&(t2, _)) = self.steps.get(1) {
                if t2 <= cutoff {
                    self.base = v;
                    self.base_from = t;
                    self.steps.pop_front();
                    continue;
                }
            }
            break;
        }
    }
}

impl Default for StepSignal {
    fn default() -> Self {
        StepSignal::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn value_queries() {
        let mut s = StepSignal::new(2.0);
        s.step(ms(10), 5.0);
        s.step(ms(20), 1.0);
        assert_eq!(s.value_at(ms(0)), 2.0);
        assert_eq!(s.value_at(ms(9)), 2.0);
        assert_eq!(s.value_at(ms(10)), 5.0);
        assert_eq!(s.value_at(ms(19)), 5.0);
        assert_eq!(s.value_at(ms(25)), 1.0);
        assert_eq!(s.current(), 1.0);
    }

    #[test]
    fn integration_spans_steps() {
        let mut s = StepSignal::new(0.0);
        s.step(ms(100), 10.0);
        s.step(ms(200), 0.0);
        // 100 ms at 10 W = 1 J.
        let j = s.integrate(SimTime::ZERO, ms(300));
        assert!((j - 1.0).abs() < 1e-12, "{j}");
        // Partial overlap.
        let j = s.integrate(ms(150), ms(250));
        assert!((j - 0.5).abs() < 1e-12, "{j}");
    }

    #[test]
    fn integrate_empty_window_is_zero() {
        let s = StepSignal::new(3.0);
        assert_eq!(s.integrate(ms(5), ms(5)), 0.0);
    }

    #[test]
    fn mean_and_trailing_mean() {
        let mut s = StepSignal::new(4.0);
        s.step(ms(50), 8.0);
        // [0,100): half at 4, half at 8 -> 6.
        assert!((s.mean(ms(0), ms(100)) - 6.0).abs() < 1e-12);
        // Trailing 100 ms at t=100 ms.
        assert!((s.trailing_mean(ms(100), SimDuration::from_millis(100)) - 6.0).abs() < 1e-12);
        // Trailing window longer than history clamps to zero.
        assert!((s.trailing_mean(ms(100), SimDuration::from_secs(10)) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn same_instant_step_overwrites() {
        let mut s = StepSignal::new(0.0);
        s.step(ms(10), 1.0);
        s.step(ms(10), 2.0);
        assert_eq!(s.value_at(ms(10)), 2.0);
        assert_eq!(s.step_count(), 1);
    }

    #[test]
    fn redundant_steps_are_dropped() {
        let mut s = StepSignal::new(1.0);
        s.step(ms(10), 5.0);
        s.step(ms(20), 5.0);
        assert_eq!(s.step_count(), 1);
    }

    #[test]
    #[should_panic(expected = "precedes latest step")]
    fn out_of_order_step_panics() {
        let mut s = StepSignal::new(0.0);
        s.step(ms(10), 1.0);
        s.step(ms(5), 2.0);
    }

    #[test]
    fn retention_compacts_but_preserves_recent_values() {
        let mut s = StepSignal::new(0.0);
        s.set_retention(SimDuration::from_millis(100));
        for i in 1..=1000u64 {
            s.step(ms(i), i as f64);
        }
        assert!(s.step_count() <= 110, "retained {}", s.step_count());
        // Recent history still exact.
        assert_eq!(s.value_at(ms(1000)), 1000.0);
        assert_eq!(s.value_at(ms(950)), 950.0);
        // [950, 1000): one ms at each of 950..=999 -> mean 974.5.
        let m = s.trailing_mean(ms(1000), SimDuration::from_millis(50));
        assert!((m - 974.5).abs() < 1.0, "{m}");
    }

    #[test]
    fn trailing_mean_with_no_elapsed_time_returns_point_value() {
        let s = StepSignal::new(7.0);
        assert_eq!(
            s.trailing_mean(SimTime::ZERO, SimDuration::from_secs(10)),
            7.0
        );
    }
}
