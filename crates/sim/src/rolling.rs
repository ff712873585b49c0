//! Constant-time trailing-window averages of a step signal.
//!
//! [`RollingMean`] tracks the mean of a piecewise-constant signal over a
//! fixed trailing window with amortized O(1) updates, unlike
//! [`StepSignal::trailing_mean`](crate::StepSignal::trailing_mean) which
//! scans its whole history. Device power-cap governors query this on every
//! scheduling decision, so it must be cheap.
//!
//! Queries must be monotone in time: both [`RollingMean::push`] and
//! [`RollingMean::mean_at`] advance an internal cursor and evict history
//! older than the window.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Trailing-window mean of a step signal with monotone-time queries.
///
/// # Examples
///
/// ```
/// use powadapt_sim::{RollingMean, SimDuration, SimTime};
///
/// let mut rm = RollingMean::new(SimDuration::from_secs(10), 0.0);
/// rm.push(SimTime::from_secs(1), 10.0);
/// // At t=2s: 1 s at 0 W + 1 s at 10 W over a 2 s history -> 5 W.
/// let m = rm.mean_at(SimTime::from_secs(2));
/// assert!((m - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct RollingMean {
    window: SimDuration,
    /// Completed segments `(start, value)` inside the window, oldest
    /// first. Each ends where the next starts, the last at `open_since`.
    segments: VecDeque<(SimTime, f64)>,
    /// Sum of `value * seconds` over `segments`.
    area: f64,
    /// Start time and value of the still-open segment.
    open_since: SimTime,
    open_value: f64,
}

impl RollingMean {
    /// Creates a tracker over a trailing `window`, with the signal holding
    /// `initial` from time zero.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration, initial: f64) -> Self {
        assert!(!window.is_zero(), "rolling window must be non-zero");
        RollingMean {
            window,
            segments: VecDeque::new(),
            area: 0.0,
            open_since: SimTime::ZERO,
            open_value: initial,
        }
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Current (latest) signal value.
    pub fn current(&self) -> f64 {
        self.open_value
    }

    /// Records that the signal takes value `value` from time `at` onward.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the latest recorded step.
    pub fn push(&mut self, at: SimTime, value: f64) {
        assert!(
            at >= self.open_since,
            "push at {at} precedes open segment start {}",
            self.open_since
        );
        if at > self.open_since {
            self.area += self.open_value * (at - self.open_since).as_secs_f64();
            self.segments.push_back((self.open_since, self.open_value));
        }
        self.open_since = at;
        self.open_value = value;
        self.evict(at);
    }

    /// Mean of the signal over `[now - window, now]` (clamped at time zero).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the latest recorded step.
    pub fn mean_at(&mut self, now: SimTime) -> f64 {
        assert!(
            now >= self.open_since,
            "mean_at {now} precedes open segment start {}",
            self.open_since
        );
        self.evict(now);
        let from = if now.as_nanos() > self.window.as_nanos() {
            now - self.window
        } else {
            SimTime::ZERO
        };
        let span = (now - from).as_secs_f64();
        if span == 0.0 {
            return self.open_value;
        }
        // Area of completed segments clipped to [from, now] plus the open tail.
        let mut area = self.area;
        // The front segment may straddle `from`; subtract the part before it.
        if let Some(&(s, v)) = self.segments.front() {
            if s < from {
                let clipped_end = self.front_end().min(from);
                area -= v * (clipped_end - s).as_secs_f64();
            }
        }
        let open_from = self.open_since.max(from);
        area += self.open_value * (now - open_from).as_secs_f64();
        area / span
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = if now.as_nanos() > self.window.as_nanos() {
            now - self.window
        } else {
            return;
        };
        // Drop segments that ended at or before the cutoff.
        while let Some(&(s, v)) = self.segments.front() {
            let e = self.front_end();
            if e <= cutoff {
                self.area -= v * (e - s).as_secs_f64();
                self.segments.pop_front();
            } else {
                break;
            }
        }
    }

    /// Where the oldest retained segment ends: where the next one starts,
    /// or where the open segment does.
    fn front_end(&self) -> SimTime {
        self.segments.get(1).map_or(self.open_since, |&(s, _)| s)
    }

    /// Number of retained segments (diagnostic).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

// The window length is configuration (rebuilt from the spec); everything
// else — retained segments, the area accumulator, and the open segment —
// is dynamic state. The accumulated `area` is serialized bit-exactly
// rather than recomputed from the segments so restored means match a
// straight run to the last bit.
powadapt_snap::snapshot! {
    RollingMean { segments, area, open_since, open_value }
    skip { window: "spec config: the averaging window" }
    after restore_segments
}

impl RollingMean {
    /// Every segment starts before the next boundary (the next segment's
    /// start, or the open segment's), so each has a positive length.
    fn restore_segments(&mut self) -> Result<(), powadapt_snap::SnapError> {
        let starts = self.segments.iter().map(|&(s, _)| s);
        let ends = starts.clone().skip(1).chain([self.open_since]);
        match starts.zip(ends).find(|&(s, e)| s >= e) {
            Some((s, e)) => Err(powadapt_snap::SnapError::InvalidValue(format!(
                "rolling segment starts at {s}, not before its end at {e}"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn mean_over_partial_history() {
        let mut rm = RollingMean::new(SimDuration::from_secs(10), 2.0);
        assert_eq!(rm.mean_at(SimTime::ZERO), 2.0);
        assert!((rm.mean_at(s(1)) - 2.0).abs() < 1e-12);
        rm.push(s(2), 6.0);
        // At t=4: 2 s at 2 + 2 s at 6 over 4 s -> 4.
        assert!((rm.mean_at(s(4)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn window_clips_old_history() {
        let mut rm = RollingMean::new(SimDuration::from_secs(10), 0.0);
        rm.push(s(5), 10.0);
        // At t=20: window [10, 20] entirely at 10 W.
        assert!((rm.mean_at(s(20)) - 10.0).abs() < 1e-12);
        // At t=14: window [4, 14]: 1 s at 0 + 9 s at 10 -> 9.
        assert!((rm.mean_at(s(14)) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn straddling_front_segment_is_clipped() {
        let mut rm = RollingMean::new(SimDuration::from_secs(4), 8.0);
        rm.push(s(6), 0.0);
        // At t=8: window [4, 8]: 2 s at 8 + 2 s at 0 -> 4.
        assert!((rm.mean_at(s(8)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_bounds_memory() {
        let mut rm = RollingMean::new(SimDuration::from_millis(10), 0.0);
        for i in 0..100_000u64 {
            rm.push(SimTime::from_micros(i * 5), (i % 7) as f64);
        }
        assert!(rm.segment_count() < 3000, "{}", rm.segment_count());
    }

    #[test]
    fn matches_step_signal_reference() {
        use crate::signal::StepSignal;
        let mut rm = RollingMean::new(SimDuration::from_millis(50), 1.0);
        let mut sig = StepSignal::new(1.0);
        let mut rng = crate::rng::SimRng::seed_from(5);
        let mut t = 0u64;
        for _ in 0..500 {
            t += rng.u64_range(1, 2000);
            let v = rng.uniform_range(0.0, 20.0);
            let at = SimTime::from_micros(t);
            rm.push(at, v);
            sig.step(at, v);
            let now = SimTime::from_micros(t + 100);
            let a = rm.mean_at(now);
            let b = sig.trailing_mean(now, SimDuration::from_millis(50));
            assert!((a - b).abs() < 1e-9, "{a} vs {b} at {now}");
        }
    }

    #[test]
    #[should_panic(expected = "precedes open segment")]
    fn non_monotone_push_panics() {
        let mut rm = RollingMean::new(SimDuration::from_secs(1), 0.0);
        rm.push(s(5), 1.0);
        rm.push(s(4), 2.0);
    }

    #[test]
    fn restore_rejects_a_segment_not_before_its_end() {
        let mut rm = RollingMean::new(SimDuration::from_secs(10), 1.0);
        for k in 1..4 {
            rm.push(s(k), k as f64);
        }
        // Segments start at 0, 1 and 2 s, the open one at 3 s: a start
        // moved onto the next boundary, or past it, is rejected.
        for (i, to, ok) in [(0, 0, true), (0, 1, false), (2, 3, false), (1, 5, false)] {
            let mut moved = rm.clone();
            moved.segments[i].0 = s(to);
            assert_eq!(
                moved.restore_segments().is_ok(),
                ok,
                "segment {i} at {to} s"
            );
        }
    }

    #[test]
    fn same_instant_push_replaces_value() {
        let mut rm = RollingMean::new(SimDuration::from_secs(10), 0.0);
        rm.push(s(1), 5.0);
        rm.push(s(1), 7.0);
        assert_eq!(rm.current(), 7.0);
        // At t=2: 1 s at 0 + 1 s at 7 -> 3.5.
        assert!((rm.mean_at(s(2)) - 3.5).abs() < 1e-12);
    }
}
