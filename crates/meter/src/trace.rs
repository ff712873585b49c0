//! Recorded power traces and their statistics.

use std::fmt;

use powadapt_sim::{SimDuration, SimTime, Summary};

/// A uniformly sampled power trace: what the data-logging computer ends up
/// with after an experiment.
///
/// # Examples
///
/// ```
/// use powadapt_meter::PowerTrace;
/// use powadapt_sim::{SimDuration, SimTime};
///
/// let mut t = PowerTrace::new(SimTime::ZERO, SimDuration::from_millis(1));
/// for w in [5.0, 5.2, 9.5, 9.4] {
///     t.push(w);
/// }
/// assert_eq!(t.len(), 4);
/// assert!((t.mean() - 7.275).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    start: SimTime,
    period: SimDuration,
    watts: Vec<f64>,
}

impl PowerTrace {
    /// Creates an empty trace starting at `start`, sampled every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(start: SimTime, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sample period must be non-zero");
        PowerTrace {
            start,
            period,
            watts: Vec::new(),
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, watts: f64) {
        self.watts.push(watts);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.watts.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.watts.is_empty()
    }

    /// Sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Time of the first sample.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The raw samples in watts.
    pub fn samples(&self) -> &[f64] {
        &self.watts
    }

    /// Iterates `(time, watts)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.watts
            .iter()
            .enumerate()
            .map(|(i, &w)| (self.start + self.period * i as u64, w))
    }

    /// Mean power over the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty trace");
        self.watts.iter().sum::<f64>() / self.watts.len() as f64
    }

    /// Total energy in joules (mean power × duration).
    pub fn energy_j(&self) -> f64 {
        self.watts.iter().sum::<f64>() * self.period.as_secs_f64()
    }

    /// Full summary statistics (median, percentiles, ...).
    ///
    /// Returns `None` if the trace is empty or contains non-finite samples.
    pub fn summary(&self) -> Option<Summary> {
        Summary::from_samples(&self.watts)
    }

    /// `(max − min) / max` — the power dynamic range the paper reports as a
    /// fraction of maximum power.
    ///
    /// Returns `None` on an empty trace or non-positive maximum.
    pub fn dynamic_range(&self) -> Option<f64> {
        let s = self.summary()?;
        let max = s.max();
        if max <= 0.0 {
            return None;
        }
        Some((max - s.min()) / max)
    }

    /// Sub-trace covering `[from, to)`. Samples outside the recorded range
    /// are simply absent from the result.
    pub fn between(&self, from: SimTime, to: SimTime) -> PowerTrace {
        let mut out = PowerTrace::new(from.max(self.start), self.period);
        for (t, w) in self.iter() {
            if t >= from && t < to {
                out.push(w);
            }
        }
        out
    }

    /// Writes the trace as CSV (`time_s,watts` with a header) — the format
    /// the paper's data-logging computer stores and the plots consume.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "time_s,watts")?;
        for (t, p) in self.iter() {
            writeln!(w, "{:.6},{:.6}", t.as_secs_f64(), p)?;
        }
        Ok(())
    }
}

impl fmt::Display for PowerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(s) = self.summary() {
            write!(
                f,
                "trace[{} samples @ {}]: mean {:.3} W, range {:.3}–{:.3} W",
                self.len(),
                self.period,
                s.mean(),
                s.min(),
                s.max()
            )
        } else {
            write!(f, "trace[empty @ {}]", self.period)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(values: &[f64]) -> PowerTrace {
        let mut t = PowerTrace::new(SimTime::ZERO, SimDuration::from_millis(1));
        for &v in values {
            t.push(v);
        }
        t
    }

    #[test]
    fn basic_stats() {
        let t = trace(&[4.0, 6.0, 8.0, 6.0]);
        assert_eq!(t.mean(), 6.0);
        // 24 W·ms = 0.024 J.
        assert!((t.energy_j() - 0.024).abs() < 1e-12);
        let s = t.summary().unwrap();
        assert_eq!(s.min(), 4.0);
        assert_eq!(s.max(), 8.0);
    }

    #[test]
    fn dynamic_range_matches_definition() {
        let t = trace(&[5.0, 10.0]);
        assert!((t.dynamic_range().unwrap() - 0.5).abs() < 1e-12);
        assert!(trace(&[]).dynamic_range().is_none());
    }

    #[test]
    fn timestamps_advance_by_period() {
        let t = trace(&[1.0, 2.0, 3.0]);
        let times: Vec<u64> = t.iter().map(|(ts, _)| ts.as_millis()).collect();
        assert_eq!(times, vec![0, 1, 2]);
    }

    #[test]
    fn between_slices_by_time() {
        let t = trace(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let sub = t.between(SimTime::from_millis(1), SimTime::from_millis(4));
        assert_eq!(sub.samples(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn csv_round_trips_through_text() {
        let t = trace(&[1.5, 2.5]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time_s,watts");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0.000000,1.5"));
        assert!(lines[2].starts_with("0.001000,2.5"));
    }

    #[test]
    fn display_nonempty() {
        assert!(!trace(&[1.0]).to_string().is_empty());
        let empty = PowerTrace::new(SimTime::ZERO, SimDuration::from_millis(1));
        assert!(empty.to_string().contains("empty"));
    }

    #[test]
    #[should_panic(expected = "mean of empty")]
    fn mean_of_empty_panics() {
        let t = PowerTrace::new(SimTime::ZERO, SimDuration::from_millis(1));
        let _ = t.mean();
    }
}
