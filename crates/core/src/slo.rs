//! Service-level objectives used to constrain power-adaptive actions, and
//! the observation windows that judge them against live traffic.

use std::fmt;

use powadapt_model::ConfigPoint;
use powadapt_sim::units::Micros;
use powadapt_sim::{percentile_of_sorted, SimDuration};

/// A service-level objective a configuration must respect.
///
/// The paper's §4 argues operators should feed SLOs and power budgets into
/// the power-throughput model; this type is that input.
///
/// # Examples
///
/// ```
/// use powadapt_core::Slo;
///
/// let slo = Slo::new()
///     .min_throughput_bps(1.0e9)
///     .max_p99_latency_us(2_000.0);
/// assert!(slo.min_throughput().is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slo {
    min_throughput_bps: Option<f64>,
    max_avg_latency_us: Option<f64>,
    max_p99_latency_us: Option<f64>,
}

impl Slo {
    /// An unconstrained SLO.
    pub fn new() -> Self {
        Slo::default()
    }

    /// Requires at least this throughput, in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or not finite.
    pub fn min_throughput_bps(mut self, bps: f64) -> Self {
        assert!(bps.is_finite() && bps >= 0.0, "bad throughput floor {bps}");
        self.min_throughput_bps = Some(bps);
        self
    }

    /// Caps average latency, in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is not positive.
    pub fn max_avg_latency_us(mut self, us: f64) -> Self {
        assert!(us > 0.0, "bad latency ceiling {us}");
        self.max_avg_latency_us = Some(us);
        self
    }

    /// Caps p99 latency, in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is not positive.
    pub fn max_p99_latency_us(mut self, us: f64) -> Self {
        assert!(us > 0.0, "bad latency ceiling {us}");
        self.max_p99_latency_us = Some(us);
        self
    }

    /// The throughput floor, if set.
    pub fn min_throughput(&self) -> Option<f64> {
        self.min_throughput_bps
    }

    /// The average-latency ceiling, if set.
    pub fn max_avg_latency(&self) -> Option<f64> {
        self.max_avg_latency_us
    }

    /// The p99-latency ceiling, if set.
    pub fn max_p99_latency(&self) -> Option<f64> {
        self.max_p99_latency_us
    }

    /// Whether a measured configuration point satisfies this SLO.
    ///
    /// Latency constraints are only applied when the point carries latency
    /// data (non-zero).
    pub fn admits(&self, point: &ConfigPoint) -> bool {
        if let Some(floor) = self.min_throughput_bps {
            if point.throughput_bps() < floor {
                return false;
            }
        }
        if let Some(cap) = self.max_avg_latency_us {
            if point.avg_latency_us() > 0.0 && point.avg_latency_us() > cap {
                return false;
            }
        }
        if let Some(cap) = self.max_p99_latency_us {
            if point.p99_latency_us() > 0.0 && point.p99_latency_us() > cap {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Slo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some(t) = self.min_throughput_bps {
            parts.push(format!("thr>={:.0}MiB/s", t / (1024.0 * 1024.0)));
        }
        if let Some(l) = self.max_avg_latency_us {
            parts.push(format!("avg<={l:.0}us"));
        }
        if let Some(l) = self.max_p99_latency_us {
            parts.push(format!("p99<={l:.0}us"));
        }
        if parts.is_empty() {
            write!(f, "slo(unconstrained)")
        } else {
            write!(f, "slo({})", parts.join(", "))
        }
    }
}

/// An observation window of completed-request latencies and bytes, used to
/// judge an [`Slo`] against *live* traffic instead of a calibrated
/// [`ConfigPoint`]. The cluster layer keeps one per tenant.
///
/// Queries are non-panicking: an empty window has no percentiles and
/// reports `None`; a single observation is every percentile of itself.
///
/// # Examples
///
/// ```
/// use powadapt_core::SloWindow;
/// use powadapt_sim::units::Micros;
///
/// let mut w = SloWindow::new();
/// assert!(w.p99_latency().is_none());
/// w.observe(Micros::new(150.0), 4096);
/// assert_eq!(w.p99_latency(), Some(Micros::new(150.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloWindow {
    /// Observed latencies in microseconds, kept sorted (each observe does
    /// an insertion into position; arrival order is irrelevant to every
    /// query this window answers).
    lat_us: Vec<f64>,
    bytes: u64,
}

impl SloWindow {
    /// An empty window.
    pub fn new() -> Self {
        SloWindow::default()
    }

    /// Records one completed request.
    ///
    /// Non-finite latencies are ignored rather than poisoning every later
    /// percentile query.
    pub fn observe(&mut self, latency: Micros, bytes: u64) {
        let us = latency.get();
        if !us.is_finite() {
            return;
        }
        let at = self.lat_us.partition_point(|&l| l <= us);
        self.lat_us.insert(at, us);
        self.bytes += bytes;
    }

    /// Number of observations in the window.
    pub fn len(&self) -> usize {
        self.lat_us.len()
    }

    /// True when the window has no observations.
    pub fn is_empty(&self) -> bool {
        self.lat_us.is_empty()
    }

    /// Total bytes completed in the window.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Empties the window (start of the next accounting interval).
    pub fn reset(&mut self) {
        self.lat_us.clear();
        self.bytes = 0;
    }

    /// Latency percentile (`p` in `[0, 100]`), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_latency(&self, p: f64) -> Option<Micros> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.lat_us.is_empty() {
            return None;
        }
        Some(Micros::new(percentile_of_sorted(&self.lat_us, p)))
    }

    /// Mean latency, or `None` when empty.
    pub fn mean_latency(&self) -> Option<Micros> {
        if self.lat_us.is_empty() {
            return None;
        }
        Some(Micros::new(
            self.lat_us.iter().sum::<f64>() / self.lat_us.len() as f64,
        ))
    }

    /// p99 latency, or `None` when empty.
    pub fn p99_latency(&self) -> Option<Micros> {
        self.percentile_latency(99.0)
    }

    /// p99.9 latency, or `None` when empty.
    pub fn p999_latency(&self) -> Option<Micros> {
        self.percentile_latency(99.9)
    }

    /// Achieved throughput over an interval of `elapsed`, in bytes/second.
    /// Zero for an empty or zero-length interval.
    pub fn throughput_bps(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / secs
    }

    /// Whether the traffic in this window met `slo` over `elapsed`.
    ///
    /// An empty window trivially satisfies latency ceilings (there was
    /// nothing to be late) but still fails a throughput floor.
    pub fn satisfies(&self, slo: &Slo, elapsed: SimDuration) -> bool {
        if let Some(floor) = slo.min_throughput() {
            if self.throughput_bps(elapsed) < floor {
                return false;
            }
        }
        if let Some(cap) = slo.max_avg_latency() {
            if self.mean_latency().is_some_and(|l| l.get() > cap) {
                return false;
            }
        }
        if let Some(cap) = slo.max_p99_latency() {
            if self.p99_latency().is_some_and(|l| l.get() > cap) {
                return false;
            }
        }
        true
    }
}

powadapt_snap::snapshot! {
    value SloWindow { lat_us, bytes }
    after restore_latencies
}

impl SloWindow {
    fn restore_latencies(&mut self) -> Result<(), powadapt_snap::SnapError> {
        if self.lat_us.iter().any(|l| !l.is_finite()) {
            return Err(powadapt_snap::SnapError::InvalidValue(
                "non-finite latency in SLO window".into(),
            ));
        }
        if self.lat_us.windows(2).any(|pair| pair[0] > pair[1]) {
            return Err(powadapt_snap::SnapError::InvalidValue(
                "SLO window latencies not sorted".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::{PowerStateId, KIB};
    use powadapt_io::Workload;

    fn pt(thr: f64, avg: f64, p99: f64) -> ConfigPoint {
        ConfigPoint::new(
            "D",
            Workload::RandRead,
            PowerStateId(0),
            4 * KIB,
            1,
            5.0,
            thr,
        )
        .with_latencies(Micros::new(avg), Micros::new(p99))
    }

    #[test]
    fn unconstrained_admits_everything() {
        assert!(Slo::new().admits(&pt(1.0, 1e6, 1e7)));
    }

    #[test]
    fn throughput_floor() {
        let slo = Slo::new().min_throughput_bps(100.0);
        assert!(slo.admits(&pt(100.0, 0.0, 0.0)));
        assert!(!slo.admits(&pt(99.0, 0.0, 0.0)));
    }

    #[test]
    fn latency_ceilings() {
        let slo = Slo::new()
            .max_avg_latency_us(100.0)
            .max_p99_latency_us(500.0);
        assert!(slo.admits(&pt(1.0, 90.0, 400.0)));
        assert!(!slo.admits(&pt(1.0, 110.0, 400.0)));
        assert!(!slo.admits(&pt(1.0, 90.0, 600.0)));
        // Points without latency data pass latency checks.
        assert!(slo.admits(&pt(1.0, 0.0, 0.0)));
    }

    #[test]
    fn empty_window_has_no_percentiles() {
        let w = SloWindow::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.mean_latency(), None);
        assert_eq!(w.percentile_latency(50.0), None);
        assert_eq!(w.p99_latency(), None);
        assert_eq!(w.p999_latency(), None);
        assert_eq!(w.throughput_bps(SimDuration::from_secs(1)), 0.0);
        // No latency to be late, but a throughput floor still fails.
        assert!(w.satisfies(
            &Slo::new().max_p99_latency_us(1.0),
            SimDuration::from_secs(1)
        ));
        assert!(!w.satisfies(
            &Slo::new().min_throughput_bps(1.0),
            SimDuration::from_secs(1)
        ));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut w = SloWindow::new();
        w.observe(Micros::new(150.0), 4096);
        assert_eq!(w.len(), 1);
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(w.percentile_latency(p), Some(Micros::new(150.0)), "p{p}");
        }
        assert_eq!(w.mean_latency(), Some(Micros::new(150.0)));
    }

    #[test]
    fn boundary_p99_and_p999_interpolate_into_the_tail() {
        // 1000 samples 1..=1000 us: interpolated p99 sits between the
        // 990th and 991st order statistics, p99.9 between 999 and 1000.
        let mut w = SloWindow::new();
        // Reverse insertion order: the window sorts, order cannot matter.
        for us in (1..=1000u32).rev() {
            w.observe(Micros::new(f64::from(us)), 0);
        }
        let p99 = w.p99_latency().expect("non-empty").get();
        let p999 = w.p999_latency().expect("non-empty").get();
        let p100 = w.percentile_latency(100.0).expect("non-empty").get();
        let p0 = w.percentile_latency(0.0).expect("non-empty").get();
        assert!((p99 - 990.01).abs() < 1e-9, "p99 {p99}");
        assert!((p999 - 999.001).abs() < 1e-9, "p999 {p999}");
        assert_eq!(p100, 1000.0, "p100 is the max");
        assert_eq!(p0, 1.0, "p0 is the min");
        assert!(p99 < p999 && p999 < p100);
    }

    #[test]
    fn window_accounts_bytes_and_judges_slos() {
        let mut w = SloWindow::new();
        for i in 0..100u64 {
            w.observe(Micros::new(100.0 + i as f64), 1024);
        }
        assert_eq!(w.bytes(), 100 * 1024);
        let dt = SimDuration::from_millis(100);
        assert!((w.throughput_bps(dt) - 1_024_000.0).abs() < 1e-6);
        assert!(w.satisfies(
            &Slo::new().min_throughput_bps(1e6).max_p99_latency_us(250.0),
            dt
        ));
        assert!(!w.satisfies(&Slo::new().max_p99_latency_us(150.0), dt));
        assert!(!w.satisfies(&Slo::new().max_avg_latency_us(120.0), dt));
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.bytes(), 0);
    }

    #[test]
    fn non_finite_latencies_are_ignored() {
        let mut w = SloWindow::new();
        w.observe(Micros::new(f64::NAN), 10);
        w.observe(Micros::new(f64::INFINITY), 10);
        assert!(w.is_empty());
        assert_eq!(w.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_percentile_panics() {
        let w = SloWindow::new();
        let _ = w.percentile_latency(101.0);
    }

    #[test]
    fn display_lists_constraints() {
        let slo = Slo::new()
            .min_throughput_bps(1e9)
            .max_p99_latency_us(2000.0);
        let s = slo.to_string();
        assert!(s.contains("thr>=") && s.contains("p99<="));
        assert_eq!(Slo::new().to_string(), "slo(unconstrained)");
    }
}
