//! Configuration points: one measured (power, throughput) coordinate per
//! combination of power control mechanisms.

use std::fmt;

use powadapt_device::PowerStateId;
use powadapt_io::{SweepPoint, Workload};
use powadapt_sim::units::Micros;

/// One point of a power-throughput model: a device configuration (power
/// state + IO shape) and the power and performance measured under it.
///
/// # Examples
///
/// ```
/// use powadapt_model::ConfigPoint;
/// use powadapt_device::{PowerStateId, KIB};
/// use powadapt_io::Workload;
///
/// let p = ConfigPoint::new(
///     "SSD2",
///     Workload::RandWrite,
///     PowerStateId(1),
///     256 * KIB,
///     64,
///     11.5,
///     2.1e9,
/// );
/// assert_eq!(p.device(), "SSD2");
/// assert_eq!(p.power_w(), 11.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigPoint {
    device: String,
    workload: Workload,
    power_state: PowerStateId,
    chunk: u64,
    depth: usize,
    power_w: f64,
    throughput_bps: f64,
    avg_latency_us: f64,
    p99_latency_us: f64,
}

impl ConfigPoint {
    /// Creates a point from explicit coordinates (latencies default to 0;
    /// use [`ConfigPoint::with_latencies`] to set them).
    ///
    /// # Panics
    ///
    /// Panics if `power_w` or `throughput_bps` is negative or not finite.
    pub fn new(
        device: impl Into<String>,
        workload: Workload,
        power_state: PowerStateId,
        chunk: u64,
        depth: usize,
        power_w: f64,
        throughput_bps: f64,
    ) -> Self {
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "power must be non-negative, got {power_w}"
        );
        assert!(
            throughput_bps.is_finite() && throughput_bps >= 0.0,
            "throughput must be non-negative, got {throughput_bps}"
        );
        ConfigPoint {
            device: device.into(),
            workload,
            power_state,
            chunk,
            depth,
            power_w,
            throughput_bps,
            avg_latency_us: 0.0,
            p99_latency_us: 0.0,
        }
    }

    /// Attaches latency coordinates, in microseconds.
    pub fn with_latencies(mut self, avg_us: Micros, p99_us: Micros) -> Self {
        self.avg_latency_us = avg_us.get();
        self.p99_latency_us = p99_us.get();
        self
    }

    /// Paper label of the device.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Workload the point was measured under.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Device power state.
    pub fn power_state(&self) -> PowerStateId {
        self.power_state
    }

    /// IO chunk size in bytes.
    pub fn chunk(&self) -> u64 {
        self.chunk
    }

    /// IO queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Average measured power in watts.
    pub fn power_w(&self) -> f64 {
        self.power_w
    }

    /// Measured throughput in bytes/second.
    pub fn throughput_bps(&self) -> f64 {
        self.throughput_bps
    }

    /// Average latency in microseconds (0 if not recorded).
    pub fn avg_latency_us(&self) -> f64 {
        self.avg_latency_us
    }

    /// p99 latency in microseconds (0 if not recorded).
    pub fn p99_latency_us(&self) -> f64 {
        self.p99_latency_us
    }

    /// True if `self` Pareto-dominates `other`: no more power, no less
    /// throughput, and strictly better in at least one.
    pub fn dominates(&self, other: &ConfigPoint) -> bool {
        let no_worse = self.power_w <= other.power_w && self.throughput_bps >= other.throughput_bps;
        let better = self.power_w < other.power_w || self.throughput_bps > other.throughput_bps;
        no_worse && better
    }
}

impl From<&SweepPoint> for ConfigPoint {
    fn from(sp: &SweepPoint) -> Self {
        ConfigPoint::new(
            sp.result.device_label.clone(),
            sp.workload,
            sp.power_state,
            sp.chunk,
            sp.depth,
            sp.result.avg_power_w(),
            sp.result.io.throughput_bps(),
        )
        .with_latencies(
            Micros::new(sp.result.io.avg_latency_us()),
            Micros::new(sp.result.io.p99_latency_us()),
        )
    }
}

impl fmt::Display for ConfigPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} bs={}KiB qd={}: {:.2} W, {:.0} MiB/s",
            self.device,
            self.workload,
            self.power_state,
            self.chunk / 1024,
            self.depth,
            self.power_w,
            self.throughput_bps / (1024.0 * 1024.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::KIB;

    fn pt(power: f64, thr: f64) -> ConfigPoint {
        ConfigPoint::new(
            "D",
            Workload::RandWrite,
            PowerStateId(0),
            4 * KIB,
            1,
            power,
            thr,
        )
    }

    #[test]
    fn accessors_round_trip() {
        let p = ConfigPoint::new(
            "SSD1",
            Workload::SeqRead,
            PowerStateId(2),
            64 * KIB,
            16,
            7.5,
            1e9,
        )
        .with_latencies(Micros::new(100.0), Micros::new(900.0));
        assert_eq!(p.device(), "SSD1");
        assert_eq!(p.workload(), Workload::SeqRead);
        assert_eq!(p.power_state(), PowerStateId(2));
        assert_eq!(p.chunk(), 64 * KIB);
        assert_eq!(p.depth(), 16);
        assert_eq!(p.power_w(), 7.5);
        assert_eq!(p.throughput_bps(), 1e9);
        assert_eq!(p.avg_latency_us(), 100.0);
        assert_eq!(p.p99_latency_us(), 900.0);
    }

    #[test]
    fn dominance() {
        assert!(pt(5.0, 100.0).dominates(&pt(6.0, 100.0)));
        assert!(pt(5.0, 120.0).dominates(&pt(5.0, 100.0)));
        assert!(pt(4.0, 120.0).dominates(&pt(5.0, 100.0)));
        assert!(!pt(5.0, 100.0).dominates(&pt(5.0, 100.0)), "equal points");
        assert!(!pt(4.0, 90.0).dominates(&pt(5.0, 100.0)), "trade-off");
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn rejects_negative_power() {
        let _ = pt(-1.0, 1.0);
    }

    #[test]
    fn display_contains_coordinates() {
        let s = pt(5.0, 1e9).to_string();
        assert!(s.contains('W') && s.contains("MiB/s"));
    }
}
