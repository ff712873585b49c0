//! HDD simulator configuration.

use powadapt_sim::SimDuration;

use crate::io::MIB;

/// Parameters of the simulated hard disk drive.
///
/// The model is a single actuator over a linearized LBA space: each media
/// operation pays a seek (distance-dependent), a rotational delay, and a
/// transfer at the sustained media rate. A small DRAM write cache
/// acknowledges writes early and is drained with shortest-seek-first
/// scheduling, which is also applied to queued reads (NCQ).
///
/// Power is spindle + electronics while spinning, plus a voice-coil adder
/// while seeking and a transfer adder while the head is reading/writing.
/// Spin-down/up reproduce the multi-second standby transitions of §3.2.2.
#[derive(Debug, Clone, PartialEq)]
pub struct HddConfig {
    /// Sustained media transfer rate at the outer diameter, in
    /// bytes/second.
    pub media_bw: f64,
    /// Media rate at the inner diameter as a fraction of `media_bw`
    /// (zoned recording: inner tracks hold fewer sectors per revolution).
    pub inner_bw_frac: f64,
    /// Track-to-track (minimum) seek time.
    pub min_seek: SimDuration,
    /// Full-stroke (maximum) seek time.
    pub max_seek: SimDuration,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Controller overhead per command.
    pub cmd_overhead: SimDuration,
    /// Write cache capacity in bytes.
    pub write_cache_bytes: u64,
    /// Maximum queued operations considered for seek reordering (NCQ).
    pub ncq_window: usize,
    /// A queued operation older than this is served next regardless of seek
    /// distance (starvation guard).
    pub max_op_age: SimDuration,
    /// Board electronics power in watts (always on while not in standby).
    pub electronics_w: f64,
    /// Spindle motor power in watts while the platters rotate.
    pub spindle_w: f64,
    /// Additional voice-coil power while seeking.
    pub seek_w: f64,
    /// Additional head/channel power while transferring.
    pub xfer_w: f64,
    /// Standard deviation of slow electronics power noise, in watts.
    pub noise_sd_w: f64,
    /// Power in standby (spun down).
    pub standby_w: f64,
    /// Time to flush-and-spin-down.
    pub spin_down: SimDuration,
    /// Power while spinning down.
    pub spin_down_w: f64,
    /// Time to spin back up.
    pub spin_up: SimDuration,
    /// Power while spinning up (spindle acceleration).
    pub spin_up_w: f64,
}

impl HddConfig {
    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.media_bw.is_finite() && self.media_bw > 0.0) {
            return Err("media bandwidth must be positive".into());
        }
        if !(0.0 < self.inner_bw_frac && self.inner_bw_frac <= 1.0) {
            return Err("inner bandwidth fraction must be in (0, 1]".into());
        }
        if self.min_seek > self.max_seek {
            return Err("min seek cannot exceed max seek".into());
        }
        if self.rpm == 0 {
            return Err("rpm must be non-zero".into());
        }
        if self.write_cache_bytes == 0 {
            return Err("write cache must be non-zero".into());
        }
        if self.ncq_window == 0 {
            return Err("NCQ window must be non-zero".into());
        }
        if self.electronics_w < 0.0
            || self.spindle_w < 0.0
            || self.seek_w < 0.0
            || self.xfer_w < 0.0
            || self.noise_sd_w < 0.0
            || self.standby_w < 0.0
            || self.spin_down_w < 0.0
            || self.spin_up_w < 0.0
        {
            return Err("power components must be non-negative".into());
        }
        if self.spin_down.is_zero() || self.spin_up.is_zero() {
            return Err("spin transitions must take time".into());
        }
        Ok(())
    }

    /// Duration of one full platter revolution.
    pub fn revolution(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.rpm as f64)
    }

    /// Idle power while spun up.
    pub fn idle_w(&self) -> f64 {
        self.electronics_w + self.spindle_w
    }

    /// Media rate at a byte position, for a linearized LBA space of the
    /// given capacity: outer tracks (low LBAs) are fastest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn media_bw_at(&self, offset: u64, capacity: u64) -> f64 {
        assert!(capacity > 0, "capacity must be non-zero");
        let frac = (offset as f64 / capacity as f64).clamp(0.0, 1.0);
        self.media_bw * (1.0 - (1.0 - self.inner_bw_frac) * frac)
    }
}

impl Default for HddConfig {
    fn default() -> Self {
        HddConfig {
            media_bw: 180e6,
            inner_bw_frac: 0.55,
            min_seek: SimDuration::from_micros(500),
            max_seek: SimDuration::from_millis(16),
            rpm: 7200,
            cmd_overhead: SimDuration::from_micros(50),
            write_cache_bytes: 4 * MIB,
            ncq_window: 32,
            max_op_age: SimDuration::from_millis(100),
            electronics_w: 0.45,
            spindle_w: 3.3,
            seek_w: 1.3,
            xfer_w: 0.25,
            noise_sd_w: 0.05,
            standby_w: 1.1,
            spin_down: SimDuration::from_millis(1500),
            spin_down_w: 2.5,
            spin_up: SimDuration::from_secs(6),
            spin_up_w: 5.2,
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::field_reassign_with_default,
    reason = "tests vary one field of a default config at a time"
)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        HddConfig::default().validate().expect("default valid");
    }

    #[test]
    fn revolution_time() {
        let cfg = HddConfig::default();
        // 7200 rpm -> 8.33 ms.
        assert_eq!(cfg.revolution().as_micros(), 8333);
    }

    #[test]
    fn idle_power_is_component_sum() {
        let cfg = HddConfig::default();
        assert!((cfg.idle_w() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn zoned_media_rate_declines_inward() {
        let cfg = HddConfig::default();
        let cap = 1 << 40;
        assert_eq!(cfg.media_bw_at(0, cap), 180e6);
        assert!((cfg.media_bw_at(cap, cap) - 180e6 * 0.55).abs() < 1.0);
        assert!(cfg.media_bw_at(cap / 2, cap) < cfg.media_bw_at(0, cap));
    }

    #[test]
    fn zoning_validation() {
        let mut cfg = HddConfig::default();
        cfg.inner_bw_frac = 0.0;
        assert!(cfg.validate().is_err());
        cfg.inner_bw_frac = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_violations() {
        let base = HddConfig::default();
        let mut c = base.clone();
        c.media_bw = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.min_seek = SimDuration::from_millis(20);
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.rpm = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.ncq_window = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.spin_up = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }
}
