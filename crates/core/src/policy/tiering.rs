//! Tiered standby masking (§4): SSDs absorb writes while an HDD tier is
//! spun down, and the HDD only spins down when the expected idle period
//! pays back the transition energy.

use powadapt_sim::SimDuration;

/// Spin/standby energy profile of the slow tier (an HDD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpinProfile {
    /// Idle (spun-up) power, in watts.
    pub idle_w: f64,
    /// Standby (spun-down) power, in watts.
    pub standby_w: f64,
    /// Spin-down duration.
    pub down: SimDuration,
    /// Power while spinning down, in watts.
    pub down_w: f64,
    /// Spin-up duration.
    pub up: SimDuration,
    /// Power while spinning up, in watts.
    pub up_w: f64,
}

impl SpinProfile {
    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.standby_w >= self.idle_w {
            return Err("standby must draw less than idle".into());
        }
        if self.standby_w < 0.0 {
            return Err("standby power must be non-negative".into());
        }
        if self.down.is_zero() || self.up.is_zero() {
            return Err("spin transitions take time".into());
        }
        Ok(())
    }
}

/// The write-absorbing fast tier (an SSD with spare write bandwidth and a
/// budgeted staging capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsorptionProfile {
    /// Write bandwidth the SSD tier can dedicate to absorption, in
    /// bytes/second.
    pub absorb_bw_bps: f64,
    /// Staging capacity reserved for absorbed writes, in bytes.
    pub absorb_capacity_bytes: u64,
}

/// Tiered power policy: decides when the slow tier can sleep and whether
/// the fast tier can mask the sleep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieringPolicy {
    spin: SpinProfile,
    absorb: AbsorptionProfile,
}

impl TieringPolicy {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns the profile problem, if any.
    pub fn new(spin: SpinProfile, absorb: AbsorptionProfile) -> Result<Self, String> {
        spin.validate()?;
        if absorb.absorb_bw_bps <= 0.0 || absorb.absorb_bw_bps.is_nan() {
            return Err("absorption bandwidth must be positive".into());
        }
        Ok(TieringPolicy { spin, absorb })
    }

    /// The spin profile.
    pub fn spin(&self) -> &SpinProfile {
        &self.spin
    }

    /// Energy consumed if the disk stays idle for `period`, in joules.
    pub fn energy_idle_j(&self, period: SimDuration) -> f64 {
        self.spin.idle_w * period.as_secs_f64()
    }

    /// Energy consumed if the disk spins down, sleeps, and spins back up
    /// within `period`, in joules. If `period` is shorter than the two
    /// transitions, the "sleep" fraction is zero (worst case).
    pub fn energy_standby_j(&self, period: SimDuration) -> f64 {
        let trans = self.spin.down + self.spin.up;
        let down_j = self.spin.down_w * self.spin.down.as_secs_f64();
        let up_j = self.spin.up_w * self.spin.up.as_secs_f64();
        let sleep = period.saturating_sub(trans);
        down_j + up_j + self.spin.standby_w * sleep.as_secs_f64()
    }

    /// The break-even idle duration: the shortest period for which spinning
    /// down saves energy.
    pub fn break_even(&self) -> SimDuration {
        // Solve idle_w * P = down_j + up_j + standby_w * (P - trans).
        let trans = self.spin.down + self.spin.up;
        let down_j = self.spin.down_w * self.spin.down.as_secs_f64();
        let up_j = self.spin.up_w * self.spin.up.as_secs_f64();
        let fixed = down_j + up_j - self.spin.standby_w * trans.as_secs_f64();
        let rate = self.spin.idle_w - self.spin.standby_w;
        let secs = (fixed / rate).max(trans.as_secs_f64());
        SimDuration::from_secs_f64(secs)
    }

    /// Should the slow tier spin down, given the expected idle period?
    pub fn should_standby(&self, expected_idle: SimDuration) -> bool {
        expected_idle >= self.break_even()
    }

    /// Energy saved (may be negative) by spinning down over `period`.
    pub fn savings_j(&self, period: SimDuration) -> f64 {
        self.energy_idle_j(period) - self.energy_standby_j(period)
    }

    /// The longest standby period the fast tier can mask at the given
    /// write rate. Unlimited (`SimDuration::MAX`) when the rate is zero.
    pub fn max_maskable_period(&self, write_rate_bps: f64) -> SimDuration {
        if write_rate_bps <= 0.0 {
            return SimDuration::MAX;
        }
        if write_rate_bps > self.absorb.absorb_bw_bps {
            return SimDuration::ZERO;
        }
        let secs = self.absorb.absorb_capacity_bytes as f64 / write_rate_bps;
        SimDuration::from_secs_f64(secs).saturating_sub(self.spin.up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exos() -> SpinProfile {
        SpinProfile {
            idle_w: 3.76,
            standby_w: 1.1,
            down: SimDuration::from_millis(1500),
            down_w: 2.5,
            up: SimDuration::from_secs(6),
            up_w: 5.2,
        }
    }

    fn policy() -> TieringPolicy {
        TieringPolicy::new(
            exos(),
            AbsorptionProfile {
                absorb_bw_bps: 500e6,
                absorb_capacity_bytes: 8 * 1024 * 1024 * 1024, // 8 GiB
            },
        )
        .unwrap()
    }

    #[test]
    fn break_even_is_seconds_scale() {
        let be = policy().break_even();
        // Transition energy: 1.5s*2.5 + 6s*5.2 = 34.95 J; saving rate 2.66 W;
        // minus standby during transitions → ~10 s.
        assert!(
            (8.0..20.0).contains(&be.as_secs_f64()),
            "break-even {be} out of expected range"
        );
    }

    #[test]
    fn standby_decision_follows_break_even() {
        let p = policy();
        assert!(!p.should_standby(SimDuration::from_secs(5)));
        assert!(p.should_standby(SimDuration::from_secs(60)));
    }

    #[test]
    fn savings_positive_beyond_break_even() {
        let p = policy();
        assert!(p.savings_j(SimDuration::from_secs(60)) > 0.0);
        assert!(p.savings_j(SimDuration::from_secs(3)) < 0.0);
        // At exactly break-even, savings are ~zero.
        let be = p.break_even();
        assert!(p.savings_j(be).abs() < 0.5);
    }

    #[test]
    fn hour_of_standby_saves_expected_energy() {
        let p = policy();
        let hour = SimDuration::from_secs(3600);
        let saved = p.savings_j(hour);
        // Rough: 2.66 W * 3600 s ≈ 9.6 kJ minus ~30 J of transitions.
        assert!((9_000.0..10_000.0).contains(&saved), "{saved}");
    }

    #[test]
    fn absorption_limits() {
        let p = policy();
        // 100 MB/s fills 8 GiB in ~85.9 s, less the 6 s spin-up it must
        // mask: a 60 s standby fits, a 100 s one does not.
        let max = p.max_maskable_period(100e6);
        assert!(max > SimDuration::from_secs(60), "{max}");
        assert!(max < SimDuration::from_secs(100), "{max}");
        // Faster than the tier's spare bandwidth: never.
        assert_eq!(p.max_maskable_period(600e6), SimDuration::ZERO);
        // No writes: always.
        assert_eq!(p.max_maskable_period(0.0), SimDuration::MAX);
    }

    #[test]
    fn max_maskable_period_fills_the_capacity_exactly() {
        let p = policy();
        let capacity = 8.0 * 1024.0 * 1024.0 * 1024.0;
        for rate in [100e6, 250e6, 500e6] {
            // The stream over the period plus the masked spin-up writes
            // exactly the tier's capacity (to within ns rounding).
            let covered = p.max_maskable_period(rate) + exos().up;
            let written = rate * covered.as_secs_f64();
            assert!(
                (written - capacity).abs() <= rate * 1e-9,
                "{rate}: {written}"
            );
        }
        assert_eq!(p.max_maskable_period(1e12), SimDuration::ZERO);
    }

    #[test]
    fn profile_validation() {
        let mut bad = exos();
        bad.standby_w = 4.0;
        assert!(TieringPolicy::new(
            bad,
            AbsorptionProfile {
                absorb_bw_bps: 1.0,
                absorb_capacity_bytes: 1
            }
        )
        .is_err());
    }
}
