//! Leveraging asymmetric IO (§4): power capping barely affects reads but
//! cripples writes, so segregate write traffic onto a few uncapped devices
//! and cap the read-serving remainder.

use std::fmt;

/// Per-device characteristics in the two roles the policy assigns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymmetricProfile {
    /// Write throughput of an uncapped device, in bytes/second.
    pub write_bw_bps: f64,
    /// Power of an uncapped device serving writes, in watts.
    pub write_power_w: f64,
    /// Read throughput of a capped device, in bytes/second (caps barely
    /// reduce this — the paper's Fig. 4b).
    pub read_bw_capped_bps: f64,
    /// Power of a capped device serving reads, in watts.
    pub read_power_capped_w: f64,
    /// Power of an uncapped device serving reads, in watts (the uniform
    /// baseline).
    pub read_power_uncapped_w: f64,
}

impl AsymmetricProfile {
    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.write_bw_bps <= 0.0 || self.read_bw_capped_bps <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if self.write_power_w <= 0.0
            || self.read_power_capped_w <= 0.0
            || self.read_power_uncapped_w <= 0.0
        {
            return Err("powers must be positive".into());
        }
        if self.read_power_capped_w > self.read_power_uncapped_w {
            return Err("capped read power exceeds uncapped".into());
        }
        Ok(())
    }
}

/// A write-segregation plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymmetricPlan {
    /// Devices dedicated to (uncapped) writes.
    pub write_devices: usize,
    /// Devices serving reads under a power cap.
    pub read_devices: usize,
    /// Estimated total power, in watts.
    pub power_w: f64,
    /// Power of the uniform alternative (everything uncapped), in watts.
    pub uniform_power_w: f64,
}

impl AsymmetricPlan {
    /// Power saved versus leaving every device uncapped.
    pub fn savings_w(&self) -> f64 {
        self.uniform_power_w - self.power_w
    }
}

impl fmt::Display for AsymmetricPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} write + {} capped read devices: {:.1} W (saves {:.1} W vs uniform)",
            self.write_devices,
            self.read_devices,
            self.power_w,
            self.savings_w()
        )
    }
}

/// Plans write segregation for `n` devices given read/write demand.
///
/// Dedicates the minimum number of devices to writes (writes must not be
/// capped), serves reads from the capped remainder, and reports the power
/// saved versus the uniform uncapped deployment.
///
/// Returns `None` when demand does not fit `n` devices under this split.
///
/// # Panics
///
/// Panics if the profile is invalid or demands are negative.
///
/// # Examples
///
/// ```
/// use powadapt_core::{plan_asymmetric, AsymmetricProfile};
///
/// let profile = AsymmetricProfile {
///     write_bw_bps: 3.3e9,
///     write_power_w: 15.0,
///     read_bw_capped_bps: 3.2e9,
///     read_power_capped_w: 7.0,
///     read_power_uncapped_w: 7.5,
/// };
/// let plan = plan_asymmetric(8, 4.0e9, 12.0e9, &profile).unwrap();
/// assert_eq!(plan.write_devices, 2);
/// assert!(plan.savings_w() > 0.0);
/// ```
pub fn plan_asymmetric(
    n: usize,
    write_demand_bps: f64,
    read_demand_bps: f64,
    profile: &AsymmetricProfile,
) -> Option<AsymmetricPlan> {
    match profile.validate() {
        Ok(()) => {}
        #[expect(
            clippy::panic,
            reason = "documented contract: an invalid profile is a construction bug, not a runtime condition"
        )]
        Err(e) => panic!("invalid asymmetric profile: {e}"),
    }
    assert!(
        write_demand_bps >= 0.0 && read_demand_bps >= 0.0,
        "demands must be non-negative"
    );
    let write_devices = if write_demand_bps == 0.0 {
        0
    } else {
        (write_demand_bps / profile.write_bw_bps).ceil() as usize
    };
    if write_devices > n {
        return None;
    }
    let read_devices = n - write_devices;
    if read_demand_bps > read_devices as f64 * profile.read_bw_capped_bps {
        return None;
    }
    let power_w = write_devices as f64 * profile.write_power_w
        + read_devices as f64 * profile.read_power_capped_w;
    // Uniform baseline: all devices uncapped, sharing both demand classes.
    // Write-active devices dominate power, so approximate the uniform cost
    // as the demand-weighted mix of write and uncapped-read power.
    let total_demand = write_demand_bps + read_demand_bps;
    let write_frac = if total_demand > 0.0 {
        write_demand_bps / total_demand
    } else {
        0.0
    };
    let per_dev_uniform =
        write_frac * profile.write_power_w + (1.0 - write_frac) * profile.read_power_uncapped_w;
    let uniform_power_w = n as f64 * per_dev_uniform;
    Some(AsymmetricPlan {
        write_devices,
        read_devices,
        power_w,
        uniform_power_w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AsymmetricProfile {
        AsymmetricProfile {
            write_bw_bps: 3.0e9,
            write_power_w: 15.0,
            read_bw_capped_bps: 3.0e9,
            read_power_capped_w: 7.0,
            read_power_uncapped_w: 7.5,
        }
    }

    #[test]
    fn dedicates_minimum_write_devices() {
        let plan = plan_asymmetric(10, 7.0e9, 10.0e9, &profile()).unwrap();
        assert_eq!(plan.write_devices, 3);
        assert_eq!(plan.read_devices, 7);
    }

    #[test]
    fn zero_write_demand_caps_everything() {
        let plan = plan_asymmetric(4, 0.0, 6.0e9, &profile()).unwrap();
        assert_eq!(plan.write_devices, 0);
        assert_eq!(plan.power_w, 4.0 * 7.0);
    }

    #[test]
    fn infeasible_demand_returns_none() {
        // Writes alone need more devices than exist.
        assert!(plan_asymmetric(2, 9.0e9, 0.0, &profile()).is_none());
        // Reads overflow the capped remainder.
        assert!(plan_asymmetric(3, 3.0e9, 7.0e9, &profile()).is_none());
    }

    #[test]
    fn saves_power_for_read_heavy_mixes() {
        let plan = plan_asymmetric(16, 3.0e9, 30.0e9, &profile()).unwrap();
        assert!(
            plan.savings_w() > 0.0,
            "read-heavy mixes should benefit: {plan}"
        );
    }

    #[test]
    fn plan_display_mentions_savings() {
        let plan = plan_asymmetric(8, 3.0e9, 9.0e9, &profile()).unwrap();
        assert!(plan.to_string().contains("saves"));
    }

    #[test]
    #[should_panic(expected = "invalid asymmetric profile")]
    fn invalid_profile_panics() {
        let mut p = profile();
        p.read_power_capped_w = 9.0; // above uncapped
        let _ = plan_asymmetric(4, 1.0, 1.0, &p);
    }
}
