//! Per-device health tracking and retry policy for the fault-tolerant
//! control loop.
//!
//! The §4.1 transition-safety argument assumes the control plane can tell
//! a transiently-failing device from a persistently-broken one. The
//! controller does that with two pieces of state per device:
//!
//! - a bounded, deterministic [`RetryPolicy`] applied to every admin
//!   command, and
//! - a [`DeviceHealth`] record keeping an error-rate EWMA across all admin
//!   commands ever issued to the device.
//!
//! When retries are exhausted the device is quarantined for a fixed number
//! of control rounds and the budget is re-planned across the compliant
//! remainder; the quarantine decision and its evidence are surfaced as
//! [`Degradation`] records on the applied plan.

use powadapt_device::DeviceError;

use crate::controller::DeviceAction;

/// Bounded deterministic retry behavior for admin commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per admin command within one `apply_budget` call (≥ 1).
    /// Only transient errors ([`DeviceError::is_transient`]) are retried;
    /// wiring errors fail fast.
    pub max_attempts: u32,
    /// Number of subsequent `apply_budget` calls a quarantined device sits
    /// out before it is probed again.
    pub quarantine_cooldown: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            quarantine_cooldown: 2,
        }
    }
}

impl RetryPolicy {
    /// Policy with the given attempt bound and default cooldown.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }
}

/// EWMA smoothing factor for [`DeviceHealth`]: high enough that a burst of
/// failures is visible within a few commands, low enough that one blip
/// does not dominate.
const HEALTH_ALPHA: f64 = 0.3;

/// Error-rate history of one device's admin command stream.
#[derive(Debug, Clone, Default)]
pub struct DeviceHealth {
    ewma: f64,
    commands: u64,
    failures: u64,
}

impl DeviceHealth {
    /// Records the outcome of one admin command attempt.
    pub fn record(&mut self, success: bool) {
        self.commands += 1;
        let fail = if success { 0.0 } else { 1.0 };
        self.failures += (!success) as u64;
        self.ewma = HEALTH_ALPHA * fail + (1.0 - HEALTH_ALPHA) * self.ewma;
    }

    /// Exponentially-weighted error rate in `[0, 1]` (0 = healthy).
    pub fn error_rate(&self) -> f64 {
        self.ewma
    }

    /// Total admin command attempts recorded.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// Total failed attempts recorded.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

powadapt_snap::snapshot! {
    value DeviceHealth { ewma, commands, failures }
    after restore_counts
}

impl DeviceHealth {
    fn restore_counts(&mut self) -> Result<(), powadapt_snap::SnapError> {
        if self.failures > self.commands {
            return Err(powadapt_snap::SnapError::InvalidValue(format!(
                "{} failures exceed {} commands",
                self.failures, self.commands
            )));
        }
        Ok(())
    }
}

/// Evidence that a device refused its planned action and was routed
/// around: attached to the [`AppliedPlan`](crate::AppliedPlan) that the
/// degraded control round produced.
#[derive(Debug, Clone)]
pub struct Degradation {
    /// Controller index of the refusing device.
    pub device: usize,
    /// The action the plan wanted to apply.
    pub planned: DeviceAction,
    /// The error that exhausted the retry budget (or failed fast).
    pub error: DeviceError,
    /// Attempts made before giving up.
    pub attempts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_rises_on_failures_and_decays_on_successes() {
        let mut h = DeviceHealth::default();
        assert_eq!(h.error_rate(), 0.0);
        for _ in 0..5 {
            h.record(false);
        }
        let peak = h.error_rate();
        assert!(peak > 0.5, "sustained failures dominate: {peak}");
        for _ in 0..10 {
            h.record(true);
        }
        assert!(h.error_rate() < 0.1, "successes decay the rate");
        assert_eq!(h.commands(), 15);
        assert_eq!(h.failures(), 5);
    }

    #[test]
    fn retry_policy_default_is_bounded() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts >= 1);
        assert!(p.quarantine_cooldown >= 1);
        assert_eq!(RetryPolicy::with_max_attempts(5).max_attempts, 5);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::with_max_attempts(0);
    }
}
