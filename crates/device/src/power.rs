//! Power states and standby machinery shared by all device models.

use std::fmt;

use powadapt_sim::{SimDuration, SimTime};

/// Identifier of an NVMe-style power state (ps0 is the highest-power state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PowerStateId(pub u8);

impl fmt::Display for PowerStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ps{}", self.0)
    }
}

/// Descriptor of one power state: a cap on the device's average power over
/// any [`cap window`](crate::ssd::SsdConfig::cap_window) (10 s per the NVMe
/// specification).
///
/// # Examples
///
/// ```
/// use powadapt_device::{PowerStateDesc, PowerStateId};
///
/// let ps1 = PowerStateDesc::new(PowerStateId(1), 12.0);
/// assert_eq!(ps1.cap_w, 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerStateDesc {
    /// State identifier.
    pub id: PowerStateId,
    /// Maximum average power in watts. `f64::INFINITY` means unconstrained.
    pub cap_w: f64,
}

impl PowerStateDesc {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `cap_w` is not positive.
    pub fn new(id: PowerStateId, cap_w: f64) -> Self {
        assert!(cap_w > 0.0, "power cap must be positive");
        PowerStateDesc { id, cap_w }
    }

    /// An unconstrained state (used for ps0 on devices whose ps0 cap never
    /// binds, and for devices without power capping).
    pub fn unconstrained(id: PowerStateId) -> Self {
        PowerStateDesc {
            id,
            cap_w: f64::INFINITY,
        }
    }
}

/// Depth of a low-power link/standby state, mirroring the SATA ALPM
/// ladder: PARTIAL is shallow (fast exit, modest savings), SLUMBER is deep
/// (slow exit, maximal savings). Devices with a single standby mode (HDD
/// spin-down, NVMe autonomous power states modeled as standby) treat it as
/// [`StandbyDepth::Slumber`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StandbyDepth {
    /// Shallow low-power state (SATA PARTIAL): microsecond-scale exit.
    Partial,
    /// Deep low-power state (SATA SLUMBER / HDD spin-down): millisecond-
    /// to-second-scale exit.
    Slumber,
}

impl fmt::Display for StandbyDepth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StandbyDepth::Partial => "partial",
            StandbyDepth::Slumber => "slumber",
        };
        write!(f, "{s}")
    }
}

/// Externally visible standby status of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StandbyState {
    /// Fully operational (includes idle).
    Active,
    /// Transitioning into standby.
    EnteringStandby,
    /// In low-power standby (SATA SLUMBER, or HDD spun down).
    Standby,
    /// Transitioning back to active.
    ExitingStandby,
}

impl fmt::Display for StandbyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StandbyState::Active => "active",
            StandbyState::EnteringStandby => "entering-standby",
            StandbyState::Standby => "standby",
            StandbyState::ExitingStandby => "exiting-standby",
        };
        write!(f, "{s}")
    }
}

/// Internal standby phase tracker with transition deadlines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StandbyPhase {
    Active,
    Entering { until: SimTime },
    Standby,
    Exiting { until: SimTime },
}

powadapt_snap::codec! {
    enum StandbyPhase {
        0 => Active,
        1 => Entering { until },
        2 => Standby,
        3 => Exiting { until },
    }
}
powadapt_snap::codec! { enum StandbyDepth { 0 => Partial, 1 => Slumber } }

impl StandbyPhase {
    pub(crate) fn state(self) -> StandbyState {
        match self {
            StandbyPhase::Active => StandbyState::Active,
            StandbyPhase::Entering { .. } => StandbyState::EnteringStandby,
            StandbyPhase::Standby => StandbyState::Standby,
            StandbyPhase::Exiting { .. } => StandbyState::ExitingStandby,
        }
    }
}

/// Configuration of a device's low-power standby mode.
///
/// For SATA SSDs this models ALPM SLUMBER; for HDDs, spin-down. The
/// transition draws `transition_w` for its duration (entering) and
/// `wake_spike_w` while waking, reproducing the spikes in Figure 7 of the
/// paper.
#[derive(Debug, Clone, PartialEq)]
pub struct StandbyConfig {
    /// Steady-state standby power in watts.
    pub standby_w: f64,
    /// Time to enter standby.
    pub enter: SimDuration,
    /// Time to exit standby.
    pub exit: SimDuration,
    /// Power drawn while entering standby.
    pub transition_w: f64,
    /// Power drawn while exiting standby (wake spike).
    pub wake_spike_w: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_construction() {
        let d = PowerStateDesc::new(PowerStateId(2), 10.0);
        assert_eq!(d.id, PowerStateId(2));
        assert_eq!(d.cap_w, 10.0);
        let u = PowerStateDesc::unconstrained(PowerStateId(0));
        assert!(u.cap_w.is_infinite());
    }

    #[test]
    #[should_panic(expected = "power cap must be positive")]
    fn zero_cap_rejected() {
        let _ = PowerStateDesc::new(PowerStateId(0), 0.0);
    }

    #[test]
    fn standby_state_predicates() {
        assert_eq!(
            StandbyState::EnteringStandby.to_string(),
            "entering-standby"
        );
    }

    #[test]
    fn phase_maps_to_state() {
        assert_eq!(StandbyPhase::Active.state(), StandbyState::Active);
        assert_eq!(StandbyPhase::Standby.state(), StandbyState::Standby);
        let t = SimTime::from_millis(5);
        assert_eq!(
            StandbyPhase::Entering { until: t }.state(),
            StandbyState::EnteringStandby
        );
        assert_eq!(
            StandbyPhase::Exiting { until: t }.state(),
            StandbyState::ExitingStandby
        );
    }

    #[test]
    fn standby_depth_display_and_order() {
        assert_eq!(StandbyDepth::Partial.to_string(), "partial");
        assert_eq!(StandbyDepth::Slumber.to_string(), "slumber");
        assert!(StandbyDepth::Partial < StandbyDepth::Slumber);
    }

    #[test]
    fn power_state_id_display() {
        assert_eq!(PowerStateId(0).to_string(), "ps0");
        assert_eq!(PowerStateId(2).to_string(), "ps2");
    }
}
