//! Error types for device operations.

use std::error::Error;
use std::fmt;

use crate::power::PowerStateId;

/// Errors returned by [`StorageDevice`](crate::StorageDevice) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// The requested power state does not exist on this device.
    UnknownPowerState(PowerStateId),
    /// The device does not support a low-power standby mode.
    StandbyUnsupported,
    /// The operation conflicts with an in-progress standby transition.
    StandbyTransitionInProgress,
    /// An IO request fell outside the device capacity.
    OutOfRange {
        /// First byte past the requested range.
        end: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// An IO request had zero length.
    ZeroLength,
    /// A request id was reused while still in flight.
    DuplicateRequest(u64),
    /// A transient IO-path error: the device could not accept or complete
    /// the request (media error, internal retry exhaustion). The request
    /// id, if the failure is tied to one, is carried for diagnostics.
    Io {
        /// Id of the failed request, when known.
        request: Option<u64>,
    },
    /// An admin command did not complete within the device's internal
    /// deadline (e.g. a power-state transition that wedged).
    Timeout {
        /// The command that timed out.
        op: &'static str,
    },
    /// The device is temporarily unreachable (link dropout, controller
    /// reset). Retrying after the dropout window may succeed.
    Unavailable,
    /// A device configuration failed validation (see
    /// [`SsdConfig::validate`](crate::SsdConfig::validate) and
    /// [`HddConfig::validate`](crate::HddConfig::validate)); the message
    /// names the offending field.
    InvalidConfig(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::UnknownPowerState(ps) => {
                write!(f, "power state {ps} is not supported by this device")
            }
            DeviceError::StandbyUnsupported => {
                write!(f, "device does not support a standby mode")
            }
            DeviceError::StandbyTransitionInProgress => {
                write!(f, "a standby transition is already in progress")
            }
            DeviceError::OutOfRange { end, capacity } => {
                write!(f, "request end {end} exceeds device capacity {capacity}")
            }
            DeviceError::ZeroLength => write!(f, "request length must be non-zero"),
            DeviceError::DuplicateRequest(id) => {
                write!(f, "request id {id} is already in flight")
            }
            DeviceError::Io { request: Some(id) } => {
                write!(f, "io error on request {id}")
            }
            DeviceError::Io { request: None } => write!(f, "io error"),
            DeviceError::Timeout { op } => write!(f, "{op} timed out"),
            DeviceError::Unavailable => write!(f, "device temporarily unavailable"),
            DeviceError::InvalidConfig(detail) => {
                write!(f, "invalid device configuration: {detail}")
            }
        }
    }
}

impl DeviceError {
    /// True for fault-injected / environmental errors that a control plane
    /// should retry or route around ([`Io`](DeviceError::Io),
    /// [`Timeout`](DeviceError::Timeout),
    /// [`Unavailable`](DeviceError::Unavailable)), as opposed to request
    /// or wiring bugs that retrying cannot fix.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DeviceError::Io { .. } | DeviceError::Timeout { .. } | DeviceError::Unavailable
        )
    }
}

impl Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeviceError>();
        assert!(!DeviceError::ZeroLength.to_string().is_empty());
        assert!(!DeviceError::OutOfRange {
            end: 10,
            capacity: 5
        }
        .to_string()
        .is_empty());
    }

    #[test]
    fn transient_classification() {
        assert!(DeviceError::Io { request: Some(3) }.is_transient());
        assert!(DeviceError::Timeout {
            op: "set_power_state"
        }
        .is_transient());
        assert!(DeviceError::Unavailable.is_transient());
        assert!(!DeviceError::ZeroLength.is_transient());
        assert!(!DeviceError::StandbyUnsupported.is_transient());
    }

    #[test]
    fn new_variants_display() {
        assert!(DeviceError::Io { request: Some(7) }
            .to_string()
            .contains('7'));
        assert!(DeviceError::Timeout {
            op: "request_standby"
        }
        .to_string()
        .contains("request_standby"));
        assert!(!DeviceError::Unavailable.to_string().is_empty());
    }
}
