//! IO request and completion types.

use std::fmt;

use powadapt_sim::{SimDuration, SimTime};

/// One kibibyte, in bytes.
pub const KIB: u64 = 1024;
/// One mebibyte, in bytes.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte, in bytes.
pub const GIB: u64 = 1024 * MIB;

/// Identifier of an in-flight IO request, assigned by the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IoId(pub u64);

impl fmt::Display for IoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "io#{}", self.0)
    }
}

/// Direction of an IO request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Data flows device → host.
    Read,
    /// Data flows host → device.
    Write,
}

impl IoKind {
    /// True for writes.
    pub fn is_write(self) -> bool {
        matches!(self, IoKind::Write)
    }

    /// The telemetry-schema direction for this kind.
    pub fn obs_dir(self) -> powadapt_obs::IoDir {
        match self {
            IoKind::Read => powadapt_obs::IoDir::Read,
            IoKind::Write => powadapt_obs::IoDir::Write,
        }
    }
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoKind::Read => write!(f, "read"),
            IoKind::Write => write!(f, "write"),
        }
    }
}

/// An IO request submitted to a [`StorageDevice`](crate::StorageDevice).
///
/// # Examples
///
/// ```
/// use powadapt_device::{IoId, IoKind, IoRequest, KIB};
///
/// let req = IoRequest::new(IoId(1), IoKind::Write, 0, 256 * KIB);
/// assert_eq!(req.len, 256 * KIB);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Submitter-assigned id, echoed in the completion.
    pub id: IoId,
    /// Read or write.
    pub kind: IoKind,
    /// Byte offset on the device.
    pub offset: u64,
    /// Length in bytes. Must be non-zero.
    pub len: u64,
}

impl IoRequest {
    /// Creates a request.
    pub fn new(id: IoId, kind: IoKind, offset: u64, len: u64) -> Self {
        IoRequest {
            id,
            kind,
            offset,
            len,
        }
    }

    /// First byte past the requested range.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Completion record for a finished IO request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// Id of the completed request.
    pub id: IoId,
    /// Read or write.
    pub kind: IoKind,
    /// Length in bytes.
    pub len: u64,
    /// When the request was submitted to the device.
    pub submitted: SimTime,
    /// When the device completed it.
    pub completed: SimTime,
}

impl IoCompletion {
    /// End-to-end device latency of the request.
    pub fn latency(&self) -> SimDuration {
        self.completed.duration_since(self.submitted)
    }
}

powadapt_snap::codec! { IoId(u64) }
powadapt_snap::codec! { enum IoKind { 0 => Read, 1 => Write } }
powadapt_snap::codec! { IoCompletion { id, kind, len, submitted, completed } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_end() {
        let r = IoRequest::new(IoId(0), IoKind::Read, 4096, 8192);
        assert_eq!(r.end(), 12288);
    }

    #[test]
    fn completion_latency() {
        let c = IoCompletion {
            id: IoId(3),
            kind: IoKind::Write,
            len: KIB,
            submitted: SimTime::from_micros(10),
            completed: SimTime::from_micros(95),
        };
        assert_eq!(c.latency().as_micros(), 85);
    }

    #[test]
    fn unit_constants() {
        assert_eq!(KIB, 1024);
        assert_eq!(MIB, 1024 * 1024);
        assert_eq!(GIB, 1024 * 1024 * 1024);
    }

    #[test]
    fn kind_helpers_and_display() {
        assert!(IoKind::Write.is_write());
        assert!(!IoKind::Read.is_write());
        assert_eq!(IoKind::Read.to_string(), "read");
        assert_eq!(IoId(7).to_string(), "io#7");
    }
}
