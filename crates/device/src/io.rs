//! IO request and completion types.

use std::collections::VecDeque;
use std::fmt;

use powadapt_sim::{SimDuration, SimTime};
use powadapt_snap::{Codec, SnapError, SnapReader, SnapWriter};

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

/// The ids of a device's submitted, not yet completed requests, kept
/// ascending in a flat deque.
///
/// Submitters number requests in rising order and devices complete them
/// roughly in that order, so an insert usually lands at the back and a
/// removal usually takes the front: both are O(1) with no search, where
/// an ordered tree would allocate and free a node per request. Any other
/// id is placed or found by bisection and moves a few words.
#[derive(Debug, Default)]
pub(crate) struct InflightIds(VecDeque<u64>);

impl InflightIds {
    /// Adds `id`; false if it is already in flight.
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        if self.0.back().is_none_or(|&back| back < id) {
            self.0.push_back(id);
            return true;
        }
        match self.0.binary_search(&id) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, id);
                true
            }
        }
    }

    /// Removes `id` if it is in flight.
    pub(crate) fn remove(&mut self, id: u64) {
        if self.0.front() == Some(&id) {
            self.0.pop_front();
        } else if let Ok(i) = self.0.binary_search(&id) {
            self.0.remove(i);
        }
    }

    /// Number of ids in flight.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// A length prefix, then the ids ascending: the wire form of a
/// `BTreeSet<u64>`. Decoding rejects a repeated or out-of-order id, which
/// bisection could not search.
impl Codec for InflightIds {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let ids = Vec::<u64>::decode(r)?;
        match ids.windows(2).find(|p| p[0] >= p[1]) {
            Some(p) => Err(SnapError::InvalidValue(format!(
                "in-flight id {} after {}: ids must be strictly ascending",
                p[1], p[0]
            ))),
            None => Ok(InflightIds(ids.into())),
        }
    }
}

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
    fn inflight_ids_stay_ascending_whatever_the_order() {
        let mut ids = InflightIds::default();
        for id in [5, 9, 2, 7, 11] {
            assert!(ids.insert(id));
        }
        assert!(!ids.insert(7), "a repeated id is refused");
        ids.remove(9);
        ids.remove(4); // not in flight: no effect
        assert_eq!(ids.len(), 4);
        assert_eq!(Vec::from(ids.0), vec![2, 5, 7, 11]);

        // The common paths, at either end of the deque.
        let mut ids = InflightIds::default();
        // Ascending inserts append at the back.
        for id in [3, 4, 8, 20] {
            assert!(ids.insert(id));
        }
        assert!(!ids.insert(20), "a repeat of the back id is refused");
        assert!(!ids.insert(3), "a repeat of the front id is refused");
        assert_eq!(Vec::from(ids.0.clone()), vec![3, 4, 8, 20]);
        // The oldest request completes first: the front goes.
        ids.remove(3);
        assert_eq!(Vec::from(ids.0.clone()), vec![4, 8, 20]);
        // One from the middle completes out of order.
        ids.remove(8);
        assert_eq!(Vec::from(ids.0.clone()), vec![4, 20]);
        // Already gone: no effect.
        ids.remove(8);
        // A late, lower id still lands in order.
        assert!(ids.insert(10));
        ids.remove(20);
        assert_eq!(ids.len(), 2);
        assert_eq!(Vec::from(ids.0), vec![4, 10]);
    }

    #[test]
    fn unit_constants() {
        assert_eq!(KIB, 1024);
        assert_eq!(MIB, 1024 * 1024);
        assert_eq!(GIB, 1024 * 1024 * 1024);
    }

    #[test]
    fn kind_helpers_and_display() {
        assert_eq!(IoKind::Read.to_string(), "read");
        assert_eq!(IoId(7).to_string(), "io#7");
    }
}
