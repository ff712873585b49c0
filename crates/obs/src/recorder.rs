//! The [`Recorder`] sink trait, the cloneable [`RecorderHandle`] used at
//! emit sites, the process-global recorder slot, and the ring-buffered
//! [`EventLog`].
//!
//! Emit sites hold a `RecorderHandle` — a nullable `Arc` — and go through
//! the [`emit!`](crate::emit) macro, which checks [`RecorderHandle::
//! is_enabled`] *before* evaluating the event payload. With no recorder
//! installed the whole emit path is a branch on an `Option`, so tracing
//! support costs nothing when it is off.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use crate::event::{Event, EventKind};

/// A sink for telemetry events.
///
/// Recorders take `&self`: they are shared across threads (the parallel
/// sweep executor runs figure cells concurrently), so implementations
/// synchronize internally. Determinism contract: a recorder must not feed
/// anything back into the simulation — recording is strictly write-only
/// from the sim's point of view.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Record one event. Must not panic.
    fn record(&self, event: Event);
}

/// A cheap, cloneable, possibly-absent reference to a recorder.
///
/// The default handle is disabled; [`RecorderHandle::is_enabled`] is a
/// single `Option` check, which is what makes `emit!` free when tracing
/// is off.
#[derive(Debug, Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl RecorderHandle {
    /// A handle that records nothing.
    pub const fn disabled() -> Self {
        RecorderHandle(None)
    }

    /// A handle recording into `rec`.
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        RecorderHandle(Some(rec))
    }

    /// True when a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Forward an event to the recorder, if any.
    #[inline]
    pub fn record(&self, event: Event) {
        if let Some(r) = &self.0 {
            r.record(event);
        }
    }
}

/// The process-global recorder slot.
///
/// Devices and runners capture [`current()`] at construction, so installing
/// a recorder *before* building a figure traces the whole run without any
/// signature changes; explicit `set_recorder` calls override per component.
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

fn read_global() -> Option<Arc<dyn Recorder>> {
    match GLOBAL.read() {
        Ok(g) => g.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

/// Install `rec` as the process-global recorder, returning the previous
/// one, if any.
pub fn install(rec: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    match GLOBAL.write() {
        Ok(mut g) => g.replace(rec),
        Err(poisoned) => poisoned.into_inner().replace(rec),
    }
}

/// Remove and return the process-global recorder.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    match GLOBAL.write() {
        Ok(mut g) => g.take(),
        Err(poisoned) => poisoned.into_inner().take(),
    }
}

/// A handle to the currently installed global recorder (disabled when none
/// is installed). The handle snapshots the slot: later `install` calls do
/// not retarget handles already captured.
pub fn current() -> RecorderHandle {
    RecorderHandle(read_global())
}

/// Runs `f` with `rec` installed as the process-global recorder, then
/// puts back whatever was installed before. The restore runs from a drop
/// guard, so a panic in `f` cannot leave `rec` behind in the slot.
pub fn with_installed<T>(rec: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(prev) => {
                    install(prev);
                }
                None => {
                    uninstall();
                }
            }
        }
    }
    let _restore = Restore(install(rec));
    f()
}

#[derive(Debug)]
struct LogInner {
    events: VecDeque<Event>,
    /// Per-kind counters, dense by [`EventKind::index`]: the record hot
    /// path does one array add, never a keyed map lookup.
    counts: [u64; EventKind::COUNT],
    total: u64,
    dropped: u64,
}

impl LogInner {
    fn with_capacity(capacity: usize) -> Self {
        LogInner {
            // Reserved up front so a filling ring never pays reallocation
            // copies on the record path.
            events: VecDeque::with_capacity(capacity),
            counts: [0; EventKind::COUNT],
            total: 0,
            dropped: 0,
        }
    }
}

/// Wire form of the per-kind counters: `(kind name, count)` for every
/// kind ever recorded, sorted by name. Names rather than dense indexes,
/// so adding an event kind never changes what a checkpoint means.
struct KindCounts;

impl powadapt_snap::Wire<[u64; EventKind::COUNT]> for KindCounts {
    fn encode(counts: &[u64; EventKind::COUNT], w: &mut powadapt_snap::SnapWriter) {
        let mut named: Vec<(&'static str, u64)> = EventKind::NAMES
            .iter()
            .zip(counts)
            .filter(|&(_, &n)| n > 0)
            .map(|(&k, &n)| (k, n))
            .collect();
        named.sort_unstable();
        w.seq_len(named.len());
        for (k, n) in named {
            w.str(k);
            w.u64(n);
        }
    }

    fn restore(
        counts: &mut [u64; EventKind::COUNT],
        r: &mut powadapt_snap::SnapReader<'_>,
    ) -> Result<(), powadapt_snap::SnapError> {
        *counts = [0; EventKind::COUNT];
        let mut seen = [false; EventKind::COUNT];
        for _ in 0..r.seq_len()? {
            let name = r.str()?;
            let idx = EventKind::name_index(&name).ok_or_else(|| {
                powadapt_snap::SnapError::InvalidValue(format!("unknown event kind {name:?}"))
            })?;
            if std::mem::replace(&mut seen[idx], true) {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "duplicate event kind {name:?}"
                )));
            }
            counts[idx] = r.u64()?;
        }
        Ok(())
    }
}

// The durable accounting — per-kind counts, lifetime total, eviction
// count — rides in checkpoints; events recorded after a restore
// accumulate on top (no double-count, no reset).
powadapt_snap::codec! {
    LogInner { total, dropped, counts: with(KindCounts) }
    skip { events: "the retained ring: a bounded debugging window, not run state" }
    after restore_total
}

impl LogInner {
    fn restore_total(&mut self) -> Result<(), powadapt_snap::SnapError> {
        let sum: u64 = self.counts.iter().sum();
        if sum == self.total {
            Ok(())
        } else {
            Err(powadapt_snap::SnapError::InvalidValue(format!(
                "per-kind counts sum to {sum}, total says {}",
                self.total
            )))
        }
    }
}

/// A bounded, thread-safe event ring buffer.
///
/// Holds the most recent `capacity` events; older events are dropped (and
/// counted) rather than growing without bound, so an `EventLog` can stay
/// attached to a long fleet run. Per-kind counts cover *all* events ever
/// recorded, including dropped ones — counting never saturates.
pub struct EventLog {
    inner: Mutex<LogInner>,
    capacity: usize,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .field("len", &inner.events.len())
            .field("total", &inner.total)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl EventLog {
    /// Default ring capacity, 2^20 events. A long run records more (a
    /// full `policy_eval` trace records about 1.46 million), so its ring
    /// keeps only the newest 2^20; `dropped` counts the evicted rest.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// An event log retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventLog {
            inner: Mutex::new(LogInner::with_capacity(capacity)),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    /// Per-kind event counts over everything ever recorded (sorted by
    /// kind name; kinds never recorded are omitted).
    pub fn counts(&self) -> Vec<(String, u64)> {
        let counts = self.lock().counts;
        let mut out: Vec<(String, u64)> = EventKind::NAMES
            .iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .map(|(&k, n)| (k.to_string(), n))
            .collect();
        out.sort();
        out
    }

    /// Total events ever recorded (including dropped).
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Discard all retained events and counts, keeping the allocated
    /// ring: a cleared log re-fills without re-faulting its pages, which
    /// is what lets the overhead bench warm a recorder untimed.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.events.clear();
        inner.counts = [0; EventKind::COUNT];
        inner.total = 0;
        inner.dropped = 0;
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(Self::DEFAULT_CAPACITY)
    }
}

powadapt_snap::snapshot! {
    EventLog { inner }
    skip { capacity: "configured ring capacity; a restore keeps the attached log's" }
    after restore_ring
}

impl EventLog {
    /// Re-reserves the ring a restore replaced, so recording after a
    /// resume never pays reallocation copies.
    fn restore_ring(&mut self) -> Result<(), powadapt_snap::SnapError> {
        let capacity = self.capacity;
        self.lock().events.reserve(capacity);
        Ok(())
    }
}

impl Recorder for EventLog {
    fn record(&self, event: Event) {
        let kind = event.kind.index();
        let mut inner = self.lock();
        inner.counts[kind] += 1;
        inner.total += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use powadapt_sim::SimTime;

    fn ev(ns: u64) -> Event {
        Event {
            at: SimTime::from_nanos(ns),
            track: "t",
            kind: EventKind::SpinUp,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = RecorderHandle::disabled();
        assert!(!h.is_enabled());
        h.record(ev(0)); // must not panic
    }

    #[test]
    fn ring_drops_oldest() {
        let log = EventLog::new(2);
        log.record(ev(1));
        log.record(ev(2));
        log.record(ev(3));
        let events: Vec<u64> = log.snapshot().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(events, vec![2, 3]);
        assert_eq!(log.total(), 3);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.counts(), vec![("spin_up".to_string(), 3)]);
    }

    #[test]
    fn handle_records_through_arc() {
        let log = Arc::new(EventLog::new(8));
        let h = RecorderHandle::new(log.clone());
        assert!(h.is_enabled());
        h.record(ev(7));
        assert_eq!(log.total(), 1);
    }

    #[test]
    fn event_log_counts_survive_snapshot_roundtrip() {
        use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};
        let log = EventLog::new(4);
        for _ in 0..3 {
            log.record(ev(1));
        }
        let mut w = SnapWriter::new();
        log.write_state(&mut w).unwrap();
        let payload = w.into_payload();

        let mut resumed = EventLog::new(4);
        let mut r = SnapReader::new(&payload);
        resumed.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(resumed.total(), 3);
        assert_eq!(resumed.counts(), log.counts());

        // New events accumulate on top of the restored counters.
        resumed.record(ev(9));
        assert_eq!(resumed.total(), 4);
        assert_eq!(resumed.counts(), vec![("spin_up".to_string(), 4)]);
    }

    #[test]
    fn event_log_restore_rejects_unknown_kind_and_bad_total() {
        use powadapt_snap::{Restore, SnapReader, SnapWriter};
        // Unknown kind name.
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(0);
        w.seq_len(1);
        w.str("not_a_kind");
        w.u64(1);
        let payload = w.into_payload();
        let mut log = EventLog::new(4);
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            log.read_state(&mut r),
            Err(powadapt_snap::SnapError::InvalidValue(_))
        ));

        // Counts that do not sum to the recorded total.
        let mut w = SnapWriter::new();
        w.u64(5);
        w.u64(0);
        w.seq_len(1);
        w.str("spin_up");
        w.u64(2);
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(
            log.read_state(&mut r),
            Err(powadapt_snap::SnapError::InvalidValue(_))
        ));
    }
}
