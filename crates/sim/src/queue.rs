//! A generic discrete-event queue.
//!
//! Events carry a payload of type `E` and fire in timestamp order. Ties are
//! broken by insertion order so simulations are fully deterministic: every
//! entry carries a sequence number, and the queue is a binary heap ordered
//! by `(time, seq)`.
//!
//! A device model keeps only a few dozen events pending at once (its
//! in-flight commands plus a handful of timers), so an O(log n) heap over
//! that small live set is both the simplest and the fastest layout.
//!
//! The queue serializes through `powadapt-snap` as `next_seq`, then the
//! live entries sorted by `(time, seq)`, so the bytes depend only on the
//! queue's logical state, never on the heap's internal arrangement.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

use powadapt_snap::{Codec, Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, for ties,
        // first-inserted) entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use powadapt_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "later");
/// q.schedule(SimTime::from_millis(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_millis(), ev), (1, "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number of the next scheduled event: the FIFO tie-break
    /// among events at the same time.
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`, after every event already
    /// scheduled for the same time.
    // powadapt-lint: hot
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Timestamp of the next event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes and returns the next event as `(time, payload)`.
    // powadapt-lint: hot
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Removes and returns the next event only if it fires at or before
    /// `t`.
    // powadapt-lint: hot
    pub fn pop_at_or_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        match self.next_time() {
            Some(at) if at <= t => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Serializes the queue's pending entries and sequence counter. The
    /// payload codec is supplied by the caller because `E` is theirs.
    ///
    /// Entries are emitted sorted by `(at, seq)` — the queue's own pop
    /// order — so the byte stream does not depend on the heap's internal
    /// arrangement. `next_seq` is preserved exactly so tie-breaks never
    /// collide across a restore.
    ///
    /// # Errors
    ///
    /// Propagates errors from the payload codec.
    pub fn write_state<F>(&self, w: &mut SnapWriter, mut item: F) -> Result<(), SnapError>
    where
        F: FnMut(&mut SnapWriter, &E) -> Result<(), SnapError>,
    {
        let Self { heap, next_seq } = self;
        w.u64(*next_seq);
        let mut live: Vec<&Entry<E>> = heap.iter().collect();
        live.sort_unstable_by_key(|e| (e.at, e.seq));
        w.seq_len(live.len());
        for e in live {
            e.at.encode(w);
            w.u64(e.seq);
            item(w, &e.payload)?;
        }
        Ok(())
    }

    /// Replaces the queue's contents with entries from a snapshot written
    /// by [`EventQueue::write_state`], preserving each entry's sequence
    /// number (and therefore every tie-break) exactly. Memory is
    /// proportional to the entry count, however far the recorded seqs
    /// sit below `next_seq`.
    ///
    /// # Errors
    ///
    /// [`SnapError::InvalidValue`] on duplicate or out-of-range sequence
    /// numbers, or any error from the payload codec. On error the queue
    /// is left unchanged.
    pub fn read_state<F>(&mut self, r: &mut SnapReader<'_>, mut item: F) -> Result<(), SnapError>
    where
        F: FnMut(&mut SnapReader<'_>) -> Result<E, SnapError>,
    {
        let next_seq = r.u64()?;
        let n = r.seq_len()?;
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(n);
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..n {
            let at = SimTime::decode(r)?;
            let seq = r.u64()?;
            if seq >= next_seq {
                return Err(SnapError::InvalidValue(format!(
                    "event seq {seq} not below next_seq {next_seq}"
                )));
            }
            if !seen.insert(seq) {
                return Err(SnapError::InvalidValue(format!(
                    "duplicate event seq {seq}"
                )));
            }
            entries.push(Entry {
                at,
                seq,
                payload: item(r)?,
            });
        }
        // Every field is rebuilt here.
        let Self {
            heap,
            next_seq: counter,
        } = self;
        heap.clear();
        heap.extend(entries);
        *counter = next_seq;
        Ok(())
    }
}

/// The [`EventQueue::write_state`] layout, for payloads with a codec of
/// their own.
impl<E: Codec> Snapshot for EventQueue<E> {
    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        EventQueue::write_state(self, w, |w, e| {
            e.encode(w);
            Ok(())
        })
    }
}

/// Restores in place: the queue keeps its heap allocation.
impl<E: Codec> Restore for EventQueue<E> {
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        EventQueue::read_state(self, r, E::decode)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::redundant_closure_for_method_calls,
        reason = "`SnapReader::u32` as a fn path cannot satisfy the codec's higher-ranked bound, so the closure is required"
    )]

    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 3u32);
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_at_or_before() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(4), "x");
        assert!(q.pop_at_or_before(SimTime::from_millis(3)).is_none());
        assert!(q.pop_at_or_before(SimTime::from_millis(4)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn far_entries_fire_after_near_one_in_insertion_order() {
        // Two entries ~50 ms out (past any near-term window) around one
        // 10 ns out: the near one fires first, the far ones in insertion
        // order.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(50);
        q.schedule(far, "far");
        q.schedule(SimTime::from_nanos(10), "near");
        q.schedule(far, "far2");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far2"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn earlier_time_fires_first_whatever_the_schedule_order() {
        // An entry scheduled long in advance must still fire before one
        // scheduled later (in wall order) for a slightly later time.
        let mut q = EventQueue::new();
        let far = 20_000_000u64;
        q.schedule(SimTime::from_nanos(far + 5), "early-scheduled");
        q.schedule(SimTime::from_nanos(1), "first");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        q.schedule(SimTime::from_nanos(far + 10), "later");
        assert_eq!(q.pop().map(|(_, e)| e), Some("early-scheduled"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
    }

    #[test]
    fn schedule_before_the_front_becomes_the_front() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "a");
        assert_eq!(q.next_time(), Some(SimTime::from_millis(5)));
        // A schedule earlier than the current front must become the front.
        q.schedule(SimTime::from_millis(1), "late");
        assert_eq!(q.next_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
    }

    #[test]
    fn far_future_saturation_corner() {
        // Times at the very end of the representable range order like
        // any other, ties included.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "end");
        q.schedule(SimTime::from_nanos(u64::MAX - 1), "almost");
        q.schedule(SimTime::MAX, "end2");
        assert_eq!(q.pop().map(|(_, e)| e), Some("almost"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("end"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("end2"));
        assert!(q.pop().is_none());
        q.schedule(SimTime::from_millis(1), "again");
        assert_eq!(q.pop().map(|(_, e)| e), Some("again"));
    }

    #[test]
    fn restore_accepts_unbounded_seq_gap() {
        // A snapshot whose only entry sits billions of seqs behind
        // next_seq — the shape a multi-day run leaves when one standby
        // timer outlives ~2^40 fired events — must restore in memory
        // proportional to the entry count, not the gap.
        let mut w = SnapWriter::new();
        w.u64(1 << 40); // next_seq
        w.seq_len(1);
        SimTime::from_millis(5).encode(&mut w);
        w.u64(3); // live seq, gap of (1 << 40) - 4
        w.u32(99); // payload
        let payload = w.into_payload();
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut r = SnapReader::new(&payload);
        q.read_state(&mut r, |r| r.u32()).unwrap();
        r.finish().unwrap();
        assert_eq!(q.len(), 1);
        assert!(
            q.heap.capacity() < 16,
            "restore must not materialize the gap"
        );
        // Fresh seqs continue past the snapshot's counter, and the
        // restored entry still fires first.
        q.schedule(SimTime::from_millis(9), 1);
        assert_eq!(q.next_seq, (1 << 40) + 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), 99)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), 1)));
        assert!(q.pop().is_none());
    }
}
