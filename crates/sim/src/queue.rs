//! A generic discrete-event queue.
//!
//! Events carry a payload of type `E` and fire in timestamp order. Ties are
//! broken by insertion order so simulations are fully deterministic: every
//! entry carries a sequence number, and the queue pops in `(time, seq)`
//! order.
//!
//! The layout follows the traffic. A device model keeps a few dozen events
//! pending (its in-flight commands plus a handful of timers), and most of
//! them are scheduled a fixed delay after the current time: every die read
//! waits `read_op`, every full program unit `program_op`, every commit
//! `read_post` or `write_commit`, and the controller and host interface
//! each have at most one event pending. Within such a class, events already
//! arrive in time order. So beside an O(log n) binary heap the queue keeps
//! [`EventQueue::LANES`] FIFO lanes. [`EventQueue::schedule_on_lane`]
//! appends to a lane when the new event is not earlier than the lane's
//! tail, which costs no sift, and falls back to the heap otherwise, so the
//! pop order never depends on the caller's hint. On perfbench's seed-42
//! workloads 98 % (`figures`), 95 % (`failover`) and 93 % (`placement`)
//! of all device events take a lane; the rest are timers and the few
//! events that land out of order.
//!
//! The queue caches each lane's front and the heap's top as packed
//! `(time, seq)` integers, plus the index of the least, so
//! [`EventQueue::next_time`] reads one integer and a pop takes from one
//! source and rescans the six cached integers. The heap and the lanes hold
//! the same 24-byte `(time, seq, slot)` keys; each payload sits in one
//! [`Slab`] beside them, under its key's slot, so a sift moves three words
//! however large the payload is, and the payloads of every source share
//! one arena sized by the peak of all pending events together.
//!
//! The queue serializes through `powadapt-snap` as `next_seq`, then the
//! live entries sorted by `(time, seq)`, so the bytes depend only on the
//! queue's logical state, never on which lane or heap position holds an
//! entry or on which slots the payloads occupy. A restore puts every entry
//! on the heap.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use powadapt_snap::{Codec, Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::slab::Slab;
use crate::time::SimTime;

/// Number of FIFO lanes beside the heap.
const LANES: usize = 5;

/// The cache slot of the heap's top, after the lanes' fronts.
const HEAP: usize = LANES;

/// The cached key of an empty source. It sorts after every live entry: a
/// live seq is below `next_seq`, so it is never `u64::MAX`.
const EMPTY: u128 = u128::MAX;

/// A heap or lane entry: when and in which order an event fires, and the
/// slot of its payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: usize,
}

impl Key {
    /// `(at, seq)` packed into one integer whose order is the pop order.
    fn packed(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, for ties,
        // first-inserted) entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pending events: a heap of keys, the FIFO lanes of keys beside it,
/// and the payloads they name. Every key's slot is occupied in
/// `payloads`, and every occupied slot has exactly one key in the heap or
/// a lane. Each lane is ascending by `(at, seq)`, and `fronts` holds each
/// lane's first key and the heap's top, packed (`EMPTY` for an empty
/// source), with `least` the index of the smallest.
#[derive(Debug)]
struct KeyedHeap<E> {
    keys: BinaryHeap<Key>,
    payloads: Slab<E>,
    lanes: [VecDeque<Key>; LANES],
    fronts: [u128; LANES + 1],
    least: usize,
}

impl<E> KeyedHeap<E> {
    fn new() -> Self {
        KeyedHeap {
            keys: BinaryHeap::new(),
            payloads: Slab::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            fronts: [EMPTY; LANES + 1],
            least: HEAP,
        }
    }

    /// Makes `key` the cached front of `source` if it is earlier than the
    /// one there.
    fn offer_front(&mut self, source: usize, key: u128) {
        if key < self.fronts[source] {
            self.fronts[source] = key;
            if key < self.fronts[self.least] {
                self.least = source;
            }
        }
    }

    /// Stores `payload` and returns the key that names it.
    fn key(&mut self, at: SimTime, seq: u64, payload: E) -> Key {
        let slot = self.payloads.insert(payload);
        Key { at, seq, slot }
    }

    fn push(&mut self, key: Key) {
        self.keys.push(key);
        self.offer_front(HEAP, key.packed());
    }

    /// Appends to `lane` if `key` is not before its tail; otherwise, or if
    /// there is no such lane, pushes onto the heap.
    fn push_lane(&mut self, lane: usize, key: Key) {
        let packed = key.packed();
        match self.lanes.get_mut(lane) {
            Some(q) if q.back().is_none_or(|tail| tail.packed() < packed) => q.push_back(key),
            _ => return self.push(key),
        }
        self.offer_front(lane, packed);
    }

    fn peek_time(&self) -> Option<SimTime> {
        let key = self.fronts[self.least];
        (key != EMPTY).then(|| SimTime::from_nanos((key >> 64) as u64))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let source = self.least;
        let key = if source == HEAP {
            let key = self.keys.pop()?;
            self.fronts[HEAP] = self.keys.peek().map_or(EMPTY, Key::packed);
            key
        } else {
            let lane = &mut self.lanes[source];
            let key = lane.pop_front()?;
            self.fronts[source] = lane.front().map_or(EMPTY, Key::packed);
            key
        };
        self.least = least_of(&self.fronts);
        let payload = self
            .payloads
            .remove(key.slot)
            .expect("every key names an occupied payload slot");
        Some((key.at, payload))
    }

    fn len(&self) -> usize {
        self.payloads.len()
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.payloads.clear();
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.fronts = [EMPTY; LANES + 1];
        self.least = HEAP;
    }

    /// The live entries as `(at, seq, payload)`, in pop order.
    fn sorted(&self) -> Vec<(SimTime, u64, &E)> {
        let mut live: Vec<(SimTime, u64, &E)> = self
            .keys
            .iter()
            .chain(self.lanes.iter().flatten())
            .map(|k| {
                let payload = self
                    .payloads
                    .get(k.slot)
                    .expect("every key names an occupied payload slot");
                (k.at, k.seq, payload)
            })
            .collect();
        live.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        live
    }
}

/// The index of the smallest cached front (the first one on a tie, which
/// only empty sources share).
fn least_of(fronts: &[u128; LANES + 1]) -> usize {
    let mut least = 0;
    for (i, &key) in fronts.iter().enumerate().skip(1) {
        if key < fronts[least] {
            least = i;
        }
    }
    least
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
    /// The pending events, keys and payloads.
    heap: KeyedHeap<E>,
    /// Sequence number of the next scheduled event: the FIFO tie-break
    /// among events at the same time.
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: KeyedHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of FIFO lanes [`EventQueue::schedule_on_lane`] accepts.
    pub const LANES: usize = LANES;

    /// Schedules `payload` to fire at `at`, after every event already
    /// scheduled for the same time.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let key = self.key(at, payload);
        self.heap.push(key);
    }

    /// Schedules like [`EventQueue::schedule`], on FIFO lane `lane` when
    /// `at` is not before that lane's last event. An event that would
    /// break the lane's order, or names no lane below
    /// [`EventQueue::LANES`], goes onto the heap, so the pop order is the
    /// same whichever lane a caller names. A lane pays off for a class of
    /// events scheduled a fixed delay ahead: they arrive in time order.
    ///
    /// # Examples
    ///
    /// ```
    /// use powadapt_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_on_lane(0, SimTime::from_millis(5), "lane");
    /// q.schedule_on_lane(0, SimTime::from_millis(2), "falls back to the heap");
    /// q.schedule(SimTime::from_millis(5), "heap, after the lane's tie");
    /// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
    /// assert_eq!(order, ["falls back to the heap", "lane", "heap, after the lane's tie"]);
    /// ```
    pub fn schedule_on_lane(&mut self, lane: usize, at: SimTime, payload: E) {
        let key = self.key(at, payload);
        self.heap.push_lane(lane, key);
    }

    /// Stores `payload` under a key with the next sequence number.
    fn key(&mut self, at: SimTime, payload: E) -> Key {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.key(at, seq, payload)
    }

    /// Timestamp of the next event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek_time()
    }

    /// Removes and returns the next event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop()
    }

    /// Removes and returns the next event only if it fires at or before
    /// `t`.
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
        self.heap.len() == 0
    }

    /// Serializes the queue's pending entries and sequence counter. The
    /// payload codec is supplied by the caller because `E` is theirs.
    ///
    /// Entries are emitted sorted by `(at, seq)` — the queue's own pop
    /// order — so the byte stream does not depend on the heap's internal
    /// arrangement or on which entries sit on lanes. `next_seq` is
    /// preserved exactly so tie-breaks never collide across a restore.
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
        let live = heap.sorted();
        w.seq_len(live.len());
        for (at, seq, payload) in live {
            at.encode(w);
            w.u64(seq);
            item(w, payload)?;
        }
        Ok(())
    }

    /// Replaces the queue's contents with entries from a snapshot written
    /// by [`EventQueue::write_state`], preserving each entry's sequence
    /// number (and therefore every tie-break) exactly. Every restored
    /// entry goes onto the heap; lanes fill again as events are
    /// scheduled. Memory is proportional to the entry count, however far
    /// the recorded seqs sit below `next_seq`.
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
        let mut entries: Vec<(SimTime, u64, E)> = Vec::with_capacity(n);
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
            entries.push((at, seq, item(r)?));
        }
        // Every field is rebuilt here.
        let Self {
            heap,
            next_seq: counter,
        } = self;
        heap.clear();
        for (at, seq, payload) in entries {
            let key = heap.key(at, seq, payload);
            heap.push(key);
        }
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
            q.heap.keys.capacity() < 16 && q.heap.payloads.len() == 1,
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
