//! A generic discrete-event queue.
//!
//! Events carry a payload of type `E` and fire in timestamp order. Ties are
//! broken by insertion order so simulations are fully deterministic.
//!
//! Two implementations share one API and one observable behavior:
//!
//! - [`EventQueue`] — the production kernel: a *calendar queue*. The near
//!   future is a ring of fixed-width time buckets (amortized O(1)
//!   schedule/pop); everything past the ring's horizon waits in a
//!   `BTreeMap` overflow tier keyed by `(time, seq)` so tie-breaks stay
//!   stable. Cancellation is O(1) and lazy: a per-sequence flag marks the
//!   entry dead and the physical record is discarded when the sweep
//!   reaches it ("tombstone"); resolved flags are compacted from the front
//!   as the oldest ids settle, and a long-lived straggler spills to a
//!   sparse set instead of pinning the dense window open.
//! - [`HeapQueue`] — the original `BinaryHeap` kernel, kept as the
//!   reference implementation. The differential harness
//!   (`tests/queue_equivalence.rs`) drives both with identical scripts and
//!   asserts identical `(time, id, payload)` streams, and `kernel_bench`
//!   measures the calendar queue's speedup against it.
//!
//! Both serialize through `powadapt-snap` with the *same* byte layout
//! (`next_seq`, then live entries sorted by `(time, seq)`), so snapshots
//! are interchangeable between implementations and across versions.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use powadapt_snap::{Codec, Restore, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Ids are unique within one [`EventQueue`] and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

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

/// log2 of the calendar bucket width in nanoseconds (65.536 µs): wide
/// enough that a typical device op (NAND read, interface transfer) and its
/// completion land within a few buckets, narrow enough that one bucket's
/// sort stays small at fleet event rates.
const BUCKET_BITS: u32 = 16;
/// Calendar bucket width in nanoseconds.
const BUCKET_W: u64 = 1 << BUCKET_BITS;
/// Number of buckets in the ring (must be a power of two). The ring spans
/// `BUCKET_COUNT * BUCKET_W` ≈ 16.8 ms of simulated time; timers beyond
/// that (standby wakes, HDD spin-ups, multi-second ticks) use the
/// overflow tier.
const BUCKET_COUNT: usize = 256;
/// Ring span in nanoseconds.
const SPAN: u64 = (BUCKET_COUNT as u64) << BUCKET_BITS;

/// Cancellation-flag states, indexed by `seq - flag_base`.
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const FIRED: u8 = 2;

/// Floor of the dense flag deque's spill threshold. One long-lived
/// pending event (a far-future standby wake, say) would otherwise pin
/// `flag_base` while millions of later seqs resolve, growing the deque
/// one byte per seq. Past `max(FLAG_SPILL_MIN, 8 * live_len)` the stuck
/// front is spilled into the sparse `old_live` set, so flag memory
/// tracks the *count* of outstanding events, never the seq span — while
/// a healthy queue, whose window is a small multiple of its live set,
/// never spills and never pays the `BTreeSet` lookup.
const FLAG_SPILL_MIN: usize = 1 << 16;

/// A time-ordered queue of simulation events (calendar-queue kernel).
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
    /// Entries with `at < active_end`, sorted *descending* by `(at, seq)`
    /// so the next event to fire is at the back (O(1) pop). Late
    /// schedules into the already-swept window binary-insert here.
    active: Vec<Entry<E>>,
    /// Ring of unsorted buckets covering `[active_end, active_end + SPAN)`;
    /// bucket index for time `t` is `(t >> BUCKET_BITS) % BUCKET_COUNT`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Exclusive upper bound (nanoseconds) of the swept window; always a
    /// multiple of `BUCKET_W` except in the saturated far-future corner
    /// where it is `u64::MAX`.
    active_end: u64,
    /// Entries with `at >= active_end + SPAN`, keyed `(at, seq)` so
    /// iteration order is exactly fire order.
    overflow: BTreeMap<(SimTime, u64), E>,
    /// Physical entries in `active` + `buckets` (live or tombstoned).
    near_phys: usize,
    /// Live (scheduled, not fired, not cancelled) entries.
    live_len: usize,
    /// Per-sequence state for seqs in `[flag_base, next_seq)`. Seqs
    /// below `flag_base` are resolved (fired or cancelled) unless listed
    /// in `old_live`. The front is compacted whenever the oldest
    /// outstanding seq resolves, and spilled into `old_live` when a
    /// long-lived entry would let the deque outgrow the spill threshold
    /// (see [`FLAG_SPILL_MIN`]).
    flags: VecDeque<u8>,
    flag_base: u64,
    /// Sparse tier: seqs below `flag_base` that are still live — spilled
    /// long-lived entries plus everything restored from a snapshot.
    /// Usually empty, so the O(log n) lookups never bite the hot path.
    old_live: BTreeSet<u64>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            active: Vec::new(),
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            active_end: 0,
            overflow: BTreeMap::new(),
            near_phys: 0,
            live_len: 0,
            flags: VecDeque::new(),
            flag_base: 0,
            old_live: BTreeSet::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns an id usable with
    /// [`EventQueue::cancel`].
    // powadapt-lint: hot
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        // powadapt-lint: allow(d9, reason = "amortized: the flag window is recycled and spilled once it outgrows the live set")
        self.flags.push_back(LIVE);
        if self.flags.len() > FLAG_SPILL_MIN.max(self.live_len * 8) {
            self.spill_flags();
        }
        self.live_len += 1;
        self.place(Entry { at, seq, payload });
        EventId(seq)
    }

    /// Routes a physical entry to the tier its timestamp belongs to.
    // powadapt-lint: hot
    fn place(&mut self, e: Entry<E>) {
        let t = e.at.as_nanos();
        if t < self.active_end {
            // The sweep already passed this window: keep `active` sorted
            // descending so the earliest entry stays at the back. Equal
            // timestamps sort by seq, preserving insertion-order ties.
            let key = (e.at, e.seq);
            let idx = self.active.partition_point(|x| (x.at, x.seq) > key);
            // powadapt-lint: allow(d9, reason = "late schedules into the swept window are rare; the insert is bounded by the active window")
            self.active.insert(idx, e);
            self.near_phys += 1;
        } else if t < self.active_end.saturating_add(SPAN) {
            let idx = ((t >> BUCKET_BITS) as usize) & (BUCKET_COUNT - 1);
            // powadapt-lint: allow(d9, reason = "amortized: bucket storage is recycled across ring revolutions")
            self.buckets[idx].push(e);
            self.near_phys += 1;
        } else {
            // powadapt-lint: allow(d9, reason = "far-future timers take the overflow tree, off the per-event fast path")
            self.overflow.insert((e.at, e.seq), e.payload);
        }
    }

    fn flag(&self, seq: u64) -> u8 {
        if seq < self.flag_base {
            // Below the dense window: resolved long ago and compacted
            // away — unless it was spilled or restored into the sparse
            // tier while still pending.
            if self.old_live.contains(&seq) {
                LIVE
            } else {
                CANCELLED
            }
        } else {
            self.flags[(seq - self.flag_base) as usize]
        }
    }

    fn set_flag(&mut self, seq: u64, state: u8) {
        debug_assert_ne!(state, LIVE, "entries only ever resolve here");
        if seq < self.flag_base {
            self.old_live.remove(&seq);
            return;
        }
        let i = (seq - self.flag_base) as usize;
        self.flags[i] = state;
        if i == 0 {
            self.compact_flags();
        }
    }

    /// Advances `flag_base` past resolved entries — the "tombstone
    /// compaction" that keeps the flag window proportional to the number
    /// of outstanding events rather than the total ever scheduled.
    fn compact_flags(&mut self) {
        while let Some(&f) = self.flags.front() {
            if f == LIVE {
                break;
            }
            self.flags.pop_front();
            self.flag_base += 1;
        }
    }

    /// The dense deque outgrew its threshold because its front is stuck
    /// on a long-lived entry: move the oldest seqs into the sparse tier
    /// until the deque is back under it. Each spilled seq is handled
    /// once, so schedule stays amortized O(1); the `BTreeSet` only ever
    /// holds the (rare) long-lived stragglers.
    // powadapt-lint: hot
    fn spill_flags(&mut self) {
        let target = FLAG_SPILL_MIN.max(self.live_len * 8);
        while self.flags.len() > target {
            let Some(f) = self.flags.pop_front() else {
                return;
            };
            if f == LIVE {
                // powadapt-lint: allow(d9, reason = "spill cost is amortized over the events that grew the flag window")
                self.old_live.insert(self.flag_base);
            }
            self.flag_base += 1;
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    /// Cancellation is O(1) and lazy: the entry is only marked dead here
    /// and is physically discarded when the sweep reaches it.
    // powadapt-lint: hot
    pub fn cancel(&mut self, id: EventId) -> bool {
        let seq = id.0;
        if seq >= self.next_seq || self.flag(seq) != LIVE {
            return false;
        }
        self.set_flag(seq, CANCELLED);
        self.live_len -= 1;
        // Overflow entries can be reclaimed eagerly at O(log n) only by
        // key — which we don't know here. They are dropped when the
        // window sweeps over them, like near-tier tombstones.
        true
    }

    /// Cancels a batch of events, returning how many were still live.
    ///
    /// Equivalent to calling [`EventQueue::cancel`] per id; each
    /// cancellation is O(1), so cancel-heavy paths (retry timers, idle
    /// timers) pay no per-event ordering cost.
    // powadapt-lint: hot
    pub fn cancel_many<I>(&mut self, ids: I) -> usize
    where
        I: IntoIterator<Item = EventId>,
    {
        ids.into_iter().filter(|&id| self.cancel(id)).count()
    }

    /// Timestamp of the next live event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.ensure_front() {
            self.active.last().map(|e| e.at)
        } else {
            None
        }
    }

    /// Removes and returns the next live event as `(time, payload)`.
    // powadapt-lint: hot
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.ensure_front() {
            return None;
        }
        let e = self.active.pop()?;
        self.near_phys -= 1;
        self.live_len -= 1;
        self.set_flag(e.seq, FIRED);
        Some((e.at, e.payload))
    }

    /// Removes and returns the next live event only if it fires at or before
    /// `t`.
    // powadapt-lint: hot
    pub fn pop_at_or_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        match self.next_time() {
            Some(at) if at <= t => self.pop(),
            _ => None,
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live_len
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live_len == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.active.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.active_end = 0;
        self.near_phys = 0;
        self.live_len = 0;
        self.flags.clear();
        self.old_live.clear();
        self.flag_base = self.next_seq;
    }

    /// Makes the next live event (if any) the back element of `active`.
    /// Returns `false` iff no live events remain.
    // powadapt-lint: hot
    fn ensure_front(&mut self) -> bool {
        if self.live_len == 0 {
            return false;
        }
        loop {
            // Drop tombstones off the back of the sorted window.
            while let Some(e) = self.active.last() {
                if self.flag(e.seq) == LIVE {
                    return true;
                }
                self.active.pop();
                self.near_phys -= 1;
            }
            if self.near_phys > 0 {
                // Some bucket within the ring is non-empty; sweep forward
                // one bucket width. The outer loop re-checks the counters
                // after each step, so a bucket holding only tombstones
                // cannot wedge the sweep.
                self.activate_next_bucket();
            } else if self.overflow.is_empty() {
                // live_len > 0 but nothing physical: unreachable by
                // construction (every live entry has a physical record).
                return false;
            } else {
                self.refill_from_overflow();
            }
        }
    }

    /// Activates the bucket starting at `active_end`: moves its live
    /// entries into `active` (sorted), advances the window, and migrates
    /// any overflow entries that now fall inside the ring into the freed
    /// bucket. The drain must happen *before* the migration — migrated
    /// entries belong to the freed bucket's next revolution, a full SPAN
    /// later, and must not ride along into `active` now.
    // powadapt-lint: hot
    fn activate_next_bucket(&mut self) {
        let idx = ((self.active_end >> BUCKET_BITS) as usize) & (BUCKET_COUNT - 1);
        {
            let EventQueue {
                active,
                buckets,
                near_phys,
                flags,
                flag_base,
                old_live,
                ..
            } = self;
            for e in buckets[idx].drain(..) {
                let live = if e.seq >= *flag_base {
                    flags[(e.seq - *flag_base) as usize] == LIVE
                } else {
                    old_live.contains(&e.seq)
                };
                if live {
                    active.push(e);
                } else {
                    *near_phys -= 1;
                }
            }
            // Descending, so the earliest (and lowest-seq) entry pops first.
            active.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        }
        // Saturating: near u64::MAX the window narrows instead of
        // wrapping; `refill_from_overflow` owns the saturated corner.
        self.active_end = self.active_end.saturating_add(BUCKET_W);
        // The freed bucket's window advanced by a full SPAN; pull the
        // overflow entries that now belong to it. They share `idx`
        // because the ring length is exactly SPAN.
        let limit = self.active_end.saturating_add(SPAN);
        self.migrate_overflow_below(limit);
    }

    /// Moves overflow entries with `at < limit` (nanoseconds) into their
    /// ring buckets.
    // powadapt-lint: hot
    fn migrate_overflow_below(&mut self, limit: u64) {
        let first_in = self
            .overflow
            .first_key_value()
            .is_some_and(|((at, _), _)| at.as_nanos() < limit);
        if !first_in {
            return;
        }
        let rest = self.overflow.split_off(&(SimTime::from_nanos(limit), 0));
        let movable = std::mem::replace(&mut self.overflow, rest);
        for ((at, seq), payload) in movable {
            let idx = ((at.as_nanos() >> BUCKET_BITS) as usize) & (BUCKET_COUNT - 1);
            // powadapt-lint: allow(d9, reason = "overflow migration recycles bucket storage; amortized over a full SPAN")
            self.buckets[idx].push(Entry { at, seq, payload });
            self.near_phys += 1;
        }
    }

    /// The near tier is physically empty: jump the window forward to the
    /// first overflow entry instead of sweeping empty buckets.
    // powadapt-lint: hot
    fn refill_from_overflow(&mut self) {
        let Some((&(at, _), _)) = self.overflow.first_key_value() else {
            return;
        };
        let base = (at.as_nanos() >> BUCKET_BITS) << BUCKET_BITS;
        if base.saturating_add(SPAN) == u64::MAX {
            // Far-future corner (times near u64::MAX): bucket arithmetic
            // would saturate, so serve the remaining entries straight from
            // the sorted overflow via `active`. Entries at exactly
            // `active_end == u64::MAX` may then sit in `active`; the sort
            // keeps their order correct.
            self.active_end = u64::MAX;
            let movable = std::mem::take(&mut self.overflow);
            for ((at, seq), payload) in movable {
                // powadapt-lint: allow(d9, reason = "far-future corner: remaining entries are served once from the sorted overflow")
                self.active.push(Entry { at, seq, payload });
                self.near_phys += 1;
            }
            self.active
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        } else {
            self.active_end = base;
            self.migrate_overflow_below(base.saturating_add(SPAN));
        }
    }

    /// Serializes the queue's live entries and sequence counter. The
    /// payload codec is supplied by the caller because `E` is theirs.
    ///
    /// The calendar layout (which bucket or tier an entry sits in, how far
    /// the sweep has advanced) is an implementation detail, so entries are
    /// emitted sorted by `(at, seq)` — the queue's own pop order — making
    /// the byte stream deterministic and identical to what the original
    /// heap kernel wrote. Cancelled entries are dropped here: lazy
    /// cancellation is an optimization, not observable state. `next_seq`
    /// is preserved exactly so event ids never collide across a restore.
    ///
    /// # Errors
    ///
    /// Propagates errors from the payload codec.
    pub fn write_state<F>(
        &self,
        w: &mut powadapt_snap::SnapWriter,
        mut item: F,
    ) -> Result<(), powadapt_snap::SnapError>
    where
        F: FnMut(&mut powadapt_snap::SnapWriter, &E) -> Result<(), powadapt_snap::SnapError>,
    {
        // The sweep cursor, occupancy counter, and flag window are layout,
        // not state: restore rebuilds them from the live entries.
        let Self {
            active,
            buckets,
            active_end: _,
            overflow,
            near_phys: _,
            live_len,
            flags: _,
            flag_base: _,
            old_live: _,
            next_seq,
        } = self;
        w.u64(*next_seq);
        let mut live: Vec<(SimTime, u64, &E)> = Vec::with_capacity(*live_len);
        for e in active.iter().chain(buckets.iter().flatten()) {
            if self.flag(e.seq) == LIVE {
                live.push((e.at, e.seq, &e.payload));
            }
        }
        for (&(at, seq), payload) in overflow {
            if self.flag(seq) == LIVE {
                live.push((at, seq, payload));
            }
        }
        live.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
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
    /// number (and therefore every tie-break) exactly.
    ///
    /// The restored flag state is sparse — live seqs go straight into
    /// the `old_live` tier, never a per-seq dense window — so any
    /// `next_seq`-to-oldest-live gap a legitimate `write_state` can
    /// produce (e.g. one far-future timer outliving millions of resolved
    /// events) restores in memory proportional to the live count.
    ///
    /// # Errors
    ///
    /// [`SnapError::InvalidValue`](powadapt_snap::SnapError::InvalidValue)
    /// on duplicate or out-of-range sequence numbers, or any error from
    /// the payload codec.
    pub fn read_state<F>(
        &mut self,
        r: &mut powadapt_snap::SnapReader<'_>,
        mut item: F,
    ) -> Result<(), powadapt_snap::SnapError>
    where
        F: FnMut(&mut powadapt_snap::SnapReader<'_>) -> Result<E, powadapt_snap::SnapError>,
    {
        // Every field is rebuilt below, from `clear` up.
        let Self {
            active: _,
            buckets: _,
            active_end: _,
            overflow: _,
            near_phys: _,
            live_len: _,
            flags: _,
            flag_base: _,
            old_live: _,
            next_seq: _,
        } = self;
        let next_seq = r.u64()?;
        let n = r.seq_len()?;
        let mut entries: Vec<(SimTime, u64)> = Vec::with_capacity(n);
        let mut payloads: Vec<E> = Vec::with_capacity(n);
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..n {
            let at = SimTime::decode(r)?;
            let seq = r.u64()?;
            if seq >= next_seq {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "event seq {seq} not below next_seq {next_seq}"
                )));
            }
            if !seen.insert(seq) {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "duplicate event seq {seq}"
                )));
            }
            entries.push((at, seq));
            payloads.push(item(r)?);
        }
        self.clear();
        self.next_seq = next_seq;
        // Seqs below next_seq that are not in the snapshot were resolved
        // before it was taken; the recorded ones come back live through
        // the sparse tier, so restore memory never depends on the seq
        // gap a long-lived pending event leaves behind.
        self.flag_base = next_seq;
        self.old_live = seen;
        self.live_len = entries.len();
        for ((at, seq), payload) in entries.into_iter().zip(payloads) {
            self.place(Entry { at, seq, payload });
        }
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

/// Restores in place: the queue keeps its bucket allocations.
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

/// The original `BinaryHeap`-based event queue, kept as the reference
/// kernel for the differential harness and the `kernel_bench` baseline.
///
/// Behavior is identical to [`EventQueue`] — same API, same `(time,
/// insertion-order)` total order, same snapshot byte layout — but
/// `schedule`/`pop` are O(log n) and `cancel` pays two `BTreeSet`
/// operations.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    cancelled: BTreeSet<u64>,
    /// Seqs scheduled but not yet fired or cancelled.
    live: BTreeSet<u64>,
    next_seq: u64,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            live: BTreeSet::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns an id usable with
    /// [`HeapQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.live.insert(seq);
        EventId(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    /// Cancellation is lazy: the entry is skipped when it reaches the front.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.live.remove(&id.0) {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Timestamp of the next live event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Removes and returns the next live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        self.heap.pop().map(|e| {
            self.live.remove(&e.seq);
            (e.at, e.payload)
        })
    }

    /// Removes and returns the next live event only if it fires at or before
    /// `t`.
    pub fn pop_at_or_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        match self.next_time() {
            Some(at) if at <= t => self.pop(),
            _ => None,
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.live.clear();
    }

    fn skip_cancelled(&mut self) {
        while let Some(e) = self.heap.peek() {
            if self.cancelled.remove(&e.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Serializes the queue exactly like [`EventQueue::write_state`]:
    /// `next_seq`, then live entries sorted by `(at, seq)`.
    ///
    /// # Errors
    ///
    /// Propagates errors from the payload codec.
    pub fn write_state<F>(
        &self,
        w: &mut powadapt_snap::SnapWriter,
        mut item: F,
    ) -> Result<(), powadapt_snap::SnapError>
    where
        F: FnMut(&mut powadapt_snap::SnapWriter, &E) -> Result<(), powadapt_snap::SnapError>,
    {
        let Self {
            heap,
            cancelled,
            live: _,
            next_seq,
        } = self;
        w.u64(*next_seq);
        let mut live: Vec<&Entry<E>> = heap
            .iter()
            .filter(|e| !cancelled.contains(&e.seq))
            .collect();
        live.sort_by_key(|e| (e.at, e.seq));
        w.seq_len(live.len());
        for e in live {
            e.at.encode(w);
            w.u64(e.seq);
            item(w, &e.payload)?;
        }
        Ok(())
    }

    /// Restores state written by [`HeapQueue::write_state`] (or
    /// [`EventQueue::write_state`] — the formats are identical).
    ///
    /// # Errors
    ///
    /// [`SnapError::InvalidValue`](powadapt_snap::SnapError::InvalidValue)
    /// on duplicate or out-of-range sequence numbers, or any error from
    /// the payload codec.
    pub fn read_state<F>(
        &mut self,
        r: &mut powadapt_snap::SnapReader<'_>,
        mut item: F,
    ) -> Result<(), powadapt_snap::SnapError>
    where
        F: FnMut(&mut powadapt_snap::SnapReader<'_>) -> Result<E, powadapt_snap::SnapError>,
    {
        let Self {
            heap,
            cancelled,
            live,
            next_seq: _,
        } = self;
        heap.clear();
        cancelled.clear();
        live.clear();
        let next_seq = r.u64()?;
        let n = r.seq_len()?;
        for _ in 0..n {
            let at = SimTime::decode(r)?;
            let seq = r.u64()?;
            if seq >= next_seq {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "event seq {seq} not below next_seq {next_seq}"
                )));
            }
            let payload = item(r)?;
            if !self.live.insert(seq) {
                return Err(powadapt_snap::SnapError::InvalidValue(format!(
                    "duplicate event seq {seq}"
                )));
            }
            self.heap.push(Entry { at, seq, payload });
        }
        self.next_seq = next_seq;
        Ok(())
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    // `SnapReader::u32` as a fn path can't satisfy the codec's HRTB
    // (the reader lifetime must stay universally quantified), so the
    // closure clippy calls redundant is in fact required.
    #![allow(clippy::redundant_closure_for_method_calls)]

    use super::*;
    use crate::time::SimDuration;

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
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        let b = q.schedule(SimTime::from_millis(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(!q.cancel(b), "cancel after fire reports false");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        let id = q.schedule(SimTime::ZERO, ());
        q.pop();
        // An id from a different (imaginary) queue position.
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_many_counts_live_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..8u32)
            .map(|i| q.schedule(SimTime::from_millis(u64::from(i)), i))
            .collect();
        assert!(q.cancel(ids[3]));
        q.pop();
        assert_eq!(q.cancel_many(ids.iter().copied()), 6);
        assert!(q.is_empty());
    }

    #[test]
    fn next_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(5), "b");
        q.cancel(a);
        assert_eq!(q.next_time(), Some(SimTime::from_millis(5)));
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
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_clear_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), 1u32);
        q.clear();
        assert!(!q.cancel(id));
        // Ids allocated after the clear still cancel normally.
        let id2 = q.schedule(SimTime::from_millis(2), 2u32);
        assert!(q.cancel(id2));
    }

    #[test]
    fn overflow_tier_preserves_order_across_the_horizon() {
        // Entries far beyond the ring span exercise the overflow tier and
        // the window jump; interleave near and far schedules.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos(3 * SPAN);
        q.schedule(far, "far");
        q.schedule(SimTime::from_nanos(10), "near");
        q.schedule(far, "far2");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // After the jump the two far entries keep insertion order.
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far2"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_entry_fires_before_later_near_entry() {
        // Regression for the window-migration invariant: an entry parked
        // in overflow must still fire before a near-tier entry scheduled
        // later (in wall order) but with a later timestamp.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(SPAN + 5), "overflowed");
        // Drain a near entry so the window sweeps forward.
        q.schedule(SimTime::from_nanos(1), "first");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        // Now the horizon has moved; this lands in a ring bucket even
        // though it fires *after* the overflowed entry.
        q.schedule(SimTime::from_nanos(SPAN + 10), "later");
        assert_eq!(q.pop().map(|(_, e)| e), Some("overflowed"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
    }

    #[test]
    fn schedule_into_swept_window_still_fires_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "a");
        assert_eq!(q.next_time(), Some(SimTime::from_millis(5)));
        // The sweep has passed t=1; a late schedule there must still fire
        // first.
        q.schedule(SimTime::from_millis(1), "late");
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
    }

    #[test]
    fn far_future_saturation_corner() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "end");
        q.schedule(SimTime::from_nanos(u64::MAX - 1), "almost");
        q.schedule(SimTime::MAX, "end2");
        assert_eq!(q.pop().map(|(_, e)| e), Some("almost"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("end"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("end2"));
        assert!(q.pop().is_none());
        // The queue keeps working after the saturated window.
        q.schedule(SimTime::from_millis(1), "again");
        assert_eq!(q.pop().map(|(_, e)| e), Some("again"));
    }

    #[test]
    fn tombstone_compaction_bounds_flag_window() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let id = q.schedule(SimTime::from_micros(round), round);
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                q.pop();
            }
        }
        assert!(q.is_empty());
        // Every seq resolved in order, so the flag window is empty and
        // fully compacted.
        assert_eq!(q.flags.len(), 0);
        assert_eq!(q.flag_base, q.next_seq);
    }

    #[test]
    fn long_lived_event_spills_flags_instead_of_growing() {
        // One far-future timer pins the oldest live seq while far more
        // events than the dense flag cap resolve behind it: the deque
        // must spill to the sparse tier, not grow one byte per seq.
        let mut q: EventQueue<u32> = EventQueue::new();
        let far_t = SimTime::from_nanos(100 * SPAN);
        let far = q.schedule(far_t, u32::MAX);
        for i in 0..(FLAG_SPILL_MIN as u64 + 1_000) {
            q.schedule(SimTime::from_nanos(i + 1), 0u32);
            assert_eq!(q.pop(), Some((SimTime::from_nanos(i + 1), 0)));
        }
        assert!(
            q.flags.len() <= FLAG_SPILL_MIN,
            "dense flag window grew past the spill cap: {}",
            q.flags.len()
        );
        assert_eq!(q.old_live.len(), 1, "only the straggler is spilled");
        assert_eq!(q.len(), 1);

        // A spilled queue snapshots and restores like any other.
        let mut w = powadapt_snap::SnapWriter::new();
        q.write_state(&mut w, |w, &e| {
            w.u32(e);
            Ok(())
        })
        .unwrap();
        let payload = w.into_payload();
        let mut restored: EventQueue<u32> = EventQueue::new();
        let mut r = powadapt_snap::SnapReader::new(&payload);
        restored.read_state(&mut r, |r| r.u32()).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.pop(), Some((far_t, u32::MAX)));
        assert!(restored.pop().is_none());

        // Cancel semantics survive the spill: once live, then resolved.
        assert!(q.cancel(far));
        assert!(!q.cancel(far));
        assert!(q.pop().is_none());
    }

    #[test]
    fn restore_accepts_unbounded_seq_gap() {
        // A snapshot whose only live entry sits billions of seqs behind
        // next_seq — the shape a multi-day run leaves when one standby
        // timer outlives ~2^40 resolved events — must restore in memory
        // proportional to the live count, not the gap.
        let mut w = powadapt_snap::SnapWriter::new();
        w.u64(1 << 40); // next_seq
        w.seq_len(1);
        SimTime::from_millis(5).encode(&mut w);
        w.u64(3); // live seq, gap of (1 << 40) - 4
        w.u32(99); // payload
        let payload = w.into_payload();
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut r = powadapt_snap::SnapReader::new(&payload);
        q.read_state(&mut r, |r| r.u32()).unwrap();
        r.finish().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.flags.len(), 0, "restore must not materialize the gap");
        // Fresh ids continue past the snapshot's counter, and the
        // restored entry still fires (and cancels) normally.
        let id = q.schedule(SimTime::from_millis(9), 1);
        assert_eq!(id, EventId(1 << 40));
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), 99)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(9), 1)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn heap_queue_matches_on_basics() {
        let mut q = HeapQueue::new();
        q.schedule(SimTime::from_millis(3), 3u32);
        let id = q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(2), 2u32);
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![2, 3]);
    }
}
