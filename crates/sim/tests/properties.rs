//! Property-based tests for the simulation kernel.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]
#![allow(
    clippy::redundant_closure_for_method_calls,
    reason = "`SnapReader::u32` as a fn path is monomorphic in the reader's lifetime and fails the higher-ranked `FnMut` bound that the closure `|r| r.u32()` satisfies"
)]

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use powadapt_sim::{EventQueue, RollingMean, SimDuration, SimRng, SimTime, StepSignal, Summary};
use powadapt_snap::{Codec, SnapError, SnapReader, SnapWriter};

/// Reference model of [`EventQueue`]: every pending `(at, seq, payload)`
/// in a `Vec` kept sorted by `(at, seq)`, so the next event is the first.
#[derive(Clone, Default)]
struct Model {
    pending: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u32) {
        let key = (at, self.next_seq);
        let i = self.pending.partition_point(|&(a, s, _)| (a, s) < key);
        self.pending.insert(i, (at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn next_time(&self) -> Option<SimTime> {
        self.pending.first().map(|e| e.0)
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        if self.pending.is_empty() {
            return None;
        }
        let (at, _, payload) = self.pending.remove(0);
        Some((at, payload))
    }

    fn pop_at_or_before(&mut self, t: SimTime) -> Option<(SimTime, u32)> {
        match self.next_time() {
            Some(at) if at <= t => self.pop(),
            _ => None,
        }
    }

    /// The snapshot bytes the queue must write for this state.
    fn snapshot(&self) -> Vec<u8> {
        let entries: Vec<(u64, u64, u32)> = self
            .pending
            .iter()
            .map(|&(at, seq, payload)| (at.as_nanos(), seq, payload))
            .collect();
        raw_snapshot(self.next_seq, &entries)
    }
}

/// The queue under test and its model, driven in lockstep.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u32>,
    model: Model,
}

impl Pair {
    /// Schedules at `t` with a payload drawn from the op's spare high
    /// bits, so payload order says nothing about insertion order.
    fn schedule(&mut self, t: u64, raw: u64) {
        let at = SimTime::from_nanos(t);
        let payload = (raw >> 48) as u32;
        self.queue.schedule(at, payload);
        self.model.schedule(at, payload);
    }

    /// Applies one op, decoded from a `(selector, raw)` pair so scripts
    /// stay flat data.
    fn apply(&mut self, sel: u8, raw: u64) -> Result<(), TestCaseError> {
        match sel {
            // Near future: within a few tens of milliseconds.
            0..=2 => self.schedule(raw % 50_000_000, raw),
            // Same-time bursts: a few distinct instants, so FIFO
            // tie-breaks through the seq decide the order.
            3 => self.schedule((raw % 8) * 1_000, raw),
            // Far future: seconds to hours away.
            4 => self.schedule(1_000_000_000 + raw % (1 << 43), raw),
            // The end of the representable range, `SimTime::MAX` included.
            5 => self.schedule(u64::MAX - raw % 4, raw),
            6..=8 => prop_assert_eq!(self.queue.pop(), self.model.pop(), "pop"),
            9 => {
                let t = SimTime::from_nanos(raw % 100_000_000);
                prop_assert_eq!(
                    self.queue.pop_at_or_before(t),
                    self.model.pop_at_or_before(t),
                    "pop_at_or_before({})",
                    t
                );
            }
            _ => {
                prop_assert_eq!(self.queue.next_time(), self.model.next_time(), "next_time");
                prop_assert_eq!(self.queue.len(), self.model.pending.len(), "len");
                prop_assert_eq!(self.queue.is_empty(), self.model.pending.is_empty());
            }
        }
        Ok(())
    }

    fn run(&mut self, ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
        for &(sel, raw) in ops {
            self.apply(sel, raw)?;
        }
        Ok(())
    }

    /// Pops both dry, checking every step.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        loop {
            prop_assert_eq!(self.queue.next_time(), self.model.next_time());
            let popped = self.queue.pop();
            prop_assert_eq!(popped, self.model.pop(), "drain pop");
            if popped.is_none() {
                return Ok(());
            }
        }
    }
}

fn snap(q: &EventQueue<u32>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    q.write_state(&mut w, |w, p| {
        w.u32(*p);
        Ok(())
    })
    .unwrap();
    w.into_payload()
}

fn restore(bytes: &[u8]) -> Result<EventQueue<u32>, SnapError> {
    let mut q = EventQueue::new();
    let mut r = SnapReader::new(bytes);
    q.read_state(&mut r, |r| r.u32())?;
    r.finish()?;
    Ok(q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Any schedule/pop/probe script observed through the queue matches
    /// the sorted model op by op and on the final drain.
    #[test]
    fn event_queue_matches_sorted_vec_model(
        ops in prop::collection::vec((0u8..13, any::<u64>()), 0..200),
    ) {
        let mut pair = Pair::default();
        pair.run(&ops)?;
        pair.drain()?;
    }

    /// A snapshot→restore taken mid-script loses nothing: the restored
    /// queue, the original queue and the model agree on every remaining
    /// op and on the final drain.
    #[test]
    fn event_queue_snapshot_roundtrip_matches_model(
        pre in prop::collection::vec((0u8..13, any::<u64>()), 0..100),
        post in prop::collection::vec((0u8..13, any::<u64>()), 0..100),
    ) {
        let mut pair = Pair::default();
        pair.run(&pre)?;
        let mut restored = Pair {
            queue: restore(&snap(&pair.queue)).unwrap(),
            model: pair.model.clone(),
        };
        pair.run(&post)?;
        restored.run(&post)?;
        pair.drain()?;
        restored.drain()?;
    }

    /// The snapshot bytes are the model's bytes at any point of a script,
    /// and a restored queue snapshots back to the bytes it came from.
    #[test]
    fn event_queue_snapshot_bytes_match_model(
        pre in prop::collection::vec((0u8..13, any::<u64>()), 0..100),
        post in prop::collection::vec((0u8..13, any::<u64>()), 0..100),
    ) {
        let mut pair = Pair::default();
        pair.run(&pre)?;
        let bytes = snap(&pair.queue);
        prop_assert_eq!(&bytes, &pair.model.snapshot(), "snapshot bytes");
        let mut restored = Pair {
            queue: restore(&bytes).unwrap(),
            model: pair.model.clone(),
        };
        prop_assert_eq!(&snap(&restored.queue), &bytes, "re-snapshot bytes drifted");
        restored.run(&post)?;
        prop_assert_eq!(snap(&restored.queue), restored.model.snapshot());
    }
}

proptest! {
    /// Events always pop in non-decreasing time order regardless of the
    /// insertion order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Events scheduled at identical times preserve insertion order (FIFO).
    #[test]
    fn event_queue_fifo_at_same_time(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_millis(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Integrating a step signal over adjacent windows is additive.
    #[test]
    fn signal_integration_is_additive(
        steps in prop::collection::vec((1u64..1_000_000, 0.0f64..100.0), 0..50),
        split in 0u64..2_000_000,
    ) {
        let mut sorted = steps.clone();
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let mut s = StepSignal::new(1.0);
        for &(t, v) in &sorted {
            s.step(SimTime::from_nanos(t), v);
        }
        let end = SimTime::from_nanos(2_000_000);
        let mid = SimTime::from_nanos(split.min(2_000_000));
        let whole = s.integrate(SimTime::ZERO, end);
        let parts = s.integrate(SimTime::ZERO, mid) + s.integrate(mid, end);
        prop_assert!((whole - parts).abs() < 1e-9 * whole.abs().max(1.0));
    }

    /// The trailing mean always lies within [min, max] of the step values
    /// seen so far.
    #[test]
    fn trailing_mean_is_bounded(
        steps in prop::collection::vec((1u64..1_000_000, 0.5f64..50.0), 1..40),
    ) {
        let mut sorted = steps.clone();
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let initial = 10.0;
        let mut s = StepSignal::new(initial);
        let mut lo = initial;
        let mut hi = initial;
        for &(t, v) in &sorted {
            s.step(SimTime::from_nanos(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let now = SimTime::from_nanos(1_500_000);
        let m = s.trailing_mean(now, SimDuration::from_millis(2));
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9, "mean {} outside [{}, {}]", m, lo, hi);
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::from_samples(&samples).unwrap();
        let mut last = s.min();
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p);
            prop_assert!(v + 1e-9 >= last, "percentile({}) = {} < {}", p, v, last);
            last = v;
        }
        prop_assert!(s.percentile(100.0) <= s.max() + 1e-9);
    }

    /// Violin bins always partition the full sample set.
    #[test]
    fn violin_bins_partition(
        samples in prop::collection::vec(0.0f64..100.0, 1..300),
        bins in 1usize..32,
    ) {
        let s = Summary::from_samples(&samples).unwrap();
        let (centers, counts) = s.violin_bins(bins);
        prop_assert_eq!(centers.len(), bins);
        prop_assert_eq!(counts.iter().sum::<usize>(), samples.len());
    }

    /// Child streams derived from (root seed, cell index) never collide for
    /// distinct indices — the determinism contract of the parallel sweep
    /// executor, which seeds each cell by its stable index.
    #[test]
    fn stream_seeds_never_collide_for_distinct_indices(
        root in any::<u64>(),
        a in 0u64..1_000_000_000,
        b in 0u64..1_000_000_000,
    ) {
        if a != b {
            prop_assert_ne!(SimRng::stream_seed(root, a), SimRng::stream_seed(root, b));
        }
        // And indices far apart in magnitude do not collide either.
        prop_assert_ne!(
            SimRng::stream_seed(root, a),
            SimRng::stream_seed(root, a.wrapping_add(1 << 40))
        );
    }

    /// Stream derivation is a pure function: the same (root, index) always
    /// yields the same generator, producing the same draws across calls.
    #[test]
    fn stream_rngs_are_reproducible_across_calls(
        root in any::<u64>(),
        index in any::<u64>(),
        draws in 1usize..64,
    ) {
        let a: Vec<u64> = {
            let mut r = SimRng::for_stream(root, index);
            (0..draws).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::for_stream(root, index);
            (0..draws).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(a, b);
    }

    /// Sibling streams are statistically independent: the first draws of
    /// adjacent cells share no more than coincidental equality.
    #[test]
    fn sibling_streams_diverge(root in any::<u64>(), index in 0u64..1_000_000) {
        let mut a = SimRng::for_stream(root, index);
        let mut b = SimRng::for_stream(root, index + 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(same < 4, "adjacent streams overlapped {} of 32 draws", same);
    }

    /// `stream_seed` is a bijection in the index for any fixed root: every
    /// contiguous window of indices below 2^20 maps to all-distinct seeds.
    /// (The exhaustive 2^20 sweep is pinned separately below.)
    #[test]
    fn stream_seed_windows_below_2_20_are_collision_free(
        root in any::<u64>(),
        base in 0u64..(1u64 << 20) - 4_096,
    ) {
        let mut seeds: Vec<u64> = (base..base + 4_096)
            .map(|i| SimRng::stream_seed(root, i))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), 4_096);
    }

    /// Roots are streams of streams: for a fixed index, distinct roots
    /// never share a seed either (derivation is bijective in the root too).
    #[test]
    fn stream_seed_is_injective_in_the_root(
        index in 0u64..(1u64 << 20),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        if a != b {
            prop_assert_ne!(SimRng::stream_seed(a, index), SimRng::stream_seed(b, index));
        }
    }

    /// `RollingMean` eviction agrees with the scanning reference exactly at
    /// window boundaries. Probing at `edge + window` puts the eviction
    /// cutoff exactly on a retained segment edge — the worst case for an
    /// off-by-one in the `end <= cutoff` drop condition. Probes stay
    /// monotone, as the rolling tracker requires.
    #[test]
    fn rolling_mean_matches_reference_at_exact_window_boundaries(
        window_us in 1u64..200,
        steps in prop::collection::vec((1u64..300, 0.0f64..50.0), 1..80),
    ) {
        let window = SimDuration::from_micros(window_us);
        let mut rm = RollingMean::new(window, 0.0);
        let mut sig = StepSignal::new(0.0);
        let mut t = 0u64;
        for &(dt, v) in &steps {
            let prev = t;
            t += dt;
            let at = SimTime::from_micros(t);
            rm.push(at, v);
            sig.step(at, v);
            // Cutoff exactly on the previous segment's end (when that probe
            // is not already behind the new step), then exactly on the new
            // segment's start.
            for edge in [prev, t] {
                if edge + window_us >= t {
                    let now = SimTime::from_micros(edge + window_us);
                    let a = rm.mean_at(now);
                    let b = sig.trailing_mean(now, window);
                    prop_assert!((a - b).abs() < 1e-9, "{} vs {} at {}", a, b, now);
                }
            }
        }
    }
}

/// Exhaustive bijectivity pin: all 2^20 indices of a root map to distinct
/// seeds. `stream_seed` finishes with a `mix64` of a value that is itself
/// injective in the index, so this holds over the whole `u64` domain; the
/// first 2^20 indices are what parallel sweeps actually consume.
#[test]
fn stream_seed_is_bijective_up_to_2_20() {
    for root in [0u64, 0x9e37_79b9_7f4a_7c15] {
        let mut seeds: Vec<u64> = (0..1u64 << 20)
            .map(|i| SimRng::stream_seed(root, i))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1 << 20, "seed collision under root {root:#x}");
    }
}

/// Pins the serialized layout: `next_seq`, entry count, then each entry
/// as `(time, seq, payload)` sorted by `(time, seq)` — whatever order it
/// was scheduled in. A layout change here breaks every committed
/// checkpoint, so this test spells the bytes out by hand.
#[test]
fn snapshot_byte_layout_is_pinned() {
    let mut q: EventQueue<u32> = EventQueue::new();
    let far = 3 << 24;
    q.schedule(SimTime::from_nanos(500), 7); // seq 0
    q.schedule(SimTime::from_nanos(200), 9); // seq 1
    q.schedule(SimTime::from_nanos(200), 11); // seq 2, ties with seq 1
    q.schedule(SimTime::from_nanos(far), 13); // seq 3

    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&4u64.to_le_bytes()); // next_seq
    expect.extend_from_slice(&4u64.to_le_bytes()); // entry count
    for (t, seq, payload) in [
        (200u64, 1u64, 9u32),
        (200, 2, 11),
        (500, 0, 7),
        (far, 3, 13),
    ] {
        expect.extend_from_slice(&t.to_le_bytes());
        expect.extend_from_slice(&seq.to_le_bytes());
        expect.extend_from_slice(&payload.to_le_bytes());
    }
    assert_eq!(snap(&q), expect, "snapshot bytes changed layout");
}

/// A hand-built snapshot: `next_seq`, then `(time_ns, seq, payload)`
/// entries.
fn raw_snapshot(next_seq: u64, entries: &[(u64, u64, u32)]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u64(next_seq);
    w.seq_len(entries.len());
    for &(t, seq, payload) in entries {
        SimTime::from_nanos(t).encode(&mut w);
        w.u64(seq);
        w.u32(payload);
    }
    w.into_payload()
}

#[test]
fn restore_rejects_duplicate_seq() {
    let bytes = raw_snapshot(5, &[(10, 2, 1), (20, 2, 2)]);
    assert!(matches!(restore(&bytes), Err(SnapError::InvalidValue(_))));
}

#[test]
fn restore_rejects_seq_at_or_past_next_seq() {
    for seq in [5, 6, u64::MAX] {
        let bytes = raw_snapshot(5, &[(10, 1, 1), (20, seq, 2)]);
        assert!(
            matches!(restore(&bytes), Err(SnapError::InvalidValue(_))),
            "seq {seq} with next_seq 5 was accepted"
        );
    }
    assert!(restore(&raw_snapshot(5, &[(10, 4, 1)])).is_ok());
}
