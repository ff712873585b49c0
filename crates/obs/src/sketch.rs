//! Mergeable log-bucket quantile sketches (DDSketch-style).
//!
//! The stored-sample histograms this module replaces kept every
//! observation for exact percentiles — O(n) memory and, worse,
//! non-mergeable: two histograms of the same stream sharded across
//! recorders could not be folded back together deterministically.
//! A [`Sketch`] fixes both properties at the cost of a bounded relative
//! error [`RELATIVE_ERROR`]:
//!
//! - **bucketing is pure bit manipulation** on the IEEE-754
//!   representation (exponent + top mantissa bits), never `ln`/`exp`, so
//!   the bucket of a value is identical on every platform;
//! - **merge is exact integer addition** of bucket counts — associative,
//!   commutative, with the empty sketch as identity — so shard merges are
//!   byte-stable regardless of merge order or shard count;
//! - **min/max are tracked exactly** (canonicalized so `-0.0` and NaN
//!   cannot introduce order-dependent ties), and every estimated
//!   percentile is clamped into `[min, max]`.
//!
//! ## Bucket math
//!
//! For a finite `v > 0` with biased exponent `e` and mantissa `m`, the
//! bucket index is
//!
//! ```text
//! index(v) = 1 + (e - EXP_LO) * 32 + top5(m)
//! ```
//!
//! i.e. each power-of-two binade is split into 32 sub-buckets by the top
//! five mantissa bits. Consecutive bucket edges are a fixed ratio
//! `<= 33/32` apart, so a bucket's midpoint is within `(33/32 - 1)/2 <
//! 1/64` of any value in the bucket: γ = [`RELATIVE_ERROR`] = 1/64.
//! Values `<= 0` (and NaN) land in the reserved zero bucket with
//! representative `0.0`; values below `2^-26` or at/above `2^45` are
//! clamped into the edge buckets (outside every metric's dynamic range).
//!
//! [`WindowedSketch`] adds a sliding sim-time window as a ring of
//! [`WINDOW_SLICES`] time slices keyed by absolute slot `t / slice_width`:
//! eviction zeroes an expired slice in O(buckets) with no allocation, and
//! merge aligns slices by absolute slot so it stays order-independent.

use powadapt_sim::SimDuration;
use powadapt_snap::{Codec, SnapError, SnapReader, SnapWriter};

/// The sketch's relative-error bound γ: any percentile estimate is within
/// `γ * true_value` of the exact sample percentile, for samples inside
/// the representable range.
pub const RELATIVE_ERROR: f64 = 1.0 / 64.0;

/// Sub-bucket bits per power-of-two binade (32 sub-buckets).
const SUB_BITS: u32 = 5;
const SUBS: u64 = 1 << SUB_BITS;
/// Lowest tracked biased exponent: 997 is `2^-26` (~1.5e-8).
const EXP_LO: u64 = 997;
/// Highest tracked biased exponent: 1067 is the binade `[2^44, 2^45)`.
const EXP_HI: u64 = 1067;
const BINADES: usize = (EXP_HI - EXP_LO + 1) as usize;
/// Dense bucket count: one reserved zero/under-range bucket plus every
/// (binade, sub-bucket) pair.
const NBUCKETS: usize = 1 + BINADES * SUBS as usize;

/// Number of time slices backing a [`WindowedSketch`] ring.
pub const WINDOW_SLICES: usize = 16;

/// Ring slot marker for a slice that has never held data.
const VACANT: u64 = u64::MAX;

/// Canonicalizes a sample for exact min/max tracking: NaN folds to the
/// zero bucket's representative and `-0.0` becomes `+0.0`, so equal
/// values always carry identical bits and merge ties are order-free.
fn canonical(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        // IEEE-754: (-0.0) + 0.0 == +0.0; every other value is unchanged.
        v + 0.0
    }
}

/// Bucket index of `v`; pure bit manipulation, identical on every
/// platform.
fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || v.is_nan() {
        return 0; // <= 0, -0.0, NaN: the reserved zero bucket
    }
    let bits = v.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if exp < EXP_LO {
        return 0; // under-range (including subnormals)
    }
    if exp > EXP_HI {
        return NBUCKETS - 1; // over-range (including +inf): clamp
    }
    let sub = (bits >> (52 - SUB_BITS)) & (SUBS - 1);
    (1 + (exp - EXP_LO) * SUBS + sub) as usize
}

/// Lower edge of sub-bucket `b` (counting from bucket index 1);
/// `b == BINADES * SUBS` yields the open upper edge of the last bucket.
fn bucket_edge(b: u64) -> f64 {
    let exp = EXP_LO + b / SUBS;
    let sub = b % SUBS;
    f64::from_bits((exp << 52) | (sub << (52 - SUB_BITS)))
}

/// Representative (midpoint) value of bucket `i`.
fn bucket_value(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let b = (i - 1) as u64;
    let lo = bucket_edge(b);
    let hi = bucket_edge(b + 1);
    0.5 * (lo + hi)
}

/// A mergeable quantile sketch over positive-ish `f64` samples.
///
/// Memory is a fixed dense `u64` bucket array (~18 KiB); observing is
/// allocation-free. Two sketches merge by integer bucket addition, which
/// is associative, commutative, and byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    /// Dense per-bucket counts, `NBUCKETS` long.
    counts: Vec<u64>,
    /// Total observations (sum of `counts`).
    total: u64,
    /// Exact smallest canonicalized sample (`+inf` when empty).
    min: f64,
    /// Exact largest canonicalized sample (`-inf` when empty).
    max: f64,
}

impl Default for Sketch {
    fn default() -> Self {
        Sketch::new()
    }
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Sketch {
            counts: vec![0; NBUCKETS],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Allocation-free.
    // powadapt-lint: hot
    pub fn observe(&mut self, value: f64) {
        let idx = bucket_index(value);
        let value = canonical(value);
        self.counts[idx] += 1;
        self.total += 1;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Folds `other` into `self`: exact integer bucket addition plus
    /// exact min/max. Order-independent — `a.merge_from(b)` and
    /// `b.merge_from(a)` produce identical state.
    pub fn merge_from(&mut self, other: &Sketch) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest observed sample.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact largest observed sample.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean derived from bucket representatives in fixed index order —
    /// deterministic and merge-order-independent, within
    /// [`RELATIVE_ERROR`] of the exact mean for in-range samples.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                sum += c as f64 * bucket_value(i);
            }
        }
        Some((sum / self.total as f64).clamp(self.min, self.max))
    }

    /// Estimated percentile `q` in `[0, 100]`, using the same
    /// interpolated-rank convention as `powadapt_sim::Summary` and
    /// clamped into the exact `[min, max]`. Within [`RELATIVE_ERROR`] of
    /// the exact sample percentile for in-range positive samples.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = (q / 100.0) * (self.total - 1) as f64;
        let lo_rank = rank.floor() as u64;
        let hi_rank = rank.ceil() as u64;
        let frac = rank - lo_rank as f64;
        let lo = self.value_at(lo_rank);
        let hi = if hi_rank == lo_rank {
            lo
        } else {
            self.value_at(hi_rank)
        };
        Some((lo + (hi - lo) * frac).clamp(self.min, self.max))
    }

    /// Representative value of the bucket holding the `k`-th order
    /// statistic (0-based).
    fn value_at(&self, k: u64) -> f64 {
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > k {
                return bucket_value(i);
            }
        }
        self.max
    }

    /// Adds a windowed slice's buckets (same layout) into this sketch.
    fn add_counts(&mut self, counts: &[u64], total: u64, min: f64, max: f64) {
        for (c, &o) in self.counts.iter_mut().zip(counts) {
            *c += o;
        }
        self.total += total;
        if min < self.min {
            self.min = min;
        }
        if max > self.max {
            self.max = max;
        }
    }
}

/// Sparse wire form of a dense bucket array: the nonzero-bucket count,
/// then `(bucket, count)` pairs in ascending bucket order.
fn encode_buckets(counts: &[u64], w: &mut SnapWriter) {
    w.seq_len(counts.iter().filter(|&&c| c != 0).count());
    for (i, &c) in counts.iter().enumerate() {
        if c != 0 {
            w.u32(i as u32);
            w.u64(c);
        }
    }
}

/// Reads [`encode_buckets`] back into a dense `NBUCKETS` array, with its
/// sum. Buckets must be in range, strictly ascending, and nonzero, so a
/// decoded array re-encodes to the same bytes.
fn decode_buckets(r: &mut SnapReader<'_>) -> Result<(Vec<u64>, u64), SnapError> {
    let n = r.seq_len()?;
    let mut counts = vec![0u64; NBUCKETS];
    let mut sum = 0u64;
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let idx = r.u32()?;
        if idx as usize >= NBUCKETS || prev.is_some_and(|p| idx <= p) {
            return Err(SnapError::InvalidValue(format!(
                "sketch bucket {idx} out of range or order"
            )));
        }
        prev = Some(idx);
        let c = r.u64()?;
        if c == 0 {
            return Err(SnapError::InvalidValue(format!(
                "sketch bucket {idx} has a zero count"
            )));
        }
        counts[idx as usize] = c;
        sum += c;
    }
    Ok((counts, sum))
}

/// Canonical sparse form: total, exact min/max bits (present only when
/// non-empty), then the sparse buckets. Decoding and re-encoding
/// reproduces identical bytes.
impl Codec for Sketch {
    fn encode(&self, w: &mut SnapWriter) {
        let Sketch {
            counts,
            total,
            min,
            max,
        } = self;
        total.encode(w);
        w.bool(*total > 0);
        if *total > 0 {
            min.encode(w);
            max.encode(w);
        }
        encode_buckets(counts, w);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let total = u64::decode(r)?;
        let (min, max) = if r.bool()? {
            let (min, max) = (f64::decode(r)?, f64::decode(r)?);
            if min > max || min.is_nan() || max.is_nan() {
                return Err(SnapError::InvalidValue(format!(
                    "sketch range {min:?}..{max:?} is not ordered"
                )));
            }
            (min, max)
        } else if total == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            return Err(SnapError::InvalidValue(
                "non-empty sketch without a min/max range".to_string(),
            ));
        };
        let (counts, sum) = decode_buckets(r)?;
        if sum != total {
            return Err(SnapError::InvalidValue(format!(
                "sketch buckets sum to {sum}, total says {total}"
            )));
        }
        Ok(Sketch {
            counts,
            total,
            min,
            max,
        })
    }
}

powadapt_snap::snapshot! { value Sketch }

/// One time slice of a [`WindowedSketch`]: the bucket array for samples
/// whose slot `t / slice_width` equals `slot`.
#[derive(Debug, Clone, PartialEq)]
struct Slice {
    slot: u64,
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
}

impl Slice {
    fn vacant() -> Self {
        Slice {
            slot: VACANT,
            counts: vec![0; NBUCKETS],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// A [`Sketch`] over a sliding sim-time window, backed by a ring of
/// [`WINDOW_SLICES`] slices keyed by absolute time slot.
///
/// Evicting an expired slice zeroes its fixed bucket array — O(buckets),
/// no allocation — and slices align across recorders by absolute slot, so
/// windowed sketches merge as deterministically as plain ones. The
/// retained span is slice-granular: at least `window`, at most `window`
/// plus one slice width.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSketch {
    /// The configured window, in nanoseconds.
    window_ns: u64,
    /// Width of one ring slice, in nanoseconds (`>= 1`).
    slice_width: u64,
    /// Slot of the newest observation (0 before any).
    latest_slot: u64,
    /// The slice ring, `WINDOW_SLICES` long, indexed by `slot % len`.
    slices: Vec<Slice>,
}

impl WindowedSketch {
    /// A windowed sketch covering at least `window` of sim time.
    pub fn new(window: SimDuration) -> Self {
        let window_ns = window.as_nanos();
        WindowedSketch {
            window_ns,
            slice_width: slice_width_for(window_ns),
            latest_slot: 0,
            slices: vec![Slice::vacant(); WINDOW_SLICES],
        }
    }

    /// The configured window.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_nanos(self.window_ns)
    }

    /// Records `value` at sim-time nanosecond `at_ns`, evicting any
    /// expired slice in-place. Allocation-free.
    // powadapt-lint: hot
    pub fn observe(&mut self, at_ns: u64, value: f64) {
        let slot = at_ns / self.slice_width;
        let ring = self.slices.len() as u64;
        if self.latest_slot > slot && self.latest_slot - slot >= ring {
            return; // older than the retained span: nothing to record
        }
        let idx = bucket_index(value);
        let value = canonical(value);
        let i = (slot % ring) as usize;
        let s = &mut self.slices[i];
        if s.slot != slot {
            if s.slot != VACANT && s.slot > slot {
                return; // ring position already owned by a newer slot
            }
            s.slot = slot;
            s.total = 0;
            s.min = f64::INFINITY;
            s.max = f64::NEG_INFINITY;
            for c in &mut s.counts {
                *c = 0;
            }
        }
        s.counts[idx] += 1;
        s.total += 1;
        if value < s.min {
            s.min = value;
        }
        if value > s.max {
            s.max = value;
        }
        if slot > self.latest_slot {
            self.latest_slot = slot;
        }
    }

    /// True when `s` still falls inside the retained span.
    fn live(&self, s: &Slice) -> bool {
        s.slot != VACANT && s.slot + self.slices.len() as u64 > self.latest_slot
    }

    /// Folds the live slices into a plain [`Sketch`] — the windowed
    /// summary used for snapshots.
    pub fn fold(&self) -> Sketch {
        let mut out = Sketch::new();
        for s in &self.slices {
            if self.live(s) {
                out.add_counts(&s.counts, s.total, s.min, s.max);
            }
        }
        out
    }

    /// Folds `other` into `self` by absolute slot. Returns `false` (self
    /// unchanged) when the window configurations differ — incompatible
    /// windows cannot merge meaningfully. Order-independent for any
    /// merge grouping, like [`Sketch::merge_from`].
    pub fn merge_from(&mut self, other: &WindowedSketch) -> bool {
        if self.window_ns != other.window_ns || self.slice_width != other.slice_width {
            return false;
        }
        let ring = self.slices.len() as u64;
        if other.latest_slot > self.latest_slot {
            self.latest_slot = other.latest_slot;
        }
        for s in &other.slices {
            if s.slot == VACANT || s.slot + ring <= self.latest_slot {
                continue; // vacant or expired under the merged horizon
            }
            let t = &mut self.slices[(s.slot % ring) as usize];
            if t.slot == s.slot {
                t.total += s.total;
                for (c, &o) in t.counts.iter_mut().zip(&s.counts) {
                    *c += o;
                }
                if s.min < t.min {
                    t.min = s.min;
                }
                if s.max > t.max {
                    t.max = s.max;
                }
            } else if t.slot == VACANT || t.slot < s.slot {
                // The resident slice (if any) is expired: same ring
                // position means the slots differ by a full ring, and the
                // incoming one is live.
                *t = s.clone();
            }
        }
        true
    }
}

fn slice_width_for(window_ns: u64) -> u64 {
    window_ns.div_ceil(WINDOW_SLICES as u64 - 1).max(1)
}

/// Canonical form: configuration, the newest slot, then only the live
/// slices in ascending slot order (each as slot, total, min/max bits,
/// sparse buckets) — ring phase and expired slices never reach the bytes.
impl Codec for WindowedSketch {
    fn encode(&self, w: &mut SnapWriter) {
        let WindowedSketch {
            window_ns,
            slice_width,
            latest_slot,
            slices,
        } = self;
        window_ns.encode(w);
        slice_width.encode(w);
        latest_slot.encode(w);
        let mut live: Vec<&Slice> = slices.iter().filter(|s| self.live(s)).collect();
        live.sort_by_key(|s| s.slot);
        w.seq_len(live.len());
        for s in live {
            let Slice {
                slot,
                counts,
                total,
                min,
                max,
            } = s;
            slot.encode(w);
            total.encode(w);
            min.encode(w);
            max.encode(w);
            encode_buckets(counts, w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let window_ns = u64::decode(r)?;
        let slice_width = u64::decode(r)?;
        if slice_width != slice_width_for(window_ns) {
            return Err(SnapError::InvalidValue(format!(
                "slice width {slice_width} does not match window {window_ns}"
            )));
        }
        let latest_slot = u64::decode(r)?;
        let n = r.seq_len()?;
        if n > WINDOW_SLICES {
            return Err(SnapError::InvalidValue(format!(
                "{n} window slices exceed the ring of {WINDOW_SLICES}"
            )));
        }
        let ring = WINDOW_SLICES as u64;
        let mut slices = vec![Slice::vacant(); WINDOW_SLICES];
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let slot = u64::decode(r)?;
            if slot > latest_slot || slot + ring <= latest_slot {
                return Err(SnapError::InvalidValue(format!(
                    "window slice slot {slot} outside the live span of {latest_slot}"
                )));
            }
            if prev.is_some_and(|p| slot <= p) {
                return Err(SnapError::InvalidValue(format!(
                    "window slice slot {slot} out of order"
                )));
            }
            prev = Some(slot);
            let total = u64::decode(r)?;
            let min = f64::decode(r)?;
            let max = f64::decode(r)?;
            if total == 0 || min > max || min.is_nan() || max.is_nan() {
                return Err(SnapError::InvalidValue(format!(
                    "window slice {slot} is empty or has an unordered range"
                )));
            }
            let (counts, sum) = decode_buckets(r)?;
            if sum != total {
                return Err(SnapError::InvalidValue(format!(
                    "window slice {slot} buckets sum to {sum}, total says {total}"
                )));
            }
            slices[(slot % ring) as usize] = Slice {
                slot,
                counts,
                total,
                min,
                max,
            };
        }
        Ok(WindowedSketch {
            window_ns,
            slice_width,
            latest_slot,
            slices,
        })
    }
}

powadapt_snap::snapshot! { value WindowedSketch }

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_snap::{Restore, Snapshot};

    fn sketch_of(values: &[f64]) -> Sketch {
        let mut s = Sketch::new();
        for &v in values {
            s.observe(v);
        }
        s
    }

    fn bytes_of(s: &Sketch) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.write_state(&mut w).unwrap();
        w.into_payload()
    }

    #[test]
    fn buckets_cover_the_range_monotonically() {
        let mut prev = 0;
        for e in -25..44 {
            for frac in [1.0, 1.01, 1.5, 1.99] {
                let v = frac * (2.0f64).powi(e);
                let b = bucket_index(v);
                assert!(b >= prev, "bucket order broke at {v}");
                prev = b;
                let rep = bucket_value(b);
                assert!(
                    (rep - v).abs() <= RELATIVE_ERROR * v + 1e-12,
                    "bucket {b} rep {rep} off from {v}"
                );
            }
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.5), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-30), 0);
        assert_eq!(bucket_index(1e300), NBUCKETS - 1);
    }

    #[test]
    fn percentiles_track_exact_summary() {
        let values: Vec<f64> = (1..=1000).map(|i| (i as f64) * 1.7 + 0.3).collect();
        let s = sketch_of(&values);
        let summary = powadapt_sim::Summary::from_samples(&values).unwrap();
        for q in [0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let est = s.percentile(q).unwrap();
            let exact = summary.percentile(q);
            assert!(
                (est - exact).abs() <= RELATIVE_ERROR * exact + 1e-9,
                "p{q}: {est} vs exact {exact}"
            );
        }
        assert_eq!(s.min().unwrap(), summary.min());
        assert_eq!(s.max().unwrap(), summary.max());
        let mean = s.mean().unwrap();
        assert!((mean - summary.mean()).abs() <= RELATIVE_ERROR * summary.mean());
    }

    #[test]
    fn merge_is_commutative_and_associative_bytewise() {
        let a = sketch_of(&[1.0, 2.5, 700.0]);
        let b = sketch_of(&[0.004, 2.5, 1e9]);
        let c = sketch_of(&[42.0]);

        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(bytes_of(&ab), bytes_of(&ba));

        let mut ab_c = ab.clone();
        ab_c.merge_from(&c);
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut a_bc = a.clone();
        a_bc.merge_from(&bc);
        assert_eq!(bytes_of(&ab_c), bytes_of(&a_bc));

        let mut with_empty = a.clone();
        with_empty.merge_from(&Sketch::new());
        assert_eq!(bytes_of(&with_empty), bytes_of(&a));
    }

    #[test]
    fn snapshot_roundtrip_is_byte_stable() {
        let s = sketch_of(&[0.125, 3.0, 3.0, 9e7, -1.0]);
        let payload = bytes_of(&s);
        let mut restored = Sketch::new();
        let mut r = SnapReader::new(&payload);
        restored.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, s);
        assert_eq!(bytes_of(&restored), payload);
    }

    #[test]
    fn windowed_sketch_evicts_in_slices() {
        let mut w = WindowedSketch::new(SimDuration::from_nanos(150));
        w.observe(0, 1.0);
        w.observe(50, 2.0);
        w.observe(200, 3.0);
        let folded = w.fold();
        assert_eq!(folded.count(), 2); // the t=0 slice expired at t=200
        assert_eq!(folded.min().unwrap(), 2.0);
        assert_eq!(folded.max().unwrap(), 3.0);
    }

    #[test]
    fn windowed_merge_aligns_absolute_slots() {
        let win = SimDuration::from_micros(1);
        let mut a = WindowedSketch::new(win);
        let mut b = WindowedSketch::new(win);
        a.observe(100, 1.0);
        a.observe(500, 2.0);
        b.observe(500, 4.0);
        b.observe(900, 8.0);
        let mut ab = a.clone();
        assert!(ab.merge_from(&b));
        let mut ba = b.clone();
        assert!(ba.merge_from(&a));
        assert_eq!(ab, ba);
        let folded = ab.fold();
        assert_eq!(folded.count(), 4);
        assert_eq!(folded.min().unwrap(), 1.0);
        assert_eq!(folded.max().unwrap(), 8.0);
        // Incompatible windows refuse to merge.
        let other = WindowedSketch::new(SimDuration::from_micros(2));
        assert!(!ab.merge_from(&other));
    }

    #[test]
    fn windowed_snapshot_roundtrip_is_byte_stable() {
        let mut w = WindowedSketch::new(SimDuration::from_nanos(600));
        for (t, v) in [(0, 5.0), (100, 6.0), (450, 7.5), (700, 1.25)] {
            w.observe(t, v);
        }
        let mut wr = SnapWriter::new();
        w.write_state(&mut wr).unwrap();
        let payload = wr.into_payload();
        let mut restored = WindowedSketch::new(SimDuration::from_nanos(600));
        let mut r = SnapReader::new(&payload);
        restored.read_state(&mut r).unwrap();
        r.finish().unwrap();
        let mut again = SnapWriter::new();
        restored.write_state(&mut again).unwrap();
        assert_eq!(again.into_payload(), payload);
        assert_eq!(restored.fold().count(), w.fold().count());
    }
}
