//! Log-bucket quantile sketches (DDSketch-style).
//!
//! A [`Sketch`] keeps a fixed bucket array instead of every sample, so
//! its memory does not grow with the run, at the cost of a bounded
//! relative error [`RELATIVE_ERROR`]:
//!
//! - **bucketing is pure bit manipulation** on the IEEE-754
//!   representation (exponent + top mantissa bits), never `ln`/`exp`, so
//!   the bucket of a value is identical on every platform;
//! - **observation order does not matter**: a sample only bumps an
//!   integer bucket count, so sweep workers feeding one recorder in any
//!   interleaving leave identical state;
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

/// Canonicalizes a sample for exact min/max tracking: NaN folds to the
/// zero bucket's representative and `-0.0` becomes `+0.0`, so equal
/// values always carry identical bits and min/max ties are order-free.
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

/// A quantile sketch over positive-ish `f64` samples.
///
/// Memory is a fixed dense `u64` bucket array (~18 KiB); observing is
/// allocation-free, and the state is independent of observation order.
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
    /// deterministic and observation-order-independent, within
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: &[f64]) -> Sketch {
        let mut s = Sketch::new();
        for &v in values {
            s.observe(v);
        }
        s
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
}
