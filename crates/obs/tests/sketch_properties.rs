//! Property tests for the quantile sketch: its state does not depend on
//! the order samples arrive in (sweep workers feed one recorder in any
//! interleaving), and its percentiles stay within the advertised
//! relative error of the exact sample percentiles.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use powadapt_obs::sketch::RELATIVE_ERROR;
use powadapt_obs::Sketch;
use powadapt_sim::Summary;
use proptest::prelude::*;

fn sketch_of(values: &[f64]) -> Sketch {
    let mut s = Sketch::new();
    for &v in values {
        s.observe(v);
    }
    s
}

/// Positive finite values inside the sketch's representable range
/// (`[2^-26, 2^45)`), the domain the γ bound is advertised for —
/// latencies in ns, powers in W, byte counts.
fn in_range_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-6f64..1e12, 1..200)
}

/// One sample of class `class`: zero, `-0.0`, a negative, extremes that
/// clamp into the edge buckets, or the in-range value `v`.
fn sample(class: usize, v: f64) -> f64 {
    match class {
        0 => 0.0,
        1 => -0.0,
        2 => -1.0,
        3 => 1e300,
        4 => 1e-300,
        _ => v,
    }
}

/// Samples tagged with random sort keys: sorting by key gives a random
/// reordering of the same stream. Each stream draws from a random subset
/// of the sample classes, so many streams hold only signed zeros or only
/// edge values — the streams where min/max ties could depend on order.
fn keyed_values() -> impl Strategy<Value = Vec<(f64, u64)>> {
    let draws = proptest::collection::vec((0usize..6, 1e-6f64..1e12, any::<u64>()), 0..100);
    (1u8..64, draws).prop_map(|(palette, draws)| {
        let classes: Vec<usize> = (0..6).filter(|c| palette & (1 << c) != 0).collect();
        draws
            .into_iter()
            .map(|(pick, v, key)| (sample(classes[pick % classes.len()], v), key))
            .collect()
    })
}

proptest! {
    #[test]
    fn observation_order_does_not_change_the_sketch(keyed in keyed_values()) {
        let values: Vec<f64> = keyed.iter().map(|&(v, _)| v).collect();
        let mut reordered = keyed.clone();
        reordered.sort_by_key(|&(_, key)| key);
        let reordered: Vec<f64> = reordered.iter().map(|&(v, _)| v).collect();
        let (a, b) = (sketch_of(&values), sketch_of(&reordered));
        // `==` treats `-0.0` and `+0.0` as equal; the bits must match too.
        prop_assert_eq!(a.min().map(f64::to_bits), b.min().map(f64::to_bits));
        prop_assert_eq!(a.max().map(f64::to_bits), b.max().map(f64::to_bits));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn percentiles_stay_within_relative_error(values in in_range_values()) {
        let s = sketch_of(&values);
        let summary = Summary::from_samples(&values).unwrap();
        for q in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let est = s.percentile(q).unwrap();
            let exact = summary.percentile(q);
            // Exact percentiles interpolate between two order statistics;
            // the sketch interpolates between those statistics' bucket
            // representatives, each within γ of its sample. The estimate
            // is therefore within γ of the interpolated exact value.
            let tol = RELATIVE_ERROR * exact.abs();
            prop_assert!(
                (est - exact).abs() <= tol,
                "p{}: estimate {} vs exact {} (tolerance {})",
                q, est, exact, tol
            );
        }
    }
}
