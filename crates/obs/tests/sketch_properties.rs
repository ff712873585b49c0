//! Property tests for the mergeable quantile sketch: the algebraic laws
//! that make its merges deterministic (merge is associative,
//! commutative, with the empty sketch as identity — all up to *byte
//! equality* of the canonical snapshot form), the advertised relative
//! error bound against exact sample percentiles, and byte-stability of
//! the snapshot round trip.

// Property tests assert on exact expected values.
#![allow(clippy::unwrap_used)]

use powadapt_obs::sketch::RELATIVE_ERROR;
use powadapt_obs::Sketch;
use powadapt_sim::Summary;
use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};
use proptest::prelude::*;

/// Canonical byte form of a sketch: the snapshot payload. Two sketches
/// with identical payloads are indistinguishable to every consumer
/// (percentiles, merges, snapshots), so the laws are asserted on bytes.
fn bytes(s: &Sketch) -> Vec<u8> {
    let mut w = SnapWriter::new();
    s.write_state(&mut w).unwrap();
    w.into_payload()
}

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

/// Arbitrary value streams including zero, negatives, and extremes that
/// clamp into edge buckets — merges must stay lawful even off-range.
fn any_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        (
            proptest::sample::select(vec![0usize, 1, 2, 3, 4]),
            1e-6f64..1e12,
        )
            .prop_map(|(class, v)| match class {
                0 => 0.0,
                1 => -1.0,
                2 => 1e300,
                3 => 1e-300,
                _ => v,
            }),
        0..100,
    )
}

proptest! {
    #[test]
    fn merge_is_commutative(a in any_values(), b in any_values()) {
        let (sa, sb) = (sketch_of(&a), sketch_of(&b));
        let mut ab = sa.clone();
        ab.merge_from(&sb);
        let mut ba = sb.clone();
        ba.merge_from(&sa);
        prop_assert_eq!(bytes(&ab), bytes(&ba));
    }

    #[test]
    fn merge_is_associative(
        a in any_values(),
        b in any_values(),
        c in any_values(),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        // (a ⊔ b) ⊔ c
        let mut left = sa.clone();
        left.merge_from(&sb);
        left.merge_from(&sc);
        // a ⊔ (b ⊔ c)
        let mut bc = sb.clone();
        bc.merge_from(&sc);
        let mut right = sa.clone();
        right.merge_from(&bc);
        prop_assert_eq!(bytes(&left), bytes(&right));
    }

    #[test]
    fn empty_sketch_is_merge_identity(a in any_values()) {
        let sa = sketch_of(&a);
        let mut left = Sketch::new();
        left.merge_from(&sa);
        let mut right = sa.clone();
        right.merge_from(&Sketch::new());
        prop_assert_eq!(bytes(&left), bytes(&sa));
        prop_assert_eq!(bytes(&right), bytes(&sa));
    }

    #[test]
    fn merge_equals_observing_concatenation(a in any_values(), b in any_values()) {
        let mut merged = sketch_of(&a);
        merged.merge_from(&sketch_of(&b));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        prop_assert_eq!(bytes(&merged), bytes(&sketch_of(&concat)));
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

    #[test]
    fn snapshot_round_trip_is_byte_stable(values in any_values()) {
        let s = sketch_of(&values);
        let payload = bytes(&s);
        let mut restored = Sketch::new();
        let mut r = SnapReader::new(&payload);
        restored.read_state(&mut r).unwrap();
        r.finish().unwrap();
        // Restoring and re-serializing reproduces identical bytes, and
        // the restored sketch answers identically.
        prop_assert_eq!(bytes(&restored), payload);
        prop_assert_eq!(restored.count(), s.count());
        if !s.is_empty() {
            prop_assert_eq!(restored.percentile(50.0), s.percentile(50.0));
        }
    }
}
