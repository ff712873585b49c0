//! Property tests for the sealed snapshot envelope: corruption of any
//! kind — bit flips, truncation, trailing bytes, version skew — must be
//! rejected with a typed [`SnapError`], never accepted and never a panic.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use powadapt_snap::{checksum, open, seal, SnapError, FORMAT_VERSION, MAGIC};
use proptest::prelude::*;

fn payloads() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

/// Re-seals `data` (an envelope whose header bytes were edited) with a
/// fresh valid checksum, so the test reaches the *semantic* validation
/// behind the checksum gate.
fn fix_checksum(mut data: Vec<u8>) -> Vec<u8> {
    let body = data.len() - 8;
    let sum = checksum(&data[..body]);
    data[body..].copy_from_slice(&sum.to_le_bytes());
    data
}

proptest! {
    #[test]
    fn seal_open_round_trips(payload in payloads()) {
        let sealed = seal(&payload);
        prop_assert_eq!(open(&sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn fix_checksum_reproduces_seal(payload in payloads()) {
        // Re-sealing an untouched envelope must give back its own bytes,
        // or the tests behind `fix_checksum` would only ever see
        // `ChecksumMismatch`.
        let sealed = seal(&payload);
        prop_assert_eq!(fix_checksum(sealed.clone()), sealed);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        payload in payloads(),
        pos in any::<u64>(),
        bit in 0u64..8,
    ) {
        let sealed = seal(&payload);
        let i = (pos % sealed.len() as u64) as usize;
        let mut bad = sealed;
        bad[i] ^= 1 << bit;
        prop_assert!(open(&bad).is_err(), "flipped bit {} of byte {} was accepted", bit, i);
    }

    #[test]
    fn any_truncation_is_rejected(payload in payloads(), cut in any::<u64>()) {
        let sealed = seal(&payload);
        // keep < len, so the slice is always strictly shorter.
        let keep = (cut % sealed.len() as u64) as usize;
        prop_assert!(open(&sealed[..keep]).is_err(), "truncation to {} bytes was accepted", keep);
    }

    #[test]
    fn trailing_bytes_are_rejected(
        payload in payloads(),
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut sealed = seal(&payload);
        sealed.extend_from_slice(&extra);
        prop_assert!(matches!(open(&sealed), Err(SnapError::TrailingBytes(_))));
    }

    #[test]
    fn wrong_magic_is_rejected(payload in payloads(), salt in 1u64..=255) {
        let mut sealed = seal(&payload);
        sealed[0] ^= salt as u8;
        // Re-seal so the magic check, not the checksum, does the rejecting.
        prop_assert!(matches!(open(&fix_checksum(sealed)), Err(SnapError::BadMagic)));
    }

    #[test]
    fn future_versions_are_rejected(payload in payloads(), bump in 1u32..1000) {
        let mut sealed = seal(&payload);
        let v = FORMAT_VERSION + bump;
        sealed[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&v.to_le_bytes());
        prop_assert!(matches!(
            open(&fix_checksum(sealed)),
            Err(SnapError::UnsupportedVersion(got)) if got == v
        ));
    }

    #[test]
    fn prior_versions_are_rejected(payload in payloads(), v in 0..FORMAT_VERSION) {
        // A checkpoint from an older build (e.g. v1, whose queue/SSD
        // layout differs) must be refused outright — the checksum
        // validates bytes, not layout, so this gate is the only thing
        // between an old snapshot and a silently corrupted restore.
        let mut sealed = seal(&payload);
        sealed[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&v.to_le_bytes());
        prop_assert!(matches!(
            open(&fix_checksum(sealed)),
            Err(SnapError::UnsupportedVersion(got)) if got == v
        ));
    }

    #[test]
    fn length_field_lies_are_rejected(payload in payloads(), raw_lie in any::<u64>()) {
        let truth = payload.len() as u64;
        // Force the lie to actually lie.
        let lie = if raw_lie == truth { raw_lie ^ 1 } else { raw_lie };
        let mut sealed = seal(&payload);
        let at = MAGIC.len() + 4;
        sealed[at..at + 8].copy_from_slice(&lie.to_le_bytes());
        // Behind a recomputed checksum, the length check itself rejects.
        let resealed = fix_checksum(sealed);
        let got = open(&resealed);
        prop_assert!(
            got.is_err() && !matches!(got, Err(SnapError::ChecksumMismatch { .. })),
            "length lie {} (truth {}): {:?}", lie, truth, got
        );
    }
}
