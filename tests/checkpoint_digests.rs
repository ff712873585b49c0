//! Checkpoint byte-layout pin: the length and FNV-1a-64 digest of every
//! real sealed checkpoint the suite takes — cluster cells at their
//! midpoint, placement cells mid-migration, the long-horizon failover,
//! firmware, and midnight checkpoints, and mid-IO SSD/HDD/fault-injected
//! devices — must equal the committed `checkpoint_digests` fixture.
//!
//! The resume tests prove a checkpoint restores to the same results; this
//! one proves the bytes themselves did not move, so a refactor of the
//! snapshot codecs can be checked against the layout it replaces. The
//! digest is the fixture's own FNV-1a over the whole sealed file, not the
//! envelope checksum, so a change of envelope moves every digest and no
//! length.
//!
//! The same file also checks the envelope on a real checkpoint, not just
//! on the random payloads of `crates/snap/tests/properties.rs`: every
//! single-bit flip and every swap of two adjacent 8-byte words of the
//! sealed mid-IO HDD checkpoint must be rejected.

use std::fs;

use powadapt_bench::golden::{
    checkpoint_digests_summary, device_checkpoint, goldens_dir, CHECKPOINT_FIXTURE, GOLDEN_SEED,
};
use powadapt_device::catalog;
use powadapt_snap::open;

#[test]
fn checkpoint_bytes_match_committed_digests() {
    let path = goldens_dir().join(format!("{CHECKPOINT_FIXTURE}.json"));
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\n\
             regenerate with: cargo run -p powadapt-bench --bin regen_goldens",
            path.display()
        )
    });
    assert_eq!(
        checkpoint_digests_summary(),
        committed,
        "{CHECKPOINT_FIXTURE}: a checkpoint's bytes changed. The snapshot layout is \
         versioned by FORMAT_VERSION; a layout change must bump it and regenerate \
         the fixture with `cargo run -p powadapt-bench --bin regen_goldens`."
    );
}

/// The fixture's `device/hdd` row: a mid-IO Exos HDD, sealed.
fn hdd_checkpoint() -> Vec<u8> {
    let sealed = device_checkpoint(Box::new(catalog::hdd_exos_7e2000(GOLDEN_SEED)));
    assert!(open(&sealed).is_ok(), "the untouched checkpoint opens");
    sealed
}

#[test]
fn every_bit_flip_of_a_real_checkpoint_is_rejected() {
    let mut sealed = hdd_checkpoint();
    for i in 0..sealed.len() {
        for bit in 0..8 {
            sealed[i] ^= 1 << bit;
            assert!(
                open(&sealed).is_err(),
                "flip of bit {bit} of byte {i} accepted"
            );
            sealed[i] ^= 1 << bit;
        }
    }
}

#[test]
fn every_adjacent_word_swap_of_a_real_checkpoint_is_rejected() {
    let sealed = hdd_checkpoint();
    let words = sealed.len() / 8;
    let mut swaps = 0;
    for w in 0..words - 1 {
        let (a, b) = (8 * w, 8 * (w + 1));
        if sealed[a..b] == sealed[b..b + 8] {
            continue;
        }
        let mut bad = sealed.clone();
        bad[a..b + 8].rotate_left(8);
        assert!(
            open(&bad).is_err(),
            "swap of words {w} and {} accepted",
            w + 1
        );
        swaps += 1;
    }
    assert!(
        swaps > words / 2,
        "only {swaps} of {words} word pairs differ"
    );
}
