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
//!
//! It also compares the snapshot ABI lock (`goldens/snapshot_abi.lock`),
//! which sees what the digests cannot: a reorder of entries whose bytes
//! happen to be equal in every fixture checkpoint, a retyped field, and
//! components no fixture reaches. The digests see what the lock cannot: `codec!` sites,
//! `Wire` adapters and primitive encodings.

use std::fs;
use std::sync::{Mutex, PoisonError};

use powadapt_bench::golden::{
    checkpoint_digests_summary, device_checkpoint, goldens_dir, snapshot_abi_lock,
    snapshot_abi_sources, ABI_LOCK, CHECKPOINT_FIXTURE, GOLDEN_SEED,
};
use powadapt_device::catalog;
use powadapt_snap::{open, FORMAT_VERSION};

/// The summary's event-log row installs a process-global recorder while
/// it builds a cell, and a device built on another thread meanwhile would
/// record into it. Tests in this binary that build devices serialize here.
static GLOBAL_SLOT: Mutex<()> = Mutex::new(());

#[test]
fn checkpoint_bytes_match_committed_digests() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
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
    let sealed = {
        let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
        device_checkpoint(Box::new(catalog::hdd_exos_7e2000(GOLDEN_SEED)))
    };
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

/// The lock's verdict on a freshly built lock against the committed one:
/// equal passes; a moved hash under the same `format_version` is a layout
/// change that did not bump `FORMAT_VERSION`; anything else is stale.
fn abi_verdict(current: &str, committed: &str) -> Result<(), String> {
    if current == committed {
        return Ok(());
    }
    let header = |lock: &str| {
        ["format_version = ", "hash = "].map(|key| {
            lock.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::to_owned)
        })
    };
    let ([version, hash], [old_version, old_hash]) = (header(current), header(committed));
    if hash != old_hash && version == old_version {
        Err(format!(
            "the snapshot ABI changed but FORMAT_VERSION did not move, so old \
             checkpoints would mis-decode. Bump FORMAT_VERSION in crates/snap/src/lib.rs, \
             then regenerate {ABI_LOCK} with `cargo run -p powadapt-bench --bin regen_goldens`."
        ))
    } else {
        Err(format!(
            "{ABI_LOCK} is stale: regenerate it with \
             `cargo run -p powadapt-bench --bin regen_goldens` and commit it."
        ))
    }
}

#[test]
fn snapshot_abi_matches_committed_lock() {
    let path = goldens_dir().join(ABI_LOCK);
    let committed =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    let sources = snapshot_abi_sources().expect("read crates/*/src");
    let current = snapshot_abi_lock(&sources, FORMAT_VERSION).unwrap_or_else(|e| panic!("{e}"));
    if let Err(verdict) = abi_verdict(&current, &committed) {
        panic!("{verdict}");
    }
}

/// Layout edits planted in the real sources: each changes the lock the
/// way its kind of change should.
#[test]
fn snapshot_abi_lock_catches_layout_drift() {
    let sources = snapshot_abi_sources().expect("read crates/*/src");
    let edit = |from: &str, to: &str| {
        let mut edited = sources.clone();
        let hits: Vec<_> = edited
            .iter_mut()
            .filter(|(_, src)| src.contains(from))
            .collect();
        assert_eq!(hits.len(), 1, "`{from}` must occur in exactly one source");
        for (_, src) in hits {
            *src = src.replacen(from, to, 1);
        }
        edited
    };
    let lock = |sources: &[(String, String)], version| {
        snapshot_abi_lock(sources, version).unwrap_or_else(|e| panic!("{e}"))
    };
    let base = lock(&sources, FORMAT_VERSION);
    let unbumped = [
        (
            "value SimRng { state, gauss_spare }",
            "value SimRng { gauss_spare, state }",
        ),
        (
            "PlacementTier {\n        used: seq,",
            "PlacementTier {\n        used,",
        ),
        (
            "Temperature { value, last_window }",
            "Temperature { value, last_window, value }",
        ),
        // A type-only change: format 5's rolling-mean segments.
        (
            "segments: VecDeque<(SimTime, f64)>,",
            "segments: VecDeque<(SimTime, SimTime, f64)>,",
        ),
    ];
    for (from, to) in unbumped {
        let verdict = abi_verdict(&lock(&edit(from, to), FORMAT_VERSION), &base);
        assert!(
            verdict
                .as_ref()
                .is_err_and(|e| e.contains("FORMAT_VERSION did not move")),
            "{from} -> {to}: {verdict:?}"
        );
    }
    let swapped = edit(unbumped[0].0, unbumped[0].1);
    let verdict = abi_verdict(&lock(&swapped, FORMAT_VERSION + 1), &base);
    assert!(verdict.is_err_and(|e| e.contains("stale")));
    let skipped = edit("skip { capacity:", "skip { planted: \"derived\", capacity:");
    assert_eq!(abi_verdict(&lock(&skipped, FORMAT_VERSION), &base), Ok(()));
    // An entry the struct does not declare has no type to lock.
    let planted = edit(unbumped[2].0, "Temperature { value, last_window, planted }");
    assert!(snapshot_abi_lock(&planted, FORMAT_VERSION).is_err());
    let mut unlisted = sources.clone();
    unlisted[0].1.push_str("\nimpl Snapshot for Planted {}\n");
    assert!(snapshot_abi_lock(&unlisted, FORMAT_VERSION).is_err());
}
