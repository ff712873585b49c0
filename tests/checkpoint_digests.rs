//! Checkpoint byte-layout pin: the length and FNV-1a-64 digest of every
//! real sealed checkpoint the suite takes — cluster cells at their
//! midpoint, placement cells mid-migration, the long-horizon failover,
//! firmware, and midnight checkpoints, and mid-IO SSD/HDD/fault-injected
//! devices — must equal the committed `checkpoint_digests` fixture.
//!
//! The resume tests prove a checkpoint restores to the same results; this
//! one proves the bytes themselves did not move, so a refactor of the
//! snapshot codecs can be checked against the layout it replaces.

use std::fs;

use powadapt_bench::golden::{checkpoint_digests_summary, goldens_dir, CHECKPOINT_FIXTURE};

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
