//! Regenerates the committed golden-figure fixtures under
//! `crates/bench/goldens/`.
//!
//! Run after any intentional change to the device models, the runner, or
//! the figures: `cargo run -p powadapt-bench --bin regen_goldens`. CI fails
//! on fixture drift that is not regenerated and committed. It also
//! writes the snapshot ABI lock (`snapshot_abi.lock`) from the
//! workspace's `snapshot!` sites.

use std::fs;

use powadapt_bench::cli;
use powadapt_bench::golden::slices::{cluster_slices_summary, SLICES_FIXTURE};
use powadapt_bench::golden::{
    checkpoint_digests_summary, cluster_eval_summary, figure_summary, golden_scale, goldens_dir,
    obs_events_summary, placement_eval_summary, snapshot_abi_lock, snapshot_abi_sources, ABI_LOCK,
    CHECKPOINT_FIXTURE, CLUSTER_FIXTURE, FIGURES, GOLDEN_SEED, OBS_FIXTURE, PLACEMENT_FIXTURE,
};
use powadapt_io::ParallelConfig;

fn write_fixture(dir: &std::path::Path, file: &str, summary: &str) {
    let path = dir.join(file);
    let changed = fs::read_to_string(&path).map(|old| old != summary);
    fs::write(&path, summary).expect("write fixture");
    match changed {
        Ok(false) => println!("{file}: unchanged"),
        Ok(true) => println!("{file}: UPDATED"),
        Err(_) => println!("{file}: created"),
    }
}

fn main() {
    cli::parse("regen_goldens", &[]);
    let dir = goldens_dir();
    fs::create_dir_all(&dir).expect("create goldens dir");
    let scale = golden_scale();
    // Goldens are always generated sequentially: the fixture is the
    // reference the parallel runs are compared against.
    let cfg = ParallelConfig::sequential();
    for name in FIGURES {
        let summary = figure_summary(name, scale, GOLDEN_SEED, &cfg);
        write_fixture(&dir, &format!("{name}.json"), &summary);
    }
    for (name, summary) in [
        (OBS_FIXTURE, obs_events_summary(&cfg)),
        (CLUSTER_FIXTURE, cluster_eval_summary(&cfg)),
        (PLACEMENT_FIXTURE, placement_eval_summary(&cfg)),
        (CHECKPOINT_FIXTURE, checkpoint_digests_summary()),
        (SLICES_FIXTURE, cluster_slices_summary()),
    ] {
        write_fixture(&dir, &format!("{name}.json"), &summary);
    }
    let sources = snapshot_abi_sources().expect("read crates/*/src");
    let lock = snapshot_abi_lock(&sources, powadapt_snap::FORMAT_VERSION)
        .unwrap_or_else(|e| panic!("snapshot ABI scan: {e}"));
    write_fixture(&dir, ABI_LOCK, &lock);
    println!("fixtures written to {}", dir.display());
}
