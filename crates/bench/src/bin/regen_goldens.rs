//! Regenerates the committed golden-figure fixtures under
//! `crates/bench/goldens/`.
//!
//! Run after any intentional change to the device models, the runner, or
//! the figures: `cargo run -p powadapt-bench --bin regen_goldens`. CI fails
//! on fixture drift that is not regenerated and committed.

use std::fs;

use powadapt_bench::golden::{
    checkpoint_digests_summary, cluster_eval_summary, figure_summary, golden_scale, goldens_dir,
    obs_events_summary, placement_eval_summary, CHECKPOINT_FIXTURE, CLUSTER_FIXTURE, FIGURES,
    GOLDEN_SEED, OBS_FIXTURE, PLACEMENT_FIXTURE,
};
use powadapt_io::ParallelConfig;

fn write_fixture(dir: &std::path::Path, name: &str, summary: &str) {
    let path = dir.join(format!("{name}.json"));
    let changed = fs::read_to_string(&path).map(|old| old != summary);
    fs::write(&path, summary).expect("write fixture");
    match changed {
        Ok(false) => println!("{name}: unchanged"),
        Ok(true) => println!("{name}: UPDATED"),
        Err(_) => println!("{name}: created"),
    }
}

fn main() {
    let dir = goldens_dir();
    fs::create_dir_all(&dir).expect("create goldens dir");
    let scale = golden_scale();
    // Goldens are always generated sequentially: the fixture is the
    // reference the parallel runs are compared against.
    let cfg = ParallelConfig::sequential();
    for name in FIGURES {
        let summary = figure_summary(name, scale, GOLDEN_SEED, &cfg);
        write_fixture(&dir, name, &summary);
    }
    write_fixture(&dir, OBS_FIXTURE, &obs_events_summary(&cfg));
    write_fixture(&dir, CLUSTER_FIXTURE, &cluster_eval_summary(&cfg));
    write_fixture(&dir, PLACEMENT_FIXTURE, &placement_eval_summary(&cfg));
    write_fixture(&dir, CHECKPOINT_FIXTURE, &checkpoint_digests_summary());
    println!("fixtures written to {}", dir.display());
}
