//! Slice equivalence on generated scenarios: sixteen generated cluster
//! specs, each driven in random `run_to` slices and resumed from its
//! sealed snapshot at every boundary, must reproduce the committed
//! `cluster_slices` fixture byte for byte — every checkpoint and every
//! report.
//!
//! The fixture was written by the lockstep cluster loop, which visited
//! every device event. It is the oracle for any loop that steps less
//! often: skipping a step that had work to do moves a checkpoint or a
//! report, and the row names the spec that moved.

use std::fs;

use powadapt_bench::golden::goldens_dir;
use powadapt_bench::golden::slices::{cluster_slices_summary, SLICES_FIXTURE};

#[test]
fn sliced_generated_runs_match_committed_fixture() {
    let path = goldens_dir().join(format!("{SLICES_FIXTURE}.json"));
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\n\
             regenerate with: cargo run -p powadapt-bench --bin regen_goldens",
            path.display()
        )
    });
    let current = cluster_slices_summary();
    for (now, then) in current.lines().zip(committed.lines()) {
        assert_eq!(now, then, "{SLICES_FIXTURE}: a sliced run moved");
    }
    assert_eq!(current, committed, "{SLICES_FIXTURE}: row count moved");
}
