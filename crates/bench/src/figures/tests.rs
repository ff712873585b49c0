//! Tests of the figure-regeneration machinery at a tiny scale: structure
//! and internal consistency of what each module measures (full-scale
//! numbers live in EXPERIMENTS.md and tests/figures_shapes.rs).

use powadapt_io::{ParallelConfig, SweepScale, Workload};
use powadapt_sim::SimDuration;

use super::*;

fn tiny() -> SweepScale {
    SweepScale {
        runtime: SimDuration::from_millis(40),
        size_limit: 64 * 1024 * 1024,
        ramp: SimDuration::from_millis(5),
    }
}

#[test]
fn table1_rows_cover_all_devices_with_sane_ranges() {
    let rows = table1::rows_with(tiny(), 5, &ParallelConfig::per_core());
    assert_eq!(rows.len(), 4);
    let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, vec!["SSD1", "SSD2", "SSD3", "HDD"]);
    for r in &rows {
        assert!(r.min_w > 0.0, "{}: min {}", r.label, r.min_w);
        assert!(r.max_w > r.min_w, "{}: empty range", r.label);
        assert!(r.max_w < 30.0, "{}: absurd max {}", r.label, r.max_w);
    }
    // The HDD row includes the standby floor.
    let hdd = rows.iter().find(|r| r.label == "HDD").expect("present");
    assert!(hdd.min_w < 1.3, "standby included: {}", hdd.min_w);
}

#[test]
fn fig2_experiment_produces_a_trace_and_stats() {
    let r = fig2::experiment("SSD3", tiny(), 5);
    assert!(!r.power.is_empty());
    assert!(r.io.ios() > 0);
    assert!(r.power.summary().is_some());
}

#[test]
fn fig3_grid_is_complete_and_caps_order_correctly() {
    let cells = fig3::grid_with(
        SweepScale {
            runtime: SimDuration::from_millis(60),
            size_limit: 256 * 1024 * 1024,
            ramp: SimDuration::from_millis(10),
        },
        5,
        &ParallelConfig::per_core(),
    );
    // 6 chunks x 2 depths x 3 states.
    assert_eq!(cells.len(), 36);
    // At QD64 / 2 MiB, deeper caps mean less (or equal) power.
    let p = |ps: u8| {
        cells
            .iter()
            .find(|c| c.depth == 64 && c.chunk == 2 * 1024 * 1024 && c.ps == ps)
            .expect("cell present")
            .power_w
    };
    assert!(p(1) <= p(0) * 1.02);
    assert!(p(2) <= p(1) * 1.02);
}

#[test]
fn fig4_panels_have_all_cells() {
    let cells = fig4::panel_with(Workload::SeqRead, tiny(), 5, &ParallelConfig::per_core());
    assert_eq!(cells.len(), 18);
    assert!(cells.iter().all(|c| c.mibs > 0.0));
}

#[test]
fn fig5_panel_reports_latencies_for_every_cell() {
    let cells = fig5::panel_with(Workload::RandWrite, tiny(), 5, &ParallelConfig::per_core());
    assert_eq!(cells.len(), 18);
    for c in &cells {
        assert!(c.avg_us > 0.0);
        assert!(c.p99_us >= c.avg_us * 0.5);
    }
}

#[test]
fn fig6_max_deviation_is_zero_for_uncapped_reads() {
    let cells = fig5::panel_with(Workload::RandRead, tiny(), 5, &ParallelConfig::per_core());
    let dev = fig6::max_deviation(&cells);
    assert!(dev < 0.05, "read deviation {dev}");
}

#[test]
fn fig8_and_fig9_grids_cover_every_device() {
    let g8 = fig8::grid_with(tiny(), 5, &ParallelConfig::per_core());
    assert_eq!(g8.len(), 4 * 6);
    let g9 = fig9::grid_with(tiny(), 5, &ParallelConfig::per_core());
    assert_eq!(g9.len(), 4 * 6);
    for c in &g9 {
        assert!(c.power_w > 0.0);
    }
}

#[test]
fn fig10_models_build_for_every_device() {
    // Only SSD3 (single power state) at tiny scale to keep this quick.
    let sweep = fig10::device_sweep_with("SSD3", tiny(), 5, &ParallelConfig::per_core());
    assert_eq!(sweep.len(), 36);
    let models = powadapt_model::PowerThroughputModel::from_sweep(&sweep);
    assert_eq!(models.len(), 1);
    assert!(models[0].power_dynamic_range() > 0.1);
}
