//! Tests of the figure-regeneration machinery at a tiny scale: structure
//! and internal consistency of what each module reads from the cell table,
//! and the one-grid invariant (full-scale numbers live in EXPERIMENTS.md
//! and tests/figures_shapes.rs).

use powadapt_device::{KIB, MIB};
use powadapt_io::{ParallelConfig, SweepScale, Workload};
use powadapt_sim::SimDuration;

use super::table::plan;
use super::*;
use crate::golden::FIGURES;
use crate::TABLE1_LABELS;

fn tiny() -> SweepScale {
    SweepScale {
        runtime: SimDuration::from_millis(40),
        size_limit: 64 * 1024 * 1024,
        ramp: SimDuration::from_millis(5),
    }
}

fn measure(keys: Vec<Key>, scale: SweepScale) -> CellTable {
    CellTable::measure(keys, scale, 5, &ParallelConfig::per_core())
}

#[test]
fn table1_rows_cover_all_devices_with_sane_ranges() {
    let rows = table1::rows(&measure(table1::keys(), tiny()));
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
    let table = measure(vec![fig2::key("SSD3")], tiny());
    let c = table.get(fig2::key("SSD3"));
    assert!(!c.power.is_empty());
    assert!(c.ios > 0);
    assert!(c.power.summary().is_some());
}

#[test]
fn fig3_grid_is_complete_and_caps_order_correctly() {
    let scale = SweepScale {
        runtime: SimDuration::from_millis(60),
        size_limit: 256 * 1024 * 1024,
        ramp: SimDuration::from_millis(10),
    };
    // Figure 5's cells are the QD1 half of Figure 3's: a table measures
    // each shared key once.
    let table = measure([fig3::keys(), fig5::keys()].concat(), scale);
    // 6 chunks x 2 depths x 3 states.
    assert_eq!(table.keys().len(), 36);
    // At QD64 / 2 MiB, deeper caps mean less (or equal) power.
    let p = |ps: u8| table.get(fig3::key(64, 2 * MIB, ps)).avg_power_w;
    assert!(p(1) <= p(0) * 1.02);
    assert!(p(2) <= p(1) * 1.02);
}

#[test]
fn fig4_panels_have_all_cells() {
    let keys: Vec<Key> = fig4::keys()
        .into_iter()
        .filter(|k| k.workload == Workload::SeqRead)
        .collect();
    assert_eq!(keys.len(), 18);
    let table = measure(keys.clone(), tiny());
    assert_eq!(table.keys().len(), 18);
    assert!(keys.iter().all(|&k| table.get(k).mibs() > 0.0));
}

#[test]
fn fig5_panel_reports_latencies_for_every_cell() {
    let table = measure(fig5::keys(), tiny());
    assert_eq!(table.keys().len(), 18);
    for &k in table.keys() {
        let c = table.get(k);
        assert!(c.avg_latency_us > 0.0);
        assert!(c.p99_latency_us >= c.avg_latency_us * 0.5);
    }
}

#[test]
fn fig6_max_deviation_is_zero_for_uncapped_reads() {
    let dev = fig6::max_deviation(&measure(fig6::keys(), tiny()));
    assert!(dev < 0.05, "read deviation {dev}");
}

#[test]
fn fig8_and_fig9_grids_cover_every_device() {
    assert_eq!(measure(fig8::keys(), tiny()).keys().len(), 4 * 6);
    let g9 = measure(fig9::keys(), tiny());
    assert_eq!(g9.keys().len(), 4 * 6);
    for &k in g9.keys() {
        assert!(g9.get(k).avg_power_w > 0.0);
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

#[test]
fn every_figure_key_lies_on_one_grid_of_371_cells() {
    let union: Vec<Key> = FIGURES.iter().flat_map(|f| keys(f)).collect();
    assert!(union.len() > 371, "the figures share cells");
    let cells = plan(&union);
    assert_eq!(cells.len(), 371);
    // Each distinct key is planned once, in canonical order: device in
    // Table 1 order, then grid index.
    for (i, (k, index)) in cells.iter().enumerate() {
        assert!(
            cells[..i].iter().all(|(other, _)| other != k),
            "{k:?} twice"
        );
        if let Some((next, next_index)) = cells.get(i + 1) {
            let pos = |d: &str| TABLE1_LABELS.iter().position(|l| *l == d);
            assert!((pos(k.device), index) < (pos(next.device), next_index));
        }
    }
    // Figure 10 is the whole random-write grid: 4 devices × 6 chunks ×
    // 6 depths × their power states (3 + 3 + 1 + 1).
    assert_eq!(plan(&fig10::keys()).len(), 288);
}

#[test]
#[should_panic(expected = "is not a cell of the fio grid")]
fn a_key_off_the_grid_is_refused() {
    let _ = plan(&[Key::new("SSD2", Workload::RandWrite, 8 * KIB, 64, 0)]);
}

#[test]
fn random_write_cells_equal_the_fig10_sweep() {
    let keys: Vec<Key> = ["table1", "fig2", "fig3", "fig5", "fig8"]
        .iter()
        .flat_map(|f| keys(f))
        .filter(|k| k.workload == Workload::RandWrite)
        .collect();
    let table = measure(keys.clone(), tiny());
    for device in TABLE1_LABELS {
        let sweep = fig10::device_sweep_with(device, tiny(), 5, &ParallelConfig::per_core());
        for k in keys.iter().filter(|k| k.device == device) {
            let p = sweep
                .iter()
                .find(|p| p.chunk == k.chunk && p.depth == k.depth && p.power_state.0 == k.ps)
                .expect("on the sweep");
            let c = table.get(*k);
            assert_eq!(c.ios, p.result.io.ios(), "{k:?}");
            assert_eq!(c.bytes, p.result.io.bytes(), "{k:?}");
            assert_eq!(
                c.avg_power_w.to_bits(),
                p.result.avg_power_w().to_bits(),
                "{k:?}"
            );
            assert_eq!(
                c.p99_latency_us.to_bits(),
                p.result.io.p99_latency_us().to_bits(),
                "{k:?}"
            );
        }
    }
}

#[test]
fn table_models_equal_the_sweep_models() {
    let cfg = ParallelConfig::per_core();
    let sweep: Vec<_> = TABLE1_LABELS
        .into_iter()
        .flat_map(|d| fig10::device_sweep_with(d, tiny(), 5, &cfg))
        .collect();
    assert_eq!(
        format!("{:?}", fig10::models_with(tiny(), 5, &cfg)),
        format!(
            "{:?}",
            powadapt_model::PowerThroughputModel::from_sweep(&sweep)
        )
    );
}
