//! Figure 10: the normalized power-throughput model for random writes —
//! (a) across devices, (b) SSD2 across power states — plus the §3.3
//! configuration-selection case study.

use powadapt_device::{catalog, PowerStateId, GIB, KIB};
use powadapt_io::{
    full_sweep_with, ParallelConfig, SweepPoint, SweepScale, Workload, PAPER_CHUNKS, PAPER_DEPTHS,
};
use powadapt_model::{best_under_power_budget, ConfigPoint, PowerThroughputModel};
use powadapt_sim::units::Micros;

use crate::figures::table::{keys_of, power_states};
use crate::figures::{CellTable, Key};
use crate::TABLE1_LABELS;

/// One device's random-write grid: all chunk sizes × all depths × all of
/// its power states, in sweep order.
fn device_keys(label: &'static str) -> Vec<Key> {
    let states = power_states(label);
    keys_of(
        label,
        &[Workload::RandWrite],
        &PAPER_CHUNKS,
        &PAPER_DEPTHS,
        &states,
    )
}

/// The cells Figure 10 reads: every device's random-write grid.
pub fn keys() -> Vec<Key> {
    TABLE1_LABELS.into_iter().flat_map(device_keys).collect()
}

/// The per-device models behind Figure 10a, fitted to the table's
/// random-write grid in sweep order.
pub fn models(table: &CellTable) -> Vec<PowerThroughputModel> {
    TABLE1_LABELS
        .into_iter()
        .filter_map(|label| {
            let points = device_keys(label)
                .into_iter()
                .map(|k| {
                    let c = table.get(k);
                    ConfigPoint::new(
                        label,
                        k.workload,
                        PowerStateId(k.ps),
                        k.chunk,
                        k.depth,
                        c.avg_power_w,
                        c.throughput_bps,
                    )
                    .with_latencies(Micros::new(c.avg_latency_us), Micros::new(c.p99_latency_us))
                })
                .collect();
            PowerThroughputModel::from_points(label, points)
        })
        .collect()
}

/// Runs the full random-write sweep for one device through
/// `full_sweep_with`, fanned across the workers of `cfg`: the reference
/// the cell table's random-write cells are checked against.
pub fn device_sweep_with(
    label: &str,
    scale: SweepScale,
    seed: u64,
    cfg: &ParallelConfig,
) -> Vec<SweepPoint> {
    full_sweep_with(
        || catalog::by_label(label, seed).expect("known label"),
        &[Workload::RandWrite],
        &PAPER_CHUNKS,
        &PAPER_DEPTHS,
        &power_states(label),
        scale,
        seed,
        cfg,
    )
    .expect("sweep runs")
}

/// Measures Figure 10's cells, fanned across the workers of `cfg`, and
/// fits the per-device models behind Figure 10a.
pub fn models_with(
    scale: SweepScale,
    seed: u64,
    cfg: &ParallelConfig,
) -> Vec<PowerThroughputModel> {
    models(&CellTable::measure(keys(), scale, seed, cfg))
}

/// Prints both panels and the case study.
pub fn run(table: &CellTable) {
    let models = models(table);

    println!("Figure 10a. Normalized power-throughput model, random write, all devices.");
    println!("  (normalized throughput, normalized power) per configuration:");
    for m in &models {
        println!(
            "  {} -> dynamic range {:.1}% of max power",
            m,
            100.0 * m.power_dynamic_range()
        );
        for (i, (t, p)) in m.normalized().iter().enumerate() {
            if i % 12 == 0 {
                println!("    ({t:.2}, {p:.2})");
            }
        }
    }
    println!();

    println!("Figure 10b. SSD2 model split by power state.");
    let ssd2 = models
        .iter()
        .find(|m| m.device() == "SSD2")
        .expect("SSD2 swept");
    for ps in 0u8..3 {
        let pts: Vec<(f64, f64)> = ssd2
            .points()
            .iter()
            .filter(|p| p.power_state() == PowerStateId(ps))
            .map(|p| {
                (
                    p.throughput_bps() / ssd2.max_throughput_bps(),
                    p.power_w() / ssd2.max_power_w(),
                )
            })
            .collect();
        let max_p = pts.iter().map(|&(_, p)| p).fold(0.0, f64::max);
        let max_t = pts.iter().map(|&(t, _)| t).fold(0.0, f64::max);
        println!(
            "  ps{ps}: {} points, reaches up to ({max_t:.2} thr, {max_p:.2} power)",
            pts.len()
        );
    }
    println!();

    println!("Headline metrics:");
    for m in &models {
        println!(
            "  {}: power dynamic range {:.1}%, min normalized throughput {:.1}%",
            m.device(),
            100.0 * m.power_dynamic_range(),
            100.0 * m.min_normalized_throughput()
        );
    }
    println!("Paper: SSD2 dynamic range 59.4% of max power; HDD throughput can drop to 4% of max.");
    println!();

    // §3.3 case study: SSD1, 20 % power reduction from the paper's
    // operating point (256 KiB chunks at queue depth 64, ps0).
    println!("Sec. 3.3 case study: SSD1 under a 20% power reduction.");
    let ssd1 = models
        .iter()
        .find(|m| m.device() == "SSD1")
        .expect("SSD1 swept");
    let from = ssd1
        .points()
        .iter()
        .find(|p| p.chunk() == 256 * KIB && p.depth() == 64 && p.power_state() == PowerStateId(0))
        .expect("paper operating point swept")
        .clone();
    println!(
        "  operating point: bs={}KiB qd={} at {:.2} GiB/s, {:.2} W",
        from.chunk() / KIB,
        from.depth(),
        from.throughput_bps() / GIB as f64,
        from.power_w()
    );
    let budget = from.power_w() * 0.8;
    match best_under_power_budget(ssd1, budget) {
        Some(to) => {
            let thr_cut = 1.0 - to.throughput_bps() / from.throughput_bps();
            println!(
                "  model suggests: bs={}KiB qd={} ({}) at {:.2} W, -{:.0}% throughput",
                to.chunk() / KIB,
                to.depth(),
                to.power_state(),
                to.power_w(),
                100.0 * thr_cut
            );
            println!(
                "  best-effort load to curtail: {:.2} GiB/s",
                (from.throughput_bps() - to.throughput_bps()).max(0.0) / GIB as f64
            );
        }
        None => println!("  no configuration fits the reduced budget"),
    }
    println!("Paper: QD64/256 KiB at 3.3 GiB/s, 8.19 W -> QD1/256 KiB, -40% throughput,");
    println!("       curtail 1.3 GiB/s of best-effort load.");
}
