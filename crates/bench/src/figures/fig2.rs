//! Figure 2: (a) SSD1 random-write power trace at millisecond resolution;
//! (b) the power distribution (violin) across all four devices for the same
//! workload (randwrite, 256 KiB chunks, queue depth 64).

use powadapt_device::{catalog, KIB};
use powadapt_io::{
    run_cells, run_experiment, ExperimentResult, JobSpec, ParallelConfig, SweepScale, Workload,
};

use crate::TABLE1_LABELS;

/// Runs the Figure 2 workload (randwrite 256 KiB QD64) on one device.
pub fn experiment(label: &str, scale: SweepScale, seed: u64) -> ExperimentResult {
    let mut dev = catalog::by_label(label, seed).expect("known label");
    let job = JobSpec::new(Workload::RandWrite)
        .block_size(256 * KIB)
        .io_depth(64)
        .runtime(scale.runtime)
        .size_limit(scale.size_limit)
        .ramp(scale.ramp)
        .seed(seed);
    run_experiment(dev.as_mut(), &job).expect("valid experiment")
}

/// Runs the Figure 2 workload on all four devices (paper order), fanned
/// across the given workers. Experiments are deterministic, so the results
/// are identical for any worker count.
pub fn experiments_with(
    scale: SweepScale,
    seed: u64,
    cfg: &ParallelConfig,
) -> Vec<ExperimentResult> {
    run_cells(&TABLE1_LABELS, cfg, |_, label| {
        experiment(label, scale, seed)
    })
}

/// Prints Figure 2a (the ms-scale trace) and 2b (per-device violins).
pub fn run(scale: SweepScale, seed: u64, cfg: &ParallelConfig) {
    // One parallel batch covers both panels: SSD1's result doubles as the
    // panel-(a) trace because experiments are deterministic.
    let results = experiments_with(scale, seed, cfg);
    println!("Figure 2a. SSD1 power usage over one experiment (randwrite 256 KiB, QD 64).");
    let r = &results[0];
    let n = r.power.len().min(1200);
    println!("  first {n} ms of the measurement window (t_ms, watts):");
    for (i, &w) in r.power.samples().iter().take(n).enumerate() {
        if i % 40 == 0 {
            println!("  {i:>5} ms  {w:>6.2} W");
        }
    }
    if let Some(s) = r.power.summary() {
        println!(
            "  variability: min {:.2} / mean {:.2} / max {:.2} W over {} samples",
            s.min(),
            s.mean(),
            s.max(),
            s.len()
        );
    }
    println!();

    println!("Figure 2b. Power distribution across devices (same workload).");
    println!(
        "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>8}   violin (5 bins)",
        "Device", "min", "p25", "median", "mean", "max"
    );
    for (label, r) in TABLE1_LABELS.iter().zip(&results) {
        let s = r.power.summary().expect("non-empty trace");
        let (_, counts) = s.violin_bins(5);
        let total: usize = counts.iter().sum();
        let bars: Vec<String> = counts
            .iter()
            .map(|&c| {
                let frac = c as f64 / total as f64;
                "#".repeat((frac * 20.0).round() as usize)
            })
            .collect();
        println!(
            "  {:<6} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}   [{}]",
            label,
            s.min(),
            s.percentile(25.0),
            s.median(),
            s.mean(),
            s.max(),
            bars.join("|")
        );
    }
    println!();
    println!("Paper: substantial ms-scale variability; median and mean nearly overlap.");
}
