//! Figure 9: random-read power and throughput as IO depth varies
//! (4 KiB chunks), across all four devices.

use powadapt_device::{catalog, PowerStateId, KIB};
use powadapt_io::{
    run_cells, run_fresh, JobSpec, ParallelConfig, SweepScale, Workload, PAPER_DEPTHS,
};
use powadapt_sim::SimRng;

use crate::TABLE1_LABELS;

/// One measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Device label.
    pub device: String,
    /// Queue depth.
    pub depth: usize,
    /// Average power in watts.
    pub power_w: f64,
    /// Throughput in MiB/s.
    pub mibs: f64,
}

/// Measures the depth sweep for every device, fanned across the workers
/// of `cfg`. Cells are seeded by their stable index, so the result is
/// bit-identical for any worker count.
pub fn grid_with(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> Vec<Cell> {
    let mut coords = Vec::new();
    for label in TABLE1_LABELS {
        for &depth in &PAPER_DEPTHS {
            coords.push((label, depth));
        }
    }
    run_cells(&coords, cfg, |i, &(label, depth)| {
        let job = JobSpec::new(Workload::RandRead)
            .block_size(4 * KIB)
            .io_depth(depth)
            .runtime(scale.runtime)
            .size_limit(scale.size_limit)
            .ramp(scale.ramp)
            .seed(SimRng::stream_seed(seed, i as u64));
        let r = run_fresh(
            || catalog::by_label(label, seed).expect("known label"),
            PowerStateId(0),
            &job,
        )
        .expect("valid experiment");
        Cell {
            device: label.to_string(),
            depth,
            power_w: r.avg_power_w(),
            mibs: r.io.throughput_mibs(),
        }
    })
}

/// Prints both panels of the figure.
pub fn run(scale: SweepScale, seed: u64, cfg: &ParallelConfig) {
    let cells = grid_with(scale, seed, cfg);
    for (panel, title, pick) in [
        (
            "a",
            "average power (W)",
            (|c: &Cell| c.power_w) as fn(&Cell) -> f64,
        ),
        ("b", "throughput (MiB/s)", |c: &Cell| c.mibs),
    ] {
        println!("Figure 9{panel}. Random read {title} vs IO depth (4 KiB chunks).");
        print!("  {:>8}", "depth");
        for label in TABLE1_LABELS {
            print!(" {label:>9}");
        }
        println!();
        for &depth in &PAPER_DEPTHS {
            print!("  {depth:>8}");
            for label in TABLE1_LABELS {
                let c = cells
                    .iter()
                    .find(|c| c.device == label && c.depth == depth)
                    .expect("cell measured");
                print!(" {:>9.1}", pick(c));
            }
            println!();
        }
        println!();
    }

    println!("Depth 1 relative to depth 64:");
    for label in TABLE1_LABELS {
        let qd1 = cells
            .iter()
            .find(|c| c.device == label && c.depth == 1)
            .expect("cell");
        let qd64 = cells
            .iter()
            .find(|c| c.device == label && c.depth == 64)
            .expect("cell");
        println!(
            "  {label}: power {:.0}%, throughput {:.0}%",
            100.0 * qd1.power_w / qd64.power_w,
            100.0 * qd1.mibs / qd64.mibs
        );
    }
    println!(
        "Paper: depth 1 consumes up to 40% less power but may provide only ~10% of throughput."
    );
}
