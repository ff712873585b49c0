//! Figure 8: random-write power and throughput as chunk size varies
//! (queue depth 64), across all four devices.

use powadapt_device::{catalog, PowerStateId, KIB};
use powadapt_io::{
    run_cells, run_fresh, JobSpec, ParallelConfig, SweepScale, Workload, PAPER_CHUNKS,
};
use powadapt_sim::SimRng;

use crate::TABLE1_LABELS;

/// One measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Device label.
    pub device: String,
    /// Chunk size in bytes.
    pub chunk: u64,
    /// Average power in watts.
    pub power_w: f64,
    /// Throughput in MiB/s.
    pub mibs: f64,
}

/// Measures the chunk sweep for every device, fanned across the workers
/// of `cfg`. Cells are seeded by their stable index, so the result is
/// bit-identical for any worker count.
pub fn grid_with(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> Vec<Cell> {
    let mut coords = Vec::new();
    for label in TABLE1_LABELS {
        for &chunk in &PAPER_CHUNKS {
            coords.push((label, chunk));
        }
    }
    run_cells(&coords, cfg, |i, &(label, chunk)| {
        let job = JobSpec::new(Workload::RandWrite)
            .block_size(chunk)
            .io_depth(64)
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
            chunk,
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
        println!("Figure 8{panel}. Random write {title} vs chunk size (QD 64).");
        print!("  {:>10}", "chunk");
        for label in TABLE1_LABELS {
            print!(" {label:>9}");
        }
        println!();
        for &chunk in &PAPER_CHUNKS {
            print!("  {:>7}KiB", chunk / KIB);
            for label in TABLE1_LABELS {
                let c = cells
                    .iter()
                    .find(|c| c.device == label && c.chunk == chunk)
                    .expect("cell measured");
                print!(" {:>9.1}", pick(c));
            }
            println!();
        }
        println!();
    }

    // Headline ratios: 4 KiB vs 2 MiB.
    println!("4 KiB relative to 2 MiB:");
    for label in TABLE1_LABELS {
        let small = cells
            .iter()
            .find(|c| c.device == label && c.chunk == PAPER_CHUNKS[0])
            .expect("cell");
        let large = cells
            .iter()
            .find(|c| {
                c.device == label
                    && c.chunk == *PAPER_CHUNKS.last().expect("PAPER_CHUNKS is non-empty")
            })
            .expect("cell");
        println!(
            "  {label}: power {:.0}%, throughput {:.0}%",
            100.0 * small.power_w / large.power_w,
            100.0 * small.mibs / large.mibs
        );
    }
    println!("Paper: 4 KiB chunks consume up to 30% less power but lose up to ~50% throughput.");
}
