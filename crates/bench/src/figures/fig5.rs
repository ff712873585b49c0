//! Figures 5 and 6: SSD2 latency at queue depth 1 under power states —
//! random writes degrade (avg up to ~2×, p99 up to ~6.2×); random reads
//! don't change at all.

use powadapt_device::{catalog, PowerStateId, KIB};
use powadapt_io::{
    run_cells, run_fresh, JobSpec, ParallelConfig, SweepScale, Workload, PAPER_CHUNKS,
};
use powadapt_sim::SimRng;

/// Latency measurements of one (chunk, state) cell, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Chunk size in bytes.
    pub chunk: u64,
    /// Power state id.
    pub ps: u8,
    /// Average latency in µs.
    pub avg_us: f64,
    /// 99th-percentile latency in µs.
    pub p99_us: f64,
}

/// Measures one workload across chunks × states at queue depth 1, fanned
/// across the workers of `cfg`. Cells are seeded by their stable index, so
/// the result is bit-identical for any worker count.
pub fn panel_with(
    workload: Workload,
    scale: SweepScale,
    seed: u64,
    cfg: &ParallelConfig,
) -> Vec<Cell> {
    let mut coords = Vec::new();
    for &chunk in &PAPER_CHUNKS {
        for ps in 0u8..3 {
            coords.push((chunk, ps));
        }
    }
    run_cells(&coords, cfg, |i, &(chunk, ps)| {
        let job = JobSpec::new(workload)
            .block_size(chunk)
            .io_depth(1)
            .runtime(scale.runtime)
            .size_limit(scale.size_limit)
            .ramp(scale.ramp)
            .seed(SimRng::stream_seed(seed, i as u64));
        let r = run_fresh(
            || Box::new(catalog::ssd2_d7_p5510(seed)),
            PowerStateId(ps),
            &job,
        )
        .expect("valid experiment");
        Cell {
            chunk,
            ps,
            avg_us: r.io.avg_latency_us(),
            p99_us: r.io.p99_latency_us(),
        }
    })
}

fn print_normalized(title: &str, cells: &[Cell], pick: fn(&Cell) -> f64) {
    println!("{title}");
    println!("  {:>10} {:>8} {:>8} {:>8}", "chunk", "ps0", "ps1", "ps2");
    for &chunk in &PAPER_CHUNKS {
        let v: Vec<f64> = (0u8..3)
            .map(|ps| {
                pick(
                    cells
                        .iter()
                        .find(|c| c.chunk == chunk && c.ps == ps)
                        .expect("cell measured"),
                )
            })
            .collect();
        println!(
            "  {:>7}KiB {:>7.2}x {:>7.2}x {:>7.2}x",
            chunk / KIB,
            1.0,
            v[1] / v[0],
            v[2] / v[0]
        );
    }
    println!();
}

/// Prints Figure 5 (randwrite latency, normalized to ps0).
pub fn run(scale: SweepScale, seed: u64, cfg: &ParallelConfig) {
    let cells = panel_with(Workload::RandWrite, scale, seed, cfg);
    print_normalized(
        "Figure 5a. SSD2 random write AVG latency (normalized to ps0), QD 1.",
        &cells,
        |c| c.avg_us,
    );
    print_normalized(
        "Figure 5b. SSD2 random write P99 latency (normalized to ps0), QD 1.",
        &cells,
        |c| c.p99_us,
    );
    let max_avg = PAPER_CHUNKS
        .iter()
        .map(|&ch| {
            let v0 = cells
                .iter()
                .find(|c| c.chunk == ch && c.ps == 0)
                .expect("every (chunk, ps) cell was swept above")
                .avg_us;
            let v2 = cells
                .iter()
                .find(|c| c.chunk == ch && c.ps == 2)
                .expect("every (chunk, ps) cell was swept above")
                .avg_us;
            v2 / v0
        })
        .fold(0.0, f64::max);
    let max_p99 = PAPER_CHUNKS
        .iter()
        .map(|&ch| {
            let v0 = cells
                .iter()
                .find(|c| c.chunk == ch && c.ps == 0)
                .expect("every (chunk, ps) cell was swept above")
                .p99_us;
            let v2 = cells
                .iter()
                .find(|c| c.chunk == ch && c.ps == 2)
                .expect("every (chunk, ps) cell was swept above")
                .p99_us;
            v2 / v0
        })
        .fold(0.0, f64::max);
    println!("Measured: avg up to {max_avg:.2}x, p99 up to {max_p99:.2}x at ps2.");
    println!("Paper:    avg up to ~2x, p99 up to 6.19x at ps2.");
}
