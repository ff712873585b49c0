//! Figure 3: SSD2 random-write average power under different power states,
//! across chunk sizes, at queue depths 64 (a) and 1 (b).

use powadapt_device::{catalog, PowerStateId, KIB};
use powadapt_io::{
    run_cells, run_fresh, JobSpec, ParallelConfig, SweepScale, Workload, PAPER_CHUNKS,
};
use powadapt_sim::SimRng;

/// One measured cell of the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Chunk size in bytes.
    pub chunk: u64,
    /// Queue depth.
    pub depth: usize,
    /// Power state id.
    pub ps: u8,
    /// Average power in watts.
    pub power_w: f64,
}

/// Measures the full grid: 6 chunks × depths {64, 1} × states {0, 1, 2},
/// fanned across the workers of `cfg`. Cells are seeded by their stable
/// index, so the result is bit-identical for any worker count.
pub fn grid_with(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> Vec<Cell> {
    let mut coords = Vec::new();
    for &depth in &[64usize, 1] {
        for &chunk in &PAPER_CHUNKS {
            for ps in 0u8..3 {
                coords.push((depth, chunk, ps));
            }
        }
    }
    run_cells(&coords, cfg, |i, &(depth, chunk, ps)| {
        let job = JobSpec::new(Workload::RandWrite)
            .block_size(chunk)
            .io_depth(depth)
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
            depth,
            ps,
            power_w: r.avg_power_w(),
        }
    })
}

/// Prints both panels of the figure.
pub fn run(scale: SweepScale, seed: u64, cfg: &ParallelConfig) {
    let cells = grid_with(scale, seed, cfg);
    for (panel, depth) in [("a", 64usize), ("b", 1usize)] {
        println!("Figure 3{panel}. SSD2 randwrite average power (W), queue depth {depth}.");
        println!("  {:>10} {:>8} {:>8} {:>8}", "chunk", "ps0", "ps1", "ps2");
        for &chunk in &PAPER_CHUNKS {
            let v: Vec<f64> = (0u8..3)
                .map(|ps| {
                    cells
                        .iter()
                        .find(|c| c.chunk == chunk && c.depth == depth && c.ps == ps)
                        .expect("cell measured")
                        .power_w
                })
                .collect();
            println!(
                "  {:>7}KiB {:>8.2} {:>8.2} {:>8.2}",
                chunk / KIB,
                v[0],
                v[1],
                v[2]
            );
        }
        println!();
    }
    println!("Paper: caps hold (ps1 <= 12 W, ps2 <= 10 W); power grows with chunk size;");
    println!("       at QD1 the states only diverge once large chunks create enough load.");
}
