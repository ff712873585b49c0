//! Figure 4: SSD2 throughput under different power states (queue depth 64):
//! (a) sequential writes — big drops under caps; (b) sequential reads —
//! minimal drop.

use powadapt_device::{catalog, PowerStateId, KIB};
use powadapt_io::{
    run_cells, run_fresh, JobSpec, ParallelConfig, SweepScale, Workload, PAPER_CHUNKS,
};
use powadapt_sim::SimRng;

/// Measured throughput for one (workload, chunk, state) cell, in MiB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Chunk size in bytes.
    pub chunk: u64,
    /// Power state id.
    pub ps: u8,
    /// Throughput in MiB/s.
    pub mibs: f64,
}

/// Measures one panel (seq write or seq read) across chunks × states,
/// fanned across the workers of `cfg`. Cells are seeded by their stable
/// index, so the result is bit-identical for any worker count.
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
            .io_depth(64)
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
            mibs: r.io.throughput_mibs(),
        }
    })
}

fn print_panel(title: &str, cells: &[Cell]) {
    println!("{title}");
    println!(
        "  {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "chunk", "ps0", "ps1", "ps2", "ps1/ps0", "ps2/ps0"
    );
    for &chunk in &PAPER_CHUNKS {
        let v: Vec<f64> = (0u8..3)
            .map(|ps| {
                cells
                    .iter()
                    .find(|c| c.chunk == chunk && c.ps == ps)
                    .expect("cell measured")
                    .mibs
            })
            .collect();
        println!(
            "  {:>7}KiB {:>9.0} {:>9.0} {:>9.0} {:>8.0}% {:>8.0}%",
            chunk / KIB,
            v[0],
            v[1],
            v[2],
            100.0 * v[1] / v[0],
            100.0 * v[2] / v[0]
        );
    }
    println!();
}

/// Prints both panels and the headline ratios.
pub fn run(scale: SweepScale, seed: u64, cfg: &ParallelConfig) {
    let writes = panel_with(Workload::SeqWrite, scale, seed, cfg);
    let reads = panel_with(Workload::SeqRead, scale, seed, cfg);
    print_panel(
        "Figure 4a. SSD2 sequential write throughput (MiB/s), QD 64.",
        &writes,
    );
    print_panel(
        "Figure 4b. SSD2 sequential read throughput (MiB/s), QD 64.",
        &reads,
    );
    println!("Paper: seq writes at ps1 ~ 74% and ps2 ~ 55% of ps0;");
    println!("       seq reads show minimal drop under either cap.");
}
