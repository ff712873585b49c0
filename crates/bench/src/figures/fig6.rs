//! Figure 6: SSD2 random read latency (queue depth 1) across power states —
//! the "non-trade-off": reads at QD1 don't create enough load to be capped.

use powadapt_io::{ParallelConfig, SweepScale, Workload, PAPER_CHUNKS};

use crate::figures::fig5;

/// Prints Figure 6 (randread latency, normalized to ps0) and the maximum
/// deviation across all cells.
pub fn run(scale: SweepScale, seed: u64, cfg: &ParallelConfig) {
    let cells = fig5::panel_with(Workload::RandRead, scale, seed, cfg);

    for (panel, pick) in [
        (
            "a (avg)",
            (|c: &fig5::Cell| c.avg_us) as fn(&fig5::Cell) -> f64,
        ),
        ("b (p99)", |c: &fig5::Cell| c.p99_us),
    ] {
        println!("Figure 6{panel}. SSD2 random read latency (normalized to ps0), QD 1.");
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
                chunk / 1024,
                1.0,
                v[1] / v[0],
                v[2] / v[0]
            );
        }
        println!();
    }

    let max_dev = max_deviation(&cells);
    println!(
        "Measured: max deviation from ps0 across all cells: {:.1}%.",
        100.0 * max_dev
    );
    println!("Paper:    no noticeable difference between power states.");
}

/// Largest relative deviation of any capped cell from its ps0 baseline.
pub fn max_deviation(cells: &[fig5::Cell]) -> f64 {
    let mut max_dev = 0.0f64;
    for &chunk in &PAPER_CHUNKS {
        let base = cells
            .iter()
            .find(|c| c.chunk == chunk && c.ps == 0)
            .expect("baseline measured");
        for ps in 1u8..3 {
            let c = cells
                .iter()
                .find(|c| c.chunk == chunk && c.ps == ps)
                .expect("cell measured");
            max_dev = max_dev
                .max((c.avg_us / base.avg_us - 1.0).abs())
                .max((c.p99_us / base.p99_us - 1.0).abs());
        }
    }
    max_dev
}
