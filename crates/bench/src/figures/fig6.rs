//! Figure 6: SSD2 random read latency (queue depth 1) across power states —
//! the "non-trade-off": reads at QD1 don't create enough load to be capped.

use powadapt_io::{Workload, PAPER_CHUNKS};

use crate::figures::{fig5, Cell, CellTable, Key};

/// The cells Figure 6 reads: the random-read panel of Figure 5's grid.
pub fn keys() -> Vec<Key> {
    fig5::panel_keys(Workload::RandRead)
}

/// Prints Figure 6 (randread latency, normalized to ps0) and the maximum
/// deviation across all cells.
pub fn run(table: &CellTable) {
    for (panel, pick) in [
        ("a (avg)", (|c: &Cell| c.avg_latency_us) as fn(&Cell) -> f64),
        ("b (p99)", |c: &Cell| c.p99_latency_us),
    ] {
        fig5::print_normalized(
            &format!("Figure 6{panel}. SSD2 random read latency (normalized to ps0), QD 1."),
            table,
            Workload::RandRead,
            pick,
        );
    }

    println!(
        "Measured: max deviation from ps0 across all cells: {:.1}%.",
        100.0 * max_deviation(table)
    );
    println!("Paper:    no noticeable difference between power states.");
}

/// Largest relative deviation of any capped read cell from its ps0
/// baseline, in average or p99 latency.
pub fn max_deviation(table: &CellTable) -> f64 {
    let mut max_dev = 0.0f64;
    for chunk in PAPER_CHUNKS {
        for ps in 1u8..3 {
            for pick in [
                (|c: &Cell| c.avg_latency_us) as fn(&Cell) -> f64,
                |c: &Cell| c.p99_latency_us,
            ] {
                let r = fig5::ratio_to_ps0(table, Workload::RandRead, chunk, ps, pick);
                max_dev = max_dev.max((r - 1.0).abs());
            }
        }
    }
    max_dev
}
