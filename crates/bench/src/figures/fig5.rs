//! Figures 5 and 6: SSD2 latency at queue depth 1 under power states —
//! random writes degrade (avg up to ~2×, p99 up to ~6.2×); random reads
//! don't change at all.

use powadapt_device::KIB;
use powadapt_io::{Workload, PAPER_CHUNKS};

use crate::figures::table::{keys_of, power_states};
use crate::figures::{Cell, CellTable, Key};

/// The SSD2 QD1 cell at these coordinates.
fn key(workload: Workload, chunk: u64, ps: u8) -> Key {
    Key::new("SSD2", workload, chunk, 1, ps)
}

/// One workload's panel cells: 6 chunks × SSD2's 3 states.
pub fn panel_keys(workload: Workload) -> Vec<Key> {
    keys_of(
        "SSD2",
        &[workload],
        &PAPER_CHUNKS,
        &[1],
        &power_states("SSD2"),
    )
}

/// The cells Figure 5 reads: the random-write panel.
pub fn keys() -> Vec<Key> {
    panel_keys(Workload::RandWrite)
}

/// `pick` of the `(workload, chunk, ps)` cell relative to its ps0 cell.
pub fn ratio_to_ps0(
    table: &CellTable,
    workload: Workload,
    chunk: u64,
    ps: u8,
    pick: fn(&Cell) -> f64,
) -> f64 {
    pick(table.get(key(workload, chunk, ps))) / pick(table.get(key(workload, chunk, 0)))
}

/// Prints one workload's panel of `pick`, normalized to ps0.
pub fn print_normalized(
    title: &str,
    table: &CellTable,
    workload: Workload,
    pick: fn(&Cell) -> f64,
) {
    println!("{title}");
    println!("  {:>10} {:>8} {:>8} {:>8}", "chunk", "ps0", "ps1", "ps2");
    for chunk in PAPER_CHUNKS {
        println!(
            "  {:>7}KiB {:>7.2}x {:>7.2}x {:>7.2}x",
            chunk / KIB,
            1.0,
            ratio_to_ps0(table, workload, chunk, 1, pick),
            ratio_to_ps0(table, workload, chunk, 2, pick)
        );
    }
    println!();
}

/// The largest ps2/ps0 ratio of `pick` over the random-write chunks.
pub fn max_ps2_ratio(table: &CellTable, pick: fn(&Cell) -> f64) -> f64 {
    PAPER_CHUNKS
        .into_iter()
        .map(|chunk| ratio_to_ps0(table, Workload::RandWrite, chunk, 2, pick))
        .fold(0.0, f64::max)
}

/// Prints Figure 5 (randwrite latency, normalized to ps0).
pub fn run(table: &CellTable) {
    let avg: fn(&Cell) -> f64 = |c| c.avg_latency_us;
    let p99: fn(&Cell) -> f64 = |c| c.p99_latency_us;
    print_normalized(
        "Figure 5a. SSD2 random write AVG latency (normalized to ps0), QD 1.",
        table,
        Workload::RandWrite,
        avg,
    );
    print_normalized(
        "Figure 5b. SSD2 random write P99 latency (normalized to ps0), QD 1.",
        table,
        Workload::RandWrite,
        p99,
    );
    println!(
        "Measured: avg up to {:.2}x, p99 up to {:.2}x at ps2.",
        max_ps2_ratio(table, avg),
        max_ps2_ratio(table, p99)
    );
    println!("Paper:    avg up to ~2x, p99 up to 6.19x at ps2.");
}
