//! Figure 4: SSD2 throughput under different power states (queue depth 64):
//! (a) sequential writes — big drops under caps; (b) sequential reads —
//! minimal drop.

use powadapt_device::KIB;
use powadapt_io::{Workload, PAPER_CHUNKS};

use crate::figures::table::{keys_of, power_states};
use crate::figures::{CellTable, Key};

/// The workloads of panels (a) and (b).
pub const PANELS: [Workload; 2] = [Workload::SeqWrite, Workload::SeqRead];

/// The SSD2 QD64 cell at these coordinates.
fn key(workload: Workload, chunk: u64, ps: u8) -> Key {
    Key::new("SSD2", workload, chunk, 64, ps)
}

/// The cells Figure 4 reads: both panels × 6 chunks × SSD2's 3 states.
pub fn keys() -> Vec<Key> {
    keys_of("SSD2", &PANELS, &PAPER_CHUNKS, &[64], &power_states("SSD2"))
}

fn print_panel(title: &str, table: &CellTable, workload: Workload) {
    println!("{title}");
    println!(
        "  {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "chunk", "ps0", "ps1", "ps2", "ps1/ps0", "ps2/ps0"
    );
    for &chunk in &PAPER_CHUNKS {
        let v: Vec<f64> = (0u8..3)
            .map(|ps| table.get(key(workload, chunk, ps)).mibs())
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
pub fn run(table: &CellTable) {
    print_panel(
        "Figure 4a. SSD2 sequential write throughput (MiB/s), QD 64.",
        table,
        Workload::SeqWrite,
    );
    print_panel(
        "Figure 4b. SSD2 sequential read throughput (MiB/s), QD 64.",
        table,
        Workload::SeqRead,
    );
    println!("Paper: seq writes at ps1 ~ 74% and ps2 ~ 55% of ps0;");
    println!("       seq reads show minimal drop under either cap.");
}
