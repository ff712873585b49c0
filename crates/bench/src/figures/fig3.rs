//! Figure 3: SSD2 random-write average power under different power states,
//! across chunk sizes, at queue depths 64 (a) and 1 (b).

use powadapt_device::KIB;
use powadapt_io::{Workload, PAPER_CHUNKS};

use crate::figures::table::{keys_of, power_states};
use crate::figures::{CellTable, Key};

/// The queue depths of panels (a) and (b).
const DEPTHS: [usize; 2] = [64, 1];

/// The SSD2 random-write cell at these coordinates.
pub fn key(depth: usize, chunk: u64, ps: u8) -> Key {
    Key::new("SSD2", Workload::RandWrite, chunk, depth, ps)
}

/// The cells Figure 3 reads: 2 depths × 6 chunks × SSD2's 3 states.
pub fn keys() -> Vec<Key> {
    let states = power_states("SSD2");
    DEPTHS
        .into_iter()
        .flat_map(|d| keys_of("SSD2", &[Workload::RandWrite], &PAPER_CHUNKS, &[d], &states))
        .collect()
}

/// Prints both panels of the figure.
pub fn run(table: &CellTable) {
    for (panel, depth) in ["a", "b"].into_iter().zip(DEPTHS) {
        println!("Figure 3{panel}. SSD2 randwrite average power (W), queue depth {depth}.");
        println!("  {:>10} {:>8} {:>8} {:>8}", "chunk", "ps0", "ps1", "ps2");
        for &chunk in &PAPER_CHUNKS {
            let v: Vec<f64> = (0u8..3)
                .map(|ps| table.get(key(depth, chunk, ps)).avg_power_w)
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
