//! Figure 8: random-write power and throughput as chunk size varies
//! (queue depth 64), across all four devices.

use powadapt_device::KIB;
use powadapt_io::{Workload, PAPER_CHUNKS};

use crate::figures::{Cell, CellTable, Key};
use crate::TABLE1_LABELS;

/// The random-write QD64 ps0 cell of `label` at `chunk`.
fn key(label: &'static str, chunk: u64) -> Key {
    Key::new(label, Workload::RandWrite, chunk, 64, 0)
}

/// The cells Figure 8 reads: every device × 6 chunks.
pub fn keys() -> Vec<Key> {
    let per_device = |d| PAPER_CHUNKS.map(|chunk| key(d, chunk));
    TABLE1_LABELS.into_iter().flat_map(per_device).collect()
}

/// Prints both panels of the figure.
pub fn run(table: &CellTable) {
    for (panel, title, pick) in [
        (
            "a",
            "average power (W)",
            (|c: &Cell| c.avg_power_w) as fn(&Cell) -> f64,
        ),
        ("b", "throughput (MiB/s)", Cell::mibs),
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
                print!(" {:>9.1}", pick(table.get(key(label, chunk))));
            }
            println!();
        }
        println!();
    }

    // Headline ratios: 4 KiB vs 2 MiB.
    println!("4 KiB relative to 2 MiB:");
    for label in TABLE1_LABELS {
        let small = table.get(key(label, PAPER_CHUNKS[0]));
        let large = table.get(key(label, PAPER_CHUNKS[PAPER_CHUNKS.len() - 1]));
        println!(
            "  {label}: power {:.0}%, throughput {:.0}%",
            100.0 * small.avg_power_w / large.avg_power_w,
            100.0 * small.mibs() / large.mibs()
        );
    }
    println!("Paper: 4 KiB chunks consume up to 30% less power but lose up to ~50% throughput.");
}
