//! Figure 9: random-read power and throughput as IO depth varies
//! (4 KiB chunks), across all four devices.

use powadapt_device::KIB;
use powadapt_io::{Workload, PAPER_DEPTHS};

use crate::figures::{Cell, CellTable, Key};
use crate::TABLE1_LABELS;

/// The random-read 4 KiB ps0 cell of `label` at `depth`.
fn key(label: &'static str, depth: usize) -> Key {
    Key::new(label, Workload::RandRead, 4 * KIB, depth, 0)
}

/// The cells Figure 9 reads: every device × 6 depths.
pub fn keys() -> Vec<Key> {
    let per_device = |d| PAPER_DEPTHS.map(|depth| key(d, depth));
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
        println!("Figure 9{panel}. Random read {title} vs IO depth (4 KiB chunks).");
        print!("  {:>8}", "depth");
        for label in TABLE1_LABELS {
            print!(" {label:>9}");
        }
        println!();
        for &depth in &PAPER_DEPTHS {
            print!("  {depth:>8}");
            for label in TABLE1_LABELS {
                print!(" {:>9.1}", pick(table.get(key(label, depth))));
            }
            println!();
        }
        println!();
    }

    println!("Depth 1 relative to depth 64:");
    for label in TABLE1_LABELS {
        let qd1 = table.get(key(label, 1));
        let qd64 = table.get(key(label, 64));
        println!(
            "  {label}: power {:.0}%, throughput {:.0}%",
            100.0 * qd1.avg_power_w / qd64.avg_power_w,
            100.0 * qd1.mibs() / qd64.mibs()
        );
    }
    println!(
        "Paper: depth 1 consumes up to 40% less power but may provide only ~10% of throughput."
    );
}
