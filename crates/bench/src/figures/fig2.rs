//! Figure 2: (a) SSD1 random-write power trace at millisecond resolution;
//! (b) the power distribution (violin) across all four devices for the same
//! workload (randwrite, 256 KiB chunks, queue depth 64).

use powadapt_device::KIB;
use powadapt_io::Workload;

use crate::figures::{CellTable, Key};
use crate::TABLE1_LABELS;

/// The Figure 2 workload (randwrite 256 KiB QD64) on one device.
pub fn key(label: &'static str) -> Key {
    Key::new(label, Workload::RandWrite, 256 * KIB, 64, 0)
}

/// The cells Figure 2 reads: its workload on all four devices.
pub fn keys() -> Vec<Key> {
    TABLE1_LABELS.map(key).to_vec()
}

/// Prints Figure 2a (SSD1's ms-scale trace) and 2b (per-device violins).
pub fn run(table: &CellTable) {
    println!("Figure 2a. SSD1 power usage over one experiment (randwrite 256 KiB, QD 64).");
    let r = table.get(key("SSD1"));
    let n = r.power.len().min(1200);
    println!("  first {n} ms of the measurement window (t_ms, watts):");
    for (i, &w) in r.power.samples().iter().take(n).enumerate() {
        if i % 40 == 0 {
            println!("  {i:>5} ms  {w:>6.2} W");
        }
    }
    if let Some(s) = r.power.summary() {
        println!(
            "  variability: min {:.2} / mean {:.2} / max {:.2} W over {} samples",
            s.min(),
            s.mean(),
            s.max(),
            s.len()
        );
    }
    println!();

    println!("Figure 2b. Power distribution across devices (same workload).");
    println!(
        "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>8}   violin (5 bins)",
        "Device", "min", "p25", "median", "mean", "max"
    );
    for label in TABLE1_LABELS {
        let s = table
            .get(key(label))
            .power
            .summary()
            .expect("non-empty trace");
        let (_, counts) = s.violin_bins(5);
        let total: usize = counts.iter().sum();
        let bars: Vec<String> = counts
            .iter()
            .map(|&c| {
                let frac = c as f64 / total as f64;
                "#".repeat((frac * 20.0).round() as usize)
            })
            .collect();
        println!(
            "  {:<6} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}   [{}]",
            label,
            s.min(),
            s.percentile(25.0),
            s.median(),
            s.mean(),
            s.max(),
            bars.join("|")
        );
    }
    println!();
    println!("Paper: substantial ms-scale variability; median and mean nearly overlap.");
}
