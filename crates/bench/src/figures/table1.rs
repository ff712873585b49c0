//! Table 1: evaluated storage devices and their measured power ranges.

use powadapt_device::{catalog, KIB, MIB};
use powadapt_io::Workload;
use powadapt_meter::PowerRig;
use powadapt_sim::{SimDuration, SimRng};

use crate::figures::{CellTable, Key};
use crate::TABLE1_LABELS;

/// A Table 1 row: label, protocol, model, measured power range.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Device label ("SSD1", ...).
    pub label: String,
    /// Interface protocol name.
    pub protocol: String,
    /// Model name.
    pub model: String,
    /// Minimum measured power in watts (including standby where supported).
    pub min_w: f64,
    /// Maximum measured power in watts.
    pub max_w: f64,
}

/// The workload extremes of the grid: the lightest and heaviest shapes.
const EXTREMES: [(Workload, u64, usize); 5] = [
    (Workload::RandRead, 4 * KIB, 1),
    (Workload::RandWrite, 4 * KIB, 1),
    (Workload::SeqRead, 2 * MIB, 64),
    (Workload::SeqWrite, 2 * MIB, 64),
    (Workload::RandWrite, 256 * KIB, 64),
];

fn device_keys(label: &'static str) -> impl Iterator<Item = Key> {
    EXTREMES
        .into_iter()
        .map(move |(w, chunk, depth)| Key::new(label, w, chunk, depth, 0))
}

/// The cells Table 1 reads: every device's workload extremes at ps0.
pub fn keys() -> Vec<Key> {
    TABLE1_LABELS.into_iter().flat_map(device_keys).collect()
}

/// One device's row: its power range over its workload extremes in
/// `table`, plus a standby segment where the device supports it.
fn row(table: &CellTable, label: &'static str) -> Row {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for key in device_keys(label) {
        if let Some(s) = table.get(key).power.summary() {
            lo = lo.min(s.min());
            hi = hi.max(s.max());
        }
    }

    // Idle floor and, where supported, standby floor — the paper's minima
    // include the device's lowest-power state.
    let seed = table.seed();
    let mut dev = catalog::by_label(label, seed).expect("known label");
    lo = lo.min(dev.power_w());
    if dev.standby_power_w().is_some() {
        dev.request_standby().expect("idle device accepts standby");
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
        }
        // Meter the standby level through the rig like any other segment.
        let mut rng = SimRng::seed_from(seed ^ 0xabcd);
        let mut rig = PowerRig::paper_rig(5.0, &mut rng);
        rig.restart_at(dev.now());
        let end = dev.now() + SimDuration::from_millis(200);
        let mut t = dev.now();
        while t < end {
            t = rig.next_sample();
            dev.advance_to(t);
            rig.sample(t, dev.power_w());
        }
        if let Some(s) = rig.trace().summary() {
            lo = lo.min(s.min());
        }
    }

    let spec = dev.spec();
    Row {
        label: spec.label().to_string(),
        protocol: spec.protocol().to_string(),
        model: spec.model().to_string(),
        min_w: lo,
        max_w: hi,
    }
}

/// Table 1's rows, in paper order.
pub fn rows(table: &CellTable) -> Vec<Row> {
    TABLE1_LABELS
        .into_iter()
        .map(|label| row(table, label))
        .collect()
}

/// Prints the table in the paper's layout.
pub fn run(table: &CellTable) {
    println!("Table 1. Evaluated storage devices.");
    println!(
        "{:<6} {:<9} {:<22} Measured Power Range",
        "Label", "Protocol", "Model"
    );
    println!("{}", "-".repeat(64));
    for r in rows(table) {
        println!(
            "{:<6} {:<9} {:<22} {:.1}-{:.1} W",
            r.label, r.protocol, r.model, r.min_w, r.max_w
        );
    }
    println!();
    println!("Paper:  SSD1 3.5-13.5 W | SSD2 5-15.1 W | SSD3 1-3.5 W | HDD 1-5.3 W");
}
