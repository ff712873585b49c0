//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this library holds the common scaffolding: the command-line parser
//! ([`cli`]), device factories by label, and table formatting.

// Tests assert on exact expected values: unwraps and bit-exact float
// comparisons are the point there, not a hazard (see workspace lints).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

use powadapt_device::{catalog, StorageDevice};

pub mod cli;
pub mod figures;
pub mod golden;

/// Labels of the Table 1 devices, in paper order.
pub const TABLE1_LABELS: [&str; 4] = ["SSD1", "SSD2", "SSD3", "HDD"];

/// Returns a factory closure producing fresh instances of the device with
/// the given paper label.
///
/// # Panics
///
/// Panics if the label is unknown.
pub fn factory_for(label: &str, seed: u64) -> impl Fn() -> Box<dyn StorageDevice> + '_ {
    // Validate eagerly so misuse fails fast.
    assert!(
        catalog::by_label(label, seed).is_some(),
        "unknown device label {label}"
    );
    move || catalog::by_label(label, seed).expect("label validated above")
}

/// Prints a row of fixed-width cells (simple table formatting for the
/// figure binaries).
pub fn print_row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_resolve_all_table1_labels() {
        for l in TABLE1_LABELS {
            let f = factory_for(l, 1);
            assert_eq!(f().spec().label(), l);
        }
    }

    #[test]
    #[should_panic(expected = "unknown device label")]
    fn unknown_label_panics() {
        let _ = factory_for("SSD9", 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.257), "1.26");
    }
}
