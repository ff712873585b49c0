//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this library holds the common scaffolding: the command-line parser
//! ([`cli`]), the figures over one cell table ([`figures`]), the golden
//! fixtures ([`golden`]) and number formatting.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        reason = "tests assert on exact expected values"
    )
)]

pub mod cli;
pub mod figures;
pub mod golden;

/// Labels of the Table 1 devices, in paper order.
pub const TABLE1_LABELS: [&str; 4] = ["SSD1", "SSD2", "SSD3", "HDD"];

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.257), "1.26");
    }
}
