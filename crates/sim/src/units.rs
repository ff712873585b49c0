//! A typed unit for float-valued latency.
//!
//! Integer-nanosecond simulation time stays [`SimTime`]/[`SimDuration`]
//! (`crate::time`); [`Micros`] is for the float-valued latency
//! *measurements* that appear in figures and SLO windows, where the
//! paper's own unit is the microsecond. It is an *exact* wrapper —
//! construction and extraction never transform the value — so taking it
//! in place of an `f64` cannot perturb a golden fixture by even one bit.
//!
//! Elsewhere the tree names a unit by suffix on a plain `f64`
//! (`cap_w`, `p99_us`); that is a naming convention, and nothing
//! checks it.
//!
//! [`SimTime`]: crate::SimTime
//! [`SimDuration`]: crate::SimDuration
//!
//! # Examples
//!
//! ```
//! use powadapt_sim::units::Micros;
//!
//! let lat = Micros::new(850.0);
//! assert_eq!(lat.get(), 850.0);
//! ```

/// A float-valued interval in microseconds (the paper's latency unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Micros(f64);

impl Micros {
    /// Wraps a raw value already expressed in microseconds.
    pub const fn new(value: f64) -> Self {
        Micros(value)
    }

    /// The raw value, exactly as constructed.
    pub const fn get(self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_are_exact() {
        // Bit-exact round trip, including values that decimal conversions
        // would perturb.
        for v in [0.1 + 0.2, 1e-300, 7.234_567_890_123_456e18, -0.0] {
            assert_eq!(Micros::new(v).get().to_bits(), v.to_bits());
        }
    }
}
