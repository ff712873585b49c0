//! Per-extent access-temperature EWMAs on sim-time windows.
//!
//! The decay is a *binary halving per elapsed window*: after `k` windows
//! with no touches an extent's temperature is `value * 2^-k`. Multiplying
//! by 0.5 is exact in IEEE-754 (it only decrements the exponent), so the
//! decayed value is bit-identical on every platform — no `exp`/`ln`
//! anywhere near a result path. The half-life therefore *is* the window
//! length, which keeps the knob count at one.

use powadapt_snap::SnapError;

/// Halvings after which any finite temperature is indistinguishable from
/// zero at the thresholds this tier uses; past this the value is clamped
/// to exactly 0.0 so long-idle extents compare equal everywhere.
const DEAD_WINDOWS: u64 = 64;

/// One extent's exponentially-decayed access heat, advanced lazily: the
/// stored value is exact as of `last_window`, and observers decay it on
/// the fly to the window they ask about.
#[derive(Debug, Clone, PartialEq)]
pub struct Temperature {
    /// Accumulated heat as of `last_window`.
    value: f64,
    /// Window index (sim-time / window length) of the last touch.
    last_window: u64,
}

/// `value * 2^-elapsed`, exact, clamped to 0.0 past [`DEAD_WINDOWS`].
fn decay(value: f64, elapsed: u64) -> f64 {
    if elapsed >= DEAD_WINDOWS {
        return 0.0;
    }
    let mut v = value;
    for _ in 0..elapsed {
        v *= 0.5;
    }
    v
}

impl Temperature {
    /// A stone-cold extent (no accesses yet).
    pub fn new() -> Self {
        Temperature {
            value: 0.0,
            last_window: 0,
        }
    }

    /// Records an access of `weight` heat units in window `window`.
    /// Windows never run backwards in a deterministic sim; a stale window
    /// is treated as the current one rather than un-decaying.
    pub fn touch(&mut self, window: u64, weight: f64) {
        if window > self.last_window {
            self.value = decay(self.value, window - self.last_window);
            self.last_window = window;
        }
        self.value += weight;
    }

    /// The decayed temperature as seen from `window`, without mutating.
    pub fn value_at(&self, window: u64) -> f64 {
        if window > self.last_window {
            decay(self.value, window - self.last_window)
        } else {
            self.value
        }
    }
}

impl Default for Temperature {
    fn default() -> Self {
        Temperature::new()
    }
}

powadapt_snap::snapshot! {
    value Temperature { value, last_window }
    after restore_value
}

impl Temperature {
    fn restore_value(&mut self) -> Result<(), SnapError> {
        if self.value.is_finite() && self.value >= 0.0 {
            Ok(())
        } else {
            Err(SnapError::InvalidValue(format!(
                "temperature value {} is not a finite non-negative number",
                self.value
            )))
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]
mod tests {
    use super::*;
    use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};

    #[test]
    fn decay_halves_per_window() {
        let mut t = Temperature::new();
        t.touch(10, 8.0);
        assert_eq!(t.value_at(10), 8.0);
        assert_eq!(t.value_at(11), 4.0);
        assert_eq!(t.value_at(13), 1.0);
    }

    #[test]
    fn touch_accumulates_after_decay() {
        let mut t = Temperature::new();
        t.touch(0, 4.0);
        t.touch(2, 1.0);
        // 4.0 halved twice = 1.0, plus the new unit.
        assert_eq!(t.value_at(2), 2.0);
    }

    #[test]
    fn long_idle_is_exactly_zero() {
        let mut t = Temperature::new();
        t.touch(0, 1.0e300);
        assert_eq!(t.value_at(DEAD_WINDOWS), 0.0);
        assert_eq!(t.value_at(DEAD_WINDOWS + 100), 0.0);
    }

    #[test]
    fn stale_window_does_not_undecay() {
        let mut t = Temperature::new();
        t.touch(5, 2.0);
        t.touch(3, 1.0);
        assert_eq!(t.value_at(5), 3.0);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut t = Temperature::new();
        t.touch(7, 3.25);
        let mut w = SnapWriter::new();
        t.write_state(&mut w).unwrap();
        let payload = w.into_payload();
        let mut fresh = Temperature::new();
        let mut r = SnapReader::new(&payload);
        fresh.read_state(&mut r).unwrap();
        assert_eq!(fresh, t);
    }

    #[test]
    fn restore_rejects_nan() {
        let mut w = SnapWriter::new();
        w.f64(f64::NAN);
        w.u64(0);
        let payload = w.into_payload();
        let mut t = Temperature::new();
        let mut r = SnapReader::new(&payload);
        assert!(t.read_state(&mut r).is_err());
    }
}
