//! Simulated power-measurement infrastructure.
//!
//! Numerical reproduction of the paper's §3 measurement rig: a shunt
//! resistor on the device's supply rail, a differential amplifier, a 24-bit
//! ADC sampling at 1 kHz, and a data logger. The chain achieves the paper's
//! claimed sub-1 % relative error, and calibration against a known load
//! removes the residual systematic component — exactly the workflow of the
//! physical rig.
//!
//! - [`MeasurementChain`] — the analog path with component tolerances,
//!   offset, noise, and quantization,
//! - [`PowerRig`] — the chain plus a 1 kHz sampler producing a
//!   [`PowerTrace`],
//! - [`PowerTrace`] — the recorded series with the statistics the paper
//!   reports (mean/median, distribution for violin plots, dynamic range).
//!
//! # Examples
//!
//! ```
//! use powadapt_meter::PowerRig;
//! use powadapt_sim::SimRng;
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut rig = PowerRig::paper_rig(12.0, &mut rng);
//! // Sample a steady 5 W load for 100 ms.
//! for _ in 0..100 {
//!     let t = rig.next_sample();
//!     rig.sample(t, 5.0);
//! }
//! let trace = rig.trace();
//! assert!((trace.mean() - 5.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        reason = "tests assert on exact expected values"
    )
)]

mod chain;
mod rig;
mod scope;
mod trace;

pub use chain::{Adc, Amplifier, MeasurementChain, ShuntResistor};
pub use rig::{PowerRig, DEFAULT_PERIOD};
pub use scope::{Oscilloscope, Trigger};
pub use trace::PowerTrace;
