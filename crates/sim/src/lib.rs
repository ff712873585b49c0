//! Discrete-event simulation kernel for the `powadapt` suite.
//!
//! This crate provides the substrate every other `powadapt` crate builds on:
//!
//! - [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time,
//! - [`EventQueue`] — a deterministic time-ordered event queue (a binary
//!   heap keyed by time, ties broken by insertion order),
//! - [`Slab`] — a freelist arena with stable integer keys for in-flight
//!   simulation state,
//! - [`SimRng`] — seeded randomness with the distributions the device and
//!   measurement models need,
//! - [`StepSignal`] — piecewise-constant signals (instantaneous device power
//!   draw) with window integration and trailing averages,
//! - [`Summary`] — summary statistics used for power traces and latency
//!   samples,
//! - [`units`] — [`units::Micros`], the exact newtype for float-valued
//!   latency that crosses the SLO and model APIs.
//!
//! # Examples
//!
//! Simulating a square-wave power draw and averaging it:
//!
//! ```
//! use powadapt_sim::{EventQueue, SimDuration, SimTime, StepSignal};
//!
//! let mut power = StepSignal::new(1.0);
//! let mut events = EventQueue::new();
//! events.schedule(SimTime::from_millis(10), 5.0);
//! events.schedule(SimTime::from_millis(20), 1.0);
//! while let Some((t, watts)) = events.pop() {
//!     power.step(t, watts);
//! }
//! let avg = power.mean(SimTime::ZERO, SimTime::from_millis(30));
//! assert!((avg - (1.0 + 5.0 + 1.0) / 3.0).abs() < 1e-12);
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

mod queue;
mod rng;
mod rolling;
mod signal;
mod slab;
mod stats;
mod time;
pub mod units;
mod zipf;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use rolling::RollingMean;
pub use signal::StepSignal;
pub use slab::Slab;
pub use stats::{percentile_of_sorted, relative_error, Summary};
pub use time::{SimDuration, SimTime};
pub use zipf::Zipf;
