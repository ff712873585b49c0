//! fio-like workload generation and experiment running for `powadapt`.
//!
//! This crate replaces the paper's fio 3.28 + data-logger workflow: a
//! [`JobSpec`] describes one microbenchmark (workload mode, chunk size,
//! queue depth, and the paper's 60 s / 4 GiB stopping rule);
//! [`run_experiment`] drives it against a simulated device while sampling
//! power at 1 kHz; [`full_sweep_with`] runs the cross-product behind the
//! paper's figures.
//!
//! # Examples
//!
//! ```
//! use powadapt_device::{catalog, KIB};
//! use powadapt_io::{run_experiment, JobSpec, Workload};
//! use powadapt_sim::SimDuration;
//!
//! let mut dev = catalog::ssd1_pm9a3(42);
//! let job = JobSpec::new(Workload::RandWrite)
//!     .block_size(256 * KIB)
//!     .io_depth(64)
//!     .runtime(SimDuration::from_millis(100))
//!     .size_limit(64 * 1024 * KIB);
//! let result = run_experiment(&mut dev, &job)?;
//! println!("{result}");
//! # Ok::<(), powadapt_io::ExperimentError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library error paths return the crate's typed error: a panic here
// kills a whole fleet run. A provably infallible site carries a reasoned
// `#[expect(clippy::..., reason = "...")]`.
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        reason = "tests assert on exact expected values"
    )
)]

mod breaker;
mod fleet;
mod job;
mod openloop;
mod parallel;
mod runner;
mod stats;
mod stepper;
mod sweep;
mod wltrace;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreakerRouter, QuarantineEvent};
pub use fleet::{
    least_loaded, run_fleet, DeviceCommand, DeviceOutcome, DeviceStatus, FleetResult,
    LeastLoadedRouter, Route, Router,
};
pub use job::{AccessPattern, JobSpec, Workload};
pub use openloop::{Arrival, ArrivalGen, Arrivals, OpenLoopSpec};
pub use parallel::{run_cells, ParallelConfig};
pub use runner::{run_experiment, ExperimentError, ExperimentResult};
pub use stats::{InvertedWindow, IoStats};
pub use stepper::Stepper;
pub use sweep::{
    enumerate_cells, full_sweep_with, run_fresh, SweepCell, SweepPoint, SweepScale, PAPER_CHUNKS,
    PAPER_DEPTHS,
};
pub use wltrace::{ArrivalTrace, TraceError};
