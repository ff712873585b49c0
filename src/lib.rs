//! # powadapt — power-adaptive storage, simulated end to end
//!
//! A full Rust reproduction of *"Can Storage Devices be Power Adaptive?"*
//! (Xie et al., HotStorage '24). The paper is a hardware measurement study;
//! this suite replaces the hardware with calibrated discrete-event device
//! simulators and rebuilds the entire pipeline on top:
//!
//! | Layer | Crate | What it models |
//! |-------|-------|----------------|
//! | [`sim`] | `powadapt-sim` | event queue, virtual time, deterministic RNG, rolling averages |
//! | [`obs`] | `powadapt-obs` | sim-time event tracing, metrics registry, Perfetto/flamegraph export |
//! | [`device`] | `powadapt-device` | the paper's SSDs and HDD: NAND dies, write buffers, power-cap governors, ALPM standby, spin-up/down |
//! | [`meter`] | `powadapt-meter` | the shunt → amplifier → 24-bit-ADC rig sampling at 1 kHz |
//! | [`io`] | `powadapt-io` | fio-like jobs, the experiment runner, parameter sweeps |
//! | [`model`] | `powadapt-model` | power-throughput models, Pareto frontiers, budget solvers |
//! | [`core`] | `powadapt-core` | the §4 policies and the adaptive control loop |
//! | [`cluster`] | `powadapt-cluster` | the power tree: oversubscribed caps, multi-tenant workloads, budget rebalancing |
//!
//! # Quick start
//!
//! ```
//! use powadapt::device::{catalog, KIB};
//! use powadapt::io::{run_experiment, JobSpec, Workload};
//! use powadapt::sim::SimDuration;
//!
//! // Run the paper's Figure 2 workload on the simulated Samsung PM9A3.
//! let mut ssd = catalog::ssd1_pm9a3(42);
//! let job = JobSpec::new(Workload::RandWrite)
//!     .block_size(256 * KIB)
//!     .io_depth(64)
//!     .runtime(SimDuration::from_millis(100))
//!     .size_limit(256 * 1024 * KIB);
//! let result = run_experiment(&mut ssd, &job)?;
//! println!("{:.2} GiB/s at {:.2} W", result.io.throughput_bps() / (1 << 30) as f64,
//!          result.avg_power_w());
//! # Ok::<(), powadapt::io::ExperimentError>(())
//! ```
//!
//! See the `examples/` directory for the paper's headline scenarios:
//! demand-response control, write segregation, and standby consolidation.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        reason = "tests assert on exact expected values"
    )
)]

pub use powadapt_cluster as cluster;
pub use powadapt_core as core;
pub use powadapt_device as device;
pub use powadapt_io as io;
pub use powadapt_meter as meter;
pub use powadapt_model as model;
pub use powadapt_obs as obs;
pub use powadapt_sim as sim;
pub use powadapt_snap as snap;
