//! Power-throughput models for power-adaptive storage (§3.3 of the paper).
//!
//! Sweeping a device across power states and IO shapes yields a cloud of
//! (power, throughput) points. This crate turns those sweeps into:
//!
//! - [`PowerThroughputModel`] — the per-device model with the paper's
//!   normalization (Figure 10) and dynamic-range metric,
//! - [`pareto_frontier`] — the efficient configurations,
//! - [`plan_power_reduction`] / [`best_under_power_budget`] /
//!   [`cheapest_above_throughput`] — the §3.3 configuration-selection
//!   use case, including best-effort curtailment,
//! - [`FleetModel`] — multi-device combination under a shared budget.
//!
//! # Examples
//!
//! ```
//! use powadapt_device::{PowerStateId, KIB};
//! use powadapt_io::Workload;
//! use powadapt_model::{plan_power_reduction, ConfigPoint, PowerThroughputModel};
//!
//! // §3.3's SSD1 walk-through: QD64 at 3.3 GiB/s and 8.19 W; a 20 % power
//! // cut lands on the QD1 configuration and sheds 40 % of throughput.
//! let gib = 1024.0 * 1024.0 * 1024.0;
//! let mk = |d: usize, p, t: f64| ConfigPoint::new(
//!     "SSD1", Workload::RandWrite, PowerStateId(0), 256 * KIB, d, p, t * gib);
//! let model = PowerThroughputModel::from_points(
//!     "SSD1",
//!     vec![mk(64, 8.19, 3.3), mk(1, 6.55, 2.0)],
//! ).unwrap();
//! let plan = plan_power_reduction(&model, 0.20).unwrap();
//! assert!((plan.curtailed_bps() / gib - 1.3).abs() < 0.1);
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

mod fleet;
mod latency;
mod model;
mod pareto;
mod point;
mod solver;

pub use fleet::{FleetAllocation, FleetModel};
pub use latency::LatencyModel;
pub use model::PowerThroughputModel;
pub use pareto::pareto_frontier;
pub use point::ConfigPoint;
pub use solver::{
    best_under_power_budget, cheapest_above_throughput, plan_power_reduction, CurtailmentPlan,
};
