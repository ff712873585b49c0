//! The power-adaptive storage system layer — the design §4 of the paper
//! sketches, built on the measured power-throughput models of §3.3.
//!
//! - [`BudgetSchedule`] expresses time-varying power availability
//!   (oversubscription, rail failures, renewable dips, demand response),
//! - [`Slo`] expresses the performance guarantees that bound adaptation,
//! - the [`policy`] module implements the paper's four mechanisms:
//!   capping+shaping ([`choose_config`]), power-aware IO redirection
//!   ([`RedirectionPolicy`]), asymmetric IO ([`plan_asymmetric`]), and
//!   tiered standby masking ([`TieringPolicy`]),
//! - [`PowerDomain`] encodes the §4.1 incremental-rollout safety rules,
//! - [`AdaptiveController`] closes the loop: budget in, device actions out —
//!   retrying refused admin commands under a [`RetryPolicy`], tracking
//!   per-device [`DeviceHealth`], and re-planning around quarantined
//!   devices so a broken drive cannot break the budget.
//!
//! # Examples
//!
//! ```
//! use powadapt_core::{BudgetSchedule, PowerEventCause, Slo};
//! use powadapt_sim::SimTime;
//!
//! let mut schedule = BudgetSchedule::new(100.0);
//! schedule.push(SimTime::from_secs(30), 70.0, PowerEventCause::DemandResponse);
//! let slo = Slo::new().max_p99_latency_us(5_000.0);
//! assert_eq!(schedule.budget_at(SimTime::from_secs(40)), 70.0);
//! assert!(slo.max_p99_latency().is_some());
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

mod budget;
mod controller;
mod domain;
mod health;
pub mod policy;
mod scenario;
mod slo;

pub use budget::{BudgetSchedule, PowerEvent, PowerEventCause};
pub use controller::{plan_budget, AdaptiveController, AppliedPlan, ControlError, DeviceAction};
pub use domain::{AttachedDevice, PowerDomain, SafetyViolation};
pub use health::{Degradation, DeviceHealth, RetryPolicy};
pub use policy::asymmetric::{plan_asymmetric, AsymmetricPlan, AsymmetricProfile};
pub use policy::caching::ExcesCachingRouter;
pub use policy::mechanism::{
    choose_mechanism, redirect_crossover_fraction, Mechanism, MechanismChoice,
};
pub use policy::redirection::{RedirectionConfig, RedirectionDecision, RedirectionPolicy};
pub use policy::routing::{ConsolidatingRouter, WriteSegregationRouter};
pub use policy::shaping::{choose_config, required_curtailment_bps};
pub use policy::tiering::{AbsorptionProfile, SpinProfile, TieringPolicy};
pub use scenario::AdaptiveScenarioRouter;
pub use slo::{Slo, SloWindow};
