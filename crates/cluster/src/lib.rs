//! Cluster power-tree layer for power-adaptive storage.
//!
//! The paper's single-enclosure argument — storage can trade throughput
//! for power on demand — pays off at the *cluster* scale, where power
//! delivery is hierarchical and oversubscribed: a row advertises more
//! capacity to its racks than its feeder physically supplies, betting
//! they never peak together. This crate makes that bet explicit and
//! keeps it safe:
//!
//! - [`tree`] — the power-distribution hierarchy (cluster → row → rack →
//!   enclosure) with per-node caps and oversubscription ratios, and the
//!   two-pass rebalance that turns leaf demands into safe budget grants.
//! - [`tenant`] — multi-tenant arrival processes (steady Poisson, diurnal
//!   sinusoid, bursty on/off) with per-tenant SLO accounting.
//! - [`selector`] — policies turning granted budgets into device power
//!   states: model-driven re-planning through each enclosure's
//!   [`AdaptiveController`](powadapt_core::AdaptiveController) versus the
//!   naive uniform static share.
//! - [`sim`] — the event-stepped cluster simulation tying them together, fully
//!   inside the determinism perimeter (per-tenant/per-device `SimRng`
//!   streams, byte-identical reports at any worker count).
//! - [`scenario`] — the canonical two-rack oversubscribed scenario used
//!   by `cluster_eval`, the golden fixture, and the examples, plus the
//!   placement-evaluation scenario behind `placement_eval`.
//! - [`treefault`] — scheduled breaker trips at power-tree node scope
//!   (rack, row, region), the fail-closed counterpart to the device-level
//!   [`FaultInjector`](powadapt_device::FaultInjector).
//! - [`longhaul`] — the long-horizon failure scenario library (regional
//!   failover, rolling firmware power-state changes, multi-day diurnal
//!   churn) built on [`sim::ClusterSim`] checkpoint/restore.

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

pub mod ledger;
pub mod longhaul;
pub mod scenario;
pub mod selector;
pub mod sim;
pub mod tenant;
pub mod tree;
pub mod treefault;

pub use ledger::{EnergyLedger, TenantUsage, BURN_ALERT_THRESHOLD};
pub use powadapt_place::{PlacementConfig, PlacementMode, PlacementTier};
pub use scenario::{
    exos_model, fig10_model, oversubscribed_cluster, placement_cluster, PlacementArm,
};
pub use selector::{fleet_floor_w, fleet_max_w, uniform_choices, SelectionPolicy};
pub use sim::{
    run_cluster, ClusterError, ClusterReport, ClusterSim, ClusterSpec, EnclosureSpec, NodeReport,
    TenantReport,
};
pub use tenant::{TenantArrivals, TenantSpec, TenantStream};
pub use tree::{Demand, Grant, NodeId, NodeKind, PowerTree, TreeError};
pub use treefault::{TreeFaultEvent, TreeFaultSchedule, TreeFaultWindow};
