//! `powadapt-place` — the energy-aware data placement & migration tier.
//!
//! The paper's §4 design implications argue that device standby only pays
//! off when a system *concentrates* cold data so whole devices can sleep.
//! This crate supplies the machinery: an extent catalog with per-extent
//! sim-time temperature EWMAs ([`Temperature`]), capacity-aware replica
//! placement with rack anti-affinity ([`PlacementTier`]), a deterministic
//! rate-limited background migration engine ([`MigrationEngine`]), and a
//! spin-down consolidation policy that drains cold extents to designated
//! cold targets (the Exos HDDs) and pins them into standby between batch
//! windows.
//!
//! The tier is deliberately device-free: it decides *where* data should
//! live and *what* should move; the cluster layer owns the devices,
//! issues the migration IOs through the ordinary fleet runner (so
//! migration traffic shares queues, power, and breaker caps with tenant
//! IO), and reports completions back. Every decision is a pure function
//! of catalog state and sim time, and the whole tier implements
//! [`Snapshot`](powadapt_snap::Snapshot)/[`Restore`](powadapt_snap::Restore),
//! so mid-migration checkpoints resume bit-exact.

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

pub mod catalog;
pub mod migrate;
pub mod temperature;
pub mod tier;

pub use catalog::{Extent, ExtentCatalog, ExtentKey};
pub use migrate::{Migration, MigrationEngine, MigrationPhase};
pub use temperature::Temperature;
pub use tier::{DeviceSlot, Placed, PlacementConfig, PlacementMode, PlacementTier};
