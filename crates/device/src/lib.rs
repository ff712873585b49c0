//! Simulated storage devices for the `powadapt` suite.
//!
//! This crate is the hardware substitute for the measurement study in
//! *"Can Storage Devices be Power Adaptive?"* (HotStorage '24): event-driven
//! models of the paper's evaluated drives, exposing the same control
//! surfaces the paper exercises —
//!
//! - **NVMe power states** ([`StorageDevice::set_power_state`]) that cap
//!   average power, throttling writes far more than reads,
//! - **low-power standby** ([`StorageDevice::request_standby`]) — the full
//!   SATA ALPM PARTIAL/SLUMBER ladder on the 860 EVO model, spin-down on
//!   the HDD model,
//! - **IO shaping** — chunk size and queue depth modulate how many NAND
//!   dies (or how much seek activity) is live, and with it the power draw.
//!
//! Devices are deterministic given a seed and are driven by an external
//! event loop (see [`StorageDevice`]).
//!
//! # Examples
//!
//! ```
//! use powadapt_device::{catalog, drain, IoId, IoKind, IoRequest, StorageDevice, MIB};
//!
//! let mut ssd = catalog::ssd2_d7_p5510(42);
//! ssd.submit(IoRequest::new(IoId(0), IoKind::Write, 0, 8 * MIB))?;
//! let completions = drain(&mut ssd);
//! assert_eq!(completions.len(), 1);
//! # Ok::<(), powadapt_device::DeviceError>(())
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

pub mod catalog;
mod device;
mod error;
mod fault;
pub mod hdd;
mod io;
mod power;
mod spec;
pub mod ssd;

pub use device::{drain, StorageDevice};
pub use error::DeviceError;
pub use fault::{FaultInjector, FaultPlan, FaultStats, FaultWindow, FaultWindowKind};
pub use hdd::{Hdd, HddConfig};
pub use io::{IoCompletion, IoId, IoKind, IoRequest, GIB, KIB, MIB};
pub use power::{PowerStateDesc, PowerStateId, StandbyConfig, StandbyDepth, StandbyState};
pub use spec::{DeviceClass, DeviceSpec, Protocol};
pub use ssd::{Ssd, SsdConfig};
