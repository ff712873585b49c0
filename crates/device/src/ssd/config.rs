//! SSD simulator configuration.

use powadapt_sim::SimDuration;

use crate::io::{KIB, MIB};
use crate::power::{PowerStateDesc, PowerStateId, StandbyConfig};

/// Parameters of the simulated SSD.
///
/// The defaults describe a generic enterprise NVMe SSD; the
/// [`catalog`](crate::catalog) module builds configurations calibrated to
/// the paper's devices.
///
/// Power is modeled as a sum of components: an idle floor, a controller
/// activity adder, per-busy-die read/program power, and interface transfer
/// power. Power caps (NVMe power states) gate the start of new work so that
/// the trailing [`cap_window`](SsdConfig::cap_window) average stays at or
/// below the selected state's cap.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Number of independent NAND dies.
    pub dies: usize,
    /// NAND page size — the unit of a read operation, in bytes.
    pub page_bytes: u64,
    /// Multi-plane program unit — the unit of a program operation, in bytes.
    pub program_unit_bytes: u64,
    /// Latency of one page read on a die.
    pub read_op: SimDuration,
    /// Latency of one program-unit write on a die.
    pub program_op: SimDuration,
    /// Controller occupancy per read command.
    pub cmd_read: SimDuration,
    /// Controller occupancy per write command.
    pub cmd_write: SimDuration,
    /// Non-overlapped completion-posting overhead after a read transfer.
    pub read_post: SimDuration,
    /// Non-overlapped commit overhead after a write transfer (FTL commit,
    /// CRC, completion posting). Dominates queue-depth-1 write latency.
    pub write_commit: SimDuration,
    /// Effective host-interface bandwidth in bytes/second (already the
    /// minimum of the device link and the host's PCIe generation).
    pub interface_bw: f64,
    /// DRAM write-buffer capacity in bytes.
    pub write_buffer_bytes: u64,
    /// Buffer fill level that triggers a flush burst, in bytes.
    pub flush_watermark_bytes: u64,
    /// Host-idle time after which buffered writes are flushed even below
    /// the watermark (drives flush on idle; also what lets a device drain
    /// and honor a standby request under light load).
    pub idle_flush_after: SimDuration,
    /// Write amplification for sequential or large (≥ 1 MiB) writes.
    pub waf_min: f64,
    /// Write amplification for 4 KiB random writes.
    pub waf_max: f64,
    /// Number of recently read pages kept in the controller read cache.
    /// A lookup scans every cached page, so the cache is meant for tens
    /// to hundreds of pages.
    pub read_cache_pages: usize,
    /// Idle power floor in watts (controller + DRAM, link active).
    pub idle_w: f64,
    /// Additional controller power while any work is in progress.
    pub ctrl_active_w: f64,
    /// Power per die busy with a read, in watts.
    pub die_read_w: f64,
    /// Power per die busy with a program, in watts.
    pub die_prog_w: f64,
    /// Interface power while a transfer is in progress, in watts.
    pub iface_active_w: f64,
    /// Standard deviation of slow controller power noise, in watts.
    pub noise_sd_w: f64,
    /// Implemented power states, `ps0` first.
    pub power_states: Vec<PowerStateDesc>,
    /// Control window for cap enforcement. The NVMe spec bounds average
    /// power over any 10 s window; real firmware enforces much faster, which
    /// is what keeps the 10 s envelope honest. 50 ms by default.
    pub cap_window: SimDuration,
    /// Instantaneous power may exceed the cap by this factor between
    /// control actions (Figure 2: instantaneous differs from average).
    pub burst_factor: f64,
    /// Low-power standby (SATA ALPM SLUMBER style), if supported.
    pub standby: Option<StandbyConfig>,
    /// Shallow low-power state (SATA ALPM PARTIAL style), if supported:
    /// smaller savings than [`SsdConfig::standby`] but a much faster exit.
    pub partial: Option<StandbyConfig>,
}

impl SsdConfig {
    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.dies == 0 {
            return Err("dies must be non-zero".into());
        }
        if self.page_bytes == 0 || self.program_unit_bytes == 0 {
            return Err("page and program unit must be non-zero".into());
        }
        if !self.program_unit_bytes.is_multiple_of(self.page_bytes) {
            return Err("program unit must be a multiple of the page size".into());
        }
        if self.read_op.is_zero() || self.program_op.is_zero() {
            return Err("die op latencies must be non-zero".into());
        }
        if !(self.interface_bw.is_finite() && self.interface_bw > 0.0) {
            return Err("interface bandwidth must be positive".into());
        }
        if self.write_buffer_bytes == 0 {
            return Err("write buffer must be non-zero".into());
        }
        if self.flush_watermark_bytes > self.write_buffer_bytes {
            return Err("flush watermark cannot exceed the buffer size".into());
        }
        if self.waf_min < 1.0 || self.waf_max < self.waf_min {
            return Err("write amplification must satisfy 1 <= waf_min <= waf_max".into());
        }
        if self.idle_w < 0.0
            || self.ctrl_active_w < 0.0
            || self.die_read_w < 0.0
            || self.die_prog_w < 0.0
            || self.iface_active_w < 0.0
            || self.noise_sd_w < 0.0
        {
            return Err("power components must be non-negative".into());
        }
        if self.power_states.is_empty() {
            return Err("at least one power state (ps0) is required".into());
        }
        if self.power_states[0].id != PowerStateId(0) {
            return Err("the first power state must be ps0".into());
        }
        if self.cap_window.is_zero() {
            return Err("cap window must be non-zero".into());
        }
        if self.burst_factor < 1.0 {
            return Err("burst factor must be at least 1".into());
        }
        for sb in self.standby.iter().chain(self.partial.iter()) {
            if sb.standby_w < 0.0 || sb.transition_w < 0.0 || sb.wake_spike_w < 0.0 {
                return Err("standby power levels must be non-negative".into());
            }
        }
        if self.partial.is_some() && self.standby.is_none() {
            return Err("partial (shallow) requires a standby (deep) mode".into());
        }
        Ok(())
    }

    /// Peak NAND program bandwidth in bytes/second (all dies programming).
    pub fn nand_program_bw(&self) -> f64 {
        self.dies as f64 * self.program_unit_bytes as f64 / self.program_op.as_secs_f64()
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            dies: 32,
            page_bytes: 16 * KIB,
            program_unit_bytes: 64 * KIB,
            read_op: SimDuration::from_micros(70),
            program_op: SimDuration::from_micros(560),
            cmd_read: SimDuration::from_micros(2),
            cmd_write: SimDuration::from_micros(3),
            read_post: SimDuration::from_micros(8),
            write_commit: SimDuration::from_micros(40),
            interface_bw: 3.5e9,
            write_buffer_bytes: 64 * MIB,
            flush_watermark_bytes: 4 * MIB,
            idle_flush_after: SimDuration::from_millis(5),
            waf_min: 1.05,
            waf_max: 1.8,
            read_cache_pages: 64,
            idle_w: 5.0,
            ctrl_active_w: 0.2,
            die_read_w: 0.2,
            die_prog_w: 0.29,
            iface_active_w: 0.85,
            noise_sd_w: 0.25,
            power_states: vec![PowerStateDesc::new(PowerStateId(0), 25.0)],
            cap_window: SimDuration::from_millis(50),
            burst_factor: 1.1,
            standby: None,
            partial: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SsdConfig::default().validate().expect("default valid");
    }

    #[test]
    fn nand_bandwidths() {
        let cfg = SsdConfig::default();
        // 32 dies * 64 KiB / 560 us = ~3.74 GB/s.
        let bw = cfg.nand_program_bw();
        assert!((bw - 32.0 * 65536.0 / 560e-6).abs() < 1.0);
    }

    #[test]
    fn validation_catches_violations() {
        let base = SsdConfig::default();

        let mut c = base.clone();
        c.dies = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.program_unit_bytes = 48 * KIB + 1;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.flush_watermark_bytes = c.write_buffer_bytes + 1;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.waf_min = 0.5;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.power_states.clear();
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.power_states[0].id = PowerStateId(1);
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.burst_factor = 0.9;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.partial = Some(crate::power::StandbyConfig {
            standby_w: 0.25,
            enter: SimDuration::from_micros(50),
            exit: SimDuration::from_micros(100),
            transition_w: 0.4,
            wake_spike_w: 0.8,
        });
        assert!(
            c.validate().is_err(),
            "partial without standby must be rejected"
        );

        let mut c = base;
        c.die_prog_w = -0.1;
        assert!(c.validate().is_err());
    }
}
