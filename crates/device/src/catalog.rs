//! Calibrated device models for the paper's evaluated drives (Table 1).
//!
//! Each constructor returns a device whose component model is tuned so the
//! paper's headline numbers emerge from the simulation rather than being
//! looked up:
//!
//! | Label | Model               | Paper's measured range | Key anchors |
//! |-------|---------------------|------------------------|-------------|
//! | SSD1  | Samsung PM9A3       | 3.5–13.5 W | randwrite 256 KiB QD64 ≈ 3.3 GiB/s @ ≈8.2 W (§3.3) |
//! | SSD2  | Intel D7-P5510      | 5–15.1 W   | ps0/ps1/ps2 caps 25/12/10 W; seq-write ps1 ≈ 74 %, ps2 ≈ 55 % of ps0 (Fig. 4) |
//! | SSD3  | Intel D3-P4510      | 1–3.5 W    | SATA 530 MB/s interface bound |
//! | HDD   | Seagate Exos 7E2000 | 1–5.3 W    | idle 3.76 W, standby 1.1 W, spin-up ≈ 6 s (§3.2.2) |
//! | EVO   | Samsung 860 EVO     | 0.17–~2.5 W| idle 0.35 W → SLUMBER 0.17 W in <0.5 s (Fig. 7) |
//!
//! The `seed` argument controls the device's internal noise stream; the same
//! seed reproduces the same run bit-for-bit.

use powadapt_sim::SimDuration;

use crate::hdd::{Hdd, HddConfig};
use crate::io::{GIB, KIB, MIB};
use crate::power::{PowerStateDesc, PowerStateId, StandbyConfig};
use crate::spec::{DeviceClass, DeviceSpec, Protocol};
use crate::ssd::{Ssd, SsdConfig};

/// SSD1 — Samsung PM9A3 (NVMe). High die count, low per-die power: a
/// PCIe-4 drive bottlenecked by the testbed's PCIe-3 host link.
pub fn ssd1_pm9a3(seed: u64) -> Ssd {
    let spec = DeviceSpec::new(
        "SSD1",
        "Samsung PM9A3",
        Protocol::Nvme,
        DeviceClass::Ssd,
        1920 * GIB,
    );
    let cfg = SsdConfig {
        dies: 64,
        page_bytes: 16 * KIB,
        program_unit_bytes: 64 * KIB,
        read_op: SimDuration::from_micros(70),
        program_op: SimDuration::from_micros(560),
        cmd_read: SimDuration::from_micros(2),
        cmd_write: SimDuration::from_micros(3),
        read_post: SimDuration::from_micros(8),
        write_commit: SimDuration::from_micros(40),
        interface_bw: 3.6e9, // PCIe 3 x4 host limit
        write_buffer_bytes: 64 * MIB,
        flush_watermark_bytes: 4 * MIB,
        idle_flush_after: SimDuration::from_millis(5),
        waf_min: 1.05,
        waf_max: 1.7,
        read_cache_pages: 64,
        idle_w: 3.5,
        ctrl_active_w: 0.2,
        die_read_w: 0.08,
        die_prog_w: 0.10,
        iface_active_w: 0.85,
        noise_sd_w: 0.35,
        power_states: vec![
            PowerStateDesc::new(PowerStateId(0), 25.0),
            PowerStateDesc::new(PowerStateId(1), 6.5),
            PowerStateDesc::new(PowerStateId(2), 5.4),
        ],
        cap_window: SimDuration::from_millis(50),
        burst_factor: 1.1,
        standby: None, // enterprise NVMe: no host-visible standby (§3.2.2)
        partial: None,
    };
    Ssd::new(spec, cfg, seed)
}

/// SSD2 — Intel D7-P5510 (NVMe). The paper's power-state workhorse:
/// ps0 caps at 25 W (never binds), ps1 at 12 W, ps2 at 10 W.
pub fn ssd2_d7_p5510(seed: u64) -> Ssd {
    let spec = DeviceSpec::new(
        "SSD2",
        "Intel D7-P5510",
        Protocol::Nvme,
        DeviceClass::Ssd,
        3840 * GIB,
    );
    let cfg = SsdConfig {
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
        waf_max: 1.6,
        read_cache_pages: 64,
        idle_w: 5.0,
        ctrl_active_w: 0.2,
        die_read_w: 0.07,
        die_prog_w: 0.29,
        iface_active_w: 0.85,
        noise_sd_w: 0.2,
        power_states: vec![
            PowerStateDesc::new(PowerStateId(0), 25.0),
            PowerStateDesc::new(PowerStateId(1), 12.0),
            PowerStateDesc::new(PowerStateId(2), 10.0),
        ],
        cap_window: SimDuration::from_millis(25),
        burst_factor: 1.1,
        standby: None,
        partial: None,
    };
    Ssd::new(spec, cfg, seed)
}

/// SSD3 — Intel D3-P4510 as evaluated over SATA in the paper: a 530 MB/s
/// interface-bound, low-power drive with no NVMe power states.
pub fn ssd3_d3_p4510(seed: u64) -> Ssd {
    let spec = DeviceSpec::new(
        "SSD3",
        "Intel D3-P4510",
        Protocol::Sata,
        DeviceClass::Ssd,
        1920 * GIB,
    );
    let cfg = SsdConfig {
        dies: 16,
        page_bytes: 16 * KIB,
        program_unit_bytes: 64 * KIB,
        read_op: SimDuration::from_micros(75),
        program_op: SimDuration::from_micros(600),
        cmd_read: SimDuration::from_micros(4),
        cmd_write: SimDuration::from_micros(20),
        read_post: SimDuration::from_micros(15),
        write_commit: SimDuration::from_micros(60),
        interface_bw: 0.53e9, // SATA 6 Gb/s effective
        write_buffer_bytes: 32 * MIB,
        flush_watermark_bytes: 2 * MIB,
        idle_flush_after: SimDuration::from_millis(5),
        waf_min: 1.05,
        waf_max: 1.6,
        read_cache_pages: 64,
        idle_w: 1.0,
        ctrl_active_w: 0.1,
        die_read_w: 0.10,
        die_prog_w: 0.40,
        iface_active_w: 0.30,
        noise_sd_w: 0.1,
        // SATA drives have no host-selectable power states, but the firmware
        // still paces flush bursts within the drive's 3.5 W envelope.
        power_states: vec![PowerStateDesc::new(PowerStateId(0), 3.5)],
        cap_window: SimDuration::from_millis(50),
        burst_factor: 1.05,
        standby: None,
        partial: None,
    };
    Ssd::new(spec, cfg, seed)
}

/// HDD — Seagate Exos 7E2000 (SATA, 7200 rpm). Idle 3.76 W, standby 1.1 W,
/// seconds-scale spin transitions.
pub fn hdd_exos_7e2000(seed: u64) -> Hdd {
    let spec = DeviceSpec::new(
        "HDD",
        "Seagate Exos 7E2000",
        Protocol::Sata,
        DeviceClass::Hdd,
        2048 * GIB,
    );
    let cfg = HddConfig {
        media_bw: 180e6,
        inner_bw_frac: 0.55,
        min_seek: SimDuration::from_micros(500),
        max_seek: SimDuration::from_millis(16),
        rpm: 7200,
        cmd_overhead: SimDuration::from_micros(50),
        write_cache_bytes: 4 * MIB,
        ncq_window: 32,
        max_op_age: SimDuration::from_millis(100),
        electronics_w: 0.46,
        spindle_w: 3.3,
        seek_w: 1.3,
        xfer_w: 0.25,
        noise_sd_w: 0.05,
        standby_w: 1.1,
        spin_down: SimDuration::from_millis(1500),
        spin_down_w: 2.5,
        spin_up: SimDuration::from_secs(6),
        spin_up_w: 5.2,
    };
    Hdd::new(spec, cfg, seed)
}

/// 860 EVO — Samsung 860 EVO (SATA, desktop): the standby demonstrator of
/// §3.2.2 / Figure 7. Idle 0.35 W; ALPM SLUMBER 0.17 W; transitions within
/// 0.5 s with a visible power excursion.
pub fn evo_860(seed: u64) -> Ssd {
    let spec = DeviceSpec::new(
        "860EVO",
        "Samsung 860 EVO",
        Protocol::Sata,
        DeviceClass::Ssd,
        1024 * GIB,
    );
    let cfg = SsdConfig {
        dies: 8,
        page_bytes: 16 * KIB,
        program_unit_bytes: 64 * KIB,
        read_op: SimDuration::from_micros(80),
        program_op: SimDuration::from_micros(700),
        cmd_read: SimDuration::from_micros(5),
        cmd_write: SimDuration::from_micros(12),
        read_post: SimDuration::from_micros(15),
        write_commit: SimDuration::from_micros(60),
        interface_bw: 0.53e9,
        write_buffer_bytes: 16 * MIB,
        flush_watermark_bytes: MIB,
        idle_flush_after: SimDuration::from_millis(5),
        waf_min: 1.05,
        waf_max: 1.6,
        read_cache_pages: 64,
        idle_w: 0.35,
        ctrl_active_w: 0.15,
        die_read_w: 0.08,
        die_prog_w: 0.25,
        iface_active_w: 0.25,
        noise_sd_w: 0.03,
        power_states: vec![PowerStateDesc::new(PowerStateId(0), 2.8)],
        cap_window: SimDuration::from_millis(50),
        burst_factor: 1.1,
        standby: Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(300),
            exit: SimDuration::from_millis(400),
            transition_w: 0.55,
            wake_spike_w: 1.25,
        }),
        // ALPM PARTIAL: modest savings below idle, but a microsecond-scale
        // exit — the shallow rung of the ladder (§3.2.2).
        partial: Some(StandbyConfig {
            standby_w: 0.26,
            enter: SimDuration::from_micros(30),
            exit: SimDuration::from_micros(120),
            transition_w: 0.4,
            wake_spike_w: 0.7,
        }),
    };
    Ssd::new(spec, cfg, seed)
}

/// PM1743 — Samsung PM1743 (PCIe 5 NVMe): the §2 sizing example. Idle 5 W;
/// typical read power 23 W and write power 21.1 W; can be capped to 9 W
/// (~40 % of its uncapped maximum, 1.8× idle).
pub fn pm1743(seed: u64) -> Ssd {
    let spec = DeviceSpec::new(
        "PM1743",
        "Samsung PM1743",
        Protocol::Nvme,
        DeviceClass::Ssd,
        7680 * GIB,
    );
    let cfg = SsdConfig {
        dies: 64,
        page_bytes: 16 * KIB,
        program_unit_bytes: 64 * KIB,
        read_op: SimDuration::from_micros(70),
        program_op: SimDuration::from_micros(560),
        cmd_read: SimDuration::from_micros(1),
        cmd_write: SimDuration::from_micros(2),
        read_post: SimDuration::from_micros(6),
        write_commit: SimDuration::from_micros(30),
        interface_bw: 13.0e9, // PCIe 5 x4
        write_buffer_bytes: 128 * MIB,
        flush_watermark_bytes: 8 * MIB,
        idle_flush_after: SimDuration::from_millis(5),
        waf_min: 1.05,
        waf_max: 1.6,
        read_cache_pages: 128,
        idle_w: 5.0,
        ctrl_active_w: 0.3,
        die_read_w: 0.245, // 14 GB/s reads -> ~61 busy dies -> ~23 W total
        die_prog_w: 0.225, // NAND-limited writes -> ~21.1 W total
        iface_active_w: 2.6,
        noise_sd_w: 0.4,
        power_states: vec![
            PowerStateDesc::new(PowerStateId(0), 25.0),
            PowerStateDesc::new(PowerStateId(1), 14.0),
            PowerStateDesc::new(PowerStateId(2), 9.0),
        ],
        cap_window: SimDuration::from_millis(25),
        burst_factor: 1.1,
        standby: None,
        partial: None,
    };
    Ssd::new(spec, cfg, seed)
}

/// Builds a Table 1 device by its paper label ("SSD1", "SSD2", "SSD3",
/// "HDD", or "860EVO"). Returns `None` for unknown labels.
pub fn by_label(label: &str, seed: u64) -> Option<Box<dyn crate::StorageDevice>> {
    Some(match label {
        "SSD1" => Box::new(ssd1_pm9a3(seed)) as Box<dyn crate::StorageDevice>,
        "SSD2" => Box::new(ssd2_d7_p5510(seed)),
        "SSD3" => Box::new(ssd3_d3_p4510(seed)),
        "HDD" => Box::new(hdd_exos_7e2000(seed)),
        "860EVO" => Box::new(evo_860(seed)),
        "PM1743" => Box::new(pm1743(seed)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drain, StandbyDepth, StorageDevice};

    #[test]
    fn catalog_configs_are_valid() {
        // Constructors panic on invalid configs, so building is the test.
        let _ = ssd1_pm9a3(1);
        let _ = ssd2_d7_p5510(1);
        let _ = ssd3_d3_p4510(1);
        let _ = hdd_exos_7e2000(1);
        let _ = evo_860(1);
    }

    #[test]
    fn idle_power_matches_table1_floors() {
        assert!((ssd1_pm9a3(1).power_w() - 3.5).abs() < 1e-9);
        assert!((ssd2_d7_p5510(1).power_w() - 5.0).abs() < 1e-9);
        assert!((ssd3_d3_p4510(1).power_w() - 1.0).abs() < 1e-9);
        assert!((hdd_exos_7e2000(1).power_w() - 3.76).abs() < 1e-9);
        assert!((evo_860(1).power_w() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn ssd2_has_paper_power_states() {
        let dev = ssd2_d7_p5510(1);
        let caps: Vec<f64> = dev.power_states().iter().map(|d| d.cap_w).collect();
        assert_eq!(caps, vec![25.0, 12.0, 10.0]);
    }

    #[test]
    fn by_label_resolves_known_and_rejects_unknown() {
        for l in ["SSD1", "SSD2", "SSD3", "HDD", "860EVO", "PM1743"] {
            assert_eq!(by_label(l, 1).unwrap().spec().label(), l);
        }
        assert!(by_label("SSD9", 1).is_none());
    }

    #[test]
    fn pm1743_matches_its_datasheet_anchors() {
        let dev = pm1743(1);
        assert!((dev.power_w() - 5.0).abs() < 1e-9, "idle 5 W");
        let caps: Vec<f64> = dev.power_states().iter().map(|d| d.cap_w).collect();
        assert_eq!(caps, vec![25.0, 14.0, 9.0]);
        // The paper's arithmetic: the 9 W cap is 1.8x the 5 W idle.
        assert!((caps[2] / 5.0 - 1.8).abs() < 1e-9);
    }

    #[test]
    fn only_evo_and_hdd_support_standby() {
        assert!(ssd1_pm9a3(1).config().standby.is_none());
        assert!(ssd2_d7_p5510(1).config().standby.is_none());
        assert!(ssd3_d3_p4510(1).config().standby.is_none());
        assert!(evo_860(1).config().standby.is_some());
        // The HDD's one rung is spin-down, whichever depth is asked for.
        let mut hdd = hdd_exos_7e2000(1);
        assert!(hdd.request_standby_depth(StandbyDepth::Slumber).is_ok());
        drain(&mut hdd);
        assert!((hdd.power_w() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn only_evo_implements_the_full_alpm_ladder() {
        let evo = evo_860(1);
        let ladder = evo.config().partial.as_ref().expect("EVO has PARTIAL");
        let slumber = evo.config().standby.as_ref().expect("EVO has SLUMBER");
        // The ladder is ordered: PARTIAL saves less but exits far faster.
        assert!(ladder.standby_w > slumber.standby_w);
        assert!(ladder.exit < slumber.exit);
        // Each rung settles at its measured floor and wakes back to idle.
        for (depth, floor_w) in [(StandbyDepth::Partial, 0.26), (StandbyDepth::Slumber, 0.17)] {
            let mut evo = evo_860(2);
            evo.request_standby_depth(depth).unwrap();
            drain(&mut evo);
            assert!((evo.power_w() - floor_w).abs() < 1e-9, "{depth}");
            evo.request_wake().unwrap();
            drain(&mut evo);
            assert!((evo.power_w() - 0.35).abs() < 1e-9, "{depth}");
        }
        assert!(ssd1_pm9a3(1).config().partial.is_none());
        // SSD3 implements neither rung, like most data-center SATA SSDs
        // the paper surveyed (§3.2.2).
        let mut ssd3 = ssd3_d3_p4510(1);
        assert!(ssd3.config().partial.is_none());
        for depth in [StandbyDepth::Partial, StandbyDepth::Slumber] {
            assert_eq!(
                ssd3.request_standby_depth(depth),
                Err(crate::DeviceError::StandbyUnsupported)
            );
        }
        // HDDs expose only the deep (spin-down) rung via the default.
        let mut hdd = hdd_exos_7e2000(1);
        assert_eq!(
            hdd.request_standby_depth(StandbyDepth::Partial),
            Err(crate::DeviceError::StandbyUnsupported)
        );
    }
}
