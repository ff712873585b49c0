//! Measurement-infrastructure claims (§3 of the paper): sub-10 ms sampling
//! period, sub-1 % relative error, and correct behaviour of the full
//! device → shunt → amplifier → ADC → trace pipeline.

use powadapt::device::{catalog, StorageDevice};
use powadapt::meter::{MeasurementChain, PowerRig, DEFAULT_PERIOD};
use powadapt::sim::{relative_error, SimDuration, SimRng, SimTime};

#[test]
fn sampling_period_is_sub_10ms_as_claimed() {
    // The paper claims "a sub-10 ms period"; the rig samples at 1 kHz.
    assert!(DEFAULT_PERIOD < SimDuration::from_millis(10));
    assert_eq!(DEFAULT_PERIOD, SimDuration::from_millis(1));
}

#[test]
fn chain_error_stays_under_one_percent_across_device_range() {
    // Across the power levels of Table 1 (0.35 W idle to 15.1 W active),
    // averaged readings stay within 1 % of the truth for any rig instance.
    // Low-power SATA devices are instrumented on their 5 V rail (larger
    // shunt signal); NVMe devices on the 12 V rail — as in the paper's rig.
    for rig_seed in 0..10u64 {
        let mut build = SimRng::seed_from(rig_seed);
        let sata = MeasurementChain::paper_rig(5.0, &mut build);
        let nvme = MeasurementChain::paper_rig(12.0, &mut build);
        let mut sample = SimRng::seed_from(rig_seed ^ 0xffff);
        let cases = [
            (&sata, 0.35),
            (&sata, 1.1),
            (&sata, 3.76),
            (&nvme, 8.19),
            (&nvme, 15.1),
        ];
        for (chain, truth) in cases {
            let avg: f64 = (0..300)
                .map(|_| chain.measure(truth, &mut sample))
                .sum::<f64>()
                / 300.0;
            assert!(
                relative_error(avg, truth) < 0.01,
                "rig {rig_seed}: {truth} W read as {avg:.4} W"
            );
        }
    }
}

#[test]
fn metered_idle_device_reads_its_true_floor() {
    // Full pipeline on a real (simulated) device sitting idle.
    let mut dev = catalog::ssd2_d7_p5510(1);
    let mut rng = SimRng::seed_from(9);
    let mut rig = PowerRig::paper_rig(12.0, &mut rng);
    for _ in 0..500 {
        let t = rig.next_sample();
        dev.advance_to(t);
        rig.sample(t, dev.power_w());
    }
    let mean = rig.trace().mean();
    assert!(
        relative_error(mean, 5.0) < 0.01,
        "idle SSD2 floor read as {mean:.3} W"
    );
}

#[test]
fn trace_captures_millisecond_scale_steps() {
    // A power step between two samples is visible at the next sample — the
    // paper's point about needing ms-scale sampling to see device dynamics.
    let mut dev = catalog::hdd_exos_7e2000(2);
    let mut rng = SimRng::seed_from(10);
    let mut rig = PowerRig::paper_rig(12.0, &mut rng);
    // Idle for 20 ms, then request standby (spin-down power changes).
    let mut requested = false;
    for i in 0..100 {
        let t = rig.next_sample();
        if i == 20 && !requested {
            dev.request_standby().expect("idle disk accepts standby");
            requested = true;
        }
        dev.advance_to(t);
        rig.sample(t, dev.power_w());
    }
    let trace = rig.trace();
    let before = trace.samples()[10];
    let after = trace.samples()[40];
    assert!((before - 3.76).abs() < 0.1, "pre-transition {before}");
    assert!((after - 2.5).abs() < 0.1, "spin-down power {after}");
}

#[test]
fn calibration_survives_device_level_noise() {
    let mut rng = SimRng::seed_from(12);
    let mut rig = PowerRig::paper_rig(12.0, &mut rng);
    rig.calibrate(10.0, 400);
    let mut dev = catalog::ssd2_d7_p5510(3);
    rig.restart_at(SimTime::ZERO);
    for _ in 0..300 {
        let t = rig.next_sample();
        dev.advance_to(t);
        rig.sample(t, dev.power_w());
    }
    assert!(relative_error(rig.trace().mean(), 5.0) < 0.005);
}

#[test]
fn alpm_ladder_partial_and_slumber_are_both_measurable() {
    use powadapt::device::StandbyDepth;

    // Measure each rung of the EVO's ALPM ladder through the metering rig:
    // PARTIAL saves less than SLUMBER but recovers orders of magnitude
    // faster — the trade the paper's §3.2.2 ladder exists to offer.
    let measure_floor = |depth: StandbyDepth, rig_seed: u64| {
        let mut dev = catalog::evo_860(5);
        dev.request_standby_depth(depth)
            .expect("EVO implements the ladder");
        assert_eq!(dev.standby_depth(), depth);
        let mut rng = SimRng::seed_from(rig_seed);
        let mut rig = PowerRig::paper_rig(5.0, &mut rng);
        // Floor levels sit at the bottom of the ADC range, so calibrate
        // against a known load first, as the rig tests do (§3.1).
        rig.calibrate(0.25, 400);
        // Let the transition finish (SLUMBER entry takes 300 ms), then
        // sample the settled floor.
        dev.advance_to(SimTime::from_millis(500));
        assert_eq!(dev.standby_state(), powadapt::device::StandbyState::Standby);
        rig.restart_at(dev.now());
        for _ in 0..300 {
            let t = rig.next_sample();
            dev.advance_to(t);
            rig.sample(t, dev.power_w());
        }
        rig.trace().mean()
    };

    let partial = measure_floor(StandbyDepth::Partial, 21);
    let slumber = measure_floor(StandbyDepth::Slumber, 22);
    assert!(
        relative_error(partial, 0.26) < 0.01,
        "PARTIAL floor read as {partial:.4} W"
    );
    assert!(
        relative_error(slumber, 0.17) < 0.01,
        "SLUMBER floor read as {slumber:.4} W"
    );
    assert!(slumber < partial, "SLUMBER is the deeper rung");
}

#[test]
fn dynamic_range_of_a_trace_matches_device_behaviour() {
    use powadapt::device::{IoId, IoKind, IoRequest, MIB};
    let mut dev = catalog::ssd2_d7_p5510(4);
    let mut rng = SimRng::seed_from(13);
    let mut rig = PowerRig::paper_rig(12.0, &mut rng);
    // 100 ms idle, then a write burst, then idle again.
    let mut id = 0u64;
    for i in 0..400 {
        let t = rig.next_sample();
        if i == 100 {
            for _ in 0..8 {
                dev.submit(IoRequest::new(
                    IoId(id),
                    IoKind::Write,
                    id * 8 * MIB,
                    8 * MIB,
                ))
                .expect("valid request");
                id += 1;
            }
        }
        dev.advance_to(t);
        rig.sample(t, dev.power_w());
    }
    let range = rig.trace().dynamic_range().expect("non-empty");
    assert!(
        range > 0.4,
        "idle->burst trace should show a wide dynamic range, got {range:.3}"
    );
}
