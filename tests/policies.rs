//! Cross-crate policy validation: the §4 policies' *analytic* predictions
//! (mechanism choice, tiering energetics, domain safety) checked against
//! *measured* simulations of the same scenarios.

use powadapt::core::{
    choose_mechanism, AbsorptionProfile, ConsolidatingRouter, Mechanism, PowerDomain,
    RedirectionConfig, SpinProfile, TieringPolicy,
};
use powadapt::device::{catalog, StorageDevice, GIB, KIB};
use powadapt::io::{
    full_sweep_with, run_fleet, AccessPattern, ArrivalGen, Arrivals, LeastLoadedRouter,
    OpenLoopSpec, ParallelConfig, SweepScale, Workload,
};
use powadapt::meter::PowerRig;
use powadapt::model::PowerThroughputModel;
use powadapt::sim::{SimDuration, SimRng, SimTime};

fn evo_model() -> PowerThroughputModel {
    let factory = || catalog::by_label("860EVO", 31).expect("known label");
    let sweep = full_sweep_with(
        factory,
        &[Workload::RandRead],
        &[64 * KIB],
        &[1, 8, 32],
        &[powadapt::device::PowerStateId(0)],
        SweepScale {
            runtime: SimDuration::from_millis(300),
            size_limit: GIB,
            ramp: SimDuration::from_millis(80),
        },
        31,
        &ParallelConfig::per_core(),
    )
    .expect("sweep runs");
    PowerThroughputModel::from_sweep(&sweep)
        .into_iter()
        .next()
        .expect("single model")
}

#[test]
fn mechanism_prediction_matches_measured_consolidation_savings() {
    // Analytic side: at a demand well below one device's capacity, the §4.1
    // comparison must prefer redirect+standby for a 4-EVO fleet.
    let model = evo_model();
    let demand_bps = 40e6; // 40 MB/s
    let choice = choose_mechanism(&model, 4, demand_bps, 0.17);
    assert_eq!(choice.preferred, Mechanism::RedirectAndStandby);
    let predicted_saving =
        choice.cap_shape_w.expect("feasible") - choice.redirect_w.expect("feasible");
    assert!(predicted_saving > 0.0);

    // Measured side: the consolidating router on real simulated devices
    // must realize a saving of the same sign and magnitude class.
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 640.0 }, // 640 * 64 KiB = 40 MiB/s
        block_size: 64 * KIB,
        read_fraction: 1.0,
        pattern: AccessPattern::Random,
        region: (0, 4 * GIB),
        duration: SimDuration::from_millis(1500),
        seed: 31,
        zipf_theta: None,
    };
    let fleet = || -> Vec<Box<dyn StorageDevice>> {
        (0..4)
            .map(|i| Box::new(catalog::evo_860(600 + i)) as Box<dyn StorageDevice>)
            .collect()
    };
    let interval = SimDuration::from_millis(100);
    let baseline = {
        let mut devices = fleet();
        let mut router = LeastLoadedRouter::default();
        run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            interval,
        )
        .expect("runs")
    };
    let consolidated = {
        let cfg = RedirectionConfig {
            per_device_capacity_bps: 0.4e9,
            active_power_w: 2.0,
            standby_power_w: 0.17,
            wake_latency: SimDuration::from_millis(400),
            grow_threshold: 0.85,
            shrink_threshold: 0.6,
        };
        let mut devices = fleet();
        let mut router = ConsolidatingRouter::new(4, cfg).expect("valid");
        run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            interval,
        )
        .expect("runs")
    };
    let measured_saving = baseline.avg_power_w() - consolidated.avg_power_w();
    assert!(
        measured_saving > 0.1,
        "measured saving {measured_saving:.2} W should be clearly positive \
         (baseline {:.2} W, consolidated {:.2} W)",
        baseline.avg_power_w(),
        consolidated.avg_power_w()
    );
}

#[test]
fn tiering_energetics_match_the_simulated_hdd() {
    // Analytic profile taken from the catalog HDD.
    let policy = TieringPolicy::new(
        SpinProfile {
            idle_w: 3.76,
            standby_w: 1.1,
            down: SimDuration::from_millis(1500),
            down_w: 2.5,
            up: SimDuration::from_secs(6),
            up_w: 5.2,
        },
        AbsorptionProfile {
            absorb_bw_bps: 500e6,
            absorb_capacity_bytes: 8 * GIB,
        },
    )
    .expect("valid profiles");

    // Measured: meter a real simulated HDD through a 60 s standby cycle
    // (sleep at t=0, wake so that spin-up completes by t=60).
    let period = SimDuration::from_secs(60);
    let mut dev = catalog::hdd_exos_7e2000(5);
    let mut rng = SimRng::seed_from(5);
    let mut rig = PowerRig::paper_rig(12.0, &mut rng);
    dev.request_standby().expect("idle disk accepts standby");
    let wake_at = SimTime::ZERO + period - SimDuration::from_secs(6);
    let mut woke = false;
    loop {
        let t = rig.next_sample();
        if t >= SimTime::ZERO + period {
            break;
        }
        if !woke && t >= wake_at {
            dev.request_wake().expect("wake accepted");
            woke = true;
        }
        dev.advance_to(t);
        rig.sample(t, dev.power_w());
    }
    let measured_j = rig.trace().energy_j();
    let predicted_j = policy.energy_standby_j(period);
    let err = (measured_j - predicted_j).abs() / predicted_j;
    assert!(
        err < 0.05,
        "standby-cycle energy: measured {measured_j:.1} J vs predicted {predicted_j:.1} J"
    );

    // And the idle side of the comparison.
    let idle_j = policy.energy_idle_j(period);
    assert!((idle_j - 3.76 * 60.0).abs() < 1e-9);
    assert!(policy.savings_j(period) > 0.0);
    assert!(measured_j < idle_j, "the cycle must actually save energy");
}

#[test]
fn domain_safety_checks_catch_an_unsafe_rollout_plan() {
    // A rack populated with the catalog devices, each budgeted at a
    // conservative 16 W worst case (above every measured Table 1 maximum).
    let peaks: Vec<(String, f64)> = ["SSD1", "SSD2", "SSD3", "HDD"]
        .iter()
        .map(|l| {
            let dev = catalog::by_label(l, 1).expect("known label");
            (dev.spec().label().to_string(), 16.0)
        })
        .collect();

    let mut safe_rack = PowerDomain::new("rack-safe", 100.0);
    for (label, peak) in &peaks {
        safe_rack = safe_rack.device(label.clone(), *peak, true);
    }
    let parent = PowerDomain::new("row", 500.0)
        .child(safe_rack.clone())
        .child(safe_rack);
    assert!(parent.check_safety(0.5).is_empty());

    // Same devices behind an undersized breaker: violation.
    let mut hot_rack = PowerDomain::new("rack-hot", 40.0);
    for (label, peak) in &peaks {
        hot_rack = hot_rack.device(label.clone(), *peak, true);
    }
    let violations = hot_rack.check_safety(1.0);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].to_string().contains("breaker"));
}
