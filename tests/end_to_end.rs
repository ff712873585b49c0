//! End-to-end tests spanning every crate: sweep simulated devices with the
//! fio-like engine, build models, hand them to the adaptive controller, and
//! verify the closed loop actually keeps measured fleet power within budget.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]

use powadapt::core::choose_config;
use powadapt::core::{AdaptiveController, BudgetSchedule, ControlError, PowerEventCause, Slo};
use powadapt::device::{catalog, StandbyState, StorageDevice, GIB, KIB};
use powadapt::io::{
    full_sweep_with, run_experiment, JobSpec, ParallelConfig, SweepScale, Workload,
};
use powadapt::model::{pareto_frontier, ConfigPoint, LatencyModel, PowerThroughputModel};
use powadapt::sim::{SimDuration, SimTime};

fn sweep_scale() -> SweepScale {
    SweepScale {
        runtime: SimDuration::from_millis(400),
        size_limit: 2 * GIB,
        ramp: SimDuration::from_millis(100),
    }
}

fn model_for(label: &str) -> PowerThroughputModel {
    let factory = || catalog::by_label(label, 11).expect("known label");
    let states: Vec<_> = factory().power_states().iter().map(|d| d.id).collect();
    let sweep = full_sweep_with(
        factory,
        &[Workload::RandWrite],
        &[64 * KIB, 1024 * KIB],
        &[1, 64],
        &states,
        sweep_scale(),
        11,
        &ParallelConfig::per_core(),
    )
    .expect("sweep runs");
    PowerThroughputModel::from_sweep(&sweep)
        .into_iter()
        .next()
        .expect("single device")
}

#[test]
fn measured_models_have_sane_frontiers() {
    for label in ["SSD1", "SSD2", "HDD"] {
        let m = model_for(label);
        assert!(
            m.points().len() >= 4,
            "{label}: {} points",
            m.points().len()
        );
        let frontier = pareto_frontier(m.points());
        assert!(!frontier.is_empty());
        // Frontier is monotone: more power, more throughput.
        for w in frontier.windows(2) {
            assert!(w[0].power_w() < w[1].power_w());
            assert!(w[0].throughput_bps() < w[1].throughput_bps());
        }
        // Every frontier point is a real measured configuration.
        for p in &frontier {
            assert_eq!(p.device(), label);
            assert!(p.power_w() > 0.0 && p.throughput_bps() > 0.0);
        }
    }
}

#[test]
fn controller_tracks_a_budget_schedule_end_to_end() {
    let devices: Vec<Box<dyn StorageDevice>> = vec![
        Box::new(catalog::ssd2_d7_p5510(21)),
        Box::new(catalog::hdd_exos_7e2000(22)),
    ];
    let models = vec![model_for("SSD2"), model_for("HDD")];
    let mut ctl = AdaptiveController::new(devices, models).expect("labels match");

    let mut schedule = BudgetSchedule::new(25.0);
    schedule.push(
        SimTime::from_secs(1),
        12.0,
        PowerEventCause::Oversubscription,
    );
    schedule.push(SimTime::from_secs(2), 25.0, PowerEventCause::Recovery);

    // Initial budget: everything can run at full power.
    let plan = ctl.apply_budget(schedule.initial_w()).expect("feasible");
    assert!(plan.expected_power_w <= 25.0);

    // Emergency: 12 W forces the HDD into standby and the SSD down-state.
    let plan = ctl
        .apply_budget(schedule.budget_at(SimTime::from_secs(1)))
        .expect("feasible with standby");
    assert!(plan.expected_power_w <= 12.0);
    assert!(
        plan.actions.iter().any(|(label, a)| label == "HDD"
            && matches!(a, powadapt::core::DeviceAction::Standby { .. })),
        "HDD should sleep under 12 W: {plan}"
    );

    // Recovery: back to full throughput.
    let plan = ctl
        .apply_budget(schedule.budget_at(SimTime::from_secs(3)))
        .expect("feasible");
    assert!(plan.expected_throughput_bps > 1.0e9);
}

#[test]
fn applied_plan_is_honored_by_the_real_devices() {
    // Apply a tight budget, then actually run the advised workload on the
    // SSD and check the *measured* power obeys the plan.
    let devices: Vec<Box<dyn StorageDevice>> = vec![Box::new(catalog::ssd2_d7_p5510(31))];
    let model = model_for("SSD2");
    let mut ctl = AdaptiveController::new(devices, vec![model]).expect("labels match");

    let budget = 11.0;
    let plan = ctl.apply_budget(budget).expect("feasible");
    let advised = match &plan.actions[0].1 {
        powadapt::core::DeviceAction::Operate(p) => p.clone(),
        other => panic!("expected an operate action, got {other:?}"),
    };

    let mut devices = ctl.into_devices();
    let dev = devices[0].as_mut();
    let job = JobSpec::new(advised.workload())
        .block_size(advised.chunk())
        .io_depth(advised.depth())
        .runtime(SimDuration::from_millis(600))
        .size_limit(2 * GIB)
        .ramp(SimDuration::from_millis(150))
        .seed(31);
    let r = run_experiment(dev, &job).expect("job runs");
    assert!(
        r.avg_power_w() <= budget * 1.05,
        "measured {:.2} W exceeds the {budget} W budget",
        r.avg_power_w()
    );
    assert!(
        r.io.throughput_bps() > 0.5 * advised.throughput_bps(),
        "throughput {:.0} far below the model's {:.0}",
        r.io.throughput_bps(),
        advised.throughput_bps()
    );
}

#[test]
fn slo_constrained_selection_respects_both_axes() {
    let model = model_for("SSD2");
    let slo = Slo::new().min_throughput_bps(0.2e9);
    let choice = choose_config(&model, 11.0, &slo).expect("feasible");
    assert!(choice.power_w() <= 11.0);
    assert!(choice.throughput_bps() >= 0.2e9);

    // An impossible SLO under the same budget.
    let greedy = Slo::new().min_throughput_bps(50e9);
    assert!(choose_config(&model, 11.0, &greedy).is_none());
}

#[test]
fn latency_model_from_a_real_sweep_reproduces_the_cap_blowup() {
    // Sweep SSD2 randwrite at QD1 across two states; the latency model
    // built from the measurements must show the ps2 tail blowup.
    let factory = || catalog::by_label("SSD2", 13).expect("known label");
    let sweep = full_sweep_with(
        factory,
        &[Workload::RandWrite],
        &[256 * KIB, 2048 * KIB],
        &[1],
        &[
            powadapt::device::PowerStateId(0),
            powadapt::device::PowerStateId(2),
        ],
        SweepScale {
            runtime: SimDuration::from_millis(600),
            size_limit: 2 * GIB,
            ramp: SimDuration::from_millis(120),
        },
        13,
        &ParallelConfig::per_core(),
    )
    .expect("sweep runs");
    let points: Vec<ConfigPoint> = sweep.iter().map(ConfigPoint::from).collect();
    let model = LatencyModel::from_points(points).expect("latencies measured");

    let worst = model
        .max_p99_ratio_vs(
            powadapt::device::PowerStateId(0),
            powadapt::device::PowerStateId(2),
        )
        .expect("matched shapes");
    assert!(
        worst > 2.0,
        "capping should blow up the measured tail (got {worst:.2}x)"
    );

    // The SLO solver picks a cap-compliant point when the tail budget is
    // loose, and refuses when it is tighter than physics allows.
    let base_p99 = model
        .points()
        .iter()
        .map(powadapt::model::ConfigPoint::p99_latency_us)
        .fold(f64::INFINITY, f64::min);
    assert!(model.min_power_within(base_p99 * 0.5, 0.0).is_none());
    let ok = model
        .min_power_within(f64::INFINITY, 0.0)
        .expect("anything qualifies");
    let cheapest = model
        .points()
        .iter()
        .map(powadapt::model::ConfigPoint::power_w)
        .fold(f64::INFINITY, f64::min);
    assert!((ok.power_w() - cheapest).abs() < 1e-9);
}

#[test]
fn infeasible_budgets_surface_the_floor() {
    let devices: Vec<Box<dyn StorageDevice>> = vec![Box::new(catalog::ssd2_d7_p5510(41))];
    let mut ctl = AdaptiveController::new(devices, vec![model_for("SSD2")]).unwrap();
    match ctl.apply_budget(1.0) {
        Err(ControlError::Infeasible { floor_w, .. }) => {
            assert!(floor_w > 1.0, "floor {floor_w}");
        }
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn standby_fleet_member_wakes_on_io() {
    // A device the controller put to sleep still serves IO (auto-wake),
    // paying the wake latency — the §4 redirection trade-off.
    let mut hdd = catalog::hdd_exos_7e2000(51);
    hdd.request_standby().expect("idle disk sleeps");
    while let Some(t) = hdd.next_event() {
        hdd.advance_to(t);
    }
    assert_eq!(hdd.standby_state(), StandbyState::Standby);

    let job = JobSpec::new(Workload::RandRead)
        .block_size(4 * KIB)
        .io_depth(1)
        .runtime(SimDuration::from_secs(30))
        .size_limit(64 * KIB)
        .seed(51);
    let r = run_experiment(&mut hdd, &job).expect("job runs");
    assert!(r.io.ios() > 0);
    assert!(
        r.io.latency_summary().expect("has latencies").max() > 5e6,
        "first IO pays multi-second spin-up"
    );
}
