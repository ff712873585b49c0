//! Failure injection: the control plane must degrade loudly, not wedge,
//! when devices reject commands mid-flight — the §4.1 transition-safety
//! concern ("local failures of the storage system to control power can
//! safely be identified").
//!
//! Faults come from [`FaultInjector`] wrapping real catalog devices, so
//! these tests exercise the same device models the rest of the suite
//! measures — no bespoke mocks.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]

use powadapt::core::{AdaptiveController, ControlError, RetryPolicy};
use powadapt::device::{catalog, FaultInjector, FaultPlan, PowerStateId, StorageDevice};
use powadapt::io::AccessPattern;
use powadapt::io::{
    run_fleet, ArrivalGen, Arrivals, BreakerConfig, BreakerState, CircuitBreakerRouter,
    LeastLoadedRouter, OpenLoopSpec, Workload,
};
use powadapt::model::{ConfigPoint, PowerThroughputModel};
use powadapt::sim::{SimDuration, SimTime};

const GIB: u64 = 1 << 30;

fn mk(device: &str, ps: u8, power: f64, thr: f64) -> ConfigPoint {
    ConfigPoint::new(
        device,
        Workload::RandWrite,
        PowerStateId(ps),
        256 * 1024,
        64,
        power,
        thr,
    )
}

fn ssd2_model() -> PowerThroughputModel {
    PowerThroughputModel::from_points(
        "SSD2",
        vec![
            mk("SSD2", 0, 15.0, 3.3e9),
            mk("SSD2", 1, 11.7, 2.3e9),
            mk("SSD2", 2, 9.7, 1.6e9),
        ],
    )
    .unwrap()
}

fn hdd_model() -> PowerThroughputModel {
    PowerThroughputModel::from_points("HDD", vec![mk("HDD", 0, 4.5, 130e6)]).unwrap()
}

/// SSD2 wrapped in an injector with the given plan, plus a healthy HDD.
fn faulted_pair(plan: FaultPlan) -> AdaptiveController {
    let ssd = FaultInjector::seeded(Box::new(catalog::ssd2_d7_p5510(1)), plan, 77);
    AdaptiveController::new(
        vec![Box::new(ssd), Box::new(catalog::hdd_exos_7e2000(2))],
        vec![ssd2_model(), hdd_model()],
    )
    .expect("labels match through the injector")
}

fn stream(rate: f64, ms: u64, seed: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: rate },
        block_size: 64 * 1024,
        read_fraction: 0.7,
        pattern: AccessPattern::Random,
        region: (0, 4 * GIB),
        duration: SimDuration::from_millis(ms),
        seed,
        zipf_theta: None,
    }
}

// ---------------------------------------------------------------- controller

#[test]
fn controller_degrades_instead_of_failing_when_headroom_exists() {
    // SSD2's admin plane is down for good; the HDD is healthy.
    let mut ctl =
        faulted_pair(FaultPlan::none().admin_outage(SimTime::ZERO, SimTime::from_secs(3600)));
    let plan = ctl
        .apply_budget(30.0)
        .expect("degraded plan, not an error, when the rest of the fleet fits");
    assert!(!plan.is_clean());
    assert_eq!(plan.degraded.len(), 1);
    assert_eq!(plan.degraded[0].device, "SSD2");
    assert!(plan.degraded[0].error.is_transient());
    assert_eq!(plan.quarantined, vec!["SSD2".to_string()]);
    // The compliant remainder (HDD) got an action; the SSD sat out.
    assert_eq!(plan.actions.len(), 1);
    assert_eq!(plan.actions[0].0, "HDD");
    // Fleet-wide compliance: quarantined draw is counted, not ignored.
    assert!(plan.expected_power_w <= 30.0);
    assert!(ctl.is_quarantined(0));
    assert!(!ctl.is_quarantined(1));
}

#[test]
fn retries_are_bounded_and_recorded_in_health() {
    let mut ctl =
        faulted_pair(FaultPlan::none().admin_outage(SimTime::ZERO, SimTime::from_secs(3600)))
            .with_retry_policy(RetryPolicy::with_max_attempts(4));
    let plan = ctl.apply_budget(30.0).expect("degraded plan");
    assert_eq!(plan.degraded[0].attempts, 4, "retry bound honored");
    assert_eq!(ctl.health(0).failures(), 4);
    assert!(ctl.health(0).error_rate() > 0.5, "EWMA reflects the storm");
    assert_eq!(ctl.health(1).failures(), 0);
}

#[test]
fn stuck_device_quarantined_then_readmitted_after_cooldown() {
    // Power-state transitions wedge for the first 10 ms of sim time only.
    let mut ctl =
        faulted_pair(FaultPlan::none().stuck_power_state(SimTime::ZERO, SimTime::from_millis(10)));
    // 15 W forces the SSD out of ps0 -> set_power_state -> Timeout.
    let plan = ctl.apply_budget(15.0).expect("degraded plan");
    assert!(!plan.is_clean());
    assert!(
        plan.expected_power_w <= 15.0,
        "compliant despite the refusal"
    );
    assert!(ctl.is_quarantined(0));

    // The fault window passes while the device sits out its cooldown.
    ctl.device_mut(0).advance_to(SimTime::from_millis(20));
    let during_cooldown = ctl.apply_budget(15.0).expect("still degraded");
    assert!(during_cooldown.quarantined.contains(&"SSD2".to_string()));

    // Cooldown (default 2 rounds) expires: the probe succeeds and the
    // fleet is clean again.
    let recovered = ctl.apply_budget(15.0).expect("probe succeeds");
    assert!(recovered.is_clean(), "plan: {recovered}");
    assert_eq!(recovered.actions.len(), 2);
    assert!(!ctl.is_quarantined(0));
}

#[test]
fn budget_below_remaining_floor_is_still_infeasible() {
    let mut ctl =
        faulted_pair(FaultPlan::none().admin_outage(SimTime::ZERO, SimTime::from_secs(3600)));
    // 6 W: even with the SSD quarantined, its idle draw (~5 W) plus the
    // HDD floor cannot fit. Degradation must not hide infeasibility.
    match ctl.apply_budget(6.0) {
        Err(ControlError::Infeasible { .. }) | Err(ControlError::Device(_)) => {}
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn mismatched_fleet_wiring_is_rejected_up_front() {
    let ssd = FaultInjector::seeded(Box::new(catalog::ssd2_d7_p5510(1)), FaultPlan::none(), 1);
    let err = AdaptiveController::new(
        vec![Box::new(ssd) as Box<dyn StorageDevice>],
        vec![hdd_model()],
    );
    assert!(matches!(err, Err(ControlError::MismatchedModels)));
}

// --------------------------------------------------------------------- fleet

fn faulted_fleet(plans: Vec<FaultPlan>) -> Vec<Box<dyn StorageDevice>> {
    plans
        .into_iter()
        .enumerate()
        .map(|(i, plan)| {
            let inner = Box::new(catalog::ssd3_d3_p4510(100 + i as u64));
            Box::new(FaultInjector::seeded(inner, plan, 500 + i as u64)) as Box<dyn StorageDevice>
        })
        .collect()
}

#[test]
fn fleet_fails_over_under_poisson_arrivals() {
    // One device rejects 30% of submissions; two are healthy.
    let mut devices = faulted_fleet(vec![
        FaultPlan::none().io_errors(0.3),
        FaultPlan::none(),
        FaultPlan::none(),
    ]);
    let mut router =
        CircuitBreakerRouter::new(LeastLoadedRouter::default(), BreakerConfig::default());
    let spec = stream(3_000.0, 300, 21);
    let expected = powadapt::io::ArrivalGen::new(&spec).unwrap().count() as u64;
    let r = run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(20),
    )
    .expect("run completes despite injected faults");
    assert!(r.io_errors > 0, "faults were actually injected");
    // Every arrival is accounted for: served somewhere or dropped.
    assert_eq!(r.total.ios() + r.dropped, expected);
    // With two healthy devices, re-routing keeps drops at zero.
    assert_eq!(r.dropped, 0, "healthy devices absorb the failovers");
}

#[test]
fn breaker_quarantines_through_dropout_and_readmits() {
    // Device 0 drops out for [50 ms, 150 ms); the breaker must open during
    // the outage and close again once probes succeed.
    let mut devices = faulted_fleet(vec![
        FaultPlan::none().dropout(SimTime::from_millis(50), SimTime::from_millis(150)),
        FaultPlan::none(),
    ]);
    let cfg = BreakerConfig {
        failure_threshold: 2,
        cooldown: SimDuration::from_millis(120),
        probe_successes: 1,
    };
    let mut router = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
    let spec = stream(2_000.0, 600, 33);
    let r = run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(20),
    )
    .expect("run completes");
    assert_eq!(r.dropped, 0);
    let entered: Vec<BreakerState> = router.events().iter().map(|e| e.entered).collect();
    assert!(
        entered.contains(&BreakerState::Open),
        "breaker opened during the dropout: {entered:?}"
    );
    assert_eq!(
        router.state(0),
        BreakerState::Closed,
        "device re-admitted after recovery: {entered:?}"
    );
    // Traffic flowed to device 0 again after re-admission.
    assert!(r.per_device[0].routed > 0);
}

#[test]
fn fully_faulted_fleet_drops_instead_of_wedging() {
    let mut devices = faulted_fleet(vec![FaultPlan::none().io_errors(1.0)]);
    let mut router =
        CircuitBreakerRouter::new(LeastLoadedRouter::default(), BreakerConfig::default());
    let spec = stream(500.0, 100, 5);
    let expected = powadapt::io::ArrivalGen::new(&spec).unwrap().count() as u64;
    let r = run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(20),
    )
    .expect("run still terminates");
    assert_eq!(r.total.ios(), 0);
    assert_eq!(r.dropped, expected, "every arrival dropped, none wedged");
}

#[test]
fn latency_spikes_inflate_the_tail_not_the_count() {
    let run = |plan: FaultPlan| {
        let mut devices = faulted_fleet(vec![plan]);
        let mut router = LeastLoadedRouter::default();
        let spec = stream(1_000.0, 300, 8);
        run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(20),
        )
        .expect("run completes")
    };
    let clean = run(FaultPlan::none());
    let spiked = run(FaultPlan::none().latency_spikes(0.2, SimDuration::from_millis(30)));
    assert_eq!(clean.total.ios(), spiked.total.ios(), "no completion lost");
    assert!(
        spiked.total.p99_latency_us() > clean.total.p99_latency_us(),
        "p99 {} -> {}",
        clean.total.p99_latency_us(),
        spiked.total.p99_latency_us()
    );
}
