//! Fault tolerance end to end: a fleet serves a Poisson stream while one
//! device drops out mid-run. The circuit breaker quarantines it, the
//! healthy devices absorb the failover, and the device is probed and
//! re-admitted once it recovers — all deterministic, so the whole incident
//! replays bit-for-bit from the seeds.
//!
//! Run with: `cargo run --release --example fault_tolerance`

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "examples assert on exact expected values"
)]

use powadapt::core::{AdaptiveController, RetryPolicy};
use powadapt::device::{catalog, FaultInjector, FaultPlan, PowerStateId, StorageDevice};
use powadapt::io::{
    run_fleet, AccessPattern, ArrivalGen, Arrivals, BreakerConfig, CircuitBreakerRouter,
    LeastLoadedRouter, OpenLoopSpec, Workload,
};
use powadapt::model::{ConfigPoint, PowerThroughputModel};
use powadapt::sim::{SimDuration, SimTime};

const GIB: u64 = 1 << 30;

fn main() {
    fleet_failover();
    degraded_control();
}

/// Part 1: the IO path. Device 0 is unreachable for [100 ms, 400 ms).
fn fleet_failover() {
    println!("== Fleet failover under a device dropout ==");
    let outage = FaultPlan::none()
        .io_errors(0.02)
        .dropout(SimTime::from_millis(100), SimTime::from_millis(400));
    let mut devices: Vec<Box<dyn StorageDevice>> = (0..3)
        .map(|i| {
            let inner = Box::new(catalog::ssd3_d3_p4510(100 + i));
            let plan = if i == 0 {
                outage.clone()
            } else {
                FaultPlan::none()
            };
            Box::new(FaultInjector::seeded(inner, plan, 7 + i)) as Box<dyn StorageDevice>
        })
        .collect();

    let cfg = BreakerConfig {
        failure_threshold: 3,
        cooldown: SimDuration::from_millis(150),
        probe_successes: 2,
    };
    let mut router = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 4_000.0 },
        block_size: 64 * 1024,
        read_fraction: 0.7,
        pattern: AccessPattern::Random,
        region: (0, 4 * GIB),
        duration: SimDuration::from_millis(800),
        seed: 42,
        zipf_theta: None,
    };

    let result = run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(20),
    )
    .expect("the run completes despite the outage");

    println!("breaker timeline (device 0 drops out at t=0.100s, back at t=0.400s):");
    for e in router.events() {
        println!(
            "  t={:.3}s  device {}  -> {}",
            e.at.as_secs_f64(),
            e.device,
            e.entered
        );
    }
    println!("{result}");
    for (i, d) in devices.iter().enumerate() {
        println!("  device {i} final breaker state: {}", router.state(i));
        let _ = d;
    }
    println!();
}

/// Part 2: the control path. The SSD's admin queue misbehaves while the
/// controller is trying to enforce a tightened budget.
fn degraded_control() {
    println!("== Degraded budget control with a refusing device ==");
    let mk = |device: &str, ps: u8, power: f64, thr: f64| {
        ConfigPoint::new(
            device,
            Workload::RandWrite,
            PowerStateId(ps),
            256 * 1024,
            64,
            power,
            thr,
        )
    };
    let models = vec![
        PowerThroughputModel::from_points(
            "SSD2",
            vec![
                mk("SSD2", 0, 15.0, 3.3e9),
                mk("SSD2", 1, 11.7, 2.3e9),
                mk("SSD2", 2, 9.7, 1.6e9),
            ],
        )
        .unwrap(),
        PowerThroughputModel::from_points("HDD", vec![mk("HDD", 0, 4.5, 130e6)]).unwrap(),
    ];
    // The SSD's power-state transitions wedge for the first 50 ms.
    let ssd = FaultInjector::seeded(
        Box::new(catalog::ssd2_d7_p5510(1)),
        FaultPlan::none().stuck_power_state(SimTime::ZERO, SimTime::from_millis(50)),
        9,
    );
    let mut ctl = AdaptiveController::new(
        vec![Box::new(ssd), Box::new(catalog::hdd_exos_7e2000(2))],
        models,
    )
    .expect("wiring matches")
    .with_retry_policy(RetryPolicy::with_max_attempts(3));

    println!("round 1: budget 15 W while the SSD is stuck");
    let plan = ctl.apply_budget(15.0).expect("degraded but compliant");
    print!("{plan}");
    println!(
        "  SSD health: error rate {:.2} after {} attempts",
        ctl.health(0).error_rate(),
        ctl.health(0).commands()
    );

    // Time passes; the wedge clears while the device sits out its cooldown.
    ctl.device_mut(0).advance_to(SimTime::from_millis(60));
    println!("round 2: still cooling down");
    print!("{}", ctl.apply_budget(15.0).expect("still degraded"));

    println!("round 3: probe succeeds, fleet is clean again");
    let recovered = ctl.apply_budget(15.0).expect("probe succeeds");
    print!("{recovered}");
    println!("  clean: {}", recovered.is_clean());
}
