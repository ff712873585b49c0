//! Demand response, end to end: build power-throughput models for a small
//! heterogeneous fleet by sweeping the simulated devices, then drive the
//! adaptive controller through a day of power events — an oversubscription
//! emergency, a grid demand-response window, and recovery — while checking
//! the §4.1 deployment-safety rules.
//!
//! Run with: `cargo run --release --example demand_response`

// Tests and examples assert on exact expected values; unwraps and
// bit-exact float comparisons are deliberate here (see workspace lints).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use powadapt::core::{AdaptiveController, BudgetSchedule, PowerDomain, PowerEventCause};
use powadapt::device::{catalog, StorageDevice, KIB};
use powadapt::io::{full_sweep_with, ParallelConfig, SweepScale, Workload};
use powadapt::model::PowerThroughputModel;
use powadapt::sim::{SimDuration, SimTime};

fn model_for(label: &str, seed: u64) -> PowerThroughputModel {
    // A trimmed sweep is enough to model the frontier: two shapes per state.
    let factory = || catalog::by_label(label, seed).expect("known label");
    let states: Vec<_> = factory().power_states().iter().map(|d| d.id).collect();
    let scale = SweepScale {
        runtime: SimDuration::from_millis(500),
        size_limit: 2 * 1024 * 1024 * 1024,
        ramp: SimDuration::from_millis(100),
    };
    let sweep = full_sweep_with(
        factory,
        &[Workload::RandWrite],
        &[64 * KIB, 256 * KIB],
        &[1, 64],
        &states,
        scale,
        seed,
        &ParallelConfig::per_core(),
    )
    .expect("sweep runs");
    PowerThroughputModel::from_sweep(&sweep)
        .into_iter()
        .next()
        .expect("one device, one model")
}

fn main() {
    // 1. Check the deployment is safe to roll out (§4.1): breakers hold the
    //    worst case, and the adaptive pilot is spread across domains.
    let rack = |name: &str| {
        PowerDomain::new(name, 60.0)
            .device(format!("{name}/ssd1"), 13.5, true)
            .device(format!("{name}/ssd2"), 15.1, true)
            .device(format!("{name}/hdd"), 5.3, true)
    };
    let row = PowerDomain::new("row-A", 400.0)
        .child(rack("rack-1"))
        .child(rack("rack-2"));
    let violations = row.check_safety(0.6);
    assert!(
        violations.is_empty(),
        "deployment must be safe: {violations:?}"
    );
    println!(
        "Deployment check: OK (worst case {:.0} W across {} racks, breakers hold)",
        row.worst_case_w(),
        row.children().len()
    );
    println!();

    // 2. Model the fleet by measurement (one rack's worth).
    println!("Building power-throughput models from sweeps...");
    let labels = ["SSD1", "SSD2", "HDD"];
    let models: Vec<PowerThroughputModel> = labels.iter().map(|l| model_for(l, 42)).collect();
    for m in &models {
        println!("  {m}");
    }
    println!();

    // 3. The power schedule: normal -> emergency -> demand response -> recovery.
    let mut schedule = BudgetSchedule::new(40.0);
    schedule.push(
        SimTime::from_secs(10),
        14.0,
        PowerEventCause::Oversubscription,
    );
    schedule.push(
        SimTime::from_secs(20),
        22.0,
        PowerEventCause::DemandResponse,
    );
    schedule.push(SimTime::from_secs(40), 40.0, PowerEventCause::Recovery);

    // 4. Drive the controller through the schedule.
    let devices: Vec<Box<dyn StorageDevice>> = vec![
        Box::new(catalog::ssd1_pm9a3(42)),
        Box::new(catalog::ssd2_d7_p5510(43)),
        Box::new(catalog::hdd_exos_7e2000(44)),
    ];
    let mut controller = AdaptiveController::new(devices, models).expect("labels line up");
    println!(
        "Fleet floor (everything standby / min-power): {:.1} W",
        controller.floor_w()
    );
    println!();

    let mut points: Vec<(SimTime, f64)> = vec![(SimTime::ZERO, schedule.initial_w())];
    points.extend(schedule.events().iter().map(|e| (e.at, e.available_w)));
    for (at, budget) in points {
        let cause = schedule
            .events()
            .iter()
            .find(|e| e.at == at)
            .map_or_else(|| "initial".to_string(), |e| e.cause.to_string());
        println!("t={at} budget {budget:.0} W ({cause}):");
        match controller.apply_budget(budget) {
            Ok(plan) => print!("{plan}"),
            Err(e) => println!("  cannot satisfy: {e}"),
        }
        println!();
    }

    println!("Note: during the 14 W emergency the HDD sleeps and the SSDs downshift;");
    println!("recovery restores ps0 everywhere and wakes the disk.");
}
