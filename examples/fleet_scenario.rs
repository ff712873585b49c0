//! The whole paper in one closed-loop simulation: a heterogeneous fleet
//! serves a bursty open-loop workload while a power-budget schedule
//! (oversubscription dip, demand-response window, recovery) drives live
//! device control through the measured power-throughput models. Fleet
//! power is metered at 1 kHz throughout, so budget compliance is verified
//! by measurement rather than by expectation.
//!
//! Run with: `cargo run --release --example fleet_scenario`

use powadapt::core::{AdaptiveScenarioRouter, BudgetSchedule, PowerEventCause};
use powadapt::device::{catalog, StorageDevice, GIB, KIB};
use powadapt::io::{
    full_sweep_with, run_fleet, AccessPattern, ArrivalGen, Arrivals, OpenLoopSpec, ParallelConfig,
    SweepScale, Workload,
};
use powadapt::model::PowerThroughputModel;
use powadapt::sim::{SimDuration, SimTime};

fn model_for(label: &str, seed: u64) -> PowerThroughputModel {
    let factory = move || catalog::by_label(label, seed).expect("known label");
    let states: Vec<_> = factory().power_states().iter().map(|d| d.id).collect();
    let sweep = full_sweep_with(
        factory,
        &[Workload::RandWrite],
        &[64 * KIB, 256 * KIB],
        &[1, 16, 64],
        &states,
        SweepScale {
            runtime: SimDuration::from_millis(400),
            size_limit: GIB,
            ramp: SimDuration::from_millis(100),
        },
        seed,
        &ParallelConfig::per_core(),
    )
    .expect("sweep runs");
    PowerThroughputModel::from_sweep(&sweep)
        .into_iter()
        .next()
        .expect("one model per device")
}

fn main() {
    println!("Building per-device models (one sweep per device)...");
    let labels = ["SSD1", "SSD2", "860EVO"];
    let models: Vec<PowerThroughputModel> = labels.iter().map(|l| model_for(l, 42)).collect();
    for m in &models {
        println!("  {m}");
    }

    let mut devices: Vec<Box<dyn StorageDevice>> = vec![
        Box::new(catalog::ssd1_pm9a3(42)),
        Box::new(catalog::ssd2_d7_p5510(43)),
        Box::new(catalog::evo_860(44)),
    ];
    let standby_w: Vec<Option<f64>> = devices.iter().map(|d| d.standby_power_w()).collect();

    // The day's power script.
    let mut schedule = BudgetSchedule::new(30.0);
    schedule.push(
        SimTime::from_millis(600),
        16.0,
        PowerEventCause::Oversubscription,
    );
    schedule.push(
        SimTime::from_millis(1200),
        22.0,
        PowerEventCause::DemandResponse,
    );
    schedule.push(SimTime::from_millis(1800), 30.0, PowerEventCause::Recovery);
    println!("\nBudget schedule:");
    println!("  t=0.0s    30 W (initial)");
    for e in schedule.events() {
        println!("  t={}  {:.0} W ({})", e.at, e.available_w, e.cause);
    }

    // Bursty mixed traffic for 2.4 s.
    let spec = OpenLoopSpec {
        arrivals: Arrivals::OnOff {
            burst_rate_iops: 20_000.0,
            mean_on: SimDuration::from_millis(60),
            mean_off: SimDuration::from_millis(40),
        },
        block_size: 256 * KIB,
        read_fraction: 0.3,
        pattern: AccessPattern::Random,
        region: (0, 8 * GIB),
        duration: SimDuration::from_millis(2400),
        seed: 42,
        zipf_theta: None,
    };

    let mut router = AdaptiveScenarioRouter::new(schedule.clone(), models, standby_w);
    let result = run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(50),
    )
    .expect("scenario runs");

    println!("\nMeasured fleet power vs budget (100 ms windows):");
    println!(
        "  {:>8} {:>10} {:>10} {:>9}",
        "t", "budget", "measured", "ok?"
    );
    let window = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    while t + window <= SimTime::from_millis(2400) {
        let seg = result.power.between(t, t + window);
        if seg.is_empty() {
            break;
        }
        let budget = schedule.budget_at(t + window);
        let measured = seg.mean();
        // Allow transitions a settling window after each event.
        let near_event = schedule
            .events()
            .iter()
            .any(|e| t < e.at + SimDuration::from_millis(200) && t + window > e.at);
        let ok = measured <= budget * 1.05 || near_event;
        println!(
            "  {:>7.1}s {:>8.0} W {:>8.1} W {:>9}",
            t.as_secs_f64(),
            budget,
            measured,
            if ok { "yes" } else { "OVER" }
        );
        t += window;
    }

    println!("\nOutcome:");
    println!(
        "  replans: {}, infeasible events: {}",
        router.replans(),
        router.infeasible_events()
    );
    println!("  served: {}", result.total);
    println!(
        "  reads:  avg {:.0} us, p99 {:.0} us | writes: avg {:.0} us, p99 {:.0} us",
        result.reads.avg_latency_us(),
        result.reads.p99_latency_us(),
        result.writes.avg_latency_us(),
        result.writes.p99_latency_us()
    );
    println!("  energy: {:.1} J over the scenario", result.energy_j);
}
