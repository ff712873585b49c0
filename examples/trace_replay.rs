//! Trace-driven what-if analysis: record a skewed production-like workload
//! to CSV, then replay the *same* trace under different power policies and
//! compare measured energy and latency — the workflow an operator would use
//! to evaluate power adaptivity before deploying it.
//!
//! Run with: `cargo run --release --example trace_replay`

use powadapt::core::{ExcesCachingRouter, RedirectionConfig};
use powadapt::device::{catalog, StorageDevice, GIB, KIB};
use powadapt::io::{
    run_fleet, AccessPattern, ArrivalGen, ArrivalTrace, Arrivals, FleetResult, LeastLoadedRouter,
    OpenLoopSpec, Router,
};
use powadapt::sim::SimDuration;

fn fleet() -> Vec<Box<dyn StorageDevice>> {
    (0..4)
        .map(|i| Box::new(catalog::evo_860(50 + i as u64)) as Box<dyn StorageDevice>)
        .collect()
}

fn replay(name: &str, trace: &ArrivalTrace, router: &mut dyn Router) -> FleetResult {
    let mut devices = fleet();
    let r = run_fleet(
        &mut devices,
        router,
        trace.arrivals().iter().copied(),
        7,
        SimDuration::from_millis(100),
    )
    .expect("trace replays");
    println!(
        "  {name:<22} {:>7.2} W avg  {:>8.1} J  reads p99 {:>7.0} us  ({} absorbed)",
        r.avg_power_w(),
        r.energy_j,
        if r.reads.ios() > 0 {
            r.reads.p99_latency_us()
        } else {
            r.absorbed.p99_latency_us()
        },
        r.absorbed.ios()
    );
    r
}

fn main() {
    // 1. Record a bursty, Zipf-skewed, read-mostly stream — and round-trip
    //    it through the CSV format a real trace would arrive in.
    let spec = OpenLoopSpec {
        arrivals: Arrivals::OnOff {
            burst_rate_iops: 4_000.0,
            mean_on: SimDuration::from_millis(80),
            mean_off: SimDuration::from_millis(120),
        },
        block_size: 16 * KIB,
        read_fraction: 0.9,
        pattern: AccessPattern::Random,
        region: (0, 2 * GIB),
        duration: SimDuration::from_secs(3),
        seed: 7,
        zipf_theta: Some(1.05),
    };
    let recorded =
        ArrivalTrace::record(ArrivalGen::new(&spec).expect("valid spec")).expect("ordered");
    let mut csv = Vec::new();
    recorded.write_csv(&mut csv).expect("serializes");
    let trace = ArrivalTrace::from_csv(csv.as_slice()).expect("parses back");
    println!(
        "Recorded trace: {} requests, {:.1} MiB, {:.2} s ({} bytes of CSV)",
        trace.len(),
        trace.total_bytes() as f64 / (1024.0 * 1024.0),
        trace.duration().as_secs_f64(),
        csv.len()
    );
    println!();

    // 2. Replay under three configurations.
    println!("Replaying the identical trace under three policies (4x 860 EVO):");
    let mut baseline = LeastLoadedRouter::default();
    let base = replay("baseline", &trace, &mut baseline);

    let cfg = RedirectionConfig {
        per_device_capacity_bps: 0.4e9,
        active_power_w: 2.0,
        standby_power_w: 0.17,
        wake_latency: SimDuration::from_millis(400),
        grow_threshold: 0.85,
        shrink_threshold: 0.6,
    };
    let mut consolidating = powadapt::core::ConsolidatingRouter::new(4, cfg).expect("valid config");
    let cons = replay("consolidation", &trace, &mut consolidating);

    let mut cached = ExcesCachingRouter::new(
        powadapt::core::ConsolidatingRouter::new(4, cfg).expect("valid config"),
        16 * KIB,
        8_192, // 128 MiB of cache
        SimDuration::from_micros(5),
    );
    let both = replay("consolidation+cache", &trace, &mut cached);

    println!();
    println!(
        "Energy vs baseline: consolidation {:.0}%, consolidation+cache {:.0}% (hit rate {:.0}%)",
        100.0 * (1.0 - cons.energy_j / base.energy_j),
        100.0 * (1.0 - both.energy_j / base.energy_j),
        100.0 * cached.hit_rate()
    );
    println!("Same requests, same timing — the differences are pure policy.");
}
