//! Tracing a fleet incident end to end: install a [`TraceRecorder`], run a
//! fault-injected fleet under closed-loop budget control, then read the
//! story back out of the trace — the controller's decision log as a table,
//! per-kind event counts, derived latency/power metrics, and the sim-time
//! flamegraph.
//!
//! Run with: `cargo run --release --example trace_fleet`
//!
//! The same instrumentation drives the figure binaries: set
//! `POWADAPT_TRACE=perfetto:out.json` on any of them (or pass
//! `--trace-out out.json`) and load the result at <https://ui.perfetto.dev>.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "examples assert on exact expected values"
)]

use std::sync::Arc;

use powadapt::core::AdaptiveController;
use powadapt::device::{catalog, FaultInjector, FaultPlan, PowerStateId, StorageDevice};
use powadapt::io::{
    run_fleet, AccessPattern, ArrivalGen, Arrivals, BreakerConfig, CircuitBreakerRouter,
    LeastLoadedRouter, OpenLoopSpec, Workload,
};
use powadapt::model::{ConfigPoint, PowerThroughputModel};
use powadapt::obs::{self, span_totals, EventKind, TraceRecorder};
use powadapt::sim::{SimDuration, SimTime};

const GIB: u64 = 1 << 30;

fn main() {
    // One recorder for the whole process: devices, routers, the meter rig,
    // and the controller all capture it when they are constructed.
    let rec = Arc::new(TraceRecorder::new(1 << 20));
    obs::install(rec.clone());

    traced_outage();
    traced_control_rounds();

    obs::uninstall();
    report(&rec);
}

/// A three-SSD fleet serving a Poisson stream while device 0 drops out for
/// [80 ms, 280 ms); the circuit breaker quarantines and re-admits it.
fn traced_outage() {
    let outage = FaultPlan::none()
        .io_errors(0.02)
        .dropout(SimTime::from_millis(80), SimTime::from_millis(280));
    let mut devices: Vec<Box<dyn StorageDevice>> = (0..3)
        .map(|i| {
            let inner = Box::new(catalog::ssd3_d3_p4510(600 + i));
            let plan = if i == 0 {
                outage.clone()
            } else {
                FaultPlan::none()
            };
            Box::new(FaultInjector::seeded(inner, plan, 17 + i)) as Box<dyn StorageDevice>
        })
        .collect();
    let mut router = CircuitBreakerRouter::new(
        LeastLoadedRouter::default(),
        BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_millis(100),
            probe_successes: 2,
        },
    );
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 3_000.0 },
        block_size: 64 * 1024,
        read_fraction: 0.7,
        pattern: AccessPattern::Random,
        region: (0, 4 * GIB),
        duration: SimDuration::from_millis(500),
        seed: 23,
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
    println!("== Fault-injected fleet run (fully traced) ==");
    println!("{result}");
}

/// A mixed SSD+HDD fleet walked through three budget rounds, so the trace
/// carries a controller decision log.
fn traced_control_rounds() {
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
    let mut ctl = AdaptiveController::new(
        vec![
            Box::new(catalog::ssd2_d7_p5510(31)),
            Box::new(catalog::hdd_exos_7e2000(32)),
        ],
        models,
    )
    .expect("wiring matches");
    for budget_w in [30.0, 14.0, 30.0] {
        ctl.apply_budget(budget_w).expect("budget is feasible");
    }
}

/// Everything below reads the finished trace; nothing here could have
/// influenced the run.
fn report(rec: &TraceRecorder) {
    let events = rec.log().snapshot();

    println!("\n== Controller decision log ==");
    println!(
        "{:>10}  {:>8}  {:>10}  {:>10}  {:>9}  {:>11}  degraded",
        "t (ms)", "budget W", "measured W", "expected W", "thr GiB/s", "quarantined"
    );
    for e in &events {
        if let EventKind::ControllerDecision(d) = &e.kind {
            println!(
                "{:>10.1}  {:>8.1}  {:>10.2}  {:>10.2}  {:>9.2}  {:>11}  {}",
                e.at.as_secs_f64() * 1e3,
                d.budget_w,
                d.measured_w,
                d.expected_power_w,
                d.expected_throughput_bps / f64::from(1u32 << 30),
                d.quarantined.len(),
                if d.degraded.is_empty() {
                    "-".to_string()
                } else {
                    d.degraded.join(",")
                }
            );
        }
    }

    println!("\n== Event counts ==");
    for (kind, n) in rec.log().counts() {
        println!("{kind:>24}  {n}");
    }
    println!(
        "{:>24}  {} ({} evicted from ring)",
        "total",
        rec.log().total(),
        rec.log().dropped()
    );

    let snap = rec.metrics().snapshot();
    println!("\n== Derived metrics ==");
    for h in &snap.histograms {
        println!(
            "{}: n={} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            h.name, h.count, h.p50, h.p95, h.p99, h.max
        );
    }

    println!("\n== Sim-time profile (top spans by self time) ==");
    let mut totals: Vec<_> = span_totals(&events).into_iter().collect();
    totals.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
    for (label, stat) in totals.iter().take(8) {
        println!(
            "{label:>28}  count={:<6} self={:.3} ms  total={:.3} ms",
            stat.count,
            stat.self_ns as f64 / 1e6,
            stat.total_ns as f64 / 1e6
        );
    }
    println!(
        "\n(full exports: POWADAPT_TRACE=perfetto:out.json on any figure binary \
         writes the Chrome trace, metrics snapshot, and collapsed stacks)"
    );
}
