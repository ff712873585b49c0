//! Evaluation of the §4 power-adaptive policies by measurement — the
//! experiments the paper proposes as future systems work, run on the
//! simulated fleet:
//!
//! 1. power-aware IO redirection (consolidation) across demand levels,
//! 2. asymmetric IO (write segregation) under fleet-wide caps,
//! 3. the §4.1 mechanism crossover (shape vs redirect),
//! 4. closed-loop budget tracking,
//! 5. fault tolerance: throughput and tail cost of riding through a
//!    device dropout behind the circuit breaker.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin policy_eval`

use powadapt_bench::cli;
use powadapt_core::{
    choose_mechanism, redirect_crossover_fraction, AdaptiveScenarioRouter, BudgetSchedule,
    ConsolidatingRouter, PowerEventCause, RedirectionConfig, WriteSegregationRouter,
};
use powadapt_device::{catalog, FaultInjector, FaultPlan, PowerStateId, StorageDevice, GIB, KIB};
use powadapt_io::{
    full_sweep_with, run_cells, run_fleet, AccessPattern, ArrivalGen, Arrivals, BreakerConfig,
    CircuitBreakerRouter, LeastLoadedRouter, OpenLoopSpec, ParallelConfig, SweepScale, Workload,
};
use powadapt_model::PowerThroughputModel;
use powadapt_sim::{SimDuration, SimTime};

fn evo_fleet(n: usize) -> Vec<Box<dyn StorageDevice>> {
    (0..n)
        .map(|i| Box::new(catalog::evo_860(900 + i as u64)) as Box<dyn StorageDevice>)
        .collect()
}

fn ssd2_fleet(n: usize) -> Vec<Box<dyn StorageDevice>> {
    (0..n)
        .map(|i| Box::new(catalog::ssd2_d7_p5510(900 + i as u64)) as Box<dyn StorageDevice>)
        .collect()
}

fn stream(rate_iops: f64, block: u64, read_fraction: f64, ms: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops },
        block_size: block,
        read_fraction,
        pattern: AccessPattern::Random,
        region: (0, 8 * GIB),
        duration: SimDuration::from_millis(ms),
        seed: 99,
        zipf_theta: None,
    }
}

fn consolidation_section(pcfg: &ParallelConfig) {
    println!("== 1. Power-aware IO redirection: measured savings by demand (8x 860 EVO) ==");
    println!(
        "   {:>9} {:>11} {:>13} {:>9} {:>12} {:>12}",
        "demand", "baseline W", "consolidated W", "saved", "base p99 us", "cons p99 us"
    );
    let cfg = RedirectionConfig {
        per_device_capacity_bps: 0.4e9,
        active_power_w: 2.0,
        standby_power_w: 0.17,
        wake_latency: SimDuration::from_millis(400),
        grow_threshold: 0.85,
        shrink_threshold: 0.6,
    };
    // Each demand level's baseline/consolidated pair is an independent
    // fleet simulation; fan all of them across the configured workers.
    let demands = [20.0, 80.0, 320.0, 1280.0];
    let pairs = run_cells(&demands, pcfg, |_, &mbs| {
        let rate = mbs * 1e6 / (64.0 * 1024.0);
        let spec = stream(rate, 64 * KIB, 1.0, 1500);
        let interval = SimDuration::from_millis(100);
        let baseline = {
            let mut devices = evo_fleet(8);
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
            let mut devices = evo_fleet(8);
            let mut router = ConsolidatingRouter::new(8, cfg).expect("valid");
            run_fleet(
                &mut devices,
                &mut router,
                ArrivalGen::new(&spec).expect("valid arrival spec"),
                spec.seed,
                interval,
            )
            .expect("runs")
        };
        (baseline, consolidated)
    });
    for (mbs, (baseline, consolidated)) in demands.iter().zip(&pairs) {
        println!(
            "   {:>6.0}MB/s {:>10.2} {:>13.2} {:>8.0}% {:>12.0} {:>12.0}",
            mbs,
            baseline.avg_power_w(),
            consolidated.avg_power_w(),
            100.0 * (1.0 - consolidated.avg_power_w() / baseline.avg_power_w()),
            baseline.total.p99_latency_us(),
            consolidated.total.p99_latency_us(),
        );
    }
    println!();
}

fn segregation_section() {
    println!("== 2. Asymmetric IO: write QoS under fleet-wide caps (4x SSD2, 8.5 GB/s offered) ==");
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 4_096.0 },
        block_size: 2048 * KIB,
        read_fraction: 0.18,
        pattern: AccessPattern::Random,
        region: (0, 8 * GIB),
        duration: SimDuration::from_millis(1200),
        seed: 6,
        zipf_theta: None,
    };
    let interval = SimDuration::from_millis(50);

    #[derive(Debug, Default)]
    struct AllCapped(LeastLoadedRouter, bool);
    impl powadapt_io::Router for AllCapped {
        fn route(
            &mut self,
            a: &powadapt_io::Arrival,
            f: &[powadapt_io::DeviceStatus],
        ) -> powadapt_io::Route {
            self.0.route(a, f)
        }
        fn control(
            &mut self,
            _n: SimTime,
            f: &[powadapt_io::DeviceStatus],
        ) -> Vec<powadapt_io::DeviceCommand> {
            if self.1 {
                return Vec::new();
            }
            self.1 = true;
            (0..f.len())
                .map(|device| powadapt_io::DeviceCommand::SetPowerState {
                    device,
                    ps: PowerStateId(2),
                })
                .collect()
        }
    }

    let uniform = {
        let mut devices = ssd2_fleet(4);
        let mut router = AllCapped::default();
        run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            interval,
        )
        .expect("runs")
    };
    let segregated = {
        let mut devices = ssd2_fleet(4);
        let mut router = WriteSegregationRouter::new(3, PowerStateId(2));
        run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            interval,
        )
        .expect("runs")
    };
    println!(
        "   all-capped (ps2 everywhere): {:>6.1} W, write avg {:>7.0} us, write p99 {:>8.0} us",
        uniform.avg_power_w(),
        uniform.writes.avg_latency_us(),
        uniform.writes.p99_latency_us()
    );
    println!(
        "   segregated (3 writers + capped reader): {:>6.1} W, write avg {:>7.0} us, write p99 {:>8.0} us",
        segregated.avg_power_w(),
        segregated.writes.avg_latency_us(),
        segregated.writes.p99_latency_us()
    );
    println!(
        "   -> write p99 improves {:.1}x at {:+.0}% power",
        uniform.writes.p99_latency_us() / segregated.writes.p99_latency_us(),
        100.0 * (segregated.avg_power_w() / uniform.avg_power_w() - 1.0)
    );
    println!();
}

fn mechanism_section(pcfg: &ParallelConfig) {
    println!("== 3. Mechanism choice (Sec. 4.1): shape everywhere vs consolidate+standby ==");
    let factory = || catalog::by_label("860EVO", 31).expect("known label");
    let sweep = full_sweep_with(
        factory,
        &[Workload::RandRead],
        &[64 * KIB],
        &[1, 4, 8, 32],
        &[PowerStateId(0)],
        SweepScale {
            runtime: SimDuration::from_millis(300),
            size_limit: GIB,
            ramp: SimDuration::from_millis(80),
        },
        31,
        pcfg,
    )
    .expect("sweep runs");
    let model = PowerThroughputModel::from_sweep(&sweep)
        .into_iter()
        .next()
        .expect("one model");

    println!(
        "   {:>10} {:>12} {:>12} {:>20}",
        "demand", "shape W", "redirect W", "preferred"
    );
    let peak = model.max_throughput_bps() * 8.0;
    for frac in [0.05, 0.2, 0.5, 0.8, 0.95] {
        let c = choose_mechanism(&model, 8, peak * frac, 0.17);
        println!(
            "   {:>8.0}% {:>12} {:>12} {:>20}",
            frac * 100.0,
            c.cap_shape_w.map_or("n/a".into(), |w| format!("{w:.1}")),
            c.redirect_w.map_or("n/a".into(), |w| format!("{w:.1}")),
            c.preferred.to_string()
        );
    }
    let crossover = redirect_crossover_fraction(&model, 8, 0.17);
    println!(
        "   crossover: redirection wins below {:.0}% of fleet peak",
        100.0 * crossover
    );
    println!();
}

fn scenario_section(pcfg: &ParallelConfig) {
    println!("== 4. Closed-loop budget tracking (2x SSD2, write-heavy, dip to 21 W) ==");
    let factory = || catalog::by_label("SSD2", 61).expect("known label");
    let states: Vec<_> = factory().power_states().iter().map(|d| d.id).collect();
    let sweep = full_sweep_with(
        factory,
        &[Workload::RandWrite],
        &[256 * KIB],
        &[1, 64],
        &states,
        SweepScale {
            runtime: SimDuration::from_millis(300),
            size_limit: GIB,
            ramp: SimDuration::from_millis(80),
        },
        61,
        pcfg,
    )
    .expect("sweep runs");
    let model = PowerThroughputModel::from_sweep(&sweep)
        .into_iter()
        .next()
        .expect("one model");

    let mut schedule = BudgetSchedule::new(32.0);
    schedule.push(
        SimTime::from_millis(500),
        21.0,
        PowerEventCause::DemandResponse,
    );
    let mut router =
        AdaptiveScenarioRouter::new(schedule, vec![model.clone(), model], vec![None, None]);
    let mut devices = ssd2_fleet(2);
    let spec = stream(14_000.0, 256 * KIB, 0.0, 1200);
    let r = run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(50),
    )
    .expect("runs");
    let before = r
        .power
        .between(SimTime::from_millis(100), SimTime::from_millis(500));
    let after = r
        .power
        .between(SimTime::from_millis(650), SimTime::from_millis(1200));
    println!(
        "   before dip: {:.1} W (budget 32) | after dip: {:.1} W (budget 21) | replans {}",
        before.mean(),
        after.mean(),
        router.replans()
    );
    println!(
        "   served {} IOs at {:.0} MiB/s through the event",
        r.total.ios(),
        r.total.throughput_mibs()
    );
}

fn fault_section() {
    println!("== 5. Fault tolerance: 4x SSD3, device 0 drops out for [0.3 s, 0.9 s) ==");
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 8_000.0 },
        block_size: 64 * KIB,
        read_fraction: 0.7,
        pattern: AccessPattern::Random,
        region: (0, 8 * GIB),
        duration: SimDuration::from_millis(1500),
        seed: 77,
        zipf_theta: None,
    };
    let interval = SimDuration::from_millis(20);
    let outage = FaultPlan::none()
        .io_errors(0.01)
        .dropout(SimTime::from_millis(300), SimTime::from_millis(900));
    let fleet = |faulted: bool| -> Vec<Box<dyn StorageDevice>> {
        (0..4)
            .map(|i| {
                let inner = Box::new(catalog::ssd3_d3_p4510(700 + i));
                let plan = if faulted && i == 0 {
                    outage.clone()
                } else {
                    FaultPlan::none()
                };
                Box::new(FaultInjector::seeded(inner, plan, 40 + i)) as Box<dyn StorageDevice>
            })
            .collect()
    };

    let healthy = {
        let mut devices = fleet(false);
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
    let faulted = {
        let mut devices = fleet(true);
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_millis(200),
            probe_successes: 2,
        };
        let mut router = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            interval,
        )
        .expect("runs");
        println!("   breaker timeline:");
        for e in router.events() {
            println!(
                "     t={:.3}s  device {}  -> {}",
                e.at.as_secs_f64(),
                e.device,
                e.entered
            );
        }
        r
    };
    println!(
        "   {:>18} {:>9} {:>9} {:>12} {:>9} {:>9}",
        "", "IOs", "dropped", "MiB/s", "p99 us", "avg W"
    );
    for (name, r) in [("healthy fleet", &healthy), ("dropout + breaker", &faulted)] {
        println!(
            "   {:>18} {:>9} {:>9} {:>12.1} {:>9.0} {:>9.2}",
            name,
            r.total.ios(),
            r.dropped,
            r.total.throughput_mibs(),
            r.total.p99_latency_us(),
            r.avg_power_w()
        );
    }
    println!(
        "   -> served {:.1}% of the healthy run's IOs through a 40% outage window",
        100.0 * faulted.total.ios() as f64 / healthy.total.ios() as f64
    );
}

fn main() {
    let cli = cli::parse("policy_eval", &[]);
    let trace = cli.start_tracing();
    consolidation_section(&cli.parallel);
    segregation_section();
    mechanism_section(&cli.parallel);
    scenario_section(&cli.parallel);
    fault_section();
    cli::finish_tracing(trace);
}
