//! Reproducibility: identical seeds give bit-identical experiments across
//! the whole stack (device + meter + engine); different seeds differ.

use powadapt::device::{catalog, FaultInjector, FaultPlan, StorageDevice, GIB, KIB};
use powadapt::io::{
    run_experiment, run_fleet, AccessPattern, ArrivalGen, Arrivals, BreakerConfig,
    CircuitBreakerRouter, ExperimentResult, JobSpec, LeastLoadedRouter, OpenLoopSpec, Workload,
};
use powadapt::sim::{SimDuration, SimTime};

fn experiment(device_seed: u64, job_seed: u64) -> ExperimentResult {
    let mut dev = catalog::ssd2_d7_p5510(device_seed);
    let job = JobSpec::new(Workload::RandWrite)
        .block_size(64 * KIB)
        .io_depth(16)
        .runtime(SimDuration::from_millis(300))
        .size_limit(GIB)
        .ramp(SimDuration::from_millis(50))
        .seed(job_seed);
    run_experiment(&mut dev, &job).expect("experiment runs")
}

fn fingerprint(r: &ExperimentResult) -> (u64, u64, usize, u64) {
    // Hash-free exact fingerprint: counts plus bit patterns of the floats.
    let power_bits = r.power.samples().iter().fold(0u64, |acc, w| {
        acc.wrapping_mul(31).wrapping_add(w.to_bits())
    });
    (r.io.ios(), r.io.bytes(), r.power.len(), power_bits)
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = experiment(7, 99);
    let b = experiment(7, 99);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(
        a.io.avg_latency_us().to_bits(),
        b.io.avg_latency_us().to_bits()
    );
    assert_eq!(a.avg_power_w().to_bits(), b.avg_power_w().to_bits());
}

#[test]
fn different_device_seeds_change_only_noise() {
    let a = experiment(7, 99);
    let b = experiment(8, 99);
    // The workload is identical, so IO accounting matches...
    assert_eq!(a.io.ios(), b.io.ios());
    assert_eq!(a.io.bytes(), b.io.bytes());
    // ...but the power noise stream differs.
    assert_ne!(fingerprint(&a).3, fingerprint(&b).3);
    // While staying statistically close.
    assert!((a.avg_power_w() - b.avg_power_w()).abs() < 0.5);
}

#[test]
fn different_job_seeds_change_the_offset_stream() {
    let a = experiment(7, 99);
    let b = experiment(7, 100);
    // Random offsets differ; aggregate behaviour stays close.
    assert!((a.io.throughput_mibs() - b.io.throughput_mibs()).abs() / a.io.throughput_mibs() < 0.1);
    assert_ne!(fingerprint(&a).3, fingerprint(&b).3);
}

#[test]
fn fleet_runs_are_bit_identical_across_runs() {
    // A full fleet scenario — Poisson arrivals, least-loaded routing behind
    // a circuit breaker, and a fault injector dropping device 0 mid-run —
    // must replay bit-identically: same IoStats, same power-trace checksum.
    let run = || {
        let mut devices: Vec<Box<dyn StorageDevice>> = (0..4)
            .map(|i| {
                let inner = Box::new(catalog::ssd3_d3_p4510(50 + i));
                let plan = if i == 0 {
                    FaultPlan::none()
                        .io_errors(0.01)
                        .dropout(SimTime::from_millis(150), SimTime::from_millis(350))
                } else {
                    FaultPlan::none()
                };
                Box::new(FaultInjector::seeded(inner, plan, 40 + i)) as Box<dyn StorageDevice>
            })
            .collect();
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_millis(100),
            probe_successes: 2,
        };
        let mut router = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
        let spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 6_000.0 },
            block_size: 64 * KIB,
            read_fraction: 0.7,
            pattern: AccessPattern::Random,
            region: (0, GIB),
            duration: SimDuration::from_millis(600),
            seed: 21,
            zipf_theta: None,
        };
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(20),
        )
        .expect("fleet runs");
        let power_bits = r.power.samples().iter().fold(0u64, |acc, w| {
            acc.wrapping_mul(31).wrapping_add(w.to_bits())
        });
        (
            (r.total.ios(), r.total.bytes(), r.dropped, r.io_errors),
            (r.reads.ios(), r.writes.ios()),
            (r.power.len(), power_bits, r.energy_j.to_bits()),
        )
    };
    let a = run();
    assert_eq!(a, run());
    // The scenario must actually exercise the fault path to be a meaningful
    // determinism witness.
    assert!(a.0 .3 > 0, "fault injector produced no IO errors");
}

#[test]
fn hdd_runs_are_reproducible_too() {
    let run = || {
        let mut dev = catalog::hdd_exos_7e2000(3);
        let job = JobSpec::new(Workload::RandRead)
            .block_size(4 * KIB)
            .io_depth(8)
            .runtime(SimDuration::from_millis(500))
            .size_limit(GIB)
            .seed(3);
        let r = run_experiment(&mut dev, &job).expect("experiment runs");
        (fingerprint(&r), r.io.p99_latency_us().to_bits())
    };
    assert_eq!(run(), run());
}
