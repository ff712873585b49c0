//! Property: a fault schedule is part of the experiment, so two runs with
//! the same seeds and the same [`FaultPlan`] must be bit-for-bit
//! identical — fault injection must never smuggle nondeterminism into a
//! measurement.

use proptest::prelude::*;

use powadapt::device::{catalog, FaultInjector, FaultPlan, StorageDevice};
use powadapt::io::{
    run_fleet, AccessPattern, ArrivalGen, Arrivals, BreakerConfig, CircuitBreakerRouter,
    FleetResult, LeastLoadedRouter, OpenLoopSpec,
};
use powadapt::sim::{SimDuration, SimTime};

const GIB: u64 = 1 << 30;

fn run_once(
    fleet_size: usize,
    fault_seed: u64,
    stream_seed: u64,
    io_error_rate: f64,
    spike_rate: f64,
    dropout_from_ms: u64,
    dropout_len_ms: u64,
) -> FleetResult {
    let plan = FaultPlan::none()
        .io_errors(io_error_rate)
        .latency_spikes(spike_rate, SimDuration::from_millis(25))
        .dropout(
            SimTime::from_millis(dropout_from_ms),
            SimTime::from_millis(dropout_from_ms + dropout_len_ms),
        );
    let mut devices: Vec<Box<dyn StorageDevice>> = (0..fleet_size)
        .map(|i| {
            let inner = Box::new(catalog::ssd3_d3_p4510(10 + i as u64));
            // Only device 0 is faulted; the rest absorb the failover.
            let p = if i == 0 {
                plan.clone()
            } else {
                FaultPlan::none()
            };
            Box::new(FaultInjector::seeded(inner, p, fault_seed ^ i as u64))
                as Box<dyn StorageDevice>
        })
        .collect();
    let mut router =
        CircuitBreakerRouter::new(LeastLoadedRouter::default(), BreakerConfig::default());
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 1_500.0 },
        block_size: 64 * 1024,
        read_fraction: 0.6,
        pattern: AccessPattern::Random,
        region: (0, 4 * GIB),
        duration: SimDuration::from_millis(200),
        seed: stream_seed,
        zipf_theta: None,
    };
    run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(20),
    )
    .expect("fault-injected run completes")
}

/// Everything observable about a run, in comparable form.
fn fingerprint(r: &FleetResult) -> (u64, u64, u64, u64, u64, u64, usize) {
    (
        r.total.ios(),
        r.total.bytes(),
        r.energy_j.to_bits(),
        r.io_errors,
        r.dropped,
        r.command_errors,
        r.power.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_seed_and_plan_reproduce_the_fleet_result(
        fleet_size in 1usize..4,
        fault_seed in 0u64..1_000,
        stream_seed in 0u64..1_000,
        io_error_rate in 0.0f64..0.4,
        spike_rate in 0.0f64..0.4,
        dropout_from_ms in 0u64..150,
        dropout_len_ms in 1u64..80,
    ) {
        let a = run_once(
            fleet_size, fault_seed, stream_seed,
            io_error_rate, spike_rate, dropout_from_ms, dropout_len_ms,
        );
        let b = run_once(
            fleet_size, fault_seed, stream_seed,
            io_error_rate, spike_rate, dropout_from_ms, dropout_len_ms,
        );
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn fault_seed_changes_the_fault_stream_not_the_arrivals(
        stream_seed in 0u64..1_000,
    ) {
        // Heavy probabilistic faults with two different fault seeds: the
        // arrival process is untouched, so served + dropped is invariant.
        let a = run_once(2, 1, stream_seed, 0.5, 0.0, 0, 1);
        let b = run_once(2, 2, stream_seed, 0.5, 0.0, 0, 1);
        prop_assert_eq!(a.total.ios() + a.dropped, b.total.ios() + b.dropped);
    }
}
