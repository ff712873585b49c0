//! Parallel-equivalence regression suite: every figure's summary must be
//! byte-identical to its committed golden fixture, and identical at 1, 2,
//! and 8 workers. This pins the determinism contract of the parallel
//! sweep executor — results depend only on `(root seed, cell index)`, never
//! on worker count or scheduling.
//!
//! Fixtures live in `crates/bench/goldens/`. After an intentional change to
//! the device models, the runner, or a figure, regenerate them with
//! `cargo run -p powadapt-bench --bin regen_goldens` and commit the diff.

// Tests and examples assert on exact expected values; unwraps and
// bit-exact float comparisons are deliberate here (see workspace lints).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use std::fs;
use std::time::Instant;

use powadapt::device::{catalog, FaultInjector, FaultPlan, StorageDevice, KIB, MIB};
use powadapt::io::{run_cells, run_fresh, JobSpec, ParallelConfig, SweepScale, Workload};
use powadapt::sim::{SimDuration, SimRng, SimTime};
use powadapt_bench::figures::fig10;
use powadapt_bench::golden::{figure_summary, golden_scale, goldens_dir, GOLDEN_SEED};
use powadapt_device::PowerStateId;

fn committed_fixture(name: &str) -> String {
    let path = goldens_dir().join(format!("{name}.json"));
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             regenerate with: cargo run -p powadapt-bench --bin regen_goldens",
            path.display()
        )
    })
}

fn assert_figure_equivalence(name: &str) {
    let scale = golden_scale();
    let seq = figure_summary(name, scale, GOLDEN_SEED, &ParallelConfig::sequential());
    assert_eq!(
        seq,
        committed_fixture(name),
        "{name}: summary drifted from the committed golden fixture.\n\
         If the change is intentional, regenerate the fixtures with\n\
         `cargo run -p powadapt-bench --bin regen_goldens` and commit them."
    );
    for workers in [2usize, 8] {
        let par = figure_summary(
            name,
            scale,
            GOLDEN_SEED,
            &ParallelConfig::with_workers(workers),
        );
        assert_eq!(
            seq, par,
            "{name}: parallel summary diverged from sequential at {workers} workers"
        );
    }
}

macro_rules! golden_figure_test {
    ($($test:ident => $name:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                assert_figure_equivalence($name);
            }
        )+
    };
}

golden_figure_test! {
    table1_matches_golden_at_every_worker_count => "table1",
    fig2_matches_golden_at_every_worker_count => "fig2",
    fig3_matches_golden_at_every_worker_count => "fig3",
    fig4_matches_golden_at_every_worker_count => "fig4",
    fig5_matches_golden_at_every_worker_count => "fig5",
    fig6_matches_golden_at_every_worker_count => "fig6",
    fig7_matches_golden_at_every_worker_count => "fig7",
    fig8_matches_golden_at_every_worker_count => "fig8",
    fig9_matches_golden_at_every_worker_count => "fig9",
    fig10_matches_golden_at_every_worker_count => "fig10",
}

/// The cluster evaluation cells obey the same executor contract as the
/// figure sweeps: a `ClusterReport` depends only on `(policy, seed)`, never
/// on worker count. The byte-level golden comparison (with tracing on)
/// lives in `tests/obs_determinism.rs` because it installs the global
/// recorder; this test is recorder-free and additionally pins the ISSUE's
/// headline bar — the model-driven selector sustains >= 1.3x the aggregate
/// throughput of the naive uniform-cap baseline without violating any cap.
#[test]
fn cluster_eval_reports_are_worker_count_invariant() {
    use powadapt::cluster::{oversubscribed_cluster, run_cluster, ClusterReport, SelectionPolicy};

    let cells: Vec<(SelectionPolicy, u64)> = [GOLDEN_SEED, GOLDEN_SEED + 1]
        .iter()
        .flat_map(|&s| {
            [
                (SelectionPolicy::ModelDriven, s),
                (SelectionPolicy::UniformStatic, s),
            ]
        })
        .collect();
    let sweep = |workers: usize| -> Vec<ClusterReport> {
        run_cells(
            &cells,
            &ParallelConfig::with_workers(workers),
            |_, &(policy, seed)| run_cluster(oversubscribed_cluster(policy, seed)).unwrap(),
        )
    };
    let seq = sweep(1);
    for workers in [2usize, 8] {
        assert_eq!(
            seq,
            sweep(workers),
            "cluster reports diverged at {workers} workers"
        );
    }
    for pair in seq.chunks(2) {
        let (model, uniform) = (&pair[0], &pair[1]);
        assert!(model.caps_respected() && uniform.caps_respected());
        let win = model.aggregate_throughput_bps() / uniform.aggregate_throughput_bps();
        assert!(
            win >= 1.3,
            "model-driven selector won only {win:.2}x over the uniform baseline"
        );
    }
}

/// Fault schedules are part of the determinism contract: a sweep over
/// fault-injected devices — including a cell whose device drops out and
/// fails the experiment — produces identical outcomes (results *and*
/// errors) at every worker count.
#[test]
fn fault_injection_is_deterministic_under_parallelism() {
    // Cells 0..4 vary the latency-spike rate; cell 4 hits a dropout window
    // and must fail identically everywhere.
    let cells: Vec<u64> = (0..5).collect();
    let sweep = |workers: usize| -> Vec<Result<(u64, u64, u64, u64), String>> {
        run_cells(
            &cells,
            &ParallelConfig::with_workers(workers),
            |i, &cell| {
                let plan = if cell == 4 {
                    FaultPlan::none().dropout(SimTime::from_millis(10), SimTime::from_millis(500))
                } else {
                    FaultPlan::none()
                        .latency_spikes(0.05 + 0.05 * cell as f64, SimDuration::from_millis(2))
                };
                let injector_seed = SimRng::stream_seed(7, i as u64);
                let factory = || {
                    Box::new(FaultInjector::seeded(
                        Box::new(catalog::ssd3_d3_p4510(9)),
                        plan.clone(),
                        injector_seed,
                    )) as Box<dyn StorageDevice>
                };
                let job = JobSpec::new(Workload::RandRead)
                    .block_size(16 * KIB)
                    .io_depth(8)
                    .runtime(SimDuration::from_millis(60))
                    .size_limit(64 * MIB)
                    .ramp(SimDuration::from_millis(10))
                    .seed(SimRng::stream_seed(7, i as u64));
                run_fresh(factory, PowerStateId(0), &job)
                    .map(|r| {
                        let power_bits = r.power.samples().iter().fold(0u64, |acc, w| {
                            acc.wrapping_mul(31).wrapping_add(w.to_bits())
                        });
                        (
                            r.io.ios(),
                            r.io.bytes(),
                            power_bits,
                            r.io.p99_latency_us().to_bits(),
                        )
                    })
                    .map_err(|e| e.to_string())
            },
        )
    };
    let seq = sweep(1);
    assert!(
        seq[4].is_err(),
        "dropout cell should fail the experiment deterministically"
    );
    assert!(seq[..4].iter().all(std::result::Result::is_ok));
    for workers in [2, 8] {
        assert_eq!(
            seq,
            sweep(workers),
            "fault schedule diverged at {workers} workers"
        );
    }
}

/// On multi-core hosts the executor must actually pay off: the ISSUE's
/// acceptance bar is >= 2x on the figure sweeps at 4 workers. Single-core
/// runners (where threads cannot overlap) only check that parallel
/// execution is not pathologically slower.
#[test]
fn parallel_sweep_speedup_on_multicore_hosts() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let scale = SweepScale {
        runtime: SimDuration::from_millis(40),
        size_limit: 4 * powadapt::device::GIB,
        ramp: SimDuration::from_millis(10),
    };
    // Warm-up pass so allocator and page-cache effects don't skew the
    // sequential baseline.
    let _ = fig10::device_sweep_with("SSD2", scale, 5, &ParallelConfig::sequential());

    let t0 = Instant::now();
    let seq = fig10::device_sweep_with("SSD2", scale, 5, &ParallelConfig::sequential());
    let sequential = t0.elapsed();

    let workers = cores.clamp(2, 8);
    let t1 = Instant::now();
    let par = fig10::device_sweep_with("SSD2", scale, 5, &ParallelConfig::with_workers(workers));
    let parallel = t1.elapsed();

    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(
            a.result.avg_power_w().to_bits(),
            b.result.avg_power_w().to_bits()
        );
    }

    if cores >= 4 {
        assert!(
            parallel.as_secs_f64() * 2.0 <= sequential.as_secs_f64(),
            "expected >= 2x speedup with {workers} workers on {cores} cores: \
             sequential {sequential:?}, parallel {parallel:?}"
        );
    } else {
        assert!(
            parallel.as_secs_f64() <= sequential.as_secs_f64() * 3.0,
            "parallel run pathologically slow on {cores} core(s): \
             sequential {sequential:?}, parallel {parallel:?}"
        );
    }
}
