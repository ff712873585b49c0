//! Device-simulator throughput: wall-clock cost of simulating the paper's
//! workloads. Each benchmark simulates a fixed amount of IO end to end
//! (engine + device + 1 kHz metering).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use powadapt_device::{catalog, GIB, KIB, MIB};
use powadapt_io::{run_experiment, JobSpec, Workload};
use powadapt_sim::SimDuration;

fn quick_job(w: Workload, chunk: u64, depth: usize) -> JobSpec {
    JobSpec::new(w)
        .block_size(chunk)
        .io_depth(depth)
        .runtime(SimDuration::from_millis(100))
        .size_limit(GIB)
        .seed(9)
}

fn bench_ssd(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssd_sim");
    g.sample_size(20);
    g.bench_function("randread_4k_qd32_100ms", |b| {
        b.iter(|| {
            let mut dev = catalog::ssd2_d7_p5510(9);
            black_box(
                run_experiment(&mut dev, &quick_job(Workload::RandRead, 4 * KIB, 32))
                    .expect("runs"),
            )
        });
    });
    // 256 KiB reads span 16 pages each: the read-cache path per page.
    g.bench_function("randread_256k_qd8_100ms", |b| {
        b.iter(|| {
            let mut dev = catalog::ssd2_d7_p5510(9);
            black_box(
                run_experiment(&mut dev, &quick_job(Workload::RandRead, 256 * KIB, 8))
                    .expect("runs"),
            )
        });
    });
    g.bench_function("seqwrite_1m_qd64_100ms", |b| {
        b.iter(|| {
            let mut dev = catalog::ssd2_d7_p5510(9);
            black_box(
                run_experiment(&mut dev, &quick_job(Workload::SeqWrite, MIB, 64)).expect("runs"),
            )
        });
    });
    g.bench_function("capped_randwrite_256k_qd64_100ms", |b| {
        b.iter(|| {
            let mut dev = catalog::ssd2_d7_p5510(9);
            powadapt_device::StorageDevice::set_power_state(
                &mut dev,
                powadapt_device::PowerStateId(2),
            )
            .expect("ps2 exists");
            black_box(
                run_experiment(&mut dev, &quick_job(Workload::RandWrite, 256 * KIB, 64))
                    .expect("runs"),
            )
        });
    });
    g.finish();
}

fn bench_hdd(c: &mut Criterion) {
    let mut g = c.benchmark_group("hdd_sim");
    g.sample_size(20);
    g.bench_function("randread_4k_qd8_500ms", |b| {
        b.iter(|| {
            let mut dev = catalog::hdd_exos_7e2000(9);
            let job = JobSpec::new(Workload::RandRead)
                .block_size(4 * KIB)
                .io_depth(8)
                .runtime(SimDuration::from_millis(500))
                .size_limit(GIB)
                .seed(9);
            black_box(run_experiment(&mut dev, &job).expect("runs"))
        });
    });
    g.bench_function("seqwrite_1m_qd4_200ms", |b| {
        b.iter(|| {
            let mut dev = catalog::hdd_exos_7e2000(9);
            let job = JobSpec::new(Workload::SeqWrite)
                .block_size(MIB)
                .io_depth(4)
                .runtime(SimDuration::from_millis(200))
                .size_limit(GIB)
                .seed(9);
            black_box(run_experiment(&mut dev, &job).expect("runs"))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_ssd, bench_hdd);
criterion_main!(benches);
