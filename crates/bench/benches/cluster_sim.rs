//! Fleet-runner throughput: wall-clock cost of one cluster cell end to
//! end (arrivals, routing, device models, control rounds, sampling and
//! the ledger), measured on its own so the cluster layer has a per-layer
//! number beside the device models and the sim kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use powadapt_cluster::{
    oversubscribed_cluster, placement_cluster, run_cluster, PlacementArm, SelectionPolicy,
};
use powadapt_sim::SimDuration;

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_sim");
    g.sample_size(10);
    // The perfbench `placement` cell, cut from 180 s to its first 20 s:
    // the archive ingest, placement routing on every arrival, and the
    // first consolidation round.
    g.bench_function("placement_temp_driven_20s", |b| {
        b.iter(|| {
            let mut spec = placement_cluster(PlacementArm::TempDriven, 42);
            spec.duration = SimDuration::from_secs(20);
            black_box(run_cluster(spec).expect("runs"))
        });
    });
    g.bench_function("oversubscribed_model_driven_120ms", |b| {
        b.iter(|| {
            black_box(
                run_cluster(oversubscribed_cluster(SelectionPolicy::ModelDriven, 42))
                    .expect("runs"),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
