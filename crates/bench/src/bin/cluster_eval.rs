//! Cluster-scale evaluation of power-adaptive storage: the oversubscribed
//! power tree versus the naive uniform cap.
//!
//! Runs the canonical two-rack scenario (`cluster 34 W → row → racks →
//! SSD1+SSD3 / SSD2+PM1743 enclosures) under both selection policies at a
//! handful of seeds, fanned across the configured workers, and reports:
//!
//! 1. per-node power accounting against every physical cap,
//! 2. per-tenant service and SLO outcomes,
//! 3. the headline win ratio — aggregate throughput of the model-driven
//!    selector over the uniform static baseline at the same cluster cap.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin cluster_eval`
//!
//! Checkpoint/resume: `--snapshot-out FILE` runs the canonical cell
//! (model-driven, seed 42) to its midpoint, writes a sealed snapshot, and
//! finishes the run; `--resume FILE` rebuilds the simulation from that
//! snapshot and runs the remaining half. Both print the final report,
//! which is bit-identical between the two paths. A corrupt, truncated, or
//! mismatched snapshot is rejected with a typed error and exit code 2 —
//! never a panic.

use powadapt_bench::cli::{self, CheckpointAt};
use powadapt_cluster::{oversubscribed_cluster, run_cluster, ClusterReport, SelectionPolicy};
use powadapt_io::run_cells;

fn main() {
    let cli = cli::parse("cluster_eval", &["--snapshot-out", "--resume"]);
    // The checkpoint flags operate on the model-driven cell at seed 42.
    let spec = || oversubscribed_cluster(SelectionPolicy::ModelDriven, 42);
    if cli::checkpoint_flags(&cli, spec, CheckpointAt::Fraction(2), |r| print!("{r}")) {
        return;
    }
    let trace = cli.start_tracing();

    let seeds = [42u64, 43, 44];
    let cells: Vec<(SelectionPolicy, u64)> = seeds
        .iter()
        .flat_map(|&s| {
            [
                (SelectionPolicy::ModelDriven, s),
                (SelectionPolicy::UniformStatic, s),
            ]
        })
        .collect();
    let reports = run_cells(&cells, &cli.parallel, |_, &(policy, seed)| {
        run_cluster(oversubscribed_cluster(policy, seed)).expect("cluster scenario runs")
    });

    println!("== Cluster oversubscription: model-driven rebalance vs uniform static cap ==\n");
    for ((policy, seed), report) in cells.iter().zip(&reports) {
        println!("-- seed {seed}, policy {policy} --");
        print!("{report}");
        println!();
    }

    println!("== Headline ==");
    println!(
        "   {:>6} {:>14} {:>14} {:>9} {:>8} {:>8}",
        "seed", "model MiB/s", "uniform MiB/s", "win", "caps ok", "SLOs met"
    );
    let mibs = |r: &ClusterReport| r.aggregate_throughput_bps() / (1024.0 * 1024.0);
    let mut worst: f64 = f64::INFINITY;
    for (i, &seed) in seeds.iter().enumerate() {
        let model = &reports[2 * i];
        let uniform = &reports[2 * i + 1];
        let win = model.aggregate_throughput_bps() / uniform.aggregate_throughput_bps();
        worst = worst.min(win);
        println!(
            "   {:>6} {:>14.1} {:>14.1} {:>8.2}x {:>8} {:>5}/{:<2}",
            seed,
            mibs(model),
            mibs(uniform),
            win,
            model.caps_respected() && uniform.caps_respected(),
            model.tenants.iter().filter(|t| t.slo_ok).count(),
            model.tenants.len(),
        );
    }
    println!("\n   worst-case win ratio across seeds: {worst:.2}x (target >= 1.3x)");

    cli::finish_tracing(trace);
}
