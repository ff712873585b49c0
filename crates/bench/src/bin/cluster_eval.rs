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

use powadapt_bench::{apply_cli_workers, cli_flag_value};
use powadapt_cluster::{
    oversubscribed_cluster, run_cluster, ClusterReport, ClusterSim, SelectionPolicy,
};
use powadapt_io::{run_cells, ParallelConfig};
use powadapt_sim::SimDuration;

fn cell(policy: SelectionPolicy, seed: u64) -> ClusterReport {
    run_cluster(oversubscribed_cluster(policy, seed)).expect("cluster scenario runs")
}

/// The (policy, seed) cell the checkpoint flags operate on.
fn checkpoint_spec() -> powadapt_cluster::ClusterSpec {
    oversubscribed_cluster(SelectionPolicy::ModelDriven, 42)
}

fn fail(context: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("cluster_eval: {context}: {err}");
    std::process::exit(2);
}

/// Runs the canonical cell to its midpoint, writes the sealed snapshot,
/// then finishes the run and prints the report.
fn snapshot_to(path: &str) {
    let mut sim = match ClusterSim::new(checkpoint_spec()) {
        Ok(s) => s,
        Err(e) => fail("cannot build cluster", &e),
    };
    let mid = sim.start_time()
        + SimDuration::from_nanos(sim.end_time().duration_since(sim.start_time()).as_nanos() / 2);
    if let Err(e) = sim.run_to(mid) {
        fail("first half failed", &e);
    }
    let bytes = match sim.snapshot() {
        Ok(b) => b,
        Err(e) => fail("snapshot failed", &e),
    };
    if let Err(e) = std::fs::write(path, &bytes) {
        fail(&format!("cannot write {path}"), &e);
    }
    println!(
        "checkpoint: {} bytes at t={:?} -> {path}",
        bytes.len(),
        sim.now()
    );
    match sim.finish() {
        Ok(report) => print!("{report}"),
        Err(e) => fail("second half failed", &e),
    }
}

/// Resumes the canonical cell from a sealed snapshot and runs it to the
/// end. Rejects bad snapshots with a typed error, never a panic.
fn resume_from(path: &str) {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => fail(&format!("cannot read {path}"), &e),
    };
    let sim = match ClusterSim::resume(checkpoint_spec(), &bytes) {
        Ok(s) => s,
        Err(e) => fail("snapshot rejected", &e),
    };
    println!("resumed at t={:?} from {path}", sim.now());
    match sim.finish() {
        Ok(report) => print!("{report}"),
        Err(e) => fail("resumed run failed", &e),
    }
}

fn main() {
    apply_cli_workers();
    if let Some(path) = cli_flag_value("--snapshot-out") {
        snapshot_to(&path);
        return;
    }
    if let Some(path) = cli_flag_value("--resume") {
        resume_from(&path);
        return;
    }
    let trace = powadapt_bench::start_tracing();

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
    let reports = run_cells(&cells, &ParallelConfig::from_env(), |_, &(policy, seed)| {
        cell(policy, seed)
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

    powadapt_bench::finish_tracing(trace);
}
