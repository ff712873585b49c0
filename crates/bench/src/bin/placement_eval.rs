//! Placement-evaluation bench: energy-aware data placement with HDD
//! spin-down consolidation versus static spreading and no migration.
//!
//! Runs the three-arm placement scenario (warm SSD rack + three cold Exos
//! HDD racks, diurnal web + steady analytics + one-shot archive ingest)
//! and reports per-arm service, migration, and energy accounting, plus the
//! headline metrics of the placement tier:
//!
//! 1. joules-per-byte of temperature-driven placement against both
//!    baselines (the consolidation energy win),
//! 2. stranded cold-tier watts reclaimed by spinning consolidated HDDs
//!    down between batch windows,
//! 3. migration-storm read amplification (migrated bytes over tenant
//!    bytes) and per-tenant SLO outcomes under that extra load.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin placement_eval`
//!
//! Flags: `--out FILE` additionally writes the canonical golden summary
//! (the exact bytes of `crates/bench/goldens/placement_eval.json`) to
//! `FILE`; `--check FILE` compares that summary byte-for-byte against a
//! committed fixture and exits 3 on drift; `--snapshot-out FILE` /
//! `--resume FILE` checkpoint the canonical temperature-driven cell at
//! its quarter point — in the middle of the consolidation drain, with
//! migrations in flight — and prove the resumed run is bit-identical.
//! A corrupt, truncated, or mismatched snapshot is rejected with a typed
//! error and exit code 2 — never a panic.

use std::cell::LazyCell;

use powadapt_bench::golden::{placement_eval_summary, GOLDEN_SEED};
use powadapt_bench::{apply_cli_workers, cli_flag_value};
use powadapt_cluster::{placement_cluster, run_cluster, ClusterReport, ClusterSim, PlacementArm};
use powadapt_io::{run_cells, ParallelConfig};
use powadapt_sim::SimDuration;

fn fail(context: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("placement_eval: {context}: {err}");
    std::process::exit(2);
}

/// The cell the checkpoint flags operate on: the temperature-driven arm
/// at the golden seed, snapshotted at its quarter point (inside the
/// consolidation drain window, with migrations in flight).
fn checkpoint_spec() -> powadapt_cluster::ClusterSpec {
    placement_cluster(PlacementArm::TempDriven, GOLDEN_SEED)
}

/// Runs the canonical cell to its quarter point, writes the sealed
/// snapshot, then finishes the run and prints the report.
fn snapshot_to(path: &str) {
    let mut sim = match ClusterSim::new(checkpoint_spec()) {
        Ok(s) => s,
        Err(e) => fail("cannot build cluster", &e),
    };
    let quarter = sim.start_time()
        + SimDuration::from_nanos(sim.end_time().duration_since(sim.start_time()).as_nanos() / 4);
    if let Err(e) = sim.run_to(quarter) {
        fail("first quarter failed", &e);
    }
    let bytes = match sim.snapshot() {
        Ok(b) => b,
        Err(e) => fail("snapshot failed", &e),
    };
    if let Err(e) = std::fs::write(path, &bytes) {
        fail(&format!("cannot write {path}"), &e);
    }
    let pending = sim
        .placement()
        .map_or(0, powadapt_cluster::PlacementTier::pending_migrations);
    println!(
        "checkpoint: {} bytes at t={:?} ({pending} migrations in flight) -> {path}",
        bytes.len(),
        sim.now()
    );
    match sim.finish() {
        Ok(report) => print!("{report}"),
        Err(e) => fail("rest of the run failed", &e),
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

    let arms = [
        PlacementArm::TempDriven,
        PlacementArm::StaticSpread,
        PlacementArm::NoMigration,
    ];
    let cells: Vec<(PlacementArm, u64)> = arms.iter().map(|&a| (a, GOLDEN_SEED)).collect();
    let reports = run_cells(&cells, &ParallelConfig::from_env(), |_, &(arm, seed)| {
        run_cluster(placement_cluster(arm, seed)).expect("placement scenario runs")
    });

    println!(
        "== Placement: temperature-driven consolidation vs static spread vs no migration ==\n"
    );
    for ((arm, seed), report) in cells.iter().zip(&reports) {
        println!("-- arm {arm:?}, seed {seed} --");
        print!("{report}");
        println!(
            "   migrations {}/{} ({} bytes), energy {:.1} J total / {:.1} J system",
            report.migrations_started,
            report.migrations_completed,
            report.migration_bytes,
            report.total_joules,
            report.system_joules
        );
        println!();
    }

    let jpb = |r: &ClusterReport| r.total_joules / r.total_bytes as f64;
    let cold_w = |r: &ClusterReport| -> f64 {
        r.nodes
            .iter()
            .filter(|n| n.path.contains("enc-cold"))
            .map(|n| n.mean_power_w)
            .sum()
    };
    let temp = &reports[0];
    let spread = &reports[1];
    let nomig = &reports[2];
    println!("== Headline ==");
    println!(
        "   {:>14} {:>12} {:>12} {:>12} {:>10}",
        "arm", "nJ/byte", "cold-tier W", "mig bytes", "SLOs met"
    );
    for ((arm, _), r) in cells.iter().zip(&reports) {
        println!(
            "   {:>14} {:>12.3} {:>12.2} {:>12} {:>7}/{:<2}",
            format!("{arm:?}"),
            jpb(r) * 1e9,
            cold_w(r),
            r.migration_bytes,
            r.tenants.iter().filter(|t| t.slo_ok).count(),
            r.tenants.len(),
        );
    }
    println!(
        "\n   joules-per-byte win: {:.2}x vs static spread, {:.2}x vs no migration (target >= 1.25x)",
        jpb(spread) / jpb(temp),
        jpb(nomig) / jpb(temp)
    );
    println!(
        "   cold-tier watts reclaimed vs no migration: {:.2} W",
        cold_w(nomig) - cold_w(temp)
    );

    // The canonical summary — identical bytes to the committed golden. It
    // runs all three cells again, so it is built only for `--out`/`--check`.
    let summary = LazyCell::new(|| placement_eval_summary(&ParallelConfig::sequential()));
    if let Some(path) = cli_flag_value("--out") {
        if let Err(e) = std::fs::write(&path, &*summary) {
            fail(&format!("cannot write {path}"), &e);
        }
    }
    if let Some(path) = cli_flag_value("--check") {
        let committed = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => fail(&format!("cannot read {path}"), &e),
        };
        if *summary != committed {
            eprintln!(
                "placement_eval: DRIFT: summary no longer matches {path}.\n\
                 If the change is intentional, regenerate the fixtures with\n\
                 `cargo run -p powadapt-bench --bin regen_goldens` and commit them."
            );
            std::process::exit(3);
        }
        println!("check ok: summary matches {path}");
    }

    powadapt_bench::finish_tracing(trace);
}
