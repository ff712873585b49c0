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
//! Flags: `--snapshot-out FILE` / `--resume FILE` checkpoint the
//! canonical temperature-driven cell at its quarter point — in the middle
//! of the consolidation drain, with migrations in flight — and prove the
//! resumed run is bit-identical. A corrupt, truncated, or mismatched
//! snapshot is rejected with a typed error and exit code 2 — never a
//! panic. The canonical summary bytes are pinned by the committed golden
//! `crates/bench/goldens/placement_eval.json`.

use powadapt_bench::cli::{self, CheckpointAt};
use powadapt_bench::golden::{cold_tier_mean_w, GOLDEN_SEED};
use powadapt_cluster::{placement_cluster, run_cluster, ClusterReport, PlacementArm};
use powadapt_io::run_cells;

fn main() {
    let cli = cli::parse("placement_eval", &["--snapshot-out", "--resume"]);
    // The checkpoint flags operate on the temperature-driven arm at the
    // golden seed, snapshotted at its quarter point (inside the
    // consolidation drain window, with migrations in flight).
    let spec = || placement_cluster(PlacementArm::TempDriven, GOLDEN_SEED);
    if cli::checkpoint_flags(&cli, spec, CheckpointAt::Fraction(4), |r| print!("{r}")) {
        return;
    }
    let trace = cli.start_tracing();

    let arms = [
        PlacementArm::TempDriven,
        PlacementArm::StaticSpread,
        PlacementArm::NoMigration,
    ];
    let cells: Vec<(PlacementArm, u64)> = arms.iter().map(|&a| (a, GOLDEN_SEED)).collect();
    let reports = run_cells(&cells, &cli.parallel, |_, &(arm, seed)| {
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
            cold_tier_mean_w(r),
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
        cold_tier_mean_w(nomig) - cold_tier_mean_w(temp)
    );

    cli::finish_tracing(trace);
}
