//! Long-horizon failure scenarios: regional failover, rolling firmware
//! power-state changes, and multi-day diurnal churn with midnight
//! checkpoints.
//!
//! Each scenario runs under both selection policies and reports service,
//! cap compliance, and drop accounting. The diurnal scenario snapshots at
//! every simulated midnight and proves each checkpoint resumes to the
//! uninterrupted run's exact report.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin longhaul`
//!
//! Flags: `--days N` sets the churn horizon (default 5);
//! `--snapshot-out FILE` writes the mid-outage checkpoint of the regional
//! failover scenario; `--resume FILE` resumes it. A corrupt or mismatched
//! snapshot is rejected with a typed error and exit code 2, never a panic.

use powadapt_bench::cli::{self, CheckpointAt};
use powadapt_cluster::longhaul::{
    day, diurnal_churn, regional_failover, rolling_firmware, run_with_midnight_checkpoints,
};
use powadapt_cluster::{ClusterReport, ClusterSim, SelectionPolicy};
use powadapt_sim::SimTime;

const SEED: u64 = 42;
/// Mid-outage checkpoint time for the failover scenario: the rack1
/// breaker is open (trips at 80 ms, restores at 160 ms).
const FAILOVER_CHECKPOINT: SimTime = SimTime::from_millis(120);

fn summary_line(scenario: &str, policy: SelectionPolicy, r: &ClusterReport) {
    println!(
        "  {scenario:18} {policy:13} {:9.1} MiB/s  {:6} served  {:5} dropped  caps {}",
        r.aggregate_throughput_bps() / (1024.0 * 1024.0),
        r.served_ios,
        r.dropped,
        if r.caps_respected() { "ok" } else { "VIOLATED" },
    );
}

fn main() {
    let cli = cli::parse("longhaul", &["--snapshot-out", "--resume", "--days"]);
    if cli::checkpoint_flags(
        &cli,
        || regional_failover(SelectionPolicy::ModelDriven, SEED),
        CheckpointAt::Time(FAILOVER_CHECKPOINT),
        |r| summary_line("regional-failover", SelectionPolicy::ModelDriven, r),
    ) {
        return;
    }
    let days: u64 = cli.value("--days").map_or(5, |v| {
        v.parse()
            .unwrap_or_else(|e| cli.fail(&format!("bad --days {v}"), &e))
    });

    println!("== Long-horizon failure scenarios (seed {SEED}) ==\n");
    for policy in [SelectionPolicy::ModelDriven, SelectionPolicy::UniformStatic] {
        let failover = match ClusterSim::new(regional_failover(policy, SEED)) {
            Ok(s) => s,
            Err(e) => cli.fail("failover build failed", &e),
        };
        match failover.finish() {
            Ok(r) => summary_line("regional-failover", policy, &r),
            Err(e) => cli.fail("failover run failed", &e),
        }
        let firmware = match ClusterSim::new(rolling_firmware(policy, SEED)) {
            Ok(s) => s,
            Err(e) => cli.fail("firmware build failed", &e),
        };
        match firmware.finish() {
            Ok(r) => summary_line("rolling-firmware", policy, &r),
            Err(e) => cli.fail("firmware run failed", &e),
        }
    }

    println!("\n== Diurnal churn: {days} days, checkpoint at every midnight ==\n");
    let (report, snaps) = match run_with_midnight_checkpoints(
        diurnal_churn(SelectionPolicy::ModelDriven, days, SEED),
        day(),
    ) {
        Ok(out) => out,
        Err(e) => cli.fail("churn run failed", &e),
    };
    summary_line("diurnal-churn", SelectionPolicy::ModelDriven, &report);
    for (i, snap) in snaps.iter().enumerate() {
        let resumed = match ClusterSim::resume(
            diurnal_churn(SelectionPolicy::ModelDriven, days, SEED),
            snap,
        ) {
            Ok(s) => s,
            Err(e) => cli.fail("midnight snapshot rejected", &e),
        };
        let r = match resumed.finish() {
            Ok(r) => r,
            Err(e) => cli.fail("resumed churn failed", &e),
        };
        println!(
            "  midnight {:2}: {:7} bytes, resume {}",
            i + 1,
            snap.len(),
            if r == report { "bit-exact" } else { "DIVERGED" }
        );
        if r != report {
            cli.fail(
                "checkpoint equivalence",
                &format!("midnight {} resume diverged from the straight run", i + 1),
            );
        }
    }
}
