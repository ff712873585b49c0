//! Golden-figure regression fixtures: canonical JSON summaries of every
//! table/figure at a fixed scale and seed, committed under
//! `crates/bench/goldens/` and compared byte-for-byte by
//! `tests/parallel_equivalence.rs`.
//!
//! The summaries are produced through the same measurement functions the
//! figure binaries use, so any drift in device models, the runner, or the
//! parallel executor shows up as a fixture diff. Floats are serialized with
//! Rust's shortest round-trip formatting (`{:?}`), making the comparison
//! exact at the bit level. Regenerate after intentional changes with
//! `cargo run -p powadapt-bench --bin regen_goldens`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use powadapt_cluster::{ClusterReport, ClusterSim, ClusterSpec};
use powadapt_core::AdaptiveController;
use powadapt_device::{catalog, FaultInjector, FaultPlan, PowerStateId, StorageDevice, GIB, KIB};
use powadapt_io::{
    run_fleet, AccessPattern, ArrivalGen, Arrivals, BreakerConfig, CircuitBreakerRouter,
    LeastLoadedRouter, OpenLoopSpec, ParallelConfig, SweepScale, Workload,
};
use powadapt_meter::PowerTrace;
use powadapt_model::{ConfigPoint, PowerThroughputModel};
use powadapt_obs::{EventLog, TraceRecorder};
use powadapt_sim::{SimDuration, SimTime};
use powadapt_snap::Snapshot as _;

use crate::cli::CheckpointAt;
use crate::figures::{
    self, fig10, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, table1, Cell, CellTable, Key,
};

pub mod slices;

/// Root seed for every golden summary.
pub const GOLDEN_SEED: u64 = 42;

/// Every figure with a committed golden fixture, in paper order.
pub const FIGURES: [&str; 10] = [
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
];

/// The scale golden summaries are measured at: long enough for every cell
/// to do real IO, short enough that the full figure set replays in seconds.
pub fn golden_scale() -> SweepScale {
    SweepScale {
        runtime: SimDuration::from_millis(60),
        size_limit: 4 * GIB,
        ramp: SimDuration::from_millis(15),
    }
}

/// The committed fixture directory (`crates/bench/goldens/`).
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Bit-exact checksum of a float sequence (order-sensitive).
pub fn f64_checksum<'a, I>(values: I) -> u64
where
    I: IntoIterator<Item = &'a f64>,
{
    values.into_iter().fold(0u64, |acc, v| {
        acc.wrapping_mul(31).wrapping_add(v.to_bits())
    })
}

fn checksum_field(trace: &PowerTrace) -> String {
    format!(
        "\"samples\": {}, \"checksum\": \"{:016x}\"",
        trace.len(),
        f64_checksum(trace.samples())
    )
}

/// Formats a float exactly (shortest round-trip representation, valid JSON
/// for all finite values).
fn jf(v: f64) -> String {
    assert!(v.is_finite(), "golden summaries must be finite, got {v}");
    format!("{v:?}")
}

fn doc(figure: &str, seed: u64, rows: &[String]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"figure\": \"{figure}\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "    {row}{sep}");
    }
    s.push_str("  ]\n}\n");
    s
}

fn table1_rows(table: &CellTable) -> Vec<String> {
    table1::rows(table)
        .iter()
        .map(|r| {
            format!(
                "{{\"label\": \"{}\", \"protocol\": \"{}\", \"model\": \"{}\", \"min_w\": {}, \"max_w\": {}}}",
                r.label,
                r.protocol,
                r.model,
                jf(r.min_w),
                jf(r.max_w)
            )
        })
        .collect()
}

/// One row per key, formatted from the key and its measured cell.
fn cell_rows(table: &CellTable, keys: Vec<Key>, row: impl Fn(Key, &Cell) -> String) -> Vec<String> {
    keys.into_iter().map(|k| row(k, table.get(k))).collect()
}

fn latency_row(k: Key, c: &Cell) -> String {
    format!(
        "{{\"chunk\": {}, \"ps\": {}, \"avg_us\": {}, \"p99_us\": {}}}",
        k.chunk,
        k.ps,
        jf(c.avg_latency_us),
        jf(c.p99_latency_us)
    )
}

/// A Figure 8 or 9 row: device, the swept `axis` and its value `at`.
fn device_row(k: Key, c: &Cell, axis: &str, at: u64) -> String {
    format!(
        "{{\"device\": \"{}\", \"{axis}\": {at}, \"power_w\": {}, \"mibs\": {}}}",
        k.device,
        jf(c.avg_power_w),
        jf(c.mibs())
    )
}

fn fig7_rows(seed: u64) -> Vec<String> {
    // Figure 7 is a pair of single-device transition traces — inherently
    // sequential, so the golden pins its determinism rather than
    // worker-invariance.
    let mut evo = catalog::evo_860(seed);
    let down = fig7::transition_trace(
        &mut evo,
        SimTime::from_millis(200),
        SimDuration::from_millis(1000),
        false,
        seed,
    );
    let up = fig7::transition_trace(
        &mut evo,
        SimTime::from_millis(400),
        SimDuration::from_millis(1000),
        true,
        seed,
    );

    let mut hdd = catalog::hdd_exos_7e2000(seed);
    hdd.request_standby().expect("idle HDD accepts standby");
    let t0 = hdd.now();
    while let Some(t) = hdd.next_event() {
        hdd.advance_to(t);
    }
    let spin_down = hdd.now().duration_since(t0);
    hdd.request_wake().expect("wake accepted");
    let t1 = hdd.now();
    while let Some(t) = hdd.next_event() {
        hdd.advance_to(t);
    }
    let spin_up = hdd.now().duration_since(t1);

    vec![
        format!("{{\"trace\": \"evo_standby\", {}}}", checksum_field(&down)),
        format!("{{\"trace\": \"evo_wake\", {}}}", checksum_field(&up)),
        format!(
            "{{\"hdd_spin_down_ns\": {}, \"hdd_spin_up_ns\": {}}}",
            spin_down.as_nanos(),
            spin_up.as_nanos()
        ),
    ]
}

fn fig10_rows(table: &CellTable) -> Vec<String> {
    fig10::models(table)
        .iter()
        .map(|m| {
            let coords: Vec<f64> = m
                .points()
                .iter()
                .flat_map(|p| [p.throughput_bps(), p.power_w()])
                .collect();
            format!(
                "{{\"device\": \"{}\", \"points\": {}, \"dynamic_range\": {}, \"min_norm_throughput\": {}, \"points_checksum\": \"{:016x}\"}}",
                m.device(),
                m.points().len(),
                jf(m.power_dynamic_range()),
                jf(m.min_normalized_throughput()),
                f64_checksum(&coords)
            )
        })
        .collect()
}

/// Name of the committed observability event-count fixture
/// (`crates/bench/goldens/obs_events.json`).
pub const OBS_FIXTURE: &str = "obs_events";

/// One cell of the canonical traced scenario: a 3-device fleet with a
/// dropout window on device 0, ridden through behind the circuit breaker.
/// Returns the served IO count (pinning that the cell really ran).
fn traced_fleet_cell(cell: u64) -> u64 {
    let spec = OpenLoopSpec {
        arrivals: Arrivals::Poisson { rate_iops: 2_000.0 },
        block_size: 64 * KIB,
        read_fraction: 0.7,
        pattern: AccessPattern::Random,
        region: (0, GIB),
        duration: SimDuration::from_millis(250),
        seed: 11 + cell,
        zipf_theta: None,
    };
    let outage = FaultPlan::none()
        .io_errors(0.02)
        .dropout(SimTime::from_millis(60), SimTime::from_millis(160));
    let mut devices: Vec<Box<dyn StorageDevice>> = (0..3u64)
        .map(|i| {
            let inner = Box::new(catalog::ssd3_d3_p4510(500 + 10 * cell + i));
            let plan = if i == 0 {
                outage.clone()
            } else {
                FaultPlan::none()
            };
            Box::new(FaultInjector::seeded(inner, plan, 70 + cell + i)) as Box<dyn StorageDevice>
        })
        .collect();
    let breaker = BreakerConfig {
        failure_threshold: 3,
        cooldown: SimDuration::from_millis(50),
        probe_successes: 2,
    };
    let mut router = CircuitBreakerRouter::new(LeastLoadedRouter::default(), breaker);
    let r = run_fleet(
        &mut devices,
        &mut router,
        ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        SimDuration::from_millis(20),
    )
    .expect("traced fleet cell runs");
    r.total.ios()
}

/// A short closed-loop budget sequence over an SSD2 + HDD pair, so the
/// fixture also covers `controller_decision`, standby spin events, and
/// power-state transitions.
fn traced_controller_rounds() {
    let mk = |device: &str, ps: u8, power_w: f64, thr_bps: f64| {
        ConfigPoint::new(
            device,
            Workload::RandWrite,
            PowerStateId(ps),
            256 * KIB,
            64,
            power_w,
            thr_bps,
        )
    };
    let ssd2 = PowerThroughputModel::from_points(
        "SSD2",
        vec![
            mk("SSD2", 0, 15.0, 3.3e9),
            mk("SSD2", 1, 11.7, 2.3e9),
            mk("SSD2", 2, 9.7, 1.6e9),
        ],
    )
    .expect("SSD2 model");
    let hdd = PowerThroughputModel::from_points("HDD", vec![mk("HDD", 0, 4.5, 130e6)])
        .expect("HDD model");
    let mut ctl = AdaptiveController::new(
        vec![
            Box::new(catalog::ssd2_d7_p5510(1)),
            Box::new(catalog::hdd_exos_7e2000(2)),
        ],
        vec![ssd2, hdd],
    )
    .expect("matched models");
    // Generous -> tight (HDD sleeps) -> generous (HDD wakes), draining the
    // pending transitions between rounds so spin events land.
    for budget_w in [30.0, 11.0, 30.0] {
        let _ = ctl.apply_budget(budget_w).expect("feasible budget");
        for i in 0..2 {
            let d = ctl.device_mut(i);
            while let Some(t) = d.next_event() {
                d.advance_to(t);
            }
        }
    }
}

/// Runs the canonical traced scenario — a parallel sweep of fault-injected
/// fleet cells plus a closed-loop controller sequence — under a fresh
/// recorder. Returns the recorder and each fleet cell's served IO count.
///
/// # Panics
///
/// Panics if a scenario run fails — the fixture pins a healthy pipeline.
pub fn traced_scenario(cfg: &ParallelConfig) -> (Arc<TraceRecorder>, Vec<u64>) {
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    let cells: Vec<u64> = (0..4).collect();
    let served = powadapt_obs::with_installed(rec.clone(), || {
        let served = powadapt_io::run_cells(&cells, cfg, |_, &cell| traced_fleet_cell(cell));
        traced_controller_rounds();
        served
    });
    (rec, served)
}

/// The per-kind event counts of [`traced_scenario`] as canonical JSON.
///
/// Event *counts* are pure functions of the scenario seeds: the summary is
/// byte-identical at every worker count, even though the interleaving of
/// events in the ring is not. That is the invariant the committed
/// `obs_events.json` fixture enforces.
///
/// # Panics
///
/// Panics if a scenario run fails — the fixture pins a healthy pipeline.
pub fn obs_events_summary(cfg: &ParallelConfig) -> String {
    let (rec, served) = traced_scenario(cfg);
    let mut rows = event_count_rows(&rec);
    rows.push(format!(
        "{{\"served_ios\": [{}]}}",
        served
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    doc(OBS_FIXTURE, GOLDEN_SEED, &rows)
}

/// One row per recorded event kind, then the total.
fn event_count_rows(rec: &TraceRecorder) -> Vec<String> {
    let mut rows: Vec<String> = rec
        .log()
        .counts()
        .iter()
        .map(|(kind, n)| format!("{{\"kind\": \"{kind}\", \"count\": {n}}}"))
        .collect();
    rows.push(format!(
        "{{\"kind\": \"total\", \"count\": {}}}",
        rec.log().total()
    ));
    rows
}

/// Runs the cluster `spec` builds, interrupted at `at`: serialize the
/// complete simulation state to a sealed snapshot, drop the simulation,
/// rebuild it from the spec and the snapshot, and run the rest.
fn checkpointed_run(spec: impl Fn() -> ClusterSpec, at: CheckpointAt) -> ClusterReport {
    let mut sim = ClusterSim::new(spec()).expect("cell builds");
    sim.run_to(at.time(&sim)).expect("run to checkpoint");
    let snap = sim.snapshot().expect("snapshot serializes");
    drop(sim);
    let resumed = ClusterSim::resume(spec(), &snap).expect("snapshot resumes");
    resumed.finish().expect("rest of the run completes")
}

/// Name of the committed cluster-evaluation fixture
/// (`crates/bench/goldens/cluster_eval.json`).
pub const CLUSTER_FIXTURE: &str = "cluster_eval";

fn cluster_cell(policy: powadapt_cluster::SelectionPolicy, seed: u64) -> ClusterReport {
    powadapt_cluster::run_cluster(powadapt_cluster::oversubscribed_cluster(policy, seed))
        .expect("cluster cell runs")
}

/// The same cell, but interrupted: run to the midpoint, serialize the
/// complete simulation state to a sealed snapshot, drop the simulation,
/// rebuild from the spec + snapshot, and run the rest. The report must be
/// bit-identical to [`cluster_cell`]'s — that equality (checked against
/// the same committed fixture) is the checkpoint/restore contract.
fn cluster_cell_checkpointed(
    policy: powadapt_cluster::SelectionPolicy,
    seed: u64,
) -> ClusterReport {
    let spec = || powadapt_cluster::oversubscribed_cluster(policy, seed);
    checkpointed_run(spec, CheckpointAt::Fraction(2))
}

fn cluster_report_row(r: &ClusterReport) -> String {
    format!(
        "{{\"policy\": \"{}\", \"bytes\": {}, \"served\": {}, \"dropped\": {}, \"replans\": {}, \"infeasible\": {}, \"throughput_bps\": {}, \"caps_respected\": {}, \"peak_cap_utilization\": {}}}",
        r.policy,
        r.total_bytes,
        r.served_ios,
        r.dropped,
        r.replans,
        r.infeasible_rounds,
        jf(r.aggregate_throughput_bps()),
        r.caps_respected(),
        jf(r.peak_cap_utilization())
    )
}

/// Runs the canonical oversubscribed-cluster scenario — both selection
/// policies at two seeds, as a parallel cell sweep under a fresh recorder —
/// and returns the canonical JSON summary: per-cell service/power
/// accounting, per-node peaks and grants, the model-vs-uniform win ratio
/// per seed, and the per-kind trace event counts.
///
/// Every value is a pure function of the cell `(policy, seed)`: the
/// summary is byte-identical at every worker count.
///
/// # Panics
///
/// Panics if a cluster run fails — the fixture pins a healthy pipeline.
pub fn cluster_eval_summary(cfg: &ParallelConfig) -> String {
    cluster_eval_summary_with(cfg, cluster_cell)
}

/// [`cluster_eval_summary`] with every cell checkpointed mid-run:
/// snapshot at the midpoint, drop the simulation, resume from the sealed
/// bytes, and finish. Byte-equality with the *same* committed
/// `cluster_eval` fixture — at every worker count — is the acceptance
/// proof that checkpoint/restore is invisible to results, traces, and
/// event counts.
///
/// # Panics
///
/// Panics if a cluster run, snapshot, or resume fails.
pub fn cluster_eval_summary_checkpointed(cfg: &ParallelConfig) -> String {
    cluster_eval_summary_with(cfg, cluster_cell_checkpointed)
}

fn cluster_eval_summary_with(
    cfg: &ParallelConfig,
    cell: fn(powadapt_cluster::SelectionPolicy, u64) -> ClusterReport,
) -> String {
    use powadapt_cluster::SelectionPolicy;

    let rec = Arc::new(TraceRecorder::new(1 << 16));
    let seeds = [GOLDEN_SEED, GOLDEN_SEED + 1];
    let cells: Vec<(SelectionPolicy, u64)> = seeds
        .iter()
        .flat_map(|&s| {
            [
                (SelectionPolicy::ModelDriven, s),
                (SelectionPolicy::UniformStatic, s),
            ]
        })
        .collect();
    let reports = powadapt_obs::with_installed(rec.clone(), || {
        powadapt_io::run_cells(&cells, cfg, |_, &(policy, seed)| cell(policy, seed))
    });

    let mut rows = Vec::new();
    for ((_, seed), report) in cells.iter().zip(&reports) {
        rows.push(format!(
            "{{\"seed\": {seed}, \"report\": {}}}",
            cluster_report_row(report)
        ));
        for n in &report.nodes {
            rows.push(format!(
                "{{\"seed\": {seed}, \"policy\": \"{}\", \"node\": \"{}\", \"cap_w\": {}, \"max_w\": {}, \"mean_w\": {}, \"granted_w\": {}}}",
                report.policy,
                n.path,
                jf(n.cap_w),
                jf(n.max_power_w),
                jf(n.mean_power_w),
                jf(n.granted_w)
            ));
        }
        for t in &report.tenants {
            rows.push(format!(
                "{{\"seed\": {seed}, \"policy\": \"{}\", \"tenant\": \"{}\", \"served\": {}, \"bytes\": {}, \"p99_us\": {}, \"slo_ok\": {}}}",
                report.policy, t.name, t.served, t.bytes, jf(t.p99_latency_us), t.slo_ok
            ));
        }
    }
    for (i, &seed) in seeds.iter().enumerate() {
        let model = &reports[2 * i];
        let uniform = &reports[2 * i + 1];
        rows.push(format!(
            "{{\"seed\": {seed}, \"win_ratio\": {}}}",
            jf(model.aggregate_throughput_bps() / uniform.aggregate_throughput_bps())
        ));
    }
    rows.extend(event_count_rows(&rec));
    doc(CLUSTER_FIXTURE, GOLDEN_SEED, &rows)
}

/// Name of the committed placement-evaluation fixture
/// (`crates/bench/goldens/placement_eval.json`).
pub const PLACEMENT_FIXTURE: &str = "placement_eval";

fn placement_cell(arm: powadapt_cluster::PlacementArm, seed: u64) -> ClusterReport {
    powadapt_cluster::run_cluster(powadapt_cluster::placement_cluster(arm, seed))
        .expect("placement cell runs")
}

/// The placement cell, interrupted at its quarter point — for the
/// temperature-driven arm that lands *inside* the consolidation drain
/// window, so the snapshot carries in-flight migrations, reserved
/// destination capacity, and standby pins. Bit-equality with the straight
/// run is the mid-migration checkpoint contract.
fn placement_cell_checkpointed(arm: powadapt_cluster::PlacementArm, seed: u64) -> ClusterReport {
    let spec = || powadapt_cluster::placement_cluster(arm, seed);
    checkpointed_run(spec, CheckpointAt::Fraction(4))
}

fn placement_report_row(arm: powadapt_cluster::PlacementArm, r: &ClusterReport) -> String {
    format!(
        "{{\"arm\": \"{arm:?}\", \"bytes\": {}, \"served\": {}, \"dropped\": {}, \"migrations_started\": {}, \"migrations_completed\": {}, \"migration_bytes\": {}, \"total_joules\": {}, \"system_joules\": {}, \"idle_joules\": {}, \"joules_per_byte\": {}, \"caps_respected\": {}, \"slos_met\": {}}}",
        r.total_bytes,
        r.served_ios,
        r.dropped,
        r.migrations_started,
        r.migrations_completed,
        r.migration_bytes,
        jf(r.total_joules),
        jf(r.system_joules),
        jf(r.idle_joules),
        jf(r.total_joules / r.total_bytes as f64),
        r.caps_respected(),
        r.tenants.iter().filter(|t| t.slo_ok).count()
    )
}

/// Mean power drawn by the cold (HDD) enclosures — the stranded-watts
/// signal consolidation exists to reclaim.
pub fn cold_tier_mean_w(r: &ClusterReport) -> f64 {
    r.nodes
        .iter()
        .filter(|n| n.path.contains("enc-cold"))
        .map(|n| n.mean_power_w)
        .sum()
}

/// Runs the placement-evaluation scenario — temperature-driven placement
/// with HDD spin-down consolidation versus the static-spread and
/// no-migration baselines, as a parallel cell sweep under a fresh
/// recorder — and returns the canonical JSON summary: per-arm service,
/// migration, and energy accounting, per-node peaks, per-tenant SLOs, the
/// headline joules-per-byte wins, stranded cold-tier watts, migration
/// read amplification, and the per-kind trace event counts.
///
/// Every value is a pure function of the cell `(arm, seed)`: the summary
/// is byte-identical at every worker count.
///
/// # Panics
///
/// Panics if a placement run fails — the fixture pins a healthy pipeline.
pub fn placement_eval_summary(cfg: &ParallelConfig) -> String {
    placement_eval_summary_with(cfg, placement_cell)
}

/// [`placement_eval_summary`] with every cell checkpointed at its quarter
/// point — mid-migration for the temperature-driven arm. Byte-equality
/// with the *same* committed `placement_eval` fixture, at every worker
/// count, proves a checkpoint taken between `MigrationStarted` and
/// `MigrationCompleted` resumes bit-exact.
///
/// # Panics
///
/// Panics if a placement run, snapshot, or resume fails.
pub fn placement_eval_summary_checkpointed(cfg: &ParallelConfig) -> String {
    placement_eval_summary_with(cfg, placement_cell_checkpointed)
}

fn placement_eval_summary_with(
    cfg: &ParallelConfig,
    cell: fn(powadapt_cluster::PlacementArm, u64) -> ClusterReport,
) -> String {
    use powadapt_cluster::PlacementArm;

    let rec = Arc::new(TraceRecorder::new(1 << 16));
    let arms = [
        PlacementArm::TempDriven,
        PlacementArm::StaticSpread,
        PlacementArm::NoMigration,
    ];
    let cells: Vec<(PlacementArm, u64)> = arms.iter().map(|&a| (a, GOLDEN_SEED)).collect();
    let reports = powadapt_obs::with_installed(rec.clone(), || {
        powadapt_io::run_cells(&cells, cfg, |_, &(arm, seed)| cell(arm, seed))
    });

    let mut rows = Vec::new();
    for ((arm, _), report) in cells.iter().zip(&reports) {
        rows.push(format!(
            "{{\"report\": {}}}",
            placement_report_row(*arm, report)
        ));
        for n in &report.nodes {
            rows.push(format!(
                "{{\"arm\": \"{arm:?}\", \"node\": \"{}\", \"cap_w\": {}, \"max_w\": {}, \"mean_w\": {}, \"granted_w\": {}}}",
                n.path,
                jf(n.cap_w),
                jf(n.max_power_w),
                jf(n.mean_power_w),
                jf(n.granted_w)
            ));
        }
        for t in &report.tenants {
            rows.push(format!(
                "{{\"arm\": \"{arm:?}\", \"tenant\": \"{}\", \"served\": {}, \"bytes\": {}, \"p99_us\": {}, \"slo_ok\": {}}}",
                t.name, t.served, t.bytes, jf(t.p99_latency_us), t.slo_ok
            ));
        }
        rows.push(format!(
            "{{\"arm\": \"{arm:?}\", \"cold_tier_mean_w\": {}}}",
            jf(cold_tier_mean_w(report))
        ));
    }
    let jpb = |r: &ClusterReport| r.total_joules / r.total_bytes as f64;
    let temp = &reports[0];
    let spread = &reports[1];
    let nomig = &reports[2];
    rows.push(format!(
        "{{\"jpb_win_vs_static\": {}, \"jpb_win_vs_nomigration\": {}, \"stranded_w_reclaimed\": {}, \"migration_read_amplification\": {}}}",
        jf(jpb(spread) / jpb(temp)),
        jf(jpb(nomig) / jpb(temp)),
        jf(cold_tier_mean_w(nomig) - cold_tier_mean_w(temp)),
        jf(temp.migration_bytes as f64 / temp.total_bytes as f64)
    ));
    rows.extend(event_count_rows(&rec));
    doc(PLACEMENT_FIXTURE, GOLDEN_SEED, &rows)
}

/// Name of the committed checkpoint-digest fixture
/// (`crates/bench/goldens/checkpoint_digests.json`). It is not a figure,
/// so it stays out of [`FIGURES`].
pub const CHECKPOINT_FIXTURE: &str = "checkpoint_digests";

/// FNV-1a 64 over `bytes`: the fixture's digest of a sealed checkpoint.
/// It is the fixture's own, independent of the envelope checksum, so the
/// `fnv1a64` column means the same thing whatever `seal` uses.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_row(name: &str, sealed: &[u8]) -> String {
    format!(
        "{{\"checkpoint\": \"{name}\", \"len\": {}, \"fnv1a64\": \"{:016x}\"}}",
        sealed.len(),
        fnv1a_64(sealed)
    )
}

/// A device checkpointed mid-IO: a mixed read/write burst submitted, a
/// prefix of the event stream drained, the state sealed.
///
/// # Panics
///
/// Panics if the device state fails to serialize.
pub fn device_checkpoint(mut dev: Box<dyn StorageDevice>) -> Vec<u8> {
    use powadapt_device::{IoId, IoKind, IoRequest, MIB};
    for i in 0..24u64 {
        let kind = if i % 3 == 0 {
            IoKind::Write
        } else {
            IoKind::Read
        };
        // Injected IO errors are part of the faulted workload.
        let _ = dev.submit(IoRequest::new(IoId(i), kind, i * 4 * MIB, 256 * KIB));
    }
    for _ in 0..10 {
        if let Some(t) = dev.next_event() {
            dev.advance_to(t);
        }
    }
    let mut w = powadapt_snap::SnapWriter::new();
    dev.write_state(&mut w).expect("device state serializes");
    powadapt_snap::seal(&w.into_payload())
}

/// The devices whose mid-IO checkpoints the digest fixture pins, fresh
/// from the catalog and named by fixture row: SSD1, SSD2, EVO, the HDD,
/// and an SSD2 behind a fault injector with IO errors and latency spikes.
pub fn checkpoint_devices() -> [(&'static str, Box<dyn StorageDevice>); 5] {
    [
        ("device/ssd1", Box::new(catalog::ssd1_pm9a3(GOLDEN_SEED))),
        ("device/ssd2", Box::new(catalog::ssd2_d7_p5510(GOLDEN_SEED))),
        ("device/evo", Box::new(catalog::evo_860(GOLDEN_SEED))),
        (
            "device/hdd",
            Box::new(catalog::hdd_exos_7e2000(GOLDEN_SEED)),
        ),
        (
            "device/faulted_ssd2",
            Box::new(FaultInjector::seeded(
                Box::new(catalog::ssd2_d7_p5510(GOLDEN_SEED)),
                FaultPlan::none()
                    .io_errors(0.05)
                    .latency_spikes(0.4, SimDuration::from_millis(20)),
                99,
            )),
        ),
    ]
}

/// Length and FNV-1a-64 of real sealed checkpoints: every `cluster_eval`
/// cell at its midpoint, every `placement_eval` cell at its quarter point
/// (mid-migration for the temperature-driven arm), every long-horizon
/// checkpoint (mid-outage failover, mid-roll firmware, diurnal
/// midnights), mid-IO SSD, HDD, and fault-injected devices, and the
/// event log that recorded a `cluster_eval` cell to its midpoint. The
/// fixture pins the snapshot byte layout itself, not just the results a
/// resume reproduces. The digest covers the whole sealed file, envelope
/// included: a new `FORMAT_VERSION` or envelope checksum moves every
/// digest but no `len`.
///
/// # Panics
///
/// Panics if a run or snapshot fails.
pub fn checkpoint_digests_summary() -> String {
    use powadapt_cluster::longhaul::{
        day, diurnal_churn, regional_failover, rolling_firmware, run_with_midnight_checkpoints,
    };
    use powadapt_cluster::{
        oversubscribed_cluster, placement_cluster, ClusterSim, ClusterSpec, PlacementArm,
        SelectionPolicy,
    };

    let build = |spec: ClusterSpec| ClusterSim::new(spec).expect("cell builds");
    let at = |sim: &mut ClusterSim, num: u64, den: u64| {
        let span = sim.end_time().duration_since(sim.start_time()).as_nanos();
        let t = sim.start_time() + SimDuration::from_nanos(span / den * num);
        sim.run_to(t).expect("cell runs to checkpoint");
        sim.snapshot().expect("snapshot serializes")
    };
    let until = |spec: ClusterSpec, t: SimTime| {
        let mut sim = build(spec);
        sim.run_to(t).expect("cell runs to checkpoint");
        sim.snapshot().expect("snapshot serializes")
    };
    let policies = [SelectionPolicy::ModelDriven, SelectionPolicy::UniformStatic];
    let mut rows = Vec::new();
    for seed in [GOLDEN_SEED, GOLDEN_SEED + 1] {
        for policy in policies {
            let snap = at(&mut build(oversubscribed_cluster(policy, seed)), 1, 2);
            rows.push(digest_row(
                &format!("cluster_eval/{policy}/{seed}/mid"),
                &snap,
            ));
        }
    }
    for arm in [
        PlacementArm::TempDriven,
        PlacementArm::StaticSpread,
        PlacementArm::NoMigration,
    ] {
        let snap = at(&mut build(placement_cluster(arm, GOLDEN_SEED)), 1, 4);
        rows.push(digest_row(
            &format!("placement_eval/{arm:?}/{GOLDEN_SEED}/quarter"),
            &snap,
        ));
    }
    for policy in policies {
        let snap = until(
            regional_failover(policy, GOLDEN_SEED),
            SimTime::from_millis(120),
        );
        rows.push(digest_row(&format!("longhaul/failover/{policy}"), &snap));
        let snap = until(
            rolling_firmware(policy, GOLDEN_SEED),
            SimTime::from_millis(100),
        );
        rows.push(digest_row(&format!("longhaul/firmware/{policy}"), &snap));
        let (_, snaps) =
            run_with_midnight_checkpoints(diurnal_churn(policy, 5, GOLDEN_SEED), day())
                .expect("churn runs");
        for (i, snap) in snaps.iter().enumerate() {
            rows.push(digest_row(
                &format!("longhaul/diurnal/{policy}/midnight{}", i + 1),
                snap,
            ));
        }
    }
    for (name, dev) in checkpoint_devices() {
        rows.push(digest_row(name, &device_checkpoint(dev)));
    }
    // No cluster or device checkpoint holds an event log. The recorder is
    // installed only while the cell is built, which is when its parts
    // capture it; the small ring evicts, so `total` and `dropped` differ.
    let policy = SelectionPolicy::ModelDriven;
    let log = Arc::new(EventLog::new(1 << 12));
    let mut sim = powadapt_obs::with_installed(log.clone(), || {
        build(oversubscribed_cluster(policy, GOLDEN_SEED))
    });
    at(&mut sim, 1, 2);
    let mut w = powadapt_snap::SnapWriter::new();
    log.write_state(&mut w).expect("event log serializes");
    rows.push(digest_row(
        &format!("obs/event_log/cluster_eval/{policy}/{GOLDEN_SEED}/mid"),
        &powadapt_snap::seal(&w.into_payload()),
    ));
    doc(CHECKPOINT_FIXTURE, GOLDEN_SEED, &rows)
}

/// File name of the committed snapshot ABI lock, beside the fixtures in
/// [`goldens_dir`].
pub const ABI_LOCK: &str = "snapshot_abi.lock";

/// The components whose `Snapshot` impl is written by hand, not by
/// `snapshot!`, each with its lock line: the fields its codec writes, in
/// order. A hand-written impl on a type missing here fails the scan.
const HAND_WRITTEN_CODECS: [(&str, &str); 1] = [("sim/EventQueue", "heap, next_seq")];

fn hand_written_codec(key: &str) -> Result<String, String> {
    HAND_WRITTEN_CODECS
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(k, fields)| format!("{k}: {fields}"))
        .ok_or_else(|| {
            format!("{key}: a hand-written snapshot codec missing from HAND_WRITTEN_CODECS")
        })
}

/// Every `.rs` file under `crates/*/src`, as `(crate, source)` pairs:
/// the input of [`snapshot_abi_lock`].
///
/// # Errors
///
/// Any failure to read the source tree.
pub fn snapshot_abi_sources() -> std::io::Result<Vec<(String, String)>> {
    fn walk(
        dir: &std::path::Path,
        krate: &str,
        out: &mut Vec<(String, String)>,
    ) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, krate, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push((krate.to_string(), fs::read_to_string(&path)?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."))? {
        let dir = entry?.path();
        let krate = dir.file_name().map(|n| n.to_string_lossy().into_owned());
        if let (Some(krate), true) = (krate, dir.join("src").is_dir()) {
            walk(&dir.join("src"), &krate, &mut out)?;
        }
    }
    Ok(out)
}

/// The snapshot ABI lock of `sources`: the byte layout of every snapshot
/// component, one sorted line each (`crate/Type: entry, ...`), under
/// `format_version` and an FNV-1a-64 fingerprint of those lines.
///
/// A `snapshot!` site's line is its entry list in list order, each entry
/// `name` or `name: mode`: that list is the byte order. Its `skip` and
/// `after` parts write no bytes and are left out, so a new skipped field
/// keeps the lock while a reorder or a new mode moves it. A hand-written
/// codec's line comes from [`HAND_WRITTEN_CODECS`]. Line comments are
/// dropped first, so doc examples are not sites, and the `$crate::`
/// recursion inside `macro_rules! snapshot` is not one either.
///
/// # Errors
///
/// An `impl Snapshot for` a concrete type, or a `snapshot!` site without
/// an entry list, whose type is not in [`HAND_WRITTEN_CODECS`].
pub fn snapshot_abi_lock(
    sources: &[(String, String)],
    format_version: u32,
) -> Result<String, String> {
    const SITE: &str = "snapshot! {";
    let ident_len = |s: &str| s.find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '$'));
    let mut lines = Vec::new();
    for (krate, src) in sources {
        let code = src
            .lines()
            .map(|l| l.split("//").next().unwrap_or(l))
            .collect::<Vec<_>>()
            .join("\n");
        for (at, _) in code.match_indices(SITE) {
            let rest = code[at + SITE.len()..].trim_start();
            let rest = rest.strip_prefix("value ").unwrap_or(rest).trim_start();
            let (ty, rest) = rest.split_at(ident_len(rest).unwrap_or(rest.len()));
            if ty.is_empty() || ty.starts_with('$') {
                continue;
            }
            let key = format!("{krate}/{ty}");
            let Some(list) = rest.trim_start().strip_prefix('{') else {
                lines.push(hand_written_codec(&key)?);
                continue;
            };
            let (mut entries, mut entry, mut depth) = (Vec::new(), String::new(), 0);
            for c in list.chars().filter(|c| !c.is_whitespace()) {
                match c {
                    ',' | '}' if depth == 0 => {
                        entries.push(std::mem::take(&mut entry));
                        if c == '}' {
                            break;
                        }
                        continue;
                    }
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                entry.push(c);
            }
            let rendered: Vec<String> = entries
                .iter()
                .filter(|e| !e.is_empty())
                .map(|e| match e.split_once(':') {
                    Some((name, mode)) => format!("{name}: {}", mode.replace(',', ", ")),
                    None => e.clone(),
                })
                .collect();
            lines.push(format!("{key}: {}", rendered.join(", ")));
        }
        for line in code.lines() {
            let Some((_, ty)) = line
                .trim_start()
                .strip_prefix("impl")
                .and_then(|l| l.split_once("Snapshot for "))
            else {
                continue;
            };
            let ty = &ty[..ident_len(ty).unwrap_or(ty.len())];
            // The blanket `Option<T>` and boxed-device impls forward to a
            // codec listed elsewhere; `$ty` is the macro's own impl.
            if !matches!(ty, "Option" | "Box" | "$ty") {
                lines.push(hand_written_codec(&format!("{krate}/{ty}"))?);
            }
        }
    }
    lines.sort();
    let inventory: String = lines.iter().map(|l| format!("{l}\n")).collect();
    Ok(format!(
        "# powadapt snapshot ABI lock, generated by `regen_goldens` and compared\n\
         # by `tests/checkpoint_digests.rs`. Changing a snapshot component's byte\n\
         # layout (a snapshot! list's entries, modes or order; a hand-written\n\
         # codec's fields) changes the hash, and FORMAT_VERSION\n\
         # (crates/snap/src/lib.rs) must move with it.\n\
         format_version = {format_version}\n\
         hash = {:#018x}\n\
         \n\
         {inventory}",
        fnv1a_64(inventory.as_bytes())
    ))
}

/// Produces the canonical JSON summary of one figure, read from a cell
/// table over the figure's keys. The output is byte-identical for every
/// worker count — that invariant is what the golden suite enforces.
///
/// # Panics
///
/// Panics on an unknown figure name.
pub fn figure_summary(name: &str, scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> String {
    let table = CellTable::measure(figures::keys(name), scale, seed, cfg);
    let rows = match name {
        "table1" => table1_rows(&table),
        "fig2" => cell_rows(&table, fig2::keys(), |k, c| {
            let s = c.power.summary().expect("non-empty trace");
            format!(
                "{{\"device\": \"{}\", \"ios\": {}, \"bytes\": {}, \"mean_w\": {}, \"min_w\": {}, \"max_w\": {}, {}}}",
                k.device,
                c.ios,
                c.bytes,
                jf(s.mean()),
                jf(s.min()),
                jf(s.max()),
                checksum_field(&c.power)
            )
        }),
        "fig3" => cell_rows(&table, fig3::keys(), |k, c| {
            format!(
                "{{\"chunk\": {}, \"depth\": {}, \"ps\": {}, \"power_w\": {}}}",
                k.chunk,
                k.depth,
                k.ps,
                jf(c.avg_power_w)
            )
        }),
        "fig4" => cell_rows(&table, fig4::keys(), |k, c| {
            let panel = if k.workload == fig4::PANELS[0] {
                "a"
            } else {
                "b"
            };
            format!(
                "{{\"panel\": \"{panel}\", \"chunk\": {}, \"ps\": {}, \"mibs\": {}}}",
                k.chunk,
                k.ps,
                jf(c.mibs())
            )
        }),
        "fig5" => cell_rows(&table, fig5::keys(), latency_row),
        "fig6" => {
            let mut rows = cell_rows(&table, fig6::keys(), latency_row);
            let max_dev = jf(fig6::max_deviation(&table));
            rows.push(format!("{{\"max_deviation\": {max_dev}}}"));
            rows
        }
        "fig7" => fig7_rows(seed),
        "fig8" => cell_rows(&table, fig8::keys(), |k, c| {
            device_row(k, c, "chunk", k.chunk)
        }),
        "fig9" => cell_rows(&table, fig9::keys(), |k, c| {
            device_row(k, c, "depth", k.depth as u64)
        }),
        "fig10" => fig10_rows(&table),
        other => panic!("unknown figure {other}"),
    };
    doc(name, seed, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert_ne!(f64_checksum(&a), f64_checksum(&b));
        assert_eq!(f64_checksum(&a), f64_checksum(&a));
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.0, 1.5, 13.526317, 1e-12, 1234567.891] {
            assert_eq!(jf(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn doc_shape_is_valid() {
        let d = doc("figX", 7, &["{\"a\": 1}".into(), "{\"b\": 2}".into()]);
        assert!(d.starts_with("{\n  \"figure\": \"figX\",\n  \"seed\": 7,"));
        assert!(d.contains("{\"a\": 1},\n"));
        assert!(d.ends_with("{\"b\": 2}\n  ]\n}\n"));
    }

    #[test]
    fn every_figure_name_dispatches() {
        // A tiny scale keeps this a pure dispatch test.
        let scale = SweepScale {
            runtime: SimDuration::from_millis(5),
            size_limit: 4 * powadapt_device::MIB,
            ramp: SimDuration::ZERO,
        };
        for name in ["fig3", "fig7"] {
            let s = figure_summary(name, scale, 3, &ParallelConfig::sequential());
            assert!(s.contains(&format!("\"figure\": \"{name}\"")));
        }
    }
}
