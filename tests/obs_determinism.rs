//! Observability determinism suite: recording must be strictly write-only.
//!
//! Two invariants are pinned here, both required by the tracing subsystem's
//! design contract (see DESIGN.md §6):
//!
//! 1. **Tracing never perturbs results.** Every golden figure summary is
//!    byte-identical with a full `TraceRecorder` installed — the same
//!    fixtures `tests/parallel_equivalence.rs` checks with the recorder
//!    off.
//! 2. **Event counts are deterministic.** The canonical traced scenario
//!    (fault-injected fleet sweep + closed-loop controller rounds) produces
//!    the committed per-kind event counts at every worker count, even
//!    though the interleaving of events in the ring is scheduling-
//!    dependent.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]

use std::fs;
use std::sync::{Arc, Mutex, PoisonError};

use powadapt::io::ParallelConfig;
use powadapt::obs::{self, TraceRecorder};
use powadapt_bench::golden::{
    cluster_eval_summary, cluster_eval_summary_checkpointed, figure_summary, golden_scale,
    goldens_dir, obs_events_summary, placement_eval_summary, placement_eval_summary_checkpointed,
    traced_scenario, CLUSTER_FIXTURE, FIGURES, GOLDEN_SEED, OBS_FIXTURE, PLACEMENT_FIXTURE,
};

/// The process-global recorder slot is shared across the test threads of
/// this binary; every test that installs a recorder serializes on this.
static GLOBAL_SLOT: Mutex<()> = Mutex::new(());

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

#[test]
fn goldens_are_byte_identical_with_full_tracing_on() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    obs::install(rec.clone());
    let scale = golden_scale();
    for name in FIGURES {
        let traced = figure_summary(name, scale, GOLDEN_SEED, &ParallelConfig::sequential());
        assert_eq!(
            traced,
            committed_fixture(name),
            "{name}: figure output changed while tracing was enabled — \
             a recorder must be write-only"
        );
    }
    obs::uninstall();
    assert!(
        rec.log().total() > 0,
        "tracing was enabled but the figure runs recorded nothing"
    );
}

#[test]
fn obs_event_counts_match_fixture_at_every_worker_count() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let seq = obs_events_summary(&ParallelConfig::sequential());
    assert_eq!(
        seq,
        committed_fixture(OBS_FIXTURE),
        "{OBS_FIXTURE}: event counts drifted from the committed fixture.\n\
         If the change is intentional, regenerate the fixtures with\n\
         `cargo run -p powadapt-bench --bin regen_goldens` and commit them."
    );
    for workers in [2usize, 8] {
        let par = obs_events_summary(&ParallelConfig::with_workers(workers));
        assert_eq!(seq, par, "obs event counts diverged at {workers} workers");
    }
}

/// The metrics a real traced run derives — byte counters, controller
/// gauges, and the `io.latency_us`/`power.watts` histograms — do not
/// depend on how many sweep workers fed the one recorder, or in what
/// interleaving.
#[test]
fn traced_scenario_metrics_are_identical_at_every_worker_count() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let metrics = |workers| {
        let (rec, _) = traced_scenario(&ParallelConfig::with_workers(workers));
        rec.metrics().snapshot()
    };
    let seq = metrics(1);
    for name in ["io.latency_us", "power.watts"] {
        assert!(
            seq.histograms.iter().any(|h| h.name == name && h.count > 0),
            "the scenario recorded no {name} samples"
        );
    }
    assert!(
        !seq.gauges.is_empty(),
        "the controller rounds set no gauges"
    );
    let seq = seq.to_json();
    for workers in [2usize, 8] {
        assert_eq!(
            seq,
            metrics(workers).to_json(),
            "traced metrics diverged at {workers} workers"
        );
    }
}

/// The cluster evaluation — power-tree rebalancing, multi-tenant routing,
/// per-rack counter tracks and rebalance-decision events all enabled — is
/// byte-identical to its committed golden at every worker count. This test
/// lives in this binary (not `parallel_equivalence.rs`) because the summary
/// installs the process-global recorder and must serialize on the slot.
#[test]
fn cluster_eval_matches_golden_at_every_worker_count() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let seq = cluster_eval_summary(&ParallelConfig::sequential());
    assert_eq!(
        seq,
        committed_fixture(CLUSTER_FIXTURE),
        "{CLUSTER_FIXTURE}: summary drifted from the committed fixture.\n\
         If the change is intentional, regenerate the fixtures with\n\
         `cargo run -p powadapt-bench --bin regen_goldens` and commit them."
    );
    for workers in [2usize, 8] {
        let par = cluster_eval_summary(&ParallelConfig::with_workers(workers));
        assert_eq!(
            seq, par,
            "cluster_eval summary diverged at {workers} workers"
        );
    }
}

/// Checkpoint/restore is invisible to results and traces: every cluster
/// cell runs to its midpoint, serializes the complete simulation state to
/// a sealed snapshot, is dropped, resumes from the bytes, and finishes —
/// and the summary (reports, per-node accounting, win ratios, *and*
/// per-kind event counts) is byte-identical to the same committed
/// `cluster_eval` fixture the uninterrupted runs are pinned to, at every
/// worker count.
#[test]
fn checkpointed_cluster_eval_matches_golden_at_every_worker_count() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let seq = cluster_eval_summary_checkpointed(&ParallelConfig::sequential());
    assert_eq!(
        seq,
        committed_fixture(CLUSTER_FIXTURE),
        "{CLUSTER_FIXTURE}: a mid-run checkpoint/restore changed the summary — \
         snapshot state is incomplete or restore perturbed the run"
    );
    for workers in [2usize, 8] {
        let par = cluster_eval_summary_checkpointed(&ParallelConfig::with_workers(workers));
        assert_eq!(
            seq, par,
            "checkpointed cluster_eval summary diverged at {workers} workers"
        );
    }
}

/// The placement evaluation — temperature-tracked extents, capacity-aware
/// routing, rate-limited background migration, HDD spin-down pins,
/// system-account energy attribution — is byte-identical to its committed
/// golden at every worker count.
#[test]
fn placement_eval_matches_golden_at_every_worker_count() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let seq = placement_eval_summary(&ParallelConfig::sequential());
    assert_eq!(
        seq,
        committed_fixture(PLACEMENT_FIXTURE),
        "{PLACEMENT_FIXTURE}: summary drifted from the committed fixture.\n\
         If the change is intentional, regenerate the fixtures with\n\
         `cargo run -p powadapt-bench --bin regen_goldens` and commit them."
    );
    for workers in [2usize, 8] {
        let par = placement_eval_summary(&ParallelConfig::with_workers(workers));
        assert_eq!(
            seq, par,
            "placement_eval summary diverged at {workers} workers"
        );
    }
}

/// Mid-migration checkpoints are invisible: every placement cell is
/// interrupted at its quarter point — between `MigrationStarted` and
/// `MigrationCompleted` for the temperature-driven arm, with copy IOs in
/// flight and destination capacity reserved — snapshotted, dropped,
/// resumed from the bytes, and finished. The summary equals the same
/// committed `placement_eval` fixture the uninterrupted runs pin, at
/// every worker count.
#[test]
fn checkpointed_placement_eval_matches_golden_at_every_worker_count() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let seq = placement_eval_summary_checkpointed(&ParallelConfig::sequential());
    assert_eq!(
        seq,
        committed_fixture(PLACEMENT_FIXTURE),
        "{PLACEMENT_FIXTURE}: a mid-migration checkpoint/restore changed the \
         summary — placement state is incomplete or restore perturbed the run"
    );
    for workers in [2usize, 8] {
        let par = placement_eval_summary_checkpointed(&ParallelConfig::with_workers(workers));
        assert_eq!(
            seq, par,
            "checkpointed placement_eval summary diverged at {workers} workers"
        );
    }
}

/// Observability state rides checkpoints too: the `EventLog`'s per-kind
/// counters survive a snapshot/restore across a simulated process
/// boundary — the restored log continues accumulating on top of the
/// checkpointed counts (no double-count, no reset), ending with exactly
/// the counts an uninterrupted run records.
#[test]
fn event_log_counters_survive_restore_across_checkpoint() {
    use powadapt::cluster::{oversubscribed_cluster, ClusterSim, SelectionPolicy};
    use powadapt::obs::EventLog;
    use powadapt::sim::SimDuration;
    use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};

    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = || oversubscribed_cluster(SelectionPolicy::ModelDriven, GOLDEN_SEED);

    // Uninterrupted run under its own log: the reference counts.
    let full_log = Arc::new(EventLog::new(1 << 16));
    obs::install(full_log.clone());
    let full_report = ClusterSim::new(spec()).unwrap().finish().unwrap();
    obs::uninstall();

    // First half under a fresh log; checkpoint both sim and log.
    let first = Arc::new(EventLog::new(1 << 16));
    obs::install(first.clone());
    let mut sim = ClusterSim::new(spec()).unwrap();
    let mid = sim.start_time()
        + SimDuration::from_nanos(sim.end_time().duration_since(sim.start_time()).as_nanos() / 2);
    sim.run_to(mid).unwrap();
    let sim_snap = sim.snapshot().unwrap();
    let mut w = SnapWriter::new();
    first.write_state(&mut w).unwrap();
    let log_snap = w.into_payload();
    drop(sim);
    obs::uninstall();

    // "New process": restore the log state into a fresh EventLog, install
    // it, resume the sim, and finish.
    let mut restored = EventLog::new(1 << 16);
    let mut r = SnapReader::new(&log_snap);
    restored.read_state(&mut r).unwrap();
    r.finish().unwrap();
    let resumed_log = Arc::new(restored);
    obs::install(resumed_log.clone());
    let resumed_report = ClusterSim::resume(spec(), &sim_snap)
        .unwrap()
        .finish()
        .unwrap();
    obs::uninstall();

    assert_eq!(resumed_report, full_report);
    assert_eq!(resumed_log.counts(), full_log.counts());
    assert_eq!(resumed_log.total(), full_log.total());
}

/// A cluster sim captures the installed recorder once, when it is built.
/// A recorder installed afterwards receives nothing from that run; the
/// one captured at construction receives the cluster's own events and the
/// energy ledger's.
#[test]
fn cluster_sim_records_only_to_the_recorder_it_was_built_under() {
    use powadapt::cluster::{oversubscribed_cluster, ClusterSim, SelectionPolicy};
    use powadapt::obs::EventLog;

    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = oversubscribed_cluster(SelectionPolicy::ModelDriven, GOLDEN_SEED);
    let built_under = Arc::new(EventLog::new(1 << 16));
    let sim = obs::with_installed(built_under.clone(), || ClusterSim::new(spec)).unwrap();
    let late = Arc::new(EventLog::new(1 << 16));
    obs::with_installed(late.clone(), || sim.finish()).unwrap();

    assert_eq!(late.total(), 0, "a later install retargeted a running sim");
    let count = |kind: &str| {
        built_under
            .counts()
            .into_iter()
            .find(|(k, _)| k == kind)
            .map_or(0, |(_, n)| n)
    };
    assert!(count("power_sample") > 0, "cluster samples went missing");
    assert!(count("energy_attributed") > 0, "ledger audits went missing");
}

/// Restore paths are silent: a resumed run's trace continues the original
/// one rather than replaying it, so rebuilding state from a checkpoint
/// must record nothing. Each restore runs under a live `EventLog` — the
/// cluster's `new()` and a restored device's next steps do record into
/// it — and the restore itself must leave it empty.
#[test]
fn restore_paths_record_no_events() {
    use powadapt::cluster::{
        oversubscribed_cluster, placement_cluster, ClusterSim, PlacementArm, SelectionPolicy,
    };
    use powadapt::obs::EventLog;
    use powadapt::sim::SimDuration;
    use powadapt_bench::golden::{checkpoint_devices, device_checkpoint};
    use powadapt_snap::{open, SnapReader};

    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = |name: &str| match name {
        "cluster_eval" => oversubscribed_cluster(SelectionPolicy::ModelDriven, GOLDEN_SEED),
        _ => placement_cluster(PlacementArm::TempDriven, GOLDEN_SEED),
    };
    for name in ["cluster_eval", "placement"] {
        let mut sim = ClusterSim::new(spec(name)).unwrap();
        let span = sim.end_time().duration_since(sim.start_time()).as_nanos();
        sim.run_to(sim.start_time() + SimDuration::from_nanos(span / 2))
            .unwrap();
        let snap = sim.snapshot().unwrap();

        let built = Arc::new(EventLog::new(1 << 12));
        obs::with_installed(built.clone(), || ClusterSim::new(spec(name))).unwrap();
        assert!(built.total() > 0, "{name}: new() recorded nothing");
        let resumed = Arc::new(EventLog::new(1 << 12));
        obs::with_installed(resumed.clone(), || ClusterSim::resume(spec(name), &snap)).unwrap();
        assert_eq!(resumed.total(), 0, "{name}: resume recorded events");
    }

    for ((name, original), (_, mut dev)) in
        checkpoint_devices().into_iter().zip(checkpoint_devices())
    {
        let sealed = device_checkpoint(original);
        let log = Arc::new(EventLog::new(1 << 12));
        dev.set_recorder(obs::RecorderHandle::new(log.clone()), "restored");
        let mut r = SnapReader::new(open(&sealed).unwrap());
        dev.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(log.total(), 0, "{name}: read_state recorded events");
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
        }
        assert!(
            log.total() > 0,
            "{name}: the restored device records nothing"
        );
    }
}

#[test]
fn traced_scenario_exports_chrome_trace_and_flamegraph() {
    let _slot = GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Arc::new(TraceRecorder::new(1 << 16));
    obs::install(rec.clone());
    let spec = powadapt::io::OpenLoopSpec {
        arrivals: powadapt::io::Arrivals::Poisson { rate_iops: 1_000.0 },
        block_size: 64 * 1024,
        read_fraction: 0.5,
        pattern: powadapt::io::AccessPattern::Random,
        region: (0, powadapt::device::GIB),
        duration: powadapt::sim::SimDuration::from_millis(100),
        seed: 5,
        zipf_theta: None,
    };
    let mut devices: Vec<Box<dyn powadapt::device::StorageDevice>> = (0..2)
        .map(|i| {
            Box::new(powadapt::device::catalog::ssd3_d3_p4510(300 + i))
                as Box<dyn powadapt::device::StorageDevice>
        })
        .collect();
    let mut router = powadapt::io::LeastLoadedRouter::default();
    powadapt::io::run_fleet(
        &mut devices,
        &mut router,
        powadapt::io::ArrivalGen::new(&spec).expect("valid arrival spec"),
        spec.seed,
        powadapt::sim::SimDuration::from_millis(20),
    )
    .expect("traced fleet runs");
    obs::uninstall();

    let events = rec.log().snapshot();
    assert!(!events.is_empty());
    let json = obs::chrome_trace(&events);
    assert!(json.starts_with('{'), "chrome trace must be a JSON object");
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\": \"X\""), "expected complete spans");
    assert!(
        json.contains("\"ph\": \"C\""),
        "expected power counter track"
    );
    let folded = obs::collapsed_stacks(&events);
    assert!(
        folded.lines().all(|l| l
            .rsplit_once(' ')
            .is_some_and(|(_, n)| n.parse::<u64>().is_ok())),
        "collapsed stacks must end in an integer self-time"
    );
    assert!(!folded.is_empty(), "die spans should fold into stacks");
}
