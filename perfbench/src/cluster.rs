//! The cluster workloads, `placement` and `failover`.
//!
//! A unit of work is a fixed list of cells derived from the run's seed.
//! Each cell is built (spec construction plus `ClusterSim::new`, the
//! set-up), then driven in `run_to` slices to `finish`. Failover cells are
//! snapshotted after every control round and continued from a
//! `ClusterSim::resume` of the sealed bytes.

use std::rc::Rc;
use std::sync::Arc;

use powadapt_cluster::{
    longhaul, placement_cluster, run_cluster, ClusterError, ClusterReport, ClusterSim, ClusterSpec,
    PlacementArm, SelectionPolicy,
};
use powadapt_obs::{EventKind, RebalanceDecision, TraceRecorder};
use powadapt_sim::SimDuration;

use crate::timing::{decorate, DeviceTally, Tracer};
use crate::{
    max_rss_mib, mean, metric, repeat, replay, secs, Args, Checks, FastestPieces, Layers, Outcome,
};

/// The seed whose placement cell has a committed golden
/// (`crates/bench/goldens/placement_eval.json`).
const GOLDEN_SEED: u64 = powadapt_bench::golden::GOLDEN_SEED;

/// Failover cells per unit of work: this many seeds, each run as a
/// regional failover and as a rolling firmware update.
const FAILOVER_SEEDS: u64 = 4;

/// Slice length of an un-checkpointed (placement) cell.
const PLACEMENT_SLICE: SimDuration = SimDuration::from_secs(10);

/// Ring capacity of the traced pass's recorder: holds every event of one
/// failover cell, so the tree replay sees every rebalance decision.
const RING_EVENTS: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Placement,
    Failover,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Placement,
    Failover,
    Firmware,
}

/// One cell: a scenario whose devices (and fault injectors) draw their
/// noise from `seed`, offered the tenant arrival streams of
/// `tenant_seed`.
///
/// Tenant streams come from a fixed set of seeds, so every run seed
/// offers the same load: the placement scenario's one-shot archive burst
/// alone moves a cell's IO count by a third from one stream seed to the
/// next, which would swamp host-time differences between commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId {
    pub scenario: Scenario,
    pub seed: u64,
    pub tenant_seed: u64,
}

impl CellId {
    pub fn spec(self) -> ClusterSpec {
        let mut spec = match self.scenario {
            Scenario::Placement => placement_cluster(PlacementArm::TempDriven, self.seed),
            Scenario::Failover => {
                longhaul::regional_failover(SelectionPolicy::ModelDriven, self.seed)
            }
            Scenario::Firmware => {
                longhaul::rolling_firmware(SelectionPolicy::ModelDriven, self.seed)
            }
        };
        spec.seed = self.tenant_seed;
        spec
    }

    fn checkpointed(self) -> bool {
        self.scenario != Scenario::Placement
    }
}

/// The cells of one unit of work at `seed`.
pub fn cells(workload: Workload, seed: u64) -> Vec<CellId> {
    match workload {
        Workload::Placement => vec![CellId {
            scenario: Scenario::Placement,
            seed,
            tenant_seed: GOLDEN_SEED,
        }],
        Workload::Failover => (0..FAILOVER_SEEDS)
            .flat_map(|i| {
                let (seed, tenant_seed) = (seed.wrapping_add(i), GOLDEN_SEED + i);
                [Scenario::Failover, Scenario::Firmware].map(|scenario| CellId {
                    scenario,
                    seed,
                    tenant_seed,
                })
            })
            .collect(),
    }
}

/// How a cell is driven.
#[derive(Debug, Clone, Default)]
pub struct CellOpts {
    /// Wrap every device in the timing decorator charging this tally.
    pub tally: Option<Rc<DeviceTally>>,
    /// Fold every checkpoint's bytes into [`CellRun::snap_digest`].
    pub digest: bool,
}

/// What driving one cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    pub report: ClusterReport,
    pub checkpoints: u64,
    pub snap_bytes: u64,
    /// FNV-1a over every checkpoint's bytes (0 unless asked for).
    pub snap_digest: u64,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn build_spec(cell: CellId, opts: &CellOpts) -> ClusterSpec {
    let mut spec = cell.spec();
    if let Some(t) = &opts.tally {
        decorate(&mut spec, t);
    }
    spec
}

/// Drives `cell` from spec to report, recording the spans
/// `cell → spec, new, run_to*, snapshot*, spec.resume*, resume*, finish`.
pub fn run_cell(
    cell: CellId,
    idx: u32,
    tr: &mut Tracer,
    parent: usize,
    opts: &CellOpts,
) -> Result<CellRun, ClusterError> {
    let span = tr.open("cell", idx, Some(parent));
    let p = Some(span);
    let spec = tr.span("spec", idx, p, || build_spec(cell, opts));
    let step = if cell.checkpointed() {
        spec.control_interval
    } else {
        PLACEMENT_SLICE
    };
    let mut sim = tr.span("new", idx, p, || ClusterSim::new(spec))?;
    let mut checkpoints = 0;
    let mut snap_bytes = 0;
    let mut snap_digest = 0xcbf2_9ce4_8422_2325;
    // Slice ends sit mid-interval, so every checkpoint falls after one
    // control round and before the next.
    let mut limit = sim.start_time() + SimDuration::from_nanos(step.as_nanos() / 2);
    while limit < sim.end_time() {
        tr.span("run_to", idx, p, || sim.run_to(limit))?;
        if cell.checkpointed() {
            let bytes = tr.span("snapshot", idx, p, || sim.snapshot())?;
            checkpoints += 1;
            snap_bytes += bytes.len() as u64;
            if opts.digest {
                snap_digest = fnv1a(snap_digest, &bytes);
            }
            let spec = tr.span("spec.resume", idx, p, || build_spec(cell, opts));
            sim = tr.span("resume", idx, p, move || {
                drop(sim);
                ClusterSim::resume(spec, &bytes)
            })?;
        }
        limit += step;
    }
    let report = tr.span("finish", idx, p, move || sim.finish())?;
    tr.close(span);
    Ok(CellRun {
        report,
        checkpoints,
        snap_bytes,
        snap_digest: if opts.digest { snap_digest } else { 0 },
    })
}

/// One unit of work: every cell, in order, under one `workload` span.
fn unit(cells: &[CellId], opts: &CellOpts) -> Result<(Tracer, Vec<CellRun>), ClusterError> {
    let mut tr = Tracer::new(opts.tally.clone().unwrap_or_default());
    let root = tr.open("workload", 0, None);
    let mut runs = Vec::with_capacity(cells.len());
    for (i, &c) in cells.iter().enumerate() {
        runs.push(run_cell(c, i as u32, &mut tr, root, opts)?);
    }
    tr.close(root);
    Ok((tr, runs))
}

/// What the traced pass collected, cell by cell.
struct Traced {
    tracer: Tracer,
    runs: Vec<CellRun>,
    /// Rebalance decisions of each cell, in emission order.
    decisions: Vec<Vec<RebalanceDecision>>,
    counts: std::collections::BTreeMap<String, u64>,
    ring_overflowed: bool,
}

/// Runs the unit once more with the timing decorator on every device and
/// a `TraceRecorder` installed, clearing the recorder between cells so
/// each cell's decisions can be replayed.
fn traced_unit(cells: &[CellId]) -> Result<Traced, ClusterError> {
    let rec = Arc::new(TraceRecorder::new(RING_EVENTS));
    let prev = powadapt_obs::install(rec.clone());
    let opts = CellOpts {
        tally: Some(Rc::new(DeviceTally::default())),
        digest: true,
    };
    let mut tracer = Tracer::new(opts.tally.clone().unwrap_or_default());
    let root = tracer.open("workload", 0, None);
    let mut runs = Vec::new();
    let mut decisions = Vec::new();
    let mut counts = std::collections::BTreeMap::new();
    let mut ring_overflowed = false;
    let mut result = Ok(());
    for (i, &c) in cells.iter().enumerate() {
        match run_cell(c, i as u32, &mut tracer, root, &opts) {
            Ok(run) => runs.push(run),
            Err(e) => {
                result = Err(e);
                break;
            }
        }
        let log = rec.log();
        ring_overflowed |= log.dropped() > 0;
        for (kind, n) in log.counts() {
            *counts.entry(kind).or_insert(0) += n;
        }
        decisions.push(
            log.snapshot()
                .into_iter()
                .filter_map(|e| match e.kind {
                    EventKind::RebalanceDecision(d) => Some(*d),
                    _ => None,
                })
                .collect(),
        );
        rec.clear();
    }
    tracer.close(root);
    match prev {
        Some(p) => {
            powadapt_obs::install(p);
        }
        None => {
            powadapt_obs::uninstall();
        }
    }
    result.map(|()| Traced {
        tracer,
        runs,
        decisions,
        counts,
        ring_overflowed,
    })
}

/// Host-time results of the timed section.
struct Timed {
    wall_s: f64,
    setup_s: f64,
    rss_mib: f64,
}

/// Spans that build a cell: the set-up, timed apart from the rest.
fn is_setup(name: &str) -> bool {
    name == "spec" || name == "new"
}

pub fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let cells = cells(workload, args.seed);
    let mut checks = Checks::default();

    // Timed section: untraced units until the run's time is up.
    let mut setup = FastestPieces::default();
    let mut timed = FastestPieces::default();
    let mut first: Option<Vec<CellRun>> = None;
    repeat(args.seconds, || -> Result<(), ClusterError> {
        let (tr, runs) = unit(&cells, &CellOpts::default())?;
        setup.add(&tr.leaf_ns(is_setup));
        timed.add(&tr.leaf_ns(|n| !is_setup(n)));
        match &first {
            None => first = Some(runs),
            Some(f) => checks.check(*f == runs, || "a repeated unit changed its reports".into()),
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let host = Timed {
        wall_s: timed.total_s(),
        setup_s: setup.total_s(),
        rss_mib: max_rss_mib(),
    };
    let runs = first.unwrap_or_default();

    // Output checks, outside the timed section.
    let traced = traced_unit(&cells).map_err(|e| e.to_string())?;
    match workload {
        Workload::Failover => resume_checks(&cells, &runs, &traced.runs, &mut checks)?,
        Workload::Placement if args.seed == GOLDEN_SEED => {
            golden_placement(&runs[0].report, &mut checks);
        }
        Workload::Placement => {}
    }
    Ok(finish(workload, &cells, &runs, traced, checks, &host))
}

/// Each resumed chain must equal the uninterrupted run of its cell, and
/// the traced chain must write the same checkpoint bytes as an untraced
/// one.
fn resume_checks(
    cells: &[CellId],
    runs: &[CellRun],
    traced: &[CellRun],
    checks: &mut Checks,
) -> Result<(), String> {
    let digested = CellOpts {
        tally: None,
        digest: true,
    };
    let (_, plain) = unit(cells, &digested).map_err(|e| e.to_string())?;
    for (((c, run), p), t) in cells.iter().zip(runs).zip(&plain).zip(traced) {
        let straight = run_cluster(c.spec()).map_err(|e| e.to_string())?;
        checks.check(straight == run.report, || {
            format!("{c:?}: resumed chain differs from the uninterrupted run")
        });
        checks.check(p.report == run.report, || {
            format!("{c:?}: repeated chain differs")
        });
        checks.check(t.snap_digest == p.snap_digest, || {
            format!("{c:?}: traced snapshot bytes differ from untraced")
        });
    }
    Ok(())
}

fn finish(
    workload: Workload,
    cells: &[CellId],
    runs: &[CellRun],
    traced: Traced,
    mut checks: Checks,
    host: &Timed,
) -> Outcome {
    for ((c, u), t) in cells.iter().zip(runs).zip(&traced.runs) {
        checks.check(u.report == t.report, || {
            format!("{c:?}: traced report differs from untraced")
        });
    }
    let reports: Vec<&ClusterReport> = runs.iter().map(|r| &r.report).collect();
    let served: u64 = reports.iter().map(|r| r.served_ios).sum();
    let bytes: u64 = reports.iter().map(|r| r.total_bytes).sum();
    let joules: f64 = reports.iter().map(|r| r.total_joules).sum();
    let arrivals: u64 = reports
        .iter()
        .flat_map(|r| &r.tenants)
        .map(|t| t.submitted + t.dropped)
        .sum();
    let dropped: u64 = reports.iter().map(|r| r.dropped).sum();
    let slo_missed = reports
        .iter()
        .flat_map(|r| &r.tenants)
        .filter(|t| !t.slo_ok)
        .count();
    let cap_violations = reports
        .iter()
        .flat_map(|r| &r.nodes)
        .filter(|n| !n.within_cap())
        .count();
    // Each tenant's p99 is a sketch quantile, so the worst tenant's value
    // sits on a bucket edge that device noise rarely moves; the mean over
    // every tenant of the unit still moves with it.
    let p99_us: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.tenants)
        .map(|t| t.p99_latency_us)
        .collect();

    let mut layers = Layers::default();
    // Layer replays, checked against the traced run's own counts.
    match workload {
        Workload::Placement => {
            for (c, run) in cells.iter().zip(runs) {
                match replay::place(*c) {
                    Ok(p) => {
                        let r = &run.report;
                        let arrivals: u64 = r.tenants.iter().map(|t| t.submitted + t.dropped).sum();
                        checks.check(p.route_calls == arrivals, || {
                            format!(
                                "{c:?}: placement replay routed {} arrivals, the run admitted {arrivals}",
                                p.route_calls
                            )
                        });
                        checks.check(p.ticks + 1 == r.rebalance_rounds, || {
                            format!(
                                "{c:?}: placement replay ticked {} times for {} control rounds",
                                p.ticks, r.rebalance_rounds
                            )
                        });
                        layers.set("place.route.calls", p.route_calls as f64);
                        layers.set("place.route.ns", p.route_ns as f64);
                        layers.set("place.tick.ns", p.tick_ns as f64);
                    }
                    Err(e) => checks.check(false, || format!("{c:?}: placement replay: {e}")),
                }
            }
        }
        Workload::Failover => {
            checks.check(!traced.ring_overflowed, || {
                "the trace ring overflowed; tree replay incomplete".into()
            });
            let mut rebalance_ns = 0;
            let mut apply_ns = 0;
            for ((c, run), decisions) in cells.iter().zip(runs).zip(&traced.decisions) {
                let r = &run.report;
                match replay::tree_core(*c, decisions) {
                    Ok(t) => {
                        checks.check(t.rounds == r.rebalance_rounds, || {
                            format!(
                                "{c:?}: tree replay ran {} rounds, the run {}",
                                t.rounds, r.rebalance_rounds
                            )
                        });
                        checks.check(t.grants_match, || {
                            format!("{c:?}: tree replay grants differ from the run's decisions")
                        });
                        checks.check(t.apply_calls == r.replans + r.infeasible_rounds, || {
                            format!(
                                "{c:?}: controller replay made {} re-plans, the run {}",
                                t.apply_calls,
                                r.replans + r.infeasible_rounds
                            )
                        });
                        rebalance_ns += t.rebalance_ns;
                        apply_ns += t.apply_ns;
                    }
                    Err(e) => checks.check(false, || format!("{c:?}: tree replay: {e}")),
                }
            }
            layers.set("tree.rebalance.ns", rebalance_ns as f64);
            layers.set("core.apply_budget.ns", apply_ns as f64);
        }
    }

    let tr = &traced.tracer;
    let mut dev = tr.device_in("run_to");
    dev.add(&tr.device_in("finish"));
    let run_to_ns = tr.total_ns("run_to") + tr.total_ns("finish");
    let n_devices: u64 = cells
        .iter()
        .map(|c| {
            c.spec()
                .enclosures
                .iter()
                .map(|e| e.devices.len() as u64)
                .sum::<u64>()
        })
        .sum();
    layers.set("device.submit.calls", dev.submit_calls as f64);
    layers.set("device.submit.ns", dev.submit_ns as f64);
    layers.set("device.advance.calls", dev.advance_calls as f64);
    layers.set("device.advance.ns", dev.advance_ns as f64);
    layers.set("device.next_event.calls", dev.next_event_calls as f64);
    layers.set("device.next_event.ns", dev.next_event_ns as f64);
    layers.set("device.completions", dev.completions as f64);
    layers.set(
        "device.power_state.calls",
        tr.tally().get().power_state_calls as f64,
    );
    layers.set(
        "device.idle_advance_ratio",
        dev.advance_idle as f64 / dev.advance_calls.max(1) as f64,
    );
    layers.set("cluster.run_to.ns", run_to_ns as f64);
    layers.set("cluster.self_ns", (run_to_ns - dev.ns()) as f64);
    layers.set(
        "cluster.steps",
        dev.advance_calls as f64 / n_devices.max(1) as f64,
    );
    let sum = |f: fn(&ClusterReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    layers.set("cluster.rebalance_rounds", sum(|r| r.rebalance_rounds));
    layers.set("cluster.infeasible_rounds", sum(|r| r.infeasible_rounds));
    layers.set("core.replans", sum(|r| r.replans));
    layers.set("place.migrations", sum(|r| r.migrations_started));
    layers.set("place.migration_bytes", sum(|r| r.migration_bytes));
    layers.set("snap.snapshot.ns", tr.total_ns("snapshot") as f64);
    layers.set("snap.resume.ns", tr.total_ns("resume") as f64);
    layers.set(
        "snap.bytes",
        traced.runs.iter().map(|r| r.snap_bytes).sum::<u64>() as f64,
    );
    layers.set(
        "snap.checkpoints",
        traced.runs.iter().map(|r| r.checkpoints).sum::<u64>() as f64,
    );
    let total_events: u64 = traced.counts.values().sum();
    layers.set("obs.events", total_events as f64);
    for (kind, n) in &traced.counts {
        layers.set(&format!("obs.events.{kind}"), *n as f64);
    }
    let traced_wall: u64 = tr.leaf_ns(|n| !is_setup(n)).iter().sum();
    layers.set("obs.trace_overhead", secs(traced_wall) / host.wall_s);
    layers.set("slo_missed", slo_missed as f64);
    layers.set("cap_violations", cap_violations as f64);

    let attempted = arrivals + checks.run;
    let failed = dropped + checks.failures.len() as u64;
    layers.set("fail_ratio", failed as f64 / attempted.max(1) as f64);

    let end_to_end = vec![
        metric("wall_s", host.wall_s, "s"),
        metric("ios_per_s", served as f64 / host.wall_s, "1/s"),
        metric("setup_s", host.setup_s, "s"),
        metric("max_rss_mib", host.rss_mib, "MiB"),
        metric("nj_per_byte", joules / bytes.max(1) as f64 * 1e9, "nJ/B"),
        metric("p99_ms", mean(&p99_us) / 1e3, "ms"),
    ];
    Outcome {
        end_to_end,
        per_layer: layers.into_metrics(),
        attempted,
        failed,
        spans_json: tr.to_json(),
        checks,
    }
}

/// Compares the placement cell at the golden seed against the
/// `TempDriven` rows of the committed `placement_eval` golden.
fn golden_placement(r: &ClusterReport, checks: &mut Checks) {
    let path = powadapt_bench::golden::goldens_dir().join("placement_eval.json");
    let golden = match std::fs::read_to_string(&path) {
        Ok(g) => g,
        Err(e) => {
            checks.check(false, || format!("cannot read {}: {e}", path.display()));
            return;
        }
    };
    let lines: std::collections::BTreeSet<&str> = golden
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .collect();
    let jf = |v: f64| format!("{v:?}");
    let arm = "TempDriven";
    let mut want = vec![format!(
        "{{\"report\": {{\"arm\": \"{arm}\", \"bytes\": {}, \"served\": {}, \"dropped\": {}, \"migrations_started\": {}, \"migrations_completed\": {}, \"migration_bytes\": {}, \"total_joules\": {}, \"system_joules\": {}, \"idle_joules\": {}, \"joules_per_byte\": {}, \"caps_respected\": {}, \"slos_met\": {}}}}}",
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
    )];
    for n in &r.nodes {
        want.push(format!(
            "{{\"arm\": \"{arm}\", \"node\": \"{}\", \"cap_w\": {}, \"max_w\": {}, \"mean_w\": {}, \"granted_w\": {}}}",
            n.path,
            jf(n.cap_w),
            jf(n.max_power_w),
            jf(n.mean_power_w),
            jf(n.granted_w)
        ));
    }
    for t in &r.tenants {
        want.push(format!(
            "{{\"arm\": \"{arm}\", \"tenant\": \"{}\", \"served\": {}, \"bytes\": {}, \"p99_us\": {}, \"slo_ok\": {}}}",
            t.name,
            t.served,
            t.bytes,
            jf(t.p99_latency_us),
            t.slo_ok
        ));
    }
    for w in want {
        checks.check(lines.contains(w.as_str()), || {
            format!("placement golden has no row {w}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing decorator is invisible to the simulation: a wrapped
    /// cell's report and every checkpoint's bytes equal the unwrapped
    /// cell's, and the decorator saw the device work.
    #[test]
    fn decorated_cell_matches_undecorated() {
        for scenario in [Scenario::Failover, Scenario::Firmware] {
            let cell = CellId {
                scenario,
                seed: 3,
                tenant_seed: GOLDEN_SEED,
            };
            let run = |tally: Option<Rc<DeviceTally>>| {
                let mut tr = Tracer::new(tally.clone().unwrap_or_default());
                let root = tr.open("workload", 0, None);
                let opts = CellOpts {
                    tally,
                    digest: true,
                };
                // powadapt-lint: allow(D5, reason = "test: a failing cell fails the test")
                run_cell(cell, 0, &mut tr, root, &opts).expect("cell runs")
            };
            let tally = Rc::new(DeviceTally::default());
            let plain = run(None);
            let wrapped = run(Some(tally.clone()));
            assert_eq!(plain, wrapped, "{scenario:?}");
            assert!(plain.checkpoints > 0);
            let counts = tally.get();
            assert!(counts.submit_calls > 0 && counts.advance_calls > 0);
        }
    }
}
