//! Generated cluster scenarios driven in random `run_to` slices.
//!
//! Sixteen specs vary device seeds, tenant mixes and rates, tree-fault
//! windows, fault-injected devices, the selection policy, and the
//! placement tier (each [`PlacementArm`] and none). Each runs a few
//! simulated seconds in slices of random length, from microseconds (so a
//! slice may end between two device events) to a sizeable share of the
//! run, and is snapshotted and resumed from the sealed bytes at every
//! slice boundary. The fixture pins, per spec, a digest of every
//! checkpoint and of the final report: any change to how the cluster
//! steps its devices must reproduce both byte for byte.

use powadapt_cluster::{
    oversubscribed_cluster, placement_cluster, ClusterReport, ClusterSim, ClusterSpec,
    PlacementArm, SelectionPolicy, TenantArrivals, TreeFaultWindow,
};
use powadapt_device::{FaultInjector, FaultPlan, StorageDevice};
use powadapt_sim::{SimDuration, SimRng, SimTime};

use super::{doc, fnv1a_64, GOLDEN_SEED};

/// Name of the committed slice-equivalence fixture
/// (`crates/bench/goldens/cluster_slices.json`).
pub const SLICES_FIXTURE: &str = "cluster_slices";

/// Generated specs in the fixture.
const SLICE_SPECS: u64 = 16;

/// The spec's placement arm: the three arms, then no tier.
fn arm(i: u64) -> Option<PlacementArm> {
    match i % 4 {
        0 => Some(PlacementArm::TempDriven),
        1 => Some(PlacementArm::StaticSpread),
        2 => Some(PlacementArm::NoMigration),
        _ => None,
    }
}

/// Wraps every device of enclosure `e` in a fault injector with latency
/// spikes and transient IO errors at `rate`: a refused arrival tries the
/// next holder, a refused migration leg waits in the backlog.
fn inject(spec: &mut ClusterSpec, e: usize, rate: f64, seed: u64) {
    let enc = &mut spec.enclosures[e];
    enc.devices = std::mem::take(&mut enc.devices)
        .into_iter()
        .enumerate()
        .map(|(d, inner)| {
            Box::new(FaultInjector::seeded(
                inner,
                FaultPlan::none()
                    .io_errors(rate)
                    .latency_spikes(0.1, SimDuration::from_millis(2)),
                SimRng::stream_seed(seed, d as u64),
            )) as Box<dyn StorageDevice>
        })
        .collect();
}

/// Generated spec `i` (`0..SLICE_SPECS`): a pure function of `i`.
fn slice_spec(i: u64) -> ClusterSpec {
    let mut rng = SimRng::for_stream(GOLDEN_SEED ^ 0x0051_1ce5, i);
    let seed = rng.next_u64() % 10_000;
    let policy = if i % 3 == 2 {
        SelectionPolicy::UniformStatic
    } else {
        SelectionPolicy::ModelDriven
    };
    let ms = |v: f64| SimDuration::from_micros((v * 1e3) as u64);
    match arm(i) {
        Some(arm) => {
            // The placement scenario on a compressed clock: extents cool
            // and consolidation starts moves within the first two seconds.
            let mut spec = placement_cluster(arm, seed);
            spec.policy = policy;
            // Moves onto a parked HDD wait out its 6 s spin-up, so the
            // migrating arm runs long enough to commit some.
            let secs = if arm == PlacementArm::TempDriven {
                (7_000.0, 9_000.0)
            } else {
                (2_000.0, 3_500.0)
            };
            spec.duration = ms(rng.uniform_range(secs.0, secs.1));
            spec.control_interval = ms(rng.uniform_range(80.0, 250.0));
            spec.sample_interval = ms(rng.uniform_range(20.0, 60.0));
            if let Some(p) = spec.placement.as_mut() {
                p.temp_window = SimDuration::from_millis(200);
                p.batch_window = SimDuration::from_millis(600);
                p.extent_bytes = 16 << 20;
            }
            for t in &mut spec.tenants {
                t.arrivals = match t.arrivals {
                    TenantArrivals::Diurnal { swing, .. } => TenantArrivals::Diurnal {
                        base_rate_iops: rng.uniform_range(150.0, 600.0),
                        swing,
                        period: ms(rng.uniform_range(500.0, 2_000.0)),
                    },
                    TenantArrivals::Poisson { .. } => TenantArrivals::Poisson {
                        rate_iops: rng.uniform_range(80.0, 400.0),
                    },
                    TenantArrivals::Bursty { mean_off, .. } => TenantArrivals::Bursty {
                        burst_rate_iops: rng.uniform_range(600.0, 2_000.0),
                        mean_on: ms(rng.uniform_range(200.0, 600.0)),
                        mean_off,
                    },
                };
            }
            let fault = match i % 3 {
                // A cold rack goes dark as the first moves start, or the
                // warm rack briefly: routing and control skip the dark
                // enclosure, and a leg bound for it waits in the backlog.
                1 => Some(("cluster/row0/rack-cold1", 700.0, 1_500.0)),
                2 => Some(("cluster/row0/rack-warm", 1_100.0, 1_350.0)),
                _ => None,
            };
            if let Some((node, from, until)) = fault {
                spec.tree_faults.push(TreeFaultWindow {
                    node: node.into(),
                    from: SimTime::ZERO + ms(from),
                    until: SimTime::ZERO + ms(until),
                });
            }
            // Destination writes refused by a cold rack wait in the
            // migration backlog, retried at every step; with one or two
            // moves at a time, most devices carry no leg meanwhile.
            let mut few_moves = |active| {
                if let Some(p) = spec.placement.as_mut() {
                    p.max_active_migrations = active;
                }
                inject(&mut spec, 1, 0.9, seed);
            };
            match i {
                4 => few_moves(1),
                8 => inject(&mut spec, 1, 0.05, seed),
                12 => few_moves(2),
                _ if i % 2 == 1 => inject(&mut spec, 0, 0.01, seed),
                _ => {}
            }
            spec
        }
        None => {
            // The oversubscribed SSD cluster at about a tenth of its load.
            let mut spec = oversubscribed_cluster(policy, seed);
            spec.duration = ms(rng.uniform_range(250.0, 450.0));
            for t in &mut spec.tenants {
                let scale = rng.uniform_range(0.08, 0.2);
                t.arrivals = match t.arrivals {
                    TenantArrivals::Diurnal {
                        base_rate_iops,
                        swing,
                        period,
                    } => TenantArrivals::Diurnal {
                        base_rate_iops: base_rate_iops * scale,
                        swing,
                        period,
                    },
                    TenantArrivals::Poisson { rate_iops } => TenantArrivals::Poisson {
                        rate_iops: rate_iops * scale,
                    },
                    TenantArrivals::Bursty {
                        burst_rate_iops,
                        mean_on,
                        mean_off,
                    } => TenantArrivals::Bursty {
                        burst_rate_iops: burst_rate_iops * scale,
                        mean_on,
                        mean_off,
                    },
                };
            }
            if i % 8 == 7 {
                spec.tree_faults.push(TreeFaultWindow {
                    node: "cluster/row0/rack1".into(),
                    from: SimTime::from_millis(60),
                    until: SimTime::from_millis(140),
                });
                inject(&mut spec, 0, 0.01, seed);
            }
            spec
        }
    }
}

/// One slice length: a third of them shorter than most device service
/// times, the rest up to a fifth of the run.
fn slice_len(rng: &mut SimRng, duration: SimDuration) -> SimDuration {
    if rng.chance(1.0 / 3.0) {
        SimDuration::from_nanos(rng.u64_range(1_000, 200_000))
    } else {
        SimDuration::from_nanos(rng.u64_range(1_000_000, duration.as_nanos() / 5))
    }
}

/// Runs spec `i` in random slices, resuming from the sealed snapshot at
/// every boundary; returns the report, the number of checkpoints, their
/// total length and a digest chained over every checkpoint's bytes.
///
/// # Panics
///
/// Panics if the run, a snapshot or a resume fails.
fn sliced_run(i: u64) -> (ClusterReport, u64, u64, u64) {
    let mut rng = SimRng::for_stream(GOLDEN_SEED ^ 0x0005_11ce, i);
    let mut sim = ClusterSim::new(slice_spec(i)).expect("spec builds");
    let duration = sim.end_time().duration_since(sim.start_time());
    let (mut checkpoints, mut bytes, mut chain) = (0, 0, 0u64);
    let mut limit = sim.start_time() + slice_len(&mut rng, duration);
    while limit < sim.end_time() {
        sim.run_to(limit).expect("slice runs");
        let snap = sim.snapshot().expect("snapshot serializes");
        checkpoints += 1;
        bytes += snap.len() as u64;
        chain = fnv1a_64(&[chain.to_le_bytes().as_slice(), &snap].concat());
        drop(sim);
        sim = ClusterSim::resume(slice_spec(i), &snap).expect("snapshot resumes");
        limit += slice_len(&mut rng, duration);
    }
    let report = sim.finish().expect("run finishes");
    (report, checkpoints, bytes, chain)
}

/// The fixture: one row per generated spec.
///
/// # Panics
///
/// Panics if a run, a snapshot or a resume fails.
pub fn cluster_slices_summary() -> String {
    let rows: Vec<String> = (0..SLICE_SPECS)
        .map(|i| {
            let (r, checkpoints, bytes, chain) = sliced_run(i);
            format!(
                "{{\"spec\": {i}, \"arm\": \"{}\", \"policy\": \"{}\", \"served\": {}, \
                 \"dropped\": {}, \"migrations\": [{}, {}], \"checkpoints\": {checkpoints}, \
                 \"checkpoint_bytes\": {bytes}, \"checkpoint_chain\": \"{chain:016x}\", \
                 \"report_fnv1a64\": \"{:016x}\"}}",
                arm(i).map_or_else(|| "none".to_owned(), |a| format!("{a:?}")),
                r.policy,
                r.served_ios,
                r.dropped,
                r.migrations_started,
                r.migrations_completed,
                fnv1a_64(format!("{r:?}").as_bytes()),
            )
        })
        .collect();
    doc(SLICES_FIXTURE, GOLDEN_SEED, &rows)
}
