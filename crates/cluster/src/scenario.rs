//! The canonical oversubscribed-cluster scenario, shared by the
//! `cluster_eval` bench, the golden fixture, the repository example, and
//! the behavioral tests — plus the placement-evaluation scenario
//! ([`placement_cluster`]) that pits energy-aware placement and
//! spin-down consolidation against the static-spread and no-migration
//! baselines.
//!
//! Topology: `cluster (34 W) → row0 (34 W, 1.2× oversubscribed) →
//! {rack0 (13 W) → enc0, rack1 (24 W) → enc1}`. The row advertises
//! 40.8 W to racks whose caps sum to 37 W — the oversubscription bet.
//! `enc0` holds SSD1 + SSD3 (cheap, slow), `enc1` holds SSD2 + PM1743
//! (hungry, fast): the heterogeneity that makes a uniform per-device
//! share strand the fast drives.
//!
//! The arithmetic of the headline comparison, all in planned watts:
//!
//! - Enclosure floors (every device at its cheapest configuration) are
//!   `5.4 + 3.5 = 8.9` and `10 + 9 = 19`, so the cluster can operate all
//!   four devices at its 29.75 W planning budget (34 W cap × 0.875
//!   margin). The slack between plan and physical cap absorbs what rides
//!   above the plan: burst pacing (a capped device may briefly exceed its
//!   state cap by its burst factor) and measurement noise.
//! - The naive baseline splits the 34 W cap uniformly: 8.5 W per device.
//!   SSD2 (min 10 W) and PM1743 (min 9 W) cannot fit and sit idle.
//!
//! Three tenants — diurnal, steady, and bursty — offer far more load than
//! the stranded baseline can serve, so the served-bytes ratio between the
//! two policies is the measured value of model-driven oversubscription.

use powadapt_core::Slo;
use powadapt_device::{catalog, PowerStateId, StorageDevice, GIB, KIB, MIB};
use powadapt_io::Workload;
use powadapt_model::{ConfigPoint, PowerThroughputModel};
use powadapt_place::{PlacementConfig, PlacementMode};
use powadapt_sim::{SimDuration, SimRng};

use crate::selector::SelectionPolicy;
use crate::sim::{ClusterSpec, EnclosureSpec};
use crate::tenant::{TenantArrivals, TenantSpec};
use crate::tree::{NodeKind, PowerTree};

/// Measured-style Fig 10 configuration points for one catalog device:
/// `(power state, planned watts, modeled bytes/s)` at 256 KiB QD64. The
/// planned watts are the state's power cap, so a plan that sums planned
/// watts provably bounds the devices' capped draw. Unknown labels get an
/// empty table.
fn fig10_points(label: &str) -> Vec<ConfigPoint> {
    let pt = |ps: u8, power_w: f64, thr_bps: f64| {
        ConfigPoint::new(
            label,
            Workload::RandWrite,
            PowerStateId(ps),
            256 * KIB,
            64,
            power_w,
            thr_bps,
        )
    };
    match label {
        "SSD1" => vec![pt(0, 25.0, 3.6e9), pt(1, 6.5, 1.44e9), pt(2, 5.4, 1.0e9)],
        "SSD2" => vec![pt(0, 25.0, 3.4e9), pt(1, 12.0, 2.3e9), pt(2, 10.0, 1.8e9)],
        "SSD3" => vec![pt(0, 3.5, 0.4e9)],
        "PM1743" => vec![pt(0, 25.0, 7.0e9), pt(1, 14.0, 2.9e9), pt(2, 9.0, 1.7e9)],
        _ => Vec::new(),
    }
}

/// The scenario's measured power-throughput model for a catalog label
/// (`SSD1`, `SSD2`, `SSD3`, or `PM1743`).
///
/// # Panics
///
/// Panics if `label` is not part of the scenario's device set.
pub fn fig10_model(label: &str) -> PowerThroughputModel {
    match PowerThroughputModel::from_points(label, fig10_points(label)) {
        Some(m) => m,
        #[expect(
            clippy::panic,
            reason = "scenario fixture: literal point tables for a fixed label set; a bad label is a programming error, not a runtime fault"
        )]
        None => panic!("no fig10 points for {label}"),
    }
}

/// Measured-style configuration point for the scenario's cold tier: the
/// Exos 7E2000 exposes a single power state, so its model is one point —
/// planned watts at the drive's worst-case active draw, throughput at
/// 256 KiB QD64 with the write cache absorbing bursts.
pub fn exos_model() -> PowerThroughputModel {
    let pt = ConfigPoint::new(
        "HDD",
        Workload::RandWrite,
        PowerStateId(0),
        256 * KIB,
        64,
        5.4,
        0.16e9,
    );
    match PowerThroughputModel::from_points("HDD", vec![pt]) {
        Some(m) => m,
        #[expect(
            clippy::panic,
            reason = "scenario fixture: a literal one-point table always builds; failure is a programming error, not a runtime fault"
        )]
        None => panic!("one valid point always builds a model"),
    }
}

/// One arm of the placement evaluation: how the tier routes fresh
/// extents and whether the migration engine and consolidation policy
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementArm {
    /// Energy-aware placement with background migration and spin-down
    /// consolidation — the full subsystem.
    TempDriven,
    /// Class-blind capacity spread, no migration: the static baseline
    /// that lands half the hot traffic on the cold tier.
    StaticSpread,
    /// Energy-aware placement with the migration engine disabled: cold
    /// extents stay where they landed and the HDDs never sleep.
    NoMigration,
}

/// Builds the placement-evaluation cluster for `arm`.
///
/// Topology: `cluster (34 W) → row0 (34 W, 1.25× oversubscribed) →
/// {rack-warm (20 W) → SSD1 + SSD3, rack-cold0..2 (7 W each) → one Exos
/// each}`. The rack caps sum to 41 W against the cluster's 34 W feeder.
/// The warm rack is the efficient tier; three single-HDD cold racks
/// give replica anti-affinity real failure domains and consolidation a
/// drain target outside any extent's existing racks.
///
/// Three tenants drive the story on a seconds-scale clock so the Exos
/// spin transitions (1.5 s down, 6 s up) amortize over the 180 s run:
/// `web` swings through two diurnal cycles, `analytics` offers steady
/// Poisson load — both stay hot enough that their extents never cool
/// through the threshold — and `archive` ingests one burst of data at
/// the start and then falls silent for the rest of the run. Its extents
/// cool within a couple of batch windows, drain to the HDDs, and the
/// HDDs spend the back half of the run pinned in standby — the measured
/// value of consolidation over the baselines, which keep all three
/// spindles turning at 3.76 W for nothing.
pub fn placement_cluster(arm: PlacementArm, seed: u64) -> ClusterSpec {
    let mut tree = PowerTree::root("cluster", NodeKind::Cluster, 34.0, 1.0);
    let row = tree.add_child(tree.root_id(), "row0", NodeKind::Row, 34.0, 1.25);
    let warm = tree.add_child(row, "rack-warm", NodeKind::Rack, 20.0, 1.0);
    tree.add_child(warm, "enc-warm", NodeKind::Enclosure, 20.0, 1.0);
    for i in 0..3 {
        let rack = tree.add_child(row, &format!("rack-cold{i}"), NodeKind::Rack, 7.0, 1.0);
        tree.add_child(rack, &format!("enc-cold{i}"), NodeKind::Enclosure, 7.0, 1.0);
    }

    let dev_root = seed ^ 0x9ace;
    let dev_seed = |i: u64| SimRng::stream_seed(dev_root, i);
    let mut enclosures = vec![EnclosureSpec {
        name: "enc-warm".into(),
        devices: vec![
            Box::new(catalog::ssd1_pm9a3(dev_seed(0))) as Box<dyn StorageDevice>,
            Box::new(catalog::ssd3_d3_p4510(dev_seed(1))),
        ],
        models: vec![fig10_model("SSD1"), fig10_model("SSD3")],
    }];
    for i in 0..3u64 {
        enclosures.push(EnclosureSpec {
            name: format!("enc-cold{i}"),
            devices: vec![
                Box::new(catalog::hdd_exos_7e2000(dev_seed(2 + i))) as Box<dyn StorageDevice>
            ],
            models: vec![exos_model()],
        });
    }

    let tenants = vec![
        TenantSpec {
            name: "web".into(),
            arrivals: TenantArrivals::Diurnal {
                base_rate_iops: 400.0,
                swing: 0.85,
                period: SimDuration::from_secs(90),
            },
            block_size: 256 * KIB,
            read_fraction: 0.7,
            region: (0, 4 * GIB),
            slo: Slo::new().min_throughput_bps(30e6),
        },
        TenantSpec {
            name: "analytics".into(),
            arrivals: TenantArrivals::Poisson { rate_iops: 250.0 },
            block_size: 256 * KIB,
            read_fraction: 0.5,
            region: (4 * GIB, 4 * GIB),
            slo: Slo::new().min_throughput_bps(15e6),
        },
        // One ingest burst (the on/off stream starts on; the off draw is
        // far beyond the horizon) and then silence: the data everyone
        // pays to keep on spinning rust unless someone moves it.
        TenantSpec {
            name: "archive".into(),
            arrivals: TenantArrivals::Bursty {
                burst_rate_iops: 2500.0,
                mean_on: SimDuration::from_secs(8),
                mean_off: SimDuration::from_secs(100_000),
            },
            block_size: 256 * KIB,
            read_fraction: 0.0,
            region: (8 * GIB, 4 * GIB),
            slo: Slo::new().min_throughput_bps(2e6),
        },
    ];

    let (mode, migrate, consolidate) = match arm {
        PlacementArm::TempDriven => (PlacementMode::TempDriven, true, true),
        PlacementArm::StaticSpread => (PlacementMode::StaticSpread, false, false),
        PlacementArm::NoMigration => (PlacementMode::TempDriven, false, false),
    };
    let placement = PlacementConfig {
        extent_bytes: 64 * MIB,
        replicas: 2,
        temp_window: SimDuration::from_secs(3),
        cold_threshold: 2.0,
        batch_window: SimDuration::from_secs(20),
        migration_rate_bps: 400_000_000,
        migration_burst_bytes: 512 * MIB,
        max_active_migrations: 8,
        mode,
        migrate,
        consolidate,
    };

    ClusterSpec {
        tree,
        enclosures,
        tenants,
        policy: SelectionPolicy::ModelDriven,
        control_interval: SimDuration::from_secs(1),
        sample_interval: SimDuration::from_millis(250),
        planning_margin: 0.875,
        duration: SimDuration::from_secs(180),
        seed,
        tree_faults: Vec::new(),
        placement: Some(placement),
    }
}

/// Builds the canonical two-rack oversubscribed cluster for `policy`.
///
/// Device noise streams derive from `seed ^ 0xc1a5` stream seeds and
/// tenant arrival streams from `seed` itself, so the same seed compares
/// the two policies over identical workloads and device noise.
pub fn oversubscribed_cluster(policy: SelectionPolicy, seed: u64) -> ClusterSpec {
    let mut tree = PowerTree::root("cluster", NodeKind::Cluster, 34.0, 1.0);
    let row = tree.add_child(tree.root_id(), "row0", NodeKind::Row, 34.0, 1.2);
    let rack0 = tree.add_child(row, "rack0", NodeKind::Rack, 13.0, 1.0);
    let rack1 = tree.add_child(row, "rack1", NodeKind::Rack, 24.0, 1.0);
    tree.add_child(rack0, "enc0", NodeKind::Enclosure, 13.0, 1.0);
    tree.add_child(rack1, "enc1", NodeKind::Enclosure, 24.0, 1.0);

    let dev_root = seed ^ 0xc1a5;
    let dev_seed = |i: u64| SimRng::stream_seed(dev_root, i);
    let enclosures = vec![
        EnclosureSpec {
            name: "enc0".into(),
            devices: vec![
                Box::new(catalog::ssd1_pm9a3(dev_seed(0))) as Box<dyn StorageDevice>,
                Box::new(catalog::ssd3_d3_p4510(dev_seed(1))),
            ],
            models: vec![fig10_model("SSD1"), fig10_model("SSD3")],
        },
        EnclosureSpec {
            name: "enc1".into(),
            devices: vec![
                Box::new(catalog::ssd2_d7_p5510(dev_seed(2))) as Box<dyn StorageDevice>,
                Box::new(catalog::pm1743(dev_seed(3))),
            ],
            models: vec![fig10_model("SSD2"), fig10_model("PM1743")],
        },
    ];

    let tenants = vec![
        TenantSpec {
            name: "web".into(),
            arrivals: TenantArrivals::Diurnal {
                base_rate_iops: 15_000.0,
                swing: 0.6,
                period: SimDuration::from_millis(40),
            },
            block_size: 256 * KIB,
            read_fraction: 0.7,
            region: (0, 64 * GIB),
            slo: Slo::new().min_throughput_bps(0.9e9),
        },
        TenantSpec {
            name: "analytics".into(),
            arrivals: TenantArrivals::Poisson {
                rate_iops: 12_000.0,
            },
            block_size: 256 * KIB,
            read_fraction: 0.3,
            region: (64 * GIB, 64 * GIB),
            slo: Slo::new().min_throughput_bps(0.7e9),
        },
        TenantSpec {
            name: "backup".into(),
            arrivals: TenantArrivals::Bursty {
                burst_rate_iops: 20_000.0,
                mean_on: SimDuration::from_millis(8),
                mean_off: SimDuration::from_millis(12),
            },
            block_size: 256 * KIB,
            read_fraction: 0.0,
            region: (128 * GIB, 64 * GIB),
            slo: Slo::new().min_throughput_bps(0.35e9),
        },
    ];

    ClusterSpec {
        tree,
        enclosures,
        tenants,
        policy,
        control_interval: SimDuration::from_millis(10),
        sample_interval: SimDuration::from_millis(2),
        planning_margin: 0.875,
        duration: SimDuration::from_millis(120),
        seed,
        tree_faults: Vec::new(),
        placement: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_tree_is_oversubscribed_but_valid() {
        let spec = oversubscribed_cluster(SelectionPolicy::ModelDriven, 1);
        assert!(spec.tree.validate().is_ok());
        let row = crate::tree::NodeId(1);
        assert!(spec.tree.advertised_w(row) > spec.tree.cap_w(row));
        assert_eq!(spec.tree.leaves().len(), spec.enclosures.len());
    }

    #[test]
    fn floors_fit_the_planning_budget() {
        let spec = oversubscribed_cluster(SelectionPolicy::ModelDriven, 1);
        let total_floor: f64 = spec
            .enclosures
            .iter()
            .map(|e| crate::selector::fleet_floor_w(&e.models))
            .sum();
        let plan_cap = spec.tree.cap_w(spec.tree.root_id()) * spec.planning_margin;
        assert!(total_floor <= plan_cap, "{total_floor} > {plan_cap}");
    }

    #[test]
    fn uniform_share_strands_the_fast_rack() {
        let spec = oversubscribed_cluster(SelectionPolicy::UniformStatic, 1);
        let share = spec.tree.cap_w(spec.tree.root_id()) / 4.0;
        let enc1 = crate::selector::uniform_choices(&spec.enclosures[1].models, share);
        assert!(enc1.iter().all(Option::is_none), "SSD2/PM1743 must strand");
        let enc0 = crate::selector::uniform_choices(&spec.enclosures[0].models, share);
        assert!(enc0.iter().all(Option::is_some));
    }
}
