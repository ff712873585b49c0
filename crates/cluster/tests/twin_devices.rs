//! An enclosure of identical drives: the cluster routes by device index,
//! so a quarantined drive never inherits its healthy twin's plan action,
//! whichever of the two is the one that refuses, and a drive that refused
//! only for a while is probed again and serves once its cooldown ends.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use powadapt_cluster::{
    fig10_model, run_cluster, ClusterSpec, EnclosureSpec, NodeKind, PowerTree, SelectionPolicy,
    TenantArrivals, TenantSpec,
};
use powadapt_core::Slo;
use powadapt_device::{catalog, FaultInjector, FaultPlan, StorageDevice, GIB, KIB};
use powadapt_sim::{SimDuration, SimTime};

/// One enclosure of two SSD3s under a generous 100 W cap, one 2,000 IO/s
/// tenant for 200 ms; device `faulty` runs under `plan`.
fn twin_enclosure(faulty: usize, plan: &FaultPlan) -> ClusterSpec {
    let mut tree = PowerTree::root("cluster", NodeKind::Cluster, 100.0, 1.0);
    tree.add_child(tree.root_id(), "enc0", NodeKind::Enclosure, 100.0, 1.0);
    let devices: Vec<Box<dyn StorageDevice>> = (0..2)
        .map(|d| {
            let dev: Box<dyn StorageDevice> = Box::new(catalog::ssd3_d3_p4510(d as u64 + 1));
            if d == faulty {
                Box::new(FaultInjector::seeded(dev, plan.clone(), 7))
            } else {
                dev
            }
        })
        .collect();
    ClusterSpec {
        tree,
        enclosures: vec![EnclosureSpec {
            name: "enc0".into(),
            devices,
            models: vec![fig10_model("SSD3"), fig10_model("SSD3")],
        }],
        tenants: vec![TenantSpec {
            name: "steady".into(),
            arrivals: TenantArrivals::Poisson { rate_iops: 2_000.0 },
            block_size: 4 * KIB,
            read_fraction: 0.7,
            region: (0, GIB),
            slo: Slo::new(),
        }],
        policy: SelectionPolicy::ModelDriven,
        control_interval: SimDuration::from_millis(10),
        sample_interval: SimDuration::from_millis(2),
        planning_margin: 0.875,
        duration: SimDuration::from_millis(200),
        seed: 42,
        tree_faults: Vec::new(),
        placement: None,
    }
}

fn assert_served_around(faulty: usize) {
    let refuses_always = FaultPlan::none().admin_failures(1.0);
    let report = run_cluster(twin_enclosure(faulty, &refuses_always)).unwrap();
    let tenant = &report.tenants[0];
    assert!(tenant.submitted > 300, "{report}");
    assert_eq!(
        tenant.dropped, 0,
        "device {faulty} refuses every admin command; its twin must take the load:\n{report}"
    );
    assert_eq!(tenant.served, tenant.submitted, "{report}");
}

#[test]
fn a_refusing_first_twin_leaves_the_second_serving() {
    assert_served_around(0);
}

#[test]
fn a_refusing_second_twin_leaves_the_first_serving() {
    assert_served_around(1);
}

/// Bytes the twins serve for a 40,000 IO/s 64 KiB write tenant, with
/// device 0 under `plan`.
fn write_heavy_bytes(plan: &FaultPlan) -> u64 {
    let mut spec = twin_enclosure(0, plan);
    spec.tenants = vec![TenantSpec {
        name: "writer".into(),
        arrivals: TenantArrivals::Poisson {
            rate_iops: 40_000.0,
        },
        block_size: 64 * KIB,
        read_fraction: 0.0,
        region: (0, GIB),
        slo: Slo::new(),
    }];
    run_cluster(spec).unwrap().total_bytes
}

#[test]
fn a_twin_that_refused_briefly_is_probed_again_and_serves() {
    let healthy = write_heavy_bytes(&FaultPlan::none());
    // Device 0 refuses admin commands for the first 5 ms only: the first
    // plan quarantines it, and the cooldown must end in a probe that
    // brings it back although the enclosure's grant never moves.
    let outage = FaultPlan::none().admin_outage(SimTime::ZERO, SimTime::from_millis(5));
    let faulted = write_heavy_bytes(&outage);
    assert!(
        faulted * 10 >= healthy * 9,
        "a 5 ms admin outage cost the run {faulted} of {healthy} bytes"
    );
}
