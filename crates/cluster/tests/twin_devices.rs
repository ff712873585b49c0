//! An enclosure of identical drives: the cluster routes by device index,
//! so a quarantined drive never inherits its healthy twin's plan action,
//! whichever of the two is the one that refuses.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use powadapt_cluster::{
    fig10_model, run_cluster, ClusterSpec, EnclosureSpec, NodeKind, PowerTree, SelectionPolicy,
    TenantArrivals, TenantSpec,
};
use powadapt_core::Slo;
use powadapt_device::{catalog, FaultInjector, FaultPlan, StorageDevice, GIB, KIB};
use powadapt_sim::SimDuration;

/// One enclosure of two SSD3s under a generous 100 W cap, one 2,000 IO/s
/// tenant for 200 ms; device `faulty` refuses every admin command.
fn twin_enclosure(faulty: usize) -> ClusterSpec {
    let mut tree = PowerTree::root("cluster", NodeKind::Cluster, 100.0, 1.0);
    tree.add_child(tree.root_id(), "enc0", NodeKind::Enclosure, 100.0, 1.0);
    let devices: Vec<Box<dyn StorageDevice>> = (0..2)
        .map(|d| {
            let dev: Box<dyn StorageDevice> = Box::new(catalog::ssd3_d3_p4510(d as u64 + 1));
            if d == faulty {
                let plan = FaultPlan::none().admin_failures(1.0);
                Box::new(FaultInjector::seeded(dev, plan, 7))
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
    let report = run_cluster(twin_enclosure(faulty)).unwrap();
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
