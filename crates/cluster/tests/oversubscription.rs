//! End-to-end acceptance of the cluster layer: at a cluster cap below the
//! sum of device maxima, the model-driven selector beats the naive
//! uniform share by a wide margin while never exceeding any node's cap.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use powadapt_cluster::{oversubscribed_cluster, run_cluster, ClusterReport, SelectionPolicy};

fn run(policy: SelectionPolicy, seed: u64) -> ClusterReport {
    run_cluster(oversubscribed_cluster(policy, seed)).unwrap()
}

#[test]
fn model_driven_wins_oversubscription_without_cap_violations() {
    let model = run(SelectionPolicy::ModelDriven, 42);
    let uniform = run(SelectionPolicy::UniformStatic, 42);

    // Both arms must respect every node's physical cap at every sample.
    assert!(model.caps_respected(), "model arm violated a cap:\n{model}");
    assert!(
        uniform.caps_respected(),
        "uniform arm violated a cap:\n{uniform}"
    );

    // The headline: the model-driven selector turns the stranded watts
    // into at least 1.3x the baseline's aggregate throughput.
    let ratio = model.aggregate_throughput_bps() / uniform.aggregate_throughput_bps();
    assert!(
        ratio >= 1.3,
        "win ratio {ratio:.2} < 1.3\nmodel:\n{model}\nuniform:\n{uniform}"
    );

    // The rebalance loop actually ran and re-planned.
    assert!(model.rebalance_rounds > 0);
    assert!(model.replans > 0);
    assert_eq!(uniform.rebalance_rounds, 0);

    // Tenants fare no worse under the model-driven policy.
    let met = |r: &ClusterReport| r.tenants.iter().filter(|t| t.slo_ok).count();
    assert!(
        met(&model) >= met(&uniform),
        "model meets {} SLOs, uniform {}",
        met(&model),
        met(&uniform)
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run(SelectionPolicy::ModelDriven, 7);
    let b = run(SelectionPolicy::ModelDriven, 7);
    assert_eq!(a, b);
    let c = run(SelectionPolicy::ModelDriven, 8);
    assert_ne!(a.total_bytes, c.total_bytes);
}

#[test]
fn every_tenant_is_served_in_the_model_arm() {
    let model = run(SelectionPolicy::ModelDriven, 42);
    for t in &model.tenants {
        assert!(t.served > 0, "tenant {} starved:\n{model}", t.name);
        assert!(t.submitted >= t.served);
    }
    assert_eq!(
        model.served_ios,
        model.tenants.iter().map(|t| t.served).sum()
    );
}
