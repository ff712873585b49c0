//! Property-based tests of the model layer: frontier correctness, solver
//! optimality against brute force, and fleet-allocation feasibility.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]

use proptest::prelude::*;

use powadapt_device::{PowerStateId, KIB};
use powadapt_io::Workload;
use powadapt_model::{
    best_under_power_budget, cheapest_above_throughput, pareto_frontier, ConfigPoint, FleetModel,
    PowerThroughputModel,
};

fn pt(device: &str, power: f64, thr: f64) -> ConfigPoint {
    ConfigPoint::new(
        device,
        Workload::RandWrite,
        PowerStateId(0),
        4 * KIB,
        1,
        power,
        thr,
    )
}

fn point_cloud() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((1.0f64..20.0, 1.0f64..1000.0), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frontier contains no dominated point and loses no undominated one.
    #[test]
    fn frontier_is_exactly_the_undominated_set(cloud in point_cloud()) {
        let points: Vec<ConfigPoint> =
            cloud.iter().map(|&(p, t)| pt("D", p, t)).collect();
        let frontier = pareto_frontier(&points);
        // Nothing on the frontier is dominated.
        for f in &frontier {
            prop_assert!(!points.iter().any(|q| q.dominates(f)));
        }
        // Every undominated point's coordinates appear on the frontier.
        for p in &points {
            let undominated = !points.iter().any(|q| q.dominates(p));
            if undominated {
                prop_assert!(
                    frontier.iter().any(|f| f.power_w() == p.power_w()
                        && f.throughput_bps() == p.throughput_bps()),
                    "lost undominated point ({}, {})",
                    p.power_w(), p.throughput_bps()
                );
            }
        }
    }

    /// The budget solver is optimal: brute force over all points never
    /// finds a better feasible throughput.
    #[test]
    fn budget_solver_matches_brute_force(cloud in point_cloud(), budget in 1.0f64..25.0) {
        let points: Vec<ConfigPoint> =
            cloud.iter().map(|&(p, t)| pt("D", p, t)).collect();
        let model = PowerThroughputModel::from_points("D", points.clone()).unwrap();
        let solver = best_under_power_budget(&model, budget);
        let brute = points
            .iter()
            .filter(|p| p.power_w() <= budget)
            .map(powadapt_model::ConfigPoint::throughput_bps)
            .fold(f64::NEG_INFINITY, f64::max);
        match solver {
            Some(choice) => {
                prop_assert!(choice.power_w() <= budget);
                prop_assert!((choice.throughput_bps() - brute).abs() < 1e-9);
            }
            None => prop_assert!(brute.is_infinite(), "solver missed a feasible point"),
        }
    }

    /// The floor solver is optimal in the other direction.
    #[test]
    fn floor_solver_matches_brute_force(cloud in point_cloud(), floor in 1.0f64..1200.0) {
        let points: Vec<ConfigPoint> =
            cloud.iter().map(|&(p, t)| pt("D", p, t)).collect();
        let model = PowerThroughputModel::from_points("D", points.clone()).unwrap();
        let solver = cheapest_above_throughput(&model, floor);
        let brute = points
            .iter()
            .filter(|p| p.throughput_bps() >= floor)
            .map(powadapt_model::ConfigPoint::power_w)
            .fold(f64::INFINITY, f64::min);
        match solver {
            Some(choice) => {
                prop_assert!(choice.throughput_bps() >= floor);
                prop_assert!((choice.power_w() - brute).abs() < 1e-9);
            }
            None => prop_assert!(brute.is_infinite(), "solver missed a feasible point"),
        }
    }

    /// Fleet allocation never exceeds the budget and always assigns exactly
    /// one configuration per device.
    #[test]
    fn fleet_allocation_is_feasible(
        clouds in prop::collection::vec(point_cloud(), 2..5),
        budget in 5.0f64..80.0,
    ) {
        let models: Vec<PowerThroughputModel> = clouds
            .iter()
            .enumerate()
            .map(|(i, cloud)| {
                let name = format!("D{i}");
                let pts: Vec<ConfigPoint> =
                    cloud.iter().map(|&(p, t)| pt(&name, p, t)).collect();
                PowerThroughputModel::from_points(name, pts).unwrap()
            })
            .collect();
        let n = models.len();
        let fleet = FleetModel::new(models);
        if let Some(alloc) = fleet.allocate(budget, 0.05) {
            prop_assert_eq!(alloc.choices.len(), n);
            prop_assert!(
                alloc.total_power_w <= budget + 1e-9,
                "allocation {} exceeds budget {}",
                alloc.total_power_w, budget
            );
            let sum: f64 = alloc.choices.iter().map(ConfigPoint::throughput_bps).sum();
            prop_assert!((sum - alloc.total_throughput_bps).abs() < 1e-6);
        } else {
            // Infeasible must mean the minimum powers don't fit.
            prop_assert!(fleet.min_power_w() > budget - 0.25,
                "allocator gave up with floor {} under budget {}",
                fleet.min_power_w(), budget);
        }
    }

    /// Fleet allocation is near-optimal versus brute force on tiny instances
    /// (two devices, few options): within one resolution step.
    #[test]
    fn fleet_allocation_is_near_optimal_on_small_instances(
        a in prop::collection::vec((1.0f64..10.0, 1.0f64..100.0), 1..5),
        b in prop::collection::vec((1.0f64..10.0, 1.0f64..100.0), 1..5),
        budget in 2.0f64..25.0,
    ) {
        let pa: Vec<ConfigPoint> = a.iter().map(|&(p, t)| pt("A", p, t)).collect();
        let pb: Vec<ConfigPoint> = b.iter().map(|&(p, t)| pt("B", p, t)).collect();
        let ma = PowerThroughputModel::from_points("A", pa.clone()).unwrap();
        let mb = PowerThroughputModel::from_points("B", pb.clone()).unwrap();
        let fleet = FleetModel::new(vec![ma, mb]);

        let mut brute = f64::NEG_INFINITY;
        for x in &pa {
            for y in &pb {
                if x.power_w() + y.power_w() <= budget {
                    brute = brute.max(x.throughput_bps() + y.throughput_bps());
                }
            }
        }
        let alloc = fleet.allocate(budget, 0.01);
        match alloc {
            Some(al) => {
                prop_assert!(brute.is_finite());
                // The DP rounds powers up to the resolution, so it may
                // reject a knife-edge combination; allow that slack.
                let slack_budget = budget - 0.03;
                let mut brute_slack = f64::NEG_INFINITY;
                for x in &pa {
                    for y in &pb {
                        if x.power_w() + y.power_w() <= slack_budget {
                            brute_slack = brute_slack.max(x.throughput_bps() + y.throughput_bps());
                        }
                    }
                }
                prop_assert!(
                    al.total_throughput_bps >= brute_slack - 1e-9,
                    "allocator {} vs brute {} (budget {})",
                    al.total_throughput_bps, brute, budget
                );
            }
            None => prop_assert!(
                brute.is_infinite() || fleet.min_power_w() > budget - 0.05,
                "allocator returned None but brute found {brute}"
            ),
        }
    }
}
