//! Closed-loop scenarios: a budget schedule driving live device control
//! while a workload runs — the whole paper, end to end, in one simulation.
//!
//! [`AdaptiveScenarioRouter`] plugs into [`powadapt_io::run_fleet`]: on
//! every control tick it reads the [`BudgetSchedule`], re-plans the fleet
//! with [`plan_budget`](crate::plan_budget) when the budget changes, issues
//! the device commands, and routes arrivals only to devices planned to
//! operate.

use powadapt_io::{Arrival, DeviceCommand, DeviceStatus, Route, Router};
use powadapt_model::PowerThroughputModel;
use powadapt_sim::SimTime;

use crate::budget::BudgetSchedule;
use crate::controller::{plan_budget, DeviceAction};

/// A router that follows a power-budget schedule.
///
/// Construction takes the per-device power-throughput models (label order
/// must match the fleet) and each device's standby power (`None` for
/// devices that cannot sleep). Budgets the planner cannot satisfy are
/// counted in [`AdaptiveScenarioRouter::infeasible_events`] and leave the
/// previous plan in force — mirroring the paper's §4.1 concern that a
/// failure to shed power must be observable.
#[derive(Debug)]
pub struct AdaptiveScenarioRouter {
    schedule: BudgetSchedule,
    models: Vec<PowerThroughputModel>,
    standby_w: Vec<Option<f64>>,
    applied_budget: Option<f64>,
    operate: Vec<bool>,
    cursor: usize,
    infeasible_events: u32,
    replans: u32,
}

impl AdaptiveScenarioRouter {
    /// Creates the router.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or lengths mismatch.
    pub fn new(
        schedule: BudgetSchedule,
        models: Vec<PowerThroughputModel>,
        standby_w: Vec<Option<f64>>,
    ) -> Self {
        assert!(!models.is_empty(), "need at least one device model");
        assert_eq!(models.len(), standby_w.len(), "one standby entry per model");
        let n = models.len();
        AdaptiveScenarioRouter {
            schedule,
            models,
            standby_w,
            applied_budget: None,
            operate: vec![true; n],
            cursor: 0,
            infeasible_events: 0,
            replans: 0,
        }
    }

    /// Budget events the planner could not satisfy.
    pub fn infeasible_events(&self) -> u32 {
        self.infeasible_events
    }

    /// Number of times the fleet was re-planned.
    pub fn replans(&self) -> u32 {
        self.replans
    }
}

impl Router for AdaptiveScenarioRouter {
    fn route(&mut self, _arrival: &Arrival, fleet: &[DeviceStatus]) -> Route {
        let n = fleet.len();
        // Least-loaded among devices planned to operate. If the plan parked
        // the whole fleet, serve from already-awake devices first (waking a
        // sleeper is the costliest option), pinning to one device so the
        // rest stay parked.
        let any_operating = self.operate.iter().take(n).any(|&o| o);
        if any_operating {
            let min = (0..n)
                .filter(|&i| self.operate[i])
                .map(|i| fleet[i].inflight)
                .min()
                // powadapt-lint: allow(D5, reason = "any_operating just confirmed the filtered iterator is non-empty")
                .expect("fleet non-empty");
            for off in 0..n {
                let i = (self.cursor + off) % n;
                if self.operate[i] && fleet[i].inflight == min {
                    self.cursor = (i + 1) % n;
                    return Route::Device(i);
                }
            }
        }
        Route::Device(
            fleet
                .iter()
                .position(|d| d.standby == powadapt_device::StandbyState::Active)
                .unwrap_or(0),
        )
    }

    fn control(&mut self, now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
        let budget = self.schedule.budget_at(now);
        if self.applied_budget == Some(budget) {
            return Vec::new();
        }
        let Some(actions) = plan_budget(&self.models, &self.standby_w, budget) else {
            self.infeasible_events += 1;
            self.applied_budget = Some(budget);
            return Vec::new();
        };
        self.applied_budget = Some(budget);
        self.replans += 1;

        let mut cmds = Vec::new();
        for (i, action) in actions.iter().enumerate().take(fleet.len()) {
            match action {
                DeviceAction::Operate(p) => {
                    self.operate[i] = true;
                    if fleet[i].standby != powadapt_device::StandbyState::Active {
                        cmds.push(DeviceCommand::Wake { device: i });
                    }
                    if fleet[i].power_state != p.power_state() {
                        cmds.push(DeviceCommand::SetPowerState {
                            device: i,
                            ps: p.power_state(),
                        });
                    }
                }
                DeviceAction::Standby { .. } => {
                    self.operate[i] = false;
                    if fleet[i].standby == powadapt_device::StandbyState::Active {
                        cmds.push(DeviceCommand::Standby { device: i });
                    }
                }
            }
        }
        cmds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::PowerEventCause;
    use powadapt_device::{catalog, PowerStateId, StorageDevice, GIB, KIB};
    use powadapt_io::{full_sweep_with, ParallelConfig, SweepScale};
    use powadapt_io::{
        run_fleet, AccessPattern, ArrivalGen, Arrivals, JobSpec, OpenLoopSpec, Workload,
    };
    use powadapt_sim::SimDuration;

    fn model_for(label: &str) -> PowerThroughputModel {
        let factory = || catalog::by_label(label, 61).expect("known label");
        let states: Vec<_> = factory().power_states().iter().map(|d| d.id).collect();
        let sweep = full_sweep_with(
            factory,
            &[Workload::RandWrite],
            &[256 * KIB],
            &[1, 64],
            &states,
            SweepScale {
                runtime: SimDuration::from_millis(300),
                size_limit: GIB,
                ramp: SimDuration::from_millis(80),
            },
            61,
            &ParallelConfig::per_core(),
        )
        .expect("sweep runs");
        PowerThroughputModel::from_sweep(&sweep)
            .into_iter()
            .next()
            .expect("single model")
    }

    #[test]
    fn scenario_tracks_a_budget_dip_with_measured_power() {
        // Fleet: two SSD2s. Budget: 32 W, dipping to 21 W at t=500 ms.
        let mut schedule = BudgetSchedule::new(32.0);
        schedule.push(
            SimTime::from_millis(500),
            21.0,
            PowerEventCause::DemandResponse,
        );
        let ssd2_model = model_for("SSD2");
        let mut router = AdaptiveScenarioRouter::new(
            schedule,
            vec![ssd2_model.clone(), ssd2_model],
            vec![None, None],
        );
        let mut devices: Vec<Box<dyn StorageDevice>> = vec![
            Box::new(catalog::ssd2_d7_p5510(71)),
            Box::new(catalog::ssd2_d7_p5510(72)),
        ];
        let spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 6_000.0 },
            block_size: 256 * KIB,
            read_fraction: 0.0,
            pattern: AccessPattern::Random,
            region: (0, 8 * GIB),
            duration: SimDuration::from_millis(1200),
            seed: 71,
            zipf_theta: None,
        };
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(50),
        )
        .expect("scenario runs");

        assert_eq!(router.infeasible_events(), 0);
        assert!(router.replans() >= 2, "initial plan + dip");

        // Before the dip the fleet may draw up to ~30 W; after it (with a
        // settling margin) the measured average must respect 21 W.
        let after = r
            .power
            .between(SimTime::from_millis(650), SimTime::from_millis(1200));
        assert!(!after.is_empty());
        assert!(
            after.mean() <= 21.0 * 1.05,
            "post-dip fleet power {:.1} W exceeds the 21 W budget",
            after.mean()
        );
        // Devices were down-shifted, not turned off: work still completes.
        assert!(r.total.ios() > 0);
        for d in &devices {
            assert_ne!(d.power_state(), PowerStateId(0));
        }
    }

    #[test]
    fn infeasible_budget_is_counted_not_fatal() {
        let mut schedule = BudgetSchedule::new(30.0);
        schedule.push(SimTime::from_millis(200), 2.0, PowerEventCause::RailFailure);
        let m = model_for("SSD2");
        let mut router = AdaptiveScenarioRouter::new(schedule, vec![m], vec![None]);
        let mut devices: Vec<Box<dyn StorageDevice>> = vec![Box::new(catalog::ssd2_d7_p5510(73))];
        let spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 500.0 },
            block_size: 64 * KIB,
            read_fraction: 1.0,
            pattern: AccessPattern::Random,
            region: (0, 4 * GIB),
            duration: SimDuration::from_millis(500),
            seed: 73,
            zipf_theta: None,
        };
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(50),
        )
        .expect("scenario survives");
        assert!(router.infeasible_events() >= 1);
        assert!(r.total.ios() > 0, "service continues on the old plan");
    }

    #[test]
    fn standby_capable_devices_park_under_deep_dips() {
        // Three EVOs; a deep dip leaves budget for only one to operate. A
        // trickle of reads keeps running throughout so the scenario spans
        // the dip; the router must route it to the one operating device and
        // park the others.
        let mut schedule = BudgetSchedule::new(10.0);
        schedule.push(
            SimTime::from_millis(300),
            1.2,
            PowerEventCause::Oversubscription,
        );
        let m = model_for("860EVO");
        let mut router = AdaptiveScenarioRouter::new(
            schedule,
            vec![m.clone(), m.clone(), m],
            vec![Some(0.17); 3],
        );
        let mut devices: Vec<Box<dyn StorageDevice>> = vec![
            Box::new(catalog::evo_860(81)),
            Box::new(catalog::evo_860(82)),
            Box::new(catalog::evo_860(83)),
        ];
        let spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 100.0 },
            block_size: 16 * KIB,
            read_fraction: 1.0,
            pattern: AccessPattern::Random,
            region: (0, GIB),
            duration: SimDuration::from_millis(1500),
            seed: 81,
            zipf_theta: None,
        };
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(50),
        )
        .expect("scenario runs");
        assert!(r.total.ios() > 0, "service continued through the dip");
        let sleeping = devices
            .iter()
            .filter(|d| d.standby_state() != powadapt_device::StandbyState::Active)
            .count();
        assert!(sleeping >= 1, "a 1.2 W budget forces standby");
        // Fleet power after the dip settles at the parked level.
        let tail = r
            .power
            .between(SimTime::from_millis(1200), SimTime::from_millis(1500));
        assert!(
            tail.mean() <= 1.2 * 1.2,
            "post-dip fleet power {:.2} W exceeds the 1.2 W budget",
            tail.mean()
        );
    }

    #[test]
    fn jobspec_reuse_for_scenarios_is_unaffected() {
        // Guard: the scenario machinery must not disturb the classic runner.
        let mut dev = catalog::ssd2_d7_p5510(91);
        let job = JobSpec::new(Workload::RandRead)
            .block_size(4 * KIB)
            .io_depth(4)
            .runtime(SimDuration::from_millis(50))
            .size_limit(GIB);
        let r = powadapt_io::run_experiment(&mut dev, &job).expect("runs");
        assert!(r.io.ios() > 0);
    }
}
