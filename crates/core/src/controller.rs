//! The adaptive control loop: given per-device power-throughput models and
//! a power budget, pick and apply a fleet configuration.
//!
//! The loop degrades gracefully when devices misbehave (the §4.1
//! transition-safety requirement): admin commands are retried under a
//! bounded [`RetryPolicy`], persistent refusers are quarantined for a few
//! control rounds, and the remaining budget is re-planned across the
//! compliant devices, so one broken drive cannot take the fleet out of
//! its power envelope. The controller alone commands its devices, keeps
//! which of them serve IO, and decides when to re-plan.

use std::error::Error;
use std::fmt;

use powadapt_device::{DeviceError, StandbyState, StorageDevice};
use powadapt_model::{ConfigPoint, FleetModel, PowerThroughputModel};
use powadapt_obs::{emit, EventKind, RecorderHandle};

use crate::health::{Degradation, DeviceHealth, RetryPolicy};

/// Action applied to one device by the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceAction {
    /// Operate in the given configuration (power state + advisory IO shape).
    Operate(ConfigPoint),
    /// Put the device into low-power standby.
    Standby {
        /// Expected standby power, in watts.
        power_w: f64,
    },
}

/// The plan the controller applied in response to a budget.
#[derive(Debug, Clone)]
pub struct AppliedPlan {
    /// `(device index, action)` per device that accepted an action, in
    /// controller order. Quarantined devices are absent here and listed in
    /// [`quarantined`](AppliedPlan::quarantined) instead.
    pub actions: Vec<(usize, DeviceAction)>,
    /// Expected total power, in watts. Includes the measured draw of
    /// quarantined devices, so compliance is judged fleet-wide.
    pub expected_power_w: f64,
    /// Expected total throughput, in bytes/second (compliant devices
    /// only).
    pub expected_throughput_bps: f64,
    /// Devices that refused their planned action this round (retries
    /// exhausted), with the evidence.
    pub degraded: Vec<Degradation>,
    /// Indices of every device currently out of service — quarantined
    /// this round or still cooling down from an earlier one.
    pub quarantined: Vec<usize>,
}

impl AppliedPlan {
    /// True when every device accepted its action.
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty() && self.quarantined.is_empty()
    }
}

impl fmt::Display for AppliedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {:.1} W expected, {:.0} MiB/s expected",
            self.expected_power_w,
            self.expected_throughput_bps / (1024.0 * 1024.0)
        )?;
        for (i, action) in &self.actions {
            match action {
                DeviceAction::Operate(p) => writeln!(f, "  device {i}: operate [{p}]")?,
                DeviceAction::Standby { power_w } => {
                    writeln!(f, "  device {i}: standby ({power_w:.2} W)")?;
                }
            }
        }
        for d in &self.degraded {
            writeln!(
                f,
                "  device {}: DEGRADED after {} attempt(s): {}",
                d.device, d.attempts, d.error
            )?;
        }
        for i in &self.quarantined {
            writeln!(f, "  device {i}: quarantined")?;
        }
        Ok(())
    }
}

/// Errors from the adaptive controller.
#[derive(Debug)]
#[non_exhaustive]
pub enum ControlError {
    /// Devices and models do not line up one-to-one by label.
    MismatchedModels,
    /// No fleet configuration fits the budget, even with standby.
    Infeasible {
        /// The budget that could not be met, in watts.
        budget_w: f64,
        /// The lowest achievable fleet power, in watts.
        floor_w: f64,
    },
    /// A device rejected a control operation.
    Device(DeviceError),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::MismatchedModels => {
                write!(f, "devices and models do not match one-to-one")
            }
            ControlError::Infeasible { budget_w, floor_w } => write!(
                f,
                "budget {budget_w:.1} W below the achievable floor {floor_w:.1} W"
            ),
            ControlError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl Error for ControlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControlError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for ControlError {
    fn from(e: DeviceError) -> Self {
        ControlError::Device(e)
    }
}

/// Sentinel coordinates marking a synthetic "standby" configuration point.
fn is_standby_point(p: &ConfigPoint) -> bool {
    p.chunk() == 0 && p.depth() == 0
}

/// Plans the throughput-maximizing per-device actions under `budget_w`.
///
/// `standby_w[i]` is device `i`'s standby power (from
/// [`StorageDevice::standby_power_w`]), or `None` when it cannot sleep.
/// Returns `None` when no assignment fits the budget.
///
/// # Panics
///
/// Panics if `models` and `standby_w` differ in length or `models` is
/// empty.
pub fn plan_budget(
    models: &[PowerThroughputModel],
    standby_w: &[Option<f64>],
    budget_w: f64,
) -> Option<Vec<DeviceAction>> {
    assert_eq!(models.len(), standby_w.len(), "one standby entry per model");
    let augmented: Vec<PowerThroughputModel> = models
        .iter()
        .zip(standby_w)
        .map(|(m, sb)| {
            let mut points = m.points().to_vec();
            if let Some(sw) = sb {
                points.push(ConfigPoint::new(
                    m.device(),
                    points[0].workload(),
                    points[0].power_state(),
                    0,
                    0,
                    *sw,
                    0.0,
                ));
            }
            PowerThroughputModel::from_points(m.device(), points)
        })
        .collect::<Option<Vec<_>>>()?;
    let allocation = FleetModel::new(augmented).allocate(budget_w, 0.05)?;
    Some(
        allocation
            .choices
            .into_iter()
            .map(|p| {
                if is_standby_point(&p) {
                    DeviceAction::Standby {
                        power_w: p.power_w(),
                    }
                } else {
                    DeviceAction::Operate(p)
                }
            })
            .collect(),
    )
}

/// The adaptive controller: owns a fleet of devices plus the
/// power-throughput model measured for each, and translates power budgets
/// into device actions.
///
/// # Examples
///
/// ```no_run
/// use powadapt_core::AdaptiveController;
/// # use powadapt_device::{catalog, StorageDevice};
/// # use powadapt_model::PowerThroughputModel;
/// # fn models() -> Vec<PowerThroughputModel> { unimplemented!() }
/// let devices: Vec<Box<dyn StorageDevice>> = vec![
///     Box::new(catalog::ssd2_d7_p5510(1)),
///     Box::new(catalog::hdd_exos_7e2000(2)),
/// ];
/// let mut ctl = AdaptiveController::new(devices, models()).unwrap();
/// let plan = ctl.apply_budget(18.0).unwrap();
/// println!("{plan}");
/// ```
#[derive(Debug)]
pub struct AdaptiveController {
    devices: Vec<Box<dyn StorageDevice>>,
    models: Vec<PowerThroughputModel>,
    retry: RetryPolicy,
    health: Vec<DeviceHealth>,
    /// Remaining cooldown rounds per device; non-zero = quarantined.
    quarantine: Vec<u32>,
    /// Devices pinned into standby by an external policy (the placement
    /// tier's spin-down consolidation): excluded from planning, always
    /// given a standby action, never woken by a budget.
    pinned: Vec<bool>,
    /// Devices that serve IO: `Operate` in the last applied plan, or
    /// given a configuration by [`apply_choices`](Self::apply_choices).
    serving: Vec<bool>,
    /// Budget of the last applied plan; `None` (a pin flipped, the feed
    /// moved, every device refused) makes the next [`replan`](Self::replan) plan.
    applied_w: Option<f64>,
    rec: RecorderHandle,
}

impl AdaptiveController {
    /// Creates a controller. `models[i]` must describe `devices[i]` (same
    /// label).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::MismatchedModels`] on a length or label
    /// mismatch.
    pub fn new(
        devices: Vec<Box<dyn StorageDevice>>,
        models: Vec<PowerThroughputModel>,
    ) -> Result<Self, ControlError> {
        if devices.len() != models.len()
            || devices
                .iter()
                .zip(&models)
                .any(|(d, m)| d.spec().label() != m.device())
        {
            return Err(ControlError::MismatchedModels);
        }
        let n = devices.len();
        Ok(AdaptiveController {
            devices,
            models,
            retry: RetryPolicy::default(),
            health: vec![DeviceHealth::default(); n],
            quarantine: vec![0; n],
            pinned: vec![false; n],
            serving: vec![false; n],
            applied_w: None,
            rec: powadapt_obs::current(),
        })
    }

    /// Replaces the retry policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Health record of device `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn health(&self, i: usize) -> &DeviceHealth {
        &self.health[i]
    }

    /// True while device `i` is quarantined (sitting out control rounds).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_quarantined(&self, i: usize) -> bool {
        self.quarantine[i] > 0
    }

    /// Pins device `i` into standby (or releases the pin). Pinned devices
    /// sit out budget planning: every round plans them as standby at
    /// their advertised standby draw, and no budget — however generous —
    /// wakes them. Pinning a device that cannot sleep
    /// ([`StorageDevice::standby_power_w`] is `None`) is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_pinned_standby(&mut self, i: usize, pinned: bool) {
        let pinned = pinned && self.devices[i].standby_power_w().is_some();
        if self.pinned[i] != pinned {
            self.pinned[i] = pinned;
            self.applied_w = None;
        }
    }

    /// True while device `i` is pinned into standby.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_pinned_standby(&self, i: usize) -> bool {
        self.pinned[i]
    }

    /// True while device `i` serves IO under the active configuration.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn serves(&self, i: usize) -> bool {
        self.serving[i]
    }

    /// The managed devices.
    pub fn devices(&self) -> &[Box<dyn StorageDevice>] {
        &self.devices
    }

    /// Mutable access to one device (e.g. to run IO against it).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn device_mut(&mut self, i: usize) -> &mut dyn StorageDevice {
        self.devices[i].as_mut()
    }

    /// Mutable access to every device, in device order.
    pub fn devices_mut(&mut self) -> impl Iterator<Item = &mut (dyn StorageDevice + 'static)> {
        self.devices.iter_mut().map(|d| &mut **d)
    }

    /// The power-throughput model of each device, in device order.
    pub fn models(&self) -> &[PowerThroughputModel] {
        &self.models
    }

    /// Consumes the controller, returning the devices.
    pub fn into_devices(self) -> Vec<Box<dyn StorageDevice>> {
        self.devices
    }

    /// Sum of the devices' instantaneous power draws.
    pub fn measured_power_w(&self) -> f64 {
        self.devices.iter().map(|d| d.power_w()).sum()
    }

    /// Lowest achievable fleet power: each device at its cheapest option
    /// (standby where supported, otherwise its minimum-power
    /// configuration).
    pub fn floor_w(&self) -> f64 {
        self.devices
            .iter()
            .zip(&self.models)
            .map(|(d, m)| match d.standby_power_w() {
                Some(s) => s.min(m.min_power_w()),
                None => m.min_power_w(),
            })
            .sum()
    }

    /// Re-plans under `budget_w` through [`apply_budget`](Self::apply_budget)
    /// (returning `true`, or its error) unless the last applied plan still
    /// holds: its budget is within 0.05 W, and since it no pin flipped, the
    /// feed neither tripped nor returned, no attempt was refused, and no
    /// quarantine is still cooling down (each re-plan ticks the cooldowns,
    /// so a refuser is probed again on time).
    pub fn replan(&mut self, budget_w: f64) -> Result<bool, ControlError> {
        let holds = matches!(self.applied_w, Some(prev) if (prev - budget_w).abs() <= 0.05);
        if holds && self.quarantine.iter().all(|&q| q == 0) {
            return Ok(false);
        }
        self.apply_budget(budget_w).map(|_| true)
    }

    /// The enclosure's feed tripped (`up` false) or returned. A trip stops
    /// every device serving; either way each device is asked into standby
    /// or awake, best effort (a device mid-transition finishes it first),
    /// and the next [`replan`](Self::replan) plans whatever the budget.
    pub fn set_feed(&mut self, up: bool) {
        if !up {
            self.serving.fill(false);
        }
        for d in &mut self.devices {
            let _ = if up {
                d.request_wake()
            } else {
                d.request_standby()
            };
        }
        self.applied_w = None;
    }

    /// Configures device `i` at `choices[i]`'s power state, or leaves it
    /// idle and serving nothing where that is `None` (one choice per
    /// device). Every device is configured; the first refusal is returned.
    pub fn apply_choices(&mut self, choices: &[Option<ConfigPoint>]) -> Result<(), DeviceError> {
        let mut result = Ok(());
        for (i, choice) in choices.iter().enumerate() {
            self.serving[i] = choice.is_some();
            if let Some(point) = choice {
                result = result.and(self.devices[i].set_power_state(point.power_state()));
            }
        }
        result
    }

    /// Applies `action` to device `i`, retrying transient rejections up to
    /// the policy's attempt bound. Returns the final error and the number
    /// of attempts made on failure.
    fn apply_action(&mut self, i: usize, action: &DeviceAction) -> Result<(), (DeviceError, u32)> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let device = self.devices[i].as_mut();
            let result = match action {
                DeviceAction::Standby { .. } => match device.standby_state() {
                    StandbyState::Standby | StandbyState::EnteringStandby => Ok(()),
                    _ => device.request_standby(),
                },
                DeviceAction::Operate(point) => {
                    let woken = if device.standby_state() != StandbyState::Active {
                        device.request_wake()
                    } else {
                        Ok(())
                    };
                    woken.and_then(|()| device.set_power_state(point.power_state()))
                }
            };
            match result {
                Ok(()) => {
                    self.health[i].record(true);
                    return Ok(());
                }
                Err(e) => {
                    self.health[i].record(false);
                    if !e.is_transient() || attempts >= self.retry.max_attempts {
                        return Err((e, attempts));
                    }
                }
            }
        }
    }

    /// Picks the throughput-maximizing fleet configuration under
    /// `budget_w` (allowing standby for devices that support it) and
    /// applies it: power states are set, and devices chosen for standby are
    /// requested to sleep.
    ///
    /// Devices that refuse their action — transient errors are retried
    /// under the controller's [`RetryPolicy`] first — are quarantined for
    /// `quarantine_cooldown` rounds and the budget is re-planned across
    /// the compliant remainder, with the refuser's *measured* power draw
    /// reserved out of the budget. The outcome is a degraded but compliant
    /// plan; its [`degraded`](AppliedPlan::degraded) and
    /// [`quarantined`](AppliedPlan::quarantined) fields carry the
    /// evidence. Quarantined devices are probed again once their cooldown
    /// expires.
    ///
    /// The returned plan carries the advisory IO shape per operating device;
    /// the workload layer is responsible for issuing IO in that shape.
    ///
    /// # Errors
    ///
    /// [`ControlError::Infeasible`] when the budget is below the floor of
    /// the devices still in service, or [`ControlError::Device`] when no
    /// device accepted an action (the last device error is returned).
    pub fn apply_budget(&mut self, budget_w: f64) -> Result<AppliedPlan, ControlError> {
        // Tick quarantine cooldowns: a device whose cooldown expires this
        // round re-enters planning as a probe.
        for q in &mut self.quarantine {
            *q = q.saturating_sub(1);
        }
        let mut excluded: Vec<bool> = (0..self.devices.len())
            .map(|i| self.quarantine[i] > 0 || self.pinned[i])
            .collect();
        let mut degraded: Vec<Degradation> = Vec::new();
        let mut last_err: Option<DeviceError> = None;

        // Pinned devices are planned unconditionally: standby at their
        // advertised draw, outside the knapsack, regardless of budget.
        let mut pinned_actions: Vec<(usize, DeviceAction)> = Vec::new();
        for i in 0..self.devices.len() {
            if !self.pinned[i] {
                continue;
            }
            let power_w = self.devices[i]
                .standby_power_w()
                .unwrap_or_else(|| self.devices[i].power_w());
            let action = DeviceAction::Standby { power_w };
            if let Err((e, attempts)) = self.apply_action(i, &action) {
                degraded.push(Degradation {
                    device: i,
                    planned: action.clone(),
                    error: e,
                    attempts,
                });
            }
            pinned_actions.push((i, action));
        }

        loop {
            let included: Vec<usize> = (0..self.devices.len()).filter(|&i| !excluded[i]).collect();
            if included.is_empty() && pinned_actions.is_empty() {
                return Err(match last_err {
                    Some(e) => {
                        self.applied_w = None;
                        ControlError::Device(e)
                    }
                    None => ControlError::Infeasible {
                        budget_w,
                        floor_w: self.floor_w(),
                    },
                });
            }

            // Quarantined devices still draw their measured power and
            // pinned devices their standby draw; reserve both so the
            // compliant remainder plans inside what is left.
            let reserved_w: f64 = (0..self.devices.len())
                .filter(|&i| excluded[i])
                .map(|i| {
                    if self.pinned[i] {
                        self.devices[i]
                            .standby_power_w()
                            .unwrap_or_else(|| self.devices[i].power_w())
                    } else {
                        self.devices[i].power_w()
                    }
                })
                .sum();
            let planned = if included.is_empty() {
                Vec::new()
            } else {
                let models: Vec<PowerThroughputModel> =
                    included.iter().map(|&i| self.models[i].clone()).collect();
                let standby_w: Vec<Option<f64>> = included
                    .iter()
                    .map(|&i| self.devices[i].standby_power_w())
                    .collect();
                plan_budget(&models, &standby_w, budget_w - reserved_w).ok_or(
                    ControlError::Infeasible {
                        budget_w,
                        floor_w: self.floor_w(),
                    },
                )?
            };

            let mut refused: Option<(usize, DeviceError, u32, DeviceAction)> = None;
            for (&i, action) in included.iter().zip(&planned) {
                if let Err((e, attempts)) = self.apply_action(i, action) {
                    refused = Some((i, e, attempts, action.clone()));
                    break;
                }
            }

            match refused {
                Some((i, e, attempts, action)) => {
                    degraded.push(Degradation {
                        device: i,
                        planned: action,
                        error: e.clone(),
                        attempts,
                    });
                    excluded[i] = true;
                    self.quarantine[i] = self.retry.quarantine_cooldown.max(1);
                    last_err = Some(e);
                    // Re-plan the remaining budget across compliant devices.
                }
                None => {
                    // The pinned standby draw is already inside reserved_w;
                    // their actions join the plan without re-counting it.
                    let mut actions: Vec<(usize, DeviceAction)> =
                        Vec::with_capacity(included.len() + pinned_actions.len());
                    let mut expected_power_w = reserved_w;
                    let mut expected_throughput_bps = 0.0;
                    self.serving.fill(false);
                    for (&i, action) in included.iter().zip(&planned) {
                        match action {
                            DeviceAction::Standby { power_w } => expected_power_w += power_w,
                            DeviceAction::Operate(point) => {
                                self.serving[i] = true;
                                expected_power_w += point.power_w();
                                expected_throughput_bps += point.throughput_bps();
                            }
                        }
                        actions.push((i, action.clone()));
                    }
                    actions.extend(pinned_actions);
                    actions.sort_by_key(|&(i, _)| i);
                    let quarantined: Vec<usize> = (0..self.devices.len())
                        .filter(|&i| excluded[i] && !self.pinned[i])
                        .collect();
                    let label = |i: usize| self.devices[i].spec().label().to_string();
                    emit!(
                        self.rec,
                        self.devices[0].now(),
                        "controller",
                        EventKind::ControllerDecision(Box::new(powadapt_obs::ControllerDecision {
                            budget_w,
                            measured_w: self.measured_power_w(),
                            expected_power_w,
                            expected_throughput_bps,
                            quarantined: quarantined.iter().map(|&i| label(i)).collect(),
                            degraded: degraded.iter().map(|d| label(d.device)).collect(),
                        }))
                    );
                    self.applied_w = Some(budget_w);
                    return Ok(AppliedPlan {
                        actions,
                        expected_power_w,
                        expected_throughput_bps,
                        degraded,
                        quarantined,
                    });
                }
            }
        }
    }
}

// Every device's state, health EWMAs, quarantine cooldowns, standby pins,
// serving set and applied budget; models and retry policy are configuration.
powadapt_snap::snapshot! {
    AdaptiveController {
        devices: seq_state, health: each, quarantine: each, pinned: each, serving: each, applied_w,
    }
    skip {
        models: "spec config: the power/throughput model tables",
        retry: "spec config: the retry policy",
        rec: "telemetry sink, re-captured at construction",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::{catalog, FaultInjector, FaultPlan, PowerStateId, KIB};
    use powadapt_io::Workload;
    use powadapt_sim::SimTime;

    fn mk(device: &str, ps: u8, power: f64, thr: f64) -> ConfigPoint {
        ConfigPoint::new(
            device,
            Workload::RandWrite,
            PowerStateId(ps),
            256 * KIB,
            64,
            power,
            thr,
        )
    }

    fn ssd2_model() -> PowerThroughputModel {
        PowerThroughputModel::from_points(
            "SSD2",
            vec![
                mk("SSD2", 0, 15.0, 3.3e9),
                mk("SSD2", 1, 11.7, 2.3e9),
                mk("SSD2", 2, 9.7, 1.6e9),
            ],
        )
        .unwrap()
    }

    fn hdd_model() -> PowerThroughputModel {
        PowerThroughputModel::from_points("HDD", vec![mk("HDD", 0, 4.5, 130e6)]).unwrap()
    }

    fn controller() -> AdaptiveController {
        AdaptiveController::new(
            vec![
                Box::new(catalog::ssd2_d7_p5510(1)),
                Box::new(catalog::hdd_exos_7e2000(2)),
            ],
            vec![ssd2_model(), hdd_model()],
        )
        .unwrap()
    }

    #[test]
    fn mismatched_models_rejected() {
        let err =
            AdaptiveController::new(vec![Box::new(catalog::ssd2_d7_p5510(1))], vec![hdd_model()]);
        assert!(matches!(err, Err(ControlError::MismatchedModels)));
    }

    #[test]
    fn generous_budget_runs_everything_at_peak() {
        let mut ctl = controller();
        let plan = ctl.apply_budget(30.0).unwrap();
        assert_eq!(plan.actions.len(), 2);
        assert!(
            matches!(plan.actions[0].1, DeviceAction::Operate(ref p) if p.power_state() == PowerStateId(0))
        );
        assert!(plan.expected_throughput_bps > 3.0e9);
    }

    #[test]
    fn tight_budget_downshifts_power_state() {
        let mut ctl = controller();
        // 15 W: HDD can't sleep below 1.1 + SSD2 at 9.7 = 14.2, or HDD
        // standby (1.1) + SSD2 at 12-ish. Either way the SSD leaves ps0.
        let plan = ctl.apply_budget(15.0).unwrap();
        assert!(plan.expected_power_w <= 15.0);
        let ssd_action = &plan.actions[0].1;
        match ssd_action {
            DeviceAction::Operate(p) => assert_ne!(p.power_state(), PowerStateId(0)),
            DeviceAction::Standby { .. } => {}
        }
    }

    #[test]
    fn very_tight_budget_uses_standby() {
        let mut ctl = controller();
        // 11 W: best is SSD2 at ps2 (9.7) + HDD standby (1.1).
        let plan = ctl.apply_budget(11.0).unwrap();
        assert!(plan.expected_power_w <= 11.0);
        let hdd_action = &plan.actions[1].1;
        assert!(
            matches!(hdd_action, DeviceAction::Standby { .. }),
            "expected HDD standby, got {hdd_action:?}"
        );
        // The HDD device was actually asked to sleep.
        assert_ne!(ctl.devices()[1].standby_state(), StandbyState::Active);
    }

    #[test]
    fn infeasible_budget_reports_floor() {
        let mut ctl = controller();
        let err = ctl.apply_budget(3.0);
        match err {
            Err(ControlError::Infeasible { floor_w, .. }) => {
                // Floor: SSD2 min 9.7 (no standby) + HDD standby 1.1.
                assert!((floor_w - 10.8).abs() < 0.2, "floor {floor_w}");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn budget_recovery_wakes_devices() {
        let mut ctl = controller();
        ctl.apply_budget(11.0).unwrap();
        assert_ne!(ctl.devices()[1].standby_state(), StandbyState::Active);
        let plan = ctl.apply_budget(30.0).unwrap();
        assert!(matches!(plan.actions[1].1, DeviceAction::Operate(_)));
        // Drive the HDD through its pending transitions: it finishes the
        // spin-down it had started, then honors the wake and spins back up.
        let hdd = ctl.device_mut(1);
        while let Some(t) = hdd.next_event() {
            hdd.advance_to(t);
        }
        assert_eq!(ctl.devices()[1].standby_state(), StandbyState::Active);
    }

    #[test]
    fn pinned_device_stays_in_standby_under_generous_budget() {
        let mut ctl = controller();
        ctl.set_pinned_standby(1, true);
        assert!(ctl.is_pinned_standby(1));
        let plan = ctl.apply_budget(30.0).unwrap();
        assert_eq!(plan.actions.len(), 2);
        assert!(
            matches!(plan.actions[1].1, DeviceAction::Standby { .. }),
            "pinned HDD must be planned standby, got {:?}",
            plan.actions[1].1
        );
        // Not quarantined: the pin is policy, not a fault.
        assert!(plan.quarantined.is_empty());
        assert_ne!(ctl.devices()[1].standby_state(), StandbyState::Active);
        // Expected power counts the HDD at its standby draw.
        assert!(
            plan.expected_power_w <= 15.0 + 1.2,
            "{}",
            plan.expected_power_w
        );
    }

    #[test]
    fn unpinning_lets_the_budget_wake_the_device() {
        let mut ctl = controller();
        ctl.set_pinned_standby(1, true);
        ctl.apply_budget(30.0).unwrap();
        ctl.set_pinned_standby(1, false);
        let plan = ctl.apply_budget(30.0).unwrap();
        assert!(matches!(plan.actions[1].1, DeviceAction::Operate(_)));
        let hdd = ctl.device_mut(1);
        while let Some(t) = hdd.next_event() {
            hdd.advance_to(t);
        }
        assert_eq!(ctl.devices()[1].standby_state(), StandbyState::Active);
    }

    #[test]
    fn pinning_a_sleepless_device_is_ignored() {
        let mut ctl = controller();
        // SSD2 advertises no standby support.
        ctl.set_pinned_standby(0, true);
        assert!(!ctl.is_pinned_standby(0));
        let plan = ctl.apply_budget(30.0).unwrap();
        assert!(matches!(plan.actions[0].1, DeviceAction::Operate(_)));
    }

    #[test]
    fn pins_survive_a_snapshot_roundtrip() {
        use powadapt_snap::{Restore, Snapshot};
        let mut ctl = controller();
        ctl.set_pinned_standby(1, true);
        ctl.apply_budget(30.0).unwrap();
        let mut w = powadapt_snap::SnapWriter::new();
        ctl.write_state(&mut w).unwrap();
        let payload = w.into_payload();
        let mut fresh = controller();
        let mut r = powadapt_snap::SnapReader::new(&payload);
        fresh.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert!(fresh.is_pinned_standby(1));
        assert!(!fresh.is_pinned_standby(0));
    }

    #[test]
    fn plan_names_the_healthy_twin_by_index_when_the_first_is_quarantined() {
        let refusing = FaultInjector::seeded(
            Box::new(catalog::ssd2_d7_p5510(1)),
            FaultPlan::none().admin_failures(1.0),
            7,
        );
        let mut ctl = AdaptiveController::new(
            vec![Box::new(refusing), Box::new(catalog::ssd2_d7_p5510(2))],
            vec![ssd2_model(), ssd2_model()],
        )
        .unwrap();
        let plan = ctl.apply_budget(40.0).unwrap();
        assert_eq!(plan.quarantined, vec![0]);
        assert_eq!(plan.degraded.len(), 1);
        assert_eq!(plan.degraded[0].device, 0);
        assert_eq!(plan.actions.len(), 1);
        assert_eq!(plan.actions[0].0, 1);
        assert!(matches!(plan.actions[0].1, DeviceAction::Operate(_)));
    }

    fn two_hdds() -> AdaptiveController {
        AdaptiveController::new(
            vec![
                Box::new(catalog::hdd_exos_7e2000(1)),
                Box::new(catalog::hdd_exos_7e2000(2)),
            ],
            vec![hdd_model(), hdd_model()],
        )
        .unwrap()
    }

    /// One SSD2 per fault plan, each behind its own fault injector.
    fn faulty_ssd2s(plans: Vec<FaultPlan>) -> AdaptiveController {
        let models = vec![ssd2_model(); plans.len()];
        let devices: Vec<Box<dyn StorageDevice>> = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let dev = Box::new(catalog::ssd2_d7_p5510(i as u64 + 1));
                Box::new(FaultInjector::seeded(dev, plan, 7)) as Box<dyn StorageDevice>
            })
            .collect();
        AdaptiveController::new(devices, models).unwrap()
    }

    fn advance_all(ctl: &mut AdaptiveController, t: SimTime) {
        for d in ctl.devices_mut() {
            d.advance_to(t);
        }
    }

    #[test]
    fn an_unchanged_grant_does_not_replan() {
        let mut ctl = controller();
        assert!(ctl.replan(30.0).unwrap());
        assert!(!ctl.replan(30.0).unwrap());
        assert!(!ctl.replan(30.04).unwrap());
        assert!(ctl.serves(0) && ctl.serves(1));
    }

    #[test]
    fn a_grant_that_moves_more_than_the_hysteresis_replans() {
        let mut ctl = controller();
        assert!(ctl.replan(30.0).unwrap());
        assert!(ctl.replan(30.1).unwrap());
        assert!(ctl.replan(30.0).unwrap());
    }

    #[test]
    fn a_flipped_pin_forces_a_replan_at_an_unchanged_grant() {
        let mut ctl = controller();
        ctl.replan(30.0).unwrap();
        ctl.set_pinned_standby(1, true);
        assert!(ctl.replan(30.0).unwrap());
        assert!(ctl.serves(0) && !ctl.serves(1));
        // Pinning it again flips nothing.
        ctl.set_pinned_standby(1, true);
        assert!(!ctl.replan(30.0).unwrap());
        ctl.set_pinned_standby(1, false);
        assert!(ctl.replan(30.0).unwrap());
        assert!(ctl.serves(1));
    }

    #[test]
    fn a_feed_trip_then_restore_forces_a_replan_at_an_unchanged_grant() {
        let mut ctl = two_hdds();
        ctl.replan(20.0).unwrap();
        ctl.set_feed(false);
        ctl.set_feed(true);
        assert!(ctl.replan(20.0).unwrap());
        assert!(ctl.serves(0) && ctl.serves(1));
        assert!(!ctl.replan(20.0).unwrap());
    }

    #[test]
    fn a_transient_refusal_forces_a_replan_at_an_unchanged_grant() {
        // Device 0 refuses admin commands for its first 5 ms, device 1
        // drops out from 10 to 20 ms (every command refused, transiently).
        let outage = FaultPlan::none().admin_outage(SimTime::ZERO, SimTime::from_millis(5));
        let dropout = FaultPlan::none().dropout(SimTime::from_millis(10), SimTime::from_millis(20));
        let mut ctl = faulty_ssd2s(vec![outage, dropout]);
        assert!(ctl.replan(40.0).unwrap());
        // Device 0's cooldown re-plans the same grant; device 1 is the
        // only one left in service, and it refuses.
        advance_all(&mut ctl, SimTime::from_millis(12));
        match ctl.replan(40.0) {
            Err(ControlError::Device(e)) => assert!(e.is_transient(), "{e}"),
            other => panic!("expected a transient refusal, got {other:?}"),
        }
        // Clear the cooldowns so the refusal alone must force the re-plan.
        ctl.quarantine.fill(0);
        advance_all(&mut ctl, SimTime::from_millis(25));
        assert!(ctl.replan(40.0).unwrap());
        assert!(ctl.serves(0) && ctl.serves(1));
    }

    #[test]
    fn a_quarantine_cooling_down_forces_replans_until_the_probe() {
        let outage = FaultPlan::none().admin_outage(SimTime::ZERO, SimTime::from_millis(5));
        let mut ctl = faulty_ssd2s(vec![outage, FaultPlan::none()]);
        assert!(ctl.replan(40.0).unwrap());
        assert!(ctl.is_quarantined(0) && !ctl.serves(0) && ctl.serves(1));
        advance_all(&mut ctl, SimTime::from_millis(10));
        // The grant never moves: the cooldown alone re-plans, and its end
        // probes device 0, which now complies.
        assert!(ctl.replan(40.0).unwrap());
        assert!(ctl.is_quarantined(0));
        assert!(ctl.replan(40.0).unwrap());
        assert!(!ctl.is_quarantined(0) && ctl.serves(0));
        assert!(!ctl.replan(40.0).unwrap());
    }

    #[test]
    fn a_tripped_enclosure_serves_nothing_and_asks_every_device_to_sleep() {
        let mut ctl = two_hdds();
        ctl.replan(20.0).unwrap();
        assert!(ctl.serves(0) && ctl.serves(1));
        ctl.set_feed(false);
        for i in 0..2 {
            assert!(!ctl.serves(i));
            assert_ne!(ctl.devices()[i].standby_state(), StandbyState::Active);
        }
    }

    #[test]
    fn measured_power_sums_devices() {
        let ctl = controller();
        // Both devices idle: 5.0 + 3.76.
        assert!((ctl.measured_power_w() - 8.76).abs() < 0.01);
    }

    #[test]
    fn plan_display_lists_devices() {
        let mut ctl = controller();
        let s = ctl.apply_budget(30.0).unwrap().to_string();
        assert!(s.contains("SSD2") && s.contains("HDD"));
    }
}
