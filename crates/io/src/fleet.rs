//! Multi-device fleet simulation with pluggable request routing.
//!
//! The paper's §4 policies (power-aware IO redirection, asymmetric IO) act
//! *across* devices. [`run_fleet`] drives an open-loop arrival stream
//! against a set of simulated devices in one lockstep event loop: a
//! [`Router`] picks the device for every request and may issue device
//! control commands (power states, standby) on a periodic control tick,
//! while the fleet's summed power is metered at 1 kHz. This turns the §4
//! policy discussion into something that can be *measured*.

use std::fmt;

use powadapt_device::{
    DeviceError, IoCompletion, IoId, IoKind, IoRequest, PowerStateId, StandbyState, StorageDevice,
};
use powadapt_meter::{PowerRig, PowerTrace};
use powadapt_obs::{emit, EventKind};
use powadapt_sim::{SimDuration, SimRng, SimTime};

use crate::openloop::Arrival;
use crate::runner::ExperimentError;
use crate::stats::IoStats;

/// A router's view of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStatus {
    /// Paper label of the device.
    pub label: String,
    /// Requests submitted but not yet completed.
    pub inflight: usize,
    /// Standby status.
    pub standby: StandbyState,
    /// Selected power state.
    pub power_state: PowerStateId,
    /// Whether the device supports standby at all.
    pub supports_standby: bool,
}

/// A control action a router may issue on its control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceCommand {
    /// Select a power state on device `device`.
    SetPowerState {
        /// Device index.
        device: usize,
        /// Target state.
        ps: PowerStateId,
    },
    /// Request standby on device `device`.
    Standby {
        /// Device index.
        device: usize,
    },
    /// Request wake on device `device`.
    Wake {
        /// Device index.
        device: usize,
    },
}

/// Where an arrival goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Submit to the device at this index.
    Device(usize),
    /// Serve without touching any device (e.g. a power-aware cache hit —
    /// the point of EXCES-style caching is that the backing device stays in
    /// standby). The request completes after `latency`.
    Absorbed {
        /// Service latency of the absorbing layer.
        latency: SimDuration,
    },
}

impl From<usize> for Route {
    fn from(i: usize) -> Route {
        Route::Device(i)
    }
}

/// Routes arrivals to devices and optionally controls device power.
///
/// Implementations live with the policies (see `powadapt-core`); the io
/// crate ships [`LeastLoadedRouter`] as the policy-free baseline.
pub trait Router: fmt::Debug {
    /// Chooses where an arrival goes.
    ///
    /// A returned [`Route::Device`] index must be within `fleet.len()`.
    fn route(&mut self, arrival: &Arrival, fleet: &[DeviceStatus]) -> Route;

    /// Called every control interval; returned commands are applied to the
    /// devices in order. The default does nothing.
    fn control(&mut self, now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
        let _ = (now, fleet);
        Vec::new()
    }

    /// Called when device `device` rejects a submit or a control command
    /// with a transient error ([`DeviceError::is_transient`]). Routers that
    /// track device health (see
    /// [`CircuitBreakerRouter`](crate::CircuitBreakerRouter)) use this to
    /// steer load away from a failing device. The default does nothing.
    fn on_device_error(&mut self, device: usize, error: &DeviceError, now: SimTime) {
        let _ = (device, error, now);
    }

    /// Called for every IO completion device `device` delivers, as evidence
    /// that the device is serving again. The default does nothing.
    fn on_io_complete(&mut self, device: usize, completion: &IoCompletion) {
        let _ = (device, completion);
    }
}

/// The baseline router: sends each request to the least-loaded device,
/// rotating through ties so idle fleets are still balanced. Applies no
/// power control.
#[derive(Debug, Default, Clone)]
pub struct LeastLoadedRouter {
    next: usize,
}

impl Router for LeastLoadedRouter {
    fn route(&mut self, _arrival: &Arrival, fleet: &[DeviceStatus]) -> Route {
        let n = fleet.len();
        #[expect(
            clippy::expect_used,
            reason = "routers are only invoked with a non-empty fleet"
        )]
        let min = fleet
            .iter()
            .map(|d| d.inflight)
            .min()
            .expect("fleet is non-empty");
        // First device at the minimum, scanning from the rotation cursor.
        let mut pick = self.next % n;
        for off in 0..n {
            let i = (self.next + off) % n;
            if fleet[i].inflight == min {
                pick = i;
                break;
            }
        }
        self.next = (pick + 1) % n;
        Route::Device(pick)
    }
}

/// Per-device outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// Paper label.
    pub label: String,
    /// IO statistics for requests served by this device.
    pub io: IoStats,
    /// Requests routed to this device.
    pub routed: u64,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-device outcomes, in device order.
    pub per_device: Vec<DeviceOutcome>,
    /// Aggregate IO statistics across the fleet.
    pub total: IoStats,
    /// Aggregate statistics of read completions only.
    pub reads: IoStats,
    /// Aggregate statistics of write completions only.
    pub writes: IoStats,
    /// Statistics of requests absorbed by the routing layer (e.g. cache
    /// hits) without touching a device. Not included in `total`.
    pub absorbed: IoStats,
    /// Summed fleet power sampled at 1 kHz.
    pub power: PowerTrace,
    /// Total energy over the run, in joules.
    pub energy_j: f64,
    /// Transient submit rejections observed (each arrival may count more
    /// than once if several devices refused it before one accepted).
    pub io_errors: u64,
    /// Arrivals dropped because every device transiently refused them.
    pub dropped: u64,
    /// Router control commands rejected with a transient error.
    pub command_errors: u64,
}

impl FleetResult {
    /// Mean fleet power over the run, in watts.
    pub fn avg_power_w(&self) -> f64 {
        if self.power.is_empty() {
            0.0
        } else {
            self.power.mean()
        }
    }
}

impl fmt::Display for FleetResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} served at {:.1} MiB/s, {:.2} W avg, {:.1} J",
            self.total.ios(),
            self.total.throughput_mibs(),
            self.avg_power_w(),
            self.energy_j
        )?;
        for d in &self.per_device {
            writeln!(f, "  {}: {} routed, {}", d.label, d.routed, d.io)?;
        }
        if self.io_errors + self.dropped + self.command_errors > 0 {
            writeln!(
                f,
                "  faults: {} io errors, {} dropped, {} command errors",
                self.io_errors, self.dropped, self.command_errors
            )?;
        }
        Ok(())
    }
}

/// Advances every device to `t`, appending completions into the
/// per-device reuse buffers and notifying the router of each. This is the
/// innermost per-step loop of every fleet run, so it must stay
/// allocation-free: completions land in buffers owned by the caller and
/// reused across steps.
// powadapt-lint: hot
fn drain_fleet_completions(
    devices: &mut [Box<dyn StorageDevice>],
    completions: &mut [Vec<IoCompletion>],
    router: &mut dyn Router,
    t: SimTime,
) {
    for (i, d) in devices.iter_mut().enumerate() {
        let before = completions[i].len();
        d.advance_to_into(t, &mut completions[i]);
        for c in &completions[i][before..] {
            router.on_io_complete(i, c);
        }
    }
}

fn statuses(devices: &[Box<dyn StorageDevice>]) -> Vec<DeviceStatus> {
    devices
        .iter()
        .map(|d| DeviceStatus {
            label: d.spec().label().to_string(),
            inflight: d.inflight(),
            standby: d.standby_state(),
            power_state: d.power_state(),
            supports_standby: d.standby_power_w().is_some(),
        })
        .collect()
}

fn apply_command(
    devices: &mut [Box<dyn StorageDevice>],
    cmd: DeviceCommand,
) -> Result<(), DeviceError> {
    match cmd {
        DeviceCommand::SetPowerState { device, ps } => devices[device].set_power_state(ps),
        DeviceCommand::Standby { device } => match devices[device].standby_state() {
            StandbyState::Standby | StandbyState::EnteringStandby => Ok(()),
            StandbyState::ExitingStandby => Ok(()), // wake in progress wins
            StandbyState::Active => devices[device].request_standby(),
        },
        DeviceCommand::Wake { device } => devices[device].request_wake(),
    }
}

fn command_target(cmd: &DeviceCommand) -> usize {
    match *cmd {
        DeviceCommand::SetPowerState { device, .. }
        | DeviceCommand::Standby { device }
        | DeviceCommand::Wake { device } => device,
    }
}

/// Runs an arrival stream against a fleet: a synthetic
/// [`ArrivalGen`](crate::ArrivalGen) or a recorded
/// [`ArrivalTrace`](crate::ArrivalTrace) (`trace.arrivals().iter().copied()`).
///
/// All devices advance in lockstep so the 1 kHz fleet-power samples are
/// coherent sums, measured by a rig seeded from `meter_seed`. The run
/// ends when the stream is exhausted and every device has drained.
///
/// Transient device errors ([`DeviceError::is_transient`]) do not abort
/// the run: a refused submit is reported to the router
/// ([`Router::on_device_error`]) and re-routed to another device, counting
/// the arrival as dropped only when every device has refused it; a refused
/// control command is reported and skipped. The [`FleetResult`] records
/// these under `io_errors`, `dropped` and `command_errors`.
///
/// # Errors
///
/// Returns [`ExperimentError::Device`] if a submit or a router command is
/// rejected with a non-transient (wiring) error.
///
/// # Panics
///
/// Panics if `devices` is empty or the router returns an out-of-range
/// index.
pub fn run_fleet<I>(
    devices: &mut [Box<dyn StorageDevice>],
    router: &mut dyn Router,
    arrivals: I,
    meter_seed: u64,
    control_interval: SimDuration,
) -> Result<FleetResult, ExperimentError>
where
    I: IntoIterator<Item = Arrival>,
{
    assert!(!devices.is_empty(), "fleet must be non-empty");
    assert!(
        !control_interval.is_zero(),
        "control interval must be non-zero"
    );
    let mut gen = arrivals.into_iter();

    // Shared meter on the summed rail. SATA/NVMe mixes are summed at the
    // logical level; per-rail metering belongs to single-device runs.
    let mut rig_rng = SimRng::seed_from(meter_seed ^ 0xf1ee7);
    let mut rig = PowerRig::paper_rig(12.0, &mut rig_rng);

    // Re-capture the telemetry recorder at run start and put every device
    // on a positional track: paper labels may repeat across a fleet
    // (e.g. three SSD3s), track indices never do.
    let rec = powadapt_obs::current();
    for (i, d) in devices.iter_mut().enumerate() {
        d.set_recorder(rec.clone(), powadapt_obs::intern(&format!("device{i}")));
    }
    rig.set_recorder(rec.clone(), "fleet");

    let start = devices[0].now();
    for d in devices.iter() {
        assert_eq!(d.now(), start, "devices must start at a common time");
    }
    rig.restart_at(start);

    let mut next_control = start + control_interval;
    let mut pending_arrival = gen.next();
    let mut next_id = 0u64;
    let mut routed: Vec<u64> = vec![0; devices.len()];
    let mut completions: Vec<Vec<IoCompletion>> = vec![Vec::new(); devices.len()];
    let mut absorbed: Vec<IoCompletion> = Vec::new();
    // Reused across arrivals; re-routing marks the devices already tried.
    let mut tried = vec![false; devices.len()];
    let mut io_errors = 0u64;
    let mut dropped = 0u64;
    let mut command_errors = 0u64;

    loop {
        // Next event across all sources.
        let mut t = rig.next_sample().min(next_control);
        if let Some(a) = &pending_arrival {
            t = t.min(start.max(a.at));
        }
        let mut device_pending = false;
        for d in devices.iter_mut() {
            if let Some(dt) = d.next_event() {
                device_pending = true;
                t = t.min(dt);
            }
        }
        if pending_arrival.is_none() && !device_pending {
            break;
        }

        // Advance the whole fleet to t. Completions append straight into
        // the per-device buffers; no per-step vector allocation.
        drain_fleet_completions(devices, &mut completions, router, t);

        // Admit any arrivals due at or before t.
        while let Some(a) = pending_arrival {
            if start.max(a.at) > t {
                break;
            }
            // Transiently-refused submits are re-routed; each device gets
            // at most one try per arrival, so a fully-faulted fleet drops
            // the arrival instead of wedging the loop.
            tried.fill(false);
            let mut route = router.route(&a, &statuses(devices));
            loop {
                match route {
                    Route::Device(target) => {
                        assert!(target < devices.len(), "router returned index {target}");
                        let dev = &mut devices[target];
                        let cap = dev.spec().capacity();
                        let offset = a.offset.min(cap - a.len);
                        match dev.submit(IoRequest::new(IoId(next_id), a.kind, offset, a.len)) {
                            Ok(()) => {
                                routed[target] += 1;
                                break;
                            }
                            Err(e) if e.is_transient() => {
                                io_errors += 1;
                                emit!(
                                    rec,
                                    t,
                                    powadapt_obs::intern(&format!("device{target}")),
                                    EventKind::IoError {
                                        id: next_id,
                                        error: e.to_string(),
                                    }
                                );
                                router.on_device_error(target, &e, t);
                                tried[target] = true;
                                // Ask the router again; if it insists on a
                                // device we already tried, fall back to the
                                // first untried one, or give up.
                                route = match router.route(&a, &statuses(devices)) {
                                    Route::Device(d) if tried[d] => {
                                        match tried.iter().position(|&x| !x) {
                                            Some(d2) => Route::Device(d2),
                                            None => {
                                                dropped += 1;
                                                emit!(
                                                    rec,
                                                    t,
                                                    "fleet",
                                                    EventKind::ArrivalDropped { id: next_id }
                                                );
                                                break;
                                            }
                                        }
                                    }
                                    other => other,
                                };
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                    Route::Absorbed { latency } => {
                        let at = start.max(a.at);
                        absorbed.push(IoCompletion {
                            id: IoId(next_id),
                            kind: a.kind,
                            len: a.len,
                            submitted: at,
                            completed: at + latency,
                        });
                        break;
                    }
                }
            }
            next_id += 1;
            pending_arrival = gen.next();
        }

        // Control tick.
        if t >= next_control {
            let statuses = statuses(devices);
            for cmd in router.control(t, &statuses) {
                if let Err(e) = apply_command(devices, cmd) {
                    if e.is_transient() {
                        command_errors += 1;
                        router.on_device_error(command_target(&cmd), &e, t);
                    } else {
                        return Err(e.into());
                    }
                }
            }
            next_control = t + control_interval;
        }

        // Meter tick.
        if t == rig.next_sample() {
            let total: f64 = devices.iter().map(|d| d.power_w()).sum();
            rig.sample(t, total);
        }
    }

    let end = devices[0].now();
    let per_device: Vec<DeviceOutcome> = devices
        .iter()
        .zip(&completions)
        .zip(&routed)
        .map(|((d, cs), &n)| {
            Ok(DeviceOutcome {
                label: d.spec().label().to_string(),
                io: IoStats::from_completions(cs, start, end)?,
                routed: n,
            })
        })
        .collect::<Result<_, crate::stats::InvertedWindow>>()?;
    let all: Vec<IoCompletion> = completions.into_iter().flatten().collect();
    let total = IoStats::from_completions(&all, start, end)?;
    let (rd, wr): (Vec<IoCompletion>, Vec<IoCompletion>) =
        all.iter().partition(|c| c.kind == IoKind::Read);
    let reads = IoStats::from_completions(&rd, start, end)?;
    let writes = IoStats::from_completions(&wr, start, end)?;
    let absorbed = IoStats::from_completions(&absorbed, start, end.max(start))?;
    let power = rig.into_trace();
    let energy_j = power.energy_j();

    Ok(FleetResult {
        per_device,
        total,
        reads,
        writes,
        absorbed,
        power,
        energy_j,
        io_errors,
        dropped,
        command_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AccessPattern;
    use crate::openloop::{ArrivalGen, Arrivals, OpenLoopSpec};
    use powadapt_device::{catalog, GIB};

    fn fleet(n: usize) -> Vec<Box<dyn StorageDevice>> {
        (0..n)
            .map(|i| Box::new(catalog::ssd3_d3_p4510(100 + i as u64)) as Box<dyn StorageDevice>)
            .collect()
    }

    fn stream(rate: f64, read_fraction: f64, ms: u64) -> OpenLoopSpec {
        OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: rate },
            block_size: 64 * 1024,
            read_fraction,
            pattern: AccessPattern::Random,
            region: (0, 4 * GIB),
            duration: SimDuration::from_millis(ms),
            seed: 9,
            zipf_theta: None,
        }
    }

    #[test]
    fn all_arrivals_are_served_exactly_once() {
        let mut devices = fleet(3);
        let mut router = LeastLoadedRouter::default();
        let spec = stream(2_000.0, 0.5, 200);
        let expected = ArrivalGen::new(&spec).unwrap().count() as u64;
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(50),
        )
        .expect("fleet runs");
        assert_eq!(r.total.ios(), expected);
        let routed: u64 = r.per_device.iter().map(|d| d.routed).sum();
        assert_eq!(routed, expected);
    }

    #[test]
    fn least_loaded_balances_across_devices() {
        let mut devices = fleet(4);
        let mut router = LeastLoadedRouter::default();
        let spec = stream(4_000.0, 1.0, 200);
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(50),
        )
        .expect("fleet runs");
        let max = r.per_device.iter().map(|d| d.routed).max().unwrap();
        let min = r.per_device.iter().map(|d| d.routed).min().unwrap();
        assert!(
            max - min < max / 2 + 10,
            "imbalance: {:?}",
            r.per_device.iter().map(|d| d.routed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fleet_power_is_coherent_sum() {
        let mut devices = fleet(2);
        let mut router = LeastLoadedRouter::default();
        let spec = stream(500.0, 1.0, 100);
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(50),
        )
        .expect("fleet runs");
        // Two SSD3s idle at ~1 W each; active adds more.
        let mean = r.avg_power_w();
        assert!(mean > 1.9 && mean < 8.0, "fleet mean power {mean}");
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn commands_from_a_router_are_applied() {
        #[derive(Debug)]
        struct SleepSecond;
        impl Router for SleepSecond {
            fn route(&mut self, _a: &Arrival, _f: &[DeviceStatus]) -> Route {
                Route::Device(0)
            }
            fn control(&mut self, _now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
                if fleet[1].standby == StandbyState::Active {
                    vec![DeviceCommand::Standby { device: 1 }]
                } else {
                    Vec::new()
                }
            }
        }
        // Device 1 supports standby only if it's an EVO or HDD; use HDD.
        let mut devices: Vec<Box<dyn StorageDevice>> = vec![
            Box::new(catalog::ssd3_d3_p4510(1)),
            Box::new(catalog::hdd_exos_7e2000(2)),
        ];
        let mut router = SleepSecond;
        let spec = stream(200.0, 1.0, 300);
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(20),
        )
        .expect("fleet runs");
        assert_eq!(r.per_device[1].routed, 0);
        assert_ne!(devices[1].standby_state(), StandbyState::Active);
    }

    #[test]
    fn trace_replay_reproduces_the_generated_run() {
        use crate::wltrace::ArrivalTrace;
        let spec = stream(1_500.0, 0.4, 150);
        let trace = ArrivalTrace::record(crate::openloop::ArrivalGen::new(&spec).unwrap()).unwrap();

        let generated = {
            let mut devices = fleet(2);
            let mut router = LeastLoadedRouter::default();
            run_fleet(
                &mut devices,
                &mut router,
                ArrivalGen::new(&spec).expect("valid arrival spec"),
                spec.seed,
                SimDuration::from_millis(50),
            )
            .unwrap()
        };
        let replayed = {
            let mut devices = fleet(2);
            let mut router = LeastLoadedRouter::default();
            run_fleet(
                &mut devices,
                &mut router,
                trace.arrivals().iter().copied(),
                spec.seed,
                SimDuration::from_millis(50),
            )
            .unwrap()
        };
        assert_eq!(generated.total.ios(), replayed.total.ios());
        assert_eq!(generated.total.bytes(), replayed.total.bytes());
        assert_eq!(
            generated.energy_j.to_bits(),
            replayed.energy_j.to_bits(),
            "same arrivals + same meter seed = identical measurement"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut devices = fleet(2);
            let mut router = LeastLoadedRouter::default();
            let spec = stream(1_000.0, 0.3, 150);
            let r = run_fleet(
                &mut devices,
                &mut router,
                ArrivalGen::new(&spec).expect("valid arrival spec"),
                spec.seed,
                SimDuration::from_millis(50),
            )
            .expect("fleet runs");
            (r.total.ios(), r.energy_j.to_bits(), r.power.len())
        };
        assert_eq!(run(), run());
    }
}
