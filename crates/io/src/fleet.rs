//! Multi-device fleet simulation with pluggable request routing.
//!
//! The paper's §4 policies (power-aware IO redirection, asymmetric IO) act
//! *across* devices. [`run_fleet`] drives an open-loop arrival stream
//! against a set of simulated devices in one event loop: a
//! [`Router`] picks the device for every request and may issue device
//! control commands (power states, standby) on a periodic control tick,
//! while the fleet's summed power is metered at 1 kHz. This turns the §4
//! policy discussion into something that can be *measured*.

use std::fmt;
use std::ops::Range;

use powadapt_device::{
    DeviceError, IoCompletion, IoId, IoKind, PowerStateId, StandbyState, StorageDevice,
};
use powadapt_meter::{PowerRig, PowerTrace};
use powadapt_obs::{emit, EventKind};
use powadapt_sim::{SimDuration, SimRng, SimTime};

use crate::openloop::Arrival;
use crate::runner::ExperimentError;
use crate::stats::IoStats;
use crate::stepper::Stepper;

/// A router's view of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStatus {
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

/// The least-loaded device in `range`, scanning from `cursor` (relative
/// to `range.start`) so ties rotate: the cursor moves just past the pick.
///
/// # Panics
///
/// Panics if `range` is empty or reaches past `fleet`.
pub fn least_loaded(fleet: &[DeviceStatus], range: Range<usize>, cursor: &mut usize) -> usize {
    let n = range.len();
    assert!(n > 0, "router has no candidate devices");
    // `min_by_key` keeps the first minimum in scan order.
    let pick = (0..n)
        .map(|off| (*cursor + off) % n)
        .min_by_key(|&i| fleet[range.start + i].inflight)
        .unwrap_or(0);
    *cursor = (pick + 1) % n;
    range.start + pick
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
        Route::Device(least_loaded(fleet, 0..fleet.len(), &mut self.next))
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

/// Rewrites `buf` in place to the fleet's current status, one entry per
/// device; once it holds the whole fleet, a refresh allocates nothing.
fn refresh_statuses(devices: &[Box<dyn StorageDevice>], buf: &mut Vec<DeviceStatus>) {
    buf.resize_with(devices.len(), || DeviceStatus {
        inflight: 0,
        standby: StandbyState::Active,
        power_state: PowerStateId(0),
        supports_standby: false,
    });
    for (s, d) in buf.iter_mut().zip(devices) {
        s.inflight = d.inflight();
        s.standby = d.standby_state();
        s.power_state = d.power_state();
        s.supports_standby = d.standby_power_w().is_some();
    }
}

/// Applies `cmd`, returning the device it targets and the outcome.
fn apply_command(
    devices: &mut [Box<dyn StorageDevice>],
    cmd: DeviceCommand,
) -> (usize, Result<(), DeviceError>) {
    match cmd {
        DeviceCommand::SetPowerState { device, ps } => {
            (device, devices[device].set_power_state(ps))
        }
        // A device already entering standby, asleep or waking (a wake in
        // progress wins) needs no request.
        DeviceCommand::Standby { device } => match devices[device].standby_state() {
            StandbyState::Active => (device, devices[device].request_standby()),
            _ => (device, Ok(())),
        },
        DeviceCommand::Wake { device } => (device, devices[device].request_wake()),
    }
}

/// Runs an arrival stream against a fleet: a synthetic
/// [`ArrivalGen`](crate::ArrivalGen) or a recorded
/// [`ArrivalTrace`](crate::ArrivalTrace) (`trace.arrivals().iter().copied()`).
///
/// A [`Stepper`] advances only the devices due at each step, with the
/// result of a lockstep loop, so the 1 kHz fleet-power samples are
/// coherent sums, measured by a rig seeded from `meter_seed`. The run
/// ends when the stream is exhausted and every device has drained.
/// Arrivals larger than a device are clamped to its capacity.
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
    let tracks: Vec<&'static str> = (0..devices.len())
        .map(|i| powadapt_obs::intern(&format!("device{i}")))
        .collect();
    for (d, &track) in devices.iter_mut().zip(&tracks) {
        d.set_recorder(rec.clone(), track);
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
    let mut stepper = Stepper::default();
    stepper.touch_all(devices.iter_mut().map(|d| &mut **d));
    // The last step time, which every device's clock ends on.
    let mut now = start;
    let mut absorbed: Vec<IoCompletion> = Vec::new();
    // Reused across arrivals; re-routing marks the devices already tried.
    let mut tried = vec![false; devices.len()];
    // The routers' view of the fleet, refreshed in place before each ask.
    let mut fleet_status: Vec<DeviceStatus> = Vec::with_capacity(devices.len());
    let mut io_errors = 0u64;
    let mut dropped = 0u64;
    let mut command_errors = 0u64;

    loop {
        // Next event across all sources.
        let mut t = rig.next_sample().min(next_control);
        if let Some(a) = &pending_arrival {
            t = t.min(start.max(a.at));
        }
        let wake = stepper.next_wake();
        if pending_arrival.is_none() && wake.is_none() {
            break;
        }
        t = wake.map_or(t, |w| w.min(t));
        now = t;

        // Advance the due devices to t; completions land in the
        // per-device buffers, so a step allocates nothing.
        for (i, d) in devices.iter_mut().enumerate() {
            let done = stepper.drain(i, &mut **d, t);
            for c in done {
                router.on_io_complete(i, c);
            }
            completions[i].extend_from_slice(done);
        }

        // Admit any arrivals due at or before t.
        while let Some(a) = pending_arrival {
            if start.max(a.at) > t {
                break;
            }
            // Transiently-refused submits are re-routed; each device gets
            // at most one try per arrival, so a fully-faulted fleet drops
            // the arrival instead of wedging the loop.
            tried.fill(false);
            refresh_statuses(devices, &mut fleet_status);
            let mut route = router.route(&a, &fleet_status);
            loop {
                match route {
                    Route::Device(target) => {
                        assert!(target < devices.len(), "router returned index {target}");
                        match stepper.submit(target, &mut *devices[target], t, IoId(next_id), &a) {
                            Ok(()) => {
                                routed[target] += 1;
                                break;
                            }
                            Err(e) if e.is_transient() => {
                                io_errors += 1;
                                emit!(
                                    rec,
                                    t,
                                    tracks[target],
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
                                refresh_statuses(devices, &mut fleet_status);
                                route = match router.route(&a, &fleet_status) {
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
            stepper.catch_up_all(devices.iter_mut().map(|d| &mut **d), t);
            refresh_statuses(devices, &mut fleet_status);
            for cmd in router.control(t, &fleet_status) {
                match apply_command(devices, cmd) {
                    (_, Ok(())) => {}
                    (device, Err(e)) if e.is_transient() => {
                        command_errors += 1;
                        router.on_device_error(device, &e, t);
                    }
                    (_, Err(e)) => return Err(e.into()),
                }
            }
            stepper.touch_all(devices.iter_mut().map(|d| &mut **d));
            next_control = t + control_interval;
        }

        // Meter tick.
        if t == rig.next_sample() {
            let total: f64 = devices.iter().map(|d| d.power_w()).sum();
            rig.sample(t, total);
        }
    }

    // `end` reads a device clock: every device stops on lockstep's.
    stepper.catch_up_all(devices.iter_mut().map(|d| &mut **d), now);
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
    fn an_arrival_larger_than_the_device_is_clamped_to_its_capacity() {
        use crate::wltrace::ArrivalTrace;
        use powadapt_device::{DeviceClass, DeviceSpec, Protocol, Ssd, MIB};
        // An SSD3 shrunk to 1 MiB, so serving its whole capacity is quick.
        let cfg = catalog::ssd3_d3_p4510(1).config().clone();
        let spec = DeviceSpec::new("SSD3", "test", Protocol::Sata, DeviceClass::Ssd, MIB);
        let mut devices: Vec<Box<dyn StorageDevice>> = vec![Box::new(Ssd::new(spec, cfg, 1))];
        let csv = format!(
            "time_s,kind,offset,len\n0.001,W,0,{}\n0.002,R,4096,4096\n",
            MIB + 4096
        );
        let trace = ArrivalTrace::from_csv(csv.as_bytes()).expect("valid trace");
        let mut router = LeastLoadedRouter::default();
        let r = run_fleet(
            &mut devices,
            &mut router,
            trace.arrivals().iter().copied(),
            1,
            SimDuration::from_millis(50),
        )
        .expect("an oversize arrival is clamped, not refused");
        assert_eq!(r.total.ios(), 2);
        assert_eq!(r.total.bytes(), MIB + 4096);
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
