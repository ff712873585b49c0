//! Differential test of the fleet stepper against lockstep.
//!
//! `run_fleet` advances only the devices that are due at each step (see
//! `powadapt_io::Stepper`). This test keeps the plain lockstep loop as its
//! reference, one that polls and advances every device at every step, and
//! runs random fleets and random scripts through both. The fleets mix
//! SSDs, HDDs, fault injectors (dropout and stuck-power-state windows,
//! latency spikes, refused submits) and a device that acknowledges
//! requests inside `submit`. A scripted router makes random routing and
//! power-state/standby/wake decisions from its own seed, so both loops see
//! the same script as long as they call it the same way. The test
//! compares, bit for bit, the sequence of completions and refusals the
//! router sees, the metered power samples, every device's clock, power and
//! in-flight count after the run, and every `FleetResult` field.

use powadapt_device::{
    catalog, DeviceError, DeviceSpec, FaultInjector, FaultPlan, IoCompletion, IoKind, IoRequest,
    PowerStateDesc, PowerStateId, StandbyState, StorageDevice, GIB, KIB,
};
use powadapt_io::{
    run_fleet, AccessPattern, Arrival, ArrivalGen, Arrivals, DeviceCommand, DeviceOutcome,
    DeviceStatus, FleetResult, IoStats, OpenLoopSpec, Route, Router,
};
use powadapt_meter::PowerRig;
use powadapt_sim::{SimDuration, SimRng, SimTime};

/// A device that serves every fifth request itself, completing it inside
/// `submit` without scheduling an event, and hands the completion over on
/// its next advance. The device trait allows this; it is why a submit
/// marks its device touched.
#[derive(Debug)]
struct EagerAck {
    inner: Box<dyn StorageDevice>,
    acked: Vec<IoCompletion>,
}

impl StorageDevice for EagerAck {
    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        if !req.id.0.is_multiple_of(5) {
            return self.inner.submit(req);
        }
        let now = self.inner.now();
        self.acked.push(IoCompletion {
            id: req.id,
            kind: req.kind,
            len: req.len,
            submitted: now,
            completed: now,
        });
        Ok(())
    }
    fn next_event(&mut self) -> Option<SimTime> {
        self.inner.next_event()
    }
    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        out.append(&mut self.acked);
        self.inner.advance_to_into(t, out);
    }
    fn power_w(&self) -> f64 {
        self.inner.power_w()
    }
    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError> {
        self.inner.set_power_state(ps)
    }
    fn power_state(&self) -> PowerStateId {
        self.inner.power_state()
    }
    fn power_states(&self) -> &[PowerStateDesc] {
        self.inner.power_states()
    }
    fn request_standby(&mut self) -> Result<(), DeviceError> {
        self.inner.request_standby()
    }
    fn request_wake(&mut self) -> Result<(), DeviceError> {
        self.inner.request_wake()
    }
    fn standby_state(&self) -> StandbyState {
        self.inner.standby_state()
    }
    fn standby_power_w(&self) -> Option<f64> {
        self.inner.standby_power_w()
    }
    fn inflight(&self) -> usize {
        self.inner.inflight() + self.acked.len()
    }
}

/// Builds one random fleet from `seed`; equal seeds build equal fleets.
fn fleet(seed: u64) -> Vec<Box<dyn StorageDevice>> {
    let mut rng = SimRng::seed_from(seed);
    let n = 2 + rng.index(5);
    (0..n)
        .map(|i| {
            let dseed = seed * 100 + i as u64;
            let base: Box<dyn StorageDevice> = match rng.index(5) {
                0 => Box::new(catalog::ssd3_d3_p4510(dseed)),
                1 => Box::new(catalog::ssd2_d7_p5510(dseed)),
                2 => Box::new(catalog::evo_860(dseed)),
                3 => Box::new(catalog::hdd_exos_7e2000(dseed)),
                _ => Box::new(catalog::ssd1_pm9a3(dseed)),
            };
            match rng.index(4) {
                0 => base,
                1 => Box::new(EagerAck {
                    inner: base,
                    acked: Vec::new(),
                }),
                _ => {
                    let ms = |rng: &mut SimRng| SimTime::from_millis(rng.u64_range(0, 250));
                    let (a, b) = (ms(&mut rng), ms(&mut rng));
                    let from = a.min(b);
                    let until = a.max(b) + SimDuration::from_millis(1);
                    let mut plan = FaultPlan::none()
                        .latency_spikes(rng.uniform_range(0.0, 0.5), SimDuration::from_millis(3))
                        .io_errors(rng.uniform_range(0.0, 0.05));
                    plan = if rng.chance(0.5) {
                        plan.dropout(from, until)
                    } else {
                        plan.stuck_power_state(from, until)
                    };
                    Box::new(FaultInjector::seeded(base, plan, dseed))
                }
            }
        })
        .collect()
}

/// Routes at random and issues random power-state, standby and wake
/// commands, logging everything the loop reports back.
#[derive(Debug)]
struct ScriptRouter {
    rng: SimRng,
    /// Valid power states per device.
    states: Vec<Vec<PowerStateId>>,
    /// `(device, completion)` in delivery order.
    completions: Vec<(usize, IoCompletion)>,
    /// `(device, error, time)` in report order.
    errors: Vec<(usize, String, SimTime)>,
}

impl ScriptRouter {
    fn new(seed: u64, devices: &[Box<dyn StorageDevice>]) -> ScriptRouter {
        ScriptRouter {
            rng: SimRng::seed_from(seed ^ 0x005c_4197),
            states: devices
                .iter()
                .map(|d| d.power_states().iter().map(|s| s.id).collect())
                .collect(),
            completions: Vec::new(),
            errors: Vec::new(),
        }
    }
}

impl Router for ScriptRouter {
    fn route(&mut self, _arrival: &Arrival, fleet: &[DeviceStatus]) -> Route {
        if self.rng.chance(0.05) {
            Route::Absorbed {
                latency: SimDuration::from_micros(50),
            }
        } else {
            Route::Device(self.rng.index(fleet.len()))
        }
    }

    fn control(&mut self, _now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
        let mut cmds = Vec::new();
        for _ in 0..self.rng.index(4) {
            let device = self.rng.index(fleet.len());
            let s = &fleet[device];
            let cmd = match self.rng.index(3) {
                0 if s.supports_standby => DeviceCommand::Standby { device },
                1 if s.supports_standby && s.standby != StandbyState::Active => {
                    DeviceCommand::Wake { device }
                }
                _ => {
                    let states = &self.states[device];
                    DeviceCommand::SetPowerState {
                        device,
                        ps: states[self.rng.index(states.len())],
                    }
                }
            };
            cmds.push(cmd);
        }
        cmds
    }

    fn on_device_error(&mut self, device: usize, error: &DeviceError, now: SimTime) {
        self.errors.push((device, error.to_string(), now));
    }

    fn on_io_complete(&mut self, device: usize, completion: &IoCompletion) {
        self.completions.push((device, *completion));
    }
}

/// The reference: every device is polled and advanced at every step.
/// Same arrival admission, re-routing, control and meter order as
/// `run_fleet`.
fn lockstep_fleet(
    devices: &mut [Box<dyn StorageDevice>],
    router: &mut dyn Router,
    arrivals: &[Arrival],
    meter_seed: u64,
    control_interval: SimDuration,
) -> Result<FleetResult, DeviceError> {
    let mut gen = arrivals.iter().copied();
    let mut rig_rng = SimRng::seed_from(meter_seed ^ 0xf1ee7);
    let mut rig = PowerRig::paper_rig(12.0, &mut rig_rng);
    let start = devices[0].now();
    rig.restart_at(start);
    let n = devices.len();
    let mut next_control = start + control_interval;
    let mut pending = gen.next();
    let mut next_id = 0u64;
    let mut routed = vec![0u64; n];
    let mut completions: Vec<Vec<IoCompletion>> = vec![Vec::new(); n];
    let mut absorbed = Vec::new();
    let (mut io_errors, mut dropped, mut command_errors) = (0, 0, 0);
    let status = |devices: &[Box<dyn StorageDevice>]| -> Vec<DeviceStatus> {
        devices
            .iter()
            .map(|d| DeviceStatus {
                inflight: d.inflight(),
                standby: d.standby_state(),
                power_state: d.power_state(),
                supports_standby: d.standby_power_w().is_some(),
            })
            .collect()
    };
    loop {
        let mut t = rig.next_sample().min(next_control);
        if let Some(a) = &pending {
            t = t.min(start.max(a.at));
        }
        let mut device_pending = false;
        for d in devices.iter_mut() {
            if let Some(dt) = d.next_event() {
                device_pending = true;
                t = t.min(dt);
            }
        }
        if pending.is_none() && !device_pending {
            break;
        }
        for (i, d) in devices.iter_mut().enumerate() {
            let before = completions[i].len();
            d.advance_to_into(t, &mut completions[i]);
            for c in &completions[i][before..] {
                router.on_io_complete(i, c);
            }
        }
        while let Some(a) = pending {
            if start.max(a.at) > t {
                break;
            }
            let mut tried = vec![false; n];
            let mut route = router.route(&a, &status(devices));
            loop {
                match route {
                    Route::Device(target) => {
                        let dev = &mut devices[target];
                        let cap = dev.spec().capacity();
                        let len = a.len.min(cap);
                        let offset = a.offset.min(cap - len);
                        match dev.submit(IoRequest::new(
                            powadapt_device::IoId(next_id),
                            a.kind,
                            offset,
                            len,
                        )) {
                            Ok(()) => {
                                routed[target] += 1;
                                break;
                            }
                            Err(e) if e.is_transient() => {
                                io_errors += 1;
                                router.on_device_error(target, &e, t);
                                tried[target] = true;
                                route = match router.route(&a, &status(devices)) {
                                    Route::Device(d) if tried[d] => {
                                        match tried.iter().position(|&x| !x) {
                                            Some(d2) => Route::Device(d2),
                                            None => {
                                                dropped += 1;
                                                break;
                                            }
                                        }
                                    }
                                    other => other,
                                };
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Route::Absorbed { latency } => {
                        let at = start.max(a.at);
                        absorbed.push(IoCompletion {
                            id: powadapt_device::IoId(next_id),
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
            pending = gen.next();
        }
        if t >= next_control {
            for cmd in router.control(t, &status(devices)) {
                let (device, result) = match cmd {
                    DeviceCommand::SetPowerState { device, ps } => {
                        (device, devices[device].set_power_state(ps))
                    }
                    DeviceCommand::Standby { device } => (
                        device,
                        match devices[device].standby_state() {
                            StandbyState::Active => devices[device].request_standby(),
                            _ => Ok(()),
                        },
                    ),
                    DeviceCommand::Wake { device } => (device, devices[device].request_wake()),
                };
                match result {
                    Ok(()) => {}
                    Err(e) if e.is_transient() => {
                        command_errors += 1;
                        router.on_device_error(device, &e, t);
                    }
                    Err(e) => return Err(e),
                }
            }
            next_control = t + control_interval;
        }
        if t == rig.next_sample() {
            let total: f64 = devices.iter().map(|d| d.power_w()).sum();
            rig.sample(t, total);
        }
    }

    let end = devices[0].now();
    let stats =
        |cs: &[IoCompletion]| IoStats::from_completions(cs, start, end).expect("ordered window");
    let per_device = devices
        .iter()
        .zip(&completions)
        .zip(&routed)
        .map(|((d, cs), &routed)| DeviceOutcome {
            label: d.spec().label().to_string(),
            io: stats(cs),
            routed,
        })
        .collect();
    let all: Vec<IoCompletion> = completions.into_iter().flatten().collect();
    let (rd, wr): (Vec<IoCompletion>, Vec<IoCompletion>) =
        all.iter().partition(|c| c.kind == IoKind::Read);
    let power = rig.into_trace();
    Ok(FleetResult {
        per_device,
        total: stats(&all),
        reads: stats(&rd),
        writes: stats(&wr),
        absorbed: IoStats::from_completions(&absorbed, start, end.max(start))
            .expect("ordered window"),
        energy_j: power.energy_j(),
        power,
        io_errors,
        dropped,
        command_errors,
    })
}

/// Everything observable after a run, in a form compared bit for bit.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    power_bits: Vec<u64>,
    energy_bits: u64,
    completions: Vec<(usize, IoCompletion)>,
    errors: Vec<(usize, String, SimTime)>,
    /// `(clock, power bits, in-flight)` per device after the run.
    devices: Vec<(SimTime, u64, usize)>,
}

fn observe(
    result: Result<FleetResult, String>,
    router: ScriptRouter,
    devices: &[Box<dyn StorageDevice>],
) -> Observed {
    let (power_bits, energy_bits) = match &result {
        Ok(r) => (
            r.power.samples().iter().map(|w| w.to_bits()).collect(),
            r.energy_j.to_bits(),
        ),
        Err(_) => (Vec::new(), 0),
    };
    Observed {
        result: format!("{result:?}"),
        power_bits,
        energy_bits,
        completions: router.completions,
        errors: router.errors,
        devices: devices
            .iter()
            .map(|d| (d.now(), d.power_w().to_bits(), d.inflight()))
            .collect(),
    }
}

fn run_case(seed: u64) -> (Observed, Observed) {
    let mut rng = SimRng::seed_from(seed ^ 0xa771);
    let spec = OpenLoopSpec {
        arrivals: if rng.chance(0.5) {
            Arrivals::Poisson {
                rate_iops: rng.uniform_range(200.0, 6_000.0),
            }
        } else {
            Arrivals::OnOff {
                burst_rate_iops: rng.uniform_range(1_000.0, 20_000.0),
                mean_on: SimDuration::from_millis(10),
                mean_off: SimDuration::from_millis(30),
            }
        },
        block_size: [4 * KIB, 64 * KIB, 256 * KIB][rng.index(3)],
        read_fraction: rng.uniform(),
        pattern: AccessPattern::Random,
        region: (0, 4 * GIB),
        duration: SimDuration::from_millis(rng.u64_range(50, 300)),
        seed,
        zipf_theta: None,
    };
    let arrivals: Vec<Arrival> = ArrivalGen::new(&spec)
        .expect("valid arrival spec")
        .collect();
    let interval = SimDuration::from_millis(rng.u64_range(2, 40));

    let mut devices = fleet(seed);
    let mut router = ScriptRouter::new(seed, &devices);
    let stepped = run_fleet(
        &mut devices,
        &mut router,
        arrivals.iter().copied(),
        seed,
        interval,
    )
    .map_err(|e| e.to_string());
    let stepped = observe(stepped, router, &devices);

    let mut devices = fleet(seed);
    let mut router = ScriptRouter::new(seed, &devices);
    let lockstep = lockstep_fleet(&mut devices, &mut router, &arrivals, seed, interval)
        .map_err(|e| e.to_string());
    let lockstep = observe(lockstep, router, &devices);
    (stepped, lockstep)
}

#[test]
fn stepper_equals_lockstep_on_random_fleets_and_scripts() {
    let mut completions = 0;
    let mut errors = 0;
    let mut failed_runs = 0;
    for seed in 0..40 {
        let (stepped, lockstep) = run_case(seed);
        assert_eq!(
            stepped.result, lockstep.result,
            "seed {seed}: FleetResult differs"
        );
        assert_eq!(stepped, lockstep, "seed {seed}: observations differ");
        completions += stepped.completions.len();
        errors += stepped.errors.len();
        failed_runs += usize::from(stepped.result.starts_with("Err"));
    }
    // The scripts must reach the paths they are meant to test.
    assert!(completions > 10_000, "only {completions} completions");
    assert!(errors > 100, "only {errors} refusals");
    assert!(failed_runs < 10, "{failed_runs} of 40 runs failed");
}
