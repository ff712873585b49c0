//! The cluster advances a device only when it has something to do, and
//! steps only where the cluster must act:
//!
//! - a device with no event due and nothing submitted is left alone until
//!   a control round or the end of a `run_to` slice;
//! - a busy device that carries no migration leg is not stepped at each
//!   of its own events: it catches up at the next arrival, tick or slice
//!   end, in one advance across all the events on the way.
//!
//! Either way the report is the one an undecorated run produces.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use std::cell::RefCell;
use std::rc::Rc;

use std::collections::BTreeSet;

use powadapt_cluster::{
    fig10_model, placement_cluster, run_cluster, ClusterSim, ClusterSpec, EnclosureSpec, NodeKind,
    PlacementArm, PowerTree, SelectionPolicy, TenantArrivals, TenantSpec, TreeFaultWindow,
};
use powadapt_core::Slo;
use powadapt_device::{
    catalog, DeviceError, DeviceSpec, IoCompletion, IoRequest, PowerStateDesc, PowerStateId,
    StandbyDepth, StandbyState, StorageDevice, GIB, KIB,
};
use powadapt_obs::RecorderHandle;
use powadapt_sim::{SimDuration, SimTime};

/// The device clock at each advance's target and at each submit one
/// device received.
#[derive(Debug, Default)]
struct Calls {
    advanced_to: RefCell<Vec<SimTime>>,
    submitted_at: RefCell<Vec<SimTime>>,
}

impl Calls {
    fn advances(&self) -> u64 {
        self.advanced_to.borrow().len() as u64
    }
}

/// Delegates everything to `inner`, logging advances and submits.
#[derive(Debug)]
struct Counting {
    inner: Box<dyn StorageDevice>,
    calls: Rc<Calls>,
}

impl StorageDevice for Counting {
    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        self.calls.submitted_at.borrow_mut().push(self.inner.now());
        self.inner.submit(req)
    }

    fn next_event(&mut self) -> Option<SimTime> {
        self.inner.next_event()
    }

    fn advance_to(&mut self, t: SimTime) -> Vec<IoCompletion> {
        let mut out = Vec::new();
        self.advance_to_into(t, &mut out);
        out
    }

    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        self.calls.advanced_to.borrow_mut().push(t);
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

    fn request_standby_depth(&mut self, depth: StandbyDepth) -> Result<(), DeviceError> {
        self.inner.request_standby_depth(depth)
    }

    fn standby_depth(&self) -> StandbyDepth {
        self.inner.standby_depth()
    }

    fn standby_state(&self) -> StandbyState {
        self.inner.standby_state()
    }

    fn standby_power_w(&self) -> Option<f64> {
        self.inner.standby_power_w()
    }

    fn inflight(&self) -> usize {
        self.inner.inflight()
    }

    fn set_recorder(&mut self, rec: RecorderHandle, track: &'static str) {
        self.inner.set_recorder(rec, track);
    }
}

const DURATION: SimDuration = SimDuration::from_millis(60);
const CONTROL: SimDuration = SimDuration::from_millis(10);

/// Two single-SSD enclosures under one feeder. The `rack1` breaker is
/// open for the whole run, so `enc1` is dark and receives no IO while
/// `enc0` serves one Poisson tenant.
fn spec() -> ClusterSpec {
    let mut tree = PowerTree::root("cluster", NodeKind::Cluster, 40.0, 1.0);
    for i in 0..2 {
        let rack = tree.add_child(
            tree.root_id(),
            &format!("rack{i}"),
            NodeKind::Rack,
            20.0,
            1.0,
        );
        tree.add_child(rack, &format!("enc{i}"), NodeKind::Enclosure, 20.0, 1.0);
    }
    let enclosures = vec![
        EnclosureSpec {
            name: "enc0".into(),
            devices: vec![Box::new(catalog::ssd1_pm9a3(1)) as Box<dyn StorageDevice>],
            models: vec![fig10_model("SSD1")],
        },
        EnclosureSpec {
            name: "enc1".into(),
            devices: vec![Box::new(catalog::ssd3_d3_p4510(2)) as Box<dyn StorageDevice>],
            models: vec![fig10_model("SSD3")],
        },
    ];
    ClusterSpec {
        tree,
        enclosures,
        tenants: vec![TenantSpec {
            name: "web".into(),
            arrivals: TenantArrivals::Poisson { rate_iops: 4000.0 },
            block_size: 64 * KIB,
            read_fraction: 0.6,
            region: (0, GIB),
            slo: Slo::new().min_throughput_bps(1e6),
        }],
        policy: SelectionPolicy::ModelDriven,
        control_interval: CONTROL,
        sample_interval: SimDuration::from_millis(2),
        planning_margin: 0.875,
        duration: DURATION,
        seed: 5,
        tree_faults: vec![TreeFaultWindow {
            node: "cluster/rack1".into(),
            from: SimTime::ZERO,
            until: SimTime::from_secs(1),
        }],
        placement: None,
    }
}

/// Wraps every device of `spec` in a [`Counting`] decorator, one
/// [`Calls`] per enclosure.
fn decorated(mut spec: ClusterSpec) -> (ClusterSpec, Vec<Rc<Calls>>) {
    let calls: Vec<Rc<Calls>> = spec.enclosures.iter().map(|_| Rc::default()).collect();
    for (enc, c) in spec.enclosures.iter_mut().zip(&calls) {
        enc.devices = std::mem::take(&mut enc.devices)
            .into_iter()
            .map(|inner| {
                Box::new(Counting {
                    inner,
                    calls: c.clone(),
                }) as Box<dyn StorageDevice>
            })
            .collect();
    }
    (spec, calls)
}

/// Runs `sim` to its end in `run_to` slices of `slice`, and returns the
/// report and every slice's limit (`finish` runs the last one, to the
/// end).
fn run_sliced(
    mut sim: ClusterSim,
    slice: SimDuration,
) -> (powadapt_cluster::ClusterReport, Vec<SimTime>) {
    let mut limits = Vec::new();
    let mut limit = sim.start_time() + slice;
    while limit < sim.end_time() {
        sim.run_to(limit).unwrap();
        limits.push(limit);
        limit = limit.saturating_add(slice);
    }
    limits.push(sim.end_time());
    (sim.finish().unwrap(), limits)
}

#[test]
fn idle_devices_are_advanced_only_by_control_rounds_and_slice_ends() {
    let plain = run_cluster(spec()).unwrap();
    let (spec, calls) = decorated(spec());
    let (counted, limits) = run_sliced(ClusterSim::new(spec).unwrap(), SimDuration::from_millis(7));
    assert_eq!(counted, plain, "counting changed the run");

    let slices = limits.len() as u64;
    let (busy, idle) = (&calls[0], &calls[1]);
    assert!(plain.served_ios > 100, "enc0 served {}", plain.served_ios);
    assert!(
        idle.submitted_at.borrow().is_empty(),
        "the dark enclosure received IO"
    );
    // Each control round catches the idle device up before it runs and
    // advances it once more on the next step (the round may have changed
    // it); each slice end catches it up; construction and the closing
    // drain add one each.
    let bound = 2 * counted.rebalance_rounds + slices + 2;
    assert!(
        idle.advances() <= bound,
        "idle device advanced {} times, bound {bound} ({} rounds, {slices} slices); \
         the busy one {} times",
        idle.advances(),
        counted.rebalance_rounds,
        busy.advances(),
    );
    assert!(busy.advances() > 10 * bound, "too few steps to tell");
}

#[test]
fn busy_devices_without_migration_legs_catch_up_only_where_the_cluster_acts() {
    let plain = run_cluster(spec()).unwrap();
    let (spec, calls) = decorated(spec());
    let (sample, control) = (spec.sample_interval, spec.control_interval);
    let sim = ClusterSim::new(spec).unwrap();
    let start = sim.start_time();
    let (counted, limits) = run_sliced(sim, SimDuration::from_millis(7));
    assert_eq!(counted, plain, "counting changed the run");

    // Where the cluster acts on its own account: arrivals (every one is
    // submitted to the busy device), sample and control ticks, the end.
    let busy = &calls[0];
    let submitted = busy.submitted_at.borrow();
    let next_tick = |t: SimTime, every: SimDuration| {
        let n = t.duration_since(start).as_nanos() / every.as_nanos() + 1;
        start + SimDuration::from_nanos(n * every.as_nanos())
    };
    let next_act = |t: SimTime| {
        let arrival = submitted.get(submitted.partition_point(|&a| a <= t));
        [next_tick(t, sample), next_tick(t, control)]
            .into_iter()
            .chain(arrival.copied())
            .min()
            .unwrap()
    };
    let acts = |t: SimTime| {
        submitted.binary_search(&t).is_ok()
            || next_tick(t, sample) == t + sample
            || next_tick(t, control) == t + control
            || limits.last() == Some(&t)
    };
    // Before a slice ends the loop steps the lagging devices' events
    // after its last action, one by one, to end where a loop that
    // visited every device event ends: the slice's tail.
    let in_tail = |t: SimTime| next_act(t) >= limits[limits.partition_point(|&l| l <= t)];
    let advanced_to = busy.advanced_to.borrow();
    let (at_acts, tail): (Vec<SimTime>, Vec<SimTime>) =
        advanced_to.iter().copied().partition(|&t| acts(t));
    let stray: Vec<&SimTime> = tail.iter().filter(|&&t| !in_tail(t)).collect();
    assert!(
        stray.is_empty(),
        "busy device advanced between cluster actions, outside a slice tail: {stray:?}"
    );

    // At most once per action (a control round may advance it once more
    // on the next step, which is an action too), once per slice end, and
    // at construction and the closing drain.
    let arrivals: u64 = counted
        .tenants
        .iter()
        .map(|t| t.submitted + t.dropped)
        .sum();
    let samples = DURATION.as_nanos() / sample.as_nanos();
    let slices = limits.len() as u64;
    let bound = arrivals + samples + counted.rebalance_rounds + slices + 2;
    assert!(
        at_acts.len() as u64 <= bound,
        "busy device advanced {} times at cluster actions, bound {bound} ({arrivals} arrivals, \
         {samples} samples, {} rounds, {slices} slices)",
        at_acts.len(),
        counted.rebalance_rounds,
    );
}

#[test]
fn placement_cell_steps_about_once_per_served_io() {
    let plain = run_cluster(placement_cluster(PlacementArm::TempDriven, 42)).unwrap();
    let (spec, calls) = decorated(placement_cluster(PlacementArm::TempDriven, 42));
    let (sample, control) = (spec.sample_interval, spec.control_interval);
    let sim = ClusterSim::new(spec).unwrap();
    let (start, end) = (sim.start_time(), sim.end_time());
    let (counted, _) = run_sliced(sim, SimDuration::from_secs(10));
    assert_eq!(counted, plain, "counting changed the run");
    assert!(counted.migrations_completed > 0, "the cell must migrate");

    // Every step acts at its time on a device (a submit, or an advance of
    // a due device) or is a tick; arrivals dropped without a submit are
    // added. The closing drain at the end is not a step.
    let mut instants = BTreeSet::new();
    for c in &calls {
        instants.extend(c.advanced_to.borrow().iter());
        instants.extend(c.submitted_at.borrow().iter());
    }
    for every in [sample, control] {
        let ticks = end.duration_since(start).as_nanos() / every.as_nanos();
        instants.extend((1..=ticks).map(|k| start + SimDuration::from_nanos(k * every.as_nanos())));
    }
    instants.remove(&end);
    let steps = instants.len() as u64 + counted.dropped;
    let advances: u64 = calls.iter().map(|c| c.advances()).sum();
    // A loop stepping at every device event takes about 801k steps and
    // 806k advances here.
    assert!(
        10 * steps <= 13 * counted.served_ios,
        "{steps} step instants for {} served IOs",
        counted.served_ios
    );
    assert!(advances <= 300_000, "{advances} advances");
}
