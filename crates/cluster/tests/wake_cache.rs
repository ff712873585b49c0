//! The cluster advances a device only when it has something to do: a
//! device with no event due and nothing submitted is left alone until a
//! control round or the end of a `run_to` slice, and the report is the
//! one an undecorated run produces.

#![allow(clippy::unwrap_used, reason = "tests assert on exact expected values")]

use std::cell::Cell;
use std::rc::Rc;

use powadapt_cluster::{
    fig10_model, run_cluster, ClusterSim, ClusterSpec, EnclosureSpec, NodeKind, PowerTree,
    SelectionPolicy, TenantArrivals, TenantSpec, TreeFaultWindow,
};
use powadapt_core::Slo;
use powadapt_device::{
    catalog, DeviceError, DeviceSpec, IoCompletion, IoRequest, PowerStateDesc, PowerStateId,
    StandbyDepth, StandbyState, StorageDevice, GIB, KIB,
};
use powadapt_obs::RecorderHandle;
use powadapt_sim::{SimDuration, SimTime};

/// Calls one device received.
#[derive(Debug, Default)]
struct Calls {
    advance: Cell<u64>,
    submit: Cell<u64>,
}

/// Delegates everything to `inner`, counting advances and submits.
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
        self.calls.submit.set(self.calls.submit.get() + 1);
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
        self.calls.advance.set(self.calls.advance.get() + 1);
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

#[test]
fn idle_devices_are_advanced_only_by_control_rounds_and_slice_ends() {
    let plain = run_cluster(spec()).unwrap();

    let calls: Vec<Rc<Calls>> = (0..2).map(|_| Rc::default()).collect();
    let mut spec = spec();
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
    let mut sim = ClusterSim::new(spec).unwrap();
    let slice = SimDuration::from_millis(7);
    let mut slices = 1; // `finish` runs the last one.
    let mut limit = sim.start_time() + slice;
    while limit < sim.end_time() {
        sim.run_to(limit).unwrap();
        slices += 1;
        limit = limit.saturating_add(slice);
    }
    let counted = sim.finish().unwrap();
    assert_eq!(counted, plain, "counting changed the run");

    let (busy, idle) = (&calls[0], &calls[1]);
    assert!(plain.served_ios > 100, "enc0 served {}", plain.served_ios);
    assert_eq!(idle.submit.get(), 0, "the dark enclosure received IO");
    // Each control round catches the idle device up before it runs and
    // advances it once more on the next step (the round may have changed
    // it); each slice end catches it up; construction and the closing
    // drain add one each.
    let bound = 2 * counted.rebalance_rounds + slices + 2;
    assert!(
        idle.advance.get() <= bound,
        "idle device advanced {} times, bound {bound} ({} rounds, {slices} slices); \
         the busy one {} times",
        idle.advance.get(),
        counted.rebalance_rounds,
        busy.advance.get(),
    );
    assert!(busy.advance.get() > 10 * bound, "too few steps to tell");
}
