//! The cluster simulation: a power tree over per-enclosure adaptive
//! controllers, driven by multi-tenant open-loop workloads.
//!
//! One event loop steps the cluster from event time to event time. It
//! merges the tenants' arrival streams in time order and runs a control
//! round on a fixed interval: enclosures report demands, the tree
//! rebalances, and each enclosure's [`AdaptiveController::replan`]
//! decides whether its revised budget needs a re-plan. Per-tenant latencies
//! land in [`SloWindow`]s; per-node power is sampled on its own interval,
//! tracked against the node's physical cap, and emitted as Perfetto
//! counter tracks for rack-level nodes.
//!
//! The devices step through a [`Stepper`], which advances only the due
//! ones with the result of a lockstep loop; every device is level with
//! [`ClusterSim::now`] whenever [`ClusterSim::run_to`] returns.
//!
//! Everything is a pure function of `ClusterSpec` (tree shape, device
//! seeds, tenant seeds derived from the cluster seed): re-running a spec
//! reproduces the report bit for bit at any worker count.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use powadapt_core::{AdaptiveController, ControlError, SloWindow};
use powadapt_device::{DeviceClass, DeviceError, IoId, IoKind, StandbyState, StorageDevice};
use powadapt_io::{Arrival, Stepper};
use powadapt_model::PowerThroughputModel;
use powadapt_obs::{emit, EventKind, RecorderHandle};
use powadapt_place::{DeviceSlot, MigrationPhase, PlacementConfig, PlacementTier};
use powadapt_sim::units::Micros;
use powadapt_sim::{SimDuration, SimTime};
use powadapt_snap::{SnapError, SnapReader, SnapWriter};

use crate::ledger::{EnergyLedger, TenantUsage};
use crate::selector::{fleet_floor_w, fleet_max_w, uniform_choices, SelectionPolicy};
use crate::tenant::{TenantSpec, TenantStream};
use crate::tree::{Demand, NodeId, NodeKind, PowerTree, TreeError};
use crate::treefault::{TreeFaultEvent, TreeFaultSchedule, TreeFaultWindow};

/// One leaf enclosure: its devices and their measured power-throughput
/// models (same label pairing [`AdaptiveController::new`] requires).
#[derive(Debug)]
pub struct EnclosureSpec {
    /// Enclosure name, used for device trace tracks.
    pub name: String,
    /// The enclosure's devices.
    pub devices: Vec<Box<dyn StorageDevice>>,
    /// Model for each device, in device order.
    pub models: Vec<PowerThroughputModel>,
}

/// Full specification of a cluster run.
#[derive(Debug)]
pub struct ClusterSpec {
    /// The power-distribution tree.
    pub tree: PowerTree,
    /// One enclosure per tree leaf, parallel to [`PowerTree::leaves`].
    pub enclosures: Vec<EnclosureSpec>,
    /// The tenants sharing the cluster.
    pub tenants: Vec<TenantSpec>,
    /// Budget-to-configuration policy.
    pub policy: SelectionPolicy,
    /// Control-round interval (demand → rebalance → re-plan).
    pub control_interval: SimDuration,
    /// Node power sampling interval.
    pub sample_interval: SimDuration,
    /// Planning fraction of each physical cap, in `(0, 1]`; the headroom
    /// left absorbs device-level power noise above the plan.
    pub planning_margin: f64,
    /// Run duration.
    pub duration: SimDuration,
    /// Root seed; tenant stream seeds derive from it.
    pub seed: u64,
    /// Scheduled power-tree outages: breaker trips at node scope. Empty
    /// for a healthy run.
    pub tree_faults: Vec<TreeFaultWindow>,
    /// Energy-aware placement tier configuration. `None` keeps the legacy
    /// least-loaded router; `Some` routes every arrival through the
    /// extent catalog and runs background migration + consolidation.
    pub placement: Option<PlacementConfig>,
}

/// Who an in-flight IO belongs to: a tenant's arrival, or the current
/// leg of a background extent migration (the move's phase says which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoOwner {
    /// A tenant arrival (index into the tenant list).
    Tenant(usize),
    /// The current leg of migration `id`.
    Migration(u64),
}

powadapt_snap::codec! { enum IoOwner { 0 => Tenant(tenant), 1 => Migration(id) } }

/// Errors from a cluster run.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClusterError {
    /// The spec failed validation; the message names the problem.
    InvalidSpec(String),
    /// The power tree rejected its configuration or a rebalance round.
    Tree(TreeError),
    /// An enclosure controller failed (mismatched models, or every device
    /// refused its action with a non-transient error).
    Control(ControlError),
    /// A device rejected an operation with a non-transient error.
    Device(DeviceError),
    /// A checkpoint could not be decoded (corruption, truncation, version
    /// skew, or state inconsistent with the spec).
    Snapshot(SnapError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidSpec(m) => write!(f, "invalid cluster spec: {m}"),
            ClusterError::Tree(e) => write!(f, "power tree error: {e}"),
            ClusterError::Control(e) => write!(f, "controller error: {e}"),
            ClusterError::Device(e) => write!(f, "device error: {e}"),
            ClusterError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Tree(e) => Some(e),
            ClusterError::Control(e) => Some(e),
            ClusterError::Device(e) => Some(e),
            ClusterError::Snapshot(e) => Some(e),
            ClusterError::InvalidSpec(_) => None,
        }
    }
}

impl From<SnapError> for ClusterError {
    fn from(e: SnapError) -> Self {
        ClusterError::Snapshot(e)
    }
}

impl From<TreeError> for ClusterError {
    fn from(e: TreeError) -> Self {
        ClusterError::Tree(e)
    }
}

impl From<ControlError> for ClusterError {
    fn from(e: ControlError) -> Self {
        ClusterError::Control(e)
    }
}

impl From<DeviceError> for ClusterError {
    fn from(e: DeviceError) -> Self {
        ClusterError::Device(e)
    }
}

/// Power accounting for one tree node over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Slash-separated path from the root.
    pub path: String,
    /// Level of the node.
    pub kind: NodeKind,
    /// Physical cap, in watts.
    pub cap_w: f64,
    /// Highest sampled subtree power, in watts.
    pub max_power_w: f64,
    /// Mean sampled subtree power, in watts.
    pub mean_power_w: f64,
    /// Budget granted in the final control round, in watts (the static
    /// uniform share totals under [`SelectionPolicy::UniformStatic`]).
    pub granted_w: f64,
}

impl NodeReport {
    /// True while the node never exceeded its physical cap.
    pub fn within_cap(&self) -> bool {
        self.max_power_w <= self.cap_w + 1e-9
    }
}

/// Service accounting for one tenant over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Arrivals submitted to a device.
    pub submitted: u64,
    /// IOs completed within the run.
    pub served: u64,
    /// Bytes completed within the run.
    pub bytes: u64,
    /// Arrivals dropped because no serving device accepted them.
    pub dropped: u64,
    /// Mean completion latency, in microseconds (0 when nothing served).
    pub mean_latency_us: f64,
    /// P99 completion latency, in microseconds (0 when nothing served).
    pub p99_latency_us: f64,
    /// Whether the tenant's [`Slo`] held over the run.
    pub slo_ok: bool,
}

/// Outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The policy that produced this run.
    pub policy: SelectionPolicy,
    /// Per-node power accounting, indexed like the tree's nodes.
    pub nodes: Vec<NodeReport>,
    /// Per-tenant service accounting, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Run duration.
    pub duration: SimDuration,
    /// Total bytes completed across tenants.
    pub total_bytes: u64,
    /// Total IOs completed across tenants.
    pub served_ios: u64,
    /// Control rounds executed (0 under the static baseline).
    pub rebalance_rounds: u64,
    /// Budget revisions that reached a controller re-plan.
    pub replans: u64,
    /// Control rounds where a grant was below an enclosure's floor and the
    /// previous configuration was kept.
    pub infeasible_rounds: u64,
    /// Arrivals dropped across tenants.
    pub dropped: u64,
    /// Extent moves started by the placement tier (0 without placement).
    pub migrations_started: u64,
    /// Extent moves committed by the placement tier.
    pub migrations_completed: u64,
    /// Bytes completed by migration IOs (reads + writes; the ledger's
    /// system-tenant usage signal).
    pub migration_bytes: u64,
    /// Total metered energy over the run, joules.
    pub total_joules: f64,
    /// Energy attributed to the reserved system (migration) account,
    /// joules.
    pub system_joules: f64,
    /// Energy attributed to no account (idle + remainders), joules.
    pub idle_joules: f64,
}

impl ClusterReport {
    /// Aggregate goodput over the run, in bytes per second.
    pub fn aggregate_throughput_bps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / secs
        }
    }

    /// True while no node ever exceeded its physical cap.
    pub fn caps_respected(&self) -> bool {
        self.nodes.iter().all(NodeReport::within_cap)
    }

    /// The tightest node: highest `max_power_w / cap_w` across the tree.
    pub fn peak_cap_utilization(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.max_power_w / n.cap_w)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {:.1} MiB/s aggregate, {} IOs served, {} dropped, {} re-plans ({} rounds)",
            self.policy,
            self.aggregate_throughput_bps() / (1024.0 * 1024.0),
            self.served_ios,
            self.dropped,
            self.replans,
            self.rebalance_rounds,
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "  [{:9}] {:24} {:6.2} W max / {:6.2} W cap ({})",
                n.kind.as_str(),
                n.path,
                n.max_power_w,
                n.cap_w,
                if n.within_cap() { "ok" } else { "VIOLATED" }
            )?;
        }
        for t in &self.tenants {
            writeln!(
                f,
                "  tenant {:12} {:6} served, {:4} dropped, p99 {:8.0} us, slo {}",
                t.name,
                t.served,
                t.dropped,
                t.p99_latency_us,
                if t.slo_ok { "met" } else { "MISSED" }
            )?;
        }
        Ok(())
    }
}

/// What a tenant's arrivals feed: its SLO window and submit/drop counts.
/// The SLO itself is spec config (`TenantSpec::slo`).
struct TenantAccount {
    window: SloWindow,
    submitted: u64,
    dropped: u64,
}

powadapt_snap::codec! { TenantAccount { window, submitted, dropped } }

/// Interns every tree node's path once, indexed by `NodeId`.
fn tree_node_tracks(tree: &PowerTree) -> Vec<&'static str> {
    tree.node_ids()
        .map(|id| powadapt_obs::intern(&tree.path(id)))
        .collect()
}

/// The cluster simulation as a steppable object.
///
/// [`run_cluster`] drives a `ClusterSim` from construction straight to its
/// report; holding the object instead lets a caller stop at any simulated
/// time, serialize the complete dynamic state with
/// [`snapshot`](ClusterSim::snapshot), and continue — in this process or a
/// later one via [`resume`](ClusterSim::resume) — with bit-exact results:
/// a run that checkpoints and resumes produces byte-identical reports and
/// traces to one that never stopped.
///
/// Construction ([`new`](ClusterSim::new)) applies the initial policy and
/// may emit trace events; [`resume`](ClusterSim::resume) rebuilds the
/// object graph from the spec and overlays the checkpointed state without
/// emitting anything, so restored runs do not double-count events.
pub struct ClusterSim {
    // Configuration, rebuilt from the spec on construction and resume.
    tree: PowerTree,
    leaves: Vec<NodeId>,
    /// Interned tree-path track names, indexed like the tree's nodes, so
    /// the per-sample `PowerSample` emit is a pointer copy.
    node_tracks: Vec<&'static str>,
    tenants: Vec<TenantSpec>,
    policy: SelectionPolicy,
    control_interval: SimDuration,
    sample_interval: SimDuration,
    planning_margin: f64,
    duration: SimDuration,
    /// Global device index → (enclosure, device-in-enclosure).
    flat: Vec<(usize, usize)>,
    start: SimTime,
    t_end: SimTime,
    // Dynamic state, carried by the snapshot field list below.
    /// Per enclosure: commands its devices, keeps which serve, decides re-plans.
    controllers: Vec<AdaptiveController>,
    streams: Vec<TenantStream>,
    pending: Vec<Option<Arrival>>,
    accounts: Vec<TenantAccount>,
    node_max: Vec<f64>,
    node_sum: Vec<f64>,
    node_samples: u64,
    last_grants: Vec<f64>,
    rebalance_rounds: u64,
    replans: u64,
    infeasible_rounds: u64,
    /// In-flight IO ownership: global request id → tenant or migration.
    owners: BTreeMap<u64, IoOwner>,
    next_id: u64,
    next_control: SimTime,
    next_sample: SimTime,
    faults: TreeFaultSchedule,
    /// Integer-femtojoule energy accounts, audited every control round.
    ledger: EnergyLedger,
    /// The placement tier, when the spec configures one. Presence is part
    /// of the spec; its dynamic state is serialized. Its migration engine
    /// queues the legs no device has accepted yet (transient refusals
    /// retry on later steps, dark feeds defer).
    place: Option<PlacementTier>,
    /// Cumulative bytes completed by migration IOs — the system-tenant
    /// usage signal the ledger attributes energy against.
    mig_bytes: u64,
    /// Last processed event time.
    now: SimTime,
    /// Steps the flat devices, in flat order.
    stepper: Stepper,
    /// Flat devices whose events the loop steps at their own time: those
    /// holding a migration leg, or every device while a leg waits for
    /// one. Rebuilt whenever a step may have changed the moves or the
    /// waiting legs.
    eager: Vec<bool>,
    /// Reused candidate buffer for routing an arrival; transient.
    holders_scratch: Vec<u32>,
    /// The recorder installed when the sim was built; every cluster-level
    /// emit goes here, so a later `install` does not retarget this run.
    rec: RecorderHandle,
}

impl fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSim")
            .field("policy", &self.policy)
            .field("now", &self.now)
            .field("t_end", &self.t_end)
            .field("devices", &self.flat.len())
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

/// Every device of every enclosure, in flat order.
fn flat_devices(
    controllers: &mut [AdaptiveController],
) -> impl Iterator<Item = &mut (dyn StorageDevice + 'static)> {
    controllers
        .iter_mut()
        .flat_map(AdaptiveController::devices_mut)
}

impl ClusterSim {
    /// Builds the simulation and applies the initial policy configuration
    /// (which may emit trace events, exactly as the start of a
    /// [`run_cluster`] run does).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidSpec`] for shape problems (enclosure/leaf
    /// mismatch, empty tenants, zero intervals, unknown fault-window
    /// nodes), [`ClusterError::Tree`] for tree misconfiguration,
    /// [`ClusterError::Control`]/[`ClusterError::Device`] when the initial
    /// configuration fails.
    pub fn new(spec: ClusterSpec) -> Result<Self, ClusterError> {
        let mut sim = Self::build(spec)?;
        sim.apply_initial_policy()?;
        sim.stepper.touch_all(flat_devices(&mut sim.controllers));
        sim.refresh_eager();
        Ok(sim)
    }

    /// Rebuilds a simulation from `spec` and a sealed snapshot produced by
    /// [`snapshot`](ClusterSim::snapshot). The spec must be the same one
    /// the checkpointed run was built from (same topology, tenants, seed);
    /// every mismatch the codec can detect fails closed. The resume path
    /// emits no trace events.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Snapshot`] when the envelope or payload is corrupt,
    /// truncated, version-skewed, or inconsistent with the spec; the
    /// construction errors of [`ClusterSim::new`] otherwise.
    pub fn resume(spec: ClusterSpec, snapshot: &[u8]) -> Result<Self, ClusterError> {
        let payload = powadapt_snap::open(snapshot)?;
        let mut sim = Self::build(spec)?;
        let mut r = SnapReader::new(payload);
        powadapt_snap::Restore::read_state(&mut sim, &mut r)?;
        r.finish()?;
        Ok(sim)
    }

    /// Serializes the complete dynamic state into a sealed snapshot
    /// (magic, format version, checksum).
    ///
    /// # Errors
    ///
    /// Propagates device-layer serialization failures.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();
        powadapt_snap::Snapshot::write_state(self, &mut w)?;
        Ok(powadapt_snap::seal(&w.into_payload()))
    }

    /// The common start time of the run's devices.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// The end of the run (`start + duration`).
    pub fn end_time(&self) -> SimTime {
        self.t_end
    }

    /// The last processed event time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// IOs completed and credited to tenants so far. Monotone over the
    /// run. A lagging device's completions are credited at the next step
    /// that advances it, and the final report's `served_ios` also
    /// includes the end-of-run drain, so it can exceed the last mid-run
    /// reading.
    pub fn served_ios_so_far(&self) -> u64 {
        self.accounts.iter().map(|a| a.window.len() as u64).sum()
    }

    #[allow(
        clippy::too_many_lines,
        reason = "one linear build sequence: validate the spec, then wire every component in order"
    )]
    fn build(spec: ClusterSpec) -> Result<Self, ClusterError> {
        let ClusterSpec {
            tree,
            enclosures,
            tenants,
            policy,
            control_interval,
            sample_interval,
            planning_margin,
            duration,
            seed,
            tree_faults,
            placement,
        } = spec;

        let leaves = tree.leaves();
        if enclosures.len() != leaves.len() {
            return Err(ClusterError::InvalidSpec(format!(
                "{} enclosures for {} tree leaves",
                enclosures.len(),
                leaves.len()
            )));
        }
        if tenants.is_empty() {
            return Err(ClusterError::InvalidSpec("no tenants".into()));
        }
        if control_interval.is_zero() || sample_interval.is_zero() {
            return Err(ClusterError::InvalidSpec(
                "control and sample intervals must be non-zero".into(),
            ));
        }
        if !(planning_margin > 0.0 && planning_margin <= 1.0) {
            return Err(ClusterError::InvalidSpec(
                "planning margin must be in (0, 1]".into(),
            ));
        }
        if duration.is_zero() {
            return Err(ClusterError::InvalidSpec(
                "duration must be non-zero".into(),
            ));
        }
        tree.validate()?;
        let faults =
            TreeFaultSchedule::resolve(&tree, tree_faults).map_err(ClusterError::InvalidSpec)?;

        let rec = powadapt_obs::current();

        let mut controllers: Vec<AdaptiveController> = Vec::with_capacity(enclosures.len());
        let mut flat: Vec<(usize, usize)> = Vec::new();
        for (e, enc) in enclosures.into_iter().enumerate() {
            if enc.devices.is_empty() {
                return Err(ClusterError::InvalidSpec(format!(
                    "enclosure {} has no devices",
                    enc.name
                )));
            }
            for d in 0..enc.devices.len() {
                flat.push((e, d));
            }
            let mut ctl = AdaptiveController::new(enc.devices, enc.models)?;
            for d in 0..ctl.devices().len() {
                let track = powadapt_obs::intern(&format!("{}.dev{d}", enc.name));
                ctl.device_mut(d).set_recorder(rec.clone(), track);
            }
            controllers.push(ctl);
        }

        let start = controllers[0].devices()[0].now();
        for ctl in &controllers {
            for d in ctl.devices() {
                if d.now() != start {
                    return Err(ClusterError::InvalidSpec(
                        "devices must start at a common time".into(),
                    ));
                }
            }
        }
        let t_end = start + duration;

        // Tenant streams and accounts, seeded per tenant.
        let mut streams: Vec<TenantStream> = Vec::with_capacity(tenants.len());
        let mut accounts: Vec<TenantAccount> = Vec::with_capacity(tenants.len());
        for (i, t) in tenants.iter().enumerate() {
            let stream_seed = powadapt_sim::SimRng::stream_seed(seed, i as u64);
            let stream =
                TenantStream::new(t, duration, stream_seed).map_err(ClusterError::InvalidSpec)?;
            streams.push(stream);
            accounts.push(TenantAccount {
                window: SloWindow::new(),
                submitted: 0,
                dropped: 0,
            });
        }
        let pending: Vec<Option<Arrival>> = streams.iter_mut().map(Iterator::next).collect();

        let n_nodes = tree.len();
        let ledger = EnergyLedger::new(leaves.len(), tenants.len(), start, rec.clone());
        let node_tracks = tree_node_tracks(&tree);

        // The placement tier sees devices as slots: rack ordinal (the
        // anti-affinity domain), capacity, and whether the device is a
        // cold target (HDD class — meant to absorb cold data and spin
        // down between batch windows).
        let racks: Vec<NodeId> = tree
            .node_ids()
            .filter(|&id| tree.kind(id) == NodeKind::Rack)
            .collect();
        let enc_rack: Vec<u32> = leaves
            .iter()
            .enumerate()
            .map(|(e, &leaf)| {
                racks
                    .iter()
                    .position(|&r| r == leaf || tree.ancestors(leaf).contains(&r))
                    .map_or(e as u32, |p| p as u32)
            })
            .collect();
        let place = match placement {
            None => None,
            Some(cfg) => {
                cfg.validate().map_err(ClusterError::InvalidSpec)?;
                let slots: Vec<DeviceSlot> = flat
                    .iter()
                    .map(|&(e, d)| {
                        let spec = controllers[e].devices()[d].spec();
                        DeviceSlot {
                            rack: enc_rack[e],
                            capacity: spec.capacity(),
                            cold_target: spec.class() == DeviceClass::Hdd,
                        }
                    })
                    .collect();
                Some(PlacementTier::new(cfg, slots))
            }
        };
        Ok(ClusterSim {
            tree,
            leaves,
            tenants,
            policy,
            control_interval,
            sample_interval,
            planning_margin,
            duration,
            flat,
            start,
            t_end,
            controllers,
            streams,
            pending,
            accounts,
            node_tracks,
            node_max: vec![0.0; n_nodes],
            node_sum: vec![0.0; n_nodes],
            node_samples: 0,
            last_grants: vec![0.0; n_nodes],
            rebalance_rounds: 0,
            replans: 0,
            infeasible_rounds: 0,
            owners: BTreeMap::new(),
            next_id: 0,
            next_control: start + control_interval,
            next_sample: start,
            faults,
            ledger,
            place,
            mig_bytes: 0,
            now: start,
            stepper: Stepper::default(),
            eager: Vec::new(),
            holders_scratch: Vec::new(),
            rec,
        })
    }

    fn apply_initial_policy(&mut self) -> Result<(), ClusterError> {
        match self.policy {
            SelectionPolicy::UniformStatic => {
                // The naive contract: every device gets an equal slice of
                // the cluster's physical cap, decided once, never revisited.
                for e in 0..self.controllers.len() {
                    self.apply_uniform_share(e)?;
                }
                // Report the share totals as the tree's static "grants".
                let share_w = self.uniform_share_w();
                for (leaf, ctl) in self.leaves.iter().zip(&self.controllers) {
                    self.last_grants[leaf.0] = share_w * ctl.devices().len() as f64;
                }
                for id in self.tree.node_ids() {
                    let descendants_sum: f64 = self
                        .leaves
                        .iter()
                        .filter(|l| self.tree.ancestors(**l).contains(&id))
                        .map(|l| self.last_grants[l.0])
                        .sum();
                    if descendants_sum > 0.0 {
                        self.last_grants[id.0] = descendants_sum;
                    }
                }
            }
            SelectionPolicy::ModelDriven => {
                self.control_round(self.start)?;
                self.rebalance_rounds += 1;
            }
        }
        Ok(())
    }

    /// Advances the simulation until the next event would land at or past
    /// `limit` (clamped to the run's end). The state after `run_to` is
    /// exactly the state mid-loop of an uninterrupted run: snapshotting
    /// here and resuming continues bit-for-bit.
    ///
    /// The loop steps at arrivals, sample and control ticks, tree-fault
    /// transitions and the events of the eager devices (see
    /// [`Stepper`](powadapt_io::Stepper) for why the others may lag). It
    /// stops after the last such step before `limit` and catches every
    /// device up to that `now`. A lagging device's events between `now`
    /// and `limit` run at the next step, in this process or after a
    /// resume, in one advance, so where a slice ends moves no report.
    ///
    /// # Errors
    ///
    /// Propagates controller, device, and tree failures.
    pub fn run_to(&mut self, limit: SimTime) -> Result<(), ClusterError> {
        let limit = limit.min(self.t_end);
        loop {
            // Next event time across arrivals, eager devices, the two
            // tickers, and scheduled tree-fault transitions.
            let mut t = self.next_sample.min(self.next_control);
            if let Some(ft) = self.faults.next_transition() {
                t = t.min(self.now.max(ft));
            }
            for a in self.pending.iter().flatten() {
                t = t.min(self.start.max(a.at));
            }
            if let Some(w) = self.stepper.next_wake_among(&self.eager) {
                t = t.min(w);
            }
            if t >= limit {
                break;
            }
            self.step_at(t)?;
            self.now = t;
        }
        // A caller may snapshot here: every device is level with `now` and
        // every SLO window is sorted, as the codec requires.
        self.stepper
            .catch_up_all(flat_devices(&mut self.controllers), self.now);
        for a in &mut self.accounts {
            a.window.settle();
        }
        Ok(())
    }

    /// Runs to the end of the configured duration and produces the report.
    ///
    /// # Errors
    ///
    /// Propagates controller, device, and tree failures.
    pub fn finish(mut self) -> Result<ClusterReport, ClusterError> {
        self.run_to(self.t_end)?;

        // Close the run at exactly t_end: drain-by-advance, final
        // sample, and the closing ledger audit.
        self.drain_completions(self.t_end);
        self.sample_nodes(self.t_end);
        self.node_samples += 1;
        self.audit_ledger(self.t_end);

        let nodes: Vec<NodeReport> = self
            .tree
            .node_ids()
            .map(|id| NodeReport {
                path: self.tree.path(id),
                kind: self.tree.kind(id),
                cap_w: self.tree.cap_w(id),
                max_power_w: self.node_max[id.0],
                mean_power_w: self.node_sum[id.0] / self.node_samples as f64,
                granted_w: self.last_grants[id.0],
            })
            .collect();
        let tenant_reports: Vec<TenantReport> = self
            .tenants
            .iter()
            .zip(&mut self.accounts)
            .map(|(t, a)| TenantReport {
                name: t.name.clone(),
                submitted: a.submitted,
                served: a.window.len() as u64,
                bytes: a.window.bytes(),
                dropped: a.dropped,
                mean_latency_us: a.window.mean_latency().map_or(0.0, Micros::get),
                p99_latency_us: a.window.p99_latency().map_or(0.0, Micros::get),
                slo_ok: a.window.satisfies(&t.slo, self.duration),
            })
            .collect();
        let total_bytes: u64 = tenant_reports.iter().map(|t| t.bytes).sum();
        let served_ios: u64 = tenant_reports.iter().map(|t| t.served).sum();
        let dropped: u64 = tenant_reports.iter().map(|t| t.dropped).sum();
        let (migrations_started, migrations_completed) =
            self.place.as_ref().map_or((0, 0), |tier| {
                (tier.engine().started(), tier.engine().completed())
            });

        Ok(ClusterReport {
            policy: self.policy,
            nodes,
            tenants: tenant_reports,
            duration: self.duration,
            total_bytes,
            served_ios,
            rebalance_rounds: self.rebalance_rounds,
            replans: self.replans,
            infeasible_rounds: self.infeasible_rounds,
            dropped,
            migrations_started,
            migrations_completed,
            migration_bytes: self.mig_bytes,
            total_joules: self.ledger.total_joules(),
            system_joules: self.ledger.system_fj() as f64 * 1e-15,
            idle_joules: self.ledger.idle_fj() as f64 * 1e-15,
        })
    }

    /// One loop-body iteration at event time `t`: advance the due devices,
    /// admit arrivals, process tree-fault transitions, run the control
    /// round and power sampling when due.
    fn step_at(&mut self, t: SimTime) -> Result<(), ClusterError> {
        // Only migration completions, waiting legs and the placement
        // round change which devices are eager.
        let mut moved = self.drain_completions(t) || self.legs_waiting();
        self.flush_migration_legs(t)?;
        self.admit_arrivals(t)?;

        // A breaker trip or restore forces an immediate control round so
        // the surviving subtree is re-planned on the spot instead of
        // waiting out the control interval.
        let forced = self.faults.next_transition().is_some_and(|ft| ft <= t);
        if t >= self.next_control || forced {
            // Fault handling and re-plans may act on any device, and a
            // device acts (and emits) at its own clock.
            self.stepper
                .catch_up_all(flat_devices(&mut self.controllers), t);
            self.process_tree_faults(t);
            // The placement tier ticks first so this round's controller
            // re-plans see fresh standby pins and freshly started moves.
            self.place_round(t)?;
            if self.policy == SelectionPolicy::ModelDriven {
                self.control_round(t)?;
                self.rebalance_rounds += 1;
            }
            // The ledger audits on the control cadence under both
            // policies: attribution and conservation are properties of
            // the cluster, not of the model-driven controller.
            self.audit_ledger(t);
            self.next_control = t + self.control_interval;
            self.stepper.touch_all(flat_devices(&mut self.controllers));
            moved = true;
        }
        if moved {
            self.refresh_eager();
        }

        if t >= self.next_sample {
            self.sample_nodes(t);
            self.node_samples += 1;
            self.next_sample = t + self.sample_interval;
        }
        Ok(())
    }

    /// Advances the due devices to `t`, in device order, crediting
    /// completions to their tenants' SLO windows and finished migration
    /// legs to the placement tier. Returns whether a leg finished.
    fn drain_completions(&mut self, t: SimTime) -> bool {
        let mut legs_done = false;
        for (gi, &(e, d)) in self.flat.iter().enumerate() {
            let done = self.stepper.drain(gi, self.controllers[e].device_mut(d), t);
            for c in done {
                match self.owners.remove(&c.id.0) {
                    Some(IoOwner::Tenant(tenant)) => {
                        let latency_us =
                            c.completed.duration_since(c.submitted).as_secs_f64() * 1e6;
                        self.accounts[tenant]
                            .window
                            .observe(Micros::new(latency_us), c.len);
                    }
                    // A finished read queues the move's write leg; a
                    // finished write commits the move.
                    Some(IoOwner::Migration(m)) => {
                        legs_done = true;
                        self.mig_bytes += c.len;
                        let tier = self.place.as_mut();
                        if let Some(m) = tier.and_then(|tier| tier.migration_leg_done(m)) {
                            emit!(
                                self.rec,
                                t,
                                "placement",
                                EventKind::MigrationCompleted {
                                    extent: m.extent,
                                    from: m.from,
                                    to: m.to,
                                }
                            );
                        }
                    }
                    None => {}
                }
            }
        }
        legs_done
    }

    /// True while a migration leg waits for a device.
    fn legs_waiting(&self) -> bool {
        self.place
            .as_ref()
            .is_some_and(|tier| !tier.engine().legs().is_empty())
    }

    /// Marks the devices whose completions the cluster must act on at
    /// their own time: the device of every move's current leg, and every
    /// device while a leg waits for one (each step retries it).
    fn refresh_eager(&mut self) {
        let all = self.legs_waiting();
        self.eager.clear();
        self.eager.resize(self.flat.len(), all);
        if all {
            return;
        }
        for m in self.place.iter().flat_map(|tier| tier.engine().moves()) {
            if let Some(dev) = m.leg_device() {
                self.eager[dev as usize] = true;
            }
        }
    }

    /// Submits every waiting migration leg its device will take right
    /// now, oldest first. Dark feeds and transient refusals re-queue the
    /// leg for a later step; migration destinations in standby wake on
    /// submit (the device-level auto-wake), which is the intended drain
    /// path.
    fn flush_migration_legs(&mut self, t: SimTime) -> Result<(), ClusterError> {
        let waiting = self
            .place
            .as_ref()
            .map_or(0, |tier| tier.engine().legs().len());
        for _ in 0..waiting {
            let Some(m) = self.place.as_mut().and_then(PlacementTier::pop_leg) else {
                break;
            };
            let Some(gi) = m.leg_device().map(|dev| dev as usize) else {
                continue;
            };
            let kind = if m.phase == MigrationPhase::Writing {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let arrival = Arrival {
                at: t,
                kind,
                offset: m.offset,
                len: m.len,
            };
            let (e, _) = self.flat[gi];
            if !self.faults.is_down(&self.tree, self.leaves[e]) {
                let id = self.next_id;
                self.next_id += 1;
                if self.try_submit(gi, id, &arrival, t)? {
                    self.owners.insert(id, IoOwner::Migration(m.id));
                    continue;
                }
            }
            if let Some(tier) = self.place.as_mut() {
                tier.defer_leg(m.id);
            }
        }
        Ok(())
    }

    /// One placement-tier round, run on the control cadence before the
    /// controller re-plans: ticks the tier (consolidation planning, rate-
    /// limited move starts, standby-pin refresh), submits the waiting
    /// legs, the started moves' source reads among them, and syncs the
    /// pin set into the enclosure controllers (a flipped pin makes the
    /// controller re-plan at its next round, whatever the grant).
    fn place_round(&mut self, now: SimTime) -> Result<(), ClusterError> {
        if self.place.is_none() {
            return Ok(());
        }
        // Devices whose feed is up and which are not quarantined may
        // carry migration IO this round. Routability is deliberately not
        // required: a consolidation destination parked in standby must
        // still accept its drain writes (waking to do so).
        let allowed: Vec<bool> = self
            .flat
            .iter()
            .map(|&(e, d)| {
                !self.faults.is_down(&self.tree, self.leaves[e])
                    && !self.controllers[e].is_quarantined(d)
            })
            .collect();
        let starts = {
            let Some(tier) = self.place.as_mut() else {
                return Ok(());
            };
            tier.tick(now, &allowed)
        };
        if let Some(tier) = self.place.as_ref() {
            for &id in &starts {
                if let Some(m) = tier.engine().get(id) {
                    emit!(
                        self.rec,
                        now,
                        "placement",
                        EventKind::MigrationStarted {
                            extent: m.extent,
                            from: m.from,
                            to: m.to,
                        }
                    );
                }
            }
            for (&(e, d), &p) in self.flat.iter().zip(tier.pinned()) {
                self.controllers[e].set_pinned_standby(d, p);
            }
        }
        self.flush_migration_legs(now)
    }

    /// Admits arrivals due at or before `t`, merged across tenants in
    /// (time, tenant index) order.
    fn admit_arrivals(&mut self, t: SimTime) -> Result<(), ClusterError> {
        loop {
            let due = self
                .pending
                .iter()
                .enumerate()
                .filter_map(|(i, a)| a.map(|a| (self.start.max(a.at), i)))
                .min();
            let Some((at, tenant)) = due else { break };
            if at > t {
                break;
            }
            let Some(arrival) = self.pending[tenant].take() else {
                break;
            };
            self.pending[tenant] = self.streams[tenant].next();
            self.submit_arrival(&arrival, tenant, t)?;
        }
        Ok(())
    }

    /// Routes and submits one arrival: through the placement tier's
    /// extent catalog when configured (writes to the extent's primary,
    /// reads to any awake holder), otherwise to the least-loaded serving
    /// device. Either way, spun-down and quarantined devices are routed
    /// *around* — visibly, via [`EventKind::RoutedAround`] — instead of
    /// paying a hidden spin-up on the request path.
    fn submit_arrival(
        &mut self,
        arrival: &Arrival,
        tenant: usize,
        now: SimTime,
    ) -> Result<(), ClusterError> {
        let id = self.next_id;
        self.next_id += 1;

        // Placement-aware routing: resolve the arrival to its extent's
        // holder list. Reads of never-written extents fall through to the
        // legacy router below.
        let mut holders = std::mem::take(&mut self.holders_scratch);
        holders.clear();
        let mut placement_routed = false;
        if let Some(tier) = self.place.as_mut() {
            match arrival.kind {
                IoKind::Write => {
                    let placed = tier.route_write(tenant as u32, arrival.offset, arrival.len, now);
                    if placed.newly_placed {
                        emit!(
                            self.rec,
                            now,
                            "placement",
                            EventKind::PlacementDecision {
                                extent: placed.extent,
                                primary: placed.primary,
                                replicas: placed.replicas,
                            }
                        );
                    }
                    holders.push(placed.primary);
                    placement_routed = true;
                }
                IoKind::Read => {
                    placement_routed = tier.read_holders(
                        tenant as u32,
                        arrival.offset,
                        arrival.len,
                        now,
                        &mut holders,
                    );
                }
            }
        }
        if !placement_routed {
            // Least-loaded serving device; ties break to the lowest
            // index. A transient refusal moves on to the next candidate;
            // exhausting all of them drops the arrival (open loop does not
            // retry later).
            holders.clear();
            holders.extend((0..self.flat.len() as u32).filter(|&i| {
                let (e, d) = self.flat[i as usize];
                self.controllers[e].serves(d)
            }));
            holders.sort_by_key(|&i| {
                let (e, d) = self.flat[i as usize];
                (self.controllers[e].devices()[d].inflight(), i)
            });
        }
        // First pass: candidates that serve and are fully awake, in
        // preference order (primary first, or least loaded first).
        let mut skipped = 0u32;
        let mut submitted = false;
        for &h in &holders {
            let gi = h as usize;
            let (e, d) = self.flat[gi];
            let awake = self.controllers[e].devices()[d].standby_state() == StandbyState::Active;
            if !self.controllers[e].serves(d) || !awake || self.controllers[e].is_quarantined(d) {
                skipped += 1;
                continue;
            }
            if self.try_submit(gi, id, arrival, now)? {
                submitted = true;
                break;
            }
        }
        if placement_routed && !submitted {
            // Every holder is asleep, parked, or refused: the data lives
            // nowhere else, so wake a holder (primary first) — the
            // legitimate spin-up a cold read pays.
            for &h in &holders {
                let gi = h as usize;
                let (e, d) = self.flat[gi];
                if self.faults.is_down(&self.tree, self.leaves[e])
                    || self.controllers[e].is_quarantined(d)
                {
                    continue;
                }
                if self.try_submit(gi, id, arrival, now)? {
                    submitted = true;
                    break;
                }
            }
        }
        holders.clear();
        self.holders_scratch = holders;
        if skipped > 0 {
            let track = if placement_routed {
                "placement"
            } else {
                "cluster"
            };
            emit!(
                self.rec,
                now,
                track,
                EventKind::RoutedAround { id, skipped }
            );
        }
        if submitted {
            self.owners.insert(id, IoOwner::Tenant(tenant));
            self.accounts[tenant].submitted += 1;
        } else {
            self.accounts[tenant].dropped += 1;
            emit!(self.rec, now, "cluster", EventKind::ArrivalDropped { id });
        }
        Ok(())
    }

    /// Submits `arrival` as request `id` against flat device `gi` at step
    /// time `t` through the stepper. Returns whether the device accepted
    /// it; transient refusals report `false`, hard failures propagate.
    fn try_submit(
        &mut self,
        gi: usize,
        id: u64,
        arrival: &Arrival,
        t: SimTime,
    ) -> Result<bool, ClusterError> {
        let (e, d) = self.flat[gi];
        let dev = self.controllers[e].device_mut(d);
        match self.stepper.submit(gi, dev, t, IoId(id), arrival) {
            Ok(()) => Ok(true),
            Err(e) if e.is_transient() => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Fires every due tree-fault transition: a trip takes the subtree's
    /// enclosures dark (the feed is gone, so the subtree sheds its load),
    /// a restore brings them back.
    fn process_tree_faults(&mut self, t: SimTime) {
        for ev in self.faults.due(t) {
            match ev {
                TreeFaultEvent::Trip(node) => {
                    emit!(
                        self.rec,
                        t,
                        "tree",
                        EventKind::BreakerTrip {
                            node: self.tree.path(node)
                        }
                    );
                    for e in self.enclosures_under(node) {
                        self.controllers[e].set_feed(false);
                    }
                }
                TreeFaultEvent::Restore(node) => {
                    emit!(
                        self.rec,
                        t,
                        "tree",
                        EventKind::BreakerRestore {
                            node: self.tree.path(node)
                        }
                    );
                    for e in self.enclosures_under(node) {
                        // Another window may still hold this leaf down.
                        if self.faults.is_down(&self.tree, self.leaves[e]) {
                            continue;
                        }
                        self.controllers[e].set_feed(true);
                        // The static policy has no control round to
                        // recover with; its share is best effort here.
                        if self.policy == SelectionPolicy::UniformStatic {
                            let _ = self.apply_uniform_share(e);
                        }
                    }
                }
            }
        }
    }

    /// Enclosure indices whose leaf sits at or under `node`.
    fn enclosures_under(&self, node: NodeId) -> Vec<usize> {
        self.leaves
            .iter()
            .enumerate()
            .filter(|&(_, &leaf)| leaf == node || self.tree.ancestors(leaf).contains(&node))
            .map(|(e, _)| e)
            .collect()
    }

    /// Each device's equal slice of the cluster's physical cap.
    fn uniform_share_w(&self) -> f64 {
        self.tree.cap_w(self.tree.root_id()) / self.flat.len() as f64
    }

    /// Applies the uniform static share to enclosure `e`, at the start of
    /// the run and again whenever its feed returns: a device whose share
    /// affords a configuration serves; the others do not.
    fn apply_uniform_share(&mut self, e: usize) -> Result<(), DeviceError> {
        let choices = uniform_choices(self.controllers[e].models(), self.uniform_share_w());
        self.controllers[e].apply_choices(&choices)
    }

    /// One demand → rebalance → re-plan round of the model-driven policy.
    fn control_round(&mut self, now: SimTime) -> Result<(), ClusterError> {
        let down: Vec<bool> = self
            .leaves
            .iter()
            .map(|&leaf| self.faults.is_down(&self.tree, leaf))
            .collect();

        // Demands: the floor is structural; the want tracks backlog — a
        // busy enclosure asks for its ceiling, an idle one releases
        // everything above its floor back to the tree. A dark enclosure
        // (tripped feed) demands nothing at all: its budget flows to the
        // survivors.
        let demands: Vec<Demand> = self
            .controllers
            .iter()
            .zip(&down)
            .map(|(ctl, &is_down)| {
                if is_down {
                    return Demand {
                        floor_w: 0.0,
                        want_w: 0.0,
                    };
                }
                let busy = ctl.devices().iter().any(|d| d.inflight() > 0);
                let models = ctl.models();
                let floor_w = fleet_floor_w(models);
                Demand {
                    floor_w,
                    want_w: if busy { fleet_max_w(models) } else { floor_w },
                }
            })
            .collect();

        let grants = self.tree.rebalance(&demands, self.planning_margin)?;
        for id in self.tree.node_ids() {
            let g = grants[id.0];
            self.last_grants[id.0] = g.granted_w;
            emit!(
                self.rec,
                now,
                "tree",
                EventKind::RebalanceDecision(Box::new(powadapt_obs::RebalanceDecision {
                    node: self.tree.path(id),
                    cap_w: g.cap_w,
                    granted_w: g.granted_w,
                    demand_w: g.demand_w,
                }))
            );
        }

        for (e, leaf) in self.leaves.iter().enumerate() {
            // A dark enclosure keeps its zero grant; nothing to apply.
            if down[e] {
                continue;
            }
            match self.controllers[e].replan(grants[leaf.0].granted_w) {
                Ok(replanned) => self.replans += u64::from(replanned),
                // A grant below the enclosure floor keeps the previous
                // configuration: the tree guarantees floors when feasible,
                // so this only happens under pathological margins.
                Err(ControlError::Infeasible { .. }) => self.infeasible_rounds += 1,
                // Every device refused for now (a dropout, say): the
                // enclosure sits this round out like a dark one and is
                // re-planned next round.
                Err(ControlError::Device(err)) if err.is_transient() => {}
                Err(err) => return Err(err.into()),
            }
        }
        Ok(())
    }

    /// Samples every node's subtree power and records max/mean, emitting
    /// Perfetto counter tracks for rack-level nodes. The energy ledger
    /// accrues over the closing interval with the powers it was holding,
    /// then takes over the fresh measurements.
    fn sample_nodes(&mut self, now: SimTime) {
        self.ledger.accrue(now);
        let mut power = vec![0.0f64; self.tree.len()];
        let mut leaf_watts = Vec::with_capacity(self.leaves.len());
        for (leaf, ctl) in self.leaves.iter().zip(&self.controllers) {
            let p = ctl.measured_power_w();
            leaf_watts.push(p);
            power[leaf.0] += p;
            for anc in self.tree.ancestors(*leaf) {
                power[anc.0] += p;
            }
        }
        self.ledger.set_powers(&leaf_watts);
        for id in self.tree.node_ids() {
            let p = power[id.0];
            self.node_max[id.0] = self.node_max[id.0].max(p);
            self.node_sum[id.0] += p;
            if self.tree.kind(id) == NodeKind::Rack {
                emit!(
                    self.rec,
                    now,
                    self.node_tracks[id.0],
                    EventKind::PowerSample { watts: p }
                );
            }
        }
    }

    /// One ledger audit round: attribute the interval's energy to the
    /// tenants by bytes moved and verify conservation against the tree.
    fn audit_ledger(&mut self, now: SimTime) {
        // The ledger reads a tenant's p99 only against a p99 ceiling, and
        // only a read of the p99 sorts the window.
        let usage: Vec<TenantUsage<'_>> = self
            .tenants
            .iter()
            .zip(&mut self.accounts)
            .map(|(t, a)| {
                let slo_p99_us = t.slo.max_p99_latency();
                TenantUsage {
                    name: &t.name,
                    bytes: a.window.bytes(),
                    p99_latency_us: slo_p99_us
                        .and_then(|_| a.window.p99_latency())
                        .map(Micros::get),
                    slo_p99_us,
                }
            })
            .collect();
        // Grant enforcement only applies to grants the tree actually
        // made: the static baseline's shares ignore the tree by design.
        let enforce = self.policy == SelectionPolicy::ModelDriven;
        self.ledger.audit(
            now,
            &self.tree,
            &self.leaves,
            &self.last_grants,
            enforce,
            &usage,
            self.mig_bytes,
        );
    }

    /// The energy-attribution ledger's current accounts.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The placement tier, when the spec configured one.
    pub fn placement(&self) -> Option<&PlacementTier> {
        self.place.as_ref()
    }
}

// The cluster's complete dynamic state: event-loop cursors, accounting
// vectors, in-flight ownership, tenant streams and SLO windows, every
// controller (devices, health, quarantine, serving set, applied budget),
// the tree-fault phases, the ledger, and the placement tier with its
// migration legs.
// Configuration — topology, models, tenants, intervals — is rebuilt from
// the spec on resume.
powadapt_snap::snapshot! {
    ClusterSim {
        now,
        next_id,
        next_control,
        next_sample,
        rebalance_rounds,
        replans,
        infeasible_rounds,
        node_samples,
        node_max: seq,
        node_sum: seq,
        last_grants: seq,
        owners,
        streams: seq_state,
        pending: seq,
        accounts: seq,
        controllers: seq_state,
        faults: state,
        ledger: state,
        mig_bytes,
        place: state,
    }
    skip {
        tree: "spec config: the power topology",
        leaves: "derived from the tree",
        node_tracks: "telemetry labels, derived from the tree",
        tenants: "spec config",
        policy: "spec config",
        control_interval: "spec config",
        sample_interval: "spec config",
        planning_margin: "spec config",
        duration: "spec config",
        flat: "derived from the enclosures",
        start: "derived from the devices",
        t_end: "derived from the spec",
        stepper: "derived: the wake cache is rebuilt from the devices, every device touched",
        eager: "derived from the placement tier's moves and waiting legs",
        holders_scratch: "per-arrival scratch",
        rec: "telemetry sink, captured at construction",
    }
    after restore_clock, restore_owners, restore_wake
}

impl ClusterSim {
    fn restore_wake(&mut self) -> Result<(), SnapError> {
        self.stepper.touch_all(flat_devices(&mut self.controllers));
        self.refresh_eager();
        Ok(())
    }

    fn restore_clock(&mut self) -> Result<(), SnapError> {
        if self.now < self.start || self.now > self.t_end {
            return Err(SnapError::InvalidValue(format!(
                "checkpoint time {:?} outside the run [{:?}, {:?}]",
                self.now, self.start, self.t_end
            )));
        }
        Ok(())
    }

    /// Every in-flight IO sits below the next request id and belongs to a
    /// tenant of the spec or to a migration leg: exactly one IO for each
    /// started move whose leg is not waiting for a device.
    fn restore_owners(&mut self) -> Result<(), SnapError> {
        let mut owned = Vec::new();
        for (&id, &owner) in &self.owners {
            if id >= self.next_id {
                return Err(SnapError::InvalidValue(format!(
                    "in-flight IO {id} at or past the next request id {}",
                    self.next_id
                )));
            }
            match owner {
                IoOwner::Tenant(t) if t < self.tenants.len() => {}
                IoOwner::Tenant(t) => {
                    return Err(SnapError::InvalidValue(format!(
                        "in-flight IO {id} owned by tenant {t}, cluster has {}",
                        self.tenants.len()
                    )))
                }
                IoOwner::Migration(m) => owned.push(m),
            }
        }
        owned.sort_unstable();
        let held: Vec<u64> = self
            .place
            .iter()
            .map(PlacementTier::engine)
            .flat_map(|engine| {
                engine
                    .moves()
                    .filter(|m| m.leg_device().is_some() && !engine.legs().contains(&m.id))
                    .map(|m| m.id)
            })
            .collect();
        if owned != held {
            return Err(SnapError::InvalidValue(format!(
                "migration IOs in flight for moves {owned:?}, but devices hold the legs of {held:?}"
            )));
        }
        Ok(())
    }
}

/// Runs a cluster to completion.
///
/// Equivalent to driving a [`ClusterSim`] from [`ClusterSim::new`]
/// straight through [`ClusterSim::finish`] — checkpoint/resume flows hold
/// the object instead.
///
/// # Errors
///
/// [`ClusterError::InvalidSpec`] for shape problems (enclosure/leaf
/// mismatch, empty tenants, zero intervals), [`ClusterError::Tree`] for
/// tree misconfiguration, [`ClusterError::Control`]/
/// [`ClusterError::Device`] when a controller or device fails
/// non-transiently.
pub fn run_cluster(spec: ClusterSpec) -> Result<ClusterReport, ClusterError> {
    ClusterSim::new(spec)?.finish()
}
