//! Event-driven SSD simulator.
//!
//! The model decomposes the drive into the components that dominate power:
//!
//! - a **controller** that processes one command at a time,
//! - a **host interface** that serializes data transfers at a fixed
//!   bandwidth,
//! - an array of **NAND dies** that execute page reads and multi-plane
//!   programs, each drawing power while busy,
//! - a **DRAM write buffer** that acknowledges writes early and is drained
//!   by background program operations (with write amplification), and
//! - a **power-cap governor** that delays new work whenever the trailing
//!   window average would exceed the selected power state's cap.
//!
//! The interplay of these components reproduces the paper's findings
//! organically: caps throttle writes much more than reads (programs draw
//! more power than reads), deep queues activate more dies (more power),
//! small chunks bottleneck on the controller (less power, less throughput),
//! and capped flush bursts delay command processing (latency tails).

mod config;

pub use config::SsdConfig;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use powadapt_obs::{emit, span, EventKind, RecorderHandle};
use powadapt_sim::{EventQueue, RollingMean, SimDuration, SimRng, SimTime, Slab};
use powadapt_snap::{
    restore_len, Codec, Restore, SnapError, SnapReader, SnapWriter, Snapshot, Wire, WireWith,
};

use crate::device::StorageDevice;
use crate::error::DeviceError;
use crate::io::{InflightIds, IoCompletion, IoId, IoKind, IoRequest, MIB};
use crate::power::{
    PowerStateDesc, PowerStateId, StandbyConfig, StandbyDepth, StandbyPhase, StandbyState,
};
use crate::spec::DeviceSpec;

/// Governor retry cadence when starts are blocked by a power cap.
const RETRY_INTERVAL: SimDuration = SimDuration::from_micros(200);
/// Chunk length treated as "large" for write-amplification purposes.
const LARGE_WRITE: u64 = MIB;
/// Smallest chunk of the paper's sweep; anchors the WAF interpolation.
const SMALL_WRITE: u64 = 4 * 1024;

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: IoId,
    kind: IoKind,
    offset: u64,
    len: u64,
    submitted: SimTime,
    /// Write amplification assigned when the command executed.
    waf: f64,
}

impl Pending {
    fn end(&self) -> u64 {
        self.offset + self.len
    }
}

powadapt_snap::codec! { Pending { id, kind, offset, len, submitted, waf } }

#[derive(Debug, Clone, Copy)]
enum DieWork {
    /// One page read belonging to an in-flight read, by its `reads`-slab
    /// slot: an O(1) handle on the hot completion path. Checkpoints carry
    /// the read's id instead (see [`ReadIds`]).
    Read(usize),
    /// One (possibly partial) program unit of buffer drain.
    Program,
}

powadapt_snap::codec! { enum DieWork { 0 => Read(slot), 1 => Program } }

#[derive(Debug, Clone, Copy)]
struct Transfer {
    pending: Pending,
}

powadapt_snap::codec! { Transfer { pending } }

#[derive(Debug)]
enum Ev {
    CmdDone(Pending),
    IfaceDone(Transfer),
    Complete(Pending),
    DieDone { die: usize, work: DieWork },
    StandbyDone,
    NoiseTick,
    RetryTick,
    IdleFlush,
}

/// The event queue's FIFO lanes, one per event class scheduled a fixed
/// delay ahead, so the class arrives in time order: die reads wait
/// `read_op`, full program units `program_op`, commits `read_post` or
/// `write_commit`, and the controller and host interface have at most one
/// event pending each. A partial program unit or a read commit after a
/// slower write commit lands out of order and the queue puts it on its
/// heap; timers always go there.
mod lane {
    pub(super) const DIE_READ: usize = 0;
    pub(super) const DIE_PROGRAM: usize = 1;
    pub(super) const COMPLETE: usize = 2;
    pub(super) const CMD: usize = 3;
    pub(super) const IFACE: usize = 4;
}

const _: () = assert!(lane::IFACE < EventQueue::<Ev>::LANES);

powadapt_snap::codec! {
    enum Ev {
        0 => CmdDone(p),
        1 => IfaceDone(t),
        2 => Complete(p),
        3 => DieDone { die, work },
        4 => StandbyDone,
        5 => NoiseTick,
        6 => RetryTick,
        7 => IdleFlush,
    }
}

#[derive(Debug)]
struct ReadState {
    pending: Pending,
    remaining: usize,
}

powadapt_snap::codec! { ReadState { pending, remaining } }

/// Wire form of the in-flight read table: `(id, read)` pairs in id order,
/// so the bytes never depend on which arena slot a read landed in.
struct ReadTable;

impl Wire<Slab<ReadState>> for ReadTable {
    fn encode(reads: &Slab<ReadState>, w: &mut SnapWriter) {
        let mut table: Vec<&ReadState> = reads.iter().map(|(_, rs)| rs).collect();
        table.sort_unstable_by_key(|rs| rs.pending.id.0);
        w.seq_len(table.len());
        for rs in table {
            rs.pending.id.encode(w);
            rs.encode(w);
        }
    }

    fn restore(reads: &mut Slab<ReadState>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.seq_len()?;
        reads.clear();
        let mut ids = BTreeSet::new();
        for _ in 0..n {
            let id = IoId::decode(r)?;
            let rs = ReadState::decode(r)?;
            if id.0 != rs.pending.id.0 || !ids.insert(id.0) {
                return Err(SnapError::InvalidValue(format!(
                    "duplicate or mismatched read id {}",
                    id.0
                )));
            }
            reads.insert(rs);
        }
        Ok(())
    }
}

/// Wire form of die work that names an in-flight read by `reads`-slab
/// slot, in the event and die queues: the read's id, because slots
/// depend on the arena's freelist history. Restore maps each id to the
/// slot its read occupies in the restored table.
struct ReadIds;

impl ReadIds {
    fn id(reads: &Slab<ReadState>, slot: usize) -> Result<usize, SnapError> {
        reads
            .get(slot)
            .map(|rs| rs.pending.id.0 as usize)
            .ok_or_else(|| SnapError::InvalidValue(format!("vacant read slot {slot} referenced")))
    }

    fn slots(reads: &Slab<ReadState>) -> BTreeMap<usize, usize> {
        reads
            .iter()
            .map(|(slot, rs)| (rs.pending.id.0 as usize, slot))
            .collect()
    }

    fn slot(slot_of: &BTreeMap<usize, usize>, id: usize) -> Result<usize, SnapError> {
        slot_of
            .get(&id)
            .copied()
            .ok_or_else(|| SnapError::InvalidValue(format!("unknown in-flight read id {id}")))
    }
}

impl WireWith<EventQueue<Ev>, Slab<ReadState>> for ReadIds {
    fn encode(
        events: &EventQueue<Ev>,
        reads: &Slab<ReadState>,
        w: &mut SnapWriter,
    ) -> Result<(), SnapError> {
        events.write_state(w, |w, ev| {
            match *ev {
                Ev::DieDone {
                    die,
                    work: DieWork::Read(slot),
                } => Ev::DieDone {
                    die,
                    work: DieWork::Read(Self::id(reads, slot)?),
                }
                .encode(w),
                ref other => other.encode(w),
            }
            Ok(())
        })
    }

    fn restore(
        events: &mut EventQueue<Ev>,
        reads: &Slab<ReadState>,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let slot_of = Self::slots(reads);
        events.read_state(r, |r| {
            let mut ev = Ev::decode(r)?;
            if let Ev::DieDone {
                work: DieWork::Read(id),
                ..
            } = &mut ev
            {
                *id = Self::slot(&slot_of, *id)?;
            }
            Ok(ev)
        })
    }
}

impl WireWith<Vec<VecDeque<usize>>, Slab<ReadState>> for ReadIds {
    fn encode(
        die_q: &Vec<VecDeque<usize>>,
        reads: &Slab<ReadState>,
        w: &mut SnapWriter,
    ) -> Result<(), SnapError> {
        w.seq_len(die_q.len());
        for q in die_q {
            w.seq_len(q.len());
            for &slot in q {
                w.usize(Self::id(reads, slot)?);
            }
        }
        Ok(())
    }

    fn restore(
        die_q: &mut Vec<VecDeque<usize>>,
        reads: &Slab<ReadState>,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let slot_of = Self::slots(reads);
        restore_len(r, die_q.len(), "die_q")?;
        for q in die_q {
            q.clear();
            for _ in 0..r.seq_len()? {
                q.push_back(Self::slot(&slot_of, r.usize()?)?);
            }
        }
        Ok(())
    }
}

/// A set of dies as a bitmask: bit `d % 64` of word `d / 64` is die `d`.
#[derive(Debug, Default, PartialEq, Eq)]
struct DieMask(Vec<u64>);

impl DieMask {
    fn from_fn(dies: usize, on: impl Fn(usize) -> bool) -> Self {
        let mut mask = DieMask(vec![0; dies.div_ceil(64)]);
        for die in (0..dies).filter(|&d| on(d)) {
            mask.set(die, true);
        }
        mask
    }

    fn set(&mut self, die: usize, on: bool) {
        let bit = 1u64 << (die % 64);
        if on {
            self.0[die / 64] |= bit;
        } else {
            self.0[die / 64] &= !bit;
        }
    }

    /// Lowest die at or above `from` that is in both `self` and `other`.
    fn next_common(&self, other: &DieMask, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.0.get(w)? & other.0[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = self.0.get(w)? & other.0[w];
        }
    }

    /// Lowest die at or above `from` in the set.
    fn next(&self, from: usize) -> Option<usize> {
        self.next_common(self, from)
    }
}

/// Controller read cache: a FIFO of at most `capacity` distinct page
/// indices, oldest first. A hit does not refresh a page and capacity 0
/// caches nothing. Lookups scan `order` in full, which at the tens to
/// hundreds of pages a drive caches is cheaper than keeping an index.
#[derive(Debug)]
struct PageCache {
    order: VecDeque<u64>,
    capacity: usize,
}

powadapt_snap::codec! {
    PageCache { order }
    skip {
        capacity: "spec config; Ssd::restore_cache reapplies it",
    }
    after restore_unique
}

impl PageCache {
    fn new(capacity: usize) -> Self {
        PageCache {
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether `page` is cached; a miss caches it, evicting the oldest
    /// page when the cache is full.
    fn hit_or_insert(&mut self, page: u64) -> bool {
        let holds = |pages: &[u64]| pages.iter().fold(false, |hit, &p| hit | (p == page));
        let (front, back) = self.order.as_slices();
        if holds(front) | holds(back) {
            return true;
        }
        if self.capacity > 0 {
            if self.order.len() == self.capacity {
                self.order.pop_front();
            }
            self.order.push_back(page);
        }
        false
    }

    /// A repeated page would stay cached after its first copy is evicted.
    fn restore_unique(&mut self) -> Result<(), SnapError> {
        let mut pages = Vec::from(self.order.clone());
        pages.sort_unstable();
        match pages.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(SnapError::InvalidValue(format!(
                "duplicate cached page {}",
                w[0]
            ))),
            None => Ok(()),
        }
    }
}

/// A simulated SSD. See the [module docs](self) for the model.
///
/// # Examples
///
/// ```
/// use powadapt_device::{catalog, StorageDevice};
///
/// let dev = catalog::ssd1_pm9a3(1);
/// assert_eq!(dev.spec().label(), "SSD1");
/// assert!(dev.power_w() > 0.0);
/// ```
#[derive(Debug)]
pub struct Ssd {
    spec: DeviceSpec,
    cfg: SsdConfig,
    now: SimTime,
    events: EventQueue<Ev>,
    rng: SimRng,

    // Power accounting.
    power_now: f64,
    rolling: RollingMean,
    ps_index: usize,
    phase: StandbyPhase,
    /// Depth of the standby state in force or most recently requested;
    /// meaningful only while `phase` is not `Active`.
    depth: StandbyDepth,
    standby_requested: bool,
    noise_w: f64,
    noise_scheduled: bool,

    // Controller.
    ctrl_busy: bool,
    cmd_queue: VecDeque<Pending>,

    // Host interface.
    iface_busy: bool,
    iface_queue: VecDeque<Transfer>,

    // NAND dies. Die queues carry `reads`-slab slots so the per-page
    // completion path never walks an ordered map.
    die_busy: Vec<bool>,
    die_q: Vec<VecDeque<usize>>,
    // Dispatch indexes over the two above: dies not busy, and dies with
    // queued reads. Dispatch walks only their set bits.
    die_idle: DieMask,
    die_queued: DieMask,
    busy_read: usize,
    busy_prog: usize,

    // Write path.
    buffer_used: u64,
    nand_debt: u64,
    flushing: bool,
    buffer_waiters: VecDeque<Pending>,
    last_write_end: u64,

    // Read path: in-flight reads live in a freelist arena keyed by slot.
    reads: Slab<ReadState>,
    cache: PageCache,

    inflight_ids: InflightIds,
    done: Vec<IoCompletion>,
    retry_pending: bool,
    idle_flush_pending: bool,

    // Pure functions of the request length under this configuration,
    // remembered for the last length seen: a sweep cell repeats one.
    random_waf: LenMemo<f64>,
    transfer: LenMemo<SimDuration>,

    // Telemetry sink (captured from the global slot at construction;
    // write-only, never feeds back into device behavior).
    rec: RecorderHandle,
    track: &'static str,
    // Per-die span labels ("die{i}.program" / "die{i}.read"), built on
    // the first recorded span: an untraced device never formats one, and
    // a traced one clones a reference per span instead of formatting.
    die_labels: Vec<DieLabels>,
}

/// Prebuilt span labels for one die.
#[derive(Debug, Clone)]
struct DieLabels {
    program: &'static str,
    read: &'static str,
}

fn die_labels(dies: usize) -> Vec<DieLabels> {
    (0..dies)
        .map(|d| DieLabels {
            program: powadapt_obs::intern(&format!("die{d}.program")),
            read: powadapt_obs::intern(&format!("die{d}.read")),
        })
        .collect()
}

/// A one-entry memo of a pure function of the request length.
#[derive(Debug, Default)]
struct LenMemo<T>(Option<(u64, T)>);

impl<T: Copy> LenMemo<T> {
    /// `f(len)`, computed only when `len` differs from the last call's.
    fn get(&mut self, len: u64, f: impl FnOnce(u64) -> T) -> T {
        match self.0 {
            Some((l, v)) if l == len => v,
            _ => {
                let v = f(len);
                self.0 = Some((len, v));
                v
            }
        }
    }
}

/// `x` rounded to the nearest integer, halves away from zero, exactly as
/// `x.round() as u64` gives it, without the libm call: below 2^53 the
/// fractional part `x - trunc(x)` is exact, from there on every `f64` is
/// already an integer, and the casts saturate alike.
fn round_to_u64(x: f64) -> u64 {
    let i = x as u64;
    if x - i as f64 >= 0.5 {
        i.saturating_add(1)
    } else {
        i
    }
}

// The in-flight read table precedes the event and die queues: those
// reference reads by arena slot, and a restore can only translate the ids
// written here back into slots once the table exists.
powadapt_snap::snapshot! {
    Ssd {
        now,
        reads: with(ReadTable),
        events: with(ReadIds, reads),
        rng,
        power_now,
        rolling: state,
        ps_index,
        phase,
        depth,
        standby_requested,
        noise_w,
        noise_scheduled,
        ctrl_busy,
        cmd_queue,
        iface_busy,
        iface_queue,
        die_busy: seq,
        die_q: with(ReadIds, reads),
        busy_read,
        busy_prog,
        buffer_used,
        nand_debt,
        flushing,
        buffer_waiters,
        last_write_end,
        cache,
        inflight_ids,
        done,
        retry_pending,
        idle_flush_pending,
    }
    skip {
        spec: "spec config; resume builds the device from it",
        cfg: "spec config",
        rec: "telemetry sink, re-captured at construction",
        track: "telemetry label",
        die_labels: "telemetry labels, built from the die count on the first span",
        random_waf: "memo of a pure function of the request length",
        transfer: "memo of a pure function of the request length",
        die_idle: "derived from die_busy; restore_masks rebuilds it",
        die_queued: "derived from die_q; restore_masks rebuilds it",
    }
    after restore_ps_index, restore_cache, restore_masks
}

impl Ssd {
    /// Creates an SSD from a spec and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SsdConfig::validate`]);
    /// [`Ssd::try_new`] is the fallible equivalent.
    pub fn new(spec: DeviceSpec, cfg: SsdConfig, seed: u64) -> Self {
        match Ssd::try_new(spec, cfg, seed) {
            Ok(ssd) => ssd,
            #[expect(
                clippy::panic,
                reason = "documented panic-on-invalid-config constructor; the error path is try_new"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: returns [`DeviceError::InvalidConfig`] instead
    /// of panicking when the configuration fails [`SsdConfig::validate`].
    pub fn try_new(spec: DeviceSpec, cfg: SsdConfig, seed: u64) -> Result<Self, DeviceError> {
        if let Err(e) = cfg.validate() {
            return Err(DeviceError::InvalidConfig(e));
        }
        let idle = cfg.idle_w;
        let window = cfg.cap_window;
        let dies = cfg.dies;
        let cache = PageCache::new(cfg.read_cache_pages);
        let track = powadapt_obs::intern(spec.label());
        Ok(Ssd {
            spec,
            cfg,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            power_now: idle,
            rolling: RollingMean::new(window, idle),
            ps_index: 0,
            phase: StandbyPhase::Active,
            depth: StandbyDepth::Slumber,
            standby_requested: false,
            noise_w: 0.0,
            noise_scheduled: false,
            ctrl_busy: false,
            cmd_queue: VecDeque::new(),
            iface_busy: false,
            iface_queue: VecDeque::new(),
            die_busy: vec![false; dies],
            die_q: (0..dies).map(|_| VecDeque::new()).collect(),
            die_idle: DieMask::from_fn(dies, |_| true),
            die_queued: DieMask::from_fn(dies, |_| false),
            busy_read: 0,
            busy_prog: 0,
            buffer_used: 0,
            nand_debt: 0,
            flushing: false,
            buffer_waiters: VecDeque::new(),
            last_write_end: u64::MAX, // first write is never "sequential"
            reads: Slab::new(),
            cache,
            inflight_ids: InflightIds::default(),
            done: Vec::new(),
            retry_pending: false,
            idle_flush_pending: false,
            random_waf: LenMemo::default(),
            transfer: LenMemo::default(),
            rec: powadapt_obs::current(),
            track,
            die_labels: Vec::new(),
        })
    }

    fn restore_ps_index(&mut self) -> Result<(), SnapError> {
        if self.ps_index < self.cfg.power_states.len() {
            Ok(())
        } else {
            Err(SnapError::InvalidValue(format!(
                "power state index {} out of range",
                self.ps_index
            )))
        }
    }

    /// The cache's capacity is configuration; the checkpoint must fit it.
    fn restore_cache(&mut self) -> Result<(), SnapError> {
        self.cache.capacity = self.cfg.read_cache_pages;
        if self.cache.order.len() > self.cache.capacity {
            return Err(SnapError::InvalidValue(format!(
                "cache holds {} pages, capacity {}",
                self.cache.order.len(),
                self.cache.capacity
            )));
        }
        Ok(())
    }

    fn restore_masks(&mut self) -> Result<(), SnapError> {
        self.die_idle = DieMask::from_fn(self.die_busy.len(), |d| !self.die_busy[d]);
        self.die_queued = DieMask::from_fn(self.die_q.len(), |d| !self.die_q[d].is_empty());
        Ok(())
    }

    fn set_die_busy(&mut self, die: usize, busy: bool) {
        self.die_busy[die] = busy;
        self.die_idle.set(die, !busy);
    }

    /// The configuration the device was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Current write-buffer fill in bytes (diagnostic).
    pub fn buffer_used(&self) -> u64 {
        self.buffer_used
    }

    /// Outstanding NAND program debt in bytes (diagnostic).
    pub fn nand_debt(&self) -> u64 {
        self.nand_debt
    }

    fn cap_w(&self) -> f64 {
        self.cfg.power_states[self.ps_index].cap_w
    }

    fn need_retry(&mut self) {
        if !self.retry_pending {
            self.retry_pending = true;
            emit!(
                self.rec,
                self.now,
                self.track,
                EventKind::CapApplied {
                    cap_w: self.cap_w(),
                    power_w: self.power_now,
                }
            );
            self.events
                .schedule(self.now + RETRY_INTERVAL, Ev::RetryTick);
        }
    }

    /// May a command start now? Command processing itself draws little
    /// power, so it is gated only on instantaneous headroom — die work is
    /// what the average-power governor paces.
    fn gov_allows_cmd(&mut self) -> bool {
        let cap = self.cap_w();
        if cap.is_infinite() {
            return true;
        }
        if self.power_now > cap * self.cfg.burst_factor {
            self.need_retry();
            return false;
        }
        true
    }

    /// May new die work start now without violating the cap?
    ///
    /// A start is allowed while instantaneous power is at or below the cap
    /// (so the overshoot is bounded by one op's power) and the trailing
    /// window average has headroom. The op's own power is deliberately not
    /// added to either bound.
    fn gov_allows(&mut self) -> bool {
        let cap = self.cap_w();
        if cap.is_infinite() {
            return true;
        }
        if self.power_now > cap {
            self.need_retry();
            return false;
        }
        if self.rolling.mean_at(self.now) >= cap {
            self.need_retry();
            return false;
        }
        true
    }

    fn any_activity(&self) -> bool {
        self.ctrl_busy || self.iface_busy || self.busy_read > 0 || self.busy_prog > 0
    }

    /// No host-facing work pending (buffered writes may still be dirty).
    fn host_idle(&self) -> bool {
        !self.ctrl_busy
            && self.cmd_queue.is_empty()
            && self.buffer_waiters.is_empty()
            && self.reads.is_empty()
            && self.iface_queue.is_empty()
            && !self.iface_busy
    }

    fn is_fully_idle(&self) -> bool {
        !self.any_activity()
            && self.cmd_queue.is_empty()
            && self.iface_queue.is_empty()
            && self.buffer_waiters.is_empty()
            && self.reads.is_empty()
            && self.nand_debt == 0
    }

    /// Standby parameters for the depth in force.
    fn standby_cfg(&self) -> Option<&StandbyConfig> {
        match self.depth {
            StandbyDepth::Partial => self.cfg.partial.as_ref(),
            StandbyDepth::Slumber => self.cfg.standby.as_ref(),
        }
    }

    fn compute_power(&self) -> f64 {
        match self.phase {
            StandbyPhase::Entering { .. } => self
                .standby_cfg()
                .map_or(self.cfg.idle_w, |s| s.transition_w),
            StandbyPhase::Standby => self.standby_cfg().map_or(self.cfg.idle_w, |s| s.standby_w),
            StandbyPhase::Exiting { .. } => self
                .standby_cfg()
                .map_or(self.cfg.idle_w, |s| s.wake_spike_w),
            StandbyPhase::Active => {
                let mut p = self.cfg.idle_w;
                if self.any_activity() {
                    p += self.cfg.ctrl_active_w + self.noise_w;
                }
                p += self.busy_read as f64 * self.cfg.die_read_w;
                p += self.busy_prog as f64 * self.cfg.die_prog_w;
                if self.iface_busy {
                    p += self.cfg.iface_active_w;
                }
                p.max(0.0)
            }
        }
    }

    fn update_power(&mut self) {
        let p = self.compute_power();
        if (p - self.power_now).abs() > 1e-12 {
            self.power_now = p;
            self.rolling.push(self.now, p);
        }
    }

    fn schedule_noise(&mut self) {
        if self.cfg.noise_sd_w > 0.0 && !self.noise_scheduled {
            self.noise_scheduled = true;
            let dwell = SimDuration::from_micros(self.rng.u64_range(4_000, 12_000));
            self.events.schedule(self.now + dwell, Ev::NoiseTick);
        }
    }

    fn waf_for(&mut self, offset: u64, len: u64) -> f64 {
        if offset == self.last_write_end || len >= LARGE_WRITE {
            return self.cfg.waf_min;
        }
        let cfg = &self.cfg;
        self.random_waf.get(len, |len| {
            let len = len.clamp(SMALL_WRITE, LARGE_WRITE) as f64;
            let t = (len.ln() - (SMALL_WRITE as f64).ln())
                / ((LARGE_WRITE as f64).ln() - (SMALL_WRITE as f64).ln());
            cfg.waf_max + t * (cfg.waf_min - cfg.waf_max)
        })
    }

    /// Records the span of one die op, labelled by die and work.
    fn die_span(&mut self, die: usize, program: bool, dur: SimDuration) {
        if !self.rec.is_enabled() {
            return;
        }
        if self.die_labels.is_empty() {
            self.die_labels = die_labels(self.cfg.dies);
        }
        let labels = &self.die_labels[die];
        let label = if program { labels.program } else { labels.read };
        span!(self.rec, self.now, self.track, label, dur);
    }

    fn begin_enter_standby(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "callers transition here only after request_standby verified standby support"
        )]
        let enter = self.standby_cfg().expect("standby config").enter;
        let until = self.now + enter;
        self.phase = StandbyPhase::Entering { until };
        emit!(self.rec, self.now, self.track, EventKind::SpinDown);
        self.events.schedule(until, Ev::StandbyDone);
    }

    fn begin_wake(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "waking is only reachable from standby phases, which require standby config"
        )]
        let exit = self.standby_cfg().expect("standby config").exit;
        let until = self.now + exit;
        self.phase = StandbyPhase::Exiting { until };
        self.standby_requested = false;
        emit!(self.rec, self.now, self.track, EventKind::SpinUp);
        self.events.schedule(until, Ev::StandbyDone);
    }

    fn admit_write(&mut self, p: Pending) {
        self.buffer_used += p.len;
        self.nand_debt += round_to_u64(p.len as f64 * p.waf);
        if self.buffer_used >= self.cfg.flush_watermark_bytes {
            self.flushing = true;
        }
        self.iface_queue.push_back(Transfer { pending: p });
    }

    fn buffer_fits(&self, len: u64) -> bool {
        self.buffer_used + len <= self.cfg.write_buffer_bytes
    }

    /// Starts one program op on `die` if there is debt and the governor
    /// allows it. Returns whether an op started.
    fn try_start_program(&mut self, die: usize) -> bool {
        if self.nand_debt == 0 || self.die_busy[die] {
            return false;
        }
        if !self.gov_allows() {
            return false;
        }
        let unit = self.cfg.program_unit_bytes;
        let chunk = unit.min(self.nand_debt);
        let freed = if self.nand_debt == chunk {
            self.buffer_used
        } else {
            let f = chunk as u128 * self.buffer_used as u128 / self.nand_debt as u128;
            (f as u64).min(self.buffer_used)
        };
        self.buffer_used -= freed;
        self.nand_debt -= chunk;
        self.set_die_busy(die, true);
        self.busy_prog += 1;
        let dur = self
            .cfg
            .program_op
            .mul_f64(chunk as f64 / unit as f64)
            .max(SimDuration::from_nanos(1));
        self.die_span(die, true, dur);
        self.events.schedule_on_lane(
            lane::DIE_PROGRAM,
            self.now + dur,
            Ev::DieDone {
                die,
                work: DieWork::Program,
            },
        );
        true
    }

    fn execute_write(&mut self, mut p: Pending) {
        p.waf = self.waf_for(p.offset, p.len);
        self.last_write_end = p.end();
        if self.buffer_fits(p.len) {
            self.admit_write(p);
        } else {
            self.buffer_waiters.push_back(p);
        }
    }

    fn execute_read(&mut self, p: Pending) {
        let page = self.cfg.page_bytes;
        let first = p.offset / page;
        let last = (p.end() - 1) / page;
        let dies = self.cfg.dies as u64;
        // Claim the slot up front so the per-page die work can reference
        // it; a fully cached read releases the slot before anyone sees it.
        let slot = self.reads.insert(ReadState {
            pending: p,
            remaining: 0,
        });
        let mut ops = 0usize;
        for pg in first..=last {
            if !self.cache.hit_or_insert(pg) {
                let die = (pg % dies) as usize;
                self.die_q[die].push_back(slot);
                self.die_queued.set(die, true);
                ops += 1;
            }
        }
        if ops == 0 {
            self.reads.remove(slot);
            self.iface_queue.push_back(Transfer { pending: p });
        } else if let Some(rs) = self.reads.get_mut(slot) {
            rs.remaining = ops;
        }
    }

    fn finish(&mut self, p: Pending) {
        self.inflight_ids.remove(p.id.0);
        emit!(
            self.rec,
            self.now,
            self.track,
            EventKind::IoComplete {
                id: p.id.0,
                dir: p.kind.obs_dir(),
                len: p.len,
                latency: self.now.duration_since(p.submitted),
            }
        );
        self.done.push(IoCompletion {
            id: p.id,
            kind: p.kind,
            len: p.len,
            submitted: p.submitted,
            completed: self.now,
        });
    }

    fn pump(&mut self) {
        match self.phase {
            StandbyPhase::Active => {}
            StandbyPhase::Standby => {
                if !self.cmd_queue.is_empty() {
                    self.begin_wake();
                }
                self.update_power();
                return;
            }
            _ => {
                self.update_power();
                return;
            }
        }

        let mut progress = true;
        while progress {
            progress = false;

            // Enter standby once fully drained, if requested.
            if self.standby_requested && self.is_fully_idle() {
                self.begin_enter_standby();
                self.update_power();
                return;
            }

            // Controller: one command at a time, gated by the cap.
            if !self.ctrl_busy && !self.cmd_queue.is_empty() && self.gov_allows_cmd() {
                if let Some(p) = self.cmd_queue.pop_front() {
                    self.ctrl_busy = true;
                    let dur = match p.kind {
                        IoKind::Read => self.cfg.cmd_read,
                        IoKind::Write => self.cfg.cmd_write,
                    };
                    self.events
                        .schedule_on_lane(lane::CMD, self.now + dur, Ev::CmdDone(p));
                    progress = true;
                }
            }

            // Die reads: idle dies with queued pages, in ascending order.
            let mut from = 0;
            while let Some(die) = self.die_idle.next_common(&self.die_queued, from) {
                from = die + 1;
                if !self.gov_allows() {
                    break;
                }
                let Some(slot) = self.die_q[die].pop_front() else {
                    continue;
                };
                if self.die_q[die].is_empty() {
                    self.die_queued.set(die, false);
                }
                self.set_die_busy(die, true);
                self.busy_read += 1;
                self.die_span(die, false, self.cfg.read_op);
                self.events.schedule_on_lane(
                    lane::DIE_READ,
                    self.now + self.cfg.read_op,
                    Ev::DieDone {
                        die,
                        work: DieWork::Read(slot),
                    },
                );
                self.update_power();
                progress = true;
            }

            // Flush: drain NAND debt onto free dies.
            if self.flushing && self.start_programs(true) {
                progress = true;
            }

            // Host interface: one transfer at a time, FIFO.
            if !self.iface_busy {
                if let Some(x) = self.iface_queue.pop_front() {
                    self.iface_busy = true;
                    let bw = self.cfg.interface_bw;
                    let dur = self.transfer.get(x.pending.len, |len| {
                        SimDuration::from_secs_f64(len as f64 / bw).max(SimDuration::from_nanos(1))
                    });
                    self.events
                        .schedule_on_lane(lane::IFACE, self.now + dur, Ev::IfaceDone(x));
                    progress = true;
                }
            }

            // Admit waiting writes as buffer space frees up.
            while let Some(front) = self.buffer_waiters.front() {
                if !self.buffer_fits(front.len) {
                    break;
                }
                if let Some(p) = self.buffer_waiters.pop_front() {
                    self.admit_write(p);
                    progress = true;
                }
            }
        }

        // Dirty data with an idle host: flush immediately when standby is
        // wanted, otherwise after the idle-flush delay.
        if self.nand_debt > 0 && !self.flushing && self.host_idle() {
            if self.standby_requested {
                self.flushing = true;
                self.start_programs(false);
            } else if !self.idle_flush_pending {
                self.idle_flush_pending = true;
                self.events
                    .schedule(self.now + self.cfg.idle_flush_after, Ev::IdleFlush);
            }
        }
        self.update_power();
    }

    /// Flush: starts programs on idle dies in ascending order until the
    /// debt is drained or the governor refuses a start. The main pump loop
    /// passes `settle` to update power after each start, so the governor
    /// sees it; flushing begun after the loop does not. Returns whether
    /// any op started.
    fn start_programs(&mut self, settle: bool) -> bool {
        let mut started = false;
        let mut from = 0;
        while let Some(die) = self.die_idle.next(from) {
            from = die + 1;
            if self.nand_debt == 0 || !self.try_start_program(die) {
                break;
            }
            if settle {
                self.update_power();
            }
            started = true;
        }
        if self.nand_debt == 0 {
            self.flushing = false;
        }
        started
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::CmdDone(p) => {
                self.ctrl_busy = false;
                match p.kind {
                    IoKind::Write => self.execute_write(p),
                    IoKind::Read => self.execute_read(p),
                }
                self.pump();
            }
            Ev::IfaceDone(x) => {
                self.iface_busy = false;
                let p = x.pending;
                let post = match p.kind {
                    IoKind::Read => self.cfg.read_post,
                    IoKind::Write => self.cfg.write_commit,
                };
                if post.is_zero() {
                    self.finish(p);
                } else {
                    self.events
                        .schedule_on_lane(lane::COMPLETE, self.now + post, Ev::Complete(p));
                }
                self.pump();
            }
            Ev::Complete(p) => {
                self.finish(p);
                self.pump();
            }
            Ev::DieDone { die, work } => {
                self.set_die_busy(die, false);
                match work {
                    DieWork::Read(slot) => {
                        self.busy_read -= 1;
                        let finished = {
                            #[expect(
                                clippy::expect_used,
                                reason = "every DieDone::Read was scheduled with a ReadState; losing one would silently corrupt completion accounting"
                            )]
                            let rs = self
                                .reads
                                .get_mut(slot)
                                .expect("read state exists for in-flight read");
                            rs.remaining -= 1;
                            rs.remaining == 0
                        };
                        if finished {
                            if let Some(rs) = self.reads.remove(slot) {
                                self.iface_queue.push_back(Transfer {
                                    pending: rs.pending,
                                });
                            }
                        }
                    }
                    DieWork::Program => {
                        self.busy_prog -= 1;
                    }
                }
                self.pump();
            }
            Ev::StandbyDone => {
                match self.phase {
                    StandbyPhase::Entering { until } if self.now >= until => {
                        self.phase = StandbyPhase::Standby;
                        // A wake requested mid-transition takes effect now.
                        if !self.standby_requested {
                            self.begin_wake();
                        }
                    }
                    StandbyPhase::Exiting { until } if self.now >= until => {
                        self.phase = StandbyPhase::Active;
                    }
                    _ => {}
                }
                self.pump();
            }
            Ev::NoiseTick => {
                self.noise_scheduled = false;
                if self.any_activity() || !self.cmd_queue.is_empty() {
                    // Background activity (GC bookkeeping, thermal effects)
                    // mostly adds power; clamp the downside tighter.
                    let sd = self.cfg.noise_sd_w;
                    self.noise_w = self.rng.normal(0.0, sd).clamp(-0.5 * sd, 2.0 * sd);
                    self.schedule_noise();
                } else {
                    self.noise_w = 0.0;
                }
                self.update_power();
            }
            Ev::RetryTick => {
                self.retry_pending = false;
                self.pump();
            }
            Ev::IdleFlush => {
                self.idle_flush_pending = false;
                if self.nand_debt > 0 && self.host_idle() {
                    self.flushing = true;
                }
                self.pump();
            }
        }
    }
}

impl StorageDevice for Ssd {
    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        if req.len == 0 {
            return Err(DeviceError::ZeroLength);
        }
        if req.end() > self.spec.capacity() {
            return Err(DeviceError::OutOfRange {
                end: req.end(),
                capacity: self.spec.capacity(),
            });
        }
        if !self.inflight_ids.insert(req.id.0) {
            return Err(DeviceError::DuplicateRequest(req.id.0));
        }
        emit!(
            self.rec,
            self.now,
            self.track,
            EventKind::IoSubmit {
                id: req.id.0,
                dir: req.kind.obs_dir(),
                len: req.len,
            }
        );
        self.cmd_queue.push_back(Pending {
            id: req.id,
            kind: req.kind,
            offset: req.offset,
            len: req.len,
            submitted: self.now,
            waf: 1.0,
        });
        self.schedule_noise();
        self.pump();
        Ok(())
    }

    fn next_event(&mut self) -> Option<SimTime> {
        self.events.next_time()
    }

    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        assert!(
            t >= self.now,
            "advance_to {t} before device time {}",
            self.now
        );
        while let Some((te, ev)) = self.events.pop_at_or_before(t) {
            self.now = te;
            self.handle(ev);
        }
        self.now = t;
        // `append` drains `done` but keeps its allocation for reuse.
        out.append(&mut self.done);
    }

    fn power_w(&self) -> f64 {
        self.power_now
    }

    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError> {
        match self.cfg.power_states.iter().position(|d| d.id == ps) {
            Some(i) => {
                if i != self.ps_index {
                    emit!(
                        self.rec,
                        self.now,
                        self.track,
                        EventKind::PowerStateTransition {
                            from: self.ps_index as u8,
                            to: i as u8,
                        }
                    );
                }
                self.ps_index = i;
                Ok(())
            }
            None => Err(DeviceError::UnknownPowerState(ps)),
        }
    }

    fn power_state(&self) -> PowerStateId {
        self.cfg.power_states[self.ps_index].id
    }

    fn power_states(&self) -> &[PowerStateDesc] {
        &self.cfg.power_states
    }

    fn request_standby(&mut self) -> Result<(), DeviceError> {
        self.request_standby_depth(StandbyDepth::Slumber)
    }

    fn request_standby_depth(&mut self, depth: StandbyDepth) -> Result<(), DeviceError> {
        let supported = match depth {
            StandbyDepth::Partial => self.cfg.partial.is_some(),
            StandbyDepth::Slumber => self.cfg.standby.is_some(),
        };
        if !supported {
            return Err(DeviceError::StandbyUnsupported);
        }
        match self.phase {
            StandbyPhase::Entering { .. } | StandbyPhase::Exiting { .. } => {
                Err(DeviceError::StandbyTransitionInProgress)
            }
            // Changing depth while asleep would need a wake + re-enter
            // cycle; callers do that explicitly via request_wake.
            StandbyPhase::Standby if self.depth != depth => {
                Err(DeviceError::StandbyTransitionInProgress)
            }
            StandbyPhase::Standby => Ok(()),
            StandbyPhase::Active => {
                self.depth = depth;
                self.standby_requested = true;
                self.pump();
                Ok(())
            }
        }
    }

    fn standby_depth(&self) -> StandbyDepth {
        self.depth
    }

    fn request_wake(&mut self) -> Result<(), DeviceError> {
        if self.cfg.standby.is_none() {
            return Err(DeviceError::StandbyUnsupported);
        }
        self.standby_requested = false;
        if self.phase == StandbyPhase::Standby {
            self.begin_wake();
            self.update_power();
        }
        Ok(())
    }

    fn standby_state(&self) -> StandbyState {
        self.phase.state()
    }

    fn standby_power_w(&self) -> Option<f64> {
        self.cfg.standby.as_ref().map(|s| s.standby_w)
    }

    fn inflight(&self) -> usize {
        self.inflight_ids.len()
    }

    fn set_recorder(&mut self, rec: RecorderHandle, track: &'static str) {
        self.rec = rec;
        self.track = track;
    }

    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        Snapshot::write_state(self, w)
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Restore::read_state(self, r)
    }
}

#[cfg(test)]
#[allow(
    clippy::field_reassign_with_default,
    reason = "tests vary one field of a default config at a time"
)]
mod tests {
    use super::*;
    use crate::device::drain;
    use crate::io::{GIB, KIB};
    use crate::spec::{DeviceClass, Protocol};
    use powadapt_sim::SimTime;

    fn test_ssd() -> Ssd {
        let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
        Ssd::new(spec, SsdConfig::default(), 42)
    }

    fn submit(dev: &mut Ssd, id: u64, kind: IoKind, offset: u64, len: u64) {
        dev.submit(IoRequest::new(IoId(id), kind, offset, len))
            .expect("valid request");
    }

    #[test]
    fn idle_power_is_floor() {
        let dev = test_ssd();
        assert_eq!(dev.power_w(), dev.config().idle_w);
    }

    #[test]
    fn single_read_completes_with_plausible_latency() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Read, 0, 4 * KIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        let lat = done[0].latency();
        // cmd (2 us) + page read (70 us) + transfer (~1 us) + post (8 us).
        assert!(lat.as_micros() >= 70 && lat.as_micros() < 200, "{lat}");
        assert_eq!(dev.inflight(), 0);
    }

    #[test]
    fn single_write_acks_after_transfer_without_waiting_for_nand() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Write, 0, 4 * KIB);
        // Run only until the completion is observed.
        let mut completed_at = None;
        while completed_at.is_none() {
            let t = dev.next_event().expect("events pending");
            for c in dev.advance_to(t) {
                completed_at = Some(c.completed);
            }
        }
        let lat = completed_at.unwrap().duration_since(SimTime::ZERO);
        // cmd (3 us) + transfer (~1.2 us) + commit (40 us) — less than a
        // program op (560 us).
        assert!(lat.as_micros() < 100, "{lat}");
    }

    #[test]
    fn write_leaves_nand_debt_then_drains() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Write, 0, 8 * MIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(dev.nand_debt(), 0, "flush fully drains");
        assert_eq!(dev.buffer_used(), 0);
        assert_eq!(dev.power_w(), dev.config().idle_w, "returns to idle");
    }

    #[test]
    fn reads_and_writes_report_correct_ids_and_kinds() {
        let mut dev = test_ssd();
        submit(&mut dev, 10, IoKind::Write, 0, 64 * KIB);
        submit(&mut dev, 11, IoKind::Read, 128 * MIB, 64 * KIB);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 2);
        let w = done.iter().find(|c| c.id == IoId(10)).unwrap();
        let r = done.iter().find(|c| c.id == IoId(11)).unwrap();
        assert_eq!(w.kind, IoKind::Write);
        assert_eq!(r.kind, IoKind::Read);
    }

    #[test]
    fn rejects_invalid_requests() {
        let mut dev = test_ssd();
        assert_eq!(
            dev.submit(IoRequest::new(IoId(0), IoKind::Read, 0, 0)),
            Err(DeviceError::ZeroLength)
        );
        assert!(matches!(
            dev.submit(IoRequest::new(IoId(0), IoKind::Read, GIB, 4 * KIB)),
            Err(DeviceError::OutOfRange { .. })
        ));
        submit(&mut dev, 1, IoKind::Read, 0, 4 * KIB);
        assert_eq!(
            dev.submit(IoRequest::new(IoId(1), IoKind::Read, 0, 4 * KIB)),
            Err(DeviceError::DuplicateRequest(1))
        );
    }

    #[test]
    fn power_rises_while_programming() {
        let mut dev = test_ssd();
        submit(&mut dev, 0, IoKind::Write, 0, 16 * MIB);
        let mut peak: f64 = 0.0;
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
            peak = peak.max(dev.power_w());
        }
        assert!(
            peak > dev.config().idle_w + 2.0,
            "peak {peak} should clearly exceed idle"
        );
    }

    #[test]
    fn integer_rounding_matches_libm_round() {
        let mut xs = vec![
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4095.5,
            -0.5,
            -0.7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2f64.powi(52) + 1.0,
            2f64.powi(53) - 0.5,
            2f64.powi(64),
            2f64.powi(70),
        ];
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            // Byte counts times a write amplification, as admit_write
            // rounds them.
            xs.push(rng.u64_range(1, 1 << 30) as f64 * rng.uniform_range(1.0, 4.0));
        }
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x}");
        }
    }

    #[test]
    fn sequential_writes_have_lower_waf_than_random_small() {
        let mut dev = test_ssd();
        // First write never counts as sequential.
        let w_small = dev.waf_for(12345 * 4096, 4 * KIB);
        let w_large = dev.waf_for(999 * MIB, 2 * MIB);
        assert!(w_small > w_large);
        assert!((w_large - dev.config().waf_min).abs() < 1e-9);
        assert!((w_small - dev.config().waf_max).abs() < 1e-9);
    }

    #[test]
    fn power_state_switching() {
        let mut dev = test_ssd();
        assert_eq!(dev.power_state(), PowerStateId(0));
        assert_eq!(
            dev.set_power_state(PowerStateId(9)),
            Err(DeviceError::UnknownPowerState(PowerStateId(9)))
        );
        assert_eq!(dev.power_states().len(), 1);
    }

    #[test]
    fn capped_device_limits_average_power() {
        let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.power_states = vec![
            PowerStateDesc::new(PowerStateId(0), 25.0),
            PowerStateDesc::new(PowerStateId(1), 8.0),
        ];
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 7);
        dev.set_power_state(PowerStateId(1)).unwrap();
        // Saturate with writes.
        for i in 0..64 {
            submit(&mut dev, i, IoKind::Write, i * 4 * MIB, 4 * MIB);
        }
        // Measure average power over the busy period by sampling.
        let mut samples = Vec::new();
        let mut t = SimTime::ZERO;
        let step = SimDuration::from_micros(100);
        while dev.next_event().is_some() {
            t += step;
            dev.advance_to(t);
            samples.push(dev.power_w());
        }
        let busy: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|&p| p > dev.config().idle_w + 0.01)
            .collect();
        assert!(!busy.is_empty());
        let avg = busy.iter().sum::<f64>() / busy.len() as f64;
        assert!(
            avg <= 8.0 * 1.15,
            "average busy power {avg} should respect the 8 W cap"
        );
    }

    #[test]
    fn uncapped_writes_finish_faster_than_capped() {
        let run = |cap: f64| -> SimTime {
            let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
            let mut cfg = SsdConfig::default();
            cfg.power_states = vec![PowerStateDesc::new(PowerStateId(0), cap)];
            cfg.noise_sd_w = 0.0;
            let mut dev = Ssd::new(spec, cfg, 7);
            for i in 0..32 {
                submit(&mut dev, i, IoKind::Write, i * 8 * MIB, 8 * MIB);
            }
            drain(&mut dev);
            dev.now()
        };
        let fast = run(25.0);
        let slow = run(8.0);
        assert!(
            slow > fast,
            "capped run ({slow}) should take longer than uncapped ({fast})"
        );
    }

    #[test]
    fn reads_unaffected_by_cap_that_binds_writes() {
        let run_reads = |cap: f64| -> SimTime {
            let spec = DeviceSpec::new("T", "Test SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
            let mut cfg = SsdConfig::default();
            cfg.power_states = vec![PowerStateDesc::new(PowerStateId(0), cap)];
            cfg.noise_sd_w = 0.0;
            cfg.read_cache_pages = 0;
            let mut dev = Ssd::new(spec, cfg, 7);
            for i in 0..256 {
                submit(&mut dev, i, IoKind::Read, i * 2 * MIB, 256 * KIB);
            }
            drain(&mut dev);
            dev.now()
        };
        let uncapped = run_reads(25.0);
        let capped = run_reads(10.0);
        let ratio = capped.as_secs_f64() / uncapped.as_secs_f64();
        assert!(
            ratio < 1.1,
            "a 10 W cap should barely affect reads (ratio {ratio})"
        );
    }

    #[test]
    fn standby_unsupported_without_config() {
        let mut dev = test_ssd();
        assert_eq!(dev.request_standby(), Err(DeviceError::StandbyUnsupported));
        assert_eq!(dev.request_wake(), Err(DeviceError::StandbyUnsupported));
        assert_eq!(dev.standby_state(), StandbyState::Active);
    }

    #[test]
    fn standby_cycle_and_auto_wake() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.idle_w = 0.35;
        cfg.noise_sd_w = 0.0;
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(300),
            exit: SimDuration::from_millis(400),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        let mut dev = Ssd::new(spec, cfg, 3);

        dev.request_standby().unwrap();
        // Transition consumes transition power.
        assert_eq!(dev.standby_state(), StandbyState::EnteringStandby);
        assert_eq!(dev.power_w(), 0.6);
        let t = dev.next_event().unwrap();
        dev.advance_to(t);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        assert_eq!(dev.power_w(), 0.17);

        // Submitting while in standby wakes the device automatically.
        submit(&mut dev, 0, IoKind::Read, 0, 4 * KIB);
        assert_eq!(dev.standby_state(), StandbyState::ExitingStandby);
        assert_eq!(dev.power_w(), 1.2);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(dev.standby_state(), StandbyState::Active);
        // Wake latency dominates the request latency.
        assert!(done[0].latency().as_millis() >= 400);
    }

    #[test]
    fn explicit_wake_from_standby() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(100),
            exit: SimDuration::from_millis(100),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 3);
        dev.request_standby().unwrap();
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
        }
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        dev.request_wake().unwrap();
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
        }
        assert_eq!(dev.standby_state(), StandbyState::Active);
    }

    #[test]
    fn standby_waits_for_outstanding_io() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(100),
            exit: SimDuration::from_millis(100),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 3);
        submit(&mut dev, 0, IoKind::Write, 0, 32 * MIB);
        dev.request_standby().unwrap();
        // Still active: the write (and its flush) must drain first.
        assert_eq!(dev.standby_state(), StandbyState::Active);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
    }

    #[test]
    fn partial_depth_uses_its_own_parameters() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.idle_w = 0.35;
        cfg.noise_sd_w = 0.0;
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(300),
            exit: SimDuration::from_millis(400),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.partial = Some(StandbyConfig {
            standby_w: 0.25,
            enter: SimDuration::from_micros(100),
            exit: SimDuration::from_micros(200),
            transition_w: 0.3,
            wake_spike_w: 0.5,
        });
        let mut dev = Ssd::new(spec, cfg, 3);

        dev.request_standby_depth(StandbyDepth::Partial).unwrap();
        assert_eq!(dev.standby_state(), StandbyState::EnteringStandby);
        assert_eq!(dev.standby_depth(), StandbyDepth::Partial);
        assert_eq!(dev.power_w(), 0.3);
        let t = dev.next_event().unwrap();
        dev.advance_to(t);
        assert_eq!(dev.standby_state(), StandbyState::Standby);
        assert_eq!(dev.power_w(), 0.25);

        // A deeper request while parked at PARTIAL needs an explicit wake.
        assert_eq!(
            dev.request_standby_depth(StandbyDepth::Slumber),
            Err(DeviceError::StandbyTransitionInProgress)
        );

        // Auto-wake on submit pays the (short) PARTIAL exit latency.
        submit(&mut dev, 0, IoKind::Read, 0, 4 * KIB);
        assert_eq!(dev.power_w(), 0.5);
        let done = drain(&mut dev);
        assert_eq!(done.len(), 1);
        let lat = done[0].latency();
        assert!(lat.as_micros() >= 200 && lat.as_millis() < 5, "{lat}");
    }

    #[test]
    fn partial_unsupported_without_partial_config() {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("E", "EVO", Protocol::Sata, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_millis(100),
            exit: SimDuration::from_millis(100),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        cfg.noise_sd_w = 0.0;
        let mut dev = Ssd::new(spec, cfg, 3);
        assert_eq!(
            dev.request_standby_depth(StandbyDepth::Partial),
            Err(DeviceError::StandbyUnsupported)
        );
        dev.request_standby_depth(StandbyDepth::Slumber).unwrap();
    }

    #[test]
    fn sequential_small_reads_hit_the_page_cache() {
        let mut dev = test_ssd();
        // 16 sequential 4 KiB reads cover 4 pages; 12 of 16 should be hits.
        for i in 0..16u64 {
            submit(&mut dev, i, IoKind::Read, i * 4 * KIB, 4 * KIB);
        }
        let done = drain(&mut dev);
        assert_eq!(done.len(), 16);
        let hits = done.iter().filter(|c| c.latency().as_micros() < 65).count();
        assert!(hits >= 8, "expected most cache hits, got {hits}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut dev = test_ssd();
            for i in 0..64u64 {
                submit(
                    &mut dev,
                    i,
                    IoKind::Write,
                    (i * 977_777) % (GIB / 2),
                    64 * KIB,
                );
            }
            let done = drain(&mut dev);
            (
                dev.now(),
                done.iter().map(|c| c.completed.as_nanos()).sum::<u64>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn advance_to_is_monotonic() {
        let mut dev = test_ssd();
        dev.advance_to(SimTime::from_millis(5));
        assert_eq!(dev.now(), SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "advance_to")]
    fn advance_backwards_panics() {
        let mut dev = test_ssd();
        dev.advance_to(SimTime::from_millis(5));
        dev.advance_to(SimTime::from_millis(4));
    }

    #[test]
    fn die_mask_walks_set_bits_in_order() {
        let mask = DieMask::from_fn(130, |d| d % 61 == 5);
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(d) = mask.next(from) {
            seen.push(d);
            from = d + 1;
        }
        assert_eq!(seen, [5, 66, 127]);
        let odd = DieMask::from_fn(130, |d| d % 2 == 1);
        assert_eq!(mask.next_common(&odd, 0), Some(5));
        assert_eq!(mask.next_common(&odd, 6), Some(127));
        assert_eq!(mask.next_common(&odd, 128), None);
        assert_eq!(mask.next(130), None);
        assert_eq!(DieMask::from_fn(64, |_| true).next(64), None);
    }

    /// One step of a seeded random device script.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Read(u64, u64),
        Write(u64, u64),
        Advance(SimDuration),
        PowerState(u8),
        Standby,
        Wake,
    }

    fn script(seed: u64, steps: usize) -> Vec<Step> {
        let mut rng = SimRng::seed_from(seed);
        (0..steps)
            .map(|_| {
                let len = rng.u64_range(1, 257) * 4 * KIB;
                let offset = rng.u64_range(0, (GIB - len) / (4 * KIB)) * 4 * KIB;
                match rng.index(20) {
                    0..=6 => Step::Read(offset, len),
                    7..=10 => Step::Write(offset, len),
                    11..=16 => Step::Advance(SimDuration::from_micros(rng.u64_range(1, 3_000))),
                    17 => Step::PowerState(rng.index(3) as u8),
                    18 => Step::Standby,
                    _ => Step::Wake,
                }
            })
            .collect()
    }

    fn apply(dev: &mut Ssd, id: u64, step: Step, out: &mut Vec<IoCompletion>) {
        match step {
            Step::Read(offset, len) => submit(dev, id, IoKind::Read, offset, len),
            Step::Write(offset, len) => submit(dev, id, IoKind::Write, offset, len),
            Step::Advance(d) => {
                let t = dev.now() + d;
                dev.advance_to_into(t, out);
            }
            Step::PowerState(i) => dev.set_power_state(PowerStateId(i)).unwrap(),
            // Refusals mid-transition are part of the script.
            Step::Standby => drop(dev.request_standby()),
            Step::Wake => drop(dev.request_wake()),
        }
    }

    /// A capped, standby-capable SSD with `dies` dies and a small read
    /// cache, so reads reach the dies.
    fn mask_ssd(dies: usize, seed: u64) -> Ssd {
        use crate::power::StandbyConfig;
        let spec = DeviceSpec::new("M", "Mask SSD", Protocol::Nvme, DeviceClass::Ssd, GIB);
        let mut cfg = SsdConfig::default();
        cfg.dies = dies;
        cfg.read_cache_pages = 16;
        cfg.power_states = vec![
            PowerStateDesc::new(PowerStateId(0), 25.0),
            PowerStateDesc::new(PowerStateId(1), 9.0),
            PowerStateDesc::new(PowerStateId(2), 6.5),
        ];
        cfg.standby = Some(StandbyConfig {
            standby_w: 0.17,
            enter: SimDuration::from_micros(300),
            exit: SimDuration::from_micros(500),
            transition_w: 0.6,
            wake_spike_w: 1.2,
        });
        Ssd::new(spec, cfg, seed)
    }

    /// Every bit of both masks, including the padding past the last die,
    /// agrees with `die_busy` and `die_q`.
    fn assert_masks_match(dev: &Ssd) {
        let dies = dev.cfg.dies;
        assert_eq!(dev.die_idle.0.len(), dies.div_ceil(64));
        assert_eq!(dev.die_queued.0.len(), dies.div_ceil(64));
        for d in 0..dev.die_idle.0.len() * 64 {
            let bit = |m: &DieMask| m.0[d / 64] >> (d % 64) & 1 == 1;
            assert_eq!(
                bit(&dev.die_idle),
                d < dies && !dev.die_busy[d],
                "idle die {d}"
            );
            assert_eq!(
                bit(&dev.die_queued),
                d < dies && !dev.die_q[d].is_empty(),
                "queued die {d}"
            );
        }
    }

    #[test]
    fn die_masks_track_busy_and_queued_dies_through_restore() {
        const STEPS: usize = 300;
        for (dies, seed) in [(8, 1), (64, 2), (65, 3), (128, 4)] {
            let steps = script(seed, STEPS);
            let mut dev = mask_ssd(dies, seed);
            let mut done = Vec::new();
            let mut last_die_busy = false;
            // Checkpoint past the middle, once dies are busy and reads
            // wait in die queues, so the restore has masks to rebuild.
            let mut split = None;
            for (i, &step) in steps.iter().enumerate() {
                apply(&mut dev, i as u64, step, &mut done);
                assert_masks_match(&dev);
                last_die_busy |= dev.die_busy[dies - 1];
                let mid_flight =
                    dev.die_busy.contains(&true) && dev.die_q.iter().any(|q| !q.is_empty());
                if i >= STEPS / 2 && mid_flight {
                    split = Some(i + 1);
                    break;
                }
            }
            let split = split.expect("the script reaches a mid-flight checkpoint");

            let mut w = SnapWriter::new();
            Snapshot::write_state(&dev, &mut w).unwrap();
            let payload = w.into_payload();
            let mut restored = mask_ssd(dies, seed);
            let mut r = SnapReader::new(&payload);
            Restore::read_state(&mut restored, &mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(restored.die_idle, dev.die_idle, "{dies} dies");
            assert_eq!(restored.die_queued, dev.die_queued, "{dies} dies");

            let (mut a, mut b) = (Vec::new(), Vec::new());
            for (i, &step) in steps.iter().enumerate().skip(split) {
                apply(&mut dev, i as u64, step, &mut a);
                apply(&mut restored, i as u64, step, &mut b);
                assert_masks_match(&dev);
                assert_masks_match(&restored);
                last_die_busy |= dev.die_busy[dies - 1];
            }
            let _ = dev.request_wake();
            let _ = restored.request_wake();
            a.extend(drain(&mut dev));
            b.extend(drain(&mut restored));
            assert_masks_match(&dev);
            assert!(!a.is_empty(), "{dies} dies: the script completes IOs");
            assert_eq!(a, b, "{dies} dies: completions diverged after restore");
            assert!(last_die_busy, "{dies} dies: the last die never ran");
        }
    }

    /// The ordered-index FIFO the scanned cache replaced, kept as the
    /// reference model: a `BTreeSet` answers membership.
    struct IndexedFifo {
        order: VecDeque<u64>,
        set: BTreeSet<u64>,
        capacity: usize,
    }

    impl IndexedFifo {
        fn contains(&self, page: u64) -> bool {
            self.set.contains(&page)
        }

        fn insert(&mut self, page: u64) {
            if self.capacity == 0 || self.set.contains(&page) {
                return;
            }
            if self.order.len() == self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
            self.order.push_back(page);
            self.set.insert(page);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The scanned cache reports the same hits and keeps the same FIFO
        /// order as the indexed one, step for step.
        #[test]
        fn page_cache_matches_indexed_fifo(
            capacity in proptest::sample::select(vec![0usize, 1, 16, 64, 128]),
            raw in proptest::collection::vec(0u64..1 << 32, 1..400),
        ) {
            // An alphabet half again the capacity keeps both hits and
            // evictions frequent.
            let alphabet = (capacity + capacity / 2 + 2) as u64;
            let mut cache = PageCache::new(capacity);
            let mut model = IndexedFifo {
                order: VecDeque::new(),
                set: BTreeSet::new(),
                capacity,
            };
            for (i, page) in raw.iter().map(|r| r % alphabet).enumerate() {
                let want = model.contains(page);
                model.insert(page);
                proptest::prop_assert_eq!(cache.hit_or_insert(page), want, "step {}", i);
                proptest::prop_assert_eq!(&cache.order, &model.order, "step {}", i);
            }
        }
    }

    /// Checkpoints a test SSD whose cache holds `pages` and restores the
    /// payload into a fresh one.
    fn restore_with_cached(pages: &[u64]) -> Result<(), SnapError> {
        let mut dev = test_ssd();
        dev.cache.order = pages.iter().copied().collect();
        let mut w = SnapWriter::new();
        Snapshot::write_state(&dev, &mut w).unwrap();
        let payload = w.into_payload();
        let mut r = SnapReader::new(&payload);
        Restore::read_state(&mut test_ssd(), &mut r)
    }

    #[test]
    fn restore_rejects_repeated_or_excess_cached_pages() {
        assert_eq!(restore_with_cached(&[7, 3, 9, 1]), Ok(()));
        assert_eq!(
            restore_with_cached(&[7, 3, 9, 3]),
            Err(SnapError::InvalidValue("duplicate cached page 3".into()))
        );
        let capacity = test_ssd().cfg.read_cache_pages as u64;
        let excess: Vec<u64> = (0..=capacity).collect();
        assert!(matches!(
            restore_with_cached(&excess),
            Err(SnapError::InvalidValue(m)) if m.starts_with("cache holds")
        ));
    }
}
