//! The device timing decorator and the span recorder of the traced run.
//!
//! [`TimedDevice`] wraps any `Box<dyn StorageDevice>`, delegates every
//! trait method to it unchanged, and tallies calls and host nanoseconds on
//! the hot entry points (`submit`, `advance_to*`, `next_event`). The tally
//! is shared by every device of a cell, so a span opened around a call into
//! the cluster can charge the device time spent underneath it as child
//! time.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant; // powadapt-lint: allow(D1, reason = "benchmark host timing; never feeds a simulated result")

use powadapt_cluster::ClusterSpec;
use powadapt_device::{
    DeviceError, DeviceSpec, IoCompletion, IoRequest, PowerStateDesc, PowerStateId, StandbyDepth,
    StandbyState, StorageDevice,
};
use powadapt_obs::RecorderHandle;
use powadapt_sim::SimTime;
use powadapt_snap::{SnapError, SnapReader, SnapWriter};

/// Host nanoseconds elapsed since `t0`.
// powadapt-lint: allow(D1, reason = "benchmark host timing; never feeds a simulated result")
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Reads the host clock. Every wall-clock read of the benchmark goes
/// through here; host time is what the benchmark measures and never feeds
/// back into a simulated result.
// powadapt-lint: allow(D1, reason = "benchmark host timing; never feeds a simulated result")
pub fn now() -> Instant {
    Instant::now() // powadapt-lint: allow(D1, reason = "benchmark host timing; never feeds a simulated result")
}

/// Plain counters of device work, as read out of a [`DeviceTally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    pub submit_calls: u64,
    pub submit_ns: u64,
    pub advance_calls: u64,
    pub advance_ns: u64,
    /// `advance_to*` calls that completed nothing.
    pub advance_idle: u64,
    pub next_event_calls: u64,
    pub next_event_ns: u64,
    pub completions: u64,
    pub power_state_calls: u64,
}

impl DeviceCounts {
    /// Host time of the timed device calls.
    pub fn ns(&self) -> u64 {
        self.submit_ns + self.advance_ns + self.next_event_ns
    }

    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            submit_calls: self.submit_calls - earlier.submit_calls,
            submit_ns: self.submit_ns - earlier.submit_ns,
            advance_calls: self.advance_calls - earlier.advance_calls,
            advance_ns: self.advance_ns - earlier.advance_ns,
            advance_idle: self.advance_idle - earlier.advance_idle,
            next_event_calls: self.next_event_calls - earlier.next_event_calls,
            next_event_ns: self.next_event_ns - earlier.next_event_ns,
            completions: self.completions - earlier.completions,
            power_state_calls: self.power_state_calls - earlier.power_state_calls,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &DeviceCounts) {
        self.submit_calls += other.submit_calls;
        self.submit_ns += other.submit_ns;
        self.advance_calls += other.advance_calls;
        self.advance_ns += other.advance_ns;
        self.advance_idle += other.advance_idle;
        self.next_event_calls += other.next_event_calls;
        self.next_event_ns += other.next_event_ns;
        self.completions += other.completions;
        self.power_state_calls += other.power_state_calls;
    }
}

/// Counters shared by every [`TimedDevice`] of a run.
#[derive(Debug, Default)]
pub struct DeviceTally(Cell<DeviceCounts>);

impl DeviceTally {
    /// The counters as of now.
    pub fn get(&self) -> DeviceCounts {
        self.0.get()
    }

    fn update(&self, f: impl FnOnce(&mut DeviceCounts)) {
        let mut c = self.0.get();
        f(&mut c);
        self.0.set(c);
    }
}

/// A `StorageDevice` decorator that times the hot calls and delegates
/// everything to the wrapped device.
#[derive(Debug)]
pub struct TimedDevice {
    inner: Box<dyn StorageDevice>,
    // powadapt-lint: allow(d6, reason = "host-time counters of the benchmark, not simulation state")
    tally: Rc<DeviceTally>,
}

impl TimedDevice {
    pub fn new(inner: Box<dyn StorageDevice>, tally: Rc<DeviceTally>) -> Self {
        TimedDevice { inner, tally }
    }
}

/// Wraps every device of `spec` in a [`TimedDevice`] charging `tally`.
pub fn decorate(spec: &mut ClusterSpec, tally: &Rc<DeviceTally>) {
    for enc in &mut spec.enclosures {
        enc.devices = std::mem::take(&mut enc.devices)
            .into_iter()
            .map(|d| Box::new(TimedDevice::new(d, tally.clone())) as Box<dyn StorageDevice>)
            .collect();
    }
}

impl StorageDevice for TimedDevice {
    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn submit(&mut self, req: IoRequest) -> Result<(), DeviceError> {
        let t0 = now();
        let r = self.inner.submit(req);
        let ns = elapsed_ns(t0);
        self.tally.update(|c| {
            c.submit_calls += 1;
            c.submit_ns += ns;
        });
        r
    }

    fn next_event(&mut self) -> Option<SimTime> {
        let t0 = now();
        let r = self.inner.next_event();
        let ns = elapsed_ns(t0);
        self.tally.update(|c| {
            c.next_event_calls += 1;
            c.next_event_ns += ns;
        });
        r
    }

    fn advance_to(&mut self, t: SimTime) -> Vec<IoCompletion> {
        let mut out = Vec::new();
        self.advance_to_into(t, &mut out);
        out
    }

    fn advance_to_into(&mut self, t: SimTime, out: &mut Vec<IoCompletion>) {
        let before = out.len();
        let t0 = now();
        self.inner.advance_to_into(t, out);
        let ns = elapsed_ns(t0);
        let done = (out.len() - before) as u64;
        self.tally.update(|c| {
            c.advance_calls += 1;
            c.advance_ns += ns;
            c.completions += done;
            c.advance_idle += u64::from(done == 0);
        });
    }

    fn power_w(&self) -> f64 {
        self.inner.power_w()
    }

    fn set_power_state(&mut self, ps: PowerStateId) -> Result<(), DeviceError> {
        self.inner.set_power_state(ps)
    }

    fn power_state(&self) -> PowerStateId {
        self.tally.update(|c| c.power_state_calls += 1);
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

    fn write_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.inner.write_state(w)
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.read_state(r)
    }
}

/// One recorded span: a call the benchmark made into the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Cell the span belongs to (every span of one cell shares it).
    pub cell: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Device work done inside the span. Device calls run millions of
    /// times per cell, so they are folded into their enclosing span as
    /// child time instead of being recorded one span each.
    pub device: DeviceCounts,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans are written out once, when the run
/// ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant, // powadapt-lint: allow(D1, reason = "benchmark host timing; never feeds a simulated result")
    tally: Rc<DeviceTally>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(tally: Rc<DeviceTally>) -> Self {
        Tracer {
            origin: now(),
            tally,
            spans: Vec::new(),
        }
    }

    pub fn tally(&self) -> &Rc<DeviceTally> {
        &self.tally
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, cell: u32, parent: Option<usize>) -> usize {
        // Holds the tally at the start until `close` turns it into the
        // work done inside the span.
        let device = self.tally.get();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns: elapsed_ns(self.origin),
            end_ns: 0,
            device,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end = elapsed_ns(self.origin);
        let device = self.tally.get();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.device = device.since(&s.device);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, cell, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Durations of the spans without children whose name passes
    /// `keep`, in recording order.
    pub fn leaf_ns(&self, keep: impl Fn(&str) -> bool) -> Vec<u64> {
        let mut parent = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                parent[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(parent)
            .filter(|(s, is_parent)| !is_parent && keep(s.name))
            .map(|(s, _)| s.ns())
            .collect()
    }

    /// Device work inside the spans named `name`.
    pub fn device_in(&self, name: &str) -> DeviceCounts {
        let mut c = DeviceCounts::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            c.add(&s.device);
        }
        c
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"cell\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"device_ns\": {}, \"device_calls\": {}}}",
                s.name,
                s.cell,
                s.start_ns,
                s.end_ns,
                s.device.ns(),
                s.device.submit_calls + s.device.advance_calls + s.device.next_event_calls
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
