//! One stepping discipline for the multi-device event loops.
//!
//! [`run_fleet`](crate::run_fleet) and the cluster simulation step many
//! devices from event time to event time. A [`Stepper`] advances only the
//! due devices, with the result of lockstep, which steps at every device
//! event and advances every device at every step:
//!
//! - A wake cache holds each device's `next_event()`, refreshed after
//!   every advance, submit and touch. A device that is neither due nor
//!   touched would change nothing but its clock if advanced, so draining
//!   the due ones in device order yields lockstep's completions in order.
//! - A device may acknowledge inside `submit` and hand the completion
//!   over on its next advance, which lockstep makes at the next step; the
//!   trait does not promise an event for it. So a submit touches its
//!   device, and a loop touches every device after control commands or a
//!   restore.
//! - A lagging device's power, standby state and in-flight count change
//!   only at its events, so meters and routers may read it as it is. Its
//!   clock may not be read stale (submits, fault windows and trace events
//!   use it), so it is caught up to the step time, completing nothing,
//!   before a submit to it; a loop catches every device up before control
//!   commands and when it stops. The "completed IO while catching up"
//!   assertion checks that no due device was skipped.
//!
//! A loop may also choose the step times. `run_fleet` steps at every
//! device event ([`next_wake`](Stepper::next_wake)): its router observes
//! each completion at its own time. The cluster steps only at the events
//! of its *eager* devices ([`next_wake_among`](Stepper::next_wake_among))
//! beside its arrivals, ticks and fault transitions, and lets the other
//! devices lag:
//!
//! - Eager are the devices whose completions start cluster work at their
//!   own time: the source of a migration reading and the destination of
//!   one writing, whose completion issues the next leg or commits the
//!   move. While the migration backlog holds a leg every device is
//!   eager, because lockstep retries the backlog at every step and a
//!   retry's outcome depends on when it runs. (This relies on every
//!   in-tree device completing only at its events: one that acknowledged
//!   inside `submit` would hand a leg over at the next cluster step, not
//!   at lockstep's.)
//! - A lazy device's completions belong to tenants. They feed the SLO
//!   windows, whose every query is order-free, and the ownership map;
//!   neither cares when a completion is drained, as long as it is drained
//!   before the step that reads them. Every step drains every due device
//!   first, in one `advance_to_into(t)` across all of its events, which a
//!   device must make equal to advancing at each of them
//!   (`crates/device/tests/properties.rs` checks this per device model).
//! - Before a `run_to` slice ends, the cluster steps the lazy devices'
//!   remaining events before the limit one event time at a time, as
//!   lockstep would, so its clock, the device clocks and the checkpoint
//!   bytes at the boundary are lockstep's.
//!
//! The cache is a plain scan: at 4–8 devices a heap costs more.

use powadapt_device::{DeviceError, IoCompletion, IoId, IoRequest, StorageDevice};
use powadapt_sim::SimTime;

use crate::openloop::Arrival;

/// Steps devices indexed `0..n`; each call takes the device it acts on,
/// and [`touch_all`](Stepper::touch_all) sets `n`.
#[derive(Debug, Default)]
pub struct Stepper {
    /// Each device's `next_event()` as of its last advance or touch.
    wake: Vec<Option<SimTime>>,
    /// Devices submitted to or reconfigured since their last advance.
    touched: Vec<bool>,
    /// Completions of the last drain, reused across steps.
    done: Vec<IoCompletion>,
}

impl Stepper {
    /// The earliest cached device event.
    #[inline]
    pub fn next_wake(&self) -> Option<SimTime> {
        self.wake.iter().flatten().copied().min()
    }

    /// The earliest cached event of the devices `among` marks, indexed
    /// like the devices.
    #[inline]
    pub fn next_wake_among(&self, among: &[bool]) -> Option<SimTime> {
        self.wake
            .iter()
            .zip(among)
            .filter_map(|(w, &on)| w.filter(|_| on))
            .min()
    }

    /// Advances device `i` to `t` if it is due or touched, and returns
    /// its completions.
    #[inline]
    pub fn drain<D>(&mut self, i: usize, dev: &mut D, t: SimTime) -> &[IoCompletion]
    where
        D: StorageDevice + ?Sized,
    {
        self.done.clear();
        if self.touched[i] || self.wake[i].is_some_and(|w| w <= t) {
            dev.advance_to_into(t, &mut self.done);
            self.wake[i] = dev.next_event();
            self.touched[i] = false;
        }
        &self.done
    }

    /// Brings every lagging device up to `t`.
    ///
    /// # Panics
    ///
    /// Panics if a device completes IO on the way: it was due earlier.
    pub fn catch_up_all<'a, D>(&mut self, devices: impl IntoIterator<Item = &'a mut D>, t: SimTime)
    where
        D: StorageDevice + ?Sized + 'a,
    {
        for (i, dev) in devices.into_iter().enumerate() {
            self.catch_up(i, dev, t);
        }
    }

    /// Rebuilds the cache from `devices`, in index order, and marks every
    /// one touched. A loop calls it before its first step and after
    /// anything that may change a device outside a submit.
    pub fn touch_all<'a, D>(&mut self, devices: impl IntoIterator<Item = &'a mut D>)
    where
        D: StorageDevice + ?Sized + 'a,
    {
        self.wake.clear();
        self.wake
            .extend(devices.into_iter().map(StorageDevice::next_event));
        self.touched.clear();
        self.touched.resize(self.wake.len(), true);
    }

    /// Catches device `i` up to `t`, submits `arrival` as request `id`
    /// clamped to the device's capacity (length first, then offset), and
    /// touches the device whatever the outcome.
    ///
    /// # Errors
    ///
    /// Returns the device's refusal.
    #[inline]
    pub fn submit<D: StorageDevice + ?Sized>(
        &mut self,
        i: usize,
        dev: &mut D,
        t: SimTime,
        id: IoId,
        arrival: &Arrival,
    ) -> Result<(), DeviceError> {
        self.catch_up(i, dev, t);
        let cap = dev.spec().capacity();
        let len = arrival.len.min(cap);
        let offset = arrival.offset.min(cap - len);
        let result = dev.submit(IoRequest::new(id, arrival.kind, offset, len));
        self.wake[i] = dev.next_event();
        self.touched[i] = true;
        result
    }

    #[inline]
    fn catch_up<D: StorageDevice + ?Sized>(&mut self, i: usize, dev: &mut D, t: SimTime) {
        if dev.now() < t {
            self.done.clear();
            dev.advance_to_into(t, &mut self.done);
            assert!(
                self.done.is_empty(),
                "device {i} completed IO while catching up to {t}"
            );
        }
    }
}
