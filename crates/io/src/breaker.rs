//! Circuit-breaker routing: quarantine erroring devices, probe, re-admit.
//!
//! A power-adaptive fleet that reacts to a faulting drive by aborting the
//! whole run has traded availability for a power knob — exactly the
//! trade-off §4.1's incremental-rollout argument says operators will not
//! accept. [`CircuitBreakerRouter`] wraps any [`Router`] and layers the
//! classic breaker state machine on top of its decisions:
//!
//! - **Closed** — traffic flows normally; consecutive transient errors are
//!   counted.
//! - **Open** — after `failure_threshold` consecutive errors the device is
//!   quarantined: arrivals the inner router sends there are deterministically
//!   redirected to the least-loaded non-quarantined device.
//! - **Half-open** — once `cooldown` has elapsed the device is probed:
//!   traffic is admitted again, and `probe_successes` completions close the
//!   breaker while a single error re-opens it.
//!
//! All decisions are pure functions of simulation time and observed
//! error/completion counts — no randomness — so runs stay bit-for-bit
//! reproducible. Every transition is recorded as a [`QuarantineEvent`] for
//! post-run audit.

use std::fmt;

use powadapt_device::{DeviceError, IoCompletion};
use powadapt_obs::{emit, EventKind, RecorderHandle};
use powadapt_sim::{SimDuration, SimTime};

use crate::fleet::{DeviceCommand, DeviceStatus, Route, Router};
use crate::openloop::Arrival;

/// Tuning knobs for [`CircuitBreakerRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient errors that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker quarantines its device before probing.
    pub cooldown: SimDuration,
    /// Completions a half-open device must deliver to close the breaker.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_millis(500),
            probe_successes: 2,
        }
    }
}

/// Breaker position for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive errors counted.
    Closed,
    /// Quarantined: traffic redirected until the cooldown elapses.
    Open,
    /// Probing: traffic admitted; successes close, an error re-opens.
    HalfOpen,
}

/// A breaker state transition, recorded for post-run audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// When the transition happened.
    pub at: SimTime,
    /// Device index the breaker guards.
    pub device: usize,
    /// State entered.
    pub entered: BreakerState,
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
    open_until: SimTime,
    /// The device's trace track, interned once.
    track: &'static str,
}

impl Breaker {
    fn new(device: usize) -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
            open_until: SimTime::ZERO,
            track: powadapt_obs::intern(&format!("device{device}")),
        }
    }
}

/// Wraps a [`Router`], quarantining devices whose errors trip a circuit
/// breaker and redirecting their traffic (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use powadapt_io::{BreakerConfig, CircuitBreakerRouter, LeastLoadedRouter};
///
/// let router = CircuitBreakerRouter::new(LeastLoadedRouter::default(), BreakerConfig::default());
/// assert!(router.events().is_empty());
/// ```
#[derive(Debug)]
pub struct CircuitBreakerRouter<R> {
    inner: R,
    cfg: BreakerConfig,
    breakers: Vec<Breaker>,
    events: Vec<QuarantineEvent>,
    rec: RecorderHandle,
}

impl<R> CircuitBreakerRouter<R> {
    /// Wraps `inner` with breaker behavior under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.failure_threshold` or `cfg.probe_successes` is zero,
    /// or `cfg.cooldown` is zero (the breaker could never close again).
    pub fn new(inner: R, cfg: BreakerConfig) -> Self {
        assert!(cfg.failure_threshold >= 1, "failure threshold must be >= 1");
        assert!(cfg.probe_successes >= 1, "probe successes must be >= 1");
        assert!(!cfg.cooldown.is_zero(), "cooldown must be non-zero");
        CircuitBreakerRouter {
            inner,
            cfg,
            breakers: Vec::new(),
            events: Vec::new(),
            rec: powadapt_obs::current(),
        }
    }

    /// The breaker transitions recorded so far, in time order.
    pub fn events(&self) -> &[QuarantineEvent] {
        &self.events
    }

    /// Current breaker state for device `device` ([`BreakerState::Closed`]
    /// if the device has not been seen yet).
    pub fn state(&self, device: usize) -> BreakerState {
        self.breakers
            .get(device)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    fn ensure(&mut self, n: usize) {
        while self.breakers.len() < n {
            self.breakers.push(Breaker::new(self.breakers.len()));
        }
    }

    fn transition(&mut self, device: usize, entered: BreakerState, at: SimTime) {
        self.breakers[device].state = entered;
        emit!(
            self.rec,
            at,
            self.breakers[device].track,
            match entered {
                BreakerState::Closed => EventKind::BreakerClose,
                BreakerState::Open => EventKind::BreakerOpen,
                BreakerState::HalfOpen => EventKind::BreakerHalfOpen,
            }
        );
        self.events.push(QuarantineEvent {
            at,
            device,
            entered,
        });
    }

    /// Moves any open breaker whose cooldown has elapsed to half-open.
    fn probe_expired(&mut self, now: SimTime) {
        for i in 0..self.breakers.len() {
            let b = self.breakers[i];
            if b.state == BreakerState::Open && now >= b.open_until {
                self.breakers[i].probe_successes = 0;
                self.transition(i, BreakerState::HalfOpen, now);
            }
        }
    }
}

impl<R: Router> Router for CircuitBreakerRouter<R> {
    fn route(&mut self, arrival: &Arrival, fleet: &[DeviceStatus]) -> Route {
        self.ensure(fleet.len());
        // Arrival admission time is the best clock available here; the run
        // loop admits arrivals at `t >= arrival.at`, so this only ever
        // probes late, never early.
        self.probe_expired(arrival.at);

        let route = self.inner.route(arrival, fleet);
        let target = match route {
            Route::Device(d) if d < fleet.len() => d,
            other => return other,
        };
        if self.breakers[target].state != BreakerState::Open {
            return route;
        }
        // Redirect away from the quarantined device: least-loaded among the
        // non-open devices, lowest index on ties. If every breaker is open
        // the inner choice stands — the run loop's own per-arrival retry
        // bound decides whether the arrival is dropped.
        let candidate = fleet
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.breakers[i].state != BreakerState::Open)
            .min_by_key(|&(i, s)| (s.inflight, i))
            .map(|(i, _)| i);
        match candidate {
            Some(i) => Route::Device(i),
            None => route,
        }
    }

    fn control(&mut self, now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
        self.ensure(fleet.len());
        // Quiet fleets must still re-admit: probe on the control tick too,
        // not just on arrivals.
        self.probe_expired(now);
        self.inner.control(now, fleet)
    }

    fn on_device_error(&mut self, device: usize, error: &DeviceError, now: SimTime) {
        self.ensure(device + 1);
        let b = self.breakers[device];
        match b.state {
            BreakerState::Closed => {
                self.breakers[device].consecutive_failures += 1;
                if self.breakers[device].consecutive_failures >= self.cfg.failure_threshold {
                    self.breakers[device].open_until = now + self.cfg.cooldown;
                    self.transition(device, BreakerState::Open, now);
                }
            }
            BreakerState::HalfOpen => {
                // One strike during a probe re-opens immediately.
                self.breakers[device].consecutive_failures = self.cfg.failure_threshold;
                self.breakers[device].open_until = now + self.cfg.cooldown;
                self.transition(device, BreakerState::Open, now);
            }
            BreakerState::Open => {}
        }
        self.inner.on_device_error(device, error, now);
    }

    fn on_io_complete(&mut self, device: usize, completion: &IoCompletion) {
        self.ensure(device + 1);
        match self.breakers[device].state {
            BreakerState::Closed => self.breakers[device].consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.breakers[device].probe_successes += 1;
                if self.breakers[device].probe_successes >= self.cfg.probe_successes {
                    self.breakers[device].consecutive_failures = 0;
                    self.transition(device, BreakerState::Closed, completion.completed);
                }
            }
            BreakerState::Open => {}
        }
        self.inner.on_io_complete(device, completion);
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::LeastLoadedRouter;
    use powadapt_device::{IoId, IoKind};

    fn status(inflight: usize) -> DeviceStatus {
        DeviceStatus {
            inflight,
            standby: powadapt_device::StandbyState::Active,
            power_state: powadapt_device::PowerStateId(0),
            supports_standby: false,
        }
    }

    fn arrival(at_ms: u64) -> Arrival {
        Arrival {
            at: SimTime::from_millis(at_ms),
            kind: IoKind::Read,
            offset: 0,
            len: 4096,
        }
    }

    fn completion(at_ms: u64) -> IoCompletion {
        IoCompletion {
            id: IoId(0),
            kind: IoKind::Read,
            len: 4096,
            submitted: SimTime::from_millis(at_ms),
            completed: SimTime::from_millis(at_ms),
        }
    }

    fn err() -> DeviceError {
        DeviceError::Unavailable
    }

    #[test]
    fn opens_after_threshold_and_redirects() {
        let mut r =
            CircuitBreakerRouter::new(LeastLoadedRouter::default(), BreakerConfig::default());
        let fleet = vec![status(0), status(5)];
        // Device 0 is least loaded: the inner router picks it.
        assert_eq!(r.route(&arrival(0), &fleet), Route::Device(0));
        for _ in 0..3 {
            r.on_device_error(0, &err(), SimTime::from_millis(1));
        }
        assert_eq!(r.state(0), BreakerState::Open);
        // Despite device 0 being least loaded, traffic now goes to 1.
        assert_eq!(r.route(&arrival(2), &fleet), Route::Device(1));
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].entered, BreakerState::Open);
    }

    #[test]
    fn probes_after_cooldown_and_closes_on_successes() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: SimDuration::from_millis(10),
            probe_successes: 2,
        };
        let mut r = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
        let fleet = vec![status(0), status(0)];
        r.route(&arrival(0), &fleet);
        r.on_device_error(0, &err(), SimTime::from_millis(1));
        assert_eq!(r.state(0), BreakerState::Open);
        // Before the cooldown: still quarantined.
        r.route(&arrival(5), &fleet);
        assert_eq!(r.state(0), BreakerState::Open);
        // After the cooldown: probing.
        r.route(&arrival(12), &fleet);
        assert_eq!(r.state(0), BreakerState::HalfOpen);
        r.on_io_complete(0, &completion(13));
        assert_eq!(r.state(0), BreakerState::HalfOpen);
        r.on_io_complete(0, &completion(14));
        assert_eq!(r.state(0), BreakerState::Closed);
        let entered: Vec<BreakerState> = r.events().iter().map(|e| e.entered).collect();
        assert_eq!(
            entered,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]
        );
    }

    #[test]
    fn half_open_error_reopens() {
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_millis(10),
            probe_successes: 1,
        };
        let mut r = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
        let fleet = vec![status(0), status(0)];
        r.route(&arrival(0), &fleet);
        r.on_device_error(0, &err(), SimTime::from_millis(0));
        r.on_device_error(0, &err(), SimTime::from_millis(1));
        assert_eq!(r.state(0), BreakerState::Open);
        r.route(&arrival(20), &fleet);
        assert_eq!(r.state(0), BreakerState::HalfOpen);
        // A single error during the probe re-opens without a new threshold.
        r.on_device_error(0, &err(), SimTime::from_millis(21));
        assert_eq!(r.state(0), BreakerState::Open);
    }

    #[test]
    fn control_tick_probes_without_traffic() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: SimDuration::from_millis(10),
            probe_successes: 1,
        };
        let mut r = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
        let fleet = vec![status(0)];
        r.route(&arrival(0), &fleet);
        r.on_device_error(0, &err(), SimTime::from_millis(0));
        assert_eq!(r.state(0), BreakerState::Open);
        let _ = r.control(SimTime::from_millis(15), &fleet);
        assert_eq!(r.state(0), BreakerState::HalfOpen);
    }

    #[test]
    fn all_open_falls_back_to_inner_choice() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        };
        let mut r = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
        let fleet = vec![status(0), status(0)];
        r.route(&arrival(0), &fleet);
        r.on_device_error(0, &err(), SimTime::from_millis(0));
        r.on_device_error(1, &err(), SimTime::from_millis(0));
        assert_eq!(r.state(0), BreakerState::Open);
        assert_eq!(r.state(1), BreakerState::Open);
        // Nothing healthy to redirect to: the inner pick stands.
        match r.route(&arrival(1), &fleet) {
            Route::Device(_) => {}
            other => panic!("expected a device route, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cooldown must be non-zero")]
    fn zero_cooldown_rejected() {
        let cfg = BreakerConfig {
            cooldown: SimDuration::ZERO,
            ..BreakerConfig::default()
        };
        let _ = CircuitBreakerRouter::new(LeastLoadedRouter::default(), cfg);
    }
}
