//! Triggered high-rate capture — the oscilloscope of the paper's §3
//! ("the voltage signal can be measured by oscilloscope or ADCs").
//!
//! Where the 1 kHz [`PowerRig`](crate::PowerRig) records whole experiments,
//! an [`Oscilloscope`] arms on a power edge and captures a short window at
//! a much higher rate — the tool for zooming into standby transitions and
//! flush-burst edges.

use powadapt_sim::{SimDuration, SimRng, SimTime};

use crate::chain::MeasurementChain;
use crate::trace::PowerTrace;

/// When the scope starts recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Record from the first sample.
    Immediate,
    /// Record once the signal rises through the threshold (in watts).
    Rising(f64),
    /// Record once the signal falls through the threshold (in watts).
    Falling(f64),
}

/// A single-shot, software-triggered capture device.
///
/// Drive it like the rig: ask for [`Oscilloscope::next_sample`], advance the
/// device there, and feed the true power to [`Oscilloscope::observe`]. Once
/// the trigger fires, the scope records `depth` samples and stops.
///
/// # Examples
///
/// ```
/// use powadapt_meter::{MeasurementChain, Oscilloscope, Trigger};
/// use powadapt_sim::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let chain = MeasurementChain::paper_rig(5.0, &mut rng);
/// let mut scope = Oscilloscope::new(chain, rng.fork(), 100_000.0, 64, Trigger::Rising(1.0));
/// // A step from 0.3 W to 2 W fires the trigger.
/// for _ in 0..10 {
///     let t = scope.next_sample();
///     scope.observe(t, 0.3);
/// }
/// while !scope.is_complete() {
///     let t = scope.next_sample();
///     scope.observe(t, 2.0);
/// }
/// let capture = scope.capture().expect("triggered");
/// assert_eq!(capture.len(), 64);
/// ```
#[derive(Debug)]
pub struct Oscilloscope {
    chain: MeasurementChain,
    rng: SimRng,
    period: SimDuration,
    trigger: Trigger,
    depth: usize,
    next_at: SimTime,
    last_measured: Option<f64>,
    capture: Option<PowerTrace>,
}

impl Oscilloscope {
    /// Creates a scope sampling at `rate_hz` with a `depth`-sample buffer.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive or `depth` is zero.
    pub fn new(
        chain: MeasurementChain,
        rng: SimRng,
        rate_hz: f64,
        depth: usize,
        trigger: Trigger,
    ) -> Self {
        assert!(rate_hz > 0.0 && rate_hz.is_finite(), "bad sample rate");
        assert!(depth > 0, "capture depth must be non-zero");
        Oscilloscope {
            chain,
            rng,
            period: SimDuration::from_secs_f64(1.0 / rate_hz),
            trigger,
            depth,
            next_at: SimTime::ZERO,
            last_measured: None,
            capture: None,
        }
    }

    /// Re-bases the sampling clock (e.g. to the device's current time).
    pub fn arm_at(&mut self, t: SimTime) {
        self.next_at = t;
    }

    /// When the next sample is due.
    pub fn next_sample(&self) -> SimTime {
        self.next_at
    }

    /// True once the capture buffer is full (or will never fill because the
    /// scope is single-shot and already complete).
    pub fn is_complete(&self) -> bool {
        self.capture.as_ref().is_some_and(|c| c.len() >= self.depth)
    }

    /// Feeds the true power at the due sample instant.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not the due sample time.
    pub fn observe(&mut self, t: SimTime, true_power_w: f64) {
        assert_eq!(t, self.next_at, "observe at {t}, expected {}", self.next_at);
        self.next_at = t + self.period;
        if self.is_complete() {
            return;
        }
        let measured = self.chain.measure(true_power_w, &mut self.rng);
        let fired = match (&self.capture, self.trigger) {
            (Some(_), _) => true,
            (None, Trigger::Immediate) => true,
            (None, Trigger::Rising(th)) => {
                self.last_measured.is_some_and(|prev| prev < th) && measured >= th
            }
            (None, Trigger::Falling(th)) => {
                self.last_measured.is_some_and(|prev| prev > th) && measured <= th
            }
        };
        self.last_measured = Some(measured);
        if fired {
            let capture = self
                .capture
                .get_or_insert_with(|| PowerTrace::new(t, self.period));
            if capture.len() < self.depth {
                capture.push(measured);
            }
        }
    }

    /// The capture, if the trigger has fired (complete or partial).
    pub fn capture(&self) -> Option<&PowerTrace> {
        self.capture.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(trigger: Trigger) -> Oscilloscope {
        let mut rng = SimRng::seed_from(3);
        let chain = MeasurementChain::paper_rig(5.0, &mut rng);
        Oscilloscope::new(chain, rng.fork(), 100_000.0, 32, trigger)
    }

    fn feed(s: &mut Oscilloscope, watts: f64, n: usize) {
        for _ in 0..n {
            let t = s.next_sample();
            s.observe(t, watts);
        }
    }

    #[test]
    fn immediate_trigger_records_from_the_start() {
        let mut s = scope(Trigger::Immediate);
        feed(&mut s, 1.0, 40);
        assert!(s.is_complete());
        let c = s.capture().expect("captured");
        assert_eq!(c.len(), 32);
        assert!((c.mean() - 1.0).abs() < 0.05);
        // 100 kHz period.
        assert_eq!(c.period().as_micros(), 10);
    }

    #[test]
    fn rising_trigger_waits_for_the_edge() {
        let mut s = scope(Trigger::Rising(1.0));
        feed(&mut s, 0.3, 100);
        assert!(s.capture().is_none(), "no edge yet");
        feed(&mut s, 2.0, 40);
        assert!(s.is_complete());
        let c = s.capture().expect("captured");
        assert!((c.mean() - 2.0).abs() < 0.1);
    }

    #[test]
    fn falling_trigger_mirrors_rising() {
        let mut s = scope(Trigger::Falling(0.25));
        feed(&mut s, 0.35, 50);
        assert!(s.capture().is_none());
        feed(&mut s, 0.17, 40);
        assert!(s.is_complete());
        let c = s.capture().expect("captured");
        assert!((c.mean() - 0.17).abs() < 0.05, "{}", c.mean());
    }

    #[test]
    fn single_shot_stops_at_depth() {
        let mut s = scope(Trigger::Immediate);
        feed(&mut s, 1.0, 1000);
        assert_eq!(s.capture().expect("captured").len(), 32);
    }

    #[test]
    fn capture_zooms_an_evo_wake_spike() {
        use powadapt_device::{catalog, StorageDevice};
        let mut dev = catalog::evo_860(5);
        dev.request_standby().expect("idle device sleeps");
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
        }
        // Arm a 100 kHz scope on the wake edge: baseline at the standby
        // floor first, then wake the device mid-capture.
        let mut s = scope(Trigger::Rising(0.8));
        s.arm_at(dev.now());
        for i in 0..200_000 {
            if s.is_complete() {
                break;
            }
            if i == 50 {
                dev.request_wake().expect("wake accepted");
            }
            let t = s.next_sample();
            dev.advance_to(t);
            s.observe(t, dev.power_w());
        }
        let c = s.capture().expect("wake spike triggers the scope");
        // The capture sits on the 1.25 W wake plateau.
        assert!((c.mean() - 1.25).abs() < 0.1, "{}", c.mean());
        // And it resolves 10 µs detail — 100x finer than the rig.
        assert_eq!(c.period().as_micros(), 10);
    }

    #[test]
    #[should_panic(expected = "capture depth")]
    fn zero_depth_rejected() {
        let mut rng = SimRng::seed_from(3);
        let chain = MeasurementChain::paper_rig(5.0, &mut rng);
        let _ = Oscilloscope::new(chain, rng.fork(), 1000.0, 0, Trigger::Immediate);
    }
}
