//! Power budgets over time: the external signal a power-adaptive storage
//! system reacts to.
//!
//! The paper's §1 motivates three timescales: millisecond-scale
//! oversubscription response, medium-term rail failures and renewable
//! variation, and long-term grid limits. A [`BudgetSchedule`] is a
//! time-ordered sequence of [`PowerEvent`]s expressing any of these.

use std::fmt;

use powadapt_sim::SimTime;

/// Why the available power changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PowerEventCause {
    /// Power oversubscription emergency: shed load within milliseconds.
    Oversubscription,
    /// A power rail failed; the surviving rails carry less.
    RailFailure,
    /// Renewable generation dipped (weather, time of day).
    RenewableDip,
    /// A grid demand-response program requested a reduction.
    DemandResponse,
    /// Power availability recovered.
    Recovery,
}

impl fmt::Display for PowerEventCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerEventCause::Oversubscription => "oversubscription",
            PowerEventCause::RailFailure => "rail-failure",
            PowerEventCause::RenewableDip => "renewable-dip",
            PowerEventCause::DemandResponse => "demand-response",
            PowerEventCause::Recovery => "recovery",
        };
        write!(f, "{s}")
    }
}

/// A change in available power at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// Power available to the storage subsystem from `at` onward, in watts.
    pub available_w: f64,
    /// Why.
    pub cause: PowerEventCause,
}

/// A time-ordered schedule of power events with an initial budget.
///
/// # Examples
///
/// ```
/// use powadapt_core::{BudgetSchedule, PowerEventCause};
/// use powadapt_sim::SimTime;
///
/// let mut sched = BudgetSchedule::new(100.0);
/// sched.push(SimTime::from_secs(10), 60.0, PowerEventCause::DemandResponse);
/// assert_eq!(sched.budget_at(SimTime::from_secs(5)), 100.0);
/// assert_eq!(sched.budget_at(SimTime::from_secs(10)), 60.0);
/// ```
#[derive(Debug, Clone)]
pub struct BudgetSchedule {
    initial_w: f64,
    events: Vec<PowerEvent>,
}

impl BudgetSchedule {
    /// Creates a schedule with the given initial budget.
    ///
    /// # Panics
    ///
    /// Panics if `initial_w` is not positive and finite.
    pub fn new(initial_w: f64) -> Self {
        assert!(
            initial_w.is_finite() && initial_w > 0.0,
            "initial budget must be positive"
        );
        BudgetSchedule {
            initial_w,
            events: Vec::new(),
        }
    }

    /// Appends an event. Events must be pushed in time order.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last pushed event, or `available_w` is
    /// negative or not finite.
    pub fn push(&mut self, at: SimTime, available_w: f64, cause: PowerEventCause) {
        assert!(
            available_w.is_finite() && available_w >= 0.0,
            "budget must be non-negative"
        );
        if let Some(last) = self.events.last() {
            assert!(at >= last.at, "events must be pushed in time order");
        }
        self.events.push(PowerEvent {
            at,
            available_w,
            cause,
        });
    }

    /// The budget in force at time `t`.
    pub fn budget_at(&self, t: SimTime) -> f64 {
        let mut b = self.initial_w;
        for e in &self.events {
            if e.at <= t {
                b = e.available_w;
            } else {
                break;
            }
        }
        b
    }

    /// The events in order.
    pub fn events(&self) -> &[PowerEvent] {
        &self.events
    }

    /// The initial budget.
    pub fn initial_w(&self) -> f64 {
        self.initial_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_steps_at_events() {
        let mut s = BudgetSchedule::new(50.0);
        s.push(SimTime::from_secs(1), 30.0, PowerEventCause::RailFailure);
        s.push(SimTime::from_secs(2), 45.0, PowerEventCause::Recovery);
        assert_eq!(s.budget_at(SimTime::ZERO), 50.0);
        assert_eq!(s.budget_at(SimTime::from_millis(999)), 50.0);
        assert_eq!(s.budget_at(SimTime::from_secs(1)), 30.0);
        assert_eq!(s.budget_at(SimTime::from_secs(3)), 45.0);
        assert_eq!(s.initial_w(), 50.0);
        assert_eq!(s.events().len(), 2);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_events_panic() {
        let mut s = BudgetSchedule::new(50.0);
        s.push(SimTime::from_secs(2), 30.0, PowerEventCause::RenewableDip);
        s.push(SimTime::from_secs(1), 40.0, PowerEventCause::Recovery);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_initial_budget_panics() {
        let _ = BudgetSchedule::new(0.0);
    }

    #[test]
    fn causes_display() {
        assert_eq!(
            PowerEventCause::Oversubscription.to_string(),
            "oversubscription"
        );
        assert_eq!(
            PowerEventCause::DemandResponse.to_string(),
            "demand-response"
        );
    }
}
