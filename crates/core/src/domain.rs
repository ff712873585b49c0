//! Data-center power-domain hierarchy and the §4.1 incremental-rollout
//! safety rules.
//!
//! The paper argues power-adaptive storage must be deployed below the
//! lowest tier of the power hierarchy (sub-rack), so a local failure to
//! shed power trips at most a rack-level breaker; and that test
//! deployments must be spread across domains so coordinated failures
//! cannot overwhelm any single breaker.

use std::fmt;

/// A node in the power-delivery hierarchy (datacenter → row → rack →
/// sub-rack), with a breaker limit and attached storage devices.
#[derive(Debug, Clone)]
pub struct PowerDomain {
    name: String,
    breaker_limit_w: f64,
    children: Vec<PowerDomain>,
    /// Worst-case (peak) power of each directly attached device, in watts,
    /// tagged with whether the device participates in the power-adaptive
    /// deployment.
    devices: Vec<AttachedDevice>,
}

/// A device attached directly to a domain.
#[derive(Debug, Clone, PartialEq)]
pub struct AttachedDevice {
    /// Device label.
    pub label: String,
    /// Worst-case power draw, in watts.
    pub peak_w: f64,
    /// Whether this device is managed by the power-adaptive system.
    pub adaptive: bool,
}

/// A violation found by [`PowerDomain::check_safety`].
#[derive(Debug, Clone, PartialEq)]
pub enum SafetyViolation {
    /// A domain's worst-case attached power exceeds its breaker limit.
    BreakerOvercommit {
        /// Domain name.
        domain: String,
        /// Worst-case power.
        peak_w: f64,
        /// Breaker limit.
        limit_w: f64,
    },
    /// Too large a fraction of the adaptive deployment sits in one domain.
    ConcentratedDeployment {
        /// Domain name.
        domain: String,
        /// Fraction of adaptive peak power in this domain.
        fraction: f64,
        /// The allowed fraction.
        allowed: f64,
    },
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyViolation::BreakerOvercommit {
                domain,
                peak_w,
                limit_w,
            } => write!(
                f,
                "domain {domain}: worst-case {peak_w:.0} W exceeds breaker {limit_w:.0} W"
            ),
            SafetyViolation::ConcentratedDeployment {
                domain,
                fraction,
                allowed,
            } => write!(
                f,
                "domain {domain}: holds {:.0}% of the adaptive deployment (> {:.0}%)",
                100.0 * fraction,
                100.0 * allowed
            ),
        }
    }
}

impl PowerDomain {
    /// Creates a leaf domain.
    ///
    /// # Panics
    ///
    /// Panics if `breaker_limit_w` is not positive.
    pub fn new(name: impl Into<String>, breaker_limit_w: f64) -> Self {
        assert!(breaker_limit_w > 0.0, "breaker limit must be positive");
        PowerDomain {
            name: name.into(),
            breaker_limit_w,
            children: Vec::new(),
            devices: Vec::new(),
        }
    }

    /// Adds a child domain, returning `self` for chaining.
    pub fn child(mut self, child: PowerDomain) -> Self {
        self.children.push(child);
        self
    }

    /// Attaches a device, returning `self` for chaining.
    pub fn device(mut self, label: impl Into<String>, peak_w: f64, adaptive: bool) -> Self {
        self.devices.push(AttachedDevice {
            label: label.into(),
            peak_w,
            adaptive,
        });
        self
    }

    /// Domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Child domains.
    pub fn children(&self) -> &[PowerDomain] {
        &self.children
    }

    /// Directly attached devices.
    pub fn devices(&self) -> &[AttachedDevice] {
        &self.devices
    }

    /// Worst-case power of this domain: directly attached devices plus all
    /// children (assuming every device peaks simultaneously — the
    /// conservative breaker-sizing assumption).
    pub fn worst_case_w(&self) -> f64 {
        self.devices.iter().map(|d| d.peak_w).sum::<f64>()
            + self
                .children
                .iter()
                .map(PowerDomain::worst_case_w)
                .sum::<f64>()
    }

    /// Worst-case power of adaptive devices in this subtree.
    pub fn adaptive_peak_w(&self) -> f64 {
        self.devices
            .iter()
            .filter(|d| d.adaptive)
            .map(|d| d.peak_w)
            .sum::<f64>()
            + self
                .children
                .iter()
                .map(PowerDomain::adaptive_peak_w)
                .sum::<f64>()
    }

    /// Checks the §4.1 deployment rules against this hierarchy:
    ///
    /// 1. every domain's worst case fits its breaker (a failed power-adaptive
    ///    controller must not be able to trip anything), and
    /// 2. no immediate child of the root holds more than
    ///    `max_domain_fraction` of the adaptive deployment (coordinated
    ///    failures stay contained).
    ///
    /// Returns all violations found (empty = safe).
    ///
    /// # Panics
    ///
    /// Panics if `max_domain_fraction` is not in `(0, 1]`.
    pub fn check_safety(&self, max_domain_fraction: f64) -> Vec<SafetyViolation> {
        assert!(
            max_domain_fraction > 0.0 && max_domain_fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let mut out = Vec::new();
        self.check_breakers(&mut out);
        let total_adaptive = self.adaptive_peak_w();
        if total_adaptive > 0.0 {
            for c in &self.children {
                let fraction = c.adaptive_peak_w() / total_adaptive;
                if fraction > max_domain_fraction + 1e-12 {
                    out.push(SafetyViolation::ConcentratedDeployment {
                        domain: c.name.clone(),
                        fraction,
                        allowed: max_domain_fraction,
                    });
                }
            }
        }
        out
    }

    fn check_breakers(&self, out: &mut Vec<SafetyViolation>) {
        let peak = self.worst_case_w();
        if peak > self.breaker_limit_w {
            out.push(SafetyViolation::BreakerOvercommit {
                domain: self.name.clone(),
                peak_w: peak,
                limit_w: self.breaker_limit_w,
            });
        }
        for c in &self.children {
            c.check_breakers(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack(name: &str, adaptive: bool) -> PowerDomain {
        let mut d = PowerDomain::new(name, 100.0);
        for i in 0..4 {
            d = d.device(format!("{name}-ssd{i}"), 15.0, adaptive);
        }
        d
    }

    #[test]
    fn worst_case_sums_subtree() {
        let row = PowerDomain::new("row", 1000.0)
            .child(rack("r1", true))
            .child(rack("r2", false));
        assert_eq!(row.worst_case_w(), 120.0);
        assert_eq!(row.adaptive_peak_w(), 60.0);
    }

    #[test]
    fn safe_hierarchy_has_no_violations() {
        let row = PowerDomain::new("row", 1000.0)
            .child(rack("r1", true))
            .child(rack("r2", true));
        assert!(row.check_safety(0.5).is_empty());
    }

    #[test]
    fn breaker_overcommit_detected() {
        let rack = PowerDomain::new("hot-rack", 50.0)
            .device("a", 30.0, true)
            .device("b", 30.0, true);
        let violations = rack.check_safety(1.0);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            SafetyViolation::BreakerOvercommit { .. }
        ));
        assert!(violations[0].to_string().contains("breaker"));
    }

    #[test]
    fn concentrated_deployment_detected() {
        // All adaptive devices in one rack: violates a 50 % spread rule.
        let row = PowerDomain::new("row", 1000.0)
            .child(rack("r1", true))
            .child(rack("r2", false));
        let violations = row.check_safety(0.5);
        assert_eq!(violations.len(), 1);
        match &violations[0] {
            SafetyViolation::ConcentratedDeployment {
                domain, fraction, ..
            } => {
                assert_eq!(domain, "r1");
                assert!((*fraction - 1.0).abs() < 1e-12);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn no_adaptive_devices_means_no_concentration_issue() {
        let row = PowerDomain::new("row", 1000.0)
            .child(rack("r1", false))
            .child(rack("r2", false));
        assert!(row.check_safety(0.1).is_empty());
    }

    #[test]
    fn nested_breaker_checks_recurse() {
        let inner = PowerDomain::new("sub", 10.0).device("d", 20.0, false);
        let outer = PowerDomain::new("rack", 1000.0).child(inner);
        let violations = outer.check_safety(1.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("sub"));
    }

    #[test]
    fn accessors() {
        let d = PowerDomain::new("x", 5.0).device("dev", 1.0, true);
        assert_eq!(d.name(), "x");
        assert_eq!(d.devices().len(), 1);
        assert!(d.children().is_empty());
    }
}
