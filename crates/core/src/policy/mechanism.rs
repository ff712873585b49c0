//! Choosing *which* power-control mechanism to apply (§4.1): when CPU
//! throttling or diurnal load reduces the IO request rate, is it cheaper to
//! reshape IO on every device, or to consolidate onto fewer devices and put
//! the rest in standby?
//!
//! The paper predicts redirection+standby wins at low demand (devices can
//! stay asleep longer) and capping+shaping wins near saturation (every
//! device is needed anyway). [`choose_mechanism`] quantifies the crossover
//! from a measured power-throughput model.

use std::fmt;

use powadapt_model::{pareto_frontier, PowerThroughputModel};

/// The §4 mechanism families compared here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Keep every device active; select the cheapest configuration (power
    /// cap + IO shape) that serves its share of the demand.
    CapAndShape,
    /// Serve the demand from as few devices as possible (each at its peak
    /// efficiency) and put the rest in standby.
    RedirectAndStandby,
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mechanism::CapAndShape => write!(f, "cap+shape"),
            Mechanism::RedirectAndStandby => write!(f, "redirect+standby"),
        }
    }
}

/// The outcome of the comparison at one demand level.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismChoice {
    /// The cheaper mechanism.
    pub preferred: Mechanism,
    /// Estimated fleet power under cap+shape, in watts (`None` if the
    /// demand cannot be served that way).
    pub cap_shape_w: Option<f64>,
    /// Estimated fleet power under redirect+standby, in watts (`None` if
    /// the demand exceeds the fleet's capacity).
    pub redirect_w: Option<f64>,
    /// Active devices under the redirect plan.
    pub redirect_active: usize,
}

/// Compares the two mechanism families for a fleet of `n` identical devices
/// described by `model`, serving `demand_bps` total, where a sleeping
/// device draws `standby_w`.
///
/// Both estimates pick points from the model's Pareto frontier:
///
/// - **cap+shape**: all `n` devices active, each at the cheapest frontier
///   point serving `demand/n`;
/// - **redirect+standby**: the smallest `k` whose per-device share fits the
///   frontier, each active device at the cheapest point serving
///   `demand/k`, plus `n − k` devices at `standby_w`.
///
/// # Panics
///
/// Panics if `n` is zero or inputs are not finite/non-negative.
pub fn choose_mechanism(
    model: &PowerThroughputModel,
    n: usize,
    demand_bps: f64,
    standby_w: f64,
) -> MechanismChoice {
    assert!(n > 0, "fleet must be non-empty");
    assert!(
        demand_bps.is_finite() && demand_bps >= 0.0,
        "bad demand {demand_bps}"
    );
    assert!(standby_w >= 0.0, "bad standby power {standby_w}");

    let frontier = pareto_frontier(model.points());
    let cheapest_serving = |share_bps: f64| -> Option<f64> {
        frontier
            .iter()
            .find(|p| p.throughput_bps() >= share_bps)
            .map(powadapt_model::ConfigPoint::power_w)
    };

    let cap_shape_w = cheapest_serving(demand_bps / n as f64).map(|p| p * n as f64);

    let mut redirect_w = None;
    let mut redirect_active = n;
    for k in 1..=n {
        if let Some(p) = cheapest_serving(demand_bps / k as f64) {
            redirect_w = Some(p * k as f64 + standby_w * (n - k) as f64);
            redirect_active = k;
            break;
        }
    }

    let preferred = match (cap_shape_w, redirect_w) {
        (Some(a), Some(b)) if b < a => Mechanism::RedirectAndStandby,
        (Some(_), _) => Mechanism::CapAndShape,
        (None, Some(_)) => Mechanism::RedirectAndStandby,
        (None, None) => Mechanism::CapAndShape, // nothing fits; report the default
    };
    MechanismChoice {
        preferred,
        cap_shape_w,
        redirect_w,
        redirect_active,
    }
}

/// The demand level (as a fraction of fleet peak throughput) below which
/// redirect+standby becomes cheaper, found by bisection over
/// [`choose_mechanism`]. Returns 0 if shaping always wins and 1 if
/// redirection always wins.
pub fn redirect_crossover_fraction(model: &PowerThroughputModel, n: usize, standby_w: f64) -> f64 {
    let peak = model.max_throughput_bps() * n as f64;
    let prefers_redirect = |frac: f64| {
        choose_mechanism(model, n, peak * frac, standby_w).preferred
            == Mechanism::RedirectAndStandby
    };
    if !prefers_redirect(0.01) {
        return 0.0;
    }
    if prefers_redirect(0.99) {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.01, 0.99);
    for _ in 0..30 {
        let mid = (lo + hi) / 2.0;
        if prefers_redirect(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::{PowerStateId, KIB};
    use powadapt_io::Workload;
    use powadapt_model::ConfigPoint;

    /// A model with a realistic shape: a high idle floor and diminishing
    /// power returns at low throughput (which is what makes consolidation
    /// pay off).
    fn model() -> PowerThroughputModel {
        let pts = vec![
            pt(1, 5.5, 0.2e9),
            pt(4, 6.5, 1.0e9),
            pt(16, 8.0, 2.2e9),
            pt(64, 10.0, 3.0e9),
        ];
        PowerThroughputModel::from_points("D", pts).unwrap()
    }

    fn pt(depth: usize, power: f64, thr: f64) -> ConfigPoint {
        ConfigPoint::new(
            "D",
            Workload::RandWrite,
            PowerStateId(0),
            64 * KIB,
            depth,
            power,
            thr,
        )
    }

    #[test]
    fn low_demand_prefers_redirection() {
        // 4 devices, demand far below one device's capacity.
        let c = choose_mechanism(&model(), 4, 0.5e9, 1.0);
        assert_eq!(c.preferred, Mechanism::RedirectAndStandby);
        assert_eq!(c.redirect_active, 1);
        // cap+shape: 4 × 5.5 = 22 W; redirect: 6.5 + 3 × 1 = 9.5 W.
        assert!((c.cap_shape_w.unwrap() - 22.0).abs() < 1e-9);
        assert!((c.redirect_w.unwrap() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn high_demand_prefers_shaping() {
        // Demand near fleet peak: every device is needed, and shaping lets
        // each run a cheaper point than the forced-peak redirect plan.
        let c = choose_mechanism(&model(), 4, 10.0e9, 1.0);
        assert_eq!(c.preferred, Mechanism::CapAndShape);
        assert_eq!(c.redirect_active, 4);
        // Both serve 2.5 GB/s per device at the 10 W point — equal power,
        // shaping wins the tie (no standby transitions to risk).
        assert_eq!(c.cap_shape_w, c.redirect_w);
    }

    #[test]
    fn infeasible_demand_reports_none() {
        let c = choose_mechanism(&model(), 2, 100.0e9, 1.0);
        assert!(c.cap_shape_w.is_none());
        assert!(c.redirect_w.is_none());
    }

    #[test]
    fn crossover_is_interior_for_realistic_models() {
        let f = redirect_crossover_fraction(&model(), 8, 1.0);
        assert!(
            (0.05..0.95).contains(&f),
            "crossover fraction {f} should be interior"
        );
        // Below the crossover, redirection is preferred.
        let peak = model().max_throughput_bps() * 8.0;
        let below = choose_mechanism(&model(), 8, peak * (f - 0.04), 1.0);
        assert_eq!(below.preferred, Mechanism::RedirectAndStandby);
    }

    #[test]
    fn zero_demand_parks_everything_but_one() {
        let c = choose_mechanism(&model(), 4, 0.0, 1.0);
        assert_eq!(c.redirect_active, 1);
        assert_eq!(c.preferred, Mechanism::RedirectAndStandby);
    }

    #[test]
    fn display_names() {
        assert_eq!(Mechanism::CapAndShape.to_string(), "cap+shape");
        assert_eq!(
            Mechanism::RedirectAndStandby.to_string(),
            "redirect+standby"
        );
    }
}
