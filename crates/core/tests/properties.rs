//! Property-based tests of the policy layer.

// Tests and examples assert on exact expected values; unwraps and
// bit-exact float comparisons are deliberate here (see workspace lints).
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use proptest::prelude::*;

use powadapt_core::{
    choose_mechanism, plan_budget, AbsorptionProfile, Mechanism, PowerDomain, RedirectionConfig,
    RedirectionPolicy, Slo, SloWindow, SpinProfile, TieringPolicy,
};
use powadapt_device::{PowerStateId, KIB};
use powadapt_io::Workload;
use powadapt_model::{ConfigPoint, PowerThroughputModel};
use powadapt_sim::units::Micros;
use powadapt_sim::{percentile_of_sorted, SimDuration};
use powadapt_snap::{Codec, SnapReader, SnapWriter};

fn redirection_cfg() -> RedirectionConfig {
    RedirectionConfig {
        per_device_capacity_bps: 1e9,
        active_power_w: 10.0,
        standby_power_w: 1.0,
        wake_latency: SimDuration::from_millis(1),
        grow_threshold: 0.8,
        shrink_threshold: 0.5,
    }
}

fn pt(device: &str, power: f64, thr: f64) -> ConfigPoint {
    ConfigPoint::new(
        device,
        Workload::RandWrite,
        PowerStateId(0),
        4 * KIB,
        1,
        power,
        thr,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The redirection policy's active count always stays within [1, total]
    /// and its reported power matches the closed form, for any demand
    /// sequence.
    #[test]
    fn redirection_invariants_hold_for_any_demand_sequence(
        total in 1usize..24,
        demands in prop::collection::vec(0.0f64..30e9, 1..60),
    ) {
        let cfg = redirection_cfg();
        let mut p = RedirectionPolicy::new(total, cfg).unwrap();
        for &d in &demands {
            let decision = p.step(d);
            prop_assert!((1..=total).contains(&decision.active));
            let expected = decision.active as f64 * cfg.active_power_w
                + (total - decision.active) as f64 * cfg.standby_power_w;
            prop_assert!((decision.power_w - expected).abs() < 1e-9);
            prop_assert_eq!(decision.active, p.active());
            // Wakes and sleeps cannot both happen in one step.
            prop_assert!(decision.woken == 0 || decision.slept == 0);
        }
    }

    /// Constant demand never causes flapping: after the first step, the
    /// active count is stable.
    #[test]
    fn redirection_is_stable_under_constant_demand(
        total in 1usize..16,
        demand in 0.0f64..20e9,
    ) {
        let mut p = RedirectionPolicy::new(total, redirection_cfg()).unwrap();
        let first = p.step(demand).active;
        for _ in 0..20 {
            let d = p.step(demand);
            prop_assert_eq!(d.active, first, "active count flapped");
            prop_assert_eq!(d.woken + d.slept, 0, "spurious transitions");
        }
    }

    /// Serving capacity at the grow threshold always covers the demand when
    /// enough devices exist.
    #[test]
    fn redirection_capacity_covers_demand(
        total in 1usize..32,
        demand in 0.0f64..40e9,
    ) {
        let cfg = redirection_cfg();
        let mut p = RedirectionPolicy::new(total, cfg).unwrap();
        let d = p.step(demand);
        let fleet_capacity = total as f64 * cfg.per_device_capacity_bps * cfg.grow_threshold;
        if demand <= fleet_capacity {
            let serving = d.active as f64 * cfg.per_device_capacity_bps * cfg.grow_threshold;
            prop_assert!(
                serving + 1e-6 >= demand,
                "active {} serves {} < demand {}",
                d.active, serving, demand
            );
        } else {
            prop_assert_eq!(d.active, total, "overload must activate everything");
        }
    }

    /// Tiering energetics: savings are monotone in the idle period, and the
    /// break-even point is exactly where savings change sign.
    #[test]
    fn tiering_savings_are_monotone_and_break_even_is_a_zero(
        idle_w in 2.0f64..10.0,
        standby_w in 0.1f64..1.9,
        up_secs in 1u64..15,
    ) {
        let spin = SpinProfile {
            idle_w,
            standby_w,
            down: SimDuration::from_millis(1500),
            down_w: idle_w * 0.7,
            up: SimDuration::from_secs(up_secs),
            up_w: idle_w * 1.4,
        };
        let policy = TieringPolicy::new(
            spin,
            AbsorptionProfile { absorb_bw_bps: 1e9, absorb_capacity_bytes: 1 << 30 },
        ).unwrap();
        let be = policy.break_even();
        // Just below break-even: not worth it; just above: worth it.
        let eps = SimDuration::from_millis(200);
        if be > eps {
            prop_assert!(policy.savings_j(be.saturating_sub(eps)) <= 0.15);
        }
        prop_assert!(policy.savings_j(be + eps) >= -0.15);
        // Monotonicity.
        let mut last = policy.savings_j(SimDuration::from_secs(1));
        for secs in [5u64, 20, 60, 300] {
            let s = policy.savings_j(SimDuration::from_secs(secs));
            prop_assert!(s + 1e-9 >= last);
            last = s;
        }
    }

    /// Mechanism choice: the redirect estimate never exceeds cap+shape when
    /// a single active device can serve the whole demand (consolidation can
    /// only help there).
    #[test]
    fn redirect_wins_when_one_device_suffices(
        idle_power in 2.0f64..8.0,
        n in 2usize..16,
        demand_frac in 0.01f64..0.99,
    ) {
        let points = vec![
            pt("D", idle_power, 0.3e9),
            pt("D", idle_power + 2.0, 1.0e9),
            pt("D", idle_power + 4.0, 2.0e9),
        ];
        let model = PowerThroughputModel::from_points("D", points).unwrap();
        let demand = 2.0e9 * demand_frac; // within one device's peak
        let c = choose_mechanism(&model, n, demand, 0.2);
        prop_assert!(c.redirect_w.is_some());
        prop_assert!(c.cap_shape_w.is_some());
        prop_assert!(
            c.redirect_w.unwrap() <= c.cap_shape_w.unwrap() + 1e-9,
            "redirect {} > shape {}",
            c.redirect_w.unwrap(), c.cap_shape_w.unwrap()
        );
        prop_assert_eq!(c.preferred, Mechanism::RedirectAndStandby);
    }

    /// Fleet budget planning: the plan's expected power sums within budget,
    /// and every device receives exactly one action.
    #[test]
    fn plan_budget_respects_the_budget(
        powers in prop::collection::vec(1.0f64..12.0, 2..6),
        budget in 3.0f64..60.0,
    ) {
        let models: Vec<PowerThroughputModel> = powers
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let name = format!("D{i}");
                PowerThroughputModel::from_points(
                    name.clone(),
                    vec![pt(&name, p, p * 1e8), pt(&name, p + 3.0, (p + 3.0) * 1e8)],
                )
                .unwrap()
            })
            .collect();
        let standby: Vec<Option<f64>> = powers.iter().map(|_| Some(0.5)).collect();
        if let Some(actions) = plan_budget(&models, &standby, budget) {
            prop_assert_eq!(actions.len(), models.len());
            let total: f64 = actions
                .iter()
                .map(|a| match a {
                    powadapt_core::DeviceAction::Operate(p) => p.power_w(),
                    powadapt_core::DeviceAction::Standby { power_w } => *power_w,
                })
                .sum();
            prop_assert!(total <= budget + 1e-9, "plan {total} exceeds {budget}");
        } else {
            // Only infeasible when even all-standby exceeds the budget.
            prop_assert!(0.5 * powers.len() as f64 > budget - 0.3);
        }
    }

    /// Power-domain accounting: the worst case equals the sum of all device
    /// peaks regardless of tree shape.
    #[test]
    fn domain_worst_case_is_shape_independent(
        peaks in prop::collection::vec(1.0f64..20.0, 1..12),
        split in 1usize..11,
    ) {
        let total: f64 = peaks.iter().sum();
        // Flat: all devices on one domain.
        let mut flat = PowerDomain::new("flat", 10_000.0);
        for (i, &p) in peaks.iter().enumerate() {
            flat = flat.device(format!("d{i}"), p, i % 2 == 0);
        }
        // Nested: split across two children.
        let k = split.min(peaks.len());
        let mut left = PowerDomain::new("left", 10_000.0);
        for (i, &p) in peaks[..k].iter().enumerate() {
            left = left.device(format!("l{i}"), p, i % 2 == 0);
        }
        let mut right = PowerDomain::new("right", 10_000.0);
        for (i, &p) in peaks[k..].iter().enumerate() {
            right = right.device(format!("r{i}"), p, (i + k) % 2 == 0);
        }
        let nested = PowerDomain::new("root", 10_000.0).child(left).child(right);
        prop_assert!((flat.worst_case_w() - total).abs() < 1e-9);
        prop_assert!((nested.worst_case_w() - total).abs() < 1e-9);
        prop_assert!(
            (flat.adaptive_peak_w() - nested.adaptive_peak_w()).abs() < 1e-9
        );
    }
}

/// The window as it was kept before observations became appends: one
/// sorted insert per observation, ties after their equals. The reference
/// the append-only [`SloWindow`] must match bit for bit.
#[derive(Default)]
struct SortedInsertWindow {
    lat_us: Vec<f64>,
    bytes: u64,
}

impl SortedInsertWindow {
    fn observe(&mut self, us: f64, bytes: u64) {
        if !us.is_finite() {
            return;
        }
        let at = self.lat_us.partition_point(|&l| l <= us);
        self.lat_us.insert(at, us);
        self.bytes += bytes;
    }

    fn percentile(&self, p: f64) -> Option<u64> {
        (!self.lat_us.is_empty()).then(|| percentile_of_sorted(&self.lat_us, p).to_bits())
    }

    fn mean(&self) -> Option<u64> {
        (!self.lat_us.is_empty())
            .then(|| (self.lat_us.iter().sum::<f64>() / self.lat_us.len() as f64).to_bits())
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.lat_us.encode(&mut w);
        self.bytes.encode(&mut w);
        w.into_payload()
    }
}

/// A latency stream with repeats, both zeros, negatives and non-finite
/// values mixed into coarse random values.
fn stream_latency(pick: u8, x: f64) -> f64 {
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 | 6 => 250.0,
        7 => -3.5,
        _ => x.round(),
    }
}

fn bits(m: Option<Micros>) -> Option<u64> {
    m.map(|m| m.get().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Appending and settling on read answers every query with the same
    /// bits, and encodes to the same bytes, as a sorted insert per
    /// observation, across interleaved reads, resets and round trips.
    #[test]
    fn slo_window_matches_sorted_insert_reference(
        ops in prop::collection::vec((0u8..64, 0u8..12, 0.0f64..2000.0), 0..400),
    ) {
        const PERCENTILES: [f64; 6] = [0.0, 50.0, 90.0, 99.0, 99.9, 100.0];
        let mut w = SloWindow::new();
        let mut r = SortedInsertWindow::default();
        for (op, pick, x) in ops {
            match op {
                0..=43 => {
                    let us = stream_latency(pick, x);
                    w.observe(Micros::new(us), u64::from(pick));
                    r.observe(us, u64::from(pick));
                }
                44..=51 => {
                    let p = PERCENTILES[usize::from(pick) % PERCENTILES.len()];
                    prop_assert_eq!(bits(w.percentile_latency(p)), r.percentile(p));
                }
                52..=54 => prop_assert_eq!(bits(w.mean_latency()), r.mean()),
                55 => prop_assert_eq!(bits(w.p99_latency()), r.percentile(99.0)),
                56 => prop_assert_eq!(bits(w.p999_latency()), r.percentile(99.9)),
                57 | 58 => {
                    let cap = x + 1.0;
                    let slo = Slo::new().max_avg_latency_us(cap).max_p99_latency_us(cap);
                    let within = |b: Option<u64>| b.is_none_or(|b| f64::from_bits(b) <= cap);
                    prop_assert_eq!(
                        w.satisfies(&slo, SimDuration::from_secs(1)),
                        within(r.mean()) && within(r.percentile(99.0))
                    );
                }
                59..=62 => {
                    w.settle();
                    let mut out = SnapWriter::new();
                    w.encode(&mut out);
                    let bytes = out.into_payload();
                    prop_assert_eq!(&bytes, &r.encode());
                    let mut rd = SnapReader::new(&bytes);
                    w = SloWindow::decode(&mut rd).unwrap();
                    rd.finish().unwrap();
                }
                _ => {
                    w.reset();
                    r = SortedInsertWindow::default();
                }
            }
            prop_assert_eq!(w.len(), r.lat_us.len());
            prop_assert_eq!(w.bytes(), r.bytes);
        }
        w.settle();
        let mut out = SnapWriter::new();
        w.encode(&mut out);
        prop_assert_eq!(out.into_payload(), r.encode());
    }
}
