//! Multi-tenant workload layer: per-tenant arrival processes and SLOs.
//!
//! Tenants share the cluster's devices but arrive on their own schedules:
//! a steady Poisson stream, a diurnal sinusoid (the day/night swing that
//! makes oversubscription pay), or a bursty on/off process. Each tenant
//! carries its own [`Slo`] and is accounted separately — the simulation
//! records per-tenant latency windows so a rebalance that saves power at
//! one tenant's expense is visible.
//!
//! Determinism: tenant `i` draws every sample from streams derived from
//! `SimRng::stream_seed(cluster_seed, i)`, so adding a tenant or changing
//! worker counts never perturbs another tenant's arrivals.

use powadapt_core::Slo;
use powadapt_io::{AccessPattern, Arrival, ArrivalGen, Arrivals, OpenLoopSpec};
use powadapt_sim::{SimDuration, SimRng, SimTime};

/// Inter-arrival process of one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantArrivals {
    /// Steady Poisson arrivals.
    Poisson {
        /// Mean rate, in IOs per second.
        rate_iops: f64,
    },
    /// A diurnal sinusoid: Poisson arrivals whose rate swings around a
    /// base value, `rate(t) = base × (1 + swing × sin(2πt / period))`.
    /// Implemented as deterministic thinning of a peak-rate Poisson
    /// stream, so the process stays a pure function of the tenant seed.
    Diurnal {
        /// Mid-swing rate, in IOs per second.
        base_rate_iops: f64,
        /// Relative swing amplitude, in `[0, 1)`.
        swing: f64,
        /// Period of one day/night cycle.
        period: SimDuration,
    },
    /// Bursty on/off modulation (interrupted Poisson).
    Bursty {
        /// Rate during on phases, in IOs per second.
        burst_rate_iops: f64,
        /// Mean on-phase duration.
        mean_on: SimDuration,
        /// Mean off-phase duration.
        mean_off: SimDuration,
    },
}

impl TenantArrivals {
    /// Long-run average rate, in IOs per second.
    pub fn mean_rate_iops(&self) -> f64 {
        match *self {
            TenantArrivals::Poisson { rate_iops } => rate_iops,
            TenantArrivals::Diurnal { base_rate_iops, .. } => base_rate_iops,
            TenantArrivals::Bursty {
                burst_rate_iops,
                mean_on,
                mean_off,
            } => Arrivals::OnOff {
                burst_rate_iops,
                mean_on,
                mean_off,
            }
            .mean_rate_iops(),
        }
    }
}

/// One tenant of the cluster.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, used in reports and traces.
    pub name: String,
    /// Arrival process.
    pub arrivals: TenantArrivals,
    /// Bytes per request.
    pub block_size: u64,
    /// Fraction of requests that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Target region `(start, len)` in each device's logical space.
    pub region: (u64, u64),
    /// The tenant's service-level objective.
    pub slo: Slo,
}

impl TenantSpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("tenant name must be non-empty".into());
        }
        match self.arrivals {
            TenantArrivals::Diurnal {
                base_rate_iops,
                swing,
                period,
            } => {
                if base_rate_iops <= 0.0 {
                    return Err(format!("{}: base rate must be positive", self.name));
                }
                if !(0.0..1.0).contains(&swing) {
                    return Err(format!("{}: swing must be in [0, 1)", self.name));
                }
                if period.is_zero() {
                    return Err(format!("{}: period must be non-zero", self.name));
                }
            }
            TenantArrivals::Poisson { rate_iops } => {
                if rate_iops <= 0.0 {
                    return Err(format!("{}: rate must be positive", self.name));
                }
            }
            TenantArrivals::Bursty {
                burst_rate_iops, ..
            } => {
                if burst_rate_iops <= 0.0 {
                    return Err(format!("{}: burst rate must be positive", self.name));
                }
            }
        }
        Ok(())
    }
}

/// Deterministic arrival stream of one tenant.
///
/// Poisson and bursty processes reuse the open-loop machinery of
/// `powadapt-io` directly; the diurnal sinusoid thins a peak-rate Poisson
/// stream with an acceptance draw per candidate, taken from a second RNG
/// stream so the candidate schedule and the thinning decisions never
/// interfere.
#[derive(Debug)]
pub struct TenantStream {
    gen: ArrivalGen,
    thin: Option<Thinning>,
}

#[derive(Debug)]
struct Thinning {
    swing: f64,
    period: SimDuration,
    rng: SimRng,
}

impl TenantStream {
    /// Creates the stream for `spec`, running for `duration`, seeded from
    /// the tenant's stream seed.
    ///
    /// # Errors
    ///
    /// Returns the spec problem, if any.
    pub fn new(spec: &TenantSpec, duration: SimDuration, seed: u64) -> Result<Self, String> {
        spec.validate()?;
        let (arrivals, thin) = match spec.arrivals {
            TenantArrivals::Poisson { rate_iops } => (Arrivals::Poisson { rate_iops }, None),
            TenantArrivals::Bursty {
                burst_rate_iops,
                mean_on,
                mean_off,
            } => (
                Arrivals::OnOff {
                    burst_rate_iops,
                    mean_on,
                    mean_off,
                },
                None,
            ),
            TenantArrivals::Diurnal {
                base_rate_iops,
                swing,
                period,
            } => (
                // Candidates at the peak rate; thinning recovers rate(t).
                Arrivals::Poisson {
                    rate_iops: base_rate_iops * (1.0 + swing),
                },
                Some(Thinning {
                    swing,
                    period,
                    rng: SimRng::seed_from(SimRng::stream_seed(seed, 1)),
                }),
            ),
        };
        let open = OpenLoopSpec {
            arrivals,
            block_size: spec.block_size,
            read_fraction: spec.read_fraction,
            pattern: AccessPattern::Random,
            region: spec.region,
            duration,
            seed: SimRng::stream_seed(seed, 0),
            zipf_theta: None,
        };
        Ok(TenantStream {
            gen: ArrivalGen::new(&open)?,
            thin,
        })
    }

    /// Acceptance probability of a diurnal candidate at time `t`:
    /// `rate(t) / peak_rate`.
    fn accept_probability(thin: &Thinning, at: SimTime) -> f64 {
        let phase = at.duration_since(SimTime::ZERO).as_secs_f64() / thin.period.as_secs_f64();
        let rate_factor = 1.0 + thin.swing * (std::f64::consts::TAU * phase).sin();
        rate_factor / (1.0 + thin.swing)
    }
}

/// Wire form of a tenant's thinning: the acceptance draws are its only
/// state (a presence byte, then the RNG); the sinusoid is spec config,
/// kept from the stream the spec built.
struct ThinningDraws;

impl powadapt_snap::Wire<Option<Thinning>> for ThinningDraws {
    fn encode(thin: &Option<Thinning>, w: &mut powadapt_snap::SnapWriter) {
        w.bool(thin.is_some());
        if let Some(Thinning {
            swing: _,
            period: _,
            rng,
        }) = thin
        {
            powadapt_snap::Codec::encode(rng, w);
        }
    }

    fn restore(
        thin: &mut Option<Thinning>,
        r: &mut powadapt_snap::SnapReader<'_>,
    ) -> Result<(), powadapt_snap::SnapError> {
        let has_thin = r.bool()?;
        match thin {
            Some(t) if has_thin => {
                t.rng = powadapt_snap::Codec::decode(r)?;
                Ok(())
            }
            None if !has_thin => Ok(()),
            _ => Err(powadapt_snap::SnapError::InvalidValue(format!(
                "thinning presence mismatch: stream has {}, snapshot has {has_thin}",
                thin.is_some()
            ))),
        }
    }
}

// The stream's cursor: the arrival generator plus, for diurnal tenants,
// the thinning RNG.
powadapt_snap::snapshot! { TenantStream { gen: state, thin: with(ThinningDraws) } }

impl Iterator for TenantStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        loop {
            let candidate = self.gen.next()?;
            match &mut self.thin {
                None => return Some(candidate),
                Some(thin) => {
                    let p = Self::accept_probability(thin, candidate.at);
                    if thin.rng.chance(p) {
                        return Some(candidate);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::GIB;

    fn spec(arrivals: TenantArrivals) -> TenantSpec {
        TenantSpec {
            name: "t".into(),
            arrivals,
            block_size: 64 * 1024,
            read_fraction: 0.5,
            region: (0, GIB),
            slo: Slo::new(),
        }
    }

    #[test]
    fn poisson_tenant_matches_its_rate() {
        let s = spec(TenantArrivals::Poisson { rate_iops: 4_000.0 });
        let n = TenantStream::new(&s, SimDuration::from_secs(1), 7)
            .unwrap()
            .count() as f64;
        assert!((n - 4_000.0).abs() < 300.0, "{n} arrivals");
    }

    #[test]
    fn diurnal_mean_rate_is_the_base_rate() {
        // Over whole periods the sinusoid integrates away: the accepted
        // rate converges to the base rate.
        let s = spec(TenantArrivals::Diurnal {
            base_rate_iops: 3_000.0,
            swing: 0.8,
            period: SimDuration::from_millis(250),
        });
        let n = TenantStream::new(&s, SimDuration::from_secs(2), 11)
            .unwrap()
            .count() as f64;
        let expected = 3_000.0 * 2.0;
        assert!(
            (n - expected).abs() < expected * 0.1,
            "{n} arrivals vs ~{expected}"
        );
    }

    #[test]
    fn diurnal_peak_and_trough_differ() {
        let s = spec(TenantArrivals::Diurnal {
            base_rate_iops: 5_000.0,
            swing: 0.9,
            period: SimDuration::from_millis(400),
        });
        let arrivals: Vec<Arrival> = TenantStream::new(&s, SimDuration::from_millis(400), 3)
            .unwrap()
            .collect();
        // First quarter-period straddles the peak, third the trough.
        let quarter = |k: u64| {
            arrivals
                .iter()
                .filter(|a| {
                    let ms = a.at.duration_since(SimTime::ZERO).as_nanos() / 1_000_000;
                    (k * 100..(k + 1) * 100).contains(&ms)
                })
                .count()
        };
        let peak = quarter(0);
        let trough = quarter(2);
        assert!(
            peak > trough * 3,
            "peak quarter {peak} vs trough quarter {trough}"
        );
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let s = spec(TenantArrivals::Diurnal {
            base_rate_iops: 2_000.0,
            swing: 0.5,
            period: SimDuration::from_millis(100),
        });
        let run = |seed| -> Vec<Arrival> {
            TenantStream::new(&s, SimDuration::from_millis(500), seed)
                .unwrap()
                .collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn validation_rejects_bad_tenants() {
        let mut s = spec(TenantArrivals::Diurnal {
            base_rate_iops: 1_000.0,
            swing: 1.5,
            period: SimDuration::from_millis(100),
        });
        assert!(s.validate().is_err());
        s.arrivals = TenantArrivals::Poisson { rate_iops: -1.0 };
        assert!(s.validate().is_err());
        s.arrivals = TenantArrivals::Poisson { rate_iops: 10.0 };
        s.name = String::new();
        assert!(s.validate().is_err());
    }

    #[test]
    fn mean_rates() {
        assert_eq!(
            TenantArrivals::Poisson { rate_iops: 9.0 }.mean_rate_iops(),
            9.0
        );
        let b = TenantArrivals::Bursty {
            burst_rate_iops: 10_000.0,
            mean_on: SimDuration::from_millis(10),
            mean_off: SimDuration::from_millis(30),
        };
        assert!((b.mean_rate_iops() - 2_500.0).abs() < 1.0);
    }
}
