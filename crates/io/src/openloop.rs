//! Open-loop workload generation: requests arrive on their own schedule
//! (Poisson or bursty on/off), independent of completions.
//!
//! The paper's microbenchmarks are closed-loop (fio keeps `iodepth`
//! requests in flight). Evaluating the §4 *system* policies — redirection,
//! write segregation — additionally needs offered load that does not adapt
//! itself to the device, which is what an open-loop arrival process
//! provides.

use powadapt_device::IoKind;
use powadapt_sim::{SimDuration, SimRng, SimTime};

use crate::job::AccessPattern;

/// Inter-arrival process of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson arrivals at the given mean rate (IOs per second).
    Poisson {
        /// Mean arrival rate in IOs per second.
        rate_iops: f64,
    },
    /// Deterministic arrivals at a fixed period.
    Periodic {
        /// Arrival rate in IOs per second.
        rate_iops: f64,
    },
    /// Bursty on/off (interrupted Poisson): alternating exponentially
    /// distributed on and off phases; arrivals occur only during on phases.
    OnOff {
        /// Arrival rate during on phases, in IOs per second.
        burst_rate_iops: f64,
        /// Mean on-phase duration.
        mean_on: SimDuration,
        /// Mean off-phase duration.
        mean_off: SimDuration,
    },
}

impl Arrivals {
    /// Long-run average rate in IOs per second.
    pub fn mean_rate_iops(&self) -> f64 {
        match *self {
            Arrivals::Poisson { rate_iops } | Arrivals::Periodic { rate_iops } => rate_iops,
            Arrivals::OnOff {
                burst_rate_iops,
                mean_on,
                mean_off,
            } => {
                let on = mean_on.as_secs_f64();
                let off = mean_off.as_secs_f64();
                burst_rate_iops * on / (on + off)
            }
        }
    }
}

/// Specification of an open-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSpec {
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Bytes per request.
    pub block_size: u64,
    /// Fraction of requests that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Spatial pattern.
    pub pattern: AccessPattern,
    /// Target region `(start, len)` in the fleet's logical space.
    pub region: (u64, u64),
    /// Stream duration; no arrivals after `duration`.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Optional Zipfian skew for random offsets (fio
    /// `random_distribution=zipf:theta`).
    pub zipf_theta: Option<f64>,
}

impl OpenLoopSpec {
    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_size == 0 {
            return Err("block size must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err("read fraction must be within [0, 1]".into());
        }
        if self.region.1 < self.block_size {
            return Err("region must hold at least one block".into());
        }
        if self.duration.is_zero() {
            return Err("duration must be non-zero".into());
        }
        if self.arrivals.mean_rate_iops() <= 0.0 {
            return Err("arrival rate must be positive".into());
        }
        if let Some(theta) = self.zipf_theta {
            if !(theta > 0.0 && theta <= 5.0) {
                return Err(format!("zipf theta {theta} out of range (0, 5]"));
            }
        }
        Ok(())
    }
}

/// One generated arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request arrives at the storage system.
    pub at: SimTime,
    /// Read or write.
    pub kind: IoKind,
    /// Logical byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

powadapt_snap::codec! { Arrival { at, kind, offset, len } }

/// Deterministic generator of an open-loop arrival stream.
///
/// # Examples
///
/// ```
/// use powadapt_io::{AccessPattern, Arrivals, ArrivalGen, OpenLoopSpec};
/// use powadapt_sim::SimDuration;
///
/// let spec = OpenLoopSpec {
///     arrivals: Arrivals::Poisson { rate_iops: 1000.0 },
///     block_size: 4096,
///     read_fraction: 0.5,
///     pattern: AccessPattern::Random,
///     region: (0, 1 << 30),
///     duration: SimDuration::from_millis(100),
///     seed: 1,
///     zipf_theta: None,
/// };
/// let n = ArrivalGen::new(&spec).unwrap().count();
/// assert!((50..200).contains(&n), "~100 arrivals expected, got {n}");
/// ```
#[derive(Debug)]
pub struct ArrivalGen {
    spec: OpenLoopSpec,
    rng: SimRng,
    clock: SimTime,
    /// For on/off arrivals: end of the current on phase, if in one.
    phase_end: Option<SimTime>,
    cursor: u64,
    blocks: u64,
    zipf: Option<powadapt_sim::Zipf>,
    done: bool,
}

impl ArrivalGen {
    /// Creates a generator for the stream.
    ///
    /// # Errors
    ///
    /// Returns the spec problem, if any.
    pub fn new(spec: &OpenLoopSpec) -> Result<Self, String> {
        spec.validate()?;
        let blocks = (spec.region.1 / spec.block_size).max(1);
        Ok(ArrivalGen {
            spec: spec.clone(),
            rng: SimRng::seed_from(spec.seed ^ 0x5eed0ff00d),
            clock: SimTime::ZERO,
            phase_end: None,
            cursor: 0,
            blocks,
            zipf: spec.zipf_theta.map(|t| powadapt_sim::Zipf::new(blocks, t)),
            done: false,
        })
    }

    fn next_offset(&mut self) -> u64 {
        let idx = match self.spec.pattern {
            AccessPattern::Sequential => {
                let i = self.cursor;
                self.cursor = (self.cursor + 1) % self.blocks;
                i
            }
            AccessPattern::Random => match &self.zipf {
                Some(z) => {
                    z.sample(&mut self.rng)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(31)
                        % self.blocks
                }
                None => self.rng.u64_range(0, self.blocks),
            },
        };
        self.spec.region.0 + idx * self.spec.block_size
    }

    fn advance_clock(&mut self) {
        match self.spec.arrivals {
            Arrivals::Poisson { rate_iops } => {
                let gap = self.rng.exponential(1.0 / rate_iops);
                self.clock += SimDuration::from_secs_f64(gap);
            }
            Arrivals::Periodic { rate_iops } => {
                self.clock += SimDuration::from_secs_f64(1.0 / rate_iops);
            }
            Arrivals::OnOff {
                burst_rate_iops,
                mean_on,
                mean_off,
            } => loop {
                // Enter an on phase if not in one.
                let end = match self.phase_end {
                    Some(end) => end,
                    None => {
                        let on = self.rng.exponential(mean_on.as_secs_f64());
                        let end = self.clock + SimDuration::from_secs_f64(on);
                        self.phase_end = Some(end);
                        end
                    }
                };
                let gap = self.rng.exponential(1.0 / burst_rate_iops);
                let next = self.clock + SimDuration::from_secs_f64(gap);
                if next <= end {
                    self.clock = next;
                    break;
                }
                // Phase exhausted: jump through the off period and retry.
                let off = self.rng.exponential(mean_off.as_secs_f64());
                self.clock = end + SimDuration::from_secs_f64(off);
                self.phase_end = None;
            },
        }
    }
}

// Dynamic state only: RNG position, clock, on/off phase, sequential
// cursor, and the done flag. The spec (and with it `blocks` and the Zipf
// table) is configuration the restorer rebuilds from.
powadapt_snap::snapshot! {
    ArrivalGen { rng, clock, phase_end, cursor, done }
    skip {
        spec: "spec config; resume builds the generator from it",
        blocks: "derived from the spec's region and block size",
        zipf: "derived from spec.zipf_theta",
    }
    after restore_cursor
}

impl ArrivalGen {
    fn restore_cursor(&mut self) -> Result<(), powadapt_snap::SnapError> {
        if self.cursor < self.blocks {
            Ok(())
        } else {
            Err(powadapt_snap::SnapError::InvalidValue(format!(
                "sequential cursor {} outside {} blocks",
                self.cursor, self.blocks
            )))
        }
    }
}

impl Iterator for ArrivalGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.done {
            return None;
        }
        self.advance_clock();
        if self.clock > SimTime::ZERO + self.spec.duration {
            self.done = true;
            return None;
        }
        let kind = if self.rng.chance(self.spec.read_fraction) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        let offset = self.next_offset();
        Some(Arrival {
            at: self.clock,
            kind,
            offset,
            len: self.spec.block_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::GIB;

    fn spec(arrivals: Arrivals) -> OpenLoopSpec {
        OpenLoopSpec {
            arrivals,
            block_size: 4096,
            read_fraction: 0.7,
            pattern: AccessPattern::Random,
            region: (0, GIB),
            duration: SimDuration::from_secs(1),
            seed: 3,
            zipf_theta: None,
        }
    }

    #[test]
    fn poisson_rate_is_respected() {
        let s = spec(Arrivals::Poisson { rate_iops: 5_000.0 });
        let n = ArrivalGen::new(&s).unwrap().count() as f64;
        assert!((n - 5_000.0).abs() < 300.0, "{n} arrivals");
    }

    #[test]
    fn periodic_is_exact() {
        let s = spec(Arrivals::Periodic { rate_iops: 1_000.0 });
        let arrivals: Vec<Arrival> = ArrivalGen::new(&s).unwrap().collect();
        assert_eq!(arrivals.len(), 1_000);
        let gap = arrivals[1].at - arrivals[0].at;
        assert_eq!(gap.as_micros(), 1_000);
    }

    #[test]
    fn onoff_average_rate_matches_duty_cycle() {
        let a = Arrivals::OnOff {
            burst_rate_iops: 10_000.0,
            mean_on: SimDuration::from_millis(10),
            mean_off: SimDuration::from_millis(30),
        };
        assert!((a.mean_rate_iops() - 2_500.0).abs() < 1.0);
        let s = spec(a);
        let n = ArrivalGen::new(&s).unwrap().count() as f64;
        assert!(
            (n - 2_500.0).abs() < 700.0,
            "{n} arrivals vs ~2500 expected"
        );
    }

    #[test]
    fn onoff_is_actually_bursty() {
        let s = spec(Arrivals::OnOff {
            burst_rate_iops: 50_000.0,
            mean_on: SimDuration::from_millis(5),
            mean_off: SimDuration::from_millis(45),
        });
        let arrivals: Vec<Arrival> = ArrivalGen::new(&s).unwrap().collect();
        assert!(arrivals.len() > 100);
        // Burstiness: the max inter-arrival gap dwarfs the median gap.
        let mut gaps: Vec<u64> = arrivals
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_nanos())
            .collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        let max = *gaps.last().unwrap();
        assert!(max > median * 50, "max {max} vs median {median}");
    }

    #[test]
    fn read_fraction_is_respected() {
        let s = spec(Arrivals::Poisson {
            rate_iops: 10_000.0,
        });
        let arrivals: Vec<Arrival> = ArrivalGen::new(&s).unwrap().collect();
        let reads = arrivals.iter().filter(|a| a.kind == IoKind::Read).count();
        let frac = reads as f64 / arrivals.len() as f64;
        assert!((frac - 0.7).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn arrivals_are_monotone_and_within_region() {
        let s = spec(Arrivals::Poisson { rate_iops: 2_000.0 });
        let mut last = SimTime::ZERO;
        for a in ArrivalGen::new(&s).unwrap() {
            assert!(a.at >= last);
            assert!(a.offset + a.len <= GIB);
            assert!(a.at <= SimTime::from_secs(1));
            last = a.at;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec(Arrivals::Poisson { rate_iops: 3_000.0 });
        let a: Vec<Arrival> = ArrivalGen::new(&s).unwrap().collect();
        let b: Vec<Arrival> = ArrivalGen::new(&s).unwrap().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_pattern_walks_the_region() {
        let mut s = spec(Arrivals::Periodic { rate_iops: 100.0 });
        s.pattern = AccessPattern::Sequential;
        let arrivals: Vec<Arrival> = ArrivalGen::new(&s).unwrap().collect();
        assert_eq!(arrivals[0].offset, 0);
        assert_eq!(arrivals[1].offset, 4096);
        assert_eq!(arrivals[2].offset, 8192);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = spec(Arrivals::Poisson { rate_iops: 100.0 });
        s.read_fraction = 1.5;
        assert!(ArrivalGen::new(&s).is_err());
        let mut s = spec(Arrivals::Poisson { rate_iops: 100.0 });
        s.block_size = 0;
        assert!(ArrivalGen::new(&s).is_err());
        let mut s = spec(Arrivals::Poisson { rate_iops: 100.0 });
        s.region = (0, 1024);
        assert!(ArrivalGen::new(&s).is_err());
    }

    #[test]
    fn snapshot_mid_stream_resumes_identically() {
        use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};
        for arrivals in [
            Arrivals::Poisson { rate_iops: 2000.0 },
            Arrivals::OnOff {
                burst_rate_iops: 5000.0,
                mean_on: SimDuration::from_millis(50),
                mean_off: SimDuration::from_millis(20),
            },
        ] {
            let s = spec(arrivals);
            let mut gen = ArrivalGen::new(&s).unwrap();
            let _prefix: Vec<Arrival> = gen.by_ref().take(100).collect();

            let mut w = SnapWriter::new();
            gen.write_state(&mut w).unwrap();
            let payload = w.into_payload();
            let mut resumed = ArrivalGen::new(&s).unwrap();
            let mut r = SnapReader::new(&payload);
            resumed.read_state(&mut r).unwrap();
            r.finish().unwrap();

            let rest: Vec<Arrival> = gen.collect();
            let resumed_rest: Vec<Arrival> = resumed.collect();
            assert_eq!(rest, resumed_rest, "{arrivals:?}");
        }
    }
}
