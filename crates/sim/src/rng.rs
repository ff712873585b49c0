//! Deterministic randomness for simulations.
//!
//! All stochastic components in the suite draw from a [`SimRng`] seeded
//! explicitly, so every experiment is reproducible bit-for-bit. The
//! generator (xoshiro256++ seeded through splitmix64) and the distribution
//! helpers (normal, exponential) are implemented here directly
//! so the suite builds with no external dependencies — including on
//! machines with no access to a crates registry.

/// The splitmix64 finalizer: a bijective avalanche mix on `u64`.
fn mix64(v: u64) -> u64 {
    let mut z = v;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Expands a 64-bit seed into well-mixed state words (splitmix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    mix64(*state)
}

/// Deterministic random number generator used throughout the suite.
///
/// Implements xoshiro256++ with the distribution samplers the device and
/// meter models need. Two `SimRng`s created with the same seed produce
/// identical streams.
///
/// # Examples
///
/// ```
/// use powadapt_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator. Useful for giving each
    /// component (device, meter, engine) its own stream so adding draws in
    /// one component does not perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Derives the seed of child stream `index` under `root` without any
    /// shared state — the primitive behind parallel sweeps, where every
    /// cell must get the same stream no matter which worker runs it or in
    /// what order.
    ///
    /// The construction is collision-free by design: `index` goes through
    /// the splitmix64 finalizer (a bijection on `u64`), is added to `root`
    /// (a bijection for fixed `root`), and the sum is finalized again. Two
    /// distinct indices therefore can never yield the same seed for the
    /// same root.
    ///
    /// # Examples
    ///
    /// ```
    /// use powadapt_sim::SimRng;
    ///
    /// assert_eq!(SimRng::stream_seed(42, 7), SimRng::stream_seed(42, 7));
    /// assert_ne!(SimRng::stream_seed(42, 7), SimRng::stream_seed(42, 8));
    /// ```
    pub fn stream_seed(root: u64, index: u64) -> u64 {
        mix64(root.wrapping_add(mix64(index ^ 0x6a09_e667_f3bc_c909)))
    }

    /// Creates the generator for child stream `index` under `root`; see
    /// [`SimRng::stream_seed`].
    pub fn for_stream(root: u64, index: u64) -> SimRng {
        SimRng::seed_from(SimRng::stream_seed(root, index))
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, n)` by rejection sampling (unbiased).
    fn bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mask = n.next_power_of_two().wrapping_sub(1);
        loop {
            let v = self.next_u64() & mask;
            if v < n {
                return v;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits give the full double-precision mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    // Exact equality is the degenerate-range fast path, not a tolerance.
    #[allow(clippy::float_cmp)]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.bounded(n as u64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "u64_range requires lo < hi (got {lo}..{hi})");
        lo + self.bounded(hi - lo)
    }

    /// Bernoulli trial with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.uniform() < p
    }

    /// Standard normal sample (mean 0, stddev 1) via Box-Muller.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box-Muller: two uniforms -> two independent standard normals.
        let u1 = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "bad std dev {std_dev}"
        );
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "bad exponential mean {mean}"
        );
        let u = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -mean * u.ln()
    }
}

powadapt_snap::snapshot! { value SimRng { state, gauss_spare } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially disjoint");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Draws from the child do not affect the parent stream.
        let _ = c1.next_u64();
        assert_eq!(parent1.next_u64(), parent2.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
        assert_eq!(rng.uniform_range(4.0, 4.0), 4.0);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "stddev {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SimRng::seed_from(17);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn index_bounds() {
        let mut rng = SimRng::seed_from(19);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn chance_rejects_bad_probability() {
        let mut rng = SimRng::seed_from(23);
        rng.chance(1.5);
    }

    #[test]
    fn stream_seeds_are_injective_in_the_index() {
        // The construction is bijective in `index` for a fixed root; spot
        // check a dense block plus scattered large indices.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(SimRng::stream_seed(42, i)), "collision at {i}");
        }
        for i in [u64::MAX, u64::MAX / 2, 1 << 63, 0xdead_beef_0000] {
            assert!(seen.insert(SimRng::stream_seed(42, i)), "collision at {i}");
        }
    }

    #[test]
    fn stream_rngs_are_reproducible_and_distinct() {
        let mut a = SimRng::for_stream(7, 3);
        let mut b = SimRng::for_stream(7, 3);
        let mut c = SimRng::for_stream(7, 4);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut a = SimRng::for_stream(7, 3);
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 4, "sibling streams should be essentially disjoint");
    }
}
