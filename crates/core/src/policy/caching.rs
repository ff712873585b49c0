//! Power-aware caching (§4, cf. EXCES): an LRU cache in front of the fleet
//! absorbs reads of hot blocks so devices in standby are not woken, masking
//! read latency and extending standby residency.

use std::collections::{BTreeMap, VecDeque};

use powadapt_device::IoKind;
use powadapt_io::{Arrival, DeviceCommand, DeviceStatus, Route, Router};
use powadapt_sim::{SimDuration, SimTime};

/// A block-granular LRU set (lazy eviction: the queue holds tick-stamped
/// entries, and an entry is authoritative only if its tick matches the
/// block's latest touch).
#[derive(Debug)]
struct LruBlocks {
    capacity: usize,
    order: VecDeque<(u64, u64)>,
    /// Block -> tick of its most recent touch.
    live: BTreeMap<u64, u64>,
    tick: u64,
}

impl LruBlocks {
    fn new(capacity: usize) -> Self {
        LruBlocks {
            capacity,
            order: VecDeque::new(),
            live: BTreeMap::new(),
            tick: 0,
        }
    }

    fn contains(&self, block: u64) -> bool {
        self.live.contains_key(&block)
    }

    fn touch(&mut self, block: u64) {
        self.tick += 1;
        self.live.insert(block, self.tick);
        self.order.push_back((block, self.tick));
        while self.live.len() > self.capacity {
            match self.order.pop_front() {
                Some((old, t)) => {
                    // Stale queue entries (the block was touched again
                    // later) are skipped; the fresh entry is further back.
                    if self.live.get(&old) == Some(&t) {
                        self.live.remove(&old);
                    }
                }
                None => break,
            }
        }
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

/// An EXCES-style caching layer wrapped around any inner router.
///
/// Reads that hit the cache are absorbed ([`Route::Absorbed`]) with a DRAM
/// service latency; misses (and all writes, which are written through and
/// cached) go to the inner router. The cache is block-granular over the
/// workload's logical space.
///
/// # Examples
///
/// ```
/// use powadapt_core::ExcesCachingRouter;
/// use powadapt_io::LeastLoadedRouter;
/// use powadapt_sim::SimDuration;
///
/// let router = ExcesCachingRouter::new(
///     LeastLoadedRouter::default(),
///     4096,          // block size
///     10_000,        // cached blocks (~40 MiB)
///     SimDuration::from_micros(5),
/// );
/// assert_eq!(router.hits(), 0);
/// ```
#[derive(Debug)]
pub struct ExcesCachingRouter<R: Router> {
    inner: R,
    block_size: u64,
    cache: LruBlocks,
    hit_latency: SimDuration,
    hits: u64,
    misses: u64,
}

impl<R: Router> ExcesCachingRouter<R> {
    /// Creates the caching layer.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` or `capacity_blocks` is zero.
    pub fn new(
        inner: R,
        block_size: u64,
        capacity_blocks: usize,
        hit_latency: SimDuration,
    ) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        assert!(capacity_blocks > 0, "cache must hold at least one block");
        ExcesCachingRouter {
            inner,
            block_size,
            cache: LruBlocks::new(capacity_blocks),
            hit_latency,
            hits: 0,
            misses: 0,
        }
    }

    /// Read hits absorbed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Read misses forwarded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over reads seen so far (0 when no reads yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    fn blocks_of(&self, a: &Arrival) -> (u64, u64) {
        let first = a.offset / self.block_size;
        let last = (a.offset + a.len - 1) / self.block_size;
        (first, last)
    }
}

impl<R: Router> Router for ExcesCachingRouter<R> {
    fn route(&mut self, arrival: &Arrival, fleet: &[DeviceStatus]) -> Route {
        let (first, last) = self.blocks_of(arrival);
        match arrival.kind {
            IoKind::Read => {
                let all_cached = (first..=last).all(|b| self.cache.contains(b));
                if all_cached {
                    for b in first..=last {
                        self.cache.touch(b);
                    }
                    self.hits += 1;
                    return Route::Absorbed {
                        latency: self.hit_latency,
                    };
                }
                self.misses += 1;
                // Fill on miss.
                for b in first..=last {
                    self.cache.touch(b);
                }
                self.inner.route(arrival, fleet)
            }
            IoKind::Write => {
                // Write-through: update the cache, forward to the device.
                for b in first..=last {
                    self.cache.touch(b);
                }
                self.inner.route(arrival, fleet)
            }
        }
    }

    fn control(&mut self, now: SimTime, fleet: &[DeviceStatus]) -> Vec<DeviceCommand> {
        self.inner.control(now, fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::{catalog, StandbyState, StorageDevice, KIB};
    use powadapt_io::{
        run_fleet, AccessPattern, ArrivalGen, Arrivals, LeastLoadedRouter, OpenLoopSpec,
    };

    fn read_at(ms: u64, offset: u64) -> Arrival {
        Arrival {
            at: powadapt_sim::SimTime::from_millis(ms),
            kind: IoKind::Read,
            offset,
            len: 4096,
        }
    }

    #[test]
    fn repeated_reads_hit_after_the_first_miss() {
        let mut r = ExcesCachingRouter::new(
            LeastLoadedRouter::default(),
            4096,
            100,
            SimDuration::from_micros(5),
        );
        let fleet = vec![DeviceStatus {
            inflight: 0,
            standby: StandbyState::Active,
            power_state: powadapt_device::PowerStateId(0),
            supports_standby: false,
        }];
        assert!(matches!(
            r.route(&read_at(0, 8192), &fleet),
            Route::Device(0)
        ));
        assert!(matches!(
            r.route(&read_at(1, 8192), &fleet),
            Route::Absorbed { .. }
        ));
        assert_eq!(r.hits(), 1);
        assert_eq!(r.misses(), 1);
        assert!((r.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_cold_blocks() {
        let mut r = ExcesCachingRouter::new(
            LeastLoadedRouter::default(),
            4096,
            4,
            SimDuration::from_micros(5),
        );
        let fleet = vec![DeviceStatus {
            inflight: 0,
            standby: StandbyState::Active,
            power_state: powadapt_device::PowerStateId(0),
            supports_standby: false,
        }];
        // Fill far beyond capacity.
        for i in 0..32u64 {
            let _ = r.route(&read_at(i, i * 4096), &fleet);
        }
        assert!(r.cached_blocks() <= 4 + 1, "{}", r.cached_blocks());
        // The earliest block is long gone: reading it misses again.
        let before = r.misses();
        let _ = r.route(&read_at(100, 0), &fleet);
        assert_eq!(r.misses(), before + 1);
    }

    #[test]
    fn writes_fill_the_cache_write_through() {
        let mut r = ExcesCachingRouter::new(
            LeastLoadedRouter::default(),
            4096,
            100,
            SimDuration::from_micros(5),
        );
        let fleet = vec![DeviceStatus {
            inflight: 0,
            standby: StandbyState::Active,
            power_state: powadapt_device::PowerStateId(0),
            supports_standby: false,
        }];
        let w = Arrival {
            at: powadapt_sim::SimTime::ZERO,
            kind: IoKind::Write,
            offset: 0,
            len: 4096,
        };
        // Writes always reach the device...
        assert!(matches!(r.route(&w, &fleet), Route::Device(0)));
        // ...but a subsequent read of the same block hits.
        assert!(matches!(
            r.route(&read_at(1, 0), &fleet),
            Route::Absorbed { .. }
        ));
    }

    #[test]
    fn caching_extends_hdd_standby_and_saves_energy() {
        // An HDD told to spin down serves a hot read set. Without the cache
        // the first read wakes the disk and keeps it awake; with it, the
        // whole run is absorbed and the disk completes its spin-down.
        let hot_spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 200.0 },
            block_size: 16 * KIB,
            read_fraction: 1.0,
            pattern: AccessPattern::Random,
            region: (0, 8 * 1024 * 1024), // 8 MiB hot set: 512 blocks
            duration: SimDuration::from_millis(4000),
            seed: 7,
            zipf_theta: None,
        };
        let run = |with_cache: bool| {
            let mut devices: Vec<Box<dyn StorageDevice>> =
                vec![Box::new(catalog::hdd_exos_7e2000(9))];
            #[derive(Debug, Default)]
            struct SleepFirst(LeastLoadedRouter, bool);
            impl Router for SleepFirst {
                fn route(&mut self, a: &Arrival, f: &[DeviceStatus]) -> Route {
                    self.0.route(a, f)
                }
                fn control(
                    &mut self,
                    _n: powadapt_sim::SimTime,
                    f: &[DeviceStatus],
                ) -> Vec<DeviceCommand> {
                    if self.1 || f[0].standby != StandbyState::Active {
                        return Vec::new();
                    }
                    self.1 = true;
                    vec![DeviceCommand::Standby { device: 0 }]
                }
            }
            let arrivals: Vec<Arrival> = ArrivalGen::new(&hot_spec)
                .unwrap()
                .map(|mut a| {
                    // Give the disk 50 ms to fall asleep first.
                    a.at += SimDuration::from_millis(50);
                    a
                })
                .collect();
            if with_cache {
                let mut router = ExcesCachingRouter::new(
                    SleepFirst::default(),
                    16 * KIB,
                    1024,
                    SimDuration::from_micros(5),
                );
                // Warm the cache: touch the whole hot set as writes-through
                // before the run (EXCES populates its cache from prior
                // activity).
                let fleet_view = vec![DeviceStatus {
                    inflight: 0,
                    standby: StandbyState::Active,
                    power_state: powadapt_device::PowerStateId(0),
                    supports_standby: true,
                }];
                for b in 0..512u64 {
                    let _ = r_touch(&mut router, b * 16 * KIB, &fleet_view);
                }
                let r = run_fleet(
                    &mut devices,
                    &mut router,
                    arrivals,
                    7,
                    SimDuration::from_millis(20),
                )
                .expect("runs");
                (r, devices[0].standby_state())
            } else {
                let mut router = SleepFirst::default();
                let r = run_fleet(
                    &mut devices,
                    &mut router,
                    arrivals,
                    7,
                    SimDuration::from_millis(20),
                )
                .expect("runs");
                (r, devices[0].standby_state())
            }
        };

        let (uncached, state_uncached) = run(false);
        let (cached, state_cached) = run(true);
        // Without the cache, the first read wakes the disk.
        assert_eq!(state_uncached, StandbyState::Active);
        // With it, every read is absorbed and the disk stays asleep.
        assert_ne!(state_cached, StandbyState::Active);
        assert_eq!(cached.total.ios(), 0, "nothing reached the device");
        assert!(cached.absorbed.ios() > 0);
        assert!(
            cached.avg_power_w() < uncached.avg_power_w() * 0.6,
            "cached {:.2} W vs uncached {:.2} W",
            cached.avg_power_w(),
            uncached.avg_power_w()
        );
        // And the absorbed reads are serviced at DRAM latency.
        assert!(cached.absorbed.avg_latency_us() < 10.0);
    }

    #[test]
    fn zipfian_traffic_yields_high_hit_rates_with_a_small_cache() {
        // Zipf(1.1) over 64k blocks: a cache holding ~2% of blocks should
        // absorb well over half the reads.
        let spec = OpenLoopSpec {
            arrivals: Arrivals::Poisson { rate_iops: 5_000.0 },
            block_size: 4 * KIB,
            read_fraction: 1.0,
            pattern: AccessPattern::Random,
            region: (0, 64 * 1024 * 4 * KIB),
            duration: SimDuration::from_millis(400),
            seed: 11,
            zipf_theta: Some(1.1),
        };
        let mut devices: Vec<Box<dyn StorageDevice>> = vec![Box::new(catalog::ssd3_d3_p4510(11))];
        let mut router = ExcesCachingRouter::new(
            LeastLoadedRouter::default(),
            4 * KIB,
            1300,
            SimDuration::from_micros(5),
        );
        let r = run_fleet(
            &mut devices,
            &mut router,
            ArrivalGen::new(&spec).expect("valid arrival spec"),
            spec.seed,
            SimDuration::from_millis(50),
        )
        .expect("runs");
        assert!(
            router.hit_rate() > 0.5,
            "hit rate {:.2} too low for Zipf(1.1)",
            router.hit_rate()
        );
        assert!(r.absorbed.ios() > r.total.ios(), "most reads absorbed");
    }

    /// Helper: warm one block into the cache through the Router interface.
    fn r_touch<R: Router>(
        router: &mut ExcesCachingRouter<R>,
        offset: u64,
        fleet: &[DeviceStatus],
    ) -> Route {
        router.route(
            &Arrival {
                at: powadapt_sim::SimTime::ZERO,
                kind: IoKind::Write,
                offset,
                len: 16 * KIB,
            },
            fleet,
        )
    }
}
