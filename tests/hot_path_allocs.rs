//! Hot-path allocation budget, measured rather than guessed.
//!
//! A counting global allocator wraps `System` and counts, per thread,
//! every allocation and reallocation. Each public primitive on the
//! per-event spine runs a warm-up (so buffers reach their high-water
//! marks and names get registered), then [`OPS`] steady-state operations
//! under the counter, which may allocate at most [`MAX_ALLOCS`] times in
//! total. The count reaches callees at any depth, including through
//! `dyn StorageDevice`, so an allocation three calls down fails the test
//! as surely as one in the primitive itself.
//!
//! The fleet runner and `ClusterSim` both drain their devices through
//! `powadapt_io::Stepper`, whose per-step calls are counted here on a
//! mixed fleet; the two loops' own bookkeeping is covered by perfbench's
//! end-to-end wall time.
//!
//! Run alone with `cargo test --test hot_path_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use powadapt::device::{
    catalog, FaultInjector, FaultPlan, IoCompletion, IoId, IoKind, IoRequest, StorageDevice, GIB,
    KIB,
};
use powadapt::io::{Arrival, Stepper, PAPER_DEPTHS};
use powadapt::obs::{MetricsRegistry, Sketch};
use powadapt::sim::{EventQueue, SimDuration, SimRng, Slab};

/// Counts allocations made by the current thread, then defers to
/// `System`.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// the caller's guarantees reach `System` and `System`'s guarantees reach
// the caller. Counting touches only a `const`-initialised thread-local
// `Cell` with no destructor, which neither allocates nor can fail.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; every method only counts and forwards to System"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Operations run before counting starts.
const WARMUP: usize = 50_000;
/// Operations counted.
const OPS: usize = 100_000;
/// Allocations allowed across all counted operations.
const MAX_ALLOCS: u64 = 8;

/// Warm-up of the closed loops at the paper's deepest queue. A die queue
/// holds at most the queue depth, but at depth 128 a random one-page
/// stream piles that many onto one die only rarely, so each die queue
/// reaches its high-water mark, and its final capacity, at random points.
/// 400k steps is past the last such growth for every device tested.
const DEEP_WARMUP: usize = 400_000;

/// Runs `op` [`WARMUP`] times, then [`OPS`] times under the counter, and
/// fails if the counted calls allocated more than [`MAX_ALLOCS`] times.
fn assert_steady_state_alloc_free(what: &str, op: impl FnMut()) {
    assert_alloc_free_after(what, WARMUP, op);
}

/// [`assert_steady_state_alloc_free`] after `warmup` operations.
fn assert_alloc_free_after(what: &str, warmup: usize, mut op: impl FnMut()) {
    for _ in 0..warmup {
        op();
    }
    let before = allocations();
    for _ in 0..OPS {
        op();
    }
    let n = allocations() - before;
    assert!(
        n <= MAX_ALLOCS,
        "{what}: {n} allocations in {OPS} steady-state operations (budget {MAX_ALLOCS})"
    );
}

/// A device kept at a fixed queue depth: every completion is replaced by
/// a new random 4 KiB request, 30 % of them writes.
///
/// One-page requests bound every internal queue (per-die, command,
/// interface, buffer, in-flight index) by the depth, so a long enough
/// warm-up takes each to its final capacity. Larger requests fan out
/// over the dies, and a die queue then reaches a new high-water mark,
/// and doubles, at random points long after any fixed warm-up.
struct ClosedLoop {
    dev: Box<dyn StorageDevice>,
    rng: SimRng,
    next_id: u64,
    done: Vec<IoCompletion>,
}

impl ClosedLoop {
    const LEN: u64 = 4 * KIB;
    const DEPTH: usize = 4;

    fn new(dev: Box<dyn StorageDevice>) -> Self {
        Self::with_depth(dev, Self::DEPTH)
    }

    fn with_depth(dev: Box<dyn StorageDevice>, depth: usize) -> Self {
        let mut l = ClosedLoop {
            dev,
            rng: SimRng::seed_from(7),
            next_id: 0,
            done: Vec::new(),
        };
        for _ in 0..depth {
            l.submit();
        }
        l
    }

    fn submit(&mut self) {
        let kind = if self.rng.chance(0.3) {
            IoKind::Write
        } else {
            IoKind::Read
        };
        let offset = self.rng.next_u64() % (4 * GIB / Self::LEN) * Self::LEN;
        let req = IoRequest::new(IoId(self.next_id), kind, offset, Self::LEN);
        self.dev.submit(req).expect("device accepts the request");
        self.next_id += 1;
    }

    /// One step: jump to the next device event, collect what completed
    /// and refill the queue.
    fn step(&mut self) {
        let t = self
            .dev
            .next_event()
            .expect("a closed loop always has IO in flight");
        self.done.clear();
        self.dev.advance_to_into(t, &mut self.done);
        for _ in 0..self.done.len() {
            self.submit();
        }
    }
}

#[test]
fn the_counter_sees_allocations() {
    let before = allocations();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
    assert!(
        allocations() > before,
        "the counting allocator is not installed"
    );
    drop(v);
}

#[test]
fn ssd_steps_allocate_nothing() {
    let ssds: [(&str, Box<dyn StorageDevice>); 3] = [
        ("SSD1", Box::new(catalog::ssd1_pm9a3(1))),
        ("SSD2", Box::new(catalog::ssd2_d7_p5510(1))),
        ("EVO", Box::new(catalog::evo_860(1))),
    ];
    for (label, dev) in ssds {
        let mut l = ClosedLoop::new(dev);
        assert_steady_state_alloc_free(label, || l.step());
    }
}

#[test]
fn hdd_steps_allocate_nothing() {
    let mut l = ClosedLoop::new(Box::new(catalog::hdd_exos_7e2000(1)));
    assert_steady_state_alloc_free("HDD", || l.step());
}

#[test]
fn fault_injector_steps_allocate_nothing() {
    // The spike path holds one completion in twenty back by 20 ms and
    // releases it on a later step.
    let dev = FaultInjector::seeded(
        Box::new(catalog::ssd2_d7_p5510(1)),
        FaultPlan::none().latency_spikes(0.05, SimDuration::from_millis(20)),
        3,
    );
    let mut l = ClosedLoop::new(Box::new(dev));
    assert_steady_state_alloc_free("FaultInjector(SSD2)", || l.step());
}

#[test]
fn deepest_paper_queue_steps_allocate_nothing() {
    let depth = *PAPER_DEPTHS.iter().max().expect("the paper sweeps depths");
    let devices: [(&str, Box<dyn StorageDevice>); 5] = [
        ("SSD1", Box::new(catalog::ssd1_pm9a3(1))),
        ("SSD2", Box::new(catalog::ssd2_d7_p5510(1))),
        ("EVO", Box::new(catalog::evo_860(1))),
        ("HDD", Box::new(catalog::hdd_exos_7e2000(1))),
        (
            "FaultInjector(SSD2)",
            Box::new(FaultInjector::seeded(
                Box::new(catalog::ssd2_d7_p5510(1)),
                FaultPlan::none().latency_spikes(0.05, SimDuration::from_millis(20)),
                3,
            )),
        ),
    ];
    for (label, dev) in devices {
        let mut l = ClosedLoop::with_depth(dev, depth);
        assert_alloc_free_after(&format!("{label} at depth {depth}"), DEEP_WARMUP, || {
            l.step();
        });
    }
}

#[test]
fn stepper_steps_allocate_nothing() {
    // A closed loop per device behind one stepper: each step drains the
    // due devices and refills each through `Stepper::submit`.
    let mut devices: Vec<Box<dyn StorageDevice>> = vec![
        Box::new(catalog::ssd2_d7_p5510(1)),
        Box::new(catalog::evo_860(1)),
        Box::new(catalog::hdd_exos_7e2000(1)),
        Box::new(FaultInjector::seeded(
            Box::new(catalog::ssd2_d7_p5510(2)),
            FaultPlan::none().latency_spikes(0.05, SimDuration::from_millis(20)),
            3,
        )),
    ];
    let mut stepper = Stepper::default();
    stepper.touch_all(devices.iter_mut().map(|d| &mut **d));
    let mut rng = SimRng::seed_from(7);
    let mut next_id = 0u64;
    let mut refill = vec![ClosedLoop::DEPTH; devices.len()];
    let mut t = powadapt::sim::SimTime::ZERO;
    assert_steady_state_alloc_free("Stepper", || {
        for (i, dev) in devices.iter_mut().enumerate() {
            for _ in 0..refill[i] {
                let kind = if rng.chance(0.3) {
                    IoKind::Write
                } else {
                    IoKind::Read
                };
                let len = ClosedLoop::LEN;
                let offset = rng.next_u64() % (4 * GIB / len) * len;
                let a = Arrival {
                    at: t,
                    kind,
                    offset,
                    len,
                };
                stepper
                    .submit(i, &mut **dev, t, IoId(next_id), &a)
                    .expect("device accepts the request");
                next_id += 1;
            }
        }
        t = stepper
            .next_wake()
            .expect("a closed loop always has IO in flight");
        for (i, dev) in devices.iter_mut().enumerate() {
            refill[i] = stepper.drain(i, &mut **dev, t).len();
        }
    });
}

#[test]
fn event_queue_allocates_nothing() {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..64 {
        q.schedule(powadapt::sim::SimTime::from_micros(i), i);
    }
    let mut i = 0u64;
    assert_steady_state_alloc_free("EventQueue", || {
        i += 1;
        let popped = if i.is_multiple_of(2) {
            q.pop()
        } else {
            let t = q.next_time().expect("the queue is never empty");
            q.pop_at_or_before(t)
        };
        let (at, v) = popped.expect("the queue is never empty");
        if v.is_multiple_of(2) {
            // A timer: a varying delay ahead, on the heap.
            q.schedule(at + SimDuration::from_nanos(1 + v * 7919 % 5000), v);
        } else {
            // A device completion: a fixed delay per class, on its lane.
            let lane = (v / 2) as usize % EventQueue::<u64>::LANES;
            q.schedule_on_lane(
                lane,
                at + SimDuration::from_nanos(700 * (lane as u64 + 1)),
                v,
            );
        }
    });
}

#[test]
fn slab_allocates_nothing() {
    let mut slab = Slab::new();
    let mut keys: Vec<usize> = (0..64u64).map(|v| slab.insert(v)).collect();
    let mut i = 0usize;
    assert_steady_state_alloc_free("Slab", || {
        let j = i * 37 % keys.len();
        let v = slab.remove(keys[j]).expect("the key is live");
        keys[j] = slab.insert(v + 1);
        i += 1;
    });
}

#[test]
fn sketch_observe_allocates_nothing() {
    let mut sketch = Sketch::new();
    let mut rng = SimRng::seed_from(11);
    assert_steady_state_alloc_free("Sketch::observe", || {
        sketch.observe(rng.uniform_range(-1e3, 1e6));
    });
}

#[test]
fn metrics_registry_allocates_nothing_after_registration() {
    let reg = MetricsRegistry::new();
    let mut x = 0.0;
    assert_steady_state_alloc_free("MetricsRegistry::{inc, observe}", || {
        reg.inc("device.submit", 1);
        reg.observe("io.latency_us", x);
        x += 0.5;
    });
}
