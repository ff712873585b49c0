//! Property-based tests of device-simulator invariants under arbitrary
//! workloads.

use proptest::prelude::*;

use powadapt_device::{
    catalog, drain, FaultInjector, FaultPlan, IoCompletion, IoId, IoKind, IoRequest, PowerStateId,
    StorageDevice, GIB, KIB,
};
use powadapt_sim::{SimDuration, SimTime};
use powadapt_snap::SnapWriter;

/// An arbitrary but valid request stream element.
#[derive(Debug, Clone)]
struct Op {
    write: bool,
    block: u64,   // offset block index
    len_kib: u64, // 4..=2048
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        0u64..10_000,
        prop::sample::select(vec![4u64, 16, 64, 256, 1024, 2048]),
    )
        .prop_map(|(write, block, len_kib)| Op {
            write,
            block,
            len_kib,
        })
}

fn submit_ops(dev: &mut dyn StorageDevice, ops: &[Op]) -> usize {
    let mut submitted = 0;
    for (i, op) in ops.iter().enumerate() {
        let kind = if op.write {
            IoKind::Write
        } else {
            IoKind::Read
        };
        let offset = (op.block * 2048 * KIB) % (4 * GIB);
        let req = IoRequest::new(IoId(i as u64), kind, offset, op.len_kib * KIB);
        dev.submit(req).expect("request within bounds");
        submitted += 1;
    }
    submitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every submitted request completes exactly once, with its own id,
    /// kind, and length, and non-negative latency.
    #[test]
    fn ssd_completes_everything_exactly_once(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut dev = catalog::ssd2_d7_p5510(9);
        let n = submit_ops(&mut dev, &ops);
        let done = drain(&mut dev);
        prop_assert_eq!(done.len(), n);
        let mut seen: Vec<u64> = done.iter().map(|c| c.id.0).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
        for c in &done {
            let op = &ops[c.id.0 as usize];
            prop_assert_eq!(c.kind == IoKind::Write, op.write);
            prop_assert_eq!(c.len, op.len_kib * KIB);
            prop_assert!(c.completed >= c.submitted);
        }
        prop_assert_eq!(dev.inflight(), 0);
    }

    /// The same, for the HDD.
    #[test]
    fn hdd_completes_everything_exactly_once(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let mut dev = catalog::hdd_exos_7e2000(9);
        let n = submit_ops(&mut dev, &ops);
        let done = drain(&mut dev);
        prop_assert_eq!(done.len(), n);
        prop_assert_eq!(dev.inflight(), 0);
        let mut seen: Vec<u64> = done.iter().map(|c| c.id.0).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
    }

    /// Instantaneous SSD power stays within physical bounds at every event:
    /// never below a deep-sleep floor, never above the component-sum max.
    #[test]
    fn ssd_power_stays_within_component_bounds(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut dev = catalog::ssd2_d7_p5510(9);
        let cfg = dev.config().clone();
        let upper = cfg.idle_w
            + cfg.ctrl_active_w
            + 2.0 * cfg.noise_sd_w
            + cfg.dies as f64 * cfg.die_prog_w.max(cfg.die_read_w)
            + cfg.iface_active_w;
        submit_ops(&mut dev, &ops);
        while let Some(t) = dev.next_event() {
            dev.advance_to(t);
            let p = dev.power_w();
            prop_assert!(p >= 0.0, "negative power {}", p);
            prop_assert!(p <= upper + 1e-9, "power {} above bound {}", p, upper);
        }
    }

    /// Under a power cap, the trailing-window average respects the cap for
    /// any write-heavy workload (sampled at 1 ms).
    #[test]
    fn cap_is_respected_for_any_write_workload(
        blocks in prop::collection::vec(0u64..2_000, 8..40),
        len_sel in prop::sample::select(vec![64u64, 256, 1024, 2048]),
    ) {
        let mut dev = catalog::ssd2_d7_p5510(11);
        dev.set_power_state(PowerStateId(2)).expect("ps2 exists");
        for (i, &b) in blocks.iter().enumerate() {
            let req = IoRequest::new(
                IoId(i as u64),
                IoKind::Write,
                (b * 2048 * KIB) % (4 * GIB),
                len_sel * KIB,
            );
            dev.submit(req).expect("valid");
        }
        // Sample power every 1 ms while draining; compute the overall mean
        // of the busy region.
        let mut samples = Vec::new();
        let mut t = SimTime::ZERO;
        while dev.next_event().is_some() {
            t += SimDuration::from_millis(1);
            dev.advance_to(t);
            samples.push(dev.power_w());
        }
        if samples.len() > 25 {
            let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
            prop_assert!(
                mean <= 10.0 * 1.1,
                "mean power {} breaks the 10 W cap", mean
            );
        }
    }

    /// Standby round-trips from any quiesced state, and power ends at the
    /// documented floor.
    #[test]
    fn standby_roundtrip_from_any_state(ops in prop::collection::vec(op_strategy(), 0..20)) {
        let mut dev = catalog::evo_860(13);
        submit_ops(&mut dev, &ops);
        drain(&mut dev);
        dev.request_standby().expect("idle device accepts standby");
        drain(&mut dev);
        prop_assert!((dev.power_w() - 0.17).abs() < 1e-9);
        dev.request_wake().expect("wake accepted");
        drain(&mut dev);
        prop_assert!((dev.power_w() - 0.35).abs() < 1e-9);
        prop_assert_eq!(dev.inflight(), 0);
    }

    /// Larger requests never complete with smaller latency than the
    /// interface can physically transfer them (causality floor).
    #[test]
    fn latency_respects_transfer_floor(len_kib in prop::sample::select(vec![4u64, 64, 1024, 2048])) {
        let mut dev = catalog::ssd3_d3_p4510(7);
        let bw = dev.config().interface_bw;
        dev.submit(IoRequest::new(IoId(0), IoKind::Read, 0, len_kib * KIB)).expect("valid");
        let done = drain(&mut dev);
        let floor = (len_kib * KIB) as f64 / bw;
        prop_assert!(
            done[0].latency().as_secs_f64() >= floor,
            "latency {} below transfer floor {}",
            done[0].latency(), floor
        );
    }
}

/// A device of each stepping shape: SSDs with die, interface and buffer
/// queues, the HDD's single actuator, and a fault injector whose held
/// completions make its next event the earlier of two sources.
fn stepping_device(which: u8, seed: u64) -> Box<dyn StorageDevice> {
    match which {
        0 => Box::new(catalog::ssd1_pm9a3(seed)),
        1 => Box::new(catalog::evo_860(seed)),
        2 => Box::new(catalog::hdd_exos_7e2000(seed)),
        _ => Box::new(FaultInjector::seeded(
            Box::new(catalog::ssd2_d7_p5510(seed)),
            FaultPlan::none().latency_spikes(0.2, SimDuration::from_millis(3)),
            seed,
        )),
    }
}

/// One point at which a closed-loop driver acts: the time it stopped
/// at, the device's clock and power there (as bits), and the completions
/// of that stop as `(id, completed)`, in order.
#[derive(Debug, PartialEq)]
struct Stop {
    t: SimTime,
    now: SimTime,
    power_bits: u64,
    done: Vec<(u64, SimTime)>,
}

/// Drives `dev` through `ops` at queue depth `depth`, with a meter-like
/// deadline every `period`, and returns every stop. `per_event` steps
/// one event at a time and refills the queue after every step; otherwise
/// the driver calls `advance_until_completion` and acts only where it
/// returns.
fn closed_loop(
    dev: &mut dyn StorageDevice,
    ops: &[Op],
    depth: usize,
    period: SimDuration,
    per_event: bool,
) -> Vec<Stop> {
    let mut next = 0;
    let mut refill = |dev: &mut dyn StorageDevice| {
        while dev.inflight() < depth && next < ops.len() {
            let op = &ops[next];
            let kind = if op.write {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let offset = (op.block * 2048 * KIB) % (4 * GIB);
            let req = IoRequest::new(IoId(next as u64), kind, offset, op.len_kib * KIB);
            dev.submit(req).expect("request within bounds");
            next += 1;
        }
        next == ops.len()
    };
    let mut stops = Vec::new();
    let mut out: Vec<IoCompletion> = Vec::new();
    let mut limit = dev.now() + period;
    let mut all_issued = refill(dev);
    while !all_issued || dev.inflight() > 0 {
        let start = out.len();
        let t = if per_event {
            let t = dev.next_event().map_or(limit, |e| e.min(limit));
            dev.advance_to_into(t, &mut out);
            t
        } else {
            dev.advance_until_completion(limit, &mut out)
        };
        all_issued = refill(dev);
        if t == limit || out.len() > start {
            stops.push(Stop {
                t,
                now: dev.now(),
                power_bits: dev.power_w().to_bits(),
                done: out[start..].iter().map(|c| (c.id.0, c.completed)).collect(),
            });
        }
        if t == limit {
            limit += period;
        }
    }
    stops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stepping to the next completion in one call is per-event stepping
    /// with the idle steps folded in: the same completions (ids, times,
    /// order), clock and power at every point the driver acts.
    #[test]
    fn advance_until_completion_matches_per_event_stepping(
        which in 0u8..4,
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..40),
        depth in 1usize..=32,
        period_us in prop::sample::select(vec![50u64, 1_000, 20_000]),
    ) {
        let period = SimDuration::from_micros(period_us);
        let mut stepped = stepping_device(which, seed);
        let mut folded = stepping_device(which, seed);
        let a = closed_loop(stepped.as_mut(), &ops, depth, period, true);
        let b = closed_loop(folded.as_mut(), &ops, depth, period, false);
        prop_assert_eq!(a.iter().map(|s| s.done.len()).sum::<usize>(), ops.len());
        prop_assert_eq!(a, b);
    }
}

/// The device's serialized state, as a checkpoint would hold it.
fn state_bytes(dev: &dyn StorageDevice) -> Vec<u8> {
    let mut w = SnapWriter::new();
    dev.write_state(&mut w).expect("device serializes");
    w.into_payload()
}

/// What the caller sees at the end of a segment: the segment's completions
/// in order, the clock, the power draw as bits, and the device's state.
#[derive(Debug, PartialEq)]
struct SegmentEnd {
    done: Vec<IoCompletion>,
    now: SimTime,
    power_bits: u64,
    state: Vec<u8>,
}

/// Submits `ops` (ids from `first`) and advances to `t`, either in one
/// call or as lockstep would: at every `next_event()` on the way and at
/// a time between each two (another device's event), and reports the
/// segment end.
fn segment(
    dev: &mut dyn StorageDevice,
    ops: &[Op],
    first: u64,
    t: SimTime,
    per_event: bool,
) -> SegmentEnd {
    for (i, op) in ops.iter().enumerate() {
        let kind = if op.write {
            IoKind::Write
        } else {
            IoKind::Read
        };
        let offset = (op.block * 2048 * KIB) % (4 * GIB);
        let req = IoRequest::new(IoId(first + i as u64), kind, offset, op.len_kib * KIB);
        dev.submit(req).expect("request within bounds");
    }
    let mut done = Vec::new();
    if per_event {
        while let Some(e) = dev.next_event().filter(|&e| e <= t) {
            let now = dev.now();
            if e > now {
                let between = now + SimDuration::from_nanos(e.duration_since(now).as_nanos() / 2);
                dev.advance_to_into(between, &mut done);
            }
            dev.advance_to_into(e, &mut done);
        }
    }
    dev.advance_to_into(t, &mut done);
    SegmentEnd {
        done,
        now: dev.now(),
        power_bits: dev.power_w().to_bits(),
        state: state_bytes(dev),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `advance_to_into(t)` across many events is per-event stepping
    /// to `t`: the same completions (ids, times, order), clock, power and
    /// serialized state. A multi-device loop may therefore leave a device
    /// that nobody waits on to catch up in one call at its next visit.
    #[test]
    fn one_advance_matches_per_event_stepping(
        which in 0u8..4,
        seed in 0u64..1_000,
        segments in prop::collection::vec(
            (
                prop::collection::vec(op_strategy(), 0..12),
                prop::sample::select(vec![20u64, 400, 3_000, 25_000, 200_000]),
            ),
            1..8,
        ),
    ) {
        let mut stepped = stepping_device(which, seed);
        let mut lazy = stepping_device(which, seed);
        let mut t = SimTime::ZERO;
        let mut first = 0;
        let mut completed = 0;
        for (ops, len_us) in &segments {
            t += SimDuration::from_micros(*len_us);
            let a = segment(stepped.as_mut(), ops, first, t, true);
            let b = segment(lazy.as_mut(), ops, first, t, false);
            first += ops.len() as u64;
            completed += a.done.len();
            prop_assert_eq!(a, b);
        }
        // Drain what is left, so every completion path is compared.
        let end = t + SimDuration::from_secs(30);
        let a = segment(stepped.as_mut(), &[], first, end, true);
        let b = segment(lazy.as_mut(), &[], first, end, false);
        prop_assert_eq!(completed + a.done.len(), first as usize);
        prop_assert_eq!(a, b);
    }
}
