//! Microbenchmarks of the discrete-event kernel: the hot paths every
//! device simulation runs millions of times per simulated second.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use powadapt_sim::{EventQueue, RollingMean, SimDuration, SimRng, SimTime, StepSignal, Summary};

fn bench_event_queue(c: &mut Criterion) {
    // A device model keeps a few dozen events pending and schedules about
    // one new event per event it fires, so the queue is measured as a hold
    // loop: `live` events stay pending while each step pops the earliest
    // and schedules one replacement a random delay later.
    for live in [16usize, 64] {
        c.bench_function(&format!("event_queue/hold_{live}"), |b| {
            let mut rng = SimRng::seed_from(live as u64);
            let deltas: Vec<u64> = (0..4_096).map(|_| rng.u64_range(1, 200_000)).collect();
            b.iter_batched(
                || {
                    let mut q = EventQueue::new();
                    for (i, &d) in deltas[..live].iter().enumerate() {
                        q.schedule(SimTime::from_nanos(d), i);
                    }
                    q
                },
                |mut q| {
                    for &d in &deltas {
                        let now = q.next_time().unwrap_or(SimTime::ZERO);
                        let (t, ev) = q
                            .pop_at_or_before(now)
                            .expect("the hold loop keeps `live` events pending");
                        q.schedule(SimTime::from_nanos(t.as_nanos() + d), black_box(ev));
                    }
                    q
                },
                BatchSize::SmallInput,
            );
        });
    }
}

/// The classes of the SSD-shaped traffic in `event_queue/fixed_delay_lanes`.
#[derive(Clone, Copy)]
enum Traffic {
    DieOp,
    Commit,
    Noise,
    Retry,
}

fn bench_event_queue_lanes(c: &mut Criterion) {
    // SSD traffic: 32 dies each run a fixed-delay op whose completion
    // schedules a fixed-delay commit, which starts the die's next op, and
    // two timers re-arm at a varying and a fixed interval. The die ops and
    // the commits ride one lane each; the timers stay on the heap.
    const DIE_LANE: usize = 0;
    const COMMIT_LANE: usize = 1;
    let die_op = SimDuration::from_micros(50);
    let commit = SimDuration::from_micros(5);
    let retry = SimDuration::from_micros(200);
    c.bench_function("event_queue/fixed_delay_lanes", |b| {
        let mut rng = SimRng::seed_from(7);
        let dwells: Vec<u64> = (0..64).map(|_| rng.u64_range(4_000, 12_000)).collect();
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                for die in 0..32u64 {
                    let at = SimTime::from_nanos(die * 1_500) + die_op;
                    q.schedule_on_lane(DIE_LANE, at, Traffic::DieOp);
                }
                q.schedule(SimTime::from_micros(dwells[0]), Traffic::Noise);
                q.schedule(SimTime::ZERO + retry, Traffic::Retry);
                q
            },
            |mut q| {
                for i in 0..4_096 {
                    let (t, ev) = q.pop().expect("every event re-arms one");
                    match black_box(ev) {
                        Traffic::DieOp => {
                            q.schedule_on_lane(COMMIT_LANE, t + commit, Traffic::Commit);
                        }
                        Traffic::Commit => q.schedule_on_lane(DIE_LANE, t + die_op, Traffic::DieOp),
                        Traffic::Noise => {
                            let dwell = SimDuration::from_micros(dwells[i % dwells.len()]);
                            q.schedule(t + dwell, ev);
                        }
                        Traffic::Retry => q.schedule(t + retry, ev),
                    }
                }
                q
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_rolling_mean(c: &mut Criterion) {
    c.bench_function("rolling_mean/push_query_10k", |b| {
        let mut rng = SimRng::seed_from(3);
        let steps: Vec<(u64, f64)> = (0..10_000)
            .map(|i| {
                (
                    i * 700 + rng.u64_range(0, 500),
                    rng.uniform_range(0.0, 20.0),
                )
            })
            .collect();
        b.iter(|| {
            let mut rm = RollingMean::new(SimDuration::from_millis(25), 5.0);
            for &(t, v) in &steps {
                rm.push(SimTime::from_micros(t), v);
                black_box(rm.mean_at(SimTime::from_micros(t)));
            }
        });
    });
}

fn bench_signal_and_stats(c: &mut Criterion) {
    c.bench_function("step_signal/integrate_1k_steps", |b| {
        let mut sig = StepSignal::new(1.0);
        for i in 1..1_000u64 {
            sig.step(SimTime::from_micros(i * 37), (i % 13) as f64);
        }
        let end = SimTime::from_micros(37_000);
        b.iter(|| black_box(sig.integrate(SimTime::ZERO, end)));
    });

    c.bench_function("summary/build_and_percentiles_10k", |b| {
        let mut rng = SimRng::seed_from(4);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.normal(8.0, 1.5)).collect();
        b.iter(|| {
            let s = Summary::from_samples(&samples).expect("finite samples");
            black_box((s.mean(), s.median(), s.percentile(99.0)))
        });
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/normal_100k", |b| {
        b.iter_batched(
            || SimRng::seed_from(5),
            |mut rng| {
                let mut acc = 0.0;
                for _ in 0..100_000 {
                    acc += rng.normal(0.0, 1.0);
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_lanes,
    bench_rolling_mean,
    bench_signal_and_stats,
    bench_rng
);
criterion_main!(benches);
