//! Observability overhead: the golden cluster cells untraced and under a
//! [`TraceRecorder`], measured in one process on identical workloads.
//!
//! Tracing is contractually *write-only* for the simulation — results are
//! byte-identical with it on or off — so the only cost it may charge is
//! wall-clock. This bench pins that cost: every arm runs the same four
//! `cluster_eval` cells (both selection policies at two seeds,
//! sequentially, the traced-artifact configuration), and the traced arm
//! must stay within [`MAX_OVERHEAD`] of the untraced baseline.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin obs_bench`
//!
//! Flags: `--out FILE` additionally writes the JSON report to `FILE`;
//! `--check FILE` compares against a committed report and exits 3 if
//! the traced overhead grew by more than [`CHECK_TOLERANCE`]
//! over the committed figure. Overheads are ratios of two same-process
//! measurements, so the gate is stable across hosts; a first attempt
//! that lands above the gate is re-measured once before failing.

use std::sync::Arc;
use std::time::Instant;

use powadapt_bench::cli;
use powadapt_bench::golden::GOLDEN_SEED;
use powadapt_cluster::{oversubscribed_cluster, run_cluster, SelectionPolicy};
use powadapt_obs::TraceRecorder;

/// Event-ring capacity; large enough that the golden cells never drop,
/// so every round records the whole event stream.
const CAPACITY: usize = 1 << 18;
/// Hard ceiling on traced-vs-untraced wall-clock: the observability
/// budget this repository enforces.
const MAX_OVERHEAD: f64 = 1.10;
/// `--check` tolerance: a measured overhead more than this far above the
/// committed figure is a regression. Additive, not relative — the
/// interesting quantity is the overhead *fraction*, which sits near zero.
const CHECK_TOLERANCE: f64 = 0.10;

fn fail(context: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("obs_bench: {context}: {err}");
    std::process::exit(2);
}

/// The four golden cluster cells, run sequentially. Returns the summed
/// served IOs so the compiler cannot elide a run and every arm can be
/// cross-checked against the others.
fn run_cells() -> u64 {
    let mut served = 0u64;
    for seed in [GOLDEN_SEED, GOLDEN_SEED + 1] {
        for policy in [SelectionPolicy::ModelDriven, SelectionPolicy::UniformStatic] {
            let report = run_cluster(oversubscribed_cluster(policy, seed))
                .unwrap_or_else(|e| fail("cluster cell failed", &e));
            served += report.served_ios;
        }
    }
    served
}

struct Arm {
    served: u64,
    elapsed_ns: u128,
    /// Events recorded, 0 for the untraced arm.
    events: u64,
}

/// Runs the cells with `recorder` installed, or with none. Nothing else
/// in this binary installs a recorder, so the untraced arm runs against
/// an empty slot.
fn run_with(recorder: Option<&Arc<TraceRecorder>>) -> u64 {
    match recorder {
        Some(rec) => powadapt_obs::with_installed(rec.clone(), run_cells),
        None => run_cells(),
    }
}

/// Measures one arm: wipe the recorder in place, run the cells timed,
/// read the event total.
///
/// The caller must have run one untimed warmup pass per arm *with its
/// recorder installed* before the first timed round: the wipe keeps the
/// ring's allocation (see `EventLog::clear`), so the timed pass measures
/// steady-state recording cost, not the one-time page faults of a cold
/// 27 MB ring — which the untraced baseline never pays and a long-lived
/// traced run amortizes to nothing.
fn measure(recorder: Option<&Arc<TraceRecorder>>) -> Arm {
    if let Some(rec) = recorder {
        rec.clear();
    }
    let start = Instant::now();
    let served = run_with(recorder);
    let elapsed_ns = start.elapsed().as_nanos();
    Arm {
        served,
        elapsed_ns,
        events: recorder.map_or(0, |rec| rec.log().total()),
    }
}

struct Measurement {
    untraced: Arm,
    traced: Arm,
    overhead_traced: f64,
}

/// Cross-checks one arm's rounds: served IOs and event totals must agree
/// — the workload is deterministic — so only the timings may differ.
fn assert_rounds_agree(rounds: &[Arm], what: &str) {
    for w in rounds.windows(2) {
        assert_eq!(
            w[0].served, w[1].served,
            "{what}: round changed simulation results"
        );
        assert_eq!(
            w[0].events, w[1].events,
            "{what}: round changed the event stream"
        );
    }
}

/// Interleaved measurement rounds. Host slowdowns here (vCPU steal,
/// thermal, scheduler) arrive as multi-second bursts, so two passes far
/// apart in time are not comparable — but adjacent passes are. Each
/// round therefore times both arms back to back and the overhead is
/// the **median per-round ratio**: a burst covering a whole round
/// inflates numerator and denominator together and cancels, a burst
/// landing on one arm of one round skews that round's ratio in either
/// direction and the median discards it. Folding per-arm minima
/// independently would instead compare timings from different noise
/// regimes, and a min-of-ratios would keep only the luckiest round.
/// The arm order alternates each round so a load ramp cannot systematically
/// tax whichever arm would otherwise always run last.
const ROUNDS: usize = 9;

fn measure_all() -> Measurement {
    let traced_rec = Arc::new(TraceRecorder::new(CAPACITY));

    // One untimed pass per arm faults in the ring and warms every
    // allocation the timed rounds touch.
    run_with(None);
    run_with(Some(&traced_rec));

    let mut untraced: Vec<Arm> = Vec::with_capacity(ROUNDS);
    let mut traced: Vec<Arm> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            untraced.push(measure(None));
            traced.push(measure(Some(&traced_rec)));
        } else {
            traced.push(measure(Some(&traced_rec)));
            untraced.push(measure(None));
        }
    }
    assert_rounds_agree(&untraced, "untraced");
    assert_rounds_agree(&traced, "traced");

    let median_ratio = |arm: &[Arm], base: &[Arm]| {
        let mut ratios: Vec<f64> = arm
            .iter()
            .zip(base)
            .map(|(a, b)| a.elapsed_ns as f64 / b.elapsed_ns as f64)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        if ratios.len().is_multiple_of(2) {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        } else {
            ratios[mid]
        }
    };
    let overhead_traced = median_ratio(&traced, &untraced);

    let fastest = |mut rounds: Vec<Arm>| {
        let best = rounds
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| a.elapsed_ns)
            .map(|(i, _)| i)
            .expect("rounds ran");
        rounds.swap_remove(best)
    };
    let (untraced, traced) = (fastest(untraced), fastest(traced));

    // Both arms ran the identical deterministic workload.
    assert_eq!(
        untraced.served, traced.served,
        "tracing changed simulation results"
    );

    Measurement {
        overhead_traced,
        untraced,
        traced,
    }
}

fn report_json(m: &Measurement) -> String {
    format!(
        "{{\n  \"bench\": \"obs_bench\",\n  \"served_ios\": {},\n  \"events\": {},\n  \"untraced_ns\": {},\n  \"traced_ns\": {},\n  \"overhead_traced\": {:.4}\n}}\n",
        m.untraced.served,
        m.traced.events,
        m.untraced.elapsed_ns,
        m.traced.elapsed_ns,
        m.overhead_traced,
    )
}

fn main() {
    let cli = cli::parse("obs_bench", &["--check", "--out"]);
    // Resolve the committed baseline first so a first attempt above the
    // gate can retry before anything is reported.
    let baseline = cli.check_baseline("overhead_traced");
    let gate = baseline.map_or(MAX_OVERHEAD, |t| (t + CHECK_TOLERANCE).min(MAX_OVERHEAD));

    let mut m = measure_all();
    if m.overhead_traced > gate {
        // Same-process ratios still wobble under transient host noise on
        // shared CI runners; one retry absorbs that, while a real
        // regression fails both attempts.
        eprintln!(
            "obs_bench: overhead {:.2}x above gate {gate:.2}x; \
             retrying once to rule out host noise",
            m.overhead_traced
        );
        let retry = measure_all();
        if retry.overhead_traced < m.overhead_traced {
            m = retry;
        }
    }

    let json = report_json(&m);
    print!("{json}");

    cli.write_out(&json);

    assert!(
        m.overhead_traced <= MAX_OVERHEAD,
        "observability overhead {:.2}x exceeds the {MAX_OVERHEAD:.2}x budget",
        m.overhead_traced
    );

    if let Some(base) = baseline {
        let worst = base + CHECK_TOLERANCE;
        if m.overhead_traced > worst {
            eprintln!(
                "obs_bench: REGRESSION: overhead {:.2}x exceeds committed \
                 {base:.2}x + {CHECK_TOLERANCE:.2}",
                m.overhead_traced
            );
            std::process::exit(3);
        }
        println!(
            "check ok: overhead {:.2}x vs committed {base:.2}x (ceiling {worst:.2}x)",
            m.overhead_traced
        );
    }
}
