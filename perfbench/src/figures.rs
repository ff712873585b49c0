//! The `figures` workload: the single-device io runner, device models,
//! meter traces and model fitting, with no cluster, tree, placement or
//! snapshot work.
//!
//! The timed unit is the Figure 10 power-throughput sweep: every Table 1
//! device through `full_sweep_with` at `golden_scale()`, then
//! `PowerThroughputModel::from_sweep`, as `fig10::models_with` computes
//! it. A `figure_summary` call is one opaque piece of up to a second,
//! which the host's slow phases swamp; the sweep's device factory marks
//! the start of every cell, so the unit splits into millisecond pieces.
//! All ten figure summaries still run once per run, after the timed
//! section, as output checks and for the per-figure layer times.

use std::sync::{Arc, Mutex};

use powadapt_bench::figures::fig10;
use powadapt_bench::golden::{figure_summary, golden_scale, goldens_dir, FIGURES, GOLDEN_SEED};
use powadapt_bench::TABLE1_LABELS;
use powadapt_device::{catalog, StorageDevice};
use powadapt_io::{
    full_sweep_with, ParallelConfig, SweepPoint, SweepScale, Workload, PAPER_CHUNKS, PAPER_DEPTHS,
};
use powadapt_model::PowerThroughputModel;
use powadapt_obs::TraceRecorder;

use crate::timing::{elapsed_ns, now, Tracer};
use crate::{
    max_rss_mib, mean, metric, repeat, secs, Args, Checks, FastestPieces, Layers, Outcome,
};

/// A Table 1 device, as the sweep's factory builds it for every cell.
fn device(label: &str, seed: u64) -> Box<dyn StorageDevice> {
    match catalog::by_label(label, seed) {
        Some(d) => d,
        // powadapt-lint: allow(D5, reason = "TABLE1_LABELS are catalog labels by construction")
        None => panic!("{label} is not a catalog label"),
    }
}

/// What one pass of the sweep produced.
struct Sweep {
    points: Vec<SweepPoint>,
    models: Vec<PowerThroughputModel>,
    /// Host time from each mark to the next: a device's sweep start,
    /// every cell start, the model fit, the end.
    pieces: Vec<u64>,
}

fn sweep(scale: SweepScale, seed: u64, cfg: &ParallelConfig) -> Result<Sweep, String> {
    let mut marks = Vec::new();
    let mut points = Vec::new();
    for label in TABLE1_LABELS {
        let states: Vec<_> = device(label, seed)
            .power_states()
            .iter()
            .map(|d| d.id)
            .collect();
        let starts = Mutex::new(vec![now()]);
        let factory = || {
            if let Ok(mut s) = starts.lock() {
                s.push(now());
            }
            device(label, seed)
        };
        let swept = full_sweep_with(
            factory,
            &[Workload::RandWrite],
            &PAPER_CHUNKS,
            &PAPER_DEPTHS,
            &states,
            scale,
            seed,
            cfg,
        )
        .map_err(|e| format!("{label} sweep: {e}"))?;
        points.extend(swept);
        marks.extend(starts.into_inner().map_err(|e| e.to_string())?);
    }
    marks.push(now());
    let models = PowerThroughputModel::from_sweep(&points);
    marks.push(now());
    let pieces = marks
        .windows(2)
        .map(|w| u64::try_from(w[1].duration_since(w[0]).as_nanos()).unwrap_or(u64::MAX))
        .collect();
    Ok(Sweep {
        points,
        models,
        pieces,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = golden_scale();
    let cfg = ParallelConfig::sequential();
    let mut checks = Checks::default();

    // Timed section: untraced sweeps until the run's time is up.
    let mut setup = FastestPieces::default();
    let mut timed = FastestPieces::default();
    let mut first: Option<(String, Vec<SweepPoint>)> = None;
    repeat(args.seconds, || -> Result<(), String> {
        // Set-up: building the Table 1 devices every cell starts from.
        let t0 = now();
        for label in TABLE1_LABELS {
            std::hint::black_box(device(label, args.seed));
        }
        setup.add(&[elapsed_ns(t0)]);
        let s = sweep(scale, args.seed, &cfg)?;
        timed.add(&s.pieces);
        let models = format!("{:?}", s.models);
        match &first {
            None => first = Some((models, s.points)),
            Some((f, _)) => checks.check(*f == models, || {
                "a repeated sweep changed its models".into()
            }),
        }
        Ok(())
    })?;
    let rss = max_rss_mib();
    let wall = timed.total_s();
    let (models, points) = first.unwrap_or_default();

    // Output checks, outside the timed section.
    checks.check(
        models == format!("{:?}", fig10::models_with(scale, args.seed, &cfg)),
        || "the sweep's models differ from fig10::models_with".into(),
    );
    let rec = Arc::new(TraceRecorder::new(1 << 12));
    let prev = powadapt_obs::install(rec.clone());
    let traced = sweep(scale, args.seed, &cfg);
    match prev {
        Some(p) => {
            powadapt_obs::install(p);
        }
        None => {
            powadapt_obs::uninstall();
        }
    }
    let traced = traced?;
    checks.check(format!("{:?}", traced.models) == models, || {
        "the traced sweep's models differ from the untraced".into()
    });
    let mut tr = Tracer::new(Default::default());
    let root = tr.open("workload", 0, None);
    for (i, name) in FIGURES.iter().enumerate() {
        let summary = tr.span(name, i as u32, Some(root), || {
            figure_summary(name, scale, args.seed, &cfg)
        });
        if args.seed == GOLDEN_SEED {
            let path = goldens_dir().join(format!("{name}.json"));
            let golden = std::fs::read_to_string(&path).unwrap_or_default();
            checks.check(golden == summary, || {
                format!("{name}: summary differs from {}", path.display())
            });
        }
    }
    tr.close(root);

    // Simulated outcomes of the sweep: metered energy over the bytes
    // moved, and the cells' p99 latencies.
    let ios: u64 = points.iter().map(|p| p.result.io.ios()).sum();
    let bytes: u64 = points.iter().map(|p| p.result.io.bytes()).sum();
    let joules: f64 = points
        .iter()
        .map(|p| p.result.avg_power_w() * p.result.io.elapsed().as_secs_f64())
        .sum();
    let p99_us: Vec<f64> = points
        .iter()
        .map(|p| p.result.io.p99_latency_us())
        .collect();
    checks.check(ios > 0 && bytes > 0, || "the sweep completed no IO".into());

    let mut layers = Layers::default();
    for name in FIGURES {
        layers.set(&format!("io.figure.{name}.ns"), tr.total_ns(name) as f64);
    }
    let counts = rec.log().counts();
    layers.set(
        "obs.events",
        counts.iter().map(|(_, n)| n).sum::<u64>() as f64,
    );
    for (kind, n) in &counts {
        layers.set(&format!("obs.events.{kind}"), *n as f64);
    }
    layers.set(
        "obs.trace_overhead",
        secs(traced.pieces.iter().sum()) / wall,
    );
    let attempted = points.len() as u64 + checks.run;
    let failed = checks.failures.len() as u64;
    layers.set("fail_ratio", failed as f64 / attempted as f64);

    Ok(Outcome {
        end_to_end: vec![
            metric("wall_s", wall, "s"),
            metric("ios_per_s", ios as f64 / wall, "1/s"),
            metric("setup_s", setup.total_s(), "s"),
            metric("max_rss_mib", rss, "MiB"),
            metric("nj_per_byte", joules / bytes.max(1) as f64 * 1e9, "nJ/B"),
            metric("p99_ms", mean(&p99_us) / 1e3, "ms"),
        ],
        per_layer: layers.into_metrics(),
        attempted,
        failed,
        spans_json: tr.to_json(),
        checks,
    })
}
