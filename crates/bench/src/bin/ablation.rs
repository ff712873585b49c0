//! Ablation study of the design choices DESIGN.md calls out: cap-governor
//! control window, flush watermark, and write amplification. Each section
//! varies one knob on the SSD2 model in 1 s runs and prints what moves;
//! its prose says only what its own rows show.
//!
//! Each section's variants are independent experiments, so they fan across
//! the workers set by `--workers N` (or `POWADAPT_WORKERS`); the printed
//! tables are identical for every worker count.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin ablation`

use powadapt_bench::cli;
use powadapt_device::{catalog, PowerStateId, Ssd, SsdConfig, StorageDevice, GIB, KIB, MIB};
use powadapt_io::{run_cells, run_experiment, JobSpec, Workload};
use powadapt_sim::SimDuration;

fn base_config() -> SsdConfig {
    catalog::ssd2_d7_p5510(1).config().clone()
}

fn device_with(cfg: SsdConfig, ps: u8) -> Ssd {
    let spec = catalog::ssd2_d7_p5510(1).spec().clone();
    let mut dev = Ssd::new(spec, cfg, 1);
    dev.set_power_state(PowerStateId(ps)).expect("ps exists");
    dev
}

fn run(dev: &mut Ssd, w: Workload, chunk: u64, depth: usize) -> powadapt_io::ExperimentResult {
    let job = JobSpec::new(w)
        .block_size(chunk)
        .io_depth(depth)
        .runtime(SimDuration::from_millis(1000))
        .size_limit(4 * GIB)
        .ramp(SimDuration::from_millis(150))
        .seed(5);
    run_experiment(dev, &job).expect("experiment runs")
}

fn main() {
    let cli = cli::parse("ablation", &[]);
    let trace = cli.start_tracing();
    let pcfg = cli.parallel;

    println!("== Ablation 1: cap-governor control window (ps2, randwrite 256 KiB QD1) ==");
    println!("   Throughput and average power barely move with the window; p99 moves");
    println!("   without a trend, so these rows show no tail cost of a longer window.");
    println!(
        "   {:>8} {:>10} {:>10} {:>10} {:>9}",
        "window", "thr MiB/s", "avg us", "p99 us", "avg W"
    );
    let windows = [5u64, 25, 100, 500];
    let results = run_cells(&windows, &pcfg, |_, &ms| {
        let mut cfg = base_config();
        cfg.cap_window = SimDuration::from_millis(ms);
        let mut dev = device_with(cfg, 2);
        run(&mut dev, Workload::RandWrite, 256 * KIB, 1)
    });
    for (ms, r) in windows.iter().zip(&results) {
        println!(
            "   {:>6}ms {:>10.0} {:>10.0} {:>10.0} {:>9.2}",
            ms,
            r.io.throughput_mibs(),
            r.io.avg_latency_us(),
            r.io.p99_latency_us(),
            r.avg_power_w()
        );
    }
    println!();

    println!("== Ablation 2: enforcement window (ps2, seq write 2 MiB QD64) ==");
    println!("   Power spread = p95 - p5 of the trace. The 25 ms window has the narrowest");
    println!("   spread at about the same throughput. A run lasts 1 s, so the 2 s and 10 s");
    println!("   windows never fill inside it; their rows match 500 ms within 0.01.");
    println!(
        "   {:>8} {:>10} {:>9} {:>10} {:>10}",
        "window", "thr MiB/s", "avg W", "peak W", "spread W"
    );
    let windows = [25u64, 500, 2000, 10_000];
    let results = run_cells(&windows, &pcfg, |_, &ms| {
        let mut cfg = base_config();
        cfg.cap_window = SimDuration::from_millis(ms);
        cfg.noise_sd_w = 0.0;
        let mut dev = device_with(cfg, 2);
        run(&mut dev, Workload::SeqWrite, 2 * MIB, 64)
    });
    for (ms, r) in windows.iter().zip(&results) {
        let (peak, spread) = r.power.summary().map_or((0.0, 0.0), |s| {
            (s.max(), s.percentile(95.0) - s.percentile(5.0))
        });
        println!(
            "   {:>6}ms {:>10.0} {:>9.2} {:>10.2} {:>10.2}",
            ms,
            r.io.throughput_mibs(),
            r.avg_power_w(),
            peak,
            spread
        );
    }
    println!();

    println!("== Ablation 3: flush watermark (ps0, randwrite 4 KiB QD1) ==");
    println!("   The three watermarks print identical rows: at this load the watermark");
    println!("   moves neither throughput, power nor the tail.");
    println!(
        "   {:>10} {:>10} {:>9} {:>10} {:>10}",
        "watermark", "thr MiB/s", "avg W", "peak W", "p99 us"
    );
    let watermarks = [1u64, 4, 16];
    let results = run_cells(&watermarks, &pcfg, |_, &wm_mib| {
        let mut cfg = base_config();
        cfg.flush_watermark_bytes = wm_mib * MIB;
        cfg.noise_sd_w = 0.0;
        let mut dev = device_with(cfg, 0);
        run(&mut dev, Workload::RandWrite, 4 * KIB, 1)
    });
    for (wm_mib, r) in watermarks.iter().zip(&results) {
        let peak = r.power.summary().map_or(0.0, |s| s.max());
        println!(
            "   {:>7}MiB {:>10.0} {:>9.2} {:>10.2} {:>10.0}",
            wm_mib,
            r.io.throughput_mibs(),
            r.avg_power_w(),
            peak,
            r.io.p99_latency_us()
        );
    }
    println!();

    println!("== Ablation 4: write amplification (ps0, randwrite QD64, 4 KiB vs 2 MiB) ==");
    println!("   Forcing WAF to 1 lowers 4 KiB random-write power by about 2 W and 2 MiB");
    println!("   by about 0.5 W; throughput is the same in both rows.");
    println!(
        "   {:>12} {:>13} {:>13} {:>11} {:>11}",
        "waf", "4K thr MiB/s", "2M thr MiB/s", "4K avg W", "2M avg W"
    );
    let variants = [("off (1.0)", 1.0, 1.0), ("paper-like", 1.05, 1.6)];
    let results = run_cells(&variants, &pcfg, |_, &(_, waf_min, waf_max)| {
        let mut cfg = base_config();
        cfg.waf_min = waf_min;
        cfg.waf_max = waf_max;
        let mut small_dev = device_with(cfg.clone(), 0);
        let small = run(&mut small_dev, Workload::RandWrite, 4 * KIB, 64);
        let mut large_dev = device_with(cfg, 0);
        let large = run(&mut large_dev, Workload::RandWrite, 2 * MIB, 64);
        (small, large)
    });
    for ((name, _, _), (small, large)) in variants.iter().zip(&results) {
        println!(
            "   {:>12} {:>13.0} {:>13.0} {:>11.2} {:>11.2}",
            name,
            small.io.throughput_mibs(),
            large.io.throughput_mibs(),
            small.avg_power_w(),
            large.avg_power_w()
        );
    }
    cli::finish_tracing(trace);
}
