//! Calibration harness: prints the paper's anchor numbers next to the
//! simulator's, so device-model constants can be tuned.
//!
//! Run with `cargo run --release -p powadapt-bench --bin calibrate`.

#![allow(
    clippy::unwrap_used,
    reason = "an interactive operator tool: panicking on a broken pipe or a missing catalog entry is the desired behavior"
)]

use powadapt_bench::{cli, f2};
use powadapt_device::{catalog, PowerStateId, KIB, MIB};
use powadapt_io::{run_fresh, JobSpec, SweepScale, Workload};
use powadapt_sim::SimDuration;

fn scale() -> SweepScale {
    SweepScale {
        runtime: SimDuration::from_secs(2),
        size_limit: 2 * powadapt_device::GIB,
        ramp: SimDuration::from_millis(200),
    }
}

fn job(w: Workload, chunk: u64, depth: usize) -> JobSpec {
    let s = scale();
    JobSpec::new(w)
        .block_size(chunk)
        .io_depth(depth)
        .runtime(s.runtime)
        .size_limit(s.size_limit)
        .ramp(s.ramp)
        .seed(11)
}

fn main() {
    let cli = cli::parse("calibrate", &[]);
    let trace = cli.start_tracing();
    println!("== SSD2 seq write 2MiB QD64 by power state (paper: ps1=74% ps0, ps2=55% ps0; power <=15.1/12/10) ==");
    let mut ps0_thr = 0.0;
    for ps in 0..3u8 {
        let r = run_fresh(
            || Box::new(catalog::ssd2_d7_p5510(1)),
            PowerStateId(ps),
            &job(Workload::SeqWrite, 2 * MIB, 64),
        )
        .unwrap();
        if ps == 0 {
            ps0_thr = r.io.throughput_mibs();
        }
        println!(
            "  ps{ps}: {:.0} MiB/s ({:.0}% of ps0) @ {} W",
            r.io.throughput_mibs(),
            100.0 * r.io.throughput_mibs() / ps0_thr,
            f2(r.avg_power_w())
        );
    }

    println!("== SSD2 seq read 2MiB QD64 by power state (paper: minimal drop) ==");
    let mut ps0_thr = 0.0;
    for ps in 0..3u8 {
        let r = run_fresh(
            || Box::new(catalog::ssd2_d7_p5510(1)),
            PowerStateId(ps),
            &job(Workload::SeqRead, 2 * MIB, 64),
        )
        .unwrap();
        if ps == 0 {
            ps0_thr = r.io.throughput_mibs();
        }
        println!(
            "  ps{ps}: {:.0} MiB/s ({:.0}% of ps0) @ {} W",
            r.io.throughput_mibs(),
            100.0 * r.io.throughput_mibs() / ps0_thr,
            f2(r.avg_power_w())
        );
    }

    println!(
        "== SSD2 randwrite QD1 latency by state (paper: avg up to ~2x, p99 up to ~6.2x at ps2) =="
    );
    for chunk in [4 * KIB, 256 * KIB, 2 * MIB] {
        let mut base = (0.0, 0.0);
        for ps in [0u8, 2u8] {
            let r = run_fresh(
                || Box::new(catalog::ssd2_d7_p5510(1)),
                PowerStateId(ps),
                &job(Workload::RandWrite, chunk, 1),
            )
            .unwrap();
            let (avg, p99) = (r.io.avg_latency_us(), r.io.p99_latency_us());
            if ps == 0 {
                base = (avg, p99);
                println!(
                    "  {}KiB ps0: avg {:.0} us p99 {:.0} us",
                    chunk / KIB,
                    avg,
                    p99
                );
            } else {
                println!(
                    "  {}KiB ps2: avg {:.0} us ({:.2}x) p99 {:.0} us ({:.2}x)",
                    chunk / KIB,
                    avg,
                    avg / base.0,
                    p99,
                    p99 / base.1
                );
            }
        }
    }

    println!("== SSD2 randread QD1 latency by state (paper: no difference) ==");
    for ps in [0u8, 2u8] {
        let r = run_fresh(
            || Box::new(catalog::ssd2_d7_p5510(1)),
            PowerStateId(ps),
            &job(Workload::RandRead, 4 * KIB, 1),
        )
        .unwrap();
        println!(
            "  ps{ps}: avg {:.1} us p99 {:.1} us",
            r.io.avg_latency_us(),
            r.io.p99_latency_us()
        );
    }

    println!("== SSD1 randwrite 256KiB (paper: QD64 = 3.3 GiB/s @ 8.19 W; QD1 ~ -40% thr, -20% power) ==");
    let mut qd64 = (0.0, 0.0);
    for depth in [64usize, 1] {
        let r = run_fresh(
            || Box::new(catalog::ssd1_pm9a3(1)),
            PowerStateId(0),
            &job(Workload::RandWrite, 256 * KIB, depth),
        )
        .unwrap();
        let gib = r.io.throughput_bps() / (1024.0 * 1024.0 * 1024.0);
        if depth == 64 {
            qd64 = (gib, r.avg_power_w());
            println!("  QD64: {gib:.2} GiB/s @ {} W", f2(r.avg_power_w()));
        } else {
            println!(
                "  QD1 : {gib:.2} GiB/s ({:.0}%) @ {} W ({:.0}%)",
                100.0 * gib / qd64.0,
                f2(r.avg_power_w()),
                100.0 * r.avg_power_w() / qd64.1
            );
        }
    }

    println!("== Fig 8 anchors: randwrite QD64, 4KiB vs 2MiB (paper: 4K ~30% less power, ~50% less thr) ==");
    for label in ["SSD1", "SSD2", "SSD3", "HDD"] {
        let run = |chunk: u64| {
            run_fresh(
                || catalog::by_label(label, 1).unwrap(),
                PowerStateId(0),
                &job(Workload::RandWrite, chunk, 64),
            )
            .unwrap()
        };
        let small = run(4 * KIB);
        let large = run(2 * MIB);
        println!(
            "  {label}: thr {:.0}/{:.0} MiB/s ({:.0}%), power {}/{} W ({:.0}%)",
            small.io.throughput_mibs(),
            large.io.throughput_mibs(),
            100.0 * small.io.throughput_mibs() / large.io.throughput_mibs(),
            f2(small.avg_power_w()),
            f2(large.avg_power_w()),
            100.0 * small.avg_power_w() / large.avg_power_w(),
        );
    }

    println!("== Fig 9 anchors: randread 4KiB, QD1 vs QD64 (paper: QD1 ~40% less power, can be ~10% of thr) ==");
    for label in ["SSD1", "SSD2", "SSD3", "HDD"] {
        let run = |depth: usize| {
            run_fresh(
                || catalog::by_label(label, 1).unwrap(),
                PowerStateId(0),
                &job(Workload::RandRead, 4 * KIB, depth),
            )
            .unwrap()
        };
        let qd1 = run(1);
        let qd64 = run(64);
        println!(
            "  {label}: thr {:.1}/{:.1} MiB/s ({:.0}%), power {}/{} W ({:.0}%)",
            qd1.io.throughput_mibs(),
            qd64.io.throughput_mibs(),
            100.0 * qd1.io.throughput_mibs() / qd64.io.throughput_mibs(),
            f2(qd1.avg_power_w()),
            f2(qd64.avg_power_w()),
            100.0 * qd1.avg_power_w() / qd64.avg_power_w(),
        );
    }

    println!("== Table 1 ranges (paper: SSD1 3.5-13.5, SSD2 5-15.1, SSD3 1-3.5, HDD 1-5.3) ==");
    for label in ["SSD1", "SSD2", "SSD3", "HDD"] {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for w in [
            Workload::SeqWrite,
            Workload::SeqRead,
            Workload::RandWrite,
            Workload::RandRead,
        ] {
            for (chunk, depth) in [(4 * KIB, 1), (256 * KIB, 64), (2 * MIB, 64)] {
                let r = run_fresh(
                    || catalog::by_label(label, 1).unwrap(),
                    PowerStateId(0),
                    &job(w, chunk, depth),
                )
                .unwrap();
                if let Some(s) = r.power.summary() {
                    lo = lo.min(s.min());
                    hi = hi.max(s.max());
                }
            }
        }
        // Idle floor: a fresh device drawing no IO.
        let idle = catalog::by_label(label, 1).unwrap().power_w();
        lo = lo.min(idle);
        println!("  {label}: {lo:.2} - {hi:.2} W (idle {idle:.2})");
    }
    cli::finish_tracing(trace);
}
