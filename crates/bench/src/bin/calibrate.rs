//! Calibration harness: prints the paper's anchor numbers next to the
//! simulator's, so device-model constants can be tuned. Every anchor is a
//! cell of the fio grid; all of them are measured once, in one cell table
//! at a 2 s scale.
//!
//! Run with `cargo run --release -p powadapt-bench --bin calibrate`.

use powadapt_bench::figures::{CellTable, Key};
use powadapt_bench::{cli, f2, TABLE1_LABELS};
use powadapt_device::{catalog, GIB, KIB, MIB};
use powadapt_io::SweepScale;
use powadapt_io::Workload::{self, RandRead, RandWrite, SeqRead, SeqWrite};
use powadapt_sim::SimDuration;

/// Table 1's range probes: `(chunk, depth)` under every workload at ps0.
const RANGE_SHAPES: [(u64, usize); 3] = [(4 * KIB, 1), (256 * KIB, 64), (2 * MIB, 64)];

/// Every cell the anchors below read.
fn anchor_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for ps in 0..3 {
        keys.push(Key::new("SSD2", SeqWrite, 2 * MIB, 64, ps));
        keys.push(Key::new("SSD2", SeqRead, 2 * MIB, 64, ps));
    }
    for ps in [0, 2] {
        for chunk in [4 * KIB, 256 * KIB, 2 * MIB] {
            keys.push(Key::new("SSD2", RandWrite, chunk, 1, ps));
        }
        keys.push(Key::new("SSD2", RandRead, 4 * KIB, 1, ps));
    }
    keys.push(Key::new("SSD1", RandWrite, 256 * KIB, 1, 0));
    for label in TABLE1_LABELS {
        keys.push(Key::new(label, RandWrite, 4 * KIB, 64, 0));
        keys.push(Key::new(label, RandRead, 4 * KIB, 64, 0));
        for w in [SeqWrite, SeqRead, RandWrite, RandRead] {
            for (chunk, depth) in RANGE_SHAPES {
                keys.push(Key::new(label, w, chunk, depth, 0));
            }
        }
    }
    keys
}

fn main() {
    let cli = cli::parse("calibrate", &[]);
    let trace = cli.start_tracing();
    let scale = SweepScale {
        runtime: SimDuration::from_secs(2),
        size_limit: 2 * GIB,
        ramp: SimDuration::from_millis(200),
    };
    let table = CellTable::measure(anchor_keys(), scale, 1, &cli.parallel);
    let cell =
        |device, w: Workload, chunk, depth, ps| table.get(Key::new(device, w, chunk, depth, ps));

    for (w, title) in [
        (
            SeqWrite,
            "seq write 2MiB QD64 by power state (paper: ps1=74% ps0, ps2=55% ps0; power <=15.1/12/10)",
        ),
        (
            SeqRead,
            "seq read 2MiB QD64 by power state (paper: minimal drop)",
        ),
    ] {
        println!("== SSD2 {title} ==");
        let ps0_thr = cell("SSD2", w, 2 * MIB, 64, 0).mibs();
        for ps in 0..3u8 {
            let r = cell("SSD2", w, 2 * MIB, 64, ps);
            println!(
                "  ps{ps}: {:.0} MiB/s ({:.0}% of ps0) @ {} W",
                r.mibs(),
                100.0 * r.mibs() / ps0_thr,
                f2(r.avg_power_w)
            );
        }
    }

    println!(
        "== SSD2 randwrite QD1 latency by state (paper: avg up to ~2x, p99 up to ~6.2x at ps2) =="
    );
    for chunk in [4 * KIB, 256 * KIB, 2 * MIB] {
        let (base, r) = (
            cell("SSD2", RandWrite, chunk, 1, 0),
            cell("SSD2", RandWrite, chunk, 1, 2),
        );
        let kib = chunk / KIB;
        println!(
            "  {kib}KiB ps0: avg {:.0} us p99 {:.0} us",
            base.avg_latency_us, base.p99_latency_us
        );
        println!(
            "  {kib}KiB ps2: avg {:.0} us ({:.2}x) p99 {:.0} us ({:.2}x)",
            r.avg_latency_us,
            r.avg_latency_us / base.avg_latency_us,
            r.p99_latency_us,
            r.p99_latency_us / base.p99_latency_us
        );
    }

    println!("== SSD2 randread QD1 latency by state (paper: no difference) ==");
    for ps in [0u8, 2u8] {
        let r = cell("SSD2", RandRead, 4 * KIB, 1, ps);
        println!(
            "  ps{ps}: avg {:.1} us p99 {:.1} us",
            r.avg_latency_us, r.p99_latency_us
        );
    }

    println!("== SSD1 randwrite 256KiB (paper: QD64 = 3.3 GiB/s @ 8.19 W; QD1 ~ -40% thr, -20% power) ==");
    let (qd64, qd1) = (
        cell("SSD1", RandWrite, 256 * KIB, 64, 0),
        cell("SSD1", RandWrite, 256 * KIB, 1, 0),
    );
    let gib = |bps: f64| bps / GIB as f64;
    println!(
        "  QD64: {:.2} GiB/s @ {} W",
        gib(qd64.throughput_bps),
        f2(qd64.avg_power_w)
    );
    println!(
        "  QD1 : {:.2} GiB/s ({:.0}%) @ {} W ({:.0}%)",
        gib(qd1.throughput_bps),
        100.0 * qd1.throughput_bps / qd64.throughput_bps,
        f2(qd1.avg_power_w),
        100.0 * qd1.avg_power_w / qd64.avg_power_w
    );

    // Each row compares cell a with cell b of one workload, at ps0.
    for (title, w, a, b, p) in [
        (
            "Fig 8 anchors: randwrite QD64, 4KiB vs 2MiB (paper: 4K ~30% less power, ~50% less thr)",
            RandWrite,
            (4 * KIB, 64),
            (2 * MIB, 64),
            0,
        ),
        (
            "Fig 9 anchors: randread 4KiB, QD1 vs QD64 (paper: QD1 ~40% less power, can be ~10% of thr)",
            RandRead,
            (4 * KIB, 1),
            (4 * KIB, 64),
            1,
        ),
    ] {
        println!("== {title} ==");
        for label in TABLE1_LABELS {
            let (a, b) = (cell(label, w, a.0, a.1, 0), cell(label, w, b.0, b.1, 0));
            println!(
                "  {label}: thr {:.p$}/{:.p$} MiB/s ({:.0}%), power {}/{} W ({:.0}%)",
                a.mibs(),
                b.mibs(),
                100.0 * a.mibs() / b.mibs(),
                f2(a.avg_power_w),
                f2(b.avg_power_w),
                100.0 * a.avg_power_w / b.avg_power_w,
            );
        }
    }

    println!("== Table 1 ranges (paper: SSD1 3.5-13.5, SSD2 5-15.1, SSD3 1-3.5, HDD 1-5.3) ==");
    for label in TABLE1_LABELS {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for w in [SeqWrite, SeqRead, RandWrite, RandRead] {
            for (chunk, depth) in RANGE_SHAPES {
                if let Some(s) = cell(label, w, chunk, depth, 0).power.summary() {
                    lo = lo.min(s.min());
                    hi = hi.max(s.max());
                }
            }
        }
        // Idle floor: a fresh device drawing no IO.
        let idle = catalog::by_label(label, 1).expect("known label").power_w();
        lo = lo.min(idle);
        println!("  {label}: {lo:.2} - {hi:.2} W (idle {idle:.2})");
    }
    cli::finish_tracing(trace);
}
