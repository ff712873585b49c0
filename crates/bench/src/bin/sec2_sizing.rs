//! The paper's §2 sizing example, measured: "in a storage server with 16
//! SSDs, each SSD can have an idle power of 5 W and an active power of
//! 23 W (e.g., the Samsung PM1743). The total idle storage device power is
//! 80 W and the active power can be up to 368 W." — plus what the 9 W cap
//! does to that range.
//!
//! Run with: `cargo run --release -p powadapt-bench --bin sec2_sizing`

use powadapt_bench::cli;
use powadapt_device::{catalog, PowerStateId, StorageDevice, GIB, KIB, MIB};
use powadapt_io::{run_cells, run_experiment, JobSpec, Workload};
use powadapt_sim::{SimDuration, SimRng};

const N: usize = 16;

fn fleet_power<F: Fn(usize) -> f64>(per_device: F) -> f64 {
    (0..N).map(per_device).sum()
}

fn measure(ps: u8, w: Workload) -> (f64, f64) {
    // One representative device measured; the fleet sums 16 of them
    // (devices are independent under identical workloads).
    let mut dev = catalog::pm1743(7);
    dev.set_power_state(PowerStateId(ps)).expect("state exists");
    let job = JobSpec::new(w)
        .block_size(MIB)
        .io_depth(64)
        .runtime(SimDuration::from_millis(800))
        .size_limit(8 * GIB)
        .ramp(SimDuration::from_millis(150))
        .seed(7);
    let r = run_experiment(&mut dev, &job).expect("experiment runs");
    (r.avg_power_w(), r.io.throughput_bps() / 1e9)
}

fn main() {
    let cli = cli::parse("sec2_sizing", &[]);
    let trace = cli.start_tracing();
    println!("Sec. 2 sizing example: a 16x Samsung PM1743 storage server, measured.");
    println!();

    // The three workload measurements are independent; fan them across the
    // configured workers (each is deterministic, so the printed numbers do
    // not depend on the worker count).
    let workloads = [
        (0u8, Workload::SeqRead),
        (0, Workload::SeqWrite),
        (2, Workload::SeqWrite),
    ];
    let measured = run_cells(&workloads, &cli.parallel, |_, &(ps, w)| measure(ps, w));

    // Idle: meter one idle device precisely.
    let mut dev = catalog::pm1743(7);
    let mut rng = SimRng::seed_from(7);
    let mut rig = powadapt_meter::PowerRig::paper_rig(12.0, &mut rng);
    for _ in 0..500 {
        let t = rig.next_sample();
        dev.advance_to(t);
        rig.sample(t, dev.power_w());
    }
    let idle = rig.trace().mean();
    println!(
        "  idle:   {idle:5.2} W/device -> fleet {:6.1} W   (paper: 5 W -> 80 W)",
        fleet_power(|_| idle)
    );

    let (read_w, read_gbps) = measured[0];
    println!(
        "  reads:  {read_w:5.2} W/device -> fleet {:6.1} W at {read_gbps:.1} GB/s each (paper: 23 W -> 368 W)",
        fleet_power(|_| read_w)
    );

    let (write_w, write_gbps) = measured[1];
    println!(
        "  writes: {write_w:5.2} W/device -> fleet {:6.1} W at {write_gbps:.1} GB/s each (paper: 21.1 W typical)",
        fleet_power(|_| write_w)
    );

    let (capped_w, capped_gbps) = measured[2];
    println!(
        "  capped: {capped_w:5.2} W/device -> fleet {:6.1} W at {capped_gbps:.1} GB/s each (paper: 9 W cap, ~40% of max, 1.8x idle)",
        fleet_power(|_| capped_w)
    );
    println!();

    let range = fleet_power(|_| read_w.max(write_w)) - fleet_power(|_| idle);
    println!("  fleet dynamic range without any control: {range:.0} W — \"comparable with the");
    println!("  power dynamic range of the host server without storage devices\" (Sec. 2).");
    println!(
        "  the 9 W cap alone shrinks the fleet write ceiling by {:.0} W ({:.0}%).",
        fleet_power(|_| write_w) - fleet_power(|_| capped_w),
        100.0 * (1.0 - capped_w / write_w)
    );

    // A tiny 4 KiB sanity row so the binary exercises reads too.
    let mut dev = catalog::pm1743(7);
    let job = JobSpec::new(Workload::RandRead)
        .block_size(4 * KIB)
        .io_depth(32)
        .runtime(SimDuration::from_millis(200))
        .size_limit(GIB)
        .seed(7);
    let r = run_experiment(&mut dev, &job).expect("runs");
    println!();
    println!(
        "  (randread 4 KiB QD32: {:.0} kIOPS at {:.1} W — the small-IO end of the model)",
        r.io.iops() / 1e3,
        r.avg_power_w()
    );
    cli::finish_tracing(trace);
}
