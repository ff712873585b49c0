//! Bring-your-own-device measurement session: build a custom SSD from a
//! component spec, calibrate the measurement rig against a known load, and
//! characterize the device exactly as the paper characterizes its drives.
//!
//! Run with: `cargo run --release --example measure_device`

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "examples assert on exact expected values"
)]

use powadapt::device::{
    DeviceClass, DeviceSpec, PowerStateDesc, PowerStateId, Protocol, Ssd, SsdConfig, GIB, KIB,
};
use powadapt::io::{run_experiment, JobSpec, Workload, PAPER_CHUNKS};
use powadapt::meter::MeasurementChain;
use powadapt::model::{pareto_frontier, ConfigPoint, PowerThroughputModel};
use powadapt::sim::units::Micros;
use powadapt::sim::{SimDuration, SimRng};

fn main() {
    // 1. Calibrate a measurement chain against a 10 W reference load, as
    //    the paper's rig is calibrated before a session.
    let mut rng = SimRng::seed_from(2024);
    let mut chain = MeasurementChain::paper_rig(12.0, &mut rng);
    let mut cal_rng = rng.fork();
    chain.calibrate(10.0, 500, &mut cal_rng);
    println!(
        "Rig calibrated: correction factor {:.5} (sub-1% chain error)",
        chain.correction()
    );
    println!();

    // 2. Describe a hypothetical next-gen drive: more dies, faster NAND,
    //    a deeper power-state ladder.
    let spec = DeviceSpec::new(
        "PROTO",
        "Prototype Gen5",
        Protocol::Nvme,
        DeviceClass::Ssd,
        4096 * GIB,
    );
    let cfg = SsdConfig {
        dies: 128,
        interface_bw: 7.0e9,
        program_op: SimDuration::from_micros(400),
        idle_w: 6.0,
        die_prog_w: 0.12,
        die_read_w: 0.06,
        power_states: vec![
            PowerStateDesc::new(PowerStateId(0), 30.0),
            PowerStateDesc::new(PowerStateId(1), 18.0),
            PowerStateDesc::new(PowerStateId(2), 13.0),
            PowerStateDesc::new(PowerStateId(3), 9.0),
        ],
        ..SsdConfig::default()
    };
    println!(
        "Prototype device: {} dies, {:.1} GB/s NAND program bandwidth, {} power states",
        cfg.dies,
        cfg.nand_program_bw() / 1e9,
        cfg.power_states.len()
    );

    // 3. Characterize: randwrite across chunk sizes and states at QD 32.
    let mut points = Vec::new();
    for ps in 0..4u8 {
        for &chunk in &PAPER_CHUNKS {
            let mut dev = Ssd::new(spec.clone(), cfg.clone(), 99);
            powadapt::device::StorageDevice::set_power_state(&mut dev, PowerStateId(ps))
                .expect("state exists");
            let job = JobSpec::new(Workload::RandWrite)
                .block_size(chunk)
                .io_depth(32)
                .runtime(SimDuration::from_millis(400))
                .size_limit(4 * GIB)
                .ramp(SimDuration::from_millis(100))
                .seed(99);
            let r = run_experiment(&mut dev, &job).expect("experiment runs");
            points.push(
                ConfigPoint::new(
                    "PROTO",
                    Workload::RandWrite,
                    PowerStateId(ps),
                    chunk,
                    32,
                    r.avg_power_w(),
                    r.io.throughput_bps(),
                )
                .with_latencies(
                    Micros::new(r.io.avg_latency_us()),
                    Micros::new(r.io.p99_latency_us()),
                ),
            );
        }
    }

    // 4. Model it.
    let model = PowerThroughputModel::from_points("PROTO", points).expect("non-empty sweep");
    println!("{model}");
    println!();
    println!("Pareto frontier (power -> throughput):");
    for p in pareto_frontier(model.points()) {
        println!(
            "  {:>5.2} W -> {:>7.0} MiB/s  (bs={:>4} KiB, {})",
            p.power_w(),
            p.throughput_bps() / (1024.0 * 1024.0),
            p.chunk() / KIB,
            p.power_state()
        );
    }
    println!();
    println!(
        "Power dynamic range of the prototype: {:.1}% of max power",
        100.0 * model.power_dynamic_range()
    );
}
