//! The experiment runner: one device + one measurement rig + one job in a
//! single deterministic event loop.

use std::error::Error;
use std::fmt;

use powadapt_device::{
    DeviceError, IoId, IoKind, IoRequest, PowerStateId, Protocol, StorageDevice,
};
use powadapt_meter::{PowerRig, PowerTrace};
use powadapt_sim::{SimRng, SimTime, Zipf};

use crate::job::{AccessPattern, JobSpec};
use crate::stats::{InvertedWindow, IoStats};

/// Errors from running an experiment.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The job is inconsistent with the device (see [`JobSpec::validate`]).
    InvalidJob(String),
    /// The device rejected a request or control operation.
    Device(DeviceError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            ExperimentError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Device(e) => Some(e),
            ExperimentError::InvalidJob(_) => None,
        }
    }
}

impl From<DeviceError> for ExperimentError {
    fn from(e: DeviceError) -> Self {
        ExperimentError::Device(e)
    }
}

impl From<InvertedWindow> for ExperimentError {
    fn from(e: InvertedWindow) -> Self {
        ExperimentError::InvalidJob(e.to_string())
    }
}

/// Outcome of one experiment: IO statistics plus the recorded power trace,
/// both restricted to the post-ramp measurement window.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Paper label of the device ("SSD1", ...).
    pub device_label: String,
    /// Power state the device ran in.
    pub power_state: PowerStateId,
    /// The job that was run.
    pub job: JobSpec,
    /// IO statistics over the measurement window.
    pub io: IoStats,
    /// Read-only statistics over the window (equals `io` for pure reads).
    pub reads: IoStats,
    /// Write-only statistics over the window (equals `io` for pure writes).
    pub writes: IoStats,
    /// Power trace over the measurement window.
    pub power: PowerTrace,
}

impl ExperimentResult {
    /// Mean measured power over the window, in watts (0 if no samples).
    pub fn avg_power_w(&self) -> f64 {
        if self.power.is_empty() {
            0.0
        } else {
            self.power.mean()
        }
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}: {:.1} MiB/s @ {:.2} W",
            self.device_label,
            self.power_state,
            self.job,
            self.io.throughput_mibs(),
            self.avg_power_w()
        )
    }
}

/// Generates request offsets per the job's access pattern.
#[derive(Debug)]
struct OffsetGen {
    pattern: AccessPattern,
    block: u64,
    region_start: u64,
    blocks: u64,
    cursor: u64,
    zipf: Option<Zipf>,
    rng: SimRng,
}

impl OffsetGen {
    fn new(job: &JobSpec, rng: SimRng) -> Self {
        let (start, len) = job.region_bounds();
        let block = job.block_size_bytes();
        let blocks = (len / block).max(1);
        OffsetGen {
            pattern: job.workload().pattern(),
            block,
            region_start: start,
            blocks,
            cursor: 0,
            zipf: job.zipf_theta().map(|theta| Zipf::new(blocks, theta)),
            rng,
        }
    }

    fn next_offset(&mut self) -> u64 {
        match self.pattern {
            AccessPattern::Sequential => {
                let off = self.region_start + self.cursor * self.block;
                self.cursor = (self.cursor + 1) % self.blocks;
                off
            }
            AccessPattern::Random => {
                let idx = match &self.zipf {
                    // Scramble ranks so hot blocks spread over the address
                    // space instead of clustering at the region head.
                    Some(z) => scramble(z.sample(&mut self.rng), self.blocks),
                    None => self.rng.u64_range(0, self.blocks),
                };
                self.region_start + idx * self.block
            }
        }
    }
}

/// Deterministic rank -> block permutation (multiplicative hash, then
/// reduced into the domain).
fn scramble(rank: u64, blocks: u64) -> u64 {
    rank.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31) % blocks
}

/// Runs `job` against `device`, metering power with the paper's rig.
///
/// The loop keeps `io_depth` requests in flight, stops issuing at the
/// earlier of the runtime and size limits (the paper's stopping rule),
/// drains outstanding IO, and samples device power at 1 kHz throughout.
/// Statistics and the returned trace cover only the post-ramp window.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidJob`] if the job does not fit the
/// device, or [`ExperimentError::Device`] if a request is rejected.
///
/// # Examples
///
/// ```
/// use powadapt_device::{catalog, KIB};
/// use powadapt_io::{run_experiment, JobSpec, Workload};
/// use powadapt_sim::SimDuration;
///
/// let mut dev = catalog::ssd2_d7_p5510(1);
/// let job = JobSpec::new(Workload::RandRead)
///     .block_size(4 * KIB)
///     .io_depth(8)
///     .runtime(SimDuration::from_millis(50))
///     .size_limit(4 * 1024 * KIB);
/// let result = run_experiment(&mut dev, &job)?;
/// assert!(result.io.ios() > 0);
/// assert!(result.avg_power_w() > 0.0);
/// # Ok::<(), powadapt_io::ExperimentError>(())
/// ```
pub fn run_experiment(
    device: &mut dyn StorageDevice,
    job: &JobSpec,
) -> Result<ExperimentResult, ExperimentError> {
    job.validate(device.spec().capacity())
        .map_err(ExperimentError::InvalidJob)?;

    let start = device.now();
    let deadline = start + job.runtime_limit();
    let measure_from = start + job.ramp_duration();

    let mut rng = SimRng::seed_from(job.seed_value() ^ 0x9e37_79b9_7f4a_7c15);
    let bus_v = match device.spec().protocol() {
        Protocol::Nvme => 12.0,
        Protocol::Sata => 5.0,
    };
    let mut rig_rng = rng.fork();
    let mut rig = PowerRig::paper_rig(bus_v, &mut rig_rng);
    rig.restart_at(start);

    let mut offsets = OffsetGen::new(job, rng.fork());
    let mut kind_rng = rng.fork();
    let mut next_id = 0u64;
    let mut issued_bytes = 0u64;
    let mut completions = Vec::new();
    let block = job.block_size_bytes();
    let depth = job.io_depth_value();
    let base_kind = job.workload().kind();
    let read_mix = job.read_mix_fraction();
    let next_kind = move |rng: &mut SimRng| -> IoKind {
        match read_mix {
            Some(f) => {
                if rng.chance(f) {
                    IoKind::Read
                } else {
                    IoKind::Write
                }
            }
            None => base_kind,
        }
    };

    let can_issue = |issued: u64, now: SimTime| -> bool {
        issued + block <= job.size_limit_bytes() && now < deadline
    };

    // Prime the queue.
    while device.inflight() < depth && can_issue(issued_bytes, device.now()) {
        let kind = next_kind(&mut kind_rng);
        let req = IoRequest::new(IoId(next_id), kind, offsets.next_offset(), block);
        device.submit(req)?;
        next_id += 1;
        issued_bytes += block;
    }

    let mut done = device.inflight() == 0 && !can_issue(issued_bytes, device.now());
    while !done {
        // Between completions nothing is submitted and nothing changes
        // what can be, so the device steps on alone up to the next
        // completion or meter sample. Completions append straight into
        // the result buffer: no per-step vector allocation.
        let sample_t = rig.next_sample();
        let t = device.advance_until_completion(sample_t, &mut completions);

        while device.inflight() < depth && can_issue(issued_bytes, device.now()) {
            let kind = next_kind(&mut kind_rng);
            let req = IoRequest::new(IoId(next_id), kind, offsets.next_offset(), block);
            device.submit(req)?;
            next_id += 1;
            issued_bytes += block;
        }

        if t == sample_t {
            rig.sample(t, device.power_w());
        }

        done = device.inflight() == 0 && !can_issue(issued_bytes, device.now());
    }

    let end = device.now().max(measure_from);
    let io = IoStats::from_completions(&completions, measure_from, end)?;
    // A pure job's kind statistics are `io` and an empty window; only a
    // mixed job summarizes each kind on its own.
    let of_kind = |kind: IoKind| -> Result<IoStats, InvertedWindow> {
        if completions.iter().all(|c| c.kind == kind) {
            Ok(io.clone())
        } else if completions.iter().all(|c| c.kind != kind) {
            IoStats::from_completions(&[], measure_from, end)
        } else {
            let some: Vec<_> = completions
                .iter()
                .filter(|c| c.kind == kind)
                .copied()
                .collect();
            IoStats::from_completions(&some, measure_from, end)
        }
    };
    let reads = of_kind(IoKind::Read)?;
    let writes = of_kind(IoKind::Write)?;
    let power = rig.into_trace().between(measure_from, end);

    Ok(ExperimentResult {
        device_label: device.spec().label().to_string(),
        power_state: device.power_state(),
        job: job.clone(),
        io,
        reads,
        writes,
        power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;
    use powadapt_device::{catalog, KIB, MIB};
    use powadapt_sim::SimDuration;

    fn quick_job(w: Workload) -> JobSpec {
        JobSpec::new(w)
            .block_size(64 * KIB)
            .io_depth(8)
            .runtime(SimDuration::from_millis(100))
            .size_limit(64 * MIB)
            .seed(3)
    }

    #[test]
    fn runs_random_reads_and_collects_stats() {
        let mut dev = catalog::ssd2_d7_p5510(1);
        let r = run_experiment(&mut dev, &quick_job(Workload::RandRead)).unwrap();
        assert!(r.io.ios() > 10);
        assert!(r.io.throughput_mibs() > 1.0);
        assert!(r.io.avg_latency_us() > 0.0);
        assert!(!r.power.is_empty());
        assert!(r.avg_power_w() > 4.0, "above idle-ish: {}", r.avg_power_w());
        assert_eq!(r.device_label, "SSD2");
    }

    #[test]
    fn size_limit_stops_the_experiment() {
        let mut dev = catalog::ssd2_d7_p5510(1);
        let job = JobSpec::new(Workload::SeqRead)
            .block_size(MIB)
            .io_depth(4)
            .runtime(SimDuration::from_secs(60))
            .size_limit(16 * MIB);
        let r = run_experiment(&mut dev, &job).unwrap();
        assert_eq!(r.io.bytes(), 16 * MIB);
        assert!(dev.now().as_secs_f64() < 1.0, "finished by size, not time");
    }

    #[test]
    fn runtime_limit_stops_the_experiment() {
        let mut dev = catalog::hdd_exos_7e2000(1);
        let job = JobSpec::new(Workload::RandRead)
            .block_size(4 * KIB)
            .io_depth(1)
            .runtime(SimDuration::from_millis(200))
            .size_limit(4 * powadapt_device::GIB);
        let r = run_experiment(&mut dev, &job).unwrap();
        // An HDD can only do a handful of random reads in 200 ms.
        assert!(r.io.ios() < 100, "{}", r.io.ios());
        assert!(dev.now().as_secs_f64() < 0.5);
    }

    #[test]
    fn ramp_excludes_warmup_from_stats() {
        let mut dev = catalog::ssd2_d7_p5510(1);
        let job = quick_job(Workload::RandRead).ramp(SimDuration::from_millis(50));
        let r = run_experiment(&mut dev, &job).unwrap();
        // The trace starts at the ramp boundary.
        assert_eq!(r.power.start(), SimTime::from_millis(50));
    }

    #[test]
    fn sequential_wraps_within_region() {
        let mut dev = catalog::ssd3_d3_p4510(1);
        let job = JobSpec::new(Workload::SeqRead)
            .block_size(MIB)
            .io_depth(2)
            .region(0, 4 * MIB)
            .runtime(SimDuration::from_millis(50))
            .size_limit(32 * MIB);
        // Would fail with OutOfRange if wrapping were broken.
        let r = run_experiment(&mut dev, &job).unwrap();
        assert!(r.io.ios() > 4);
    }

    #[test]
    fn invalid_job_is_rejected() {
        let mut dev = catalog::ssd2_d7_p5510(1);
        let job = JobSpec::new(Workload::SeqRead).region(0, 100_000 * powadapt_device::GIB);
        assert!(matches!(
            run_experiment(&mut dev, &job),
            Err(ExperimentError::InvalidJob(_))
        ));
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut dev = catalog::ssd1_pm9a3(5);
            let r = run_experiment(&mut dev, &quick_job(Workload::RandWrite)).unwrap();
            (r.io.ios(), r.io.bytes(), r.power.len(), r.avg_power_w())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert!((a.3 - b.3).abs() < 1e-12);
    }

    #[test]
    fn writes_draw_more_power_than_reads() {
        let read = {
            let mut dev = catalog::ssd2_d7_p5510(1);
            run_experiment(&mut dev, &quick_job(Workload::SeqRead)).unwrap()
        };
        let write = {
            let mut dev = catalog::ssd2_d7_p5510(1);
            run_experiment(&mut dev, &quick_job(Workload::SeqWrite)).unwrap()
        };
        assert!(
            write.avg_power_w() > read.avg_power_w(),
            "write {} W vs read {} W",
            write.avg_power_w(),
            read.avg_power_w()
        );
    }

    #[test]
    fn mixed_workload_produces_both_kinds_in_proportion() {
        let mut dev = catalog::ssd2_d7_p5510(1);
        let job = quick_job(Workload::RandWrite).read_mix(0.7).seed(9);
        let r = run_experiment(&mut dev, &job).unwrap();
        let (reads, writes) = (r.reads.ios(), r.writes.ios());
        assert_eq!(reads + writes, r.io.ios());
        assert!(reads > 0 && writes > 0);
        let frac = reads as f64 / r.io.ios() as f64;
        assert!((frac - 0.7).abs() < 0.1, "read fraction {frac}");
    }

    #[test]
    fn mixed_power_sits_between_pure_read_and_pure_write() {
        let run_mix = |mix: Option<f64>| {
            let mut dev = catalog::ssd2_d7_p5510(1);
            let mut job = JobSpec::new(Workload::RandWrite)
                .block_size(MIB)
                .io_depth(32)
                .runtime(SimDuration::from_millis(300))
                .size_limit(powadapt_device::GIB)
                .ramp(SimDuration::from_millis(60))
                .seed(4);
            if let Some(f) = mix {
                job = job.read_mix(f);
            }
            run_experiment(&mut dev, &job).unwrap().avg_power_w()
        };
        let pure_write = run_mix(None);
        let pure_read = run_mix(Some(1.0));
        let half = run_mix(Some(0.5));
        assert!(
            pure_read < half && half < pure_write,
            "expected {pure_read} < {half} < {pure_write}"
        );
    }

    #[test]
    fn pure_jobs_have_empty_opposite_kind_stats() {
        let mut dev = catalog::ssd2_d7_p5510(1);
        let r = run_experiment(&mut dev, &quick_job(Workload::RandRead)).unwrap();
        assert_eq!(r.writes.ios(), 0);
        assert_eq!(r.reads.ios(), r.io.ios());
    }

    #[test]
    fn zipf_skew_concentrates_io_on_a_hot_set() {
        // With a heavy Zipf skew over a small region, the SSD's page cache
        // absorbs most reads, so latency drops versus uniform random.
        let run = |zipf: Option<f64>| {
            let mut dev = catalog::ssd2_d7_p5510(3);
            let mut job = JobSpec::new(Workload::RandRead)
                .block_size(4 * KIB)
                .io_depth(1)
                .region(0, 16 * MIB)
                .runtime(SimDuration::from_millis(150))
                .size_limit(powadapt_device::GIB)
                .seed(3);
            if let Some(t) = zipf {
                job = job.zipf(t);
            }
            run_experiment(&mut dev, &job).unwrap().io.avg_latency_us()
        };
        let uniform = run(None);
        let skewed = run(Some(1.2));
        assert!(
            skewed < uniform * 0.8,
            "hot-set reads should be visibly faster: zipf {skewed} vs uniform {uniform}"
        );
    }

    #[test]
    fn result_display_is_informative() {
        let mut dev = catalog::ssd2_d7_p5510(1);
        let r = run_experiment(&mut dev, &quick_job(Workload::RandRead)).unwrap();
        let s = r.to_string();
        assert!(s.contains("SSD2") && s.contains("MiB/s"));
    }
}
