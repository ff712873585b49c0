//! fio-like job specifications.

use std::fmt;

use powadapt_device::{IoKind, GIB, KIB};
use powadapt_sim::SimDuration;

/// Spatial access pattern of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Consecutive offsets.
    Sequential,
    /// Uniformly random block-aligned offsets.
    Random,
}

/// The four fio `rw=` modes the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// `rw=read` — sequential reads.
    SeqRead,
    /// `rw=write` — sequential writes.
    SeqWrite,
    /// `rw=randread` — random reads.
    RandRead,
    /// `rw=randwrite` — random writes.
    RandWrite,
}

impl Workload {
    /// All four workloads, in the paper's presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::SeqRead,
        Workload::SeqWrite,
        Workload::RandRead,
        Workload::RandWrite,
    ];

    /// The IO direction.
    pub fn kind(self) -> IoKind {
        match self {
            Workload::SeqRead | Workload::RandRead => IoKind::Read,
            Workload::SeqWrite | Workload::RandWrite => IoKind::Write,
        }
    }

    /// The spatial pattern.
    pub fn pattern(self) -> AccessPattern {
        match self {
            Workload::SeqRead | Workload::SeqWrite => AccessPattern::Sequential,
            Workload::RandRead | Workload::RandWrite => AccessPattern::Random,
        }
    }
}

impl fmt::Display for Workload {
    /// The fio `rw=` name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::SeqRead => "read",
            Workload::SeqWrite => "write",
            Workload::RandRead => "randread",
            Workload::RandWrite => "randwrite",
        })
    }
}

/// A microbenchmark job: the parameters of one cell in the paper's sweep.
///
/// The defaults mirror the paper's methodology: asynchronous direct IO,
/// one minute of runtime or 4 GiB of traffic, whichever comes first.
///
/// # Examples
///
/// ```
/// use powadapt_io::{JobSpec, Workload};
/// use powadapt_device::KIB;
///
/// let job = JobSpec::new(Workload::RandWrite)
///     .block_size(256 * KIB)
///     .io_depth(64);
/// assert_eq!(job.block_size_bytes(), 256 * KIB);
/// assert_eq!(job.io_depth_value(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    workload: Workload,
    block_size: u64,
    io_depth: usize,
    runtime: SimDuration,
    size_limit: u64,
    ramp: SimDuration,
    region_start: u64,
    region_len: u64,
    seed: u64,
    read_mix: Option<f64>,
    zipf_theta: Option<f64>,
}

impl JobSpec {
    /// Creates a job with the paper's default parameters: 4 KiB blocks,
    /// queue depth 1, 60 s runtime, 4 GiB size limit, no ramp, an 8 GiB
    /// target region, seed 0.
    pub fn new(workload: Workload) -> Self {
        JobSpec {
            workload,
            block_size: 4 * KIB,
            io_depth: 1,
            runtime: SimDuration::from_secs(60),
            size_limit: 4 * GIB,
            ramp: SimDuration::ZERO,
            region_start: 0,
            region_len: 8 * GIB,
            seed: 0,
            read_mix: None,
            zipf_theta: None,
        }
    }

    /// Sets the IO chunk size in bytes (fio `bs=`).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn block_size(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "block size must be non-zero");
        self.block_size = bytes;
        self
    }

    /// Sets the queue depth (fio `iodepth=`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn io_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be non-zero");
        self.io_depth = depth;
        self
    }

    /// Sets the wall-clock runtime limit (fio `runtime=`).
    pub fn runtime(mut self, runtime: SimDuration) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the total transfer limit (fio `size=`). The experiment stops at
    /// the earlier of runtime and size, like the paper's methodology.
    pub fn size_limit(mut self, bytes: u64) -> Self {
        self.size_limit = bytes;
        self
    }

    /// Sets a warm-up period excluded from statistics (fio `ramp_time=`).
    pub fn ramp(mut self, ramp: SimDuration) -> Self {
        self.ramp = ramp;
        self
    }

    /// Restricts IO to `[start, start + len)` on the device.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn region(mut self, start: u64, len: u64) -> Self {
        assert!(len > 0, "region length must be non-zero");
        self.region_start = start;
        self.region_len = len;
        self
    }

    /// Seeds the offset generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mixes reads and writes (fio `rwmixread=`): each request is a read
    /// with probability `read_fraction`, overriding the workload's
    /// direction. The workload still sets the spatial pattern.
    ///
    /// # Panics
    ///
    /// Panics if `read_fraction` is outside `[0, 1]`.
    pub fn read_mix(mut self, read_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction {read_fraction} out of range"
        );
        self.read_mix = Some(read_fraction);
        self
    }

    /// The workload mode.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Chunk size in bytes.
    pub fn block_size_bytes(&self) -> u64 {
        self.block_size
    }

    /// Queue depth.
    pub fn io_depth_value(&self) -> usize {
        self.io_depth
    }

    /// Runtime limit.
    pub fn runtime_limit(&self) -> SimDuration {
        self.runtime
    }

    /// Transfer size limit in bytes.
    pub fn size_limit_bytes(&self) -> u64 {
        self.size_limit
    }

    /// Warm-up duration.
    pub fn ramp_duration(&self) -> SimDuration {
        self.ramp
    }

    /// Target region as `(start, len)`.
    pub fn region_bounds(&self) -> (u64, u64) {
        (self.region_start, self.region_len)
    }

    /// Offset generator seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The read fraction of a mixed job, if set.
    pub fn read_mix_fraction(&self) -> Option<f64> {
        self.read_mix
    }

    /// Skews random offsets Zipfian (fio `random_distribution=zipf:theta`):
    /// a small set of hot blocks receives most of the IO. Only affects
    /// random workloads.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `(0, 5]`.
    pub fn zipf(mut self, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta <= 5.0,
            "zipf theta {theta} out of range (0, 5]"
        );
        self.zipf_theta = Some(theta);
        self
    }

    /// The Zipf skew, if set.
    pub fn zipf_theta(&self) -> Option<f64> {
        self.zipf_theta
    }

    /// Validates the job against a device capacity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, capacity: u64) -> Result<(), String> {
        if self.block_size > self.region_len {
            return Err(format!(
                "block size {} exceeds region length {}",
                self.block_size, self.region_len
            ));
        }
        if self.region_start + self.region_len > capacity {
            return Err(format!(
                "region end {} exceeds device capacity {capacity}",
                self.region_start + self.region_len
            ));
        }
        if self.runtime.is_zero() && self.size_limit == 0 {
            return Err("job needs a runtime or size limit".into());
        }
        if self.ramp >= self.runtime && !self.runtime.is_zero() {
            return Err("ramp must be shorter than the runtime".into());
        }
        Ok(())
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bs={}KiB qd={}",
            self.workload,
            self.block_size / KIB,
            self.io_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::MIB;

    #[test]
    fn workload_classification() {
        assert_eq!(Workload::SeqRead.kind(), IoKind::Read);
        assert_eq!(Workload::RandWrite.kind(), IoKind::Write);
        assert_eq!(Workload::SeqWrite.pattern(), AccessPattern::Sequential);
        assert_eq!(Workload::RandRead.pattern(), AccessPattern::Random);
        assert_eq!(Workload::RandWrite.to_string(), "randwrite");
        assert_eq!(Workload::ALL.len(), 4);
    }

    #[test]
    fn builder_sets_fields() {
        let j = JobSpec::new(Workload::RandWrite)
            .block_size(MIB)
            .io_depth(64)
            .runtime(SimDuration::from_secs(5))
            .size_limit(GIB)
            .ramp(SimDuration::from_millis(100))
            .region(GIB, 2 * GIB)
            .seed(7);
        assert_eq!(j.block_size_bytes(), MIB);
        assert_eq!(j.io_depth_value(), 64);
        assert_eq!(j.runtime_limit().as_secs_f64(), 5.0);
        assert_eq!(j.size_limit_bytes(), GIB);
        assert_eq!(j.ramp_duration().as_millis(), 100);
        assert_eq!(j.region_bounds(), (GIB, 2 * GIB));
        assert_eq!(j.seed_value(), 7);
    }

    #[test]
    fn defaults_match_paper_methodology() {
        let j = JobSpec::new(Workload::SeqRead);
        assert_eq!(j.runtime_limit().as_secs_f64(), 60.0);
        assert_eq!(j.size_limit_bytes(), 4 * GIB);
    }

    #[test]
    fn validation() {
        let j = JobSpec::new(Workload::SeqRead);
        assert!(j.validate(16 * GIB).is_ok());
        assert!(j.validate(4 * GIB).is_err(), "region exceeds capacity");
        let j = JobSpec::new(Workload::SeqRead)
            .region(0, MIB)
            .block_size(2 * MIB);
        assert!(j.validate(16 * GIB).is_err(), "block larger than region");
        let j = JobSpec::new(Workload::SeqRead)
            .runtime(SimDuration::from_secs(1))
            .ramp(SimDuration::from_secs(2));
        assert!(j.validate(16 * GIB).is_err(), "ramp longer than runtime");
    }

    #[test]
    fn display_format() {
        let j = JobSpec::new(Workload::RandRead)
            .block_size(256 * KIB)
            .io_depth(32);
        assert_eq!(j.to_string(), "randread bs=256KiB qd=32");
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        let _ = JobSpec::new(Workload::SeqRead).block_size(0);
    }
}
