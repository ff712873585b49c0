//! Parameter sweeps over chunk sizes, queue depths, workloads, and power
//! states — the cross-product behind the paper's figures.

use powadapt_device::{PowerStateId, StorageDevice, KIB};
use powadapt_sim::{SimDuration, SimRng};

use crate::job::{JobSpec, Workload};
use crate::parallel::{run_cells, ParallelConfig};
use crate::runner::{run_experiment, ExperimentError, ExperimentResult};

/// The paper's six chunk sizes, 4 KiB – 2 MiB.
pub const PAPER_CHUNKS: [u64; 6] = [
    4 * KIB,
    16 * KIB,
    64 * KIB,
    256 * KIB,
    1024 * KIB,
    2048 * KIB,
];

/// The paper's six IO depths, 1 – 128.
pub const PAPER_DEPTHS: [usize; 6] = [1, 2, 4, 16, 64, 128];

/// One point of a sweep: the swept coordinates plus the experiment result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Workload mode.
    pub workload: Workload,
    /// Chunk size in bytes.
    pub chunk: u64,
    /// Queue depth.
    pub depth: usize,
    /// Device power state.
    pub power_state: PowerStateId,
    /// The measured result.
    pub result: ExperimentResult,
}

/// Runs one job on a freshly built device in the given power state.
///
/// Using a fresh device per point mirrors the paper's per-experiment reset
/// and keeps points independent.
///
/// # Errors
///
/// Propagates [`ExperimentError`] from the runner or power-state selection.
pub fn run_fresh<F>(
    factory: F,
    power_state: PowerStateId,
    job: &JobSpec,
) -> Result<ExperimentResult, ExperimentError>
where
    F: FnOnce() -> Box<dyn StorageDevice>,
{
    let mut device = factory();
    device.set_power_state(power_state)?;
    run_experiment(device.as_mut(), job)
}

/// Sweep durations trimmed for interactive use; the bench harness overrides
/// these with the paper's full 60 s / 4 GiB rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepScale {
    /// Runtime limit per point.
    pub runtime: SimDuration,
    /// Size limit per point in bytes.
    pub size_limit: u64,
    /// Warm-up excluded from statistics.
    pub ramp: SimDuration,
}

impl SweepScale {
    /// The paper's methodology: 60 s or 4 GiB, whichever first.
    pub fn paper() -> Self {
        SweepScale {
            runtime: SimDuration::from_secs(60),
            size_limit: 4 * powadapt_device::GIB,
            ramp: SimDuration::from_millis(200),
        }
    }

    /// A fast scale for tests and smoke runs (shape-preserving: long enough
    /// to reach steady state on the simulated devices, and sized so the
    /// runtime — not the transfer cap — ends the experiment; otherwise fast
    /// cells measure mostly their queue-drain tail).
    pub fn quick() -> Self {
        SweepScale {
            runtime: SimDuration::from_millis(1000),
            size_limit: 4 * powadapt_device::GIB,
            ramp: SimDuration::from_millis(150),
        }
    }

    fn apply(&self, job: JobSpec) -> JobSpec {
        job.runtime(self.runtime)
            .size_limit(self.size_limit)
            .ramp(self.ramp)
    }
}

/// One cell of a sweep's cross-product: the swept coordinates plus the
/// stable index that seeds the cell's random streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Position of this cell in the sweep's enumeration order. The cell's
    /// job seed is `SimRng::stream_seed(root_seed, index)`, making every
    /// cell's randomness independent of which worker runs it and when.
    pub index: u64,
    /// Workload mode.
    pub workload: Workload,
    /// Chunk size in bytes.
    pub chunk: u64,
    /// Queue depth.
    pub depth: usize,
    /// Device power state.
    pub power_state: PowerStateId,
}

/// Enumerates the cross-product `workloads × chunks × depths ×
/// power_states` in canonical (row-major) order with stable indices.
pub fn enumerate_cells(
    workloads: &[Workload],
    chunks: &[u64],
    depths: &[usize],
    power_states: &[PowerStateId],
) -> Vec<SweepCell> {
    let mut cells =
        Vec::with_capacity(workloads.len() * chunks.len() * depths.len() * power_states.len());
    for &workload in workloads {
        for &chunk in chunks {
            for &depth in depths {
                for &ps in power_states {
                    cells.push(SweepCell {
                        index: cells.len() as u64,
                        workload,
                        chunk,
                        depth,
                        power_state: ps,
                    });
                }
            }
        }
    }
    cells
}

/// Runs the full cross-product of `workloads × chunks × depths ×
/// power_states` on fresh devices from `factory`, fanning the cells across
/// the workers of `cfg`.
///
/// Each cell's randomness is seeded from `(seed, cell index)` via
/// [`SimRng::stream_seed`], so the returned points are bit-identical for
/// every worker count.
///
/// # Errors
///
/// Returns the first experiment failure in cell order. (Under parallel
/// execution later cells may also have run; their results are discarded so
/// the observable outcome matches a sequential sweep.)
#[allow(clippy::too_many_arguments)]
pub fn full_sweep_with<F>(
    factory: F,
    workloads: &[Workload],
    chunks: &[u64],
    depths: &[usize],
    power_states: &[PowerStateId],
    scale: SweepScale,
    seed: u64,
    cfg: &ParallelConfig,
) -> Result<Vec<SweepPoint>, ExperimentError>
where
    F: Fn() -> Box<dyn StorageDevice> + Sync,
{
    let cells = enumerate_cells(workloads, chunks, depths, power_states);
    let results = run_cells(&cells, cfg, |_, cell| {
        let job = scale.apply(
            JobSpec::new(cell.workload)
                .block_size(cell.chunk)
                .io_depth(cell.depth)
                .seed(SimRng::stream_seed(seed, cell.index)),
        );
        run_fresh(&factory, cell.power_state, &job).map(|result| SweepPoint {
            workload: cell.workload,
            chunk: cell.chunk,
            depth: cell.depth,
            power_state: cell.power_state,
            result,
        })
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_device::catalog;

    fn ssd2_factory() -> Box<dyn StorageDevice> {
        Box::new(catalog::ssd2_d7_p5510(17))
    }

    #[test]
    fn paper_constants_match_methodology() {
        assert_eq!(PAPER_CHUNKS.len(), 6);
        assert_eq!(PAPER_CHUNKS[0], 4 * KIB);
        assert_eq!(*PAPER_CHUNKS.last().unwrap(), 2048 * KIB);
        assert_eq!(PAPER_DEPTHS.len(), 6);
        assert_eq!(PAPER_DEPTHS[0], 1);
        assert_eq!(*PAPER_DEPTHS.last().unwrap(), 128);
        let p = SweepScale::paper();
        assert_eq!(p.runtime.as_secs_f64(), 60.0);
        assert_eq!(p.size_limit, 4 * powadapt_device::GIB);
    }

    #[test]
    fn run_fresh_applies_power_state() {
        let job = SweepScale::quick().apply(
            JobSpec::new(Workload::RandRead)
                .block_size(4 * KIB)
                .io_depth(4),
        );
        let r = run_fresh(ssd2_factory, PowerStateId(2), &job).unwrap();
        assert_eq!(r.power_state, PowerStateId(2));
    }

    #[test]
    fn small_sweep_produces_all_points() {
        let points = full_sweep_with(
            ssd2_factory,
            &[Workload::RandRead],
            &[4 * KIB, 64 * KIB],
            &[1, 8],
            &[PowerStateId(0)],
            SweepScale {
                runtime: SimDuration::from_millis(30),
                size_limit: 8 * powadapt_device::MIB,
                ramp: SimDuration::ZERO,
            },
            1,
            &ParallelConfig::per_core(),
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.result.io.ios() > 0,
                "{:?} produced no IO",
                (p.chunk, p.depth)
            );
        }
        // Deeper queues should not be slower.
        let thr = |c: u64, d: usize| {
            points
                .iter()
                .find(|p| p.chunk == c && p.depth == d)
                .unwrap()
                .result
                .io
                .throughput_mibs()
        };
        assert!(thr(4 * KIB, 8) > thr(4 * KIB, 1));
    }

    #[test]
    fn cell_enumeration_is_stable_row_major() {
        let cells = enumerate_cells(
            &[Workload::RandRead, Workload::SeqWrite],
            &[4 * KIB, 64 * KIB],
            &[1, 8],
            &[PowerStateId(0)],
        );
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i as u64));
        assert_eq!(cells[0].workload, Workload::RandRead);
        assert_eq!(cells[4].workload, Workload::SeqWrite);
        assert_eq!(cells[1].depth, 8, "power state is the innermost axis");
    }

    #[test]
    fn worker_count_does_not_change_sweep_results() {
        let scale = SweepScale {
            runtime: SimDuration::from_millis(30),
            size_limit: 8 * powadapt_device::MIB,
            ramp: SimDuration::ZERO,
        };
        let sweep = |workers| {
            full_sweep_with(
                ssd2_factory,
                &[Workload::RandRead, Workload::RandWrite],
                &[4 * KIB, 64 * KIB],
                &[1, 8],
                &[PowerStateId(0), PowerStateId(2)],
                scale,
                11,
                &ParallelConfig::with_workers(workers),
            )
            .unwrap()
        };
        let seq = sweep(1);
        for workers in [2, 8] {
            let par = sweep(workers);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(
                    (a.workload, a.chunk, a.depth),
                    (b.workload, b.chunk, b.depth)
                );
                assert_eq!(a.result.io.ios(), b.result.io.ios());
                assert_eq!(a.result.io.bytes(), b.result.io.bytes());
                assert_eq!(
                    a.result.avg_power_w().to_bits(),
                    b.result.avg_power_w().to_bits(),
                    "power diverged at {workers} workers for {:?}",
                    (a.chunk, a.depth, a.power_state)
                );
            }
        }
    }

    #[test]
    fn sweep_rejects_invalid_power_state() {
        let err = full_sweep_with(
            ssd2_factory,
            &[Workload::RandRead],
            &[4 * KIB],
            &[1],
            &[PowerStateId(7)],
            SweepScale::quick(),
            1,
            &ParallelConfig::per_core(),
        );
        assert!(err.is_err());
    }
}
