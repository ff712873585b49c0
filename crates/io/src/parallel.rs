//! Parallel execution of independent sweep cells.
//!
//! Every figure in the paper is a sweep over independent configurations, so
//! the executor's contract is simple and strict: cells are identified by a
//! stable index, each cell's work is a pure function of `(index, cell)`,
//! and the output vector is ordered by index. Results are therefore
//! **bit-identical regardless of worker count or scheduling order** —
//! parallelism changes wall-clock time and nothing else. Per-cell
//! randomness must be derived from a root seed and the cell index (see
//! [`SimRng::stream_seed`](powadapt_sim::SimRng::stream_seed)), never from
//! shared generator state.
//!
//! The scheduler is one shared next-cell counter on
//! [`std::thread::scope`]: each worker claims the next unclaimed index
//! with an atomic increment until the counter passes the last cell. Sweep
//! cells are milliseconds to seconds of simulation, so one atomic add per
//! cell is noise, and an idle worker always takes whatever is left.
//!
//! The configuration is plain data: the executor reads no environment
//! variables. Binaries build a [`ParallelConfig`] from their command line
//! (`powadapt_bench::cli`) and pass it down.

// The clock never feeds figure data: the golden fixtures prove results
// are bit-identical across worker counts.
#![expect(
    clippy::disallowed_types,
    reason = "the executor times each sweep for its progress report (`SweepStats::elapsed`)"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a sweep is spread across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads (1 = run inline on the calling thread).
    pub workers: usize,
    /// Print each sweep's cell count, workers, wall time and cells/s on
    /// stderr when it finishes.
    pub progress: bool,
}

impl ParallelConfig {
    /// Strictly sequential execution on the calling thread.
    pub fn sequential() -> Self {
        ParallelConfig::with_workers(1)
    }

    /// `workers` threads. `workers == 0` is normalized to 1.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers: workers.max(1),
            progress: false,
        }
    }

    /// One worker per available CPU (1 when the count is unknown).
    pub fn per_core() -> Self {
        ParallelConfig::with_workers(
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        )
    }
}

/// Execution report of one sweep, printed when `progress` is set.
struct SweepStats {
    workers: usize,
    cells: usize,
    elapsed: Duration,
}

impl SweepStats {
    /// Aggregate throughput in cells per second (0 for an instant sweep).
    fn cells_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.cells as f64 / s
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells on {} workers in {:.2?} ({:.1} cells/s)",
            self.cells,
            self.workers,
            self.elapsed,
            self.cells_per_sec()
        )
    }
}

/// Runs `f` over every cell and returns the results in cell order.
///
/// `f(index, &cells[index])` must be a pure function of its arguments (plus
/// any immutable captured state); under that contract the result vector is
/// bit-identical for every `cfg`. Panics in `f` propagate to the caller.
pub fn run_cells<C, T, F>(cells: &[C], cfg: &ParallelConfig, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(usize, &C) -> T + Sync,
{
    let n = cells.len();
    let workers = cfg.workers.max(1).min(n.max(1));
    let start = Instant::now();

    let out = if workers <= 1 {
        cells.iter().enumerate().map(|(i, c)| f(i, c)).collect()
    } else {
        run_shared_counter(cells, workers, &f)
    };

    if cfg.progress {
        let stats = SweepStats {
            workers,
            cells: n,
            elapsed: start.elapsed(),
        };
        eprintln!("[powadapt] sweep: {stats}");
    }
    out
}

/// `workers` threads claim cell indices from one shared counter; the
/// results are reassembled in index order.
fn run_shared_counter<C, T, F>(cells: &[C], workers: usize, f: &F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(usize, &C) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let done: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no data; results
                        // travel back through `join`, which synchronizes.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        done.push((i, f(i, cell)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    // Every index below `cells.len()` was claimed exactly once, so sorting
    // by index restores cell order.
    let mut all: Vec<(usize, T)> = done.into_iter().flatten().collect();
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_sim::SimRng;

    fn cell_work(index: usize, seed_root: u64) -> u64 {
        // A stand-in for an experiment: a deterministic draw stream seeded
        // by the stable cell index.
        let mut rng = SimRng::for_stream(seed_root, index as u64);
        (0..100).map(|_| rng.next_u64() >> 32).sum()
    }

    #[test]
    fn results_are_in_cell_order_and_complete() {
        let cells: Vec<usize> = (0..37).collect();
        let out = run_cells(&cells, &ParallelConfig::with_workers(4), |i, &c| {
            assert_eq!(i, c);
            i * 10
        });
        assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let cells: Vec<u32> = (0..61).collect();
        let run = |workers| {
            run_cells(&cells, &ParallelConfig::with_workers(workers), |i, _| {
                cell_work(i, 99)
            })
        };
        let seq = run(1);
        for workers in [2, 3, 8, 16] {
            assert_eq!(seq, run(workers), "diverged at {workers} workers");
        }
    }

    #[test]
    fn empty_and_single_cell_sweeps_work() {
        let none: Vec<u8> = Vec::new();
        let out = run_cells(&none, &ParallelConfig::with_workers(8), |_, _| 1);
        assert!(out.is_empty());
        let one = [42u8];
        let out = run_cells(&one, &ParallelConfig::with_workers(8), |_, &c| c as u32);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn uneven_cell_costs_are_shared_out() {
        // Front-loaded cost: the first cells are far slower, so the other
        // workers must keep claiming from the shared counter to finish.
        let cells: Vec<u64> = (0..64).map(|i| if i < 8 { 400_000 } else { 100 }).collect();
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let out = run_cells(&cells, &ParallelConfig::with_workers(8), |i, &spin| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        // Every cell ran exactly once, across all workers.
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn errors_are_returned_in_cell_order() {
        // Callers that sweep fallible work collect Results; the first error
        // by cell index is deterministic regardless of scheduling.
        let cells: Vec<usize> = (0..20).collect();
        let out = run_cells(&cells, &ParallelConfig::with_workers(4), |i, _| {
            if i % 7 == 3 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        let first_err = out.iter().find_map(|r| r.as_ref().err());
        assert_eq!(first_err, Some(&3));
    }

    #[test]
    fn config_constructors_normalize_workers() {
        assert_eq!(ParallelConfig::with_workers(0).workers, 1);
        assert_eq!(ParallelConfig::sequential().workers, 1);
        assert!(ParallelConfig::per_core().workers >= 1);
        assert!(!ParallelConfig::per_core().progress);
    }
}
