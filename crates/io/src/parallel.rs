//! Work-stealing parallel execution of independent sweep cells.
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
//! The scheduler is a contiguous-range work-stealing design on
//! [`std::thread::scope`] — no external dependencies: the index space is
//! split into one contiguous block per worker; a worker drains its own
//! block from the front in `chunk`-sized bites and, when empty, steals the
//! back half of the largest remaining block. Contiguous ranges keep both
//! the common case (one uncontended lock per bite) and the steal path
//! cheap, and idle workers converge onto whatever work is left.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a sweep is spread across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads (1 = run inline on the calling thread).
    pub workers: usize,
    /// Cells a worker claims from its own queue per bite. Larger chunks
    /// amortize locking; smaller chunks balance heterogeneous cell costs.
    pub chunk: usize,
}

impl ParallelConfig {
    /// Strictly sequential execution on the calling thread.
    pub fn sequential() -> Self {
        ParallelConfig {
            workers: 1,
            chunk: 1,
        }
    }

    /// `workers` threads with the default chunk of 1 (best load balance;
    /// sweep cells are heavy enough that per-bite locking is noise).
    ///
    /// `workers == 0` is normalized to 1.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers: workers.max(1),
            chunk: 1,
        }
    }

    /// Reads the configuration from the environment:
    /// `POWADAPT_WORKERS` sets the worker count (`0` or unset means "one
    /// per available CPU"), `POWADAPT_CHUNK` the claim granularity.
    pub fn from_env() -> Self {
        let workers = match std::env::var("POWADAPT_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        };
        let chunk = std::env::var("POWADAPT_CHUNK")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(1);
        ParallelConfig { workers, chunk }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

/// What one worker did during a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Cells this worker executed.
    pub cells: u64,
    /// Steals this worker performed (it ran out and took work from a peer).
    pub steals: u64,
}

/// Execution report of one sweep.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Worker threads used.
    pub workers: usize,
    /// Total cells executed.
    pub cells: usize,
    /// Wall-clock time of the sweep.
    pub elapsed: Duration,
    /// Per-worker breakdown, in worker order.
    pub per_worker: Vec<WorkerStats>,
}

impl SweepStats {
    /// Aggregate throughput in cells per second (0 for an instant sweep).
    pub fn cells_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.cells as f64 / s
        } else {
            0.0
        }
    }

    /// Total steals across all workers.
    pub fn steals(&self) -> u64 {
        self.per_worker.iter().map(|w| w.steals).sum()
    }
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells on {} workers in {:.2?} ({:.1} cells/s, {} steals)",
            self.cells,
            self.workers,
            self.elapsed,
            self.cells_per_sec(),
            self.steals()
        )
    }
}

/// One worker's claim on the shared index space: the half-open range
/// `[lo, hi)` of cell indices it still owns.
#[derive(Debug, Clone, Copy)]
struct Block {
    lo: usize,
    hi: usize,
}

impl Block {
    fn len(&self) -> usize {
        self.hi - self.lo
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
    run_cells_stats(cells, cfg, f).0
}

/// Like [`run_cells`], also returning the execution report.
pub fn run_cells_stats<C, T, F>(cells: &[C], cfg: &ParallelConfig, f: F) -> (Vec<T>, SweepStats)
where
    C: Sync,
    T: Send,
    F: Fn(usize, &C) -> T + Sync,
{
    let n = cells.len();
    let workers = cfg.workers.max(1).min(n.max(1));
    let chunk = cfg.chunk.max(1);
    let start = Instant::now();

    let (out, per_worker) = if workers <= 1 {
        let out: Vec<T> = cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
        (
            out,
            vec![WorkerStats {
                cells: n as u64,
                steals: 0,
            }],
        )
    } else {
        run_stealing(cells, workers, chunk, &f)
    };

    let stats = SweepStats {
        workers,
        cells: n,
        elapsed: start.elapsed(),
        per_worker,
    };
    if std::env::var_os("POWADAPT_PROGRESS").is_some() {
        eprintln!("[powadapt] sweep: {stats}");
    }
    (out, stats)
}

fn run_stealing<C, T, F>(
    cells: &[C],
    workers: usize,
    chunk: usize,
    f: &F,
) -> (Vec<T>, Vec<WorkerStats>)
where
    C: Sync,
    T: Send,
    F: Fn(usize, &C) -> T + Sync,
{
    let n = cells.len();
    // One contiguous block per worker; the remainder spreads over the
    // first `n % workers` blocks so sizes differ by at most one.
    let queues: Vec<Mutex<Block>> = (0..workers)
        .map(|w| {
            let base = n / workers;
            let extra = n % workers;
            let lo = w * base + w.min(extra);
            let hi = lo + base + usize::from(w < extra);
            Mutex::new(Block { lo, hi })
        })
        .collect();

    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut stats = vec![WorkerStats::default(); workers];

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = &queues;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, T)> = Vec::new();
                let mut me = WorkerStats::default();
                loop {
                    // Claim a bite from my own block.
                    let bite = {
                        // powadapt-lint: allow(D5, reason = "a poisoned queue lock means a worker already panicked; propagating is correct")
                        let mut q = queues[w].lock().expect("queue lock");
                        if q.lo < q.hi {
                            let lo = q.lo;
                            q.lo = (lo + chunk).min(q.hi);
                            Some(Block { lo, hi: q.lo })
                        } else {
                            None
                        }
                    };
                    let bite = match bite {
                        Some(b) => b,
                        // Out of local work: steal the back half of the
                        // largest remaining block and make it mine.
                        None => match steal(queues, w) {
                            Some(b) => {
                                me.steals += 1;
                                // powadapt-lint: allow(D5, reason = "a poisoned queue lock means a worker already panicked; propagating is correct")
                                let mut q = queues[w].lock().expect("queue lock");
                                *q = Block {
                                    lo: (b.lo + chunk).min(b.hi),
                                    hi: b.hi,
                                };
                                Block {
                                    lo: b.lo,
                                    hi: (b.lo + chunk).min(b.hi),
                                }
                            }
                            None => break,
                        },
                    };
                    for (i, cell) in cells.iter().enumerate().take(bite.hi).skip(bite.lo) {
                        done.push((i, f(i, cell)));
                        me.cells += 1;
                    }
                }
                (done, me)
            }));
        }
        for (w, h) in handles.into_iter().enumerate() {
            // powadapt-lint: allow(D5, reason = "join fails only when the worker panicked; re-raising preserves the original panic")
            let (done, me) = h.join().expect("worker panicked");
            stats[w] = me;
            for (i, t) in done {
                results[i] = Some(t);
            }
        }
    });

    let out: Vec<T> = results
        .into_iter()
        .enumerate()
        // powadapt-lint: allow(D5, reason = "executor contract: the blocks partition the index space, so every cell ran; verified by the golden equivalence tests")
        .map(|(i, r)| r.unwrap_or_else(|| panic!("cell {i} never executed")))
        .collect();
    (out, stats)
}

/// Takes the back half (at least one cell) of the largest remaining block
/// owned by any worker other than `thief`. Returns the stolen range.
fn steal(queues: &[Mutex<Block>], thief: usize) -> Option<Block> {
    // Pick the victim with the most remaining work (snapshot scan), then
    // re-check under its lock; retry while any work is visible.
    loop {
        let mut victim = None;
        let mut most = 0usize;
        for (i, q) in queues.iter().enumerate() {
            if i == thief {
                continue;
            }
            // powadapt-lint: allow(D5, reason = "a poisoned queue lock means a worker already panicked; propagating is correct")
            let remaining = q.lock().expect("queue lock").len();
            if remaining > most {
                most = remaining;
                victim = Some(i);
            }
        }
        let v = victim?;
        // powadapt-lint: allow(D5, reason = "a poisoned queue lock means a worker already panicked; propagating is correct")
        let mut q = queues[v].lock().expect("queue lock");
        let remaining = q.len();
        if remaining == 0 {
            // Lost the race; rescan for another victim.
            continue;
        }
        let take = remaining.div_ceil(2);
        let stolen = Block {
            lo: q.hi - take,
            hi: q.hi,
        };
        q.hi = stolen.lo;
        return Some(stolen);
    }
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
        let (out, stats) = run_cells_stats(&cells, &ParallelConfig::with_workers(4), |i, &c| {
            assert_eq!(i, c);
            i * 10
        });
        assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(stats.cells, 37);
        assert_eq!(stats.per_worker.iter().map(|w| w.cells).sum::<u64>(), 37);
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
    fn chunking_does_not_change_results() {
        let cells: Vec<u32> = (0..40).collect();
        let run = |chunk| {
            let cfg = ParallelConfig { workers: 4, chunk };
            run_cells(&cells, &cfg, |i, _| cell_work(i, 7))
        };
        assert_eq!(run(1), run(3));
        assert_eq!(run(1), run(64));
    }

    #[test]
    fn empty_and_single_cell_sweeps_work() {
        let none: Vec<u8> = Vec::new();
        let (out, stats) = run_cells_stats(&none, &ParallelConfig::with_workers(8), |_, _| 1);
        assert!(out.is_empty());
        assert_eq!(stats.cells, 0);
        let one = [42u8];
        let out = run_cells(&one, &ParallelConfig::with_workers(8), |_, &c| c as u32);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn uneven_cell_costs_get_stolen() {
        // Front-loaded cost: worker 0's block is far slower, so with chunk
        // 1 the other workers must steal to finish.
        let cells: Vec<u64> = (0..64).map(|i| if i < 8 { 400_000 } else { 100 }).collect();
        let cfg = ParallelConfig {
            workers: 8,
            chunk: 1,
        };
        let (out, stats) = run_cells_stats(&cells, &cfg, |i, &spin| {
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        // Steal accounting is exact under contention: every steal recorded
        // corresponds to a real transfer, and all cells ran exactly once.
        assert_eq!(stats.per_worker.iter().map(|w| w.cells).sum::<u64>(), 64);
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
    fn config_from_env_parses_workers() {
        // Only exercise the pure parts (env manipulation in tests races
        // with other threads): defaults and normalization.
        assert_eq!(ParallelConfig::with_workers(0).workers, 1);
        assert_eq!(ParallelConfig::sequential().workers, 1);
        assert!(ParallelConfig::from_env().workers >= 1);
    }
}
