//! The fio grid every figure reads: one table of measured cells, each keyed
//! by its content `(device, workload, chunk, depth, power state)`.
//!
//! The paper runs one fio grid per device (§3) and reads all its figures
//! from it; so does the bench. A figure lists the [`Key`]s it needs,
//! [`CellTable::measure`] runs the union of the requested keys once in one
//! [`run_cells`] sweep, and the figure is a pure function over the table.
//!
//! A cell's job seed depends on its key alone: `SimRng::stream_seed(seed,
//! i)`, where `i` is the key's position in the device's grid,
//! `enumerate_cells(&GRID_WORKLOADS, &PAPER_CHUNKS, &PAPER_DEPTHS, states)`.
//! Random writes come first, so their indices are the ones
//! `fig10::device_sweep_with` (`full_sweep_with` over random writes) uses,
//! and a random-write cell measures bit-identically in either.

use powadapt_device::{catalog, PowerStateId, MIB};
use powadapt_io::{
    enumerate_cells, run_cells, run_fresh, JobSpec, ParallelConfig, SweepScale, Workload,
    PAPER_CHUNKS, PAPER_DEPTHS,
};
use powadapt_meter::PowerTrace;
use powadapt_sim::SimRng;

use crate::TABLE1_LABELS;

/// The grid's workloads, in seed order.
const GRID_WORKLOADS: [Workload; 4] = [
    Workload::RandWrite,
    Workload::RandRead,
    Workload::SeqWrite,
    Workload::SeqRead,
];

/// A cell of the grid, named by what it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Table 1 device label.
    pub device: &'static str,
    /// Workload mode.
    pub workload: Workload,
    /// Chunk size in bytes.
    pub chunk: u64,
    /// Queue depth.
    pub depth: usize,
    /// Power state id.
    pub ps: u8,
}

impl Key {
    /// The cell of `device`'s grid at these coordinates.
    pub fn new(device: &'static str, workload: Workload, chunk: u64, depth: usize, ps: u8) -> Self {
        Key {
            device,
            workload,
            chunk,
            depth,
            ps,
        }
    }
}

/// What the figures read of one cell's experiment.
#[derive(Debug, Clone)]
pub struct Cell {
    /// IOs completed in the measurement window.
    pub ios: u64,
    /// Bytes transferred in the window.
    pub bytes: u64,
    /// Throughput in bytes per second.
    pub throughput_bps: f64,
    /// Mean measured power in watts.
    pub avg_power_w: f64,
    /// Mean latency in µs.
    pub avg_latency_us: f64,
    /// 99th-percentile latency in µs.
    pub p99_latency_us: f64,
    /// The metered power trace of the window.
    pub power: PowerTrace,
}

impl Cell {
    /// Throughput in MiB/s, the unit of the paper's figures.
    pub fn mibs(&self) -> f64 {
        self.throughput_bps / MIB as f64
    }
}

/// The power states of a Table 1 device, in the order its grid sweeps them.
pub(crate) fn power_states(device: &str) -> Vec<PowerStateId> {
    catalog::by_label(device, 0)
        .expect("known label")
        .power_states()
        .iter()
        .map(|d| d.id)
        .collect()
}

/// `device`'s keys over `workloads × chunks × depths × states`, in that
/// (row-major) order.
pub(crate) fn keys_of(
    device: &'static str,
    workloads: &[Workload],
    chunks: &[u64],
    depths: &[usize],
    states: &[PowerStateId],
) -> Vec<Key> {
    enumerate_cells(workloads, chunks, depths, states)
        .into_iter()
        .map(|c| Key::new(device, c.workload, c.chunk, c.depth, c.power_state.0))
        .collect()
}

/// The distinct cells `keys` name, each with its grid index, in canonical
/// order: device in [`TABLE1_LABELS`] order, then grid index.
///
/// # Panics
///
/// Panics if a key is not a cell of its device's grid.
pub(crate) fn plan(keys: &[Key]) -> Vec<(Key, u64)> {
    let mut cells = Vec::new();
    for device in TABLE1_LABELS {
        let states = power_states(device);
        let grid = keys_of(
            device,
            &GRID_WORKLOADS,
            &PAPER_CHUNKS,
            &PAPER_DEPTHS,
            &states,
        );
        for (index, key) in (0u64..).zip(grid) {
            if keys.contains(&key) {
                cells.push((key, index));
            }
        }
    }
    for key in keys {
        assert!(
            cells.iter().any(|(k, _)| k == key),
            "{key:?} is not a cell of the fio grid"
        );
    }
    cells
}

/// Measured cells at one scale and root seed.
#[derive(Debug)]
pub struct CellTable {
    seed: u64,
    keys: Vec<Key>,
    cells: Vec<Cell>,
}

impl CellTable {
    /// Measures every distinct cell of `keys` once, fanned across the
    /// workers of `cfg`. Each cell runs on a fresh device seeded by `seed`
    /// under its key's job seed, so the table is bit-identical for any
    /// worker count and any set of other keys requested beside it.
    ///
    /// # Panics
    ///
    /// Panics if a key is not a cell of the grid or an experiment fails.
    pub fn measure(
        keys: impl IntoIterator<Item = Key>,
        scale: SweepScale,
        seed: u64,
        cfg: &ParallelConfig,
    ) -> Self {
        let keys: Vec<Key> = keys.into_iter().collect();
        let plan = plan(&keys);
        let cells = run_cells(&plan, cfg, |_, &(key, index)| {
            let job = JobSpec::new(key.workload)
                .block_size(key.chunk)
                .io_depth(key.depth)
                .runtime(scale.runtime)
                .size_limit(scale.size_limit)
                .ramp(scale.ramp)
                .seed(SimRng::stream_seed(seed, index));
            let r = run_fresh(
                || catalog::by_label(key.device, seed).expect("known label"),
                PowerStateId(key.ps),
                &job,
            )
            .expect("valid experiment");
            Cell {
                ios: r.io.ios(),
                bytes: r.io.bytes(),
                throughput_bps: r.io.throughput_bps(),
                avg_power_w: r.avg_power_w(),
                avg_latency_us: r.io.avg_latency_us(),
                p99_latency_us: r.io.p99_latency_us(),
                power: r.power,
            }
        });
        CellTable {
            seed,
            keys: plan.into_iter().map(|(key, _)| key).collect(),
            cells,
        }
    }

    /// The root seed the cells were measured at.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The measured keys, in canonical order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The measured cell at `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not measured.
    pub fn get(&self, key: Key) -> &Cell {
        let i = self
            .keys
            .iter()
            .position(|k| *k == key)
            .unwrap_or_else(|| panic!("{key:?} was not measured"));
        &self.cells[i]
    }
}
