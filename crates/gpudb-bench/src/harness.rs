//! Shared experiment plumbing: workload setup and timing helpers.

use gpudb_core::metrics::observe;
use gpudb_core::table::GpuTable;
use gpudb_core::EngineResult;
use gpudb_cpu::CpuCostModel;
use gpudb_data::{tcpip, Dataset};
use gpudb_sim::{Gpu, PhaseNanos};

/// Grid width used for experiment tables (the paper's layout is
/// 1000-wide).
pub const GRID_WIDTH: usize = 1000;

/// Deterministic seed for every experiment workload.
pub const SEED: u64 = 20040613; // SIGMOD 2004, June 13

/// A workload instance: dataset + device + uploaded table.
pub struct Workload {
    /// The generated dataset (host copy for CPU baselines).
    pub dataset: Dataset,
    /// The simulated device.
    pub gpu: Gpu,
    /// The uploaded table.
    pub table: GpuTable,
}

impl Workload {
    /// Generate the TCP/IP trace at `records` and upload it.
    pub fn tcpip(records: usize) -> EngineResult<Workload> {
        let dataset = tcpip::generate(records, SEED);
        Workload::from_dataset(dataset)
    }

    /// Upload an existing dataset.
    pub fn from_dataset(dataset: Dataset) -> EngineResult<Workload> {
        let mut gpu = GpuTable::device_for(dataset.record_count(), GRID_WIDTH);
        let cols: Vec<(&str, &[u32])> = dataset
            .columns
            .iter()
            .map(|c| (c.name.as_str(), c.values.as_slice()))
            .collect();
        let table = GpuTable::upload(&mut gpu, dataset.name.clone(), &cols)?;
        Ok(Workload {
            dataset,
            gpu,
            table,
        })
    }

    /// Column slices for CPU baselines.
    pub fn columns(&self) -> Vec<&[u32]> {
        self.dataset.column_slices()
    }

    /// Run a GPU op over the whole table and return its value and
    /// modeled time by phase.
    pub fn time<T>(&mut self, op: impl FnOnce(&mut Gpu, &GpuTable) -> T) -> (T, PhaseNanos) {
        let table = &self.table;
        let n = table.record_count() as u64;
        let (value, record) = observe(&mut self.gpu, "experiment", n, |gpu| op(gpu, table));
        (value, record.modeled_ns)
    }
}

/// Wall-clock a CPU closure (median of `runs` runs), in seconds.
pub fn wall_seconds<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(runs >= 1);
    let mut times = Vec::with_capacity(runs);
    let mut result = None;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        let value = f();
        times.push(start.elapsed().as_secs_f64());
        result = Some(value);
    }
    times.sort_by(f64::total_cmp);
    (result.expect("runs >= 1"), times[times.len() / 2])
}

/// The 2004 Xeon model shared by all experiments.
pub fn cpu_model() -> CpuCostModel {
    CpuCostModel::xeon_2004()
}

/// Modeled nanoseconds as milliseconds, the unit every figure plots.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Format a speedup factor for `observed` strings.
pub fn speedup(cpu_s: f64, gpu_s: f64) -> f64 {
    cpu_s / gpu_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_setup() {
        let w = Workload::tcpip(5000).unwrap();
        assert_eq!(w.table.record_count(), 5000);
        assert_eq!(w.columns().len(), 4);
        assert_eq!(w.dataset.record_count(), 5000);
    }

    #[test]
    fn time_reports_modeled_nanoseconds() {
        let mut w = Workload::tcpip(2000).unwrap();
        let (count, timing) = w.time(|gpu, table| {
            gpudb_core::predicate::compare_count(gpu, table, 0, gpudb_sim::CompareFunc::Greater, 0)
                .unwrap()
        });
        assert!(count > 0);
        assert!(timing.total() > 0);
        assert_eq!(timing.upload, 0, "the table was uploaded before");
    }

    #[test]
    fn wall_seconds_median() {
        let (v, t) = wall_seconds(3, || 42);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }
}
