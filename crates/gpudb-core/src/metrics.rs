//! Structured per-operator metrics records.
//!
//! A record is one window of a device's clock: the architectural work
//! counters and the phase-attributed modeled time an operator charged,
//! tagged with the operator name and input size. Records deliberately
//! contain **no wall-clock** component: everything in them is a
//! deterministic function of the input, so two runs of the same workload
//! produce byte-identical records — the property the perf-regression
//! harness in `gpudb-bench` is built on.
//!
//! Records are cut from a clock cursor: the device's counters and clock
//! at the end of the last record. Closing an operator span cuts one
//! record from the cursor to "now" and moves the cursor there, so the
//! records of a device tile its clock with no gaps and no overlaps, and
//! every charged nanosecond is in exactly one record. The partition
//! coordinator ([`crate::parallel`]) keeps one cursor per partition. A
//! statement's records are its selection, each aggregate and each retry
//! pause, plus, for a host slice, its upload and mask readback; per phase
//! they sum to the statement's `timing` ([`phase_sum`]). [`observe`] is
//! one operator on a cursor of its own, for library callers.

use gpudb_sim::span::SpanKind;
use gpudb_sim::{Gpu, PhaseNanos, WorkCounters};
use serde::{Deserialize, Serialize};

/// One operator execution: its name, input size, the architectural work
/// it generated, and the modeled time that work costs on the paper's 2004
/// hardware. Fully deterministic — no wall-clock fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRecord {
    /// Operator name, e.g. `predicate/compare_count` or `agg/SUM(a)`.
    pub operator: String,
    /// Number of input records the operator ran over.
    pub input_records: u64,
    /// Work-counter deltas attributed to this operation.
    pub counters: WorkCounters,
    /// Modeled time by phase, in nanoseconds.
    pub modeled_ns: PhaseNanos,
}

impl MetricsRecord {
    /// Total modeled nanoseconds.
    pub fn modeled_total_ns(&self) -> u64 {
        self.modeled_ns.total()
    }

    /// Total modeled milliseconds (for display).
    pub fn modeled_ms(&self) -> f64 {
        self.modeled_ns.total() as f64 / 1e6
    }
}

/// Run `op` against the device as one operator span and cut its
/// [`MetricsRecord`]: the device's work from the start of the span to its
/// end.
pub fn observe<T>(
    gpu: &mut Gpu,
    operator: impl Into<String>,
    input_records: u64,
    op: impl FnOnce(&mut Gpu) -> T,
) -> (T, MetricsRecord) {
    let operator = operator.into();
    let mut cursor = Cursor::at(gpu);
    gpu.span_begin(SpanKind::Operator, &operator);
    let result = op(gpu);
    gpu.span_end();
    (result, cursor.cut(gpu, operator, input_records))
}

/// Per phase, the modeled time of `records`: a statement's `timing` when
/// they are its records.
pub fn phase_sum(records: &[MetricsRecord]) -> PhaseNanos {
    records
        .iter()
        .fold(PhaseNanos::default(), |sum, r| sum.plus(&r.modeled_ns))
}

/// A clock cursor on one device: its work counters and modeled clock at
/// the end of the last record, and the operator span open since then.
pub(crate) struct Cursor {
    counters: WorkCounters,
    modeled: PhaseNanos,
    /// The open operator span: its name and input size.
    open: Option<(String, u64)>,
}

impl Cursor {
    /// A cursor at `gpu`'s clock now, with no span open.
    pub(crate) fn at(gpu: &Gpu) -> Cursor {
        Cursor {
            counters: gpu.stats().counters(),
            modeled: gpu.stats().modeled,
            open: None,
        }
    }

    /// Cut the record of the work from the cursor to now, and move the
    /// cursor to now.
    fn cut(&mut self, gpu: &Gpu, operator: String, input_records: u64) -> MetricsRecord {
        let now = Cursor::at(gpu);
        let record = MetricsRecord {
            operator,
            input_records,
            counters: now.counters.since(&self.counters),
            modeled_ns: now.modeled.since(&self.modeled),
        };
        *self = now;
        record
    }

    /// Open an operator span at the cursor. With a log attached, the span
    /// starts the operator's own pass plan, so validators attribute
    /// diagnostics to it, and the device's leaf spans (passes, readbacks)
    /// nest inside it.
    pub(crate) fn open(&mut self, gpu: &mut Gpu, operator: impl Into<String>, input_records: u64) {
        let operator = operator.into();
        gpu.span_begin(SpanKind::Operator, &operator);
        self.open = Some((operator, input_records));
    }

    /// Close the open operator span, if any, and cut its record.
    pub(crate) fn close(&mut self, gpu: &mut Gpu) -> Option<MetricsRecord> {
        let (operator, input_records) = self.open.take()?;
        gpu.span_end();
        Some(self.cut(gpu, operator, input_records))
    }
}

/// An append-only collection of [`MetricsRecord`]s from one workload run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsLog {
    /// Records in execution order.
    pub records: Vec<MetricsRecord>,
}

impl MetricsLog {
    /// An empty log.
    pub fn new() -> MetricsLog {
        MetricsLog::default()
    }

    /// Append a record.
    pub fn push(&mut self, record: MetricsRecord) {
        self.records.push(record);
    }

    /// Append every record of another log.
    pub fn extend(&mut self, other: MetricsLog) {
        self.records.extend(other.records);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total modeled nanoseconds across all records.
    pub fn modeled_total_ns(&self) -> u64 {
        phase_sum(&self.records).total()
    }

    /// Merge the log per operator name: counters, phase times and input
    /// sizes are summed across every record with the same operator. The
    /// returned summaries are in first-appearance order, so the output is
    /// stable across runs.
    pub fn by_operator(&self) -> Vec<OperatorSummary> {
        let mut out: Vec<OperatorSummary> = Vec::new();
        for record in &self.records {
            match out.iter_mut().find(|s| s.operator == record.operator) {
                Some(summary) => {
                    summary.invocations += 1;
                    summary.input_records += record.input_records;
                    summary.counters = summary.counters.plus(&record.counters);
                    summary.modeled_ns = summary.modeled_ns.plus(&record.modeled_ns);
                }
                None => out.push(OperatorSummary {
                    operator: record.operator.clone(),
                    invocations: 1,
                    input_records: record.input_records,
                    counters: record.counters,
                    modeled_ns: record.modeled_ns,
                }),
            }
        }
        out
    }
}

/// Per-operator aggregation of a [`MetricsLog`], from
/// [`MetricsLog::by_operator`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatorSummary {
    /// Operator name shared by the merged records.
    pub operator: String,
    /// Number of records merged.
    pub invocations: u64,
    /// Summed input sizes.
    pub input_records: u64,
    /// Summed work counters.
    pub counters: WorkCounters,
    /// Summed modeled phase times.
    pub modeled_ns: PhaseNanos,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate;
    use crate::predicate::{compare_count, copy_to_depth};
    use crate::range::range_select;
    use crate::table::GpuTable;
    use gpudb_sim::CompareFunc;

    fn setup(n: u32) -> (Gpu, GpuTable, Vec<u32>) {
        let values: Vec<u32> = (0..n).map(|i| (i * 37) % 500).collect();
        let mut gpu = GpuTable::device_for(values.len(), 50);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
        (gpu, t, values)
    }

    #[test]
    fn observe_attributes_work_to_the_operator() {
        let (mut gpu, t, values) = setup(400);
        let ((), before_record) = observe(&mut gpu, "predicate/copy_to_depth", 400, |gpu| {
            copy_to_depth(gpu, &t, 0).unwrap()
        });
        assert_eq!(before_record.operator, "predicate/copy_to_depth");
        assert_eq!(before_record.input_records, 400);
        assert!(before_record.counters.fragments_generated >= 400);
        assert!(before_record.modeled_ns.copy_to_depth > 0);
        assert_eq!(before_record.modeled_ns.upload, 0);

        let (count, record) = observe(&mut gpu, "predicate/compare_count", 400, |gpu| {
            compare_count(gpu, &t, 0, CompareFunc::Less, 250).unwrap()
        });
        assert_eq!(count, values.iter().filter(|&&v| v < 250).count() as u64);
        assert!(record.counters.draw_calls > 0);
        assert!(record.modeled_total_ns() > 0);
        assert!(record.modeled_ms() > 0.0);
    }

    #[test]
    fn records_are_deterministic_across_runs() {
        let run = || {
            let (mut gpu, t, _) = setup(300);
            let (_, a) = observe(&mut gpu, "predicate/compare_count", 300, |gpu| {
                compare_count(gpu, &t, 0, CompareFunc::Greater, 100).unwrap()
            });
            let (_, b) = observe(&mut gpu, "range/range_count", 300, |gpu| {
                range_select(gpu, &t, 0, 50, 350).unwrap().matched()
            });
            let (_, c) = observe(&mut gpu, "aggregate/kth_largest", 300, |gpu| {
                aggregate::kth_largest(gpu, &t, 0, 7, None).unwrap()
            });
            let (_, d) = observe(&mut gpu, "aggregate/accumulator_sum", 300, |gpu| {
                aggregate::sum(gpu, &t, 0, None).unwrap()
            });
            (a, b, c, d)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_log_accumulates() {
        let (mut gpu, t, _) = setup(200);
        let mut log = MetricsLog::new();
        assert!(log.is_empty());
        let (_, r1) = observe(&mut gpu, "predicate/compare_count", 200, |gpu| {
            compare_count(gpu, &t, 0, CompareFunc::Less, 100).unwrap()
        });
        let (_, r2) = observe(&mut gpu, "range/range_count", 200, |gpu| {
            range_select(gpu, &t, 0, 10, 90).unwrap().matched()
        });
        let sum = r1.modeled_total_ns() + r2.modeled_total_ns();
        log.push(r1);
        log.push(r2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.modeled_total_ns(), sum);

        let mut merged = MetricsLog::new();
        merged.extend(log.clone());
        assert_eq!(merged, log);
    }

    #[test]
    fn by_operator_merges_in_first_appearance_order() {
        let (mut gpu, t, _) = setup(200);
        let mut log = MetricsLog::new();
        let (_, r) = observe(&mut gpu, "predicate/compare_count", 200, |gpu| {
            compare_count(gpu, &t, 0, CompareFunc::Less, 100).unwrap()
        });
        log.push(r);
        let (_, r) = observe(&mut gpu, "range/range_count", 200, |gpu| {
            range_select(gpu, &t, 0, 10, 90).unwrap().matched()
        });
        log.push(r);
        let (_, r) = observe(&mut gpu, "predicate/compare_count", 200, |gpu| {
            compare_count(gpu, &t, 0, CompareFunc::Greater, 50).unwrap()
        });
        log.push(r);

        let summary = log.by_operator();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].operator, "predicate/compare_count");
        assert_eq!(summary[0].invocations, 2);
        assert_eq!(summary[0].input_records, 400);
        assert_eq!(summary[1].operator, "range/range_count");
        assert_eq!(summary[1].invocations, 1);
        // Merging conserves counters and modeled time.
        let total: u64 = summary.iter().map(|s| s.modeled_ns.total()).sum();
        assert_eq!(total, log.modeled_total_ns());
        let draws: u64 = summary.iter().map(|s| s.counters.draw_calls).sum();
        let raw_draws: u64 = log.records.iter().map(|r| r.counters.draw_calls).sum();
        assert_eq!(draws, raw_draws);
    }

    #[test]
    fn serialization_round_trips() {
        let (mut gpu, t, _) = setup(150);
        let (_, record) = observe(&mut gpu, "predicate/compare_count", 150, |gpu| {
            compare_count(gpu, &t, 0, CompareFunc::Equal, 37).unwrap()
        });
        let json = serde_json::to_string(&record).unwrap();
        let back: MetricsRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);

        let mut log = MetricsLog::new();
        log.push(record);
        let json = serde_json::to_string_pretty(&log).unwrap();
        let back: MetricsLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }
}
