//! The partition coordinator: the one statement engine.
//!
//! A statement runs over one or more partitions of a table, driven phase
//! by phase from one coordinator that merges the partitions' partial
//! results exactly. Single-device execution
//! ([`crate::query::execute_with_options`]) is one partition resident on
//! the caller's device. Resilient execution
//! ([`crate::resilience::execute_resilient`]) is one host-slice partition
//! on the caller's device. Sharded execution ([`execute_sharded`]), after
//! the partition-parallel designs of tile-based GPU analytics engines,
//! splits a host table into contiguous row-range shards and gives every
//! shard its own simulated device (own modeled clock, own framebuffer,
//! own recovery ladder). The merge:
//!
//! * selection bitmaps concatenate in shard order;
//! * `COUNT` adds the selections' own occlusion counts (it comes free
//!   with the selection pass, §4.3.1), and every aggregate that needs a
//!   count uses this one rather than counting the selection again;
//! * `SUM` adds, `AVG` divides the merged sum by the merged count;
//! * order statistics (`MIN`, `MAX`, `KthLargest`, `KthSmallest`,
//!   `MEDIAN`, `PERCENTILE`) run the paper's Routine 4.5 bit descent
//!   *globally*: the coordinator walks bits MSB-first and each partition
//!   answers the per-bit `count >= m` occlusion query on its records, so
//!   the summed counts equal the single-device counts and Lemma 1 applies
//!   unchanged. `MAX` is the descent at rank 1 and `MIN` at rank
//!   `matched` (§4.3.2).
//!
//! The merged result is therefore byte-identical to single-device
//! execution at every shard count, and one shard's metrics are
//! single-device execution's plus its data movement (the
//! `partition/upload` and `partition/readback` records) and the
//! `parallel/merge` marker — the properties the `sharded_equivalence`
//! differential suite pins down.
//!
//! ## Records
//!
//! Each partition cuts its metrics records from one clock cursor
//! ([`crate::metrics`]), one record per operator span: a host slice's
//! `partition/upload`, the selection (`filter/*`), its
//! `partition/readback`, each `agg/*` and each
//! `resilience/retry-backoff`. The records tile the partition's device
//! clock, so per phase they sum to the statement's `timing`, and a
//! partition's modeled time is the sum of its records.
//!
//! ## Determinism
//!
//! The coordinator calls each partition directly on the calling thread,
//! in partition order, so determinism holds by construction: there
//! is no scheduling to leak into any result. Every shard device starts
//! its modeled clock at `t = 0`, and the modeled merge cost
//! ([`merge_cost_ns`]) is a pure function of the shard and aggregate
//! counts. Host parallelism comes from inside each draw: the simulator
//! runs a draw's framebuffer row tiles on every host core.
//!
//! ## Resilience
//!
//! Every host-slice partition, whether a shard or the one partition of
//! [`crate::resilience::execute_resilient`], runs the same recovery
//! ladder (`docs/resilience.md`). Each device step of the partition — the
//! upload, the selection (plan and select), the mask readback and every
//! aggregate op — goes through one ladder step with one rule per fault
//! class, whatever the phase:
//!
//! * a logic error surfaces;
//! * a transient fault retries only the struck step, on the upload the
//!   partition already holds, after modeled backoff; a step gets
//!   [`RetryPolicy::max_attempts`] tries, then the partition answers on
//!   the CPU, or the statement fails with
//!   [`EngineError::RetriesExhausted`] when the policy forbids fallback;
//! * a resource fault (only the upload allocates) takes the partition
//!   out of core: [`RetryPolicy::oom_chunks`] chunk partitions on fresh
//!   devices of the same width answer for it (§6.1), and a chunk's own
//!   resource fault goes to the CPU;
//! * a device fault answers the rest of the statement on the CPU, from
//!   the partition's read-back mask once the selection has run.
//!
//! A fault on one partition never disturbs the others. A resident
//! partition has no host copy to answer from, so its errors surface
//! unchanged.

use crate::aggregate::{
    self,
    kth::{self, Rank},
};
use crate::cpu_oracle::{self, HostTable};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{self, Cursor, MetricsRecord};
use crate::query::ast::{Aggregate, BoolExpr, Query};
use crate::query::executor::{
    execute_selection, plan_operator, AggValue, ExecuteOptions, QueryOutput,
};
use crate::query::planner::{plan_selection, SelectionPlan};
use crate::resilience::{marker_record, ResiliencePath, ResilienceReport, RetryPolicy, RetryStep};
use crate::selection::Selection;
use crate::table::GpuTable;
use gpudb_lint::{Linter, Severity};
use gpudb_obs::{merge_shard_trees, Span, SpanTree};
use gpudb_sim::span::SpanKind;
use gpudb_sim::trace::PassPlan;
use gpudb_sim::{FaultClass, FaultInjector, Gpu, PhaseNanos, RecordMode};
use std::borrow::Cow;
use std::ops::{Deref, DerefMut};

/// Modeled cost of one merge step, in nanoseconds. The coordinator's
/// merge work is `shards * (aggregates + 1)` steps: one bitmap-count
/// combine per shard plus one partial-aggregate combine per shard per
/// aggregate.
pub const MERGE_STEP_NS: u64 = 250;

/// Modeled cost of merging `shards` partial results for a query with
/// `aggregates` aggregate expressions. Pure and deterministic.
pub fn merge_cost_ns(shards: usize, aggregates: usize) -> u64 {
    (shards as u64) * (aggregates as u64 + 1) * MERGE_STEP_NS
}

/// Split `n` records into contiguous row ranges, one per shard. Ranges
/// are half-open `(start, end)`, cover `0..n` exactly, and differ in
/// size by at most one chunk. An empty table yields a single empty
/// shard so the executor always has at least one device.
pub fn plan_shards(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(shards.max(1)).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < n.max(1) {
        let end = (start + chunk).min(n);
        ranges.push((start, end));
        if end >= n {
            break;
        }
        start = end;
    }
    ranges
}

/// Knobs for sharded execution.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of shards (and devices). Clamped to at least 1.
    pub shards: usize,
    /// Texture width of each shard's device (records per row).
    pub device_width: usize,
    /// Per-shard execution options (plan validation, tracing, fusion).
    pub options: ExecuteOptions,
    /// Per-shard recovery ladder knobs.
    pub policy: RetryPolicy,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 4,
            device_width: 16,
            options: ExecuteOptions::default(),
            policy: RetryPolicy::default(),
        }
    }
}

/// The merged cost picture of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Per-shard ledgers, in shard order.
    pub shards: Vec<ResilienceReport>,
    /// Modeled merge cost ([`merge_cost_ns`]).
    pub merge_ns: u64,
    /// Modeled end-to-end cost: the slowest shard (critical path) plus
    /// the merge.
    pub merged_ns: u64,
}

/// A sharded query result: the merged output, the concatenated
/// selection bitmap, and the per-shard report.
#[derive(Debug, Clone)]
pub struct ShardedOutput {
    /// Merged query output, byte-identical to single-device execution.
    pub output: QueryOutput,
    /// Per-record selection mask, concatenated in shard order.
    pub mask: Vec<bool>,
    /// Per-shard execution report.
    pub report: ShardReport,
}

/// Execute `query` over `host`'s data on `opts.shards` simulated devices
/// and merge the partial results exactly.
pub fn execute_sharded(
    host: &HostTable,
    query: &Query,
    opts: &ShardOptions,
) -> EngineResult<ShardedOutput> {
    execute_sharded_with_faults(host, query, opts, Vec::new())
}

/// [`execute_sharded`] with a deterministic fault injector attached to
/// selected shards: `faults[i]` (if present and `Some`) is installed on
/// shard `i`'s device before execution. Missing entries mean no faults.
pub fn execute_sharded_with_faults(
    host: &HostTable,
    query: &Query,
    opts: &ShardOptions,
    mut faults: Vec<Option<FaultInjector>>,
) -> EngineResult<ShardedOutput> {
    let n = host.record_count();
    let ranges = plan_shards(n, opts.shards);
    faults.resize_with(ranges.len(), || None);
    let filter = query.filter.as_ref();
    let mut partitions: Vec<Partition> = ranges
        .iter()
        .zip(faults)
        .map(|(&(start, end), fault)| {
            let mut gpu = fresh_device(end - start, opts.device_width, opts.options);
            if let Some(injector) = fault {
                gpu.attach_fault_injector(injector);
            }
            let records = Records::host(Cow::Owned(host.slice(start, end)), &opts.policy);
            Partition::new(Device::Own(gpu), records, start, filter, opts.options)
        })
        .collect();
    let (matched, rows) = run_phases(&mut partitions, query)?;

    // Finish: collect per-shard ledgers in shard order.
    let mut all_metrics: Vec<MetricsRecord> = Vec::new();
    let mut mask = Vec::with_capacity(n);
    let mut timing = PhaseNanos::default();
    let mut shards = Vec::with_capacity(partitions.len());
    let mut traces = Vec::new();
    for mut partition in partitions {
        let (chunk_ns, chunk_spans) = partition.close();
        if let (Some(level), Some(log)) = (opts.options.trace, partition.gpu.log()) {
            let mut tree = SpanTree::from_log(log.entries(), level);
            tree.roots.extend(chunk_spans);
            traces.push(tree);
        }
        timing = timing.plus(&partition.gpu.stats().modeled.plus(&chunk_ns));
        mask.extend(partition.mask);
        all_metrics.extend(partition.metrics);
        shards.push(partition.ledger);
    }
    all_metrics.push(marker_record("parallel/merge", n as u64));
    // The records tile every device's clock.
    debug_assert_eq!(metrics::phase_sum(&all_metrics), timing);

    let merge_ns = merge_cost_ns(shards.len(), query.aggregates.len());
    let merged_ns = shards.iter().map(|s| s.modeled_ns).max().unwrap_or(0) + merge_ns;
    let trace = if traces.is_empty() {
        None
    } else {
        Some(merge_shard_trees(traces))
    };
    Ok(ShardedOutput {
        output: QueryOutput {
            matched,
            selectivity: selectivity(matched, n),
            rows,
            timing,
            metrics: all_metrics,
            trace,
        },
        mask,
        report: ShardReport {
            shards,
            merge_ns,
            merged_ns,
        },
    })
}

/// Execute `query` as one partition of the caller's device — resident
/// (the executor's table and plan) or a host slice riding the recovery
/// ladder every shard rides — and close it on every exit path. The caller
/// wraps the statement ([`crate::query::executor::run_statement`]): the
/// output's `timing` and `trace` hold only what ran on out-of-core chunk
/// devices.
pub(crate) fn execute_on_caller(
    gpu: &mut Gpu,
    records: Records,
    query: &Query,
    options: ExecuteOptions,
) -> EngineResult<(QueryOutput, ResilienceReport)> {
    let filter = query.filter.as_ref();
    let mut partition = Partition::new(Device::Caller(gpu), records, 0, filter, options);
    let phases = run_phases(std::slice::from_mut(&mut partition), query);
    let (timing, spans) = partition.close();
    let (matched, rows) = phases?;
    let output = QueryOutput {
        matched,
        selectivity: selectivity(matched, partition.ledger.records),
        rows,
        timing,
        metrics: partition.metrics,
        trace: (!spans.is_empty()).then_some(SpanTree { roots: spans }),
    };
    Ok((output, partition.ledger))
}

/// `matched` as a share of `records` (0 for an empty table).
fn selectivity(matched: u64, records: usize) -> f64 {
    if records == 0 {
        0.0
    } else {
        matched as f64 / records as f64
    }
}

/// A fresh device for `records` records, `width` records per row. It
/// keeps one log for the whole statement when validating or tracing:
/// validation lints the windows of the attempts that succeeded, and
/// tracing renders all of it.
fn fresh_device(records: usize, width: usize, options: ExecuteOptions) -> Box<Gpu> {
    let mut gpu = GpuTable::device_for(records, width);
    if options.validate_plans || options.trace.is_some() {
        gpu.attach_log(RecordMode::RecordAndExecute);
    }
    Box::new(gpu)
}

/// The coordinator's phase loop; returns the merged match count and the
/// rows.
///
/// Phase 1: every partition executes its own selection, in partition
/// order, so the first failing partition's error surfaces. Phase 2: the
/// aggregates, strictly in SELECT order, so validation errors (unknown
/// column, invalid k, empty input) surface in the same order on every
/// placement. An out-of-core partition answers phase 2 through its
/// chunks.
fn run_phases(
    partitions: &mut [Partition],
    query: &Query,
) -> EngineResult<(u64, Vec<(String, AggValue)>)> {
    let mut matched = 0u64;
    for partition in partitions.iter_mut() {
        partition.run_selection()?;
        matched += partition.matched;
    }
    let mut leaves: Vec<&mut Partition> =
        partitions.iter_mut().flat_map(Partition::leaves).collect();
    let mut rows = Vec::with_capacity(query.aggregates.len());
    for agg in &query.aggregates {
        let label = agg.label();
        for partition in leaves.iter_mut() {
            partition.begin_agg(&label, matched);
        }
        let value = merge_aggregate(agg, matched, &mut leaves);
        // Close every window, also after an error, so spans stay paired.
        let mut linted = Ok(());
        for partition in leaves.iter_mut() {
            linted = linted.and(partition.end_agg());
        }
        rows.push((label, value?));
        linted?;
    }
    Ok((matched, rows))
}

/// Validate and compute one aggregate from per-partition partials. The
/// merged `matched` count is the selections' own occlusion count, so no
/// partition counts its selection again. Every order statistic is one
/// global Routine 4.5 descent at its rank counted from the largest
/// ([`Rank`]); each partition contributes its partial `count >= m` per
/// bit, and the counts add because the partitions partition the records.
fn merge_aggregate(
    agg: &Aggregate,
    matched: u64,
    partitions: &mut [&mut Partition],
) -> EngineResult<AggValue> {
    // Every partition has the same columns.
    let column = match (agg.column(), partitions.first()) {
        (None, _) => return Ok(AggValue::Count(matched)),
        (Some(col), Some(first)) => first.column_index(col)?,
        (Some(col), None) => return Err(EngineError::ColumnNotFound(col.to_string())),
    };
    let rank = match agg {
        Aggregate::Count => return Ok(AggValue::Count(matched)),
        Aggregate::Avg(_) if matched == 0 => return Err(EngineError::EmptyInput),
        Aggregate::Sum(_) | Aggregate::Avg(_) => {
            let sum = partitions
                .iter_mut()
                .map(|p| p.op_sum(column))
                .sum::<EngineResult<u64>>()?;
            return Ok(match agg {
                Aggregate::Sum(_) => AggValue::Sum(sum),
                _ => AggValue::Avg(sum as f64 / matched as f64),
            });
        }
        Aggregate::Max(_) => Rank::Largest(1),
        Aggregate::Min(_) => Rank::Smallest(1),
        Aggregate::KthLargest(_, k) => Rank::Largest(*k),
        Aggregate::KthSmallest(_, k) => Rank::Smallest(*k),
        Aggregate::Median(_) => Rank::Percentile(0.5),
        Aggregate::Percentile(_, p) => Rank::Percentile(*p),
    };
    let k = rank.counted_from_largest(matched)?;
    // The bit width is the widest partition's, which is the full column's
    // `32 - leading_zeros(max)` that [`crate::table::ColumnMeta`] stores,
    // so the descent runs the bit sequence one device would.
    let mut bits = 0;
    for partition in partitions.iter() {
        bits = bits.max(partition.column_bits(column)?);
    }
    for partition in partitions.iter_mut() {
        partition.op_begin_descent(column)?;
    }
    let value = kth::descend(bits, k, |m| {
        partitions
            .iter_mut()
            .map(|p| p.op_count_ge(column, m))
            .sum()
    })?;
    for partition in partitions.iter_mut() {
        partition.op_end_descent()?;
    }
    Ok(AggValue::Value(value))
}

/// Lint recorded pass plans; the first plan with an error-severity
/// diagnostic fails with [`EngineError::PlanValidation`].
fn lint_plans(plans: &[PassPlan]) -> EngineResult<()> {
    let linter = Linter::new();
    for plan in plans {
        let errors: Vec<String> = linter
            .lint(plan)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(ToString::to_string)
            .collect();
        if !errors.is_empty() {
            return Err(EngineError::PlanValidation {
                operator: plan.label.clone(),
                diagnostics: errors,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------

/// A partition's device: the caller's, or one the coordinator made for a
/// shard or an out-of-core chunk.
enum Device<'a> {
    Caller(&'a mut Gpu),
    Own(Box<Gpu>),
}

impl Deref for Device<'_> {
    type Target = Gpu;

    fn deref(&self) -> &Gpu {
        match self {
            Device::Caller(gpu) => gpu,
            Device::Own(gpu) => gpu,
        }
    }
}

impl DerefMut for Device<'_> {
    fn deref_mut(&mut self) -> &mut Gpu {
        match self {
            Device::Caller(gpu) => gpu,
            Device::Own(gpu) => gpu,
        }
    }
}

/// Where a partition's records live.
pub(crate) enum Records<'a> {
    /// On the caller's device, with the executor's plan: no upload, no
    /// mask readback and no ladder, so every error surfaces unchanged.
    Resident(&'a GpuTable, &'a SelectionPlan),
    /// A host slice; `upload` holds its one upload until the partition
    /// closes.
    Host {
        slice: Cow<'a, HostTable>,
        policy: &'a RetryPolicy,
        upload: Option<GpuTable>,
        /// A chunk of an out-of-core partition: its own resource faults
        /// go to the CPU rather than out of core again.
        chunk: bool,
    },
}

impl<'a> Records<'a> {
    /// A host slice that may go out of core.
    pub(crate) fn host(slice: Cow<'a, HostTable>, policy: &'a RetryPolicy) -> Records<'a> {
        Records::Host {
            slice,
            policy,
            upload: None,
            chunk: false,
        }
    }

    fn record_count(&self) -> usize {
        match self {
            Records::Resident(table, _) => table.record_count(),
            Records::Host { slice, .. } => slice.record_count(),
        }
    }

    /// The records on the device: the resident table or the upload.
    fn table(&self) -> EngineResult<&GpuTable> {
        match self {
            Records::Resident(table, _) => Ok(table),
            Records::Host {
                upload: Some(table),
                ..
            } => Ok(table),
            Records::Host { slice, .. } => Err(EngineError::TableNotFound(slice.name().into())),
        }
    }
}

/// One partition: a device, the clock cursor its records are cut from
/// and (for a host slice) its recovery ladder. The coordinator drives
/// every partition directly, in partition order.
struct Partition<'a> {
    gpu: Device<'a>,
    records: Records<'a>,
    filter: Option<&'a BoolExpr>,
    options: ExecuteOptions,
    /// The selection the aggregates read on the device.
    selection: Option<Selection>,
    /// The per-record selection, read back for a host slice.
    mask: Vec<bool>,
    matched: u64,
    /// The partition's ledger: its rung, retries, degradations and cost.
    ledger: ResilienceReport,
    /// The device's clock at the end of the last record.
    cursor: Cursor,
    /// The records cut from the cursor, in order, and the markers.
    metrics: Vec<MetricsRecord>,
    /// The last aggregate window opened: its log mark and the retries
    /// made before it.
    window: (usize, u32),
    /// On the CPU, the selected values of the column an open descent
    /// counts, gathered once rather than on every bit.
    descent: Vec<u32>,
    /// Out of core: the chunk partitions that answer for this one.
    chunks: Vec<Partition<'a>>,
}

impl<'a> Partition<'a> {
    fn new(
        gpu: Device<'a>,
        records: Records<'a>,
        start: usize,
        filter: Option<&'a BoolExpr>,
        options: ExecuteOptions,
    ) -> Partition<'a> {
        let ledger = ResilienceReport {
            start,
            records: records.record_count(),
            ..ResilienceReport::default()
        };
        Partition {
            cursor: Cursor::at(&gpu),
            gpu,
            records,
            filter,
            options,
            selection: None,
            mask: Vec::new(),
            matched: 0,
            ledger,
            metrics: Vec::new(),
            window: (0, 0),
            descent: Vec::new(),
            chunks: Vec::new(),
        }
    }

    /// The partitions that answer the aggregates for this one: its
    /// chunks when it went out of core, itself otherwise.
    fn leaves(&mut self) -> &mut [Partition<'a>] {
        if self.chunks.is_empty() {
            std::slice::from_mut(self)
        } else {
            &mut self.chunks
        }
    }

    /// Resolve a column name; a table and its host slices give the same
    /// error.
    fn column_index(&self, name: &str) -> EngineResult<usize> {
        match &self.records {
            Records::Resident(table, _) => table.column_index(name),
            Records::Host { slice, .. } => slice.column_index(name),
        }
    }

    /// Bits of the widest value of `column` in this partition.
    fn column_bits(&self, column: usize) -> EngineResult<u32> {
        Ok(match &self.records {
            Records::Resident(table, _) => table.column(column)?.bits,
            Records::Host { slice, .. } => {
                let max = slice.column_values(column)?.iter().copied().max();
                32 - max.unwrap_or(0).leading_zeros()
            }
        })
    }

    /// Where a window of the partition's log starts (0 without a log).
    fn log_mark(&self) -> usize {
        self.gpu.log().map_or(0, |log| log.entries().len())
    }

    /// Lint the plans logged since `mark`, when validating. Callers lint
    /// only windows free of struck tries: a struck try may leave unpaired
    /// occlusion ops that would trip the linter spuriously.
    fn lint_since(&self, mark: usize) -> EngineResult<()> {
        match self.gpu.log() {
            Some(log) if self.options.validate_plans => lint_plans(&log.plans_since(mark)),
            _ => Ok(()),
        }
    }

    /// The ladder step: run `op`, one device step of the partition (the
    /// upload, the selection, the mask readback or one aggregate op), under
    /// the one rule per fault class. `Some` is the device's answer; `None`
    /// means the partition answers on the CPU or, after a resource fault,
    /// through its out-of-core chunks. A resident partition runs `op` once and
    /// surfaces any error.
    fn step<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> EngineResult<T>,
    ) -> EngineResult<Option<T>> {
        let (policy, records, chunk) = match &self.records {
            Records::Resident(..) => return op(self).map(Some),
            _ if self.ledger.path != ResiliencePath::Gpu => return Ok(None),
            Records::Host {
                slice,
                policy,
                chunk,
                ..
            } => (*policy, slice.record_count() as u64, *chunk),
        };
        let cpu = "partition answering on the CPU";
        let mut tries = 0;
        let (note, error) = loop {
            tries += 1;
            let error = match op(self) {
                Ok(value) => return Ok(Some(value)),
                Err(error) => error,
            };
            match error.fault_class() {
                FaultClass::Logic => return Err(error),
                FaultClass::Transient if tries < policy.max_attempts => {
                    // The struck try stays in the struck operator's record
                    // and the pause gets its own: an open aggregate closes
                    // around the pause and reopens after it.
                    let struck = self.cursor.close(&mut self.gpu);
                    self.cursor
                        .open(&mut self.gpu, RetryStep::OPERATOR, records);
                    let step = RetryStep::charge(&mut self.gpu, policy, tries, &error);
                    let pause = self.cursor.close(&mut self.gpu);
                    if let Some(struck) = &struck {
                        let operator = struck.operator.clone();
                        self.cursor
                            .open(&mut self.gpu, operator, struck.input_records);
                    }
                    self.metrics.extend(struck.into_iter().chain(pause));
                    self.ledger.retries += 1;
                    self.ledger.backoff_ns = self.ledger.backoff_ns.saturating_add(step.pause_ns);
                    self.ledger.degradations.push(step.degradation);
                }
                FaultClass::Transient => {
                    let last = Box::new(error);
                    let exhausted = EngineError::RetriesExhausted {
                        attempts: tries,
                        last,
                    };
                    break (format!("{exhausted}; {cpu}"), exhausted);
                }
                FaultClass::Resource if !chunk => {
                    return self.out_of_core(policy, error).map(|()| None)
                }
                FaultClass::Resource => break (format!("resource fault ({error}); {cpu}"), error),
                FaultClass::Device => break (format!("device fault ({error}); {cpu}"), error),
            }
        };
        if !policy.cpu_fallback {
            return Err(error);
        }
        self.ledger.degradations.push(note);
        self.metrics
            .push(marker_record("resilience/cpu-fallback", records));
        self.ledger.path = ResiliencePath::Cpu;
        Ok(None)
    }

    /// Phase 1: a host slice's upload, selection and mask readback, each a
    /// ladder step (a resident partition only selects). When the partition
    /// goes to the CPU before its mask is read back, the CPU oracle
    /// evaluates the filter on the host slice.
    fn run_selection(&mut self) -> EngineResult<()> {
        if let Records::Resident(..) = self.records {
            return self.select();
        }
        if self.step(Partition::upload)?.is_some()
            && self.step(Partition::select)?.is_some()
            && self.step(Partition::read_back)?.is_some()
        {
            return Ok(());
        }
        if let (ResiliencePath::Cpu, Records::Host { slice, .. }) =
            (self.ledger.path, &self.records)
        {
            let bitmap = cpu_oracle::filter_mask(slice, self.filter)?;
            self.mask = (0..slice.record_count()).map(|i| bitmap.get(i)).collect();
            self.matched = bitmap.count_ones() as u64;
        }
        Ok(())
    }

    /// The upload step: the host slice goes to the device once per
    /// statement, as the `partition/upload` operator.
    fn upload(&mut self) -> EngineResult<()> {
        let Records::Host { slice, upload, .. } = &mut self.records else {
            return Ok(());
        };
        let input = slice.record_count() as u64;
        self.cursor.open(&mut self.gpu, "partition/upload", input);
        let table = slice.upload(&mut self.gpu);
        self.metrics.extend(self.cursor.close(&mut self.gpu));
        *upload = Some(table?);
        Ok(())
    }

    /// The selection step: plan a host slice's upload (a resident table
    /// comes with the executor's plan), run the plan as one operator under
    /// the `selection` stage span, and lint what it logged. The selection
    /// stays on the device for the aggregates.
    fn select(&mut self) -> EngineResult<()> {
        self.ledger.attempts += 1;
        let table = self.records.table()?;
        let planned;
        let plan = match self.records {
            Records::Resident(_, plan) => plan,
            Records::Host { .. } => {
                planned = plan_selection(table, self.filter)?;
                &planned
            }
        };
        let mark = self.log_mark();
        self.gpu.span_begin(SpanKind::Stage, "selection");
        let input = table.record_count() as u64;
        self.cursor.open(&mut self.gpu, plan_operator(plan), input);
        let result = execute_selection(&mut self.gpu, table, plan, self.options.fuse_passes);
        self.metrics.extend(self.cursor.close(&mut self.gpu));
        self.gpu.span_end();
        let selection = result?;
        self.lint_since(mark)?;
        self.matched = selection.as_ref().map_or(input, Selection::matched);
        self.selection = selection;
        Ok(())
    }

    /// The readback step: read the host slice's selection mask back, as the
    /// `partition/readback` operator. A corrupted readback retries only
    /// this step: the stencil still holds the selection.
    fn read_back(&mut self) -> EngineResult<()> {
        let records = self.records.record_count();
        self.cursor
            .open(&mut self.gpu, "partition/readback", records as u64);
        let mask = match &self.selection {
            Some(selection) => selection.read_mask(&mut self.gpu),
            None => Ok(vec![true; records]),
        };
        self.metrics.extend(self.cursor.close(&mut self.gpu));
        self.mask = mask?;
        Ok(())
    }

    /// A resource fault at the upload: the partition goes out of core
    /// (§6.1). `policy.oom_chunks` chunk partitions, each on a fresh
    /// device of this one's width, run their own selections and answer
    /// the aggregates in its place; faults still pending on this device
    /// never reach them.
    fn out_of_core(&mut self, policy: &'a RetryPolicy, error: EngineError) -> EngineResult<()> {
        let Records::Host { slice, .. } = &self.records else {
            return Err(error);
        };
        let ranges = plan_shards(slice.record_count(), policy.oom_chunks);
        self.ledger.degradations.push(format!(
            "resource fault ({error}); partition going out of core in {} chunks",
            ranges.len()
        ));
        self.metrics.push(marker_record(
            "resilience/out-of-core",
            slice.record_count() as u64,
        ));
        self.ledger.path = ResiliencePath::OutOfCore;
        let width = self.gpu.width();
        self.chunks = ranges
            .into_iter()
            .map(|(start, end)| {
                let records = Records::Host {
                    slice: Cow::Owned(slice.slice(start, end)),
                    policy,
                    upload: None,
                    chunk: true,
                };
                let gpu = fresh_device(end - start, width, self.options);
                Partition::new(Device::Own(gpu), records, start, self.filter, self.options)
            })
            .collect();
        for chunk in &mut self.chunks {
            chunk.run_selection()?;
            self.matched += chunk.matched;
            self.mask.extend_from_slice(&chunk.mask);
        }
        Ok(())
    }

    /// End the statement: free the upload (best effort: a reset device
    /// has already lost it), fold an out-of-core partition's chunks into
    /// its ledger, metrics and degradations in chunk order, and set the
    /// ledger's modeled time: the sum of the partition's records, its
    /// chunks' included. Returns the chunk devices' modeled time and, when
    /// tracing, their spans.
    fn close(&mut self) -> (PhaseNanos, Vec<Span>) {
        if let Records::Host { upload, .. } = &mut self.records {
            if let Some(table) = upload.take() {
                let _ = table.free(&mut self.gpu);
            }
        }
        let mut modeled = PhaseNanos::default();
        let mut spans = Vec::new();
        for (i, chunk) in std::mem::take(&mut self.chunks).into_iter().enumerate() {
            modeled = modeled.plus(&chunk.gpu.stats().modeled);
            if let (Some(level), Some(log)) = (self.options.trace, chunk.gpu.log()) {
                spans.extend(SpanTree::from_log(log.entries(), level).roots);
            }
            self.metrics.extend(chunk.metrics);
            self.ledger.retries += chunk.ledger.retries;
            self.ledger.backoff_ns += chunk.ledger.backoff_ns;
            self.ledger.degradations.extend(
                chunk
                    .ledger
                    .degradations
                    .into_iter()
                    .map(|d| format!("chunk {i}: {d}")),
            );
        }
        self.ledger.modeled_ns = metrics::phase_sum(&self.metrics).total();
        (modeled, spans)
    }

    /// Open an aggregate window (stage span and operator span); `input` is
    /// the merged matched count, recorded as the aggregate's input size.
    fn begin_agg(&mut self, label: &str, input: u64) {
        self.gpu
            .span_begin(SpanKind::Stage, &format!("aggregate:{label}"));
        self.window = (self.log_mark(), self.ledger.retries);
        self.cursor
            .open(&mut self.gpu, format!("agg/{label}"), input);
    }

    /// Close the aggregate window and lint what it logged, unless a step
    /// in it was retried or the partition answers on the CPU.
    fn end_agg(&mut self) -> EngineResult<()> {
        self.metrics.extend(self.cursor.close(&mut self.gpu));
        self.gpu.span_end(); // stage
        let (mark, retries) = self.window;
        if self.ledger.path == ResiliencePath::Cpu || self.ledger.retries != retries {
            return Ok(());
        }
        self.lint_since(mark)
    }

    /// One aggregate op as a ladder step on the partition's records and
    /// selection on the device; `None` means the CPU answers.
    fn on_device<T>(
        &mut self,
        mut op: impl FnMut(&mut Gpu, &GpuTable, Option<&Selection>) -> EngineResult<T>,
    ) -> EngineResult<Option<T>> {
        self.step(|p| op(&mut p.gpu, p.records.table()?, p.selection.as_ref()))
    }

    /// The partition's selected values of `column`, from the host slice
    /// (a resident partition answers on its device or fails).
    fn selected_values(&self, column: usize) -> EngineResult<impl Iterator<Item = u32> + '_> {
        let values = match &self.records {
            Records::Host { slice, .. } => slice.column_values(column)?,
            Records::Resident(..) => &[],
        };
        Ok(values
            .iter()
            .zip(&self.mask)
            .filter(|&(_, &selected)| selected)
            .map(|(&v, _)| v))
    }

    /// Partial sum of a column over the partition's selection.
    fn op_sum(&mut self, column: usize) -> EngineResult<u64> {
        if self.matched == 0 && self.selection.is_some() {
            // A selection that matched nothing sums to zero.
            return Ok(0);
        }
        if let Some(sum) =
            self.on_device(|gpu, table, sel| aggregate::sum(gpu, table, column, sel))?
        {
            return Ok(sum);
        }
        Ok(self.selected_values(column)?.map(u64::from).sum())
    }

    /// Open a global bit descent as Routine 4.5 opens on one device
    /// ([`kth::open_descent`]).
    fn op_begin_descent(&mut self, column: usize) -> EngineResult<()> {
        if self.matched == 0 {
            // A partition that selected nothing contributes zero to every
            // count; the copy-to-depth would be dead work.
            return Ok(());
        }
        self.on_device(|gpu, table, sel| kth::open_descent(gpu, table, column, sel))
            .map(drop)
    }

    /// One descent step: count selected records of `column` (already in
    /// depth on the device) with value `>= m`.
    fn op_count_ge(&mut self, column: usize, m: u32) -> EngineResult<u64> {
        if self.matched == 0 {
            return Ok(0);
        }
        if let Some(count) = self.on_device(|gpu, table, sel| kth::count_ge(gpu, table, sel, m))? {
            return Ok(count);
        }
        if self.descent.is_empty() {
            let values = self.selected_values(column)?.collect();
            self.descent = values;
        }
        Ok(self.descent.iter().filter(|&&v| v >= m).count() as u64)
    }

    /// Close a global bit descent: restore the default pipeline state.
    fn op_end_descent(&mut self) -> EngineResult<()> {
        self.descent.clear();
        if self.matched == 0 {
            return Ok(());
        }
        self.on_device(|gpu, _, _| {
            kth::close_descent(gpu);
            Ok(())
        })
        .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpudb_sim::{CompareFunc, FaultEvent, FaultKind};

    fn host_table(records: usize) -> HostTable {
        let a: Vec<u32> = (0..records as u32).map(|i| (i * 37 + 11) % 2000).collect();
        let b: Vec<u32> = (0..records as u32).map(|i| (i * 101 + 7) % 500).collect();
        HostTable::new("t", vec![("a", a), ("b", b)]).expect("host table")
    }

    fn full_query() -> Query {
        Query {
            aggregates: vec![
                Aggregate::Count,
                Aggregate::Sum("a".into()),
                Aggregate::Avg("b".into()),
                Aggregate::Min("a".into()),
                Aggregate::Max("b".into()),
                Aggregate::Median("a".into()),
                Aggregate::KthLargest("b".into(), 3),
            ],
            filter: Some(BoolExpr::pred("a", CompareFunc::Greater, 700)),
        }
    }

    fn single_device(host: &HostTable, query: &Query) -> QueryOutput {
        let mut gpu = GpuTable::device_for(host.record_count(), 16);
        let table = host.upload(&mut gpu).expect("upload");
        crate::query::executor::execute(&mut gpu, &table, query).expect("single-device execute")
    }

    #[test]
    fn plan_shards_covers_and_balances() {
        assert_eq!(plan_shards(0, 4), vec![(0, 0)]);
        assert_eq!(plan_shards(10, 1), vec![(0, 10)]);
        assert_eq!(plan_shards(10, 3), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(plan_shards(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        // Always a partition of 0..n.
        for n in [0usize, 1, 7, 100] {
            for shards in [1usize, 2, 3, 7, 16] {
                let ranges = plan_shards(n, shards);
                let mut cursor = 0;
                for &(start, end) in &ranges {
                    assert_eq!(start, cursor);
                    assert!(end >= start);
                    cursor = end;
                }
                assert_eq!(cursor, n);
            }
        }
    }

    #[test]
    fn sharded_matches_single_device_at_every_shard_count() {
        let host = host_table(137);
        let query = full_query();
        let reference = single_device(&host, &query);
        for shards in [1usize, 2, 3, 5, 16] {
            let opts = ShardOptions {
                shards,
                ..ShardOptions::default()
            };
            let out = execute_sharded(&host, &query, &opts).expect("sharded execute");
            assert_eq!(out.output.matched, reference.matched, "shards={shards}");
            assert_eq!(out.output.rows, reference.rows, "shards={shards}");
            assert_eq!(out.mask.len(), host.record_count());
            assert_eq!(out.report.shards.len(), plan_shards(137, shards).len());
        }
    }

    #[test]
    fn merged_cost_is_critical_path_plus_merge() {
        let host = host_table(64);
        let query = full_query();
        let opts = ShardOptions {
            shards: 4,
            ..ShardOptions::default()
        };
        let out = execute_sharded(&host, &query, &opts).expect("sharded execute");
        let slowest = out
            .report
            .shards
            .iter()
            .map(|s| s.modeled_ns)
            .max()
            .unwrap_or(0);
        assert!(slowest > 0);
        assert_eq!(
            out.report.merge_ns,
            merge_cost_ns(4, query.aggregates.len())
        );
        assert_eq!(out.report.merged_ns, slowest + out.report.merge_ns);
    }

    #[test]
    fn aggregate_errors_surface_in_select_order() {
        let host = host_table(32);
        // KthLargest with k=0 comes first: its InvalidK must win over the
        // later unknown column, exactly as single-device execution orders
        // them.
        let query = Query {
            aggregates: vec![
                Aggregate::KthLargest("a".into(), 0),
                Aggregate::Sum("nope".into()),
            ],
            filter: None,
        };
        let err = execute_sharded(&host, &query, &ShardOptions::default())
            .expect_err("invalid k must fail");
        assert!(matches!(err, EngineError::InvalidK { k: 0, .. }), "{err}");
    }

    #[test]
    fn single_shard_fault_degrades_only_that_shard() {
        let host = host_table(96);
        let query = full_query();
        let opts = ShardOptions {
            shards: 3,
            ..ShardOptions::default()
        };
        let reference = execute_sharded(&host, &query, &opts).expect("clean run");
        // Reset shard 1's device at t=0: it degrades to the CPU; the
        // others stay on the GPU and the merged answer is unchanged.
        let faults = vec![
            None,
            Some(FaultInjector::with_schedule(vec![FaultEvent {
                at_ns: 0,
                kind: FaultKind::DeviceReset,
            }])),
            None,
        ];
        let out = execute_sharded_with_faults(&host, &query, &opts, faults).expect("faulted run");
        assert_eq!(out.output.rows, reference.output.rows);
        assert_eq!(out.mask, reference.mask);
        assert_eq!(out.report.shards[0].path, ResiliencePath::Gpu);
        assert_eq!(out.report.shards[1].path, ResiliencePath::Cpu);
        assert_eq!(out.report.shards[2].path, ResiliencePath::Gpu);
        assert!(!out.report.shards[1].degradations.is_empty());
        assert!(out.report.shards[0].degradations.is_empty());
    }

    #[test]
    fn empty_table_executes_and_counts_zero() {
        let host = HostTable::new("t", vec![("a", Vec::new())]).expect("empty table");
        let query = Query {
            aggregates: vec![Aggregate::Count],
            filter: None,
        };
        let out = execute_sharded(&host, &query, &ShardOptions::default()).expect("empty run");
        assert_eq!(out.output.matched, 0);
        assert!(out.mask.is_empty());
        assert_eq!(
            out.output.rows,
            vec![("COUNT(*)".to_string(), AggValue::Count(0))]
        );
    }

    #[test]
    fn validate_and_trace_modes_hold_result_parity() {
        let host = host_table(80);
        let query = full_query();
        let reference = single_device(&host, &query);
        let opts = ShardOptions {
            shards: 3,
            options: ExecuteOptions {
                validate_plans: true,
                trace: Some(gpudb_obs::TraceLevel::Operators),
                ..ExecuteOptions::default()
            },
            ..ShardOptions::default()
        };
        let out = execute_sharded(&host, &query, &opts).expect("validated traced run");
        assert_eq!(out.output.rows, reference.rows);
        let trace = out.output.trace.expect("merged trace");
        assert_eq!(trace.roots.len(), 1);
        assert_eq!(trace.roots[0].children.len(), 3);
        assert_eq!(trace.roots[0].children[0].name, "shard-0");
    }
}
