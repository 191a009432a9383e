//! Sharded multi-device parallel execution: the partition coordinator.
//!
//! Following the partition-parallel designs of tile-based GPU analytics
//! engines, a query is executed by splitting the table into contiguous
//! row-range shards, giving every shard its own simulated device (own
//! modeled clock, own framebuffer, own recovery ladder), driving the
//! shards' selection and aggregate passes from one coordinator, and
//! merging per-shard partial results exactly:
//!
//! * selection bitmaps concatenate in shard order;
//! * `COUNT`/`SUM` add, `AVG` divides the merged sum by the merged count,
//!   `MIN`/`MAX` fold per-shard extrema;
//! * order statistics (`KthLargest`, `KthSmallest`, `MEDIAN`,
//!   `PERCENTILE`) run the paper's Routine 4.5 bit descent *globally*:
//!   the coordinator walks bits MSB-first and each shard answers the
//!   per-bit `count >= m` occlusion query on its partition, so the
//!   summed counts equal the single-device counts and Lemma 1 applies
//!   unchanged.
//!
//! The merged result is therefore byte-identical to single-device
//! execution at every shard count — the property the
//! `sharded_equivalence` differential suite pins down. The same
//! coordinator is the out-of-core rung of
//! [`crate::resilience::execute_resilient`]: after an allocation failure
//! it re-runs the query over [`RetryPolicy::oom_chunks`] partitions.
//!
//! ## Determinism
//!
//! The coordinator calls each shard's worker directly on the calling
//! thread, in shard order, so determinism holds by construction: there
//! is no scheduling to leak into any result. Every shard device starts
//! its modeled clock at `t = 0`, and the modeled merge cost
//! ([`merge_cost_ns`]) is a pure function of the shard and aggregate
//! counts. Host parallelism comes from inside each draw: the simulator
//! runs a draw's framebuffer row tiles on every host core.
//!
//! ## Resilience
//!
//! Each shard runs the same recovery ladder as
//! [`crate::resilience::execute_resilient`] for its selection phase
//! (retry transient faults with modeled backoff, fall back to the CPU
//! oracle on resource/device faults), and degrades to the CPU for the
//! remainder of the query if a fault lands mid-aggregate. A fault on one
//! shard never disturbs the others.

use crate::aggregate;
use crate::cpu_oracle::{self, HostTable};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{self, MetricsRecord};
use crate::predicate::{comparison_pass, copy_to_depth, OcclusionMode};
use crate::query::ast::{Aggregate, BoolExpr, Query};
use crate::query::executor::{
    execute_selection, lint_plans, plan_operator, AggValue, ExecuteOptions, QueryOutput,
};
use crate::query::planner::plan_selection;
use crate::resilience::{marker_record, ResiliencePath, RetryPolicy, RetryStep};
use crate::selection::{Selection, SELECTED};
use crate::table::GpuTable;
use gpudb_obs::{merge_shard_trees, SpanTree};
use gpudb_sim::span::SpanKind;
use gpudb_sim::{
    CompareFunc, FaultClass, FaultInjector, Gpu, Phase, PhaseNanos, RecordMode, StencilOp,
};

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

/// What one shard did: its row range, the path it answered on, and its
/// recovery and cost ledger.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// First row of the shard's range.
    pub start: usize,
    /// Number of records in the shard.
    pub records: usize,
    /// Where the shard's answers came from.
    pub path: ResiliencePath,
    /// Selection attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Transient retries among those attempts.
    pub retries: u32,
    /// Human-readable log of every degradation step taken.
    pub degradations: Vec<String>,
    /// The shard device's total modeled time, nanoseconds.
    pub modeled_ns: u64,
}

/// The merged cost picture of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Per-shard ledgers, in shard order.
    pub shards: Vec<ShardRun>,
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
    let mut workers: Vec<Worker> = ranges
        .iter()
        .zip(faults)
        .map(|(&(start, end), fault)| Worker::new(host.slice(start, end), query, opts, fault))
        .collect();

    // Phase 1: every shard plans and executes its own selection, in
    // shard order, so the first failing shard's error surfaces.
    let mut matched_total = 0u64;
    let mut mask = Vec::with_capacity(n);
    for worker in &mut workers {
        worker.run_selection()?;
        matched_total += worker.matched;
        mask.extend_from_slice(&worker.mask);
    }

    // Phase 2: aggregates, strictly in SELECT order — validation errors
    // (unknown column, invalid k, empty input) surface in exactly the
    // order single-device execution reports them.
    let mut rows = Vec::with_capacity(query.aggregates.len());
    for agg in &query.aggregates {
        let label = agg.label();
        for worker in &mut workers {
            worker.begin_agg(&label, matched_total);
        }
        let value = merge_aggregate(host, agg, matched_total, &mut workers)?;
        for worker in &mut workers {
            worker.end_agg()?;
        }
        rows.push((label, value));
    }

    // Finish: collect per-shard ledgers in shard order.
    let mut all_metrics: Vec<MetricsRecord> = Vec::new();
    let mut timing = PhaseNanos::default();
    let mut shards = Vec::with_capacity(workers.len());
    let mut traces = Vec::new();
    for (worker, &(start, end)) in workers.into_iter().zip(&ranges) {
        if let (Some(level), Some(log)) = (opts.options.trace, worker.gpu.log()) {
            traces.push(SpanTree::from_log(log.entries(), level));
        }
        let modeled = worker.gpu.stats().modeled;
        timing = timing.plus(&modeled);
        all_metrics.extend(worker.metrics);
        shards.push(ShardRun {
            start,
            records: end - start,
            path: worker.path,
            attempts: worker.attempts,
            retries: worker.retries,
            degradations: worker.degradations,
            modeled_ns: modeled.total(),
        });
    }
    all_metrics.push(marker_record("parallel/merge", n as u64));

    let merge_ns = merge_cost_ns(shards.len(), query.aggregates.len());
    let merged_ns = shards.iter().map(|s| s.modeled_ns).max().unwrap_or(0) + merge_ns;
    let trace = if traces.is_empty() {
        None
    } else {
        Some(merge_shard_trees(traces))
    };
    let selectivity = if n == 0 {
        0.0
    } else {
        matched_total as f64 / n as f64
    };
    Ok(ShardedOutput {
        output: QueryOutput {
            matched: matched_total,
            selectivity,
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

/// Validate and compute one aggregate from per-shard partials, matching
/// single-device semantics (and error ordering) exactly.
fn merge_aggregate(
    host: &HostTable,
    agg: &Aggregate,
    matched: u64,
    workers: &mut [Worker],
) -> EngineResult<AggValue> {
    Ok(match agg {
        Aggregate::Count => AggValue::Count(matched),
        Aggregate::Sum(col) => {
            let idx = host.column_index(col)?;
            AggValue::Sum(
                workers
                    .iter_mut()
                    .map(|w| w.op_sum(idx))
                    .sum::<EngineResult<u64>>()?,
            )
        }
        Aggregate::Avg(col) => {
            let idx = host.column_index(col)?;
            if matched == 0 {
                return Err(EngineError::EmptyInput);
            }
            let sum = workers
                .iter_mut()
                .map(|w| w.op_sum(idx))
                .sum::<EngineResult<u64>>()?;
            AggValue::Avg(sum as f64 / matched as f64)
        }
        Aggregate::Min(col) | Aggregate::Max(col) => {
            let idx = host.column_index(col)?;
            if matched == 0 {
                return Err(EngineError::InvalidK { k: 1, available: 0 });
            }
            let is_min = matches!(agg, Aggregate::Min(_));
            let mut best: Option<u32> = None;
            for worker in workers.iter_mut() {
                best = match (best, worker.op_extremum(idx, is_min)?) {
                    (Some(a), Some(b)) => Some(if is_min { a.min(b) } else { a.max(b) }),
                    (a, b) => a.or(b),
                };
            }
            AggValue::Value(best.ok_or(EngineError::InvalidK {
                k: 1,
                available: matched,
            })?)
        }
        Aggregate::KthLargest(col, k) => {
            let idx = host.column_index(col)?;
            if *k == 0 || *k as u64 > matched {
                return Err(EngineError::InvalidK {
                    k: *k,
                    available: matched,
                });
            }
            AggValue::Value(descend(host, workers, idx, *k)?)
        }
        Aggregate::KthSmallest(col, k) => {
            let idx = host.column_index(col)?;
            if *k == 0 || *k as u64 > matched {
                return Err(EngineError::InvalidK {
                    k: *k,
                    available: matched,
                });
            }
            AggValue::Value(descend(host, workers, idx, matched as usize + 1 - k)?)
        }
        Aggregate::Median(col) => {
            let idx = host.column_index(col)?;
            if matched == 0 {
                return Err(EngineError::EmptyInput);
            }
            let rank = (matched as usize).div_ceil(2);
            AggValue::Value(descend(host, workers, idx, matched as usize + 1 - rank)?)
        }
        Aggregate::Percentile(col, p) => {
            let idx = host.column_index(col)?;
            if matched == 0 {
                return Err(EngineError::EmptyInput);
            }
            let rank =
                ((p.clamp(0.0, 1.0) * matched as f64).ceil() as usize).clamp(1, matched as usize);
            AggValue::Value(descend(host, workers, idx, matched as usize + 1 - rank)?)
        }
    })
}

/// The global bit descent of Routine 4.5, distributed: the coordinator
/// fixes one bit of the answer per round; every shard contributes its
/// partial `count >= m` from its own comparison pass, and the counts
/// add because the shards partition the records.
///
/// The bit width is derived from the full column's maximum — the same
/// `32 - leading_zeros(max)` that [`crate::table::ColumnMeta`] stores —
/// so the descent runs the identical bit sequence as one device would.
fn descend(host: &HostTable, workers: &mut [Worker], column: usize, k: usize) -> EngineResult<u32> {
    for worker in workers.iter_mut() {
        worker.op_begin_descent(column)?;
    }
    let max = host
        .column_values(column)?
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    let bits = 32 - max.leading_zeros();
    let mut x = 0u32;
    for i in (0..bits).rev() {
        let m = x + (1 << i);
        let count = workers
            .iter_mut()
            .map(|w| w.op_count_ge(column, m))
            .sum::<EngineResult<u64>>()?;
        if count > (k - 1) as u64 {
            x = m;
        }
    }
    Ok(x)
}

// ---------------------------------------------------------------------
// Shard worker
// ---------------------------------------------------------------------

/// Where a shard's aggregate answers come from after phase 1.
enum Backend {
    /// Data lives on the shard device; `selection` masks the aggregates.
    Gpu {
        table: GpuTable,
        selection: Option<Selection>,
    },
    /// The shard degraded: answers come from the host slice + mask.
    Cpu,
}

/// An open aggregate measurement window (counter snapshot and log
/// mark at [`Worker::begin_agg`]).
struct AggWindow {
    label: String,
    mark: usize,
    input: u64,
    counters: gpudb_sim::WorkCounters,
    modeled: PhaseNanos,
}

/// One shard: its own device, modeled clock and recovery ladder. The
/// coordinator drives every worker directly, in shard order.
struct Worker<'q> {
    gpu: Gpu,
    slice: HostTable,
    filter: Option<&'q BoolExpr>,
    options: ExecuteOptions,
    policy: &'q RetryPolicy,
    backend: Backend,
    mask: Vec<bool>,
    matched: u64,
    path: ResiliencePath,
    attempts: u32,
    retries: u32,
    degradations: Vec<String>,
    metrics: Vec<MetricsRecord>,
    window: Option<AggWindow>,
}

/// Restrict a descent comparison pass to the shard's selection — the
/// read-only stencil mask of Routine 4.5.
fn arm_mask(gpu: &mut Gpu, masked: bool) {
    if masked {
        gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
    } else {
        gpu.set_stencil_func(false, CompareFunc::Always, 0, 0xFF);
    }
}

impl<'q> Worker<'q> {
    fn new(
        slice: HostTable,
        query: &'q Query,
        opts: &'q ShardOptions,
        fault: Option<FaultInjector>,
    ) -> Worker<'q> {
        let mut gpu = GpuTable::device_for(slice.record_count(), opts.device_width);
        if let Some(injector) = fault {
            gpu.attach_fault_injector(injector);
        }
        // One log per shard device for the whole statement: validation
        // lints the windows of the attempts that succeeded, and tracing
        // renders all of it.
        if opts.options.validate_plans || opts.options.trace.is_some() {
            gpu.attach_log(RecordMode::RecordAndExecute);
        }
        Worker {
            gpu,
            slice,
            filter: query.filter.as_ref(),
            options: opts.options,
            policy: &opts.policy,
            backend: Backend::Cpu,
            mask: Vec::new(),
            matched: 0,
            path: ResiliencePath::Gpu,
            attempts: 0,
            retries: 0,
            degradations: Vec::new(),
            metrics: Vec::new(),
            window: None,
        }
    }

    /// Where a window of the shard's log starts (0 without a log).
    fn log_mark(&self) -> usize {
        self.gpu.log().map_or(0, |log| log.entries().len())
    }

    /// Lint the plans logged since `mark`, when validating. Only windows
    /// whose routine ran to completion are linted: a failed attempt or a
    /// mid-aggregate degradation may leave unpaired occlusion ops that
    /// would trip the linter spuriously.
    fn lint_since(&self, mark: usize) -> EngineResult<()> {
        match self.gpu.log() {
            Some(log) if self.options.validate_plans => lint_plans(&log.plans_since(mark)),
            _ => Ok(()),
        }
    }

    /// The selection recovery ladder, mirroring
    /// [`crate::resilience::execute_resilient`]: retry transients with
    /// modeled backoff, fall back to the CPU oracle on resource/device
    /// faults or retry exhaustion (when the policy allows), surface
    /// logic errors untouched.
    fn run_selection(&mut self) -> EngineResult<()> {
        let max_attempts = self.policy.max_attempts.max(1);
        loop {
            self.attempts += 1;
            let error = match self.selection_attempt() {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            match error.fault_class() {
                FaultClass::Logic => return Err(error),
                FaultClass::Transient if self.attempts < max_attempts => {
                    self.retries += 1;
                    let step = RetryStep::charge(
                        &mut self.gpu,
                        self.policy,
                        self.retries,
                        self.slice.record_count() as u64,
                        &error,
                    );
                    self.metrics.push(step.record);
                    self.degradations.push(step.degradation);
                }
                FaultClass::Transient => {
                    let exhausted = EngineError::RetriesExhausted {
                        attempts: self.attempts,
                        last: Box::new(error),
                    };
                    if !self.policy.cpu_fallback {
                        return Err(exhausted);
                    }
                    self.degradations
                        .push(format!("{exhausted}; shard answering on the CPU"));
                    return self.cpu_fallback();
                }
                class => {
                    if !self.policy.cpu_fallback {
                        return Err(error);
                    }
                    let kind = if class == FaultClass::Resource {
                        "resource"
                    } else {
                        "device"
                    };
                    self.degradations.push(format!(
                        "{kind} fault ({error}); shard answering on the CPU"
                    ));
                    return self.cpu_fallback();
                }
            }
        }
    }

    /// One selection attempt: upload the slice, plan, execute (fused by
    /// default), lint the recorded plan when validating, and read back
    /// the per-record mask. On success the uploaded table and selection
    /// stay resident for the aggregate phase.
    fn selection_attempt(&mut self) -> EngineResult<()> {
        let table = self.slice.upload(&mut self.gpu)?;
        match self.selection_on(&table) {
            Ok((selection, matched, mask, record)) => {
                self.metrics.push(record);
                self.matched = matched;
                self.mask = mask;
                self.backend = Backend::Gpu { table, selection };
                Ok(())
            }
            Err(e) => {
                // Best-effort free: on a reset device this may fail too.
                let _ = table.free(&mut self.gpu);
                Err(e)
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn selection_on(
        &mut self,
        table: &GpuTable,
    ) -> EngineResult<(Option<Selection>, u64, Vec<bool>, MetricsRecord)> {
        let plan = plan_selection(table, self.filter)?;
        let mark = self.log_mark();
        self.gpu.span_begin(SpanKind::Stage, "selection");
        let fuse = self.options.fuse_passes;
        let (result, record) = metrics::observe(
            &mut self.gpu,
            plan_operator(&plan),
            table.record_count() as u64,
            |gpu| execute_selection(gpu, table, &plan, fuse),
        );
        self.gpu.span_end();
        let (selection, matched) = result?;
        self.lint_since(mark)?;
        let mask = match &selection {
            Some(sel) => sel.read_mask(&mut self.gpu)?,
            None => vec![true; table.record_count()],
        };
        Ok((selection, matched, mask, record))
    }

    /// Answer the whole shard from the CPU oracle.
    fn cpu_fallback(&mut self) -> EngineResult<()> {
        let bitmap = cpu_oracle::filter_mask(&self.slice, self.filter)?;
        let records = self.slice.record_count();
        self.mask = (0..records).map(|i| bitmap.get(i)).collect();
        self.matched = bitmap.count_ones() as u64;
        self.backend = Backend::Cpu;
        self.path = ResiliencePath::Cpu;
        self.metrics
            .push(marker_record("parallel/shard-cpu", records as u64));
        Ok(())
    }

    /// Degrade the rest of this shard's query to the CPU, or surface the
    /// error when it is a logic fault or the policy forbids fallback.
    fn degrade_or(&mut self, error: EngineError) -> EngineResult<()> {
        if error.fault_class() == FaultClass::Logic || !self.policy.cpu_fallback {
            return Err(error);
        }
        self.degradations.push(format!(
            "aggregate fault ({error}); shard answering on the CPU"
        ));
        self.metrics.push(marker_record(
            "parallel/shard-cpu",
            self.slice.record_count() as u64,
        ));
        self.path = ResiliencePath::Cpu;
        self.backend = Backend::Cpu;
        Ok(())
    }

    /// Open an aggregate window (span + metrics); `input` is the merged
    /// matched count, recorded as the aggregate's input size.
    fn begin_agg(&mut self, label: &str, input: u64) {
        self.gpu
            .span_begin(SpanKind::Stage, &format!("aggregate:{label}"));
        let mark = self.log_mark();
        self.gpu
            .span_begin(SpanKind::Operator, &format!("agg/{label}"));
        self.window = Some(AggWindow {
            label: label.to_string(),
            mark,
            input,
            counters: self.gpu.stats().counters(),
            modeled: self.gpu.stats().modeled,
        });
    }

    /// Close the aggregate window and lint what it logged, unless the
    /// shard degraded to the CPU (before or inside the window).
    fn end_agg(&mut self) -> EngineResult<()> {
        self.gpu.span_end(); // operator
        let mut lint = Ok(());
        if let Some(window) = self.window.take() {
            if matches!(self.backend, Backend::Gpu { .. }) {
                lint = self.lint_since(window.mark);
            }
            let counters = self.gpu.stats().counters().since(&window.counters);
            self.metrics.push(MetricsRecord {
                operator: format!("agg/{}", window.label),
                input_records: window.input,
                counters,
                modeled_ns: self.gpu.stats().modeled.since(&window.modeled),
            });
        }
        self.gpu.span_end(); // stage
        self.gpu.reset_state();
        lint
    }

    /// Run `op` on the shard device when the data is resident there.
    /// `None` means the CPU answers: the shard had already degraded, or
    /// `op` faulted and the shard degrades now.
    fn on_device<T>(
        &mut self,
        op: impl FnOnce(&mut Gpu, &GpuTable, Option<&Selection>) -> EngineResult<T>,
    ) -> EngineResult<Option<T>> {
        let result = match &self.backend {
            Backend::Gpu { table, selection } => op(&mut self.gpu, table, selection.as_ref()),
            Backend::Cpu => return Ok(None),
        };
        match result {
            Ok(v) => Ok(Some(v)),
            Err(e) => self.degrade_or(e).map(|()| None),
        }
    }

    /// The shard's selected values of `column`, from the host slice.
    fn selected_values(&self, column: usize) -> EngineResult<impl Iterator<Item = u32> + '_> {
        let values = self.slice.column_values(column)?;
        Ok(values
            .iter()
            .zip(&self.mask)
            .filter(|&(_, &selected)| selected)
            .map(|(&v, _)| v))
    }

    /// Partial sum of a column over the shard's selection.
    fn op_sum(&mut self, column: usize) -> EngineResult<u64> {
        if self.matched == 0 {
            return Ok(0);
        }
        if let Some(sum) =
            self.on_device(|gpu, table, sel| aggregate::sum(gpu, table, column, sel))?
        {
            return Ok(sum);
        }
        Ok(self.selected_values(column)?.map(u64::from).sum())
    }

    /// Partial MIN/MAX of a column over the shard's selection; `None`
    /// when the shard selected no records.
    fn op_extremum(&mut self, column: usize, is_min: bool) -> EngineResult<Option<u32>> {
        if self.matched == 0 {
            return Ok(None);
        }
        let on_device = self.on_device(|gpu, table, sel| {
            if is_min {
                aggregate::min(gpu, table, column, sel)
            } else {
                aggregate::max(gpu, table, column, sel)
            }
        })?;
        if on_device.is_some() {
            return Ok(on_device);
        }
        let selected = self.selected_values(column)?;
        Ok(if is_min {
            selected.min()
        } else {
            selected.max()
        })
    }

    /// Copy a column to depth in preparation for a global bit descent.
    fn op_begin_descent(&mut self, column: usize) -> EngineResult<()> {
        if self.matched == 0 {
            // An all-filtered shard contributes zero to every count; the
            // copy-to-depth would be dead work.
            return Ok(());
        }
        self.on_device(|gpu, table, _| copy_to_depth(gpu, table, column))?;
        Ok(())
    }

    /// One descent step: count selected records of `column` (already in
    /// depth on the device) with value `>= m`.
    fn op_count_ge(&mut self, column: usize, m: u32) -> EngineResult<u64> {
        if self.matched == 0 {
            return Ok(0);
        }
        let on_device = self.on_device(|gpu, table, sel| {
            gpu.set_phase(Phase::Compute);
            arm_mask(gpu, sel.is_some());
            comparison_pass(
                gpu,
                table,
                CompareFunc::GreaterEqual,
                m,
                OcclusionMode::Sync,
            )
        })?;
        if let Some(count) = on_device {
            return Ok(count);
        }
        Ok(self.selected_values(column)?.filter(|&v| v >= m).count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpudb_sim::{FaultEvent, FaultKind};

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
