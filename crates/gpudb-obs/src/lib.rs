//! # gpudb-obs — deterministic hierarchical tracing for gpudb
//!
//! The simulated device ([`gpudb_sim::device::Gpu`]) appends span begins
//! and ends, draws and instant events to its
//! [`DeviceLog`](gpudb_sim::log::DeviceLog), stamped on the **modeled
//! clock** (cumulative modeled cost in nanoseconds) rather than wall
//! clock. [`SpanTree::from_log`] assembles any window of that log into a
//! tree (`query → plan stage → operator → pass/readback/upload`), and
//! three exporters render it:
//!
//! * [`chrome::trace_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * [`flame::folded`] — folded-stack lines for `flamegraph.pl` /
//!   `inferno-flamegraph`;
//! * [`jsonl::spans`] — one flat JSON object per span, for ad-hoc
//!   analysis with line-oriented tools.
//!
//! Because every timestamp derives from the deterministic cost model, two
//! runs of the same workload produce **byte-identical** exports; CI
//! enforces this on the smoke experiments.
//!
//! ## Example
//!
//! ```
//! use gpudb_obs::{SpanTree, TraceLevel};
//! use gpudb_sim::{Gpu, RecordMode, SpanKind};
//!
//! let mut gpu = Gpu::geforce_fx_5900(4, 4);
//! gpu.attach_log(RecordMode::RecordAndExecute);
//! gpu.span_begin(SpanKind::Operator, "count");
//! gpu.draw_full_quad(0.5).unwrap();
//! gpu.span_end();
//! let log = gpu.take_log().unwrap();
//! let tree = SpanTree::from_log(log.entries(), TraceLevel::Passes);
//! assert_eq!(tree.roots.len(), 1);
//! assert_eq!(tree.roots[0].children[0].name, "pass:fixed-function");
//! let json = gpudb_obs::chrome::trace_json(&tree);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chrome;
pub mod flame;
pub mod jsonl;

use gpudb_sim::log::{Entry, Event};
use gpudb_sim::span::SpanKind;
use gpudb_sim::stats::WorkCounters;
use serde::{Deserialize, Serialize};

/// A zero-duration event attached to a span (clear, occlusion begin, ...).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Event name, e.g. `clear:depth`.
    pub name: String,
    /// Free-form detail (often empty; occlusion ends carry the count).
    pub detail: String,
    /// Modeled-clock timestamp in nanoseconds.
    pub at_ns: u64,
}

/// One node of the span tree: a named interval on the modeled clock with
/// the device work it enclosed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Level in the hierarchy.
    pub kind: SpanKind,
    /// Span name, e.g. `filter/cnf` or `pass:TestBit`.
    pub name: String,
    /// Modeled clock at open, nanoseconds.
    pub start_ns: u64,
    /// Modeled clock at close, nanoseconds.
    pub end_ns: u64,
    /// Device work counters accumulated while the span was open.
    pub counters: WorkCounters,
    /// Instant events recorded inside this span (only at
    /// [`TraceLevel::Full`]).
    pub events: Vec<SpanEvent>,
    /// Child spans, in open order.
    pub children: Vec<Span>,
}

impl Span {
    /// Inclusive duration on the modeled clock.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration not covered by child spans (flamegraph "self time").
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(Span::duration_ns).sum();
        self.duration_ns().saturating_sub(children)
    }

    /// Number of spans in this subtree, including `self`.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(Span::span_count).sum::<usize>()
    }

    /// Depth-first visit of this subtree; `depth` starts at `0` for
    /// `self` and the `path` slice holds the names of the ancestors.
    fn walk_inner<'a>(&'a self, path: &mut Vec<&'a str>, f: &mut dyn FnMut(&'a Span, &[&str])) {
        f(self, path);
        path.push(&self.name);
        for child in &self.children {
            child.walk_inner(path, f);
        }
        path.pop();
    }
}

/// A forest of completed spans, as assembled by [`SpanTree::from_log`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanTree {
    /// Top-level spans, in open order.
    pub roots: Vec<Span>,
}

impl SpanTree {
    /// Assemble the spans of a window of a device log, keeping what
    /// `level` asks for. A filtered span is spliced out and its kept
    /// children move up; instant events are kept only at
    /// [`TraceLevel::Full`]; an end with nothing open is ignored; and
    /// spans an error path left open close at the last stamped span or
    /// instant clock, with a zero counter delta.
    pub fn from_log(entries: &[Entry], level: TraceLevel) -> SpanTree {
        let mut tree = SpanTree::default();
        // Open spans, each with whether `level` keeps it and its counters
        // at the begin.
        let mut stack: Vec<(Span, bool, WorkCounters)> = Vec::new();
        let mut last_ns = 0;
        for entry in entries {
            let now = entry.clock_ns;
            match &entry.event {
                Event::SpanBegin { kind, name } => {
                    let span = Span {
                        kind: *kind,
                        name: name.clone(),
                        start_ns: now,
                        end_ns: now,
                        counters: WorkCounters::default(),
                        events: Vec::new(),
                        children: Vec::new(),
                    };
                    stack.push((span, level.keeps(*kind), entry.counters));
                }
                Event::SpanEnd => tree.close(&mut stack, now, &entry.counters),
                Event::Instant { name, detail } => match stack.last_mut() {
                    Some((span, ..)) if level == TraceLevel::Full => span.events.push(SpanEvent {
                        name: name.clone(),
                        detail: detail.clone(),
                        at_ns: now,
                    }),
                    _ => {}
                },
                // Ops are not span events and leave `last_ns` alone.
                Event::Op(_) => continue,
            }
            last_ns = now;
        }
        while let Some(&(_, _, begin)) = stack.last() {
            tree.close(&mut stack, last_ns, &begin);
        }
        tree
    }

    /// Pop the innermost open span, stamp its end, and attach it (or, when
    /// `level` filtered it, its children) to its parent or the roots.
    fn close(
        &mut self,
        stack: &mut Vec<(Span, bool, WorkCounters)>,
        end_ns: u64,
        counters: &WorkCounters,
    ) {
        let Some((mut span, kept, begin)) = stack.pop() else {
            return;
        };
        span.end_ns = end_ns.max(span.start_ns);
        span.counters = counters.since(&begin);
        let dest = match stack.last_mut() {
            Some((parent, ..)) => &mut parent.children,
            None => &mut self.roots,
        };
        if kept {
            dest.push(span);
        } else {
            dest.append(&mut span.children);
        }
    }

    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(Span::span_count).sum()
    }

    /// Depth-first visit of every span. The callback receives the span and
    /// the names of its ancestors, outermost first.
    pub fn walk<'a>(&'a self, mut f: impl FnMut(&'a Span, &[&str])) {
        let mut path = Vec::new();
        for root in &self.roots {
            root.walk_inner(&mut path, &mut f);
        }
    }

    /// All spans of a given kind, in depth-first order.
    pub fn spans_of_kind(&self, kind: SpanKind) -> Vec<&Span> {
        let mut out = Vec::new();
        self.walk(|span, _| {
            if span.kind == kind {
                out.push(span);
            }
        });
        out
    }
}

/// Merge the per-shard traces of a sharded query into one tree: a
/// synthetic `query` root with one `shard-{i}` stage child per shard, in
/// shard order, each holding that shard's root spans.
///
/// Every shard device runs its own modeled clock starting at `t = 0`, so
/// shard timestamps overlap rather than interleave — which is exactly the
/// parallel-execution semantics. The root's extent is the slowest shard's
/// extent (the critical path) and its counters are the sum of all shard
/// work.
pub fn merge_shard_trees(shards: Vec<SpanTree>) -> SpanTree {
    let mut children = Vec::with_capacity(shards.len());
    let mut counters = WorkCounters::default();
    let mut end_ns = 0u64;
    for (i, tree) in shards.into_iter().enumerate() {
        let shard_end = tree.roots.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let shard_counters = tree
            .roots
            .iter()
            .fold(WorkCounters::default(), |acc, s| acc.plus(&s.counters));
        end_ns = end_ns.max(shard_end);
        counters = counters.plus(&shard_counters);
        children.push(Span {
            kind: SpanKind::Stage,
            name: format!("shard-{i}"),
            start_ns: 0,
            end_ns: shard_end,
            counters: shard_counters,
            events: Vec::new(),
            children: tree.roots,
        });
    }
    SpanTree {
        roots: vec![Span {
            kind: SpanKind::Query,
            name: "query".to_string(),
            start_ns: 0,
            end_ns,
            counters,
            events: Vec::new(),
            children,
        }],
    }
}

/// How much of the span hierarchy [`SpanTree::from_log`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Query, plan-stage, and operator spans only.
    Operators,
    /// Everything down to device leaves (passes, readbacks, uploads).
    Passes,
    /// All spans plus instant events (clears, occlusion markers).
    Full,
}

impl TraceLevel {
    /// Whether spans of `kind` are kept at this level.
    fn keeps(self, kind: SpanKind) -> bool {
        match self {
            TraceLevel::Operators => kind.depth() <= SpanKind::Operator.depth(),
            TraceLevel::Passes | TraceLevel::Full => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(draws: u64) -> WorkCounters {
        WorkCounters {
            draw_calls: draws,
            ..WorkCounters::default()
        }
    }

    #[test]
    fn merge_shard_trees_wraps_shards_under_one_query_root() {
        let shard = |end: u64, draws: u64| SpanTree {
            roots: vec![Span {
                kind: SpanKind::Stage,
                name: "selection".into(),
                start_ns: 0,
                end_ns: end,
                counters: counters(draws),
                events: Vec::new(),
                children: Vec::new(),
            }],
        };
        let merged = merge_shard_trees(vec![shard(100, 2), shard(250, 3)]);
        assert_eq!(merged.roots.len(), 1);
        let root = &merged.roots[0];
        assert_eq!(root.kind, SpanKind::Query);
        // Critical path: the slowest shard bounds the merged extent.
        assert_eq!(root.end_ns, 250);
        assert_eq!(root.counters.draw_calls, 5);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "shard-0");
        assert_eq!(root.children[1].name, "shard-1");
        assert_eq!(root.children[1].end_ns, 250);
        assert_eq!(root.children[0].children[0].name, "selection");
    }

    fn entry(clock_ns: u64, draws: u64, event: Event) -> Entry {
        Entry {
            clock_ns,
            counters: counters(draws),
            event,
        }
    }

    fn begin(kind: SpanKind, name: &str, clock_ns: u64, draws: u64) -> Entry {
        let name = name.to_string();
        entry(clock_ns, draws, Event::SpanBegin { kind, name })
    }

    fn end(clock_ns: u64, draws: u64) -> Entry {
        entry(clock_ns, draws, Event::SpanEnd)
    }

    fn instant(name: &str, clock_ns: u64) -> Entry {
        let (name, detail) = (name.to_string(), String::new());
        entry(clock_ns, 0, Event::Instant { name, detail })
    }

    #[test]
    fn from_log_nests_spans_and_diffs_counters() {
        let log = [
            begin(SpanKind::Query, "q", 0, 0),
            begin(SpanKind::Operator, "op", 10, 1),
            begin(SpanKind::Pass, "pass:TestBit", 10, 1),
            end(40, 2),
            instant("clear:depth", 40),
            end(50, 2),
            end(60, 2),
        ];
        let tree = SpanTree::from_log(&log, TraceLevel::Full);

        assert_eq!(tree.span_count(), 3);
        let q = &tree.roots[0];
        assert_eq!((q.start_ns, q.end_ns, q.duration_ns()), (0, 60, 60));
        assert_eq!(q.counters.draw_calls, 2);
        let op = &q.children[0];
        assert_eq!(op.name, "op");
        assert_eq!(op.counters.draw_calls, 1);
        assert_eq!(op.self_ns(), 40 - 30);
        assert_eq!(
            op.events,
            vec![SpanEvent {
                name: "clear:depth".into(),
                detail: "".into(),
                at_ns: 40,
            }]
        );
        let pass = &op.children[0];
        assert_eq!(pass.duration_ns(), 30);
        assert_eq!(pass.self_ns(), 30);
    }

    #[test]
    fn operator_level_splices_out_pass_leaves() {
        let log = [
            begin(SpanKind::Operator, "op", 0, 0),
            begin(SpanKind::Pass, "pass:A", 0, 0),
            end(5, 1),
            instant("clear:depth", 5),
            end(9, 1),
        ];
        let tree = SpanTree::from_log(&log, TraceLevel::Operators);
        assert_eq!(tree.span_count(), 1);
        let op = &tree.roots[0];
        assert!(op.children.is_empty());
        assert!(op.events.is_empty(), "events dropped below Full");
        assert_eq!(op.duration_ns(), 9);
    }

    #[test]
    fn unbalanced_entries_are_tolerated() {
        let log = [
            end(5, 0), // end with nothing open: ignored
            begin(SpanKind::Query, "q", 10, 0),
            begin(SpanKind::Operator, "op", 20, 3),
            instant("fault:device-reset", 25),
            // Ops move no span clock.
            entry(40, 3, Event::Op(gpudb_sim::PassOp::ResetState)),
        ];
        // Both open spans close at the last stamped clock, with a zero
        // counter delta.
        let tree = SpanTree::from_log(&log, TraceLevel::Passes);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].end_ns, 25);
        assert_eq!(tree.roots[0].counters, WorkCounters::default());
        assert_eq!(tree.roots[0].children[0].end_ns, 25);
    }

    #[test]
    fn tree_walk_reports_paths() {
        let log = [
            begin(SpanKind::Query, "q", 0, 0),
            begin(SpanKind::Operator, "op", 0, 0),
            end(1, 0),
            end(2, 0),
        ];
        let tree = SpanTree::from_log(&log, TraceLevel::Passes);
        let mut seen = Vec::new();
        tree.walk(|span, path| seen.push((span.name.clone(), path.join(";"))));
        assert_eq!(
            seen,
            vec![
                ("q".to_string(), String::new()),
                ("op".to_string(), "q".to_string())
            ]
        );
        assert_eq!(tree.spans_of_kind(SpanKind::Operator).len(), 1);
    }
}
