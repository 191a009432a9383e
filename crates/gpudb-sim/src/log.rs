//! The device event log: one append-only record of everything the device
//! was asked to do, and when.
//!
//! Each of the paper's routines (Compare §4.1 through Accumulator §4.6)
//! is one sequence of state changes, draws, occlusion queries and
//! readbacks. A [`DeviceLog`] attached to [`crate::Gpu`] keeps that
//! sequence as [`Entry`]s, each stamped with the integer modeled clock
//! and the device's cumulative [`WorkCounters`]. A draw is its
//! [`PassOp::Draw`] followed, once it has run, by the begin and end of
//! its pass span, which carry its start and end clock. Two views are
//! derived from any window `mark..` of the log:
//!
//! * [`DeviceLog::plans_since`] — the [`PassPlan`]s `gpudb-lint` checks,
//!   one per operator span;
//! * `gpudb_obs::SpanTree::from_log` — the `query → stage → operator →
//!   pass` span tree the exporters render.
//!
//! Stamps are modeled nanoseconds, never wall clock, so both views are
//! byte-identical across runs. In [`RecordMode::RecordAndExecute`]
//! logging is passive: results, statistics and modeled costs equal an
//! unlogged run. In [`RecordMode::RecordOnly`] the device validates
//! arguments and logs ops but skips rasterization, framebuffer mutation,
//! cost accounting and fault polling — a dry run that yields the plan.

use crate::span::SpanKind;
use crate::stats::WorkCounters;
use crate::trace::{DeviceCaps, PassOp, PassPlan};
use serde::{Deserialize, Serialize};

/// How a [`DeviceLog`] interacts with device execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordMode {
    /// Log every op while executing normally; results and modeled costs
    /// are unchanged by logging.
    RecordAndExecute,
    /// Log ops without executing draws, clears, copies or cost
    /// accounting. Argument validation (rect bounds, texture bindings,
    /// occlusion-query pairing) still applies, so a record-only run
    /// catches the same device errors a real run would.
    RecordOnly,
}

/// What happened at one [`Entry`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A state change, clear, draw, occlusion query, readback or copy.
    Op(PassOp),
    /// A span opens: caller spans (query, stage, operator) through
    /// [`crate::Gpu::span_begin`], device spans around draws, readbacks,
    /// uploads and on-card copies. An operator span starts a pass plan.
    SpanBegin {
        /// Level in the span hierarchy.
        kind: SpanKind,
        /// Span name.
        name: String,
    },
    /// The most recently opened span closes.
    SpanEnd,
    /// A zero-duration event: a clear, an occlusion marker, a fault or a
    /// retry backoff.
    Instant {
        /// Event name, e.g. `clear:depth`.
        name: String,
        /// Free-form detail (occlusion ends carry the count).
        detail: String,
    },
}

/// One log entry, stamped when it was logged.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Modeled clock, nanoseconds.
    pub clock_ns: u64,
    /// Cumulative work counters.
    pub counters: WorkCounters,
    /// What happened.
    pub event: Event,
}

/// An append-only log of device events; see the module docs.
#[derive(Debug, Clone)]
pub struct DeviceLog {
    pub(crate) mode: RecordMode,
    caps: DeviceCaps,
    entries: Vec<Entry>,
}

impl DeviceLog {
    /// An empty log for a device with the given capabilities.
    pub(crate) fn new(mode: RecordMode, caps: DeviceCaps) -> DeviceLog {
        DeviceLog {
            mode,
            caps,
            entries: Vec::new(),
        }
    }

    /// Every entry, in logging order. A caller keeps `entries().len()`
    /// as the mark where its own window of the log starts.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    pub(crate) fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// The pass plans of the entries from `mark` on: an operator span's
    /// begin starts a plan labeled with its name, and ops stay in that
    /// plan until the next operator begins. Ops before the first operator
    /// go into a plan labeled `"untitled"`; empty plans are dropped.
    pub fn plans_since(&self, mark: usize) -> Vec<PassPlan> {
        let mut plans = vec![PassPlan::new("untitled", self.caps)];
        for entry in self.entries.iter().skip(mark) {
            match &entry.event {
                Event::Op(op) => {
                    if let Some(plan) = plans.last_mut() {
                        plan.ops.push(op.clone());
                    }
                }
                Event::SpanBegin {
                    kind: SpanKind::Operator,
                    name,
                } => plans.push(PassPlan::new(name, self.caps)),
                _ => {}
            }
        }
        plans.retain(|plan| !plan.ops.is_empty());
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_spans_delimit_plans() {
        let caps = DeviceCaps {
            has_depth_bounds: true,
            has_depth_compare_mask: false,
        };
        let mut log = DeviceLog::new(RecordMode::RecordAndExecute, caps);
        let operator = |name: &str| Event::SpanBegin {
            kind: SpanKind::Operator,
            name: name.to_string(),
        };
        for event in [
            Event::Op(PassOp::ResetState),
            operator("empty"),
            operator("a"),
            Event::Op(PassOp::ClearStencil { value: 0 }),
            Event::SpanEnd,
            Event::Op(PassOp::BeginOcclusionQuery),
            Event::SpanBegin {
                kind: SpanKind::Stage,
                name: "stage".into(),
            },
            operator("b"),
            Event::Op(PassOp::EndOcclusionQuery { sync: true }),
        ] {
            log.push(Entry {
                clock_ns: 0,
                counters: WorkCounters::default(),
                event,
            });
        }
        let shape = |mark| -> Vec<(String, usize)> {
            let plans = log.plans_since(mark);
            plans.into_iter().map(|p| (p.label, p.ops.len())).collect()
        };
        let own = |label: &str, ops| (label.to_string(), ops);
        // Ops before the first operator are untitled, an operator's plan
        // runs on past its span's end, and the empty plan is dropped.
        assert_eq!(shape(0), [own("untitled", 1), own("a", 2), own("b", 1)]);
        // A window starting mid-plan opens with an untitled plan.
        assert_eq!(shape(5), [own("untitled", 1), own("b", 1)]);
        assert!(shape(99).is_empty());
    }
}
