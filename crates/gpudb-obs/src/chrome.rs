//! Chrome trace-event JSON export.
//!
//! Produces the [Trace Event Format] consumed by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`: one complete
//! (`"ph":"X"`) event per span and one instant (`"ph":"i"`) event per
//! [`SpanEvent`](crate::SpanEvent). Timestamps are microseconds with
//! fixed three-decimal nanosecond precision, derived from the modeled
//! clock, so the output is byte-identical across runs.
//!
//! The vendored `serde_json` has no dynamic `Value` type, so the JSON is
//! assembled by hand; `escape` handles string escaping.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{Span, SpanTree};
use gpudb_sim::stats::WorkCounters;
use std::fmt::Write;

/// Render a span tree as a Chrome trace-event JSON document.
pub fn trace_json(tree: &SpanTree) -> String {
    let mut events = Vec::new();
    tree.walk(|span, path| push_span(&mut events, span, path.len()));
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Microseconds with three decimals (exact nanoseconds), the unit the
/// trace-event format expects.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// JSON string escaping for the hand-assembled document.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Non-zero counters as JSON `"key":value` pairs, in a fixed field order.
fn counter_args(counters: &WorkCounters) -> String {
    let fields: [(&str, u64); 9] = [
        ("fragments_generated", counters.fragments_generated),
        ("fragments_shaded", counters.fragments_shaded),
        (
            "fragments_early_rejected",
            counters.fragments_early_rejected,
        ),
        ("fragments_passed", counters.fragments_passed),
        ("program_instructions", counters.program_instructions),
        ("draw_calls", counters.draw_calls),
        ("occlusion_readbacks", counters.occlusion_readbacks),
        ("bytes_uploaded", counters.bytes_uploaded),
        ("bytes_read_back", counters.bytes_read_back),
    ];
    fields
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, v)| format!(",\"{k}\":{v}"))
        .collect()
}

fn push_span(events: &mut Vec<String>, span: &Span, depth: usize) {
    events.push(format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":1,\"tid\":1,\"args\":{{\"depth\":{}{}}}}}",
        escape(&span.name),
        span.kind.name(),
        micros(span.start_ns),
        micros(span.duration_ns()),
        depth,
        counter_args(&span.counters),
    ));
    for event in &span.events {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
             \"pid\":1,\"tid\":1,\"args\":{{\"detail\":\"{}\"}}}}",
            escape(&event.name),
            micros(event.at_ns),
            escape(&event.detail),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanEvent, TraceLevel};
    use gpudb_sim::span::SpanKind;

    fn tiny_tree() -> SpanTree {
        SpanTree {
            roots: vec![Span {
                kind: SpanKind::Operator,
                name: "filter/\"cnf\"".to_string(),
                start_ns: 1_234,
                end_ns: 5_678,
                counters: WorkCounters {
                    draw_calls: 3,
                    ..WorkCounters::default()
                },
                events: vec![SpanEvent {
                    name: "clear:depth".to_string(),
                    detail: "a\nb".to_string(),
                    at_ns: 2_000,
                }],
                children: Vec::new(),
            }],
        }
    }

    #[test]
    fn emits_complete_and_instant_events() {
        let json = trace_json(&tiny_tree());
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.234"));
        assert!(json.contains("\"dur\":4.444"));
        assert!(json.contains("\"draw_calls\":3"));
        assert!(!json.contains("fragments_shaded"), "zero counters omitted");
    }

    #[test]
    fn escapes_quotes_and_control_characters() {
        let json = trace_json(&tiny_tree());
        assert!(json.contains("filter/\\\"cnf\\\""));
        assert!(json.contains("a\\nb"));
    }

    #[test]
    fn micros_formats_exact_nanoseconds() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000), "1.000");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn export_is_deterministic_for_a_real_device() {
        use gpudb_sim::device::Gpu;
        let run = || {
            let mut gpu = Gpu::geforce_fx_5900(8, 8);
            gpu.attach_log(gpudb_sim::RecordMode::RecordAndExecute);
            gpu.span_begin(SpanKind::Operator, "op");
            gpu.clear_depth(1.0);
            gpu.draw_full_quad(0.5).unwrap();
            gpu.span_end();
            let log = gpu.take_log().unwrap();
            trace_json(&SpanTree::from_log(log.entries(), TraceLevel::Full))
        };
        assert_eq!(run(), run());
    }
}
