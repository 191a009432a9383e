//! JSONL span dump: one flat JSON object per span, depth-first.
//!
//! Unlike the Chrome export this keeps the full counter struct and the
//! span's ancestry path, making it convenient for `grep`/`jq`-style
//! analysis and for diffing traces between runs. Like the Chrome export
//! the JSON is assembled by hand, so rendering has no failure path.

use crate::chrome::escape;
use crate::{Span, SpanTree};
use gpudb_sim::span::SpanKind;
use std::fmt::Write;

/// Render a span tree as JSONL, one span per line: its depth, ancestor
/// path (joined with `/`), kind, name, clock extent, inclusive and self
/// duration, every work-counter delta and its instant events.
pub fn spans(tree: &SpanTree) -> String {
    let mut out = String::new();
    tree.walk(|span, path| push_line(&mut out, span, path));
    out
}

fn push_line(out: &mut String, span: &Span, path: &[&str]) {
    let c = &span.counters;
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        "{{\"depth\":{},\"path\":\"{}\",\"kind\":\"{}\",\"name\":\"{}\",\
         \"start_ns\":{},\"end_ns\":{},\"duration_ns\":{},\"self_ns\":{},\
         \"counters\":{{\"fragments_generated\":{},\"fragments_shaded\":{},\
         \"fragments_early_rejected\":{},\"fragments_passed\":{},\
         \"program_instructions\":{},\"draw_calls\":{},\"occlusion_readbacks\":{},\
         \"bytes_uploaded\":{},\"bytes_read_back\":{}}},\"events\":[",
        path.len(),
        escape(&path.join("/")),
        span.kind.name(),
        escape(&span.name),
        span.start_ns,
        span.end_ns,
        span.duration_ns(),
        span.self_ns(),
        c.fragments_generated,
        c.fragments_shaded,
        c.fragments_early_rejected,
        c.fragments_passed,
        c.program_instructions,
        c.draw_calls,
        c.occlusion_readbacks,
        c.bytes_uploaded,
        c.bytes_read_back,
    );
    for (i, event) in span.events.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"detail\":\"{}\",\"at_ns\":{}}}",
            if i == 0 { "" } else { "," },
            escape(&event.name),
            escape(&event.detail),
            event.at_ns,
        );
    }
    out.push_str("]}\n");
}

/// All distinct span kinds, useful to documentation and tests.
pub const ALL_KINDS: [SpanKind; 7] = [
    SpanKind::Query,
    SpanKind::Stage,
    SpanKind::Operator,
    SpanKind::Pass,
    SpanKind::Readback,
    SpanKind::Upload,
    SpanKind::Other,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanEvent;
    use gpudb_sim::stats::WorkCounters;

    #[test]
    fn one_line_per_span_with_paths() {
        let tree = SpanTree {
            roots: vec![Span {
                kind: SpanKind::Query,
                name: "q".to_string(),
                start_ns: 0,
                end_ns: 10,
                counters: WorkCounters::default(),
                events: Vec::new(),
                children: vec![Span {
                    kind: SpanKind::Operator,
                    name: "op".to_string(),
                    start_ns: 2,
                    end_ns: 8,
                    counters: WorkCounters::default(),
                    events: Vec::new(),
                    children: Vec::new(),
                }],
            }],
        };
        let text = spans(&tree);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"q\""));
        assert!(lines[0].contains("\"depth\":0"));
        assert!(lines[1].contains("\"path\":\"q\""));
        assert!(lines[1].contains("\"duration_ns\":6"));
    }

    #[test]
    fn line_carries_every_counter_and_event() {
        let tree = SpanTree {
            roots: vec![Span {
                kind: SpanKind::Pass,
                name: "pass:\"x\"".to_string(),
                start_ns: 3,
                end_ns: 9,
                counters: WorkCounters {
                    draw_calls: 1,
                    bytes_read_back: 64,
                    ..WorkCounters::default()
                },
                events: vec![
                    SpanEvent {
                        name: "occlusion-begin".to_string(),
                        detail: String::new(),
                        at_ns: 3,
                    },
                    SpanEvent {
                        name: "occlusion-end-async".to_string(),
                        detail: "12".to_string(),
                        at_ns: 9,
                    },
                ],
                children: Vec::new(),
            }],
        };
        assert_eq!(
            spans(&tree),
            "{\"depth\":0,\"path\":\"\",\"kind\":\"pass\",\"name\":\"pass:\\\"x\\\"\",\
             \"start_ns\":3,\"end_ns\":9,\"duration_ns\":6,\"self_ns\":6,\
             \"counters\":{\"fragments_generated\":0,\"fragments_shaded\":0,\
             \"fragments_early_rejected\":0,\"fragments_passed\":0,\
             \"program_instructions\":0,\"draw_calls\":1,\"occlusion_readbacks\":0,\
             \"bytes_uploaded\":0,\"bytes_read_back\":64},\"events\":[\
             {\"name\":\"occlusion-begin\",\"detail\":\"\",\"at_ns\":3},\
             {\"name\":\"occlusion-end-async\",\"detail\":\"12\",\"at_ns\":9}]}\n"
        );
    }
}
