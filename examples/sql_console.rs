//! Interactive SQL-ish console over the GPU engine.
//!
//! Loads both paper workloads (`tcpip`, `census`) onto simulated devices
//! and runs statements typed on stdin (or passed as the first argument).
//!
//! ```sh
//! cargo run --release --example sql_console \
//!   "SELECT COUNT(*), MEDIAN(data_count) FROM tcpip WHERE data_loss > 0"
//!
//! # or interactively:
//! cargo run --release --example sql_console
//! sql> SELECT MAX(monthly_income) FROM census WHERE age < 30
//! sql> EXPLAIN ANALYZE SELECT COUNT(*) FROM tcpip WHERE data_loss > 0
//! sql> .analyze SELECT COUNT(*) FROM tcpip WHERE data_loss > 0
//! sql> .trace /tmp/last-query.trace.json
//! ```
//!
//! `.analyze` (or the `EXPLAIN ANALYZE` prefix) runs the query for real
//! and prints the plan tree annotated with per-node modeled time; every
//! executed query also records a span trace that `.trace PATH` dumps as
//! Chrome trace-event JSON (load it in Perfetto / `chrome://tracing`).

use gpudb::core::query::{execute_with_options, parse, AggValue, ExecuteOptions, TraceLevel};
use gpudb::data::{census, tcpip};
use gpudb::obs::{chrome, SpanTree};
use gpudb::prelude::*;
use std::collections::HashMap;
use std::io::{self, BufRead, Write};

struct Catalog {
    tables: HashMap<String, (Gpu, GpuTable)>,
    last_trace: Option<SpanTree>,
}

impl Catalog {
    fn load() -> EngineResult<Catalog> {
        let mut tables = HashMap::new();
        for (name, dataset) in [
            ("tcpip", tcpip::generate(100_000, 2004)),
            ("census", census::generate(90_000, 1990)),
        ] {
            let cols: Vec<(&str, &[u32])> = dataset
                .columns
                .iter()
                .map(|c| (c.name.as_str(), c.values.as_slice()))
                .collect();
            let mut gpu = GpuTable::device_for(dataset.record_count(), 500);
            let table = GpuTable::upload(&mut gpu, name, &cols)?;
            tables.insert(name.to_string(), (gpu, table));
        }
        Ok(Catalog {
            tables,
            last_trace: None,
        })
    }

    fn run(&mut self, sql: &str) {
        let stmt = match parse(sql) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("parse error: {e}");
                return;
            }
        };
        let Some((gpu, table)) = self.tables.get_mut(&stmt.table) else {
            eprintln!(
                "unknown table {:?}; available: {:?}",
                stmt.table,
                self.tables.keys().collect::<Vec<_>>()
            );
            return;
        };
        if stmt.analyze {
            // EXPLAIN ANALYZE: execute for real, render the plan tree
            // annotated with per-node modeled time and work counters.
            match gpudb::core::query::explain_analyze(gpu, table, &stmt.query) {
                Ok(report) => print!("{report}"),
                Err(e) => eprintln!("execution error: {e}"),
            }
            return;
        }
        if stmt.explain {
            // Record-only dry run: per-pass depth/stencil detail with
            // nothing shaded and no modeled cost accrued.
            match gpudb::core::query::explain_with_device(gpu, table, &stmt.query) {
                Ok(plan) => print!("{plan}"),
                Err(e) => eprintln!("planning error: {e}"),
            }
            return;
        }
        let options = ExecuteOptions {
            trace: Some(TraceLevel::Passes),
            ..ExecuteOptions::default()
        };
        match execute_with_options(gpu, table, &stmt.query, options) {
            Ok(out) => {
                self.last_trace = out.trace;
                for (label, value) in &out.rows {
                    let rendered = match value {
                        AggValue::Count(v) => format!("{v}"),
                        AggValue::Sum(v) => format!("{v}"),
                        AggValue::Avg(v) => format!("{v:.3}"),
                        AggValue::Value(v) => format!("{v}"),
                    };
                    println!("{label:<32} {rendered}");
                }
                println!(
                    "-- {} rows matched ({:.2}% selectivity); modeled GPU time \
                     {:.3} ms = copy {:.3} + compute {:.3} + readback {:.3}",
                    out.matched,
                    out.selectivity * 100.0,
                    out.timing.total() as f64 / 1e6,
                    out.timing.copy_to_depth as f64 / 1e6,
                    out.timing.compute as f64 / 1e6,
                    out.timing.readback as f64 / 1e6
                );
            }
            Err(e) => eprintln!("execution error: {e}"),
        }
    }

    /// `.analyze SQL` — EXPLAIN ANALYZE without typing the prefix.
    fn analyze(&mut self, sql: &str) {
        if sql.is_empty() {
            eprintln!("usage: .analyze SELECT ... FROM table [WHERE ...]");
            return;
        }
        let stmt = match parse(sql) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("parse error: {e}");
                return;
            }
        };
        let Some((gpu, table)) = self.tables.get_mut(&stmt.table) else {
            eprintln!(
                "unknown table {:?}; available: {:?}",
                stmt.table,
                self.tables.keys().collect::<Vec<_>>()
            );
            return;
        };
        match gpudb::core::query::explain_analyze(gpu, table, &stmt.query) {
            Ok(report) => print!("{report}"),
            Err(e) => eprintln!("execution error: {e}"),
        }
    }

    /// `.trace PATH` — dump the last executed query's span trace as
    /// Chrome trace-event JSON.
    fn dump_trace(&self, path: &str) {
        if path.is_empty() {
            eprintln!("usage: .trace PATH (writes Chrome trace-event JSON)");
            return;
        }
        let Some(tree) = &self.last_trace else {
            eprintln!("no trace yet — run a query first");
            return;
        };
        match std::fs::write(path, chrome::trace_json(tree)) {
            Ok(()) => println!(
                "wrote {path} ({} spans); open in Perfetto or chrome://tracing",
                tree.span_count()
            ),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }

    fn describe(&self) {
        for (name, (_, table)) in &self.tables {
            let cols: Vec<&str> = table.columns().iter().map(|c| c.name.as_str()).collect();
            println!(
                "table {name}: {} records, columns {cols:?}",
                table.record_count()
            );
        }
    }
}

fn main() -> EngineResult<()> {
    println!("loading workloads onto simulated GeForce FX devices...");
    let mut catalog = Catalog::load()?;
    catalog.describe();

    if let Some(sql) = std::env::args().nth(1) {
        catalog.run(&sql);
        return Ok(());
    }

    let stdin = io::stdin();
    loop {
        print!("sql> ");
        io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\q" | "quit" | "exit" => break,
            "\\d" | "describe" => catalog.describe(),
            cmd if cmd
                .strip_prefix(".analyze")
                .is_some_and(|r| r.is_empty() || r.starts_with(' ')) =>
            {
                catalog.analyze(cmd[".analyze".len()..].trim())
            }
            cmd if cmd
                .strip_prefix(".trace")
                .is_some_and(|r| r.is_empty() || r.starts_with(' ')) =>
            {
                catalog.dump_trace(cmd[".trace".len()..].trim())
            }
            sql => catalog.run(sql),
        }
    }
    Ok(())
}
