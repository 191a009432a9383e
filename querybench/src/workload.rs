//! The benchmark's workloads: the table each one sets up, the pool of SQL
//! statements it draws from its seed, where each statement runs, and the
//! closed measurement loop they share.
//!
//! One client issues the pool round-robin and waits for every answer
//! before sending the next statement (a closed loop). Every answer is
//! checked against the CPU oracle's answer for the same statement,
//! computed before the clock starts.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gpudb::core::cpu_oracle::{self, HostTable, OracleOutput};
use gpudb::core::parallel::{execute_sharded_with_faults, ShardOptions, ShardedOutput};
use gpudb::core::query::{self, ExecuteOptions, QueryOutput, Statement, TraceLevel};
use gpudb::core::resilience::{ResiliencePath, RetryPolicy};
use gpudb::core::table::GpuTable;
use gpudb::data::tcpip;
use gpudb::obs::{chrome, SpanTree};
use gpudb::sim::{FaultEvent, FaultInjector, FaultKind, Gpu, Phase, WorkCounters};

use crate::stats::{geomean, median, quantile, ratio};

/// A run repeats its set-up at least `MIN_SETUPS` times and until
/// `SETUP_WINDOW` has passed, and reports the median. Host speed drifts
/// over a few hundred milliseconds, so a window that spans that drift
/// keeps the median of a 10 ms set-up steady.
const MIN_SETUPS: usize = 5;
const SETUP_WINDOW: Duration = Duration::from_secs(1);

/// The workloads, by the name given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's one-million-record TCP/IP table on one device,
    /// untraced predicate, range, CNF, semi-linear and MAX scans.
    Scan,
    /// A 64k-record table on one device; every statement asks for a
    /// validated plan and a pass-level span trace rendered to Chrome JSON,
    /// and some are `EXPLAIN ANALYZE`.
    Interactive,
    /// A 64k-record table split over 1, 2 or 4 devices, each statement
    /// with one seeded fault on one shard's device.
    Faulty,
}

impl Kind {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "scan" => Some(Kind::Scan),
            "interactive" => Some(Kind::Interactive),
            "faulty" => Some(Kind::Faulty),
            _ => None,
        }
    }

    fn rows(self) -> usize {
        match self {
            Kind::Scan => tcpip::PAPER_RECORD_COUNT,
            Kind::Interactive | Kind::Faulty => 1 << 16,
        }
    }

    /// Texture width of the table's device (records per framebuffer row).
    fn width(self) -> usize {
        match self {
            Kind::Scan => 1000,
            Kind::Interactive | Kind::Faulty => 256,
        }
    }
}

/// SplitMix64: derives every query constant and fault from the seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// The values of `columns` in one random record of `host`.
    fn row(&mut self, host: &HostTable, columns: &[&str]) -> Result<Vec<u32>, String> {
        let record = self.below(host.record_count() as u64) as usize;
        columns
            .iter()
            .map(|column| {
                let index = host.column_index(column).map_err(|e| e.to_string())?;
                let values = host.column_values(index).map_err(|e| e.to_string())?;
                Ok(values[record])
            })
            .collect()
    }

    /// The value of `column` in a random record of `host`.
    fn pick(&mut self, host: &HostTable, column: &str) -> Result<u32, String> {
        Ok(self.row(host, &[column])?[0])
    }

    /// Two values of `column`, ordered, for a non-empty BETWEEN range.
    fn span(&mut self, host: &HostTable, column: &str) -> Result<(u32, u32), String> {
        let a = self.pick(host, column)?;
        let b = self.pick(host, column)?;
        Ok((a.min(b), a.max(b)))
    }
}

/// One device with the table uploaded: a single-device session.
struct Session {
    gpu: Gpu,
    table: GpuTable,
}

/// Where a statement runs.
enum Exec {
    /// On the session's device. Options that ask for a span trace have
    /// the client render it to Chrome trace JSON.
    Device(ExecuteOptions),
    /// Over `shards` fresh devices, with the fault schedules installed on
    /// them (index = shard).
    Sharded {
        shards: usize,
        faults: Vec<Option<FaultInjector>>,
    },
}

/// One statement of a workload's pool.
struct Job {
    class: usize,
    sql: String,
    exec: Exec,
    expected: OracleOutput,
}

/// What a statement returned, reduced to what the check needs.
enum Answer {
    Rows(QueryOutput),
    Sharded(ShardedOutput),
    Explain(String),
}

impl Answer {
    fn agrees_with(&self, expected: &OracleOutput) -> bool {
        match self {
            Answer::Rows(out) => expected.agrees_with(out.matched, &out.rows),
            Answer::Sharded(out) => expected.agrees_with(out.output.matched, &out.output.rows),
            Answer::Explain(text) => text.contains(&format!(" matched {} (", expected.matched)),
        }
    }
}

/// Per-layer observations, gathered only in traced runs.
#[derive(Default)]
struct Layers {
    parse_s: Vec<f64>,
    plan_s: Vec<f64>,
    execute_s: Vec<f64>,
    export_s: Vec<f64>,
    oracle_s: Vec<f64>,
    statements: u64,
    work: WorkCounters,
    modeled_s: f64,
    raster_wall_s: f64,
    copy_wall_s: f64,
    shard_runs: u64,
    cpu_shard_runs: u64,
    retries: u64,
}

/// A device's counters and clocks at one moment.
struct DeviceMark {
    counters: WorkCounters,
    modeled_s: f64,
    wall_s: f64,
    copy_wall_s: f64,
}

impl DeviceMark {
    fn of(gpu: &Gpu) -> DeviceMark {
        let stats = gpu.stats();
        DeviceMark {
            counters: stats.counters(),
            modeled_s: stats.modeled_total(),
            wall_s: stats.wall.total(),
            copy_wall_s: stats.wall.get(Phase::CopyToDepth),
        }
    }
}

impl Layers {
    /// Add the single device's work between two marks.
    fn add_device(&mut self, before: &DeviceMark, after: &DeviceMark) {
        self.work = self.work.plus(&after.counters.since(&before.counters));
        self.modeled_s += after.modeled_s - before.modeled_s;
        self.raster_wall_s += after.wall_s - before.wall_s;
        self.copy_wall_s += after.copy_wall_s - before.copy_wall_s;
    }

    /// Add a sharded statement's merged work and per-shard ladders.
    fn add_sharded(&mut self, out: &ShardedOutput) {
        for record in &out.output.metrics {
            self.work = self.work.plus(&record.counters);
        }
        self.modeled_s += out.report.merged_ns as f64 * 1e-9;
        for shard in &out.report.shards {
            self.shard_runs += 1;
            self.retries += u64::from(shard.retries);
            if shard.path == ResiliencePath::Cpu {
                self.cpu_shard_runs += 1;
            }
        }
    }
}

/// One run's result, ready to print.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order the benchmark declares them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Set up `kind` from `seed`, run its pool for `budget`, and report the
/// end-to-end metrics (`traced == false`) or the per-layer ones.
pub fn run(kind: Kind, seed: u64, budget: Duration, traced: bool) -> Result<Report, String> {
    let mut gen_s = Vec::new();
    let mut upload_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let window = Instant::now();
    while setup_s.len() < MIN_SETUPS || window.elapsed() < SETUP_WINDOW {
        drop(prepared.take());
        let start = Instant::now();
        let host = make_table(kind.rows(), seed)?;
        let generated = Instant::now();
        let session = match kind {
            Kind::Scan | Kind::Interactive => Some(open_session(&host, kind.width())?),
            Kind::Faulty => None,
        };
        let end = Instant::now();
        gen_s.push((generated - start).as_secs_f64());
        upload_s.push((end - generated).as_secs_f64());
        setup_s.push((end - start).as_secs_f64());
        prepared = Some((host, session));
    }
    let (host, mut session) = prepared.ok_or("no set-up ran")?;

    let (classes, jobs) = build_pool(kind, &host, seed)?;

    // Warm-up: one untimed, checked statement of every class.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for job in jobs.iter().take(classes.len()) {
        attempted += 1;
        if !check(job, execute(job, session.as_mut(), &host)) {
            failed += 1;
        }
    }

    // A planning table for the per-layer planner timing of sharded runs,
    // which plan on devices the library creates per statement.
    let planning = match (&session, traced) {
        (None, true) => Some(open_session(&host, kind.width())?),
        _ => None,
    };

    // Host seconds per correct answer, by statement, and per full pass
    // over the pool.
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut rounds: Vec<f64> = Vec::new();
    let mut layers = Layers::default();
    let clock = Instant::now();
    let mut round = clock;
    let mut i = 0usize;
    while clock.elapsed() < budget || i < jobs.len() {
        let j = i % jobs.len();
        i += 1;
        let job = &jobs[j];
        let start = Instant::now();
        let answer = if traced {
            execute_traced(job, session.as_mut(), planning.as_ref(), &host, &mut layers)
        } else {
            execute(job, session.as_mut(), &host)
        };
        let elapsed = start.elapsed().as_secs_f64();
        attempted += 1;
        if check(job, answer) {
            latency[j].push(elapsed);
        } else {
            failed += 1;
        }
        if i.is_multiple_of(jobs.len()) {
            rounds.push(round.elapsed().as_secs_f64());
            round = Instant::now();
        }
    }

    for (c, name) in classes.iter().enumerate() {
        let samples: Vec<f64> = jobs
            .iter()
            .zip(&latency)
            .filter(|(job, _)| job.class == c)
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        eprintln!(
            "  {name:<24} n={:<5} median={:.3} ms p90={:.3} ms",
            samples.len(),
            median(&samples) * 1e3,
            quantile(&samples, 0.9) * 1e3
        );
    }

    let metrics = if traced {
        layer_metrics(&layers, &gen_s, &upload_s)
    } else {
        // Each statement repeats the same work, so its median is steady;
        // the geometric mean weighs every statement of the pool alike.
        // Throughput takes the median pass over the pool, so a burst of
        // load from outside the process moves neither figure much.
        let medians: Vec<f64> = latency
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s) * 1e3)
            .collect();
        vec![
            ("latency_ms", geomean(&medians), "ms"),
            ("queries_per_s", jobs.len() as f64 / median(&rounds), "1/s"),
            ("setup_s", median(&setup_s), "s"),
        ]
    };
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn layer_metrics(
    layers: &Layers,
    gen_s: &[f64],
    upload_s: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let n = layers.statements as f64;
    let executing: f64 = layers.execute_s.iter().sum();
    let work = &layers.work;
    vec![
        ("parse_us", median(&layers.parse_s) * 1e6, "us"),
        ("plan_us", median(&layers.plan_s) * 1e6, "us"),
        ("execute_ms", median(&layers.execute_s) * 1e3, "ms"),
        ("trace_export_ms", median(&layers.export_s) * 1e3, "ms"),
        ("oracle_ms", median(&layers.oracle_s) * 1e3, "ms"),
        (
            "host_ns_per_fragment",
            ratio(executing * 1e9, work.fragments_generated as f64),
            "ns",
        ),
        (
            "raster_share",
            ratio(layers.raster_wall_s, executing),
            "ratio",
        ),
        (
            "copy_to_depth_share",
            ratio(layers.copy_wall_s, executing),
            "ratio",
        ),
        (
            "fragments_per_query",
            ratio(work.fragments_generated as f64, n),
            "count",
        ),
        (
            "passes_per_query",
            ratio(work.draw_calls as f64, n),
            "count",
        ),
        (
            "shaded_share",
            ratio(
                work.fragments_shaded as f64,
                work.fragments_generated as f64,
            ),
            "ratio",
        ),
        (
            "modeled_ms_per_query",
            ratio(layers.modeled_s * 1e3, n),
            "ms",
        ),
        (
            "occlusion_queries_per_query",
            ratio(work.occlusion_readbacks as f64, n),
            "count",
        ),
        (
            "retries_per_query",
            ratio(layers.retries as f64, n),
            "count",
        ),
        (
            "cpu_shard_share",
            ratio(layers.cpu_shard_runs as f64, layers.shard_runs as f64),
            "ratio",
        ),
        ("setup_gen_ms", median(gen_s) * 1e3, "ms"),
        ("setup_upload_ms", median(upload_s) * 1e3, "ms"),
    ]
}

/// Whether `answer` is the oracle's answer to `job`; reports it if not.
fn check(job: &Job, answer: Result<Answer, String>) -> bool {
    match answer {
        Ok(answer) if answer.agrees_with(&job.expected) => true,
        Ok(_) => {
            eprintln!("querybench: wrong answer for {}", job.sql);
            false
        }
        Err(e) => {
            eprintln!("querybench: {} failed: {e}", job.sql);
            false
        }
    }
}

/// The synthetic TCP/IP trace of the paper's §5.1 as a host table.
fn make_table(rows: usize, seed: u64) -> Result<HostTable, String> {
    let trace = tcpip::generate(rows, seed);
    let columns: Vec<(String, Vec<u32>)> = trace
        .columns
        .into_iter()
        .map(|c| (c.name, c.values))
        .collect();
    HostTable::new("tcpip", columns).map_err(|e| e.to_string())
}

fn open_session(host: &HostTable, width: usize) -> Result<Session, String> {
    let mut gpu = GpuTable::device_for(host.record_count(), width);
    let table = host.upload(&mut gpu).map_err(|e| e.to_string())?;
    Ok(Session { gpu, table })
}

/// Run a parsed statement where `job` says.
fn run_statement(
    job: &Job,
    stmt: &Statement,
    session: Option<&mut Session>,
    host: &HostTable,
) -> Result<Answer, String> {
    match &job.exec {
        Exec::Device(options) => {
            let s = session.ok_or("device statement without a session")?;
            if stmt.analyze {
                query::explain_analyze_with_options(&mut s.gpu, &s.table, &stmt.query, *options)
                    .map(Answer::Explain)
            } else {
                query::execute_with_options(&mut s.gpu, &s.table, &stmt.query, *options)
                    .map(Answer::Rows)
            }
        }
        Exec::Sharded { shards, faults } => {
            execute_sharded_with_faults(host, &stmt.query, &shard_options(*shards), faults.clone())
                .map(Answer::Sharded)
        }
    }
    .map_err(|e| e.to_string())
}

/// The span tree the client renders: the one a traced device statement
/// returned, or `None` for statements that asked for no trace.
fn requested_trace<'a>(job: &Job, answer: &'a Answer) -> Result<Option<&'a SpanTree>, String> {
    match (&job.exec, answer) {
        (Exec::Device(options), Answer::Rows(out)) if options.trace.is_some() => out
            .trace
            .as_ref()
            .map(Some)
            .ok_or_else(|| "traced statement returned no trace".to_string()),
        _ => Ok(None),
    }
}

/// Parse `job`'s SQL, run it, and render any trace it asked for.
fn execute(job: &Job, session: Option<&mut Session>, host: &HostTable) -> Result<Answer, String> {
    let stmt = query::parse(&job.sql).map_err(|e| e.to_string())?;
    let answer = run_statement(job, &stmt, session, host)?;
    if let Some(tree) = requested_trace(job, &answer)? {
        black_box(chrome::trace_json(tree));
    }
    Ok(answer)
}

/// Push the seconds `f` takes onto `samples`.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    samples.push(start.elapsed().as_secs_f64());
    value
}

/// [`execute`] with each layer timed on its own (parse, plan, the
/// executor call, trace rendering) plus the CPU oracle on the same
/// statement, and the work the devices report.
fn execute_traced(
    job: &Job,
    mut session: Option<&mut Session>,
    planning: Option<&Session>,
    host: &HostTable,
    layers: &mut Layers,
) -> Result<Answer, String> {
    let stmt = timed(&mut layers.parse_s, || query::parse(&job.sql)).map_err(|e| e.to_string())?;
    let plan_table = match (&session, planning) {
        (Some(s), _) => &s.table,
        (None, Some(p)) => &p.table,
        (None, None) => return Err("no table to plan against".into()),
    };
    let plan = timed(&mut layers.plan_s, || {
        query::plan_selection(plan_table, stmt.query.filter.as_ref())
    });
    black_box(plan.map_err(|e| e.to_string())?);
    let oracle = timed(&mut layers.oracle_s, || {
        cpu_oracle::execute(host, &stmt.query)
    });
    black_box(oracle.map_err(|e| e.to_string())?);

    let before = session.as_ref().map(|s| DeviceMark::of(&s.gpu));
    let answer = timed(&mut layers.execute_s, || {
        run_statement(job, &stmt, session.as_deref_mut(), host)
    })?;
    if let Some(tree) = requested_trace(job, &answer)? {
        black_box(timed(&mut layers.export_s, || chrome::trace_json(tree)));
    }
    if let (Some(s), Some(before)) = (&session, before) {
        layers.add_device(&before, &DeviceMark::of(&s.gpu));
    }
    if let Answer::Sharded(out) = &answer {
        layers.add_sharded(out);
    }
    layers.statements += 1;
    Ok(answer)
}

/// Draw the workload's statement pool from `seed`. Jobs are ordered so
/// that the first `classes.len()` hold one statement of every class.
fn build_pool(kind: Kind, host: &HostTable, seed: u64) -> Result<(Vec<String>, Vec<Job>), String> {
    let mut rng = Mix(seed);
    let shapes = shapes(kind);
    let variants = match kind {
        Kind::Scan => 2,
        Kind::Interactive => 8,
        Kind::Faulty => FaultKind::ALL.len(),
    };
    let placements: &[usize] = match kind {
        Kind::Faulty => &[1, 2, 4],
        Kind::Scan | Kind::Interactive => &[1],
    };
    let mut classes = Vec::new();
    for shape in &shapes {
        for &shards in placements {
            classes.push(match kind {
                Kind::Faulty => format!("{}/{shards}-shard", shape.name),
                Kind::Scan | Kind::Interactive => shape.name.to_string(),
            });
        }
    }
    let mut jobs = Vec::new();
    for variant in 0..variants {
        for (s, shape) in shapes.iter().enumerate() {
            for (p, &shards) in placements.iter().enumerate() {
                let sql = (shape.sql)(&mut rng, host)?;
                let stmt = query::parse(&sql).map_err(|e| format!("{sql}: {e}"))?;
                let expected =
                    cpu_oracle::execute(host, &stmt.query).map_err(|e| format!("{sql}: {e}"))?;
                let exec = match kind {
                    Kind::Scan => Exec::Device(ExecuteOptions::default()),
                    Kind::Interactive => Exec::Device(ExecuteOptions {
                        validate_plans: true,
                        trace: Some(TraceLevel::Passes),
                        fuse_passes: true,
                    }),
                    Kind::Faulty => Exec::Sharded {
                        shards,
                        faults: fault_schedule(&mut rng, host, &stmt, shards, variant)?,
                    },
                };
                jobs.push(Job {
                    class: s * placements.len() + p,
                    sql,
                    exec,
                    expected,
                });
            }
        }
    }
    Ok((classes, jobs))
}

/// One fault on one shard, due halfway through that shard's fault-free
/// modeled time. The kind follows the statement's variant and only the
/// shard comes from the seed, so every class holds one statement per
/// fault kind, struck at the same stage of its work, whatever the seed.
fn fault_schedule(
    rng: &mut Mix,
    host: &HostTable,
    stmt: &Statement,
    shards: usize,
    variant: usize,
) -> Result<Vec<Option<FaultInjector>>, String> {
    let clean = execute_sharded_with_faults(host, &stmt.query, &shard_options(shards), Vec::new())
        .map_err(|e| e.to_string())?;
    let target = rng.below(shards as u64) as usize;
    let horizon = clean.report.shards.get(target).map_or(0, |s| s.modeled_ns);
    let event = FaultEvent {
        at_ns: horizon / 2,
        kind: FaultKind::ALL[variant % FaultKind::ALL.len()],
    };
    let mut faults = vec![None; shards];
    faults[target] = Some(FaultInjector::with_schedule(vec![event]));
    Ok(faults)
}

/// Sharded placement over `shards` devices of the faulty workload's
/// width, with the default recovery ladder (CPU fallback allowed).
fn shard_options(shards: usize) -> ShardOptions {
    ShardOptions {
        shards,
        device_width: Kind::Faulty.width(),
        options: ExecuteOptions::default(),
        policy: RetryPolicy::default(),
    }
}

/// A query shape: a class name and a generator of SQL text.
struct Shape {
    name: &'static str,
    sql: fn(&mut Mix, &HostTable) -> Result<String, String>,
}

fn shapes(kind: Kind) -> Vec<Shape> {
    let predicate = Shape {
        name: "predicate",
        sql: |rng, host| {
            Ok(format!(
                "SELECT COUNT(*) FROM tcpip WHERE data_count >= {}",
                rng.pick(host, "data_count")?
            ))
        },
    };
    let range = Shape {
        name: "range",
        sql: |rng, host| {
            let (lo, hi) = rng.span(host, "flow_rate")?;
            Ok(format!(
                "SELECT COUNT(*) FROM tcpip WHERE flow_rate BETWEEN {lo} AND {hi}"
            ))
        },
    };
    let cnf = Shape {
        name: "cnf",
        sql: |rng, host| {
            let (lo, hi) = rng.span(host, "data_count")?;
            Ok(format!(
                "SELECT COUNT(*) FROM tcpip WHERE (data_count >= {lo} OR data_loss > {}) \
                 AND flow_rate < {} AND data_count <= {hi}",
                rng.pick(host, "data_loss")?,
                rng.pick(host, "flow_rate")?,
            ))
        },
    };
    let semilinear = Shape {
        name: "semilinear",
        sql: |rng, _| {
            const PAIRS: [(&str, &str); 3] = [
                ("data_loss", "retransmissions"),
                ("flow_rate", "data_count"),
                ("data_loss", "flow_rate"),
            ];
            const OPS: [&str; 4] = ["<", "<=", ">", ">="];
            let (a, b) = PAIRS[rng.below(PAIRS.len() as u64) as usize];
            let op = OPS[rng.below(OPS.len() as u64) as usize];
            Ok(format!("SELECT COUNT(*) FROM tcpip WHERE {a} {op} {b}"))
        },
    };
    let max = Shape {
        name: "max",
        sql: |rng, host| {
            Ok(format!(
                "SELECT MAX(data_count) FROM tcpip WHERE flow_rate >= {}",
                rng.pick(host, "flow_rate")?
            ))
        },
    };
    let median = Shape {
        name: "median",
        sql: |rng, host| {
            Ok(format!(
                "SELECT MEDIAN(flow_rate) FROM tcpip WHERE data_count >= {}",
                rng.pick(host, "data_count")?
            ))
        },
    };
    let explain = Shape {
        name: "explain-analyze",
        sql: |rng, host| {
            // Both bounds hold for the anchor record, so MIN has input.
            let anchor = rng.row(host, &["flow_rate", "data_loss"])?;
            let other = rng.pick(host, "flow_rate")?;
            let (lo, hi) = (anchor[0].min(other), anchor[0].max(other));
            Ok(format!(
                "EXPLAIN ANALYZE SELECT COUNT(*), MIN(data_count) FROM tcpip \
                 WHERE flow_rate BETWEEN {lo} AND {hi} AND data_loss <= {}",
                anchor[1]
            ))
        },
    };
    match kind {
        Kind::Scan => vec![predicate, range, cnf, semilinear, max],
        Kind::Interactive => vec![predicate, range, cnf, semilinear, median, explain],
        Kind::Faulty => vec![predicate, cnf, max, median],
    }
}
