//! The repository benchmark: whole builds of seeded, α-distinct module
//! graphs through the driver's public API, timed from outside.
//!
//! ```text
//! perfbench --workload <cold_build|edit_stream|restart_warm|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop on one process with `nproc` build
//! workers: the next operation starts when the previous one has returned
//! its verdict (the root's observed value).
//!
//! * `cold_build` — every operation opens a fresh in-memory session,
//!   builds the whole graph and observes the root. The phases and the
//!   kernel do the work. It has no store: on a shared virtual disk, the
//!   80 file creations of a store-backed cold build made its latency swing
//!   by more than the benchmark's bounds between runs, while in-memory
//!   builds repeat within a few percent. The store's write side is timed
//!   by `edit_stream` and by every workload's set-up build.
//! * `edit_stream` — one long-lived store-backed session; every operation
//!   applies one seeded edit, rebuilds and observes. Keying, queries, the
//!   memory cache and store writes set the median; phase work shows in
//!   the tail.
//! * `restart_warm` — set-up fills a store once; every operation is a
//!   fresh process (this binary with `--child`) that opens the store, adds
//!   the graph, builds — compiling nothing — and observes. Store reads and
//!   keying do the work; no phase runs.
//!
//! Every operation's observed value is checked against the let-linked
//! source program evaluated by `cccc_core::link::observe_source`; the
//! first operation of a run also checks every artifact against the
//! sequential oracle (`Session::compile_sequential`). No check runs inside
//! a timed region. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the run is split into an untraced
//! and a traced half, the traced half records the benchmark's spans and
//! replays every compiled unit through the `Compiler::phase_*` entry
//! points, and the last line carries the per-layer metrics.

mod graph;
mod spans;

use cccc_core::link::observe_source;
use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_driver::{ArtifactStore, BuildReport, Session, UnitStatus};
use cccc_source as src;
use graph::{Edit, EditScript, Graph};
use spans::{ImportedSpan, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["cold_build", "edit_stream", "restart_warm"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Operations run, and checked, for this long before the `--seconds` of
/// measurement start: the host's first second or two under load runs
/// slower.
const WARMUP: Duration = Duration::from_secs(2);
/// Where runs keep stores, repeat ledgers and trace files, relative to
/// the directory the benchmark is started from.
const WORK_DIR: &str = ".bench_work";
/// Ops whose count signatures the exact-repeat ledger keeps.
const LEDGER_OPS: usize = 2000;
/// `peak_rss_mb` of the in-process workloads is read after this many
/// operations (or at the end of a shorter run): the process's memory
/// grows with the operations it has done, and a fixed count keeps a
/// faster program from reading as a hungrier one.
fn rss_after_ops(workload: &str) -> usize {
    if workload == "edit_stream" {
        1000
    } else {
        200
    }
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Counters of one operation, read from its `BuildReport`.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        struct Counters { $($field: u64),* }

        impl Counters {
            fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }

            fn encode(&self) -> String {
                [$(format!("{}={}", stringify!($field), self.$field)),*].join(" ")
            }

            fn decode(text: &str) -> Option<Counters> {
                let mut counters = Counters::default();
                for token in text.split_whitespace() {
                    let (key, value) = token.split_once('=')?;
                    let value = value.parse().ok()?;
                    match key {
                        $(stringify!($field) => counters.$field = value,)*
                        _ => return None,
                    }
                }
                Some(counters)
            }
        }
    };
}

counters!(
    units,
    compiled,
    cached,
    typecheck_runs,
    translate_runs,
    check_runs,
    verify_runs,
    cache_hits,
    cache_misses,
    cache_coalesced,
    disk_hits,
    verified_hits,
    bytes_read,
    sections_decoded,
    write_throughs,
    bytes_written,
    retries,
    critical_path_ns,
    worker_idle_ns,
    intern_requests,
    intern_hits,
    conv_identity_hits,
    conv_memo_hits,
    conv_memo_misses,
    source_words,
    target_words,
);

impl Counters {
    fn of(report: &BuildReport) -> Counters {
        let store = report.store.unwrap_or_default();
        let busy: u64 = report.units.iter().map(|u| u.duration.as_nanos() as u64).sum();
        let capacity = report.workers as u64 * report.wall_time.as_nanos() as u64;
        let mut c = Counters {
            units: report.units.len() as u64,
            compiled: report.compiled_count() as u64,
            cached: report.cached_count() as u64,
            typecheck_runs: report.queries.typecheck as u64,
            translate_runs: report.queries.translate as u64,
            check_runs: report.queries.check as u64,
            verify_runs: report.queries.verify as u64,
            cache_hits: report.cache.hits,
            cache_misses: report.cache.misses,
            cache_coalesced: report.cache.coalesced,
            disk_hits: store.disk_hits,
            verified_hits: store.verified_hits,
            bytes_read: store.bytes_read,
            sections_decoded: store.sections_decoded,
            write_throughs: store.write_throughs,
            bytes_written: store.bytes_written,
            retries: store.retries,
            critical_path_ns: report.critical_path_ns,
            worker_idle_ns: capacity.saturating_sub(busy),
            ..Counters::default()
        };
        for unit in &report.units {
            c.source_words += unit.source_words as u64;
            c.target_words += unit.target_words as u64;
            if let Some(caches) = &unit.caches {
                c.intern_requests += caches.intern_requests();
                c.intern_hits += caches.source_intern.hits + caches.target_intern.hits;
                c.conv_identity_hits +=
                    caches.source_conv.identity_hits + caches.target_conv.identity_hits;
                c.conv_memo_hits += caches.source_conv.memo_hits + caches.target_conv.memo_hits;
                c.conv_memo_misses +=
                    caches.source_conv.memo_misses + caches.target_conv.memo_misses;
            }
        }
        c
    }

    /// The counts that must repeat exactly between two runs of one seed.
    fn signature(&self) -> String {
        format!(
            "compiled={} typecheck={} translate={} check={} verify={} bytes_written={} \
             target_words={}",
            self.compiled,
            self.typecheck_runs,
            self.translate_runs,
            self.check_runs,
            self.verify_runs,
            self.bytes_written,
            self.target_words
        )
    }
}

/// One finished operation.
#[derive(Clone, Debug, Default)]
struct OpRecord {
    /// Start to verdict.
    latency_ns: u64,
    /// `Session::observe(root)` alone.
    observe_ns: u64,
    counters: Counters,
    /// Why the operation failed, if it did.
    failure: Option<String>,
    /// Run before measurement started: checked, not timed.
    warmup: bool,
    traced: bool,
    /// Restarts only: the child's peak RSS.
    child_rss_kb: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed".to_owned())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds".to_owned())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        std::process::exit(child_main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let run_dir = RunDir::create().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the work directory: {e}");
        std::process::exit(1);
    });
    let mut bench = Bench::new(args, run_dir.0.clone());
    let outcome = bench.run();
    drop(run_dir);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

/// A per-process directory under [`WORK_DIR`], removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        let dir = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The root's reference value: the let-linked source, evaluated without
/// the compiler under test.
fn reference_value(graph: &Graph) -> Option<bool> {
    observe_source(&graph.linked_source())
}

fn add_graph(session: &mut Session, graph: &Graph, terms: &[src::Term]) -> Result<(), String> {
    for (u, term) in terms.iter().enumerate() {
        session
            .add_unit(&graph.units[u].name, &graph.imports(u), term)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Every artifact of the session's last build against the sequential
/// oracle, interface and compiled term both.
fn oracle_agrees(session: &Session) -> Result<(), String> {
    let oracle = session.compile_sequential().map_err(|e| e.to_string())?;
    for (name, compilation) in &oracle {
        let interface = session.interface(name).map_err(|e| e.to_string())?;
        if !src::subst::alpha_eq(&interface, &compilation.source_type) {
            return Err(format!("interface of `{name}` differs from the oracle"));
        }
        let target = session.target_term(name).map_err(|e| e.to_string())?;
        if !cccc_target::subst::alpha_eq(&target, &compilation.target) {
            return Err(format!("compiled term of `{name}` differs from the oracle"));
        }
    }
    Ok(())
}

/// What a build and observe must show for the operation to count.
fn check_build(
    report: &BuildReport,
    observed: Option<bool>,
    expected: Option<bool>,
) -> Option<String> {
    if !report.is_success() {
        return Some(format!("build failed: {}", report.summary()));
    }
    if observed.is_none() || observed != expected {
        return Some(format!("observed {observed:?}, the source program gives {expected:?}"));
    }
    None
}

/// The benchmark-side work of a traced operation, after its timed
/// region: plan the graph, replay every compiled unit phase by phase in
/// its telescope, and — for a store-backed session — open the store and
/// load each unit's artifact.
fn traced_extras(
    tracer: &mut Tracer,
    session: &Session,
    report: &BuildReport,
    store_dir: Option<&Path>,
) -> Result<(), String> {
    tracer.begin("driver.graph.plan");
    let plan = session.graph().plan().map_err(|e| e.to_string());
    tracer.end();
    let plan = plan?;
    tracer.begin("bench.replay");
    let replayed = replay(tracer, session, report, &plan);
    tracer.end();
    replayed?;
    let Some(store_dir) = store_dir else {
        return Ok(());
    };
    tracer.begin("driver.store.open");
    let store = ArtifactStore::open(store_dir).map_err(|e| e.to_string());
    tracer.end();
    let store = store?;
    for unit in &report.units {
        if tracer.span("driver.store.load", || store.load(unit.fingerprint)).is_none() {
            return Err(format!("store has no artifact for `{}`", unit.name));
        }
    }
    Ok(())
}

fn replay(
    tracer: &mut Tracer,
    session: &Session,
    report: &BuildReport,
    plan: &cccc_driver::Plan,
) -> Result<(), String> {
    // Build workers are fresh threads with empty memo tables; so is the
    // replay.
    Compiler::reset_caches();
    let compiler = Compiler::with_options(session.options());
    let graph = session.graph();
    for unit_report in report.units.iter().filter(|u| u.status == UnitStatus::Compiled) {
        let u = graph.index_of(&unit_report.name).expect("reported units are in the graph");
        let mut env = src::Env::new();
        for &d in &plan.transitive[u] {
            let dep = graph.unit_at(d);
            let interface =
                tracer.span("driver.session.interface", || session.interface(&dep.name));
            env.push_assumption(dep.symbol, interface.map_err(|e| e.to_string())?);
        }
        let term = src::wire::decode(&graph.unit_at(u).source).map_err(|e| e.to_string())?;
        let failed = |e: cccc_core::pipeline::CompileError| format!("replay of {u}: {e}");
        let (ty, _) = tracer
            .span("source.typecheck", || compiler.phase_typecheck(&env, &term))
            .map_err(failed)?;
        let (target, target_ty, _) = tracer
            .span("core.translate", || compiler.phase_translate(&env, &term, &ty))
            .map_err(failed)?;
        let (target_env, inferred, _) =
            tracer.span("target.check", || compiler.phase_check(&env, &target)).map_err(failed)?;
        tracer
            .span("core.verify", || {
                compiler.phase_verify(&env, &term, Some(&target_env), &inferred, &target_ty)
            })
            .map_err(failed)?;
    }
    Ok(())
}

/// Peak resident set size of this process, in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The 95th percentile; with fewer than 200 samples, the highest
/// percentile that still has ten samples beyond it (but never below the
/// median).
fn p95(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let rank = ((n as f64 * 0.95).ceil() as usize).min(n.saturating_sub(10)).max(n.div_ceil(2));
    values.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// The live state of one workload run.
struct Bench {
    args: Args,
    dir: PathBuf,
    workers: usize,
    options: CompilerOptions,
    tracer: Tracer,
    records: Vec<OpRecord>,
    setups: Vec<f64>,
    graph: Graph,
    terms: Vec<src::Term>,
    expected: Option<bool>,
    /// Counters of the set-up build of the seed's initial graph.
    initial: Counters,
    /// Peak RSS read after [`rss_after_ops`] operations.
    rss_kb: Option<u64>,
    /// edit_stream: the long-lived session and its script.
    session: Option<Session>,
    script: Option<EditScript>,
    /// The store of the kept set-up (the live session's, or the one
    /// restarts open).
    store_dir: PathBuf,
    next_store: usize,
}

impl Bench {
    fn new(args: Args, dir: PathBuf) -> Bench {
        Bench {
            graph: Graph { units: Vec::new() },
            args,
            store_dir: PathBuf::new(),
            dir,
            workers: workers(),
            options: CompilerOptions::default(),
            tracer: Tracer::new(),
            records: Vec::new(),
            setups: Vec::new(),
            terms: Vec::new(),
            expected: None,
            initial: Counters::default(),
            rss_kb: None,
            session: None,
            script: None,
            next_store: 0,
        }
    }

    /// A fresh, not yet existing store directory.
    fn fresh_store(&mut self) -> PathBuf {
        self.next_store += 1;
        self.dir.join(format!("store{}", self.next_store))
    }

    fn run(&mut self) -> Result<String, String> {
        let measured = Duration::from_secs_f64(self.args.seconds);
        let total = WARMUP + measured;
        let untraced_until = if self.args.trace { WARMUP + measured / 2 } else { total };
        // Set-up repetitions are spread over the run, between operations,
        // so that their median sees the same host as the operations do.
        let setup_every = total / SETUP_REPEATS as u32;
        let started = Instant::now();
        self.timed_setup(true)?;
        while started.elapsed() < total {
            if self.setups.len() < SETUP_REPEATS
                && started.elapsed() >= setup_every * self.setups.len() as u32
            {
                self.timed_setup(false)?;
            }
            let warmup = started.elapsed() < WARMUP;
            let traced = started.elapsed() >= untraced_until;
            self.tracer.set_on(traced);
            let index = self.records.len();
            self.tracer.set_op(index as u64);
            let mut record = match self.args.workload.as_str() {
                "cold_build" => self.cold_op(index)?,
                "edit_stream" => self.edit_op(index)?,
                _ => self.restart_op(index)?,
            };
            (record.warmup, record.traced) = (warmup, traced);
            self.records.push(record);
            if self.records.len() == rss_after_ops(&self.args.workload) {
                self.rss_kb = Some(peak_rss_kb());
            }
        }
        self.tracer.set_on(false);
        let repeat = self.exact_repeat();
        Ok(self.report(repeat))
    }

    fn timed_setup(&mut self, keep: bool) -> Result<(), String> {
        let started = Instant::now();
        self.setup(keep)?;
        self.setups.push(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// Input generation plus warm-up: generate the graph, its terms and
    /// the reference value, and build it cold into a fresh store. With
    /// `keep`, the result becomes the state the operations start from
    /// (the live session for edit_stream, the filled store for
    /// restart_warm); otherwise it is discarded.
    fn setup(&mut self, keep: bool) -> Result<(), String> {
        let graph = Graph::generate(self.args.seed);
        let terms: Vec<src::Term> = (0..graph.units.len()).map(|u| graph.term(u)).collect();
        let expected = reference_value(&graph);
        let store_dir = self.fresh_store();
        let mut session =
            Session::with_store(self.options, &store_dir).map_err(|e| e.to_string())?;
        add_graph(&mut session, &graph, &terms)?;
        let report = session.build(self.workers).map_err(|e| e.to_string())?;
        let observed = session.observe("main").map_err(|e| e.to_string())?;
        if let Some(problem) = check_build(&report, observed, expected) {
            return Err(format!("set-up build: {problem}"));
        }
        if !keep {
            drop(session);
            let _ = std::fs::remove_dir_all(&store_dir);
            return Ok(());
        }
        self.initial = Counters::of(&report);
        if self.args.workload == "edit_stream" {
            self.script = Some(EditScript::new(&graph, self.args.seed));
            self.session = Some(session);
        }
        (self.graph, self.terms, self.expected, self.store_dir) =
            (graph, terms, expected, store_dir);
        Ok(())
    }

    fn cold_op(&mut self, index: usize) -> Result<OpRecord, String> {
        let tracer = &mut self.tracer;
        let started = Instant::now();
        tracer.begin("bench.op");
        let mut session = tracer.span("driver.session.open", || Session::new(self.options));
        for (u, term) in self.terms.iter().enumerate() {
            let unit = &self.graph.units[u].name;
            let imports = self.graph.imports(u);
            tracer
                .span("driver.session.key", || session.add_unit(unit, &imports, term))
                .map_err(|e| e.to_string())?;
        }
        let report = tracer.span("driver.session.build", || session.build(self.workers));
        let report = report.map_err(|e| e.to_string())?;
        let observe_started = Instant::now();
        let observed = tracer.span("core.link.observe", || session.observe("main"));
        let observe_ns = ns(observe_started);
        tracer.end();
        let latency_ns = ns(started);
        let counters = Counters::of(&report);
        let mut failure = check_build(&report, observed.ok().flatten(), self.expected);
        if failure.is_none() && counters.compiled != counters.units {
            failure =
                Some(format!("cold build compiled {} of {}", counters.compiled, counters.units));
        }
        if failure.is_none() && index == 0 {
            failure = oracle_agrees(&session).err();
        }
        if tracer.is_on() && failure.is_none() {
            failure = traced_extras(tracer, &session, &report, None).err();
        }
        Ok(OpRecord { latency_ns, observe_ns, counters, failure, ..OpRecord::default() })
    }

    fn edit_op(&mut self, index: usize) -> Result<OpRecord, String> {
        let edit: Edit =
            self.script.as_mut().expect("set-up made the script").next().expect("endless");
        self.graph.apply(&edit);
        let unit = edit.unit();
        self.terms[unit] = self.graph.term(unit);
        let name = self.graph.units[unit].name.clone();
        let session = self.session.as_mut().expect("set-up made the session");
        let tracer = &mut self.tracer;
        let started = Instant::now();
        tracer.begin("bench.op");
        tracer
            .span("driver.session.key", || session.update_unit(&name, &self.terms[unit]))
            .map_err(|e| e.to_string())?;
        let report = tracer.span("driver.session.build", || session.build(self.workers));
        let report = report.map_err(|e| e.to_string())?;
        let observe_started = Instant::now();
        let observed = tracer.span("core.link.observe", || session.observe("main"));
        let observe_ns = ns(observe_started);
        tracer.end();
        let latency_ns = ns(started);
        let expected = reference_value(&self.graph);
        let mut failure = check_build(&report, observed.ok().flatten(), expected);
        if failure.is_none() && index == 0 {
            failure = oracle_agrees(session).err();
        }
        if tracer.is_on() && failure.is_none() {
            failure = traced_extras(tracer, session, &report, Some(&self.store_dir)).err();
        }
        let counters = Counters::of(&report);
        Ok(OpRecord { latency_ns, observe_ns, counters, failure, ..OpRecord::default() })
    }

    fn restart_op(&mut self, index: usize) -> Result<OpRecord, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut command = Command::new(exe);
        command.arg("--child").arg(&self.store_dir).args(["--seed", &self.args.seed.to_string()]);
        if index == 0 {
            command.arg("--verify");
        }
        if self.tracer.is_on() {
            command.arg("--trace");
        }
        let spawn_at = self.tracer.now_ns();
        self.tracer.begin("bench.op");
        self.tracer.begin("proc.spawn_to_exit");
        let output = command.output().map_err(|e| format!("cannot run the child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut imported = 0;
        for span in stdout.lines().filter_map(ImportedSpan::parse) {
            self.tracer.import(&span, spawn_at);
            imported = imported.max(span.id);
        }
        self.tracer.end();
        self.tracer.end();
        self.tracer.finish_import(imported);
        let Some(line) = stdout.lines().find_map(|l| l.strip_prefix("child ")) else {
            let stderr = String::from_utf8_lossy(&output.stderr);
            let failure = Some(format!("child printed no result ({}): {stderr}", output.status));
            return Ok(OpRecord { failure, ..OpRecord::default() });
        };
        let field = |key: &str| -> Option<&str> {
            line.split_whitespace().find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        };
        let number = |key: &str| field(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        let counters = line
            .split_once(" | ")
            .and_then(|(_, c)| Counters::decode(c))
            .ok_or_else(|| format!("unreadable child counters: {line}"))?;
        let observed = match field("observed") {
            Some("true") => Some(true),
            Some("false") => Some(false),
            _ => None,
        };
        let mut failure = field("error").map(|e| e.replace('_', " "));
        if failure.is_none() && (observed.is_none() || observed != self.expected) {
            failure = Some(format!("child observed {observed:?}, expected {:?}", self.expected));
        }
        let phases = counters.typecheck_runs
            + counters.translate_runs
            + counters.check_runs
            + counters.verify_runs;
        if failure.is_none() && (counters.compiled != 0 || phases != 0) {
            failure = Some(format!("warm restart compiled {} units", counters.compiled));
        }
        Ok(OpRecord {
            latency_ns: number("latency_ns"),
            observe_ns: number("observe_ns"),
            counters,
            failure,
            child_rss_kb: number("rss_kb"),
            ..OpRecord::default()
        })
    }

    /// Checks that the count signatures repeat: within the run where every
    /// operation is the same (cold builds, restarts), and against the
    /// ledger a previous run of this seed and binary left.
    fn exact_repeat(&self) -> Result<String, String> {
        let signatures: Vec<String> = self.records.iter().map(|r| r.counters.signature()).collect();
        if self.args.workload != "edit_stream" {
            if let Some(k) = signatures.iter().position(|s| *s != signatures[0]) {
                return Err(format!(
                    "op {k} counts [{}] differ from op 0 [{}]",
                    signatures[k], signatures[0]
                ));
            }
        }
        let ledger_dir = Path::new(WORK_DIR).join("repeat");
        std::fs::create_dir_all(&ledger_dir).map_err(|e| e.to_string())?;
        let ledger = ledger_dir.join(format!(
            "{}-seed{}-{:016x}.txt",
            self.args.workload,
            self.args.seed,
            binary_hash()
        ));
        let previous: Vec<String> = std::fs::read_to_string(&ledger)
            .map(|text| text.lines().map(str::to_owned).collect())
            .unwrap_or_default();
        let common = previous.len().min(signatures.len()).min(LEDGER_OPS);
        if let Some(k) = (0..common).find(|&k| previous[k] != signatures[k]) {
            return Err(format!(
                "op {k} counts [{}] differ from an earlier run of this seed [{}]",
                signatures[k], previous[k]
            ));
        }
        if signatures.len() > previous.len() && previous.len() < LEDGER_OPS {
            let kept = &signatures[..signatures.len().min(LEDGER_OPS)];
            std::fs::write(&ledger, kept.join("\n")).map_err(|e| e.to_string())?;
        }
        Ok(if common == 0 {
            "ledger written; the next run of this seed compares against it".to_owned()
        } else {
            format!("{common} ops repeat an earlier run of this seed exactly")
        })
    }

    fn report(&self, repeat: Result<String, String>) -> String {
        let attempted = self.records.len();
        let failures: Vec<&OpRecord> =
            self.records.iter().filter(|r| r.failure.is_some()).collect();
        for record in failures.iter().take(5) {
            eprintln!("perfbench: failed op: {}", record.failure.as_deref().unwrap_or(""));
        }
        let workload = &self.args.workload;
        match &repeat {
            Ok(message) => println!("exact-repeat {workload}: {message}"),
            Err(message) => println!("exact-repeat {workload}: MISMATCH: {message}"),
        }
        let correct = failures.is_empty() && repeat.is_ok() && attempted > 0;
        let metrics =
            if self.args.trace { self.per_layer_metrics() } else { self.end_to_end_metrics() };
        let mut row = format!(
            "row {workload} ops={attempted} error_rate={}",
            failures.len() as f64 / attempted.max(1) as f64
        );
        if !self.args.trace {
            // Printed, not gated: on a shared host, a few seconds of stall
            // decide a short operation's p95 (see the README).
            let mut latency: Vec<f64> = self.measured().map(|r| ms(r.latency_ns)).collect();
            let _ = write!(row, " latency_ms_p95={}:ms", p95(&mut latency));
        }
        for (name, value, unit) in &metrics {
            let _ = write!(row, " {name}={value}:{unit}");
        }
        println!("{row}");
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            failures.len()
        );
        for (k, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        json
    }

    /// The operations the end-to-end timings are taken over: successful
    /// ones after the warm-up.
    fn measured(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter().filter(|r| r.failure.is_none() && !r.warmup)
    }

    fn end_to_end_metrics(&self) -> Vec<(String, f64, &'static str)> {
        let ok: Vec<&OpRecord> = self.measured().collect();
        let mut latency: Vec<f64> = ok.iter().map(|r| ms(r.latency_ns)).collect();
        let mut observe: Vec<f64> = ok.iter().map(|r| ms(r.observe_ns)).collect();
        let rss_kb = if self.args.workload == "restart_warm" {
            let mut child: Vec<f64> = ok.iter().map(|r| r.child_rss_kb as f64).collect();
            median(&mut child)
        } else {
            self.rss_kb.unwrap_or_else(peak_rss_kb) as f64
        };
        let mut setups = self.setups.clone();
        vec![
            ("setup_s".to_owned(), median(&mut setups), "s"),
            ("latency_ms_p50".to_owned(), median(&mut latency), "ms"),
            ("run_ms_p50".to_owned(), median(&mut observe), "ms"),
            ("target_words".to_owned(), self.initial.target_words as f64, "words"),
            ("peak_rss_mb".to_owned(), rss_kb / 1024.0, "MB"),
        ]
    }

    fn per_layer_metrics(&self) -> Vec<(String, f64, &'static str)> {
        let traced: Vec<&OpRecord> = self.records.iter().filter(|r| r.traced).collect();
        let untraced: Vec<&OpRecord> =
            self.records.iter().filter(|r| !r.traced && !r.warmup).collect();
        let ops = traced.len().max(1) as f64;
        let mut sum = Counters::default();
        for record in &traced {
            sum.add(&record.counters);
        }
        let per_op = |v: u64| v as f64 / ops;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let span_ms = |name: &str| ms(self.tracer.total(name).total_ns) / ops;
        let span_calls = |name: &str| self.tracer.total(name).count as f64 / ops;
        let mut metrics = Vec::new();
        let mut push = |name: &str, value: f64, unit: &'static str| {
            metrics.push((name.to_owned(), value, unit));
        };
        for (layer, span) in [
            ("source.typecheck", "source.typecheck"),
            ("core.translate", "core.translate"),
            ("target.check", "target.check"),
            ("core.verify", "core.verify"),
        ] {
            push(&format!("{layer}.ms"), span_ms(span), "ms");
            push(&format!("{layer}.calls"), span_calls(span), "count");
        }
        let expansion = ratio(self.initial.target_words, self.initial.source_words);
        push("core.translate.expansion", expansion, "ratio");
        push("util.intern.requests", per_op(sum.intern_requests), "count");
        push("util.intern.hit_ratio", ratio(sum.intern_hits, sum.intern_requests), "ratio");
        push("util.conv.identity_hits", per_op(sum.conv_identity_hits), "count");
        push(
            "util.conv.memo_hit_ratio",
            ratio(sum.conv_memo_hits, sum.conv_memo_hits + sum.conv_memo_misses),
            "ratio",
        );
        push("driver.graph.plan.ms", span_ms("driver.graph.plan"), "ms");
        push("driver.session.key.ms", span_ms("driver.session.key"), "ms");
        push("driver.session.build.ms", span_ms("driver.session.build"), "ms");
        push("driver.session.critical_path.ms", ms(sum.critical_path_ns) / ops, "ms");
        push("driver.session.worker_idle.ms", ms(sum.worker_idle_ns) / ops, "ms");
        push("driver.query.typecheck_runs", per_op(sum.typecheck_runs), "count");
        push("driver.query.translate_runs", per_op(sum.translate_runs), "count");
        push("driver.query.check_runs", per_op(sum.check_runs), "count");
        push("driver.query.verify_runs", per_op(sum.verify_runs), "count");
        push("driver.query.cutoff_ratio", ratio(sum.cached, sum.units), "ratio");
        push("driver.cache.hits", per_op(sum.cache_hits), "count");
        push("driver.cache.misses", per_op(sum.cache_misses), "count");
        push("driver.cache.coalesced", per_op(sum.cache_coalesced), "count");
        push("driver.store.open.ms", span_ms("driver.store.open"), "ms");
        push("driver.store.load.ms", span_ms("driver.store.load"), "ms");
        push("driver.store.disk_hits", per_op(sum.disk_hits), "count");
        push("driver.store.verified_hits", per_op(sum.verified_hits), "count");
        push("driver.store.bytes_read", per_op(sum.bytes_read), "bytes");
        push("driver.store.sections_decoded", per_op(sum.sections_decoded), "count");
        push("driver.store.write_throughs", per_op(sum.write_throughs), "count");
        push("driver.store.bytes_written", per_op(sum.bytes_written), "bytes");
        push("driver.store.retries", per_op(sum.retries), "count");
        push("core.link.observe.ms", span_ms("core.link.observe"), "ms");
        push("proc.spawn_to_exit.ms", span_ms("proc.spawn_to_exit"), "ms");
        self.print_trace_summary(&traced, &untraced, ops);
        metrics
    }

    /// Writes the Chrome trace and prints the self-time table and the
    /// tracing overhead.
    fn print_trace_summary(&self, traced: &[&OpRecord], untraced: &[&OpRecord], ops: f64) {
        let path = Path::new(WORK_DIR)
            .join(format!("trace-{}-seed{}.json", self.args.workload, self.args.seed));
        match std::fs::write(&path, self.tracer.chrome_json()) {
            Ok(()) => println!("trace: {} (Chrome trace-event JSON)", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        // Self times partition the traced time: each span's share of it.
        let traced_ns = self.tracer.totals().values().map(|t| t.self_ns).sum::<u64>().max(1) as f64;
        println!(
            "{:<28} {:>9} {:>11} {:>11} {:>7}",
            "span (per traced op)", "calls", "total ms", "self ms", "self %"
        );
        for (name, total) in self.tracer.totals() {
            println!(
                "{name:<28} {:>9.2} {:>11.4} {:>11.4} {:>6.1}%",
                total.count as f64 / ops,
                ms(total.total_ns) / ops,
                ms(total.self_ns) / ops,
                100.0 * total.self_ns as f64 / traced_ns,
            );
        }
        let p50 = |records: &[&OpRecord]| {
            let mut v: Vec<f64> = records.iter().map(|r| ms(r.latency_ns)).collect();
            median(&mut v)
        };
        let (on, off) = (p50(traced), p50(untraced));
        println!(
            "tracing overhead: latency p50 {on:.4} ms traced ({} ops) \
             vs {off:.4} ms untraced ({} ops): {:+.2}%",
            traced.len(),
            untraced.len(),
            if off > 0.0 { 100.0 * (on / off - 1.0) } else { 0.0 }
        );
    }
}

/// A hash of this executable, so that a repeat ledger is only compared
/// against runs of the same build.
fn binary_hash() -> u64 {
    let mut hasher = DefaultHasher::new();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        hasher.write(&bytes);
    }
    hasher.finish()
}

/// One restart: open the store, add the graph, build, observe — timed
/// from entry to verdict with input generation excluded — and report on
/// one `child …` line (plus `span …` lines when traced).
fn child_main(argv: &[String]) -> i32 {
    let Some(store_dir) = argv.first() else {
        eprintln!("perfbench --child needs a store directory");
        return 2;
    };
    let seed = argv.windows(2).find(|w| w[0] == "--seed").and_then(|w| w[1].parse().ok());
    let Some(seed) = seed else {
        eprintln!("perfbench --child needs --seed");
        return 2;
    };
    let verify = argv.iter().any(|a| a == "--verify");
    let mut tracer = Tracer::new();
    tracer.set_on(argv.iter().any(|a| a == "--trace"));
    let graph = Graph::generate(seed);
    let terms: Vec<src::Term> = (0..graph.units.len()).map(|u| graph.term(u)).collect();
    match restart(&mut tracer, Path::new(store_dir), &graph, &terms, verify) {
        Ok(line) => {
            for span in tracer.export_lines() {
                println!("{span}");
            }
            println!("child {line}");
            0
        }
        Err(message) => {
            println!("child error={} | ", message.replace(char::is_whitespace, "_"));
            0
        }
    }
}

fn restart(
    tracer: &mut Tracer,
    store_dir: &Path,
    graph: &Graph,
    terms: &[src::Term],
    verify: bool,
) -> Result<String, String> {
    let started = Instant::now();
    let session = tracer
        .span("driver.session.open", || Session::with_store(CompilerOptions::default(), store_dir));
    let mut session = session.map_err(|e| e.to_string())?;
    for (u, term) in terms.iter().enumerate() {
        let imports = graph.imports(u);
        tracer
            .span("driver.session.key", || session.add_unit(&graph.units[u].name, &imports, term))
            .map_err(|e| e.to_string())?;
    }
    let report = tracer.span("driver.session.build", || session.build(workers()));
    let report = report.map_err(|e| e.to_string())?;
    let observe_started = Instant::now();
    let observed = tracer.span("core.link.observe", || session.observe("main"));
    let observe_ns = ns(observe_started);
    let latency_ns = ns(started);
    let observed = observed.map_err(|e| e.to_string())?;
    if !report.is_success() {
        return Err(format!("build failed: {}", report.summary()));
    }
    if verify {
        oracle_agrees(&session)?;
    }
    if tracer.is_on() {
        traced_extras(tracer, &session, &report, Some(store_dir))?;
    }
    let observed = observed.map_or("none".to_owned(), |b| b.to_string());
    Ok(format!(
        "latency_ns={latency_ns} observe_ns={observe_ns} observed={observed} rss_kb={} | {}",
        peak_rss_kb(),
        Counters::of(&report).encode()
    ))
}

/// `--workload all`: every workload in its own process, one table row
/// per workload.
fn run_all(args: &Args) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot find this executable");
        return 1;
    };
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let Ok(output) = output else {
            eprintln!("perfbench: cannot run the {workload} workload");
            return 1;
        };
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        if args.trace {
            print!("{stdout}");
        }
        match stdout.lines().find(|l| l.starts_with("row ")) {
            Some(row) if output.status.success() => rows.push(row.to_owned()),
            _ => {
                eprintln!(
                    "perfbench: {workload} failed:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                );
                return 1;
            }
        }
    }
    for row in rows {
        let mut cells = row.split_whitespace().skip(1);
        let workload = cells.next().unwrap_or("?");
        let cells: Vec<String> = cells
            .map(|cell| match cell.split_once('=') {
                Some((name, value)) => match value.rsplit_once(':') {
                    Some((v, unit)) => {
                        format!(
                            "{name}={} {unit}",
                            v.parse::<f64>().map_or(v.to_owned(), |x| format!("{x:.4}"))
                        )
                    }
                    None => cell.to_owned(),
                },
                None => cell.to_owned(),
            })
            .collect();
        println!("{workload:<13} {}", cells.join(" | "));
    }
    0
}
