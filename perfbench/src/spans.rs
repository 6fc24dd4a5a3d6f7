//! The benchmark's own spans: recorded in memory around the calls it
//! makes into each layer, written out as a Chrome trace when the run
//! ends, and summed into per-layer self times.

use cccc_util::trace::{BuildTrace, SpanRecord};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every span name the benchmark records, one per layer boundary.
pub const NAMES: [&str; 15] = [
    "bench.op",
    "bench.replay",
    "driver.session.open",
    "driver.session.key",
    "driver.session.build",
    "driver.session.interface",
    "driver.graph.plan",
    "driver.store.open",
    "driver.store.load",
    "core.link.observe",
    "source.typecheck",
    "core.translate",
    "target.check",
    "core.verify",
    "proc.spawn_to_exit",
];

/// Spans kept for the trace file; totals keep counting beyond it.
const MAX_KEPT_SPANS: usize = 40_000;

/// Maps a span name read back from a child process to its `'static` twin.
pub fn static_name(name: &str) -> Option<&'static str> {
    NAMES.iter().copied().find(|n| *n == name)
}

/// Count, total and self time of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// An in-memory span recorder; all calls are no-ops while it is off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    op: u64,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// A recorder that starts off.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            next_id: 1,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with operation number `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span, nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            let id = self.next_id;
            self.next_id += 1;
            let start_ns = self.now_ns();
            self.stack.push(Open { id, name, start_ns, child_ns: 0 });
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end matches a begin");
        let duration = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += duration;
            p.id
        });
        let span = SpanRecord {
            id: open.id,
            parent,
            name: open.name,
            unit: None,
            worker: 0,
            start_ns: open.start_ns,
            end_ns,
            counters: vec![("op", self.op)],
        };
        self.keep(span, duration.saturating_sub(open.child_ns));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let result = f();
        self.end();
        result
    }

    /// Adds a span another process recorded, shifted by `offset_ns` onto
    /// this recorder's clock and drawn on its own track. `parent` is the
    /// child's parent id (0 for its top level, which nests in the
    /// innermost span open here).
    pub fn import(&mut self, record: &ImportedSpan, offset_ns: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id + record.id;
        let parent = if record.parent == 0 {
            let duration = record.end_ns - record.start_ns;
            self.stack.last_mut().map(|p| {
                p.child_ns += duration;
                p.id
            })
        } else {
            Some(self.next_id + record.parent)
        };
        let span = SpanRecord {
            id,
            parent,
            name: record.name,
            unit: Some(Arc::from("child process")),
            worker: 1,
            start_ns: offset_ns + record.start_ns,
            end_ns: offset_ns + record.end_ns,
            counters: vec![("op", self.op)],
        };
        self.keep(span, record.self_ns);
    }

    /// Reserves ids for spans imported after this call (see
    /// [`Tracer::import`]); call once per imported batch.
    pub fn finish_import(&mut self, count: u64) {
        self.next_id += count + 1;
    }

    fn keep(&mut self, mut span: SpanRecord, self_ns: u64) {
        span.counters.push(("self_ns", self_ns));
        let total = self.totals.entry(span.name).or_default();
        total.count += 1;
        total.total_ns += span.duration_ns();
        total.self_ns += self_ns;
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(span);
        }
    }

    /// The totals of `name` (zero when it was never recorded).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// All totals, by span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    /// The kept spans as lines a parent process can [`Tracer::import`].
    pub fn export_lines(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                let self_ns = s.counters.iter().find(|(k, _)| *k == "self_ns").map_or(0, |c| c.1);
                let parent = s.parent.unwrap_or(0);
                format!("span {} {} {} {self_ns} {} {parent}", s.name, s.start_ns, s.end_ns, s.id)
            })
            .collect()
    }

    /// The kept spans in the Chrome trace-event format of
    /// [`BuildTrace::to_chrome_json`].
    pub fn chrome_json(&self) -> String {
        let trace =
            BuildTrace { spans: self.spans.clone(), events: Vec::new(), total_ns: self.now_ns() };
        trace.to_chrome_json()
    }
}

/// One span line written by [`Tracer::export_lines`].
#[derive(Clone, Debug)]
pub struct ImportedSpan {
    /// Span name.
    pub name: &'static str,
    /// Start on the child's clock.
    pub start_ns: u64,
    /// End on the child's clock.
    pub end_ns: u64,
    /// Self time.
    pub self_ns: u64,
    /// Id in the child.
    pub id: u64,
    /// Parent id in the child (0 for none).
    pub parent: u64,
}

impl ImportedSpan {
    /// Parses one `span …` line.
    pub fn parse(line: &str) -> Option<ImportedSpan> {
        let mut fields = line.strip_prefix("span ")?.split_whitespace();
        let name = static_name(fields.next()?)?;
        let mut number = || fields.next()?.parse::<u64>().ok();
        Some(ImportedSpan {
            name,
            start_ns: number()?,
            end_ns: number()?,
            self_ns: number()?,
            id: number()?,
            parent: number()?,
        })
    }
}
