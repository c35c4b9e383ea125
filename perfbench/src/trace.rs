//! Spans around the calls into each layer: name, start, end, parent and op
//! id, kept in memory and written once when the run ends. A span's self
//! time is its duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer (or `op` for an op's root span).
    pub name: &'static str,
    /// The workload (or `setup`) the span ran in.
    pub phase: &'static str,
    /// The op the span belongs to; spans of one op share it.
    pub op: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// The span's base count: instructions, column-events, bytes, calls.
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: &'static str,
    op: u32,
    /// Off: spans cost one branch and record nothing, so the same calls
    /// can be timed untraced in process.
    on: bool,
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: "setup",
            op: 0,
            on: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Tags the spans that follow with `phase`.
    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            phase: self.phase,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost span, which must be `idx`, with its base
    /// count; `rename` relabels it once its outcome is known.
    pub fn exit(&mut self, idx: usize, count: u64, rename: Option<&'static str>) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.count = count;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Runs `f` inside a span; `f` returns its value and base count.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        let idx = self.enter(name);
        let (value, count) = f(self);
        self.exit(idx, count, None);
        value
    }

    /// Runs `f` as one op: a root span `op` under a fresh op id.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op += 1;
        self.span("op", |t| (f(t), 1))
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"phase\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.phase, s.op, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

/// One layer's totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their base counts.
    pub count: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Sum of their durations.
    pub total_ns: u64,
}

/// Each span's self time: its duration minus its children's.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

/// Totals per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.count += s.count;
        l.self_ns += own;
        l.total_ns += s.dur_ns();
    }
    out
}

/// How a per-layer metric derives from its span's totals.
#[derive(Clone, Copy)]
enum Rate {
    /// Self time per base count (ns per unit).
    PerCount,
    /// Self time per call, divided by the factor.
    PerCall(f64),
    /// Total time (children included) per call, divided by the factor.
    TotalPerCall(f64),
    /// Base count (bytes) in MB per second of self time.
    MbPerS,
    /// Base count.
    Count,
    /// Base count (bytes) in MB.
    Mb,
    /// Calls.
    Calls,
}

use Rate::*;

/// The span-derived per-layer metrics: name, span, derivation, unit.
#[rustfmt::skip]
const LAYER_METRICS: &[(&str, &str, Rate, &str)] = &[
    ("sim.timing.simple.ns_per_instr",      "sim.timing.simple",     PerCount,          "ns"),
    ("sim.timing.global.ns_per_instr",      "sim.timing.global",     PerCount,          "ns"),
    ("sim.timing.per.ns_per_instr",         "sim.timing.per",        PerCount,          "ns"),
    ("sim.timing.path.ns_per_instr",        "sim.timing.path",       PerCount,          "ns"),
    ("sim.timing.perfect.ns_per_instr",     "sim.timing.perfect",    PerCount,          "ns"),
    ("sim.timing.sink.ns_per_instr",        "sim.timing.sink",       PerCount,          "ns"),
    ("sim.timing.sink.instructions",        "sim.timing.sink",       Count,             "count"),
    ("sim.timing.interp.ns_per_instr",      "sim.timing.interp",     PerCount,          "ns"),
    ("sim.timing.interp.instructions",      "sim.timing.interp",     Count,             "count"),
    ("sweep.lane_packed.ns_per_col_event",  "sweep.lane_packed",     PerCount,          "ns"),
    ("sweep.lane_packed.col_events",        "sweep.lane_packed",     Count,             "count"),
    ("sweep.ideal_path.ns_per_col_event",   "sweep.ideal_path",      PerCount,          "ns"),
    ("sweep.ideal_path.col_events",         "sweep.ideal_path",      Count,             "count"),
    ("sweep.ideal_scheme.ns_per_col_event", "sweep.ideal_scheme",    PerCount,          "ns"),
    ("sweep.ideal_scheme.col_events",       "sweep.ideal_scheme",    Count,             "count"),
    ("sweep.automaton.ns_per_col_event",    "sweep.automaton",       PerCount,          "ns"),
    ("sweep.automaton.col_events",          "sweep.automaton",       Count,             "count"),
    ("sweep.cttb.ns_per_col_event",         "sweep.cttb",            PerCount,          "ns"),
    ("sweep.cttb.col_events",               "sweep.cttb",            Count,             "count"),
    ("sweep.table3.ns_per_event",           "sweep.table3",          PerCount,          "ns"),
    ("sweep.table3.events",                 "sweep.table3",          Count,             "count"),
    ("sweep.scalar.ns_per_event",           "sweep.scalar",          PerCount,          "ns"),
    ("sweep.scalar.events",                 "sweep.scalar",          Count,             "count"),
    ("harness.cache.load_ms",               "harness.cache.load",    TotalPerCall(1e6), "ms"),
    ("harness.cache.loads",                 "harness.cache.load",    Calls,             "count"),
    ("sim.codec.decode_mb_per_s",           "sim.codec.decode",      MbPerS,            "MB/s"),
    ("sim.codec.decode_mb",                 "sim.codec.decode",      Mb,                "MB"),
    ("sim.derive.ns_per_task",              "sim.derive",            PerCount,          "ns"),
    ("sim.derive.tasks",                    "sim.derive",            Count,             "count"),
    ("workloads.build_ms",                  "workloads.build",       PerCall(1e6),      "ms"),
    ("workloads.builds",                    "workloads.build",       Calls,             "count"),
    ("taskform.form_ms",                    "taskform.form",         PerCall(1e6),      "ms"),
    ("taskform.forms",                      "taskform.form",         Calls,             "count"),
    ("sim.record.ns_per_instr",             "sim.record",            PerCount,          "ns"),
    ("sim.record.instructions",             "sim.record",            Count,             "count"),
    ("sim.codec.encode_mb_per_s",           "sim.codec.encode",      MbPerS,            "MB/s"),
    ("sim.codec.encode_mb",                 "sim.codec.encode",      Mb,                "MB"),
    ("harness.report.render_us",            "harness.report.render", PerCall(1e3),      "us"),
    ("harness.report.renders",              "harness.report.render", Calls,             "count"),
    ("harness.proto.parse_us",              "harness.proto.parse",   PerCall(1e3),      "us"),
    ("harness.proto.encode_us",             "harness.proto.encode",  PerCall(1e3),      "us"),
    ("harness.proto.lines",                 "harness.proto.encode",  Calls,             "count"),
    ("harness.serve.hit_us",                "harness.serve.hit",     PerCall(1e3),      "us"),
    ("harness.serve.hits",                  "harness.serve.hit",     Calls,             "count"),
    ("harness.serve.miss_ms",               "harness.serve.miss",    PerCall(1e6),      "ms"),
    ("harness.serve.misses",                "harness.serve.miss",    Calls,             "count"),
];

/// Every span-derived per-layer metric as `(name, value, unit)`.
pub fn layer_metrics(spans: &[Span]) -> Vec<(&'static str, f64, &'static str)> {
    let l = layers(spans);
    LAYER_METRICS
        .iter()
        .map(|&(name, span, rate, unit)| {
            let x = l.get(span).copied().unwrap_or_default();
            let value = match rate {
                PerCount => x.self_ns as f64 / x.count.max(1) as f64,
                PerCall(f) => x.self_ns as f64 / x.calls.max(1) as f64 / f,
                TotalPerCall(f) => x.total_ns as f64 / x.calls.max(1) as f64 / f,
                MbPerS => x.count as f64 / 1e6 / (x.self_ns.max(1) as f64 / 1e9),
                Count => x.count as f64,
                Mb => x.count as f64 / 1e6,
                Calls => x.calls as f64,
            };
            (name, value, unit)
        })
        .collect()
}

/// For one phase: the summed duration of its op root spans, and the part
/// of it their direct children (the layer calls) cover.
pub fn phase_cover(spans: &[Span], phase: &str) -> (u64, u64) {
    let mut ops = 0;
    let mut covered = 0;
    for s in spans.iter().filter(|s| s.phase == phase) {
        match s.parent {
            None => ops += s.dur_ns(),
            Some(p) if spans[p].parent.is_none() => covered += s.dur_ns(),
            Some(_) => {}
        }
    }
    (ops, covered)
}

/// Layer groups for the per-workload self-time shares: a span belongs to
/// the first group whose prefix its name starts with.
pub const SHARE_GROUPS: [(&str, &[&str]); 5] = [
    ("timing", &["sim.timing."]),
    ("sweep", &["sweep."]),
    (
        "prepare",
        &[
            "workloads.",
            "taskform.",
            "sim.measure.",
            "harness.cache.",
            "sim.codec.",
            "sim.derive",
            "sim.record",
        ],
    ),
    ("render", &["harness.report."]),
    ("serve", &["harness.proto.", "harness.serve."]),
];

/// For one phase: each group's self time as a share of the phase's op
/// time (the op root spans), in `SHARE_GROUPS` order. The op roots' own
/// self time is the rest.
pub fn phase_shares(spans: &[Span], phase: &str) -> Vec<(&'static str, f64)> {
    let mut ops_ns = 0;
    let mut group_ns = [0u64; SHARE_GROUPS.len()];
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        if s.phase != phase {
            continue;
        }
        if s.parent.is_none() {
            ops_ns += s.dur_ns();
        }
        let group = SHARE_GROUPS
            .iter()
            .position(|(_, prefixes)| prefixes.iter().any(|p| s.name.starts_with(p)));
        if let Some(g) = group {
            group_ns[g] += own;
        }
    }
    SHARE_GROUPS
        .iter()
        .zip(group_ns)
        .map(|(&(name, _), ns)| (name, ns as f64 / ops_ns.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_phase("w");
        t.op(|t| {
            t.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    ((), 7)
                });
                ((), 1)
            })
        });
        let l = layers(t.spans());
        assert_eq!(l["inner"].count, 7);
        assert!(l["outer"].self_ns < l["inner"].self_ns);
        assert_eq!(
            l["outer"].total_ns,
            l["outer"].self_ns + l["inner"].total_ns
        );
        let (ops, covered) = phase_cover(t.spans(), "w");
        assert!(covered <= ops && covered == l["outer"].total_ns);
        let shares = phase_shares(t.spans(), "w");
        assert!(
            shares.iter().all(|&(_, s)| s == 0.0),
            "no span is in a group"
        );
    }

    #[test]
    fn shares_split_self_time_by_group() {
        let mut t = Tracer::new();
        t.set_phase("w");
        t.op(|t| {
            t.span("sim.derive", |t| {
                t.span("sim.timing.path", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    ((), 1)
                });
                ((), 1)
            })
        });
        let shares: BTreeMap<_, _> = phase_shares(t.spans(), "w").into_iter().collect();
        assert!(shares["timing"] > shares["prepare"]);
        assert!(shares.values().sum::<f64>() <= 1.0);
        assert_eq!(shares["sweep"], 0.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.op(|t| t.span("sim.derive", |_| (7, 1)));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
