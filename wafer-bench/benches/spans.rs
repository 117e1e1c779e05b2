//! In-memory spans around the calls into each simulator layer.
//!
//! A [`Recorder`] keeps every span (name, start, end, parent, cell) in a
//! vector and writes nothing until the run ends. A dark recorder records
//! nothing and reads no clock, so the end-to-end runs pay only for the
//! per-point timers they report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The figure point or serve cell the span belongs to.
    pub cell: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans for one traced repeat (or nothing, when dark).
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), cell: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with a point or cell id.
    pub fn set_cell(&mut self, cell: usize) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a plain call when dark).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, cell: self.cell });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Per span name: (count, total seconds, self seconds). Self time is a
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 * 1e-9;
            e.2 += (s.dur_ns() - child) as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, tagged with the repeat they came from.
    pub fn json_lines(&self, repeat: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"repeat\": {repeat}, \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"cell\": {}}}",
                s.name, s.start_ns, s.end_ns, s.cell
            );
        }
        out
    }
}

/// Per-`step_once` host latency of a serve run, split by what the step did.
#[derive(Debug, Default)]
pub struct StepTimes {
    pub route_ns: u64,
    pub routes: u64,
    pub engine_ns: u64,
    pub engine_events: u64,
    pub samples_ns: Vec<u64>,
}

impl StepTimes {
    pub fn record(&mut self, ns: u64, routed: bool) {
        if routed {
            self.route_ns += ns;
            self.routes += 1;
        } else {
            self.engine_ns += ns;
            self.engine_events += 1;
        }
        self.samples_ns.push(ns);
    }

    /// The `q`-quantile (nearest rank) of the step latencies, in ns.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.samples_ns.len() as f64).ceil() as usize).clamp(1, self.samples_ns.len());
        *self.samples_ns.select_nth_unstable(rank - 1).1 as f64
    }
}
