//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, trace). The name's prefix up to
//! the first `.` is its layer, except for spans opened with
//! [`Tracer::unsplit`]: calls whose time is mostly simulation or
//! analytics inside them, which the benchmark cannot split from outside.
//! Their self time goes to the layer `unsplit`. Spans stay in memory and
//! are written out once, when the run ends. A disabled tracer reads no
//! clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer of spans around calls the benchmark cannot split.
pub const UNSPLIT: &str = "unsplit";

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The round (or probe) this span belongs to.
    pub trace: u32,
}

/// Records spans from one thread. Spans measured on other threads are
/// handed back and added with [`Tracer::record_unsplit`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    trace: RefCell<u32>,
}

fn prefix(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            trace: RefCell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new trace id (one per round or probe) and returns it.
    pub fn next_trace(&self) -> u32 {
        let mut trace = self.trace.borrow_mut();
        *trace += 1;
        *trace
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, in the layer its prefix
    /// names, nested under the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open_span(name, prefix(name), f)
    }

    /// Like [`Tracer::span`], for a call whose time the benchmark cannot
    /// split by layer; its self time counts as `unsplit`.
    pub fn unsplit<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open_span(name, UNSPLIT, f)
    }

    fn open_span<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                trace: *self.trace.borrow(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Adds an `unsplit` span measured on another thread under the
    /// innermost open span.
    pub fn record_unsplit(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            layer: UNSPLIT,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.borrow().last().copied(),
            trace: *self.trace.borrow(),
        };
        self.spans.borrow_mut().push(span);
    }

    /// Total duration in ms of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time per layer in ms, as wall-clock time: a span's self
    /// intervals are the parts of it that none of its children cover,
    /// and a layer's self time is the union of its spans' self
    /// intervals, so spans of one layer that run at once on several
    /// threads count once. Only spans of the given trace ids count.
    pub fn self_ms_by_layer(&self, traces: &[u32]) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut own: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if !traces.contains(&s.trace) {
                continue;
            }
            let gaps = own.entry(s.layer).or_default();
            let mut reach = s.start_ns;
            for (a, b) in union(std::mem::take(&mut children[i])) {
                let a = a.min(s.end_ns);
                if a > reach {
                    gaps.push((reach, a));
                }
                reach = reach.max(b);
            }
            if s.end_ns > reach {
                gaps.push((reach, s.end_ns));
            }
        }
        own.into_iter()
            .map(|(layer, gaps)| {
                let ns: u64 = union(gaps).iter().map(|(a, b)| b - a).sum();
                (layer, ns as f64 / 1e6)
            })
            .collect()
    }

    /// Writes every span as one JSON line, after a header line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.trace
            )?;
        }
        out.flush()
    }
}

/// The union of half-open intervals, sorted and disjoint.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (a, b) in intervals {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ if b > a => out.push((a, b)),
            _ => {}
        }
    }
    out
}
