//! In-memory span recording around calls into the fx10 layers.
//!
//! A span has a name, a start, an end, a parent and the request it
//! belongs to. Spans stay in memory until the run ends; then they are
//! written out as JSON lines and reduced to per-layer metrics. With
//! recording off, [`Tracer::span`] only calls its closure, which is what
//! the untraced replay (the base of `trace.overhead_frac`) runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: usize,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    /// Counts recorded at the same boundaries as the spans.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts attributing spans to request `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises counter `name` to at least `v`.
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let e = self.counts.entry(name).or_insert(0.0);
            *e = e.max(v);
        }
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Total self time of every span named `name`: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e6)
            .sum()
    }

    /// Self time of span `i` in nanoseconds. Children are clipped to the
    /// parent's interval and their union is subtracted, so the result is
    /// never negative.
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns) - covered
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_is_never_negative() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer = t.total_ms("outer");
        let inner = t.total_ms("inner");
        let own = t.self_ms("outer");
        assert!(inner >= 5.0 && own >= 2.0, "inner {inner} own {own}");
        assert!((outer - inner - own).abs() < 1e-6);
        for i in 0..t.spans.len() {
            assert!(t.self_ns(i) <= t.spans[i].end_ns - t.spans[i].start_ns);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| {
            t.count("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }
}
