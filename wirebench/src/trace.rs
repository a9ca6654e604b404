//! Spans recorded by the traced run, around calls into each layer's public
//! functions, plus the accumulators the per-layer metrics come from.
//!
//! Spans stay in memory and are written out once the run ends, with a
//! per-span-name self-time table (a span's duration minus the time its
//! child spans cover).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request share this id.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Ids are unique across buffers made with
/// distinct `id_base` values.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, id_base: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id: self.next_id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        self.next_id
    }

    /// Reserve an id for a parent span whose end is not known yet; finish
    /// it with [`Tracer::close`].
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// Per span name: `(count, inclusive ns, self ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            // Children of one parent run one after another, so their sum is
            // the part of the parent's interval they cover.
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    table
}

/// Write the spans and the self-time table as one JSON document.
pub fn write_spans_file(
    path: &Path,
    header: &[(&str, String)],
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{")?;
    for (k, v) in header {
        write!(out, "\"{k}\": \"{v}\", ")?;
    }
    writeln!(
        out,
        "\"span_fields\": [\"id\", \"parent\", \"request\", \"name\", \"start_ns\", \"end_ns\"],"
    )?;
    writeln!(out, "\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[{}, {parent}, {}, \"{}\", {}, {}]{sep}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "],")?;
    writeln!(out, "\"self_time\": [")?;
    let table = self_times(spans);
    for (i, (name, (n, incl, own))) in table.iter().enumerate() {
        let sep = if i + 1 == table.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{name}\", \"count\": {n}, \"inclusive_ms\": {:.3}, \"self_ms\": {:.3}}}{sep}",
            *incl as f64 / 1e6,
            *own as f64 / 1e6
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Running sum and count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub sum: f64,
    pub n: u64,
}

impl Acc {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn add_us(&mut self, start: Instant, end: Instant) {
        self.add(end.saturating_duration_since(start).as_secs_f64() * 1e6);
    }

    /// Mean, or 0 when nothing was recorded (a layer this workload does
    /// not exercise).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    pub fn merge(&mut self, o: &Acc) {
        self.sum += o.sum;
        self.n += o.n;
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Tracer::new(epoch, 0);
        let root = t.open();
        t.record("child", 1, Some(root), at(1), at(3));
        t.record("child", 1, Some(root), at(4), at(5));
        t.close(root, "root", 1, None, at(0), at(10));
        let table = self_times(&t.spans);
        assert_eq!(table["root"], (1, 10_000_000, 7_000_000));
        assert_eq!(table["child"], (2, 3_000_000, 3_000_000));
    }
}
