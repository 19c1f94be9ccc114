//! In-memory span recorder: one span per call the benchmark makes into a
//! layer, written out as JSON lines when the run ends.
//!
//! Spans nest through an explicit stack (`begin` pushes, `end` pops), so a
//! span's parent is whatever span was open when it began. Spans measured
//! elsewhere (a crowd wrapper's asks inside a service call) are attached
//! afterwards with [`Recorder::attach`]. A span's self time is its duration
//! minus the time its direct children cover; children of one parent never
//! overlap here, because every span is recorded on the benchmark's thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<SpanId>,
    /// The query (session) the call belongs to, when it belongs to one.
    pub query: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, query: Option<u64>) -> SpanId {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// Records a span that was timed outside the recorder.
    pub fn attach(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<SpanId>,
        query: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Attaches externally timed intervals to the recorded span named
    /// `parent_name` that contains each of them (parents must not overlap,
    /// which holds for sequential calls such as successive sweeps).
    pub fn attach_within(
        &mut self,
        name: &'static str,
        intervals: &[(Instant, Instant)],
        parent_name: &'static str,
    ) {
        let parents: Vec<SpanId> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == parent_name)
            .collect();
        for &(start, end) in intervals {
            let idx = parents.partition_point(|&p| self.spans[p].start <= start);
            let parent = idx
                .checked_sub(1)
                .map(|i| parents[i])
                .filter(|&p| self.spans[p].end >= end);
            self.attach(name, (start, end), parent, None);
        }
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total += span.duration();
            t.self_time += span.duration().saturating_sub(*children);
        }
        totals
    }

    /// Durations in ms of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes one JSON object per span (times in µs since the recorder was
    /// created), then one per span name with its total and self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}",
                s.name,
                us(s.start),
                us(s.end)
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            match s.query {
                Some(q) => {
                    let _ = write!(out, ",\"query\":{q}");
                }
                None => out.push_str(",\"query\":null"),
            }
            out.push_str("}\n");
        }
        for (name, t) in self.totals() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.self_time.as_secs_f64() * 1e3
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Opens a span when tracing (`rec` is `Some`).
pub fn begin_opt(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    query: Option<u64>,
) -> Option<SpanId> {
    rec.as_deref_mut().map(|r| r.begin(name, query))
}

/// Closes a span opened by [`begin_opt`].
pub fn end_opt(rec: &mut Option<&mut Recorder>, span: Option<SpanId>) {
    if let (Some(r), Some(span)) = (rec.as_deref_mut(), span) {
        r.end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        let outer = rec.begin("outer", Some(1));
        let inner = rec.begin("inner", Some(1));
        std::thread::sleep(Duration::from_millis(2));
        rec.end(inner);
        rec.end(outer);
        assert_eq!(rec.spans()[inner].parent, Some(outer));
        let totals = rec.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.self_time, o.total - i.total);
        assert_eq!(i.self_time, i.total);
    }

    #[test]
    fn attach_within_finds_the_containing_span() {
        let mut rec = Recorder::new();
        let a = rec.begin("sweep", None);
        let t0 = Instant::now();
        let t1 = Instant::now();
        rec.end(a);
        let b = rec.begin("sweep", None);
        let t2 = Instant::now();
        let t3 = Instant::now();
        rec.end(b);
        rec.attach_within("ask", &[(t0, t1), (t2, t3)], "sweep");
        let parents: Vec<_> = rec.spans()[2..].iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![Some(a), Some(b)]);
    }
}
