//! Spans recorded from the benchmark's own code around each call into
//! a layer: name, start, end, parent and request id, kept in memory and
//! written out once the run ends.
//!
//! A span's layer is its name up to the first `.` (`serve.submit` →
//! `serve`). Self time is a span's duration minus the durations of its
//! children. Work that cannot be observed inside a served request (the
//! worker's suite query, the WAL append inside a durable insert) is
//! measured on its own afterwards and attached as an *attributed* child
//! at the end of the span that contained it.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request (or op) id shared by every span of one operation.
    pub req: u64,
    /// `layer.what`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Recording thread (client index).
    pub tid: u32,
    /// Measured separately and placed under its parent, not observed
    /// inside it.
    pub attributed: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. When off, every method is a no-op and
/// allocates nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    seq: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `tid` (from [`Trace::reserve`], so span ids
    /// are unique across every recorder of a run).
    pub fn new(on: bool, origin: Instant, tid: u32) -> Self {
        Self {
            on,
            origin,
            tid,
            seq: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id (0 when off), so children can name their
    /// parent before the parent is recorded.
    pub fn id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.seq += 1;
        (u64::from(self.tid) + 1) << 40 | self.seq
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start: ns(start),
            end: ns(end),
            tid: self.tid,
            attributed: false,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// All spans of a run, merged from every thread.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    next_attr: u64,
    /// Per parent: how much of its tail attributed children already take.
    tail_ns: HashMap<u64, u64>,
    /// Recorder ids handed out so far.
    recorders: u32,
}

impl Trace {
    /// Reserves `n` consecutive recorder ids; returns the first.
    pub fn reserve(&mut self, n: u32) -> u32 {
        self.recorders += n;
        self.recorders - n
    }

    /// Adds one thread's spans.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Attaches separately measured work of `dur_ns` as a child of
    /// every span for which `pick` returns `Some(dur_ns)`, placed at the
    /// end of the parent's interval, before any child attributed
    /// earlier.
    pub fn attribute(&mut self, name: &'static str, mut pick: impl FnMut(&Span) -> Option<u64>) {
        let mut extra = Vec::new();
        for s in &self.spans {
            if s.attributed {
                continue;
            }
            if let Some(dur) = pick(s) {
                self.next_attr += 1;
                let tail = self.tail_ns.entry(s.id).or_default();
                let end = s.end.saturating_sub(*tail);
                *tail += dur;
                extra.push(Span {
                    id: self.next_attr,
                    parent: s.id,
                    req: s.req,
                    name,
                    start: end.saturating_sub(dur),
                    end,
                    tid: s.tid,
                    attributed: true,
                });
            }
        }
        self.spans.extend(extra);
    }

    /// Self time per layer for every root span named `root`, in µs:
    /// `layer → one value per root`, zero where the layer did no work
    /// under that root. Self time may be negative when attributed
    /// children measured longer than the span that contained them.
    pub fn self_us_by_layer(&self, root: &str) -> BTreeMap<&'static str, Vec<f64>> {
        let by_id: HashMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur();
            }
        }
        let root_of = |s: &Span| {
            let (mut id, mut parent) = (s.id, s.parent);
            while let Some(p) = by_id.get(&parent) {
                (id, parent) = (p.id, p.parent);
            }
            id
        };
        let roots: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == root)
            .map(|s| s.id)
            .collect();
        let index: HashMap<u64, usize> = roots.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let Some(&slot) = index.get(&root_of(s)) else {
                continue;
            };
            let own = s.dur() as f64 - child_ns.get(&s.id).copied().unwrap_or(0) as f64;
            out.entry(layer(s.name))
                .or_insert_with(|| vec![0.0; roots.len()])[slot] += own / 1e3;
        }
        out
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events), loadable in
    /// Perfetto; `args` carries id, parent, request id and whether the
    /// span was attributed. At most `limit` spans are written — the
    /// earliest by start time, with their attributed children — so the
    /// file stays small; the metrics use every span.
    pub fn to_json(&self, limit: usize) -> String {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by_key(|s| (s.start, s.id));
        order.truncate(limit);
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in order.into_iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"attributed\":{}}}}}",
                s.name,
                layer(s.name),
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.req,
                s.attributed
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a span name belongs to.
pub fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_attributions() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut t = Tracer::new(true, origin, 0);
        let root = t.id();
        let wait = t.id();
        t.record(wait, root, 7, "serve.wait", at(10), at(90));
        t.record(root, 0, 7, "bench.request", at(0), at(100));
        let mut trace = Trace::default();
        trace.absorb(t.into_spans());
        trace.attribute("core.query", |s| (s.name == "serve.wait").then_some(50_000));
        let by = trace.self_us_by_layer("bench.request");
        assert_eq!(by["bench"], vec![20.0]);
        assert_eq!(by["serve"], vec![30.0]);
        assert_eq!(by["core"], vec![50.0]);
        assert!(trace.to_json(10).contains("\"attributed\":true"));
        assert_eq!(trace.to_json(1).matches("\"ph\"").count(), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.id();
        t.record(id, 0, 0, "x.y", Instant::now(), Instant::now());
        assert_eq!(id, 0);
        assert!(t.into_spans().is_empty());
    }
}
