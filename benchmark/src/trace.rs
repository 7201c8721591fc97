//! In-memory spans around the calls into each layer.
//!
//! The benchmark measures from outside: a span is a pair of clock reads
//! around one public call, recorded by the loader that made it. Every span
//! feeds a per-name aggregate (count, total, time covered by children); the
//! first [`KEPT_PER_THREAD`] spans of each thread are also kept verbatim and
//! written to `out/trace-<workload>.json` when the run ends. Timestamps are
//! `smr_common::time::mono_ns`, nanoseconds since process start.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Verbatim spans kept per thread; the aggregates cover all of them.
const KEPT_PER_THREAD: usize = 1 << 14;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One loader iteration or one KV round trip: the root of an op.
    BenchOp,
    DsGet,
    DsInsert,
    DsRemove,
    KvSubmit,
    KvWait,
    KvStoreGet,
    KvStoreInsert,
    KvStoreRemove,
    /// A fixed-count probe of one layer (primitives, route, matrix cells).
    Probe,
}

/// Every name with its text, in discriminant order.
const ALL: [(SpanName, &str); 10] = [
    (SpanName::BenchOp, "bench.op"),
    (SpanName::DsGet, "ds.get"),
    (SpanName::DsInsert, "ds.insert"),
    (SpanName::DsRemove, "ds.remove"),
    (SpanName::KvSubmit, "kv-service.submit"),
    (SpanName::KvWait, "kv-service.wait"),
    (SpanName::KvStoreGet, "kv-service.store_get"),
    (SpanName::KvStoreInsert, "kv-service.store_insert"),
    (SpanName::KvStoreRemove, "kv-service.store_remove"),
    (SpanName::Probe, "bench.probe"),
];

impl SpanName {
    pub fn as_str(self) -> &'static str {
        ALL[self as usize].1
    }
}

#[derive(Clone, Copy)]
struct Span {
    name: SpanName,
    /// Overrides the name in the file: probes carry their metric's name.
    label: Option<&'static str>,
    start: u64,
    end: u64,
    parent: Option<u32>,
    op_id: Option<u64>,
}

#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Part of `total_ns` covered by child spans.
    pub child_ns: u64,
}

impl LayerTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// One thread's spans. Not shared: each loader owns its tracer.
pub struct Tracer {
    thread: u32,
    spans: Vec<Span>,
    dropped: u64,
    totals: [LayerTotals; ALL.len()],
}

/// Handle to a recorded root span, for attaching children.
#[derive(Clone, Copy)]
pub struct Root {
    name: SpanName,
    kept: Option<u32>,
}

impl Tracer {
    pub fn new(thread: u32) -> Self {
        Self {
            thread,
            spans: Vec::with_capacity(KEPT_PER_THREAD),
            dropped: 0,
            totals: [LayerTotals::default(); ALL.len()],
        }
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        let t = &mut self.totals[span.name as usize];
        t.count += 1;
        t.total_ns += span.end.saturating_sub(span.start);
        if self.spans.len() < KEPT_PER_THREAD {
            self.spans.push(span);
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        }
    }

    #[inline]
    pub fn root(&mut self, name: SpanName, start: u64, end: u64, op_id: u64) -> Root {
        let kept = self.push(Span {
            name,
            label: None,
            start,
            end,
            parent: None,
            op_id: Some(op_id),
        });
        Root { name, kept }
    }

    #[inline]
    pub fn child(&mut self, root: Root, name: SpanName, start: u64, end: u64, op_id: u64) {
        self.totals[root.name as usize].child_ns += end.saturating_sub(start);
        self.push(Span {
            name,
            label: None,
            start,
            end,
            parent: root.kept,
            op_id: Some(op_id),
        });
    }

    /// A span with no op: one fixed-count probe, labelled with its metric.
    pub fn probe(&mut self, label: &'static str, start: u64, end: u64) {
        self.push(Span {
            name: SpanName::Probe,
            label: Some(label),
            start,
            end,
            parent: None,
            op_id: None,
        });
    }

    pub fn totals(&self, name: SpanName) -> LayerTotals {
        self.totals[name as usize]
    }
}

/// Sums one layer's totals over every thread's tracer.
pub fn layer(tracers: &[Tracer], name: SpanName) -> LayerTotals {
    let mut sum = LayerTotals::default();
    for t in tracers {
        let l = t.totals(name);
        sum.count += l.count;
        sum.total_ns += l.total_ns;
        sum.child_ns += l.child_ns;
    }
    sum
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Renders the trace file. `meta` is a ready-made JSON object.
pub fn render(workload: &str, meta: &str, tracers: &[Tracer]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"workload\":\"{workload}\",\"meta\":{meta},\"clock\":\"ns since process start\",\"layers\":[");
    let mut first = true;
    for (name, _) in ALL {
        let l = layer(tracers, name);
        if l.count == 0 {
            continue;
        }
        let sep = if first { "" } else { "," };
        first = false;
        let _ = write!(
            s,
            "{sep}\n{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            name.as_str(),
            l.count,
            l.total_ns,
            l.self_ns()
        );
    }
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    let _ = write!(s, "],\"spans_not_kept\":{dropped},\"spans\":[");
    let mut base = 0u32;
    let mut first = true;
    for t in tracers {
        for (i, sp) in t.spans.iter().enumerate() {
            let sep = if first { "" } else { "," };
            first = false;
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                s,
                "{sep}\n{{\"id\":{},\"thread\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op_id\":{}}}",
                base + i as u32,
                t.thread,
                sp.label.unwrap_or(sp.name.as_str()),
                sp.start,
                sp.end,
                opt(sp.parent.map(|p| (base + p) as u64)),
                opt(sp.op_id),
            );
        }
        base += t.spans.len() as u32;
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(0);
        let root = t.root(SpanName::BenchOp, 100, 200, 7);
        t.child(root, SpanName::KvSubmit, 100, 130, 7);
        t.child(root, SpanName::KvWait, 150, 200, 7);
        let op = t.totals(SpanName::BenchOp);
        assert_eq!(
            (op.count, op.total_ns, op.child_ns, op.self_ns()),
            (1, 100, 80, 20)
        );
        assert_eq!(t.totals(SpanName::KvSubmit).mean_ns(), 30.0);
        assert_eq!(layer(&[t], SpanName::KvWait).total_ns, 50);
    }

    #[test]
    fn aggregates_cover_spans_that_are_not_kept() {
        let mut t = Tracer::new(1);
        for i in 0..(KEPT_PER_THREAD as u64 + 10) {
            t.root(SpanName::DsGet, i, i + 2, i);
        }
        assert_eq!(t.totals(SpanName::DsGet).count, KEPT_PER_THREAD as u64 + 10);
        assert_eq!(t.dropped, 10);
        assert_eq!(t.spans.len(), KEPT_PER_THREAD);
    }

    #[test]
    fn rendered_parents_point_at_file_wide_ids() {
        let mut a = Tracer::new(0);
        a.root(SpanName::BenchOp, 0, 5, 0);
        let mut b = Tracer::new(1);
        let root = b.root(SpanName::BenchOp, 0, 9, 1);
        b.child(root, SpanName::DsInsert, 2, 8, 1);
        b.probe("hp.protect_ns", 10, 20);
        let text = render("w", "{}", &[a, b]);
        assert!(text.contains("{\"id\":2,\"thread\":1,\"name\":\"ds.insert\",\"start\":2,\"end\":8,\"parent\":1,\"op_id\":1}"));
        assert!(text.contains(
            "\"name\":\"hp.protect_ns\",\"start\":10,\"end\":20,\"parent\":null,\"op_id\":null"
        ));
        assert!(text.contains("{\"name\":\"bench.op\",\"count\":2,\"total_ns\":14,\"self_ns\":8}"));
    }
}
