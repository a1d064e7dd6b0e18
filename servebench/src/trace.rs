//! In-memory spans recorded around calls into each layer's public
//! functions. A span's id is the batch it worked on, so differences
//! between two layers are taken on the same batch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer and call, such as `compiled.walk`.
    pub layer: &'static str,
    /// Batch the call worked on.
    pub id: u64,
    /// Records in that batch.
    pub records: usize,
    /// Duration in nanoseconds.
    pub ns: f64,
}

/// Collects spans until the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        id: u64,
        records: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.spans.push(Span {
            layer,
            id,
            records,
            ns,
        });
        out
    }

    /// Adds a span timed by the caller, for calls that do not nest, such
    /// as a pipelined batch from send to verdict.
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-batch nanoseconds per record of `layer`, keyed by batch id.
    fn per_batch(&self, layer: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.records > 0)
            .map(|s| (s.id, s.ns / s.records as f64))
            .collect()
    }

    /// Median nanoseconds per record of `layer`, or `None` without spans.
    pub fn ns_per_rec(&self, layer: &str) -> Option<f64> {
        let v: Vec<f64> = self.per_batch(layer).into_values().collect();
        (!v.is_empty()).then(|| crate::stats::median(&v))
    }

    /// Median over batches of `outer − inner`, nanoseconds per record,
    /// taken on batches that carry both spans.
    pub fn diff_ns_per_rec(&self, outer: &str, inner: &str) -> Option<f64> {
        let inner = self.per_batch(inner);
        let v: Vec<f64> = self
            .per_batch(outer)
            .into_iter()
            .filter_map(|(id, o)| inner.get(&id).map(|i| o - i))
            .collect();
        (!v.is_empty()).then(|| crate::stats::median(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(t: &mut Tracer, layer: &'static str, id: u64, ns: f64) {
        t.spans.push(Span {
            layer,
            id,
            records: 10,
            ns,
        });
    }

    #[test]
    fn differences_pair_spans_by_batch() {
        let mut t = Tracer::default();
        push(&mut t, "outer", 1, 100.0);
        push(&mut t, "outer", 2, 300.0);
        push(&mut t, "outer", 3, 999.0);
        push(&mut t, "inner", 1, 50.0);
        push(&mut t, "inner", 2, 100.0);
        // Batch 3 has no inner span and is left out: (5 + 20) / 2.
        assert_eq!(t.diff_ns_per_rec("outer", "inner"), Some(12.5));
        assert_eq!(t.ns_per_rec("inner"), Some(7.5));
        assert_eq!(t.ns_per_rec("missing"), None);
    }

    #[test]
    fn span_returns_the_call_result() {
        let mut t = Tracer::default();
        assert_eq!(t.span("x", 7, 3, || 41 + 1), 42);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].id, 7);
        assert_eq!(t.spans()[0].records, 3);
    }
}
