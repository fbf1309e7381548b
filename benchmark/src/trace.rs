//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Nothing here reaches inside the engine: a span is two `Instant` reads
//! taken by the harness on either side of a public call. Spans stay in a
//! `Vec` and are written out once, after the last pass.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`switch.run`, `core.ingest`, …).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a pass).
    pub parent: Option<u32>,
    /// The pass this span belongs to — spans of one pass share it.
    pub pass: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; inert when the tracer is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// "No span": the parent of a pass, and every id an inert tracer hands out.
    pub const NONE: SpanId = SpanId(u32::MAX);

    fn index(self) -> Option<u32> {
        (self != SpanId::NONE).then_some(self.0)
    }
}

/// Span recorder. An inert tracer (`Tracer::off`) reads no clock and
/// records nothing, so traced and untraced passes run the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            pass: 0,
        }
    }

    /// Switch recording on or off (between passes).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open the root span of a new pass.
    pub fn open_pass(&mut self) -> SpanId {
        if self.on {
            self.pass += 1;
        }
        self.open("pass", SpanId::NONE)
    }

    /// Open a span under `parent`.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.index(),
            pass: self.pass,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Close a span opened by [`Tracer::open`].
    #[inline]
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.index() {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Every recorded span, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of traced passes.
    #[must_use]
    pub fn passes(&self) -> u32 {
        self.pass
    }

    /// Per traced pass: Σ duration of the spans called `name`, in ns.
    #[must_use]
    pub fn per_pass_total(&self, name: &str) -> Vec<f64> {
        let mut out = vec![0.0; self.pass as usize];
        for s in self.spans.iter().filter(|s| s.name == name) {
            out[s.pass as usize - 1] += s.ns() as f64;
        }
        out
    }

    /// Per traced pass: Σ duration of the pass's direct children ÷ the
    /// pass's own duration. The children are the top-level layer spans, so
    /// the ratio says how much of the pass the spans account for.
    #[must_use]
    pub fn span_sum_ratios(&self) -> Vec<f64> {
        let mut wall = vec![0.0; self.pass as usize];
        let mut covered = vec![0.0; self.pass as usize];
        for s in &self.spans {
            match s.parent {
                None => wall[s.pass as usize - 1] = s.ns() as f64,
                Some(p) if self.spans[p as usize].parent.is_none() => {
                    covered[s.pass as usize - 1] += s.ns() as f64;
                }
                Some(_) => {}
            }
        }
        covered.iter().zip(&wall).map(|(c, w)| c / w).collect()
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"pass\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.pass
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_tracer_records_nothing() {
        let mut t = Tracer::off();
        let p = t.open_pass();
        let s = t.open("x", p);
        t.close(s);
        t.close(p);
        assert!(t.spans().is_empty());
        assert_eq!(t.passes(), 0);
    }

    #[test]
    fn children_sum_against_their_pass() {
        let mut t = Tracer::off();
        t.set_on(true);
        let p = t.open_pass();
        let a = t.open("a", p);
        let inner = t.open("inner", a);
        t.close(inner);
        t.close(a);
        let b = t.open("b", p);
        t.close(b);
        t.close(p);
        assert_eq!(t.passes(), 1);
        assert_eq!(t.spans()[2].parent, Some(1));
        let r = t.span_sum_ratios();
        assert_eq!(r.len(), 1);
        assert!(r[0] > 0.0 && r[0] <= 1.0, "{r:?}");
        assert_eq!(t.per_pass_total("inner").len(), 1);
    }
}
