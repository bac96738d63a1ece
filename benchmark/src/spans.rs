//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON when the run ends.
//!
//! A span has a name, a start and end on the run's monotonic clock, the
//! span that encloses it, and the cell it belongs to (all spans of one
//! cell share that id). Self time is a span's duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use asymfence_common::telemetry::Json;

/// Spans kept in full in the written file; past this the file keeps the
/// per-name totals only (a `fence-tools` walk records two spans per
/// simulator run).
const MAX_WRITTEN_SPANS: usize = 20_000;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: u32,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children).
    pub self_ns: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    /// Tags every span opened from now on with cell id `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an enter/exit pairing bug).
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end;
        end - self.spans[i].start_ns
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Totals for one name (zero when never recorded).
    pub fn total(&self, name: &str) -> SpanTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// The spans as JSON: per-name totals, then the spans themselves
    /// (the first [`MAX_WRITTEN_SPANS`]).
    pub fn to_json(&self) -> Json {
        let num = |x: u64| Json::Num(x as f64);
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), num(t.count)),
                        ("total_ns".into(), num(t.total_ns)),
                        ("self_ns".into(), num(t.self_ns)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .take(MAX_WRITTEN_SPANS)
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cell".into(), num(s.cell as u64)),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| num(p as u64)),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("recorded".into(), num(self.spans.len() as u64)),
            ("totals".into(), Json::Obj(totals)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut s = Spans::new();
        s.enter("outer");
        s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.exit();
        let outer = s.total("outer");
        let inner = s.total("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}
