//! The benchmark's own spans: one record per call into a layer, kept in
//! memory during the traced pass and written as a Chrome trace-event
//! file when it ends. The untraced pass never records (one branch per
//! call), which is what keeps the end-to-end metrics span-free.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `noc_sim.measure_window`.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op (window or point index) this span belongs to; spans of one
    /// op share it.
    pub op: Option<u64>,
    /// Display lane: 0 is the benchmark's main thread, 1.. are pool
    /// workers (spans on one lane never overlap).
    pub lane: u32,
}

impl Span {
    /// Span length in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span recorder of one workload run.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle returned by [`Spans::enter`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the guard to Spans::exit"]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder for `workload`; with `enabled == false` every call is a
    /// no-op.
    #[must_use]
    pub fn new(workload: &str, enabled: bool) -> Self {
        Self {
            workload: workload.to_string(),
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the main lane as a child of the innermost open one.
    pub fn enter(&mut self, name: &str, op: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
            lane: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` refers to (and any child left open by an
    /// early return inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span (for bodies that record no spans of their
    /// own; nest with [`Self::enter`]/[`Self::exit`] otherwise).
    pub fn scope<R>(&mut self, name: &str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a finished span measured elsewhere (a pool worker's point)
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &str, op: Option<u64>, lane: u32, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            op,
            lane,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children — two pool
    /// workers — count once).
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                children[parent].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration_ns().saturating_sub(covered_ns(kids)))
            .collect()
    }

    /// Share of `[from_ns, to_ns]` covered by top-level spans — the
    /// acceptance check that the trace accounts for the traced pass.
    #[must_use]
    pub fn top_level_coverage(&self, from_ns: u64, to_ns: u64) -> f64 {
        if to_ns <= from_ns {
            return 0.0;
        }
        let tops = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| {
                (
                    s.start_ns.clamp(from_ns, to_ns),
                    s.end_ns.clamp(from_ns, to_ns),
                )
            })
            .collect();
        covered_ns(tops) as f64 / (to_ns - from_ns) as f64
    }

    /// Total self time per span name, largest first — the "where did the
    /// traced pass go" table.
    #[must_use]
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let mut totals: Vec<(String, u64, usize)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            match totals.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => totals.push((span.name.clone(), own, 1)),
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        totals
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete (`"ph":"X"`) event per span, microsecond
    /// timestamps, `args` carrying parent, workload, op and self time.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let op = span.op.map_or("null".to_string(), |o| o.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"workload\":\"{}\",\"op\":{op},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(""),
                span.lane,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                self.workload,
                span.start_ns,
                span.end_ns,
                own[i],
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals`.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans {
            workload: "t".into(),
            origin: Instant::now(),
            enabled: true,
            spans,
            stack: Vec::new(),
        }
    }

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>, lane: u32) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: None,
            lane,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b
        // 35..60 overlaps a by 5 (two workers) — root's children cover
        // 10..60 = 50, so root's self time is 50.
        let spans = fixed(vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 1),
            span("a.inner", 20, 30, Some(1), 1),
            span("b", 35, 60, Some(0), 2),
        ]);
        assert_eq!(spans.self_times_ns(), vec![50, 20, 10, 25]);
        assert!((spans.top_level_coverage(0, 100) - 1.0).abs() < 1e-12);
        assert!((spans.top_level_coverage(0, 200) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn enter_exit_nest_and_disabled_records_nothing() {
        let mut spans = Spans::new("w", true);
        let outer = spans.enter("outer", Some(3));
        let inner = spans.enter("inner", Some(3));
        spans.exit(inner);
        spans.record("worker", Some(3), 1, 0, 1);
        spans.exit(outer);
        assert_eq!(spans.spans().len(), 3);
        assert_eq!(spans.spans()[1].parent, Some(0));
        assert_eq!(spans.spans()[2].parent, Some(0));
        assert!(spans.spans()[0].end_ns >= spans.spans()[1].end_ns);

        let mut off = Spans::new("w", false);
        let open = off.enter("x", None);
        off.exit(open);
        off.record("y", None, 0, 0, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = fixed(vec![
            span("noc_sim.build", 0, 2_000, None, 0),
            span("noc_sim.advance", 500, 1_500, Some(0), 0),
        ]);
        let value: serde::Value = serde_json::from_str(&spans.to_chrome_trace()).unwrap();
        let events: Vec<serde::Value> = serde::field(&value, "traceEvents").unwrap();
        assert_eq!(events.len(), 2);
        let dur: f64 = serde::field(&events[1], "dur").unwrap();
        assert!((dur - 1.0).abs() < 1e-9);
    }
}
