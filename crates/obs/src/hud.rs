//! The live terminal sweep HUD: a small state machine fed by `progress`
//! records, rendering throughput, ETA, per-point latency percentiles and
//! work-queue occupancy.
//!
//! The HUD consumes the same wire format the batch runner already streams
//! (`Record::Progress` beats with `started`/`done` status, plus the
//! supervised pool's `failed` and `cached`), so anything that can tail a
//! journal can drive it. It owns no I/O: [`Hud::on_record`]
//! returns the text to print — a redraw block with ANSI cursor motion in
//! live mode, or one plain line per completed point in `--quiet` mode
//! (the CI-friendly fallback).

use crate::trace::Record;
use std::time::Instant;

/// Latency digest of one completed sweep point.
#[derive(Debug, Clone, Default)]
struct PointStats {
    label: String,
    avg_latency: Option<f64>,
    p50: Option<u64>,
    p99: Option<u64>,
    run_secs: Option<f64>,
}

/// Live sweep display state.
#[derive(Debug)]
pub struct Hud {
    total: usize,
    quiet: bool,
    started: usize,
    done: usize,
    failed: usize,
    begun: Instant,
    last: Option<PointStats>,
    prev_lines: usize,
}

impl Hud {
    /// A HUD expecting `total` sweep points. `quiet` switches to the
    /// plain one-line-per-completion mode for CI logs.
    #[must_use]
    pub fn new(total: usize, quiet: bool) -> Self {
        Self {
            total,
            quiet,
            started: 0,
            done: 0,
            failed: 0,
            begun: Instant::now(),
            last: None,
            prev_lines: 0,
        }
    }

    /// Points started but not yet completed (the in-flight worklist).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.started.saturating_sub(self.done)
    }

    /// Points not yet started (the queued worklist).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.total.saturating_sub(self.started)
    }

    /// Feeds one record; non-`progress` records are ignored. Returns the
    /// text to print, if any: in live mode a full redraw block (prefixed
    /// with ANSI motion that erases the previous one), in quiet mode a
    /// single plain line per completed point.
    pub fn on_record(&mut self, record: &Record) -> Option<String> {
        let Record::Progress {
            label,
            status,
            detail,
            total,
            ..
        } = record
        else {
            return None;
        };
        if *total > 0 {
            self.total = (*total).max(self.total);
        }
        match status.as_str() {
            "started" => self.started += 1,
            "done" => {
                self.done += 1;
                self.started = self.started.max(self.done);
                self.last = Some(PointStats {
                    label: label.clone(),
                    avg_latency: serde::field::<f64>(detail, "avg_latency")
                        .ok()
                        .filter(|f| f.is_finite()),
                    p50: serde::field::<u64>(detail, "latency_p50").ok(),
                    p99: serde::field::<u64>(detail, "latency_p99").ok(),
                    run_secs: serde::field::<u64>(detail, "run_ns")
                        .ok()
                        .map(|ns| ns as f64 / 1e9),
                });
            }
            // A structured failure still retires its point — a sweep with
            // dead points must show 100%, not hang short of the bar's end.
            "failed" => {
                self.done += 1;
                self.failed += 1;
                self.started = self.started.max(self.done);
            }
            // Ledger hits skip the `started` beat entirely.
            "cached" => {
                self.done += 1;
                self.started += 1;
                self.started = self.started.max(self.done);
            }
            _ => return None,
        }
        if self.quiet {
            if matches!(status.as_str(), "done" | "failed" | "cached") {
                return Some(self.quiet_line());
            }
            return None;
        }
        let erase = if self.prev_lines > 0 {
            format!("\x1b[{}A\x1b[J", self.prev_lines)
        } else {
            String::new()
        };
        let frame = self.render();
        self.prev_lines = frame.lines().count();
        Some(format!("{erase}{frame}"))
    }

    fn quiet_line(&self) -> String {
        let mut line = format!("[{}/{}]", self.done, self.total);
        if let Some(last) = &self.last {
            line.push_str(&format!(" {} done", last.label));
            if let Some(secs) = last.run_secs {
                line.push_str(&format!(" in {secs:.2}s"));
            }
            if let (Some(p50), Some(p99)) = (last.p50, last.p99) {
                line.push_str(&format!(" p50={p50} p99={p99}"));
            }
        }
        line
    }

    /// Renders the HUD panel using the wall clock since construction.
    #[must_use]
    pub fn render(&self) -> String {
        self.render_at(self.begun.elapsed().as_secs_f64())
    }

    /// Renders the HUD panel as of `elapsed_secs` since the sweep began —
    /// the clock is injected so callers (and tests) control it.
    #[must_use]
    pub fn render_at(&self, elapsed_secs: f64) -> String {
        let total = self.total.max(1);
        let frac = self.done as f64 / total as f64;
        let filled = (frac * 20.0).round() as usize;
        let bar: String = "=".repeat(filled.min(20)) + &" ".repeat(20 - filled.min(20));
        let throughput = if elapsed_secs > 0.0 {
            self.done as f64 / elapsed_secs
        } else {
            0.0
        };
        let eta = if self.done > 0 && self.done < self.total {
            let remaining = (self.total - self.done) as f64;
            format!("{:.1}s", elapsed_secs / self.done as f64 * remaining)
        } else if self.done >= self.total {
            "done".to_string()
        } else {
            "—".to_string()
        };
        let mut out = format!(
            "sweep {}/{} [{bar}] {:>5.1}%  {throughput:.2} pts/s  ETA {eta}\n\
             in-flight {} · queued {}",
            self.done,
            self.total,
            frac * 100.0,
            self.in_flight(),
            self.queued(),
        );
        if self.failed > 0 {
            out.push_str(&format!(" · failed {}", self.failed));
        }
        if let Some(last) = &self.last {
            out.push_str(&format!("\nlast {}", last.label));
            if let (Some(p50), Some(p99)) = (last.p50, last.p99) {
                out.push_str(&format!(": p50 {p50} p99 {p99}"));
            }
            if let Some(avg) = last.avg_latency {
                out.push_str(&format!(" avg {avg:.1}"));
            }
            if let Some(secs) = last.run_secs {
                out.push_str(&format!(" ({secs:.2}s)"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn progress(index: usize, status: &str, detail: Value) -> Record {
        Record::Progress {
            index,
            total: 3,
            label: format!("point-{index}"),
            status: status.to_string(),
            detail,
        }
    }

    fn done_detail() -> Value {
        Value::Object(vec![
            ("run_ns".into(), Value::UInt(2_500_000_000)),
            ("delivered_packets".into(), Value::UInt(900)),
            ("avg_latency".into(), Value::Float(38.25)),
            ("latency_p50".into(), Value::UInt(31)),
            ("latency_p99".into(), Value::UInt(127)),
        ])
    }

    #[test]
    fn tracks_occupancy_and_renders_percentiles() {
        let mut hud = Hud::new(3, false);
        hud.on_record(&progress(0, "started", Value::Object(vec![])));
        hud.on_record(&progress(1, "started", Value::Object(vec![])));
        assert_eq!(hud.in_flight(), 2);
        assert_eq!(hud.queued(), 1);

        hud.on_record(&progress(0, "done", done_detail()));
        assert_eq!(hud.in_flight(), 1);

        let frame = hud.render_at(2.0);
        assert!(frame.contains("sweep 1/3"), "{frame}");
        assert!(frame.contains("0.50 pts/s"), "{frame}");
        assert!(frame.contains("ETA 4.0s"), "{frame}");
        assert!(frame.contains("in-flight 1 · queued 1"), "{frame}");
        assert!(frame.contains("p50 31 p99 127"), "{frame}");
        assert!(frame.contains("avg 38.2"), "{frame}");
    }

    #[test]
    fn quiet_mode_prints_one_line_per_completion() {
        let mut hud = Hud::new(3, true);
        assert!(hud
            .on_record(&progress(0, "started", Value::Object(vec![])))
            .is_none());
        let line = hud
            .on_record(&progress(0, "done", done_detail()))
            .expect("done emits a line");
        assert_eq!(line, "[1/3] point-0 done in 2.50s p50=31 p99=127");
        assert!(!line.contains('\x1b'), "quiet mode is ANSI-free");
    }

    #[test]
    fn live_mode_erases_the_previous_frame() {
        let mut hud = Hud::new(2, false);
        let first = hud
            .on_record(&progress(0, "started", Value::Object(vec![])))
            .expect("live mode redraws on every beat");
        assert!(!first.starts_with('\x1b'), "nothing to erase yet");
        let second = hud
            .on_record(&progress(0, "done", done_detail()))
            .expect("live mode redraws on every beat");
        assert!(second.starts_with("\x1b["), "second frame erases the first");
    }

    #[test]
    fn non_progress_records_are_ignored() {
        let mut hud = Hud::new(1, false);
        assert!(hud
            .on_record(&Record::Phase {
                cycle: 0,
                phase: "warmup".into()
            })
            .is_none());
        assert!(hud.render_at(1.0).starts_with("sweep 0/1"));
    }

    #[test]
    fn completion_renders_done_eta() {
        let mut hud = Hud::new(3, false);
        for index in 0..3 {
            hud.on_record(&progress(index, "started", Value::Object(vec![])));
            hud.on_record(&progress(index, "done", done_detail()));
        }
        let frame = hud.render_at(1.0);
        assert!(frame.contains("sweep 3/3"), "{frame}");
        assert!(frame.contains("ETA done"), "{frame}");
        assert!(frame.contains("100.0%"), "{frame}");
    }

    #[test]
    fn failed_and_cached_points_retire_from_the_worklist() {
        let mut hud = Hud::new(3, false);
        hud.on_record(&progress(0, "cached", Value::Object(vec![])));
        hud.on_record(&progress(1, "started", Value::Object(vec![])));
        hud.on_record(&progress(1, "failed", Value::Object(vec![])));
        hud.on_record(&progress(2, "started", Value::Object(vec![])));
        hud.on_record(&progress(2, "done", done_detail()));
        assert_eq!(hud.in_flight(), 0);
        assert_eq!(hud.queued(), 0);
        let frame = hud.render_at(1.0);
        assert!(frame.contains("sweep 3/3"), "{frame}");
        assert!(frame.contains("· failed 1"), "{frame}");
    }

    #[test]
    fn quiet_mode_reports_failures_too() {
        let mut hud = Hud::new(3, true);
        hud.on_record(&progress(0, "started", Value::Object(vec![])));
        let line = hud
            .on_record(&progress(0, "failed", Value::Object(vec![])))
            .expect("failed emits a line");
        assert!(line.starts_with("[1/3]"), "{line}");
    }
}
