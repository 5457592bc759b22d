//! The append-only JSONL trace journal: the versioned record schema, the
//! writer/reader pair, and the golden-trace comparison oracle.
//!
//! A journal is one compact JSON object per line. Every record carries a
//! `"type"` discriminant; a well-formed journal starts with a `header`
//! record embedding the scenario spec + seed that produced it, making the
//! trace self-describing — `verify` re-runs the embedded spec and
//! compares fresh against golden record for record.
//!
//! Two classes of fields:
//!
//! * **deterministic** — digests, packet/flit counts, latency sums,
//!   worklist occupancy, calendar depth. Bit-identical across hosts and
//!   worker counts, so they are compared for equality on replay.
//! * **environmental** — wall-clock timings, busy gauges, sweep beats and
//!   the spec's ignored `shards` field. One table next to
//!   [`compare_journals`] names them and how each is masked; every field
//!   it does not name is deterministic.
//!
//! # Schema history
//!
//! * **v1** — `header`, `phase`, `event`, `window`, `summary` and
//!   `progress` records; the summary carries the original `RunSummary`
//!   fields.
//! * **v2** — adds the `hist` record (one per window, carrying the six
//!   log2 histogram snapshots in fixed order) and the four percentile
//!   fields (`latency_p50/p90/p99/latency_max`) appended to the summary.
//!
//! The recorder writes the current schema only, and a replay refuses a
//! journal stamped with any other ("unsupported trace schema N").

use crate::hist::Hist;
use serde::{DeError, Deserialize, Serialize, Value};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Version stamped into every `header` record.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// One line of a trace journal.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The run header: schema version and the self-describing spec.
    Header {
        /// Trace schema version ([`TRACE_SCHEMA_VERSION`]).
        schema: u32,
        /// Scenario name.
        name: String,
        /// Master seed of the run.
        seed: u64,
        /// Window period (cycles between `window` records).
        period: u64,
        /// The spec's `shards` field (accepted and ignored; environmental).
        shards: usize,
        /// The full scenario spec, as serialised by `noc_exp`.
        spec: Value,
    },
    /// A run-phase transition (`warmup`, `measure`, `drain`, `done`).
    Phase {
        /// Cycle at which the phase begins.
        cycle: u64,
        /// Phase name.
        phase: String,
    },
    /// A discrete event: a scheduled command firing.
    Event {
        /// Cycle at which the command fired.
        cycle: u64,
        /// Command kind (`fail_elevator`, `scale_injection`, ...).
        kind: String,
        /// Command parameters.
        detail: Value,
    },
    /// A periodic window sample.
    Window {
        /// Cycle count at window close.
        cycle: u64,
        /// Deterministic gauges — compared for equality on replay.
        det: Value,
        /// Environmental gauges — compared for key presence only.
        aux: Value,
        /// Phase wall times — compared for key presence only.
        timing: Value,
    },
    /// Periodic histogram snapshots (schema v2+): the six log2 histograms
    /// in fixed order (`latency`, `network_latency`, `hops`,
    /// `queue_depth`, `vc_occupancy`, `calendar_depth`). Cumulative and
    /// deterministic, so compared for equality on replay.
    Hist {
        /// Cycle count at the owning window's close.
        cycle: u64,
        /// Named histogram snapshots, in schema order.
        hists: Vec<(String, Hist)>,
    },
    /// The end-of-run summary (`noc_sim::RunSummary`).
    Summary {
        /// The serialised summary.
        summary: Value,
    },
    /// A batch-runner progress beat (sweep streaming; not replayed).
    Progress {
        /// Index of the scenario within the batch.
        index: usize,
        /// Batch size.
        total: usize,
        /// Scenario name.
        label: String,
        /// `started` or `done`.
        status: String,
        /// Queue/run latencies and result digests.
        detail: Value,
    },
}

impl Record {
    /// The `"type"` discriminant of this record.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Header { .. } => "header",
            Record::Phase { .. } => "phase",
            Record::Event { .. } => "event",
            Record::Window { .. } => "window",
            Record::Hist { .. } => "hist",
            Record::Summary { .. } => "summary",
            Record::Progress { .. } => "progress",
        }
    }
}

impl Serialize for Record {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> =
            vec![("type".to_string(), Value::String(self.kind().to_string()))];
        let mut push = |name: &str, value: Value| entries.push((name.to_string(), value));
        match self {
            Record::Header {
                schema,
                name,
                seed,
                period,
                shards,
                spec,
            } => {
                push("schema", schema.to_value());
                push("name", name.to_value());
                push("seed", seed.to_value());
                push("period", period.to_value());
                push("shards", shards.to_value());
                push("spec", spec.clone());
            }
            Record::Phase { cycle, phase } => {
                push("cycle", cycle.to_value());
                push("phase", phase.to_value());
            }
            Record::Event {
                cycle,
                kind,
                detail,
            } => {
                push("cycle", cycle.to_value());
                push("kind", kind.to_value());
                push("detail", detail.clone());
            }
            Record::Window {
                cycle,
                det,
                aux,
                timing,
            } => {
                push("cycle", cycle.to_value());
                push("det", det.clone());
                push("aux", aux.clone());
                push("timing", timing.clone());
            }
            Record::Hist { cycle, hists } => {
                push("cycle", cycle.to_value());
                push(
                    "hists",
                    Value::Object(
                        hists
                            .iter()
                            .map(|(name, hist)| (name.clone(), hist.to_value()))
                            .collect(),
                    ),
                );
            }
            Record::Summary { summary } => push("summary", summary.clone()),
            Record::Progress {
                index,
                total,
                label,
                status,
                detail,
            } => {
                push("index", index.to_value());
                push("total", total.to_value());
                push("label", label.to_value());
                push("status", status.to_value());
                push("detail", detail.clone());
            }
        }
        Value::Object(entries)
    }
}

impl Deserialize for Record {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let kind: String = serde::field(value, "type")?;
        match kind.as_str() {
            "header" => Ok(Record::Header {
                schema: serde::field(value, "schema")?,
                name: serde::field(value, "name")?,
                seed: serde::field(value, "seed")?,
                period: serde::field(value, "period")?,
                shards: serde::field(value, "shards")?,
                spec: serde::field(value, "spec")?,
            }),
            "phase" => Ok(Record::Phase {
                cycle: serde::field(value, "cycle")?,
                phase: serde::field(value, "phase")?,
            }),
            "event" => Ok(Record::Event {
                cycle: serde::field(value, "cycle")?,
                kind: serde::field(value, "kind")?,
                detail: serde::field(value, "detail")?,
            }),
            "window" => Ok(Record::Window {
                cycle: serde::field(value, "cycle")?,
                det: serde::field(value, "det")?,
                aux: serde::field(value, "aux")?,
                timing: serde::field(value, "timing")?,
            }),
            "hist" => {
                let cycle = serde::field(value, "cycle")?;
                let hists_value: Value = serde::field(value, "hists")?;
                let Value::Object(entries) = &hists_value else {
                    return Err(DeError("`hists` must be an object".into()));
                };
                let mut hists = Vec::with_capacity(entries.len());
                for (name, hist_value) in entries {
                    let hist = Hist::from_value(hist_value)
                        .map_err(|e| DeError(format!("histogram `{name}` is corrupt: {}", e.0)))?;
                    hists.push((name.clone(), hist));
                }
                Ok(Record::Hist { cycle, hists })
            }
            "summary" => Ok(Record::Summary {
                summary: serde::field(value, "summary")?,
            }),
            "progress" => Ok(Record::Progress {
                index: serde::field(value, "index")?,
                total: serde::field(value, "total")?,
                label: serde::field(value, "label")?,
                status: serde::field(value, "status")?,
                detail: serde::field(value, "detail")?,
            }),
            other => Err(DeError(format!("unknown trace record type `{other}`"))),
        }
    }
}

/// A journal-level error, always naming the zero-based record index it
/// was detected at — truncated or corrupted journals report *where*, they
/// never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Zero-based index of the offending record (line) in the journal.
    pub record: usize,
    /// What went wrong there.
    pub message: String,
}

impl TraceError {
    /// A new error at `record`.
    #[must_use]
    pub fn new(record: usize, message: impl Into<String>) -> Self {
        Self {
            record,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace record {}: {}", self.record, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Serialises records to an append-only JSONL stream, one compact object
/// per line.
///
/// Write errors are sticky: the first failure is latched, later writes
/// become no-ops, and [`TraceWriter::finish`] returns it — whoever feeds
/// the journal (a simulation, a sweep) never aborts because its sink went
/// away.
pub struct TraceWriter {
    out: Box<dyn Write + Send>,
    records: u64,
    error: Option<io::Error>,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("records", &self.records)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl TraceWriter {
    /// Wraps any writer (a file, a [`SharedBuffer`], `io::sink()`, ...).
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self {
            out,
            records: 0,
            error: None,
        }
    }

    /// Creates (truncating) `path` and writes the journal there.
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` failure.
    pub fn to_file(path: &std::path::Path) -> io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }

    /// Appends one record, latching the first write error (a no-op once
    /// one is latched).
    pub fn write(&mut self, record: &Record) {
        if self.error.is_some() {
            return;
        }
        let written = serde_json::to_string(record)
            .map_err(io::Error::other)
            .and_then(|mut line| {
                line.push('\n');
                self.out.write_all(line.as_bytes())
            });
        match written {
            Ok(()) => self.records += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Flushes and returns the record count.
    ///
    /// # Errors
    ///
    /// Returns the latched first write error, or the flush failure.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.records)
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Parses a JSONL journal. Blank lines are skipped; record indices count
/// non-blank lines from zero.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the first malformed record — corrupted
/// and truncated journals fail loudly, never panic.
pub fn parse_journal(text: &str) -> Result<Vec<Record>, TraceError> {
    let mut records = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let index = records.len();
        let value = serde_json::from_str(line)
            .map_err(|e| TraceError::new(index, format!("malformed JSON: {e}")))?;
        let record = Record::from_value(&value)
            .map_err(|e| TraceError::new(index, format!("bad record: {}", e.0)))?;
        records.push(record);
    }
    Ok(records)
}

/// An `Arc<Mutex<Vec<u8>>>` sink: clone one half into a [`TraceWriter`],
/// keep the other to read the journal back after the run.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The journal accumulated so far, as UTF-8 text.
    #[must_use]
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("trace buffer lock")).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Compares a fresh replay against a golden journal, record for record.
///
/// Each pair of records must be of one type, and is compared field by
/// field through its serialised form. Deterministic fields must match
/// exactly; the environmental ones are masked by the one table below
/// (`ENVIRONMENTAL`), so a golden trace verifies whatever its spec's
/// ignored `shards` says and on whatever host it replays. A record type
/// added later is compared with no new code. Returns the number of
/// records compared.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the first diverging record.
pub fn compare_journals(golden: &[Record], fresh: &[Record]) -> Result<usize, TraceError> {
    for (index, g) in golden.iter().enumerate() {
        let Some(f) = fresh.get(index) else {
            return Err(TraceError::new(
                index,
                format!(
                    "fresh trace ended early ({} of {} records)",
                    index,
                    golden.len()
                ),
            ));
        };
        compare_record(index, g, f)?;
    }
    if fresh.len() > golden.len() {
        return Err(TraceError::new(
            golden.len(),
            format!(
                "fresh trace has {} extra record(s)",
                fresh.len() - golden.len()
            ),
        ));
    }
    Ok(golden.len())
}

/// How replay compares one environmental field.
#[derive(Debug, Clone, Copy)]
enum Mask {
    /// Not compared at all.
    Ignore,
    /// Compared for equality with this key of the object left out.
    Without(&'static str),
    /// Every key of the golden object must be present in the fresh one;
    /// values and extra fresh keys are not compared.
    Keys,
}

/// The environmental fields, as `(record type, field, mask)`; field `*`
/// stands for every field of the type. Every field not named here, of
/// every record type, is deterministic and compared for equality.
const ENVIRONMENTAL: [(&str, &str, Mask); 5] = [
    // The spec's `shards` is accepted and ignored by the simulator.
    ("header", "shards", Mask::Ignore),
    ("header", "spec", Mask::Without("shards")),
    // Host-dependent gauges and phase wall times.
    ("window", "aux", Mask::Keys),
    ("window", "timing", Mask::Keys),
    // Sweep beats carry queue and run latencies: matched on type alone.
    ("progress", "*", Mask::Ignore),
];

/// The entries of an object value (none for any other value).
fn entries(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(entries) => entries,
        _ => &[],
    }
}

/// The value of `key` in an object value.
fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    entries(value)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Compares two records of one journal index field by field, through
/// their serialised form, under [`ENVIRONMENTAL`].
fn compare_record(index: usize, golden: &Record, fresh: &Record) -> Result<(), TraceError> {
    let kind = golden.kind();
    if fresh.kind() != kind {
        return Err(TraceError::new(
            index,
            format!(
                "record type diverged: golden `{kind}`, fresh `{}`",
                fresh.kind()
            ),
        ));
    }
    let (golden, fresh) = (golden.to_value(), fresh.to_value());
    for (field, g) in entries(&golden) {
        let f = get(&fresh, field);
        let mask = ENVIRONMENTAL
            .iter()
            .find(|(t, name, _)| *t == kind && (*name == field.as_str() || *name == "*"))
            .map(|&(_, _, mask)| mask);
        let equal = match mask {
            Some(Mask::Ignore) => true,
            Some(Mask::Without(key)) => {
                let without = |v: &Value| match v {
                    Value::Object(e) => {
                        Value::Object(e.iter().filter(|(k, _)| k != key).cloned().collect())
                    }
                    other => other.clone(),
                };
                f.map(without) == Some(without(g))
            }
            Some(Mask::Keys) => {
                let lost = entries(g)
                    .iter()
                    .find(|(key, _)| f.and_then(|f| get(f, key)).is_none());
                if let Some((key, _)) = lost {
                    return Err(TraceError::new(
                        index,
                        format!("`{kind}` record lost {field} key `{key}`"),
                    ));
                }
                true
            }
            None => f == Some(g),
        };
        if !equal {
            return Err(TraceError::new(
                index,
                format!("`{kind}` record diverged on `{field}`"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Header {
                schema: TRACE_SCHEMA_VERSION,
                name: "t".into(),
                seed: 7,
                period: 100,
                shards: 2,
                spec: Value::Object(vec![
                    ("name".into(), Value::String("t".into())),
                    ("shards".into(), Value::UInt(2)),
                ]),
            },
            Record::Phase {
                cycle: 0,
                phase: "warmup".into(),
            },
            Record::Event {
                cycle: 5,
                kind: "fail_elevator".into(),
                detail: Value::Object(vec![("elevator".into(), Value::UInt(0))]),
            },
            Record::Window {
                cycle: 100,
                det: Value::Object(vec![("digest".into(), Value::String("abc".into()))]),
                aux: Value::Object(vec![("cycles".into(), Value::UInt(100))]),
                timing: Value::Object(vec![("inject_ns".into(), Value::UInt(42))]),
            },
            Record::Hist {
                cycle: 100,
                hists: vec![("latency".into(), {
                    let mut latency = Hist::new();
                    latency.record(31);
                    latency
                })],
            },
            Record::Summary {
                summary: Value::Object(vec![("delivered".into(), Value::UInt(9))]),
            },
            Record::Progress {
                index: 0,
                total: 1,
                label: "t".into(),
                status: "done".into(),
                detail: Value::Object(vec![("run_ns".into(), Value::UInt(5))]),
            },
        ]
    }

    #[test]
    fn journal_round_trips() {
        let records = sample_records();
        let buffer = SharedBuffer::new();
        let mut writer = TraceWriter::new(Box::new(buffer.clone()));
        for r in &records {
            writer.write(r);
        }
        assert_eq!(writer.finish().unwrap(), records.len() as u64);
        let parsed = parse_journal(&buffer.contents()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn corrupted_line_names_its_record_index() {
        let records = sample_records();
        let text: String = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let line = serde_json::to_string(r).unwrap();
                if i == 3 {
                    line[..line.len() / 2].to_string() + "\n"
                } else {
                    line + "\n"
                }
            })
            .collect();
        let err = parse_journal(&text).unwrap_err();
        assert_eq!(err.record, 3);
        assert!(err.to_string().starts_with("trace record 3:"), "{err}");
    }

    /// The value at dotted `path` in a serialised record.
    fn at<'a>(mut value: &'a mut Value, path: &str) -> &'a mut Value {
        for key in path.split('.') {
            let Value::Object(entries) = value else {
                panic!("`{path}` crosses a non-object");
            };
            value = &mut entries.iter_mut().find(|(k, _)| k == key).expect(path).1;
        }
        value
    }

    /// A different value of the same type.
    fn nudge(value: &mut Value) {
        *value = match value {
            Value::UInt(u) => Value::UInt(*u + 1),
            Value::String(s) => Value::String(format!("{s}x")),
            other => panic!("no nudge for {other:?}"),
        };
    }

    /// The sample journal with record `index` changed through its
    /// serialised form.
    fn edited(index: usize, change: impl FnOnce(&mut Value)) -> Vec<Record> {
        let mut records = sample_records();
        let mut value = records[index].to_value();
        change(&mut value);
        records[index] = Record::from_value(&value).expect("the edit keeps the record valid");
        records
    }

    #[test]
    fn comparator_masks_exactly_the_environmental_fields() {
        let golden = sample_records();
        let compare = |fresh: &[Record]| compare_journals(&golden, fresh);

        // Every deterministic field: fails at its index, naming the field.
        let deterministic = [
            (0, "schema"),
            (0, "name"),
            (0, "seed"),
            (0, "period"),
            (0, "spec.name"),
            (1, "cycle"),
            (1, "phase"),
            (2, "cycle"),
            (2, "kind"),
            (2, "detail.elevator"),
            (3, "cycle"),
            (3, "det.digest"),
            (4, "cycle"),
            (4, "hists.latency.sum"),
            (5, "summary.delivered"),
        ];
        for (index, path) in deterministic {
            let field = path.split('.').next().unwrap();
            let kind = golden[index].kind();
            assert_eq!(
                compare(&edited(index, |v| nudge(at(v, path)))),
                Err(TraceError::new(
                    index,
                    format!("`{kind}` record diverged on `{field}`")
                )),
                "{path}"
            );
        }

        // Every environmental value: accepted.
        let environmental = [
            (0, "shards"),
            (0, "spec.shards"),
            (3, "aux.cycles"),
            (3, "timing.inject_ns"),
            (6, "index"),
            (6, "total"),
            (6, "label"),
            (6, "status"),
            (6, "detail.run_ns"),
        ];
        for (index, path) in environmental {
            let fresh = edited(index, |v| nudge(at(v, path)));
            assert_eq!(compare(&fresh), Ok(golden.len()), "{path}");
        }

        // Presence-only objects: an extra key passes, a lost one fails.
        for (object, key) in [("aux", "cycles"), ("timing", "inject_ns")] {
            let extra = edited(3, |v| {
                let Value::Object(entries) = at(v, object) else {
                    unreachable!()
                };
                entries.push(("extra".into(), Value::UInt(1)));
            });
            assert_eq!(compare(&extra), Ok(golden.len()), "extra {object} key");
            let lost = edited(3, |v| {
                let Value::Object(entries) = at(v, object) else {
                    unreachable!()
                };
                entries.retain(|(k, _)| k != key);
            });
            let want = format!("`window` record lost {object} key `{key}`");
            assert_eq!(compare(&lost), Err(TraceError::new(3, want)));
        }

        // Journal shape: a type swap, an early end, extra records.
        let mut swapped = golden.clone();
        swapped.swap(1, 2);
        let err = compare(&swapped).unwrap_err();
        assert_eq!(err.record, 1);
        assert!(err.message.starts_with("record type diverged"), "{err}");
        let err = compare(&golden[..2]).unwrap_err();
        assert_eq!(err.record, 2);
        assert!(err.message.contains("ended early"), "{err}");
        let longer: Vec<Record> = golden.iter().chain(&golden[1..2]).cloned().collect();
        let err = compare(&longer).unwrap_err();
        assert_eq!(err.record, golden.len());
        assert!(err.message.contains("1 extra record"), "{err}");
    }
}
