//! Journal exit ramps: render a parsed trace journal as Prometheus text
//! or as a Chrome trace-event (Perfetto-loadable) JSON document.
//!
//! Both exporters are pure functions of a `&[Record]` — no simulator
//! types, no I/O — so anything that can parse a journal (the `noc_trace`
//! binary, tests, a future sweep daemon) can export it. The Prometheus
//! exporter is paired with [`validate_prometheus`], a small line-format
//! checker CI runs over every emitted exposition.

use crate::hist::Hist;
use crate::trace::Record;
use serde::Value;

/// Prefix of every exported metric name.
const METRIC_PREFIX: &str = "noc";

/// Renders the journal as a Prometheus text-format exposition.
///
/// * the header becomes a `noc_run_info` gauge carrying the run labels,
/// * the **last** `hist` record becomes one Prometheus histogram per
///   snapshot (`_bucket{le=...}` cumulative counts over the non-empty
///   log2 buckets, `_sum`, `_count`, plus a `_max` gauge — the exact
///   maximum a bucketed histogram cannot otherwise represent),
/// * the final `summary` record becomes one gauge per scalar field and
///   one labelled gauge per element of numeric array fields (the energy
///   roll-ups keep their per-pillar granularity).
///
/// Non-finite floats are never emitted: every line of the output parses
/// as `name{labels} value` with a finite value.
#[must_use]
pub fn prometheus(records: &[Record]) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };

    if let Some(Record::Header {
        schema,
        name,
        seed,
        period,
        ..
    }) = records.first()
    {
        line(format!("# TYPE {METRIC_PREFIX}_run_info gauge"));
        line(format!(
            "{METRIC_PREFIX}_run_info{{name=\"{}\",schema=\"{schema}\",seed=\"{seed}\",period=\"{period}\"}} 1",
            escape_label(name)
        ));
    }

    let last_hists = records.iter().rev().find_map(|r| match r {
        Record::Hist { cycle, hists } => Some((*cycle, hists)),
        _ => None,
    });
    if let Some((cycle, hists)) = last_hists {
        line(format!("# TYPE {METRIC_PREFIX}_hist_cycle gauge"));
        line(format!("{METRIC_PREFIX}_hist_cycle {cycle}"));
        for (name, hist) in hists {
            emit_histogram(&mut line, name, hist);
        }
    }

    let summary = records.iter().rev().find_map(|r| match r {
        Record::Summary { summary } => Some(summary),
        _ => None,
    });
    if let Some(Value::Object(fields)) = summary {
        for (field, value) in fields {
            emit_summary_field(&mut line, field, value);
        }
    }
    out
}

fn emit_histogram(line: &mut impl FnMut(String), name: &str, hist: &Hist) {
    let metric = format!("{METRIC_PREFIX}_{name}");
    line(format!("# TYPE {metric} histogram"));
    let mut cumulative = 0u64;
    for (index, &count) in hist.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        line(format!(
            "{metric}_bucket{{le=\"{}\"}} {cumulative}",
            Hist::bucket_upper(index)
        ));
    }
    line(format!("{metric}_bucket{{le=\"+Inf\"}} {}", hist.total()));
    line(format!("{metric}_sum {}", hist.sum()));
    line(format!("{metric}_count {}", hist.total()));
    line(format!("# TYPE {metric}_max gauge"));
    line(format!("{metric}_max {}", hist.max()));
}

fn emit_summary_field(line: &mut impl FnMut(String), field: &str, value: &Value) {
    let metric = format!("{METRIC_PREFIX}_{field}");
    match value {
        Value::Array(items) => {
            let numbers: Vec<f64> = items.iter().filter_map(finite_number).collect();
            if numbers.len() == items.len() && !items.is_empty() {
                line(format!("# TYPE {metric} gauge"));
                for (index, n) in numbers.iter().enumerate() {
                    line(format!("{metric}{{index=\"{index}\"}} {n}"));
                }
            }
        }
        scalar => {
            if let Some(n) = finite_number(scalar) {
                line(format!("# TYPE {metric} gauge"));
                line(format!("{metric} {n}"));
            }
        }
    }
}

/// The value as a finite `f64`, if it is numeric (or boolean) and finite.
fn finite_number(value: &Value) -> Option<f64> {
    let n = match value {
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Bool(b) => u8::from(*b) as f64,
        _ => return None,
    };
    n.is_finite().then_some(n)
}

fn escape_label(raw: &str) -> String {
    raw.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Checks a Prometheus text exposition line by line: every non-comment
/// line must be `name value` or `name{labels} value` with a valid metric
/// name and a finite value (no NaNs, no infinities).
///
/// # Errors
///
/// Returns `Err` naming the first offending line (1-based) and why.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (number, raw) in text.lines().enumerate() {
        let lineno = number + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (series, value) = trimmed
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value separator: {trimmed:?}"))?;
        let parsed: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: unparsable value {value:?}"))?;
        if !parsed.is_finite() {
            return Err(format!("line {lineno}: non-finite value {value:?}"));
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {lineno}: unterminated labels: {series:?}"));
                }
                name
            }
            None => series,
        };
        let valid_name = !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if !valid_name {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
    }
    Ok(())
}

/// Renders the journal as a Chrome trace-event JSON document (loadable
/// by Perfetto and `chrome://tracing`).
///
/// Each `window` record's phase wall times become four back-to-back
/// duration (`"X"`) spans — inject → compute → exchange → commit — on a
/// synthetic timeline whose clock is the accumulated phase time itself
/// (µs); the window's deterministic gauges become counter (`"C"`) tracks
/// and phase transitions / scheduled events become instants (`"i"`).
#[must_use]
pub fn perfetto(records: &[Record]) -> String {
    let mut events: Vec<Value> = Vec::new();
    let run_name = records
        .iter()
        .find_map(|r| match r {
            Record::Header { name, .. } => Some(name.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "trace".to_string());
    events.push(obj(vec![
        ("name", Value::String("process_name".into())),
        ("ph", Value::String("M".into())),
        ("pid", Value::UInt(1)),
        ("args", obj(vec![("name", Value::String(run_name))])),
    ]));

    // Synthetic clock: microseconds of accumulated phase wall time.
    let mut cursor_us = 0.0f64;
    const PHASES: [(&str, &str); 4] = [
        ("inject", "inject_ns"),
        ("compute", "compute_ns"),
        ("exchange", "exchange_ns"),
        ("commit", "commit_ns"),
    ];
    const COUNTERS: [&str; 5] = [
        "worklist",
        "buffered_flits",
        "queued_packets",
        "calendar",
        "live_packets",
    ];
    for record in records {
        match record {
            Record::Window {
                cycle, det, timing, ..
            } => {
                for &counter in &COUNTERS {
                    if let Ok(value) = serde::field::<u64>(det, counter) {
                        events.push(obj(vec![
                            ("name", Value::String(counter.into())),
                            ("ph", Value::String("C".into())),
                            ("ts", Value::Float(cursor_us)),
                            ("pid", Value::UInt(1)),
                            ("args", obj(vec![("value", Value::UInt(value))])),
                        ]));
                    }
                }
                for (phase, key) in PHASES {
                    let ns = serde::field::<u64>(timing, key).unwrap_or(0);
                    let dur_us = ns as f64 / 1_000.0;
                    events.push(obj(vec![
                        ("name", Value::String(phase.into())),
                        ("cat", Value::String("phase".into())),
                        ("ph", Value::String("X".into())),
                        ("ts", Value::Float(cursor_us)),
                        ("dur", Value::Float(dur_us)),
                        ("pid", Value::UInt(1)),
                        ("tid", Value::UInt(1)),
                        ("args", obj(vec![("cycle", Value::UInt(*cycle))])),
                    ]));
                    cursor_us += dur_us;
                }
            }
            Record::Phase { cycle, phase } => {
                events.push(instant(format!("phase:{phase}"), cursor_us, *cycle));
            }
            Record::Event { cycle, kind, .. } => {
                events.push(instant(format!("event:{kind}"), cursor_us, *cycle));
            }
            _ => {}
        }
    }
    let document = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::String("ms".into())),
    ]);
    serde_json::to_string(&document).expect("trace-event document encodes")
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn instant(name: String, ts_us: f64, cycle: u64) -> Value {
    obj(vec![
        ("name", Value::String(name)),
        ("ph", Value::String("i".into())),
        ("ts", Value::Float(ts_us)),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(1)),
        ("s", Value::String("g".into())),
        ("args", obj(vec![("cycle", Value::UInt(cycle))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{FabricHists, PacketHists};

    fn sample_journal() -> Vec<Record> {
        let mut packets = PacketHists::new();
        for latency in [4u64, 9, 31, 32, 200] {
            packets.latency.record(latency);
            packets.network_latency.record(latency - 2);
            packets.hops.record(5);
        }
        let mut fabric = FabricHists::new();
        fabric.queue_depth.record(3);
        fabric.vc_occupancy.record(1);
        fabric.calendar_depth.record(12);
        vec![
            Record::Header {
                schema: crate::trace::TRACE_SCHEMA_VERSION,
                name: "export-sample".into(),
                seed: 7,
                period: 100,
                shards: 1,
                spec: Value::Null,
            },
            Record::Phase {
                cycle: 0,
                phase: "warmup".into(),
            },
            Record::Window {
                cycle: 100,
                det: Value::Object(vec![
                    ("worklist".into(), Value::UInt(9)),
                    ("buffered_flits".into(), Value::UInt(40)),
                    ("queued_packets".into(), Value::UInt(2)),
                    ("calendar".into(), Value::UInt(5)),
                    ("live_packets".into(), Value::UInt(3)),
                ]),
                aux: Value::Object(vec![]),
                timing: Value::Object(vec![
                    ("inject_ns".into(), Value::UInt(1_000)),
                    ("compute_ns".into(), Value::UInt(5_000)),
                    ("exchange_ns".into(), Value::UInt(500)),
                    ("commit_ns".into(), Value::UInt(700)),
                ]),
            },
            Record::Hist {
                cycle: 100,
                hists: crate::hist::hist_record_entries(&packets, &fabric),
            },
            Record::Summary {
                summary: Value::Object(vec![
                    ("avg_latency".into(), Value::Float(29.5)),
                    ("delivered_packets".into(), Value::UInt(201)),
                    ("completed".into(), Value::Bool(true)),
                    ("policy".into(), Value::String("AdEle".into())),
                    (
                        "pillar_energy_nj".into(),
                        Value::Array(vec![Value::Float(17.5), Value::Float(46.0)]),
                    ),
                    ("broken".into(), Value::Float(f64::NAN)),
                ]),
            },
        ]
    }

    #[test]
    fn prometheus_output_is_valid_and_carries_the_histograms() {
        let text = prometheus(&sample_journal());
        validate_prometheus(&text).expect("exposition validates");
        assert!(text.contains("noc_run_info{name=\"export-sample\""));
        assert!(text.contains("noc_latency_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("noc_latency_count 5"));
        assert!(text.contains("noc_latency_max 200"));
        assert!(text.contains("noc_calendar_depth_count 1"));
        assert!(text.contains("noc_delivered_packets 201"));
        assert!(text.contains("noc_completed 1"));
        assert!(text.contains("noc_pillar_energy_nj{index=\"1\"} 46"));
        // Strings and non-finite floats are never emitted.
        assert!(!text.contains("noc_policy"));
        assert!(!text.contains("noc_broken"));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = prometheus(&sample_journal());
        // latency samples 4, 9, 31 fall in buckets le=7/15/31; 32 in le=63;
        // 200 in le=255 — cumulative counts 1, 2, 3, 4, 5.
        for (le, cum) in [("7", 1), ("15", 2), ("31", 3), ("63", 4), ("255", 5)] {
            let needle = format!("noc_latency_bucket{{le=\"{le}\"}} {cum}");
            assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("# a comment\nmetric 1\n").is_ok());
        assert!(validate_prometheus("metric{a=\"b\"} 2.5\n").is_ok());
        assert!(validate_prometheus("metric NaN\n").is_err());
        assert!(validate_prometheus("novalue\n").is_err());
        assert!(validate_prometheus("9metric 1\n").is_err());
        assert!(validate_prometheus("metric{unterminated 1\n").is_err());
    }

    #[test]
    fn perfetto_document_has_spans_and_counters() {
        let json = perfetto(&sample_journal());
        let value = serde_json::from_str(&json).expect("document parses");
        let Value::Object(entries) = &value else {
            panic!("document is an object")
        };
        let events = entries
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents present");
        let Value::Array(events) = events else {
            panic!("traceEvents is an array")
        };
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| {
                    serde::field::<u64>(e, "pid").is_ok()
                        && matches!(
                            e,
                            Value::Object(fields)
                                if fields.iter().any(|(k, v)| {
                                    k == "ph" && *v == Value::String(ph.into())
                                })
                        )
                })
                .count()
        };
        assert_eq!(phase("X"), 4, "one span per phase of the single window");
        assert_eq!(phase("C"), 5, "one counter per det gauge");
        assert!(phase("i") >= 1, "phase transitions become instants");
        // The span timeline is the accumulated phase time: the last span
        // (commit) starts at inject+compute+exchange = 6.5 µs.
        assert!(json.contains("\"dur\":0.7"), "{json}");
    }
}
