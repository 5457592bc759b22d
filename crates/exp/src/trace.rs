//! Recording and replay-verifying scenario traces.
//!
//! [`record_trace`] runs a [`Scenario`] with the flight recorder attached
//! and returns the JSONL journal, headed by a `header` record that embeds
//! the full spec + seed — every trace is self-describing. [`verify_trace`]
//! is the golden-trace oracle: it parses a journal, re-runs the embedded
//! spec and compares fresh against golden record for record on the
//! deterministic fields (see [`noc_obs::compare_journals`]), which are
//! bit-identical on every host. The spec's ignored `shards` field is
//! environmental, so a journal verifies whatever it says.

use crate::scenario::Scenario;
use noc_obs::{parse_journal, Record, SharedBuffer, TraceError, TraceWriter, TRACE_SCHEMA_VERSION};
use noc_sim::Tracer;
use serde::{Deserialize, Serialize};

/// The default window period when a scenario does not opt in via its
/// `trace` field.
pub const DEFAULT_TRACE_PERIOD: u64 = 1_000;

/// The window period `scenario` asks for, or [`DEFAULT_TRACE_PERIOD`].
#[must_use]
pub fn trace_period(scenario: &Scenario) -> u64 {
    scenario.trace.map_or(DEFAULT_TRACE_PERIOD, |t| t.period)
}

/// Runs `scenario` with the flight recorder attached and returns the
/// journal: a `header` record embedding the spec, then the
/// `phase`/`event`/`window` stream, then the final `summary` record.
///
/// # Panics
///
/// Panics on scenario authoring errors (the same ones
/// [`Scenario::build_simulator`] panics on); the in-memory journal sink
/// itself cannot fail.
#[must_use]
pub fn record_trace(scenario: &Scenario, period: u64) -> String {
    record_trace_at(scenario, period, TRACE_SCHEMA_VERSION)
}

/// [`record_trace`] pinned to an explicit schema version — the writer
/// side of version negotiation. Recording at `1` reproduces a v1 journal
/// (no `hist` records, percentile-free summary), which is how a v2 reader
/// replays v1 goldens record for record.
///
/// # Panics
///
/// Panics on scenario authoring errors, if `schema` is 0 or newer than
/// [`TRACE_SCHEMA_VERSION`], or if the run itself fails with a
/// [`noc_sim::SimError`] — golden traces are recorded from vetted specs,
/// so a deadlock here is an authoring error too.
#[must_use]
pub fn record_trace_at(scenario: &Scenario, period: u64, schema: u32) -> String {
    let buffer = SharedBuffer::new();
    let mut writer = TraceWriter::new(Box::new(buffer.clone()));
    writer
        .write(&Record::Header {
            schema,
            name: scenario.name.clone(),
            seed: scenario.seed,
            period,
            shards: scenario.shards,
            spec: scenario.to_value(),
        })
        .expect("in-memory journal write cannot fail");
    let mut sim = scenario.build_simulator();
    sim.attach_tracer(Tracer::new(writer, period).with_schema(schema));
    let _summary = sim
        .run()
        .unwrap_or_else(|e| panic!("trace recording for {:?} failed: {e}", scenario.name));
    buffer.contents()
}

/// The outcome of a successful [`verify_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Scenario name from the golden header.
    pub name: String,
    /// Records compared.
    pub records: usize,
    /// Schema version the golden journal was recorded at (the replay
    /// re-records at the same version, whatever the reader supports).
    pub schema: u32,
}

/// Re-runs the spec embedded in a golden journal and compares the fresh
/// trace record for record.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the offending record: parse failures
/// (truncation, corruption), a missing or malformed header, an embedded
/// spec that no longer validates, or the first diverging record.
pub fn verify_trace(golden: &str) -> Result<VerifyReport, TraceError> {
    let golden = parse_journal(golden)?;
    let Some(Record::Header {
        schema,
        period,
        spec,
        ..
    }) = golden.first()
    else {
        return Err(TraceError::new(
            0,
            "journal does not start with a header record",
        ));
    };
    // Version negotiation: replay at the *golden* journal's schema, so a
    // v2 reader verifies v1 goldens record for record (and refuses
    // journals from the future instead of mis-comparing them).
    if *schema == 0 || *schema > TRACE_SCHEMA_VERSION {
        return Err(TraceError::new(
            0,
            format!(
                "unsupported trace schema {schema} (this reader speaks 1..={TRACE_SCHEMA_VERSION})"
            ),
        ));
    }
    let scenario = Scenario::from_value(spec)
        .map_err(|e| TraceError::new(0, format!("embedded spec: {}", e.0)))?;
    let fresh = record_trace_at(&scenario, *period, *schema);
    let fresh = parse_journal(&fresh)
        .map_err(|e| TraceError::new(e.record, format!("fresh replay: {}", e.message)))?;
    let records = noc_obs::compare_journals(&golden, &fresh)?;
    Ok(VerifyReport {
        name: scenario.name.clone(),
        records,
        schema: *schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadKind;
    use noc_topology::{ElevatorSet, Mesh3d};

    fn tiny() -> Scenario {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        Scenario::new("tiny-trace", mesh, elevators)
            .with_phases(100, 400, 2_000)
            .with_workload(WorkloadKind::Uniform { rate: 0.004 })
            .with_seed(7)
            .with_trace(100)
    }

    #[test]
    fn recorded_trace_verifies_against_itself() {
        let scenario = tiny();
        let journal = record_trace(&scenario, trace_period(&scenario));
        let report = verify_trace(&journal).expect("self-verification");
        assert_eq!(report.name, "tiny-trace");
        assert!(report.records > 3, "header + phases + windows + summary");
    }

    /// The spec's `shards` field is accepted and ignored: a journal whose
    /// header and embedded spec are rewritten to any other value still
    /// verifies record for record.
    #[test]
    fn verification_is_shard_independent() {
        let journal = record_trace(&tiny(), 100);
        assert_eq!(journal.matches("\"shards\":1").count(), 2, "header + spec");
        for shards in [0, 8] {
            let rewritten = journal.replace("\"shards\":1", &format!("\"shards\":{shards}"));
            let report = verify_trace(&rewritten).expect("the ignored field verifies");
            assert_eq!(report.records, parse_journal(&journal).unwrap().len());
        }
    }

    #[test]
    fn truncated_journal_fails_with_record_index() {
        let scenario = tiny();
        let journal = record_trace(&scenario, 100);
        let lines: Vec<&str> = journal.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        // A clean truncation parses but fails comparison at the cut.
        let golden = parse_journal(&journal).unwrap();
        let short = parse_journal(&truncated).unwrap();
        let err = noc_obs::compare_journals(&golden, &short).unwrap_err();
        assert_eq!(err.record, golden.len() - 1);
    }

    #[test]
    fn v1_journals_negotiate_down_and_verify() {
        let scenario = tiny();
        let v1 = record_trace_at(&scenario, 100, 1);
        assert!(
            !v1.contains("\"type\":\"hist\""),
            "v1 journals carry no hist records"
        );
        assert!(
            !v1.contains("latency_p99"),
            "v1 summaries carry no percentile keys"
        );
        let report = verify_trace(&v1).expect("v2 reader verifies v1 journals");
        assert_eq!(report.schema, 1);
        let v2 = record_trace(&scenario, 100);
        assert!(v2.contains("\"type\":\"hist\""));
        assert!(v2.contains("latency_p99"));
        assert_eq!(verify_trace(&v2).unwrap().schema, 2);
    }

    #[test]
    fn future_schema_is_refused_not_miscompared() {
        let scenario = tiny();
        let journal = record_trace(&scenario, 100);
        let bumped = journal.replacen("\"schema\":2", "\"schema\":99", 1);
        let err = verify_trace(&bumped).unwrap_err();
        assert_eq!(err.record, 0);
        assert!(err.message.contains("unsupported trace schema 99"), "{err}");
    }

    #[test]
    fn headerless_journal_is_rejected() {
        let err =
            verify_trace("{\"type\":\"phase\",\"cycle\":0,\"phase\":\"warmup\"}").unwrap_err();
        assert_eq!(err.record, 0);
        assert!(err.message.contains("header"), "{err}");
    }
}
