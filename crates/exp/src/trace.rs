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
//!
//! Journals are recorded at [`TRACE_SCHEMA_VERSION`] only, and a journal
//! stamped with any other schema is refused, not replayed. Damaged
//! headers (a zero period) and embedded specs whose replay fails (a
//! deadlock) are named record-0 errors too, never panics. When the
//! engine's deterministic behaviour changes on purpose, a golden is
//! re-recorded from the spec embedded in its own header
//! (`noc_trace record <spec> -o <golden>`).

use crate::scenario::Scenario;
use noc_obs::{parse_journal, Record, SharedBuffer, TraceError, TraceWriter, TRACE_SCHEMA_VERSION};
use noc_sim::{SimError, Tracer};
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
/// `phase`/`event`/`window`/`hist` stream, then the final `summary`
/// record.
///
/// # Errors
///
/// Returns the run's [`SimError`] (a deadlock, a stalled drain); the
/// in-memory journal sink itself cannot fail.
///
/// # Panics
///
/// Panics on scenario authoring errors (the same ones
/// [`Scenario::build_simulator`] panics on), or if `period` is zero.
pub fn record_trace(scenario: &Scenario, period: u64) -> Result<String, SimError> {
    let buffer = SharedBuffer::new();
    let mut writer = TraceWriter::new(Box::new(buffer.clone()));
    writer.write(&Record::Header {
        schema: TRACE_SCHEMA_VERSION,
        name: scenario.name.clone(),
        seed: scenario.seed,
        period,
        shards: scenario.shards,
        spec: scenario.to_value(),
    });
    let mut sim = scenario.build_simulator();
    sim.attach_tracer(Tracer::new(writer, period));
    sim.run()?;
    Ok(buffer.contents())
}

/// The outcome of a successful [`verify_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Scenario name from the golden header.
    pub name: String,
    /// Records compared.
    pub records: usize,
}

/// Re-runs the spec embedded in a golden journal and compares the fresh
/// trace record for record.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the offending record: parse failures
/// (truncation, corruption), a missing or malformed header (another
/// schema than [`TRACE_SCHEMA_VERSION`], a zero period), an embedded spec
/// that no longer validates or whose replay fails, or the first diverging
/// record.
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
    if *schema != TRACE_SCHEMA_VERSION {
        return Err(TraceError::new(
            0,
            format!(
                "unsupported trace schema {schema} (this reader speaks {TRACE_SCHEMA_VERSION})"
            ),
        ));
    }
    if *period == 0 {
        return Err(TraceError::new(0, "header period 0 (at least 1 cycle)"));
    }
    let scenario = Scenario::from_value(spec)
        .map_err(|e| TraceError::new(0, format!("embedded spec: {}", e.0)))?;
    let fresh = record_trace(&scenario, *period)
        .map_err(|e| TraceError::new(0, format!("replay of the embedded spec failed: {e}")))?;
    let fresh = parse_journal(&fresh)
        .map_err(|e| TraceError::new(e.record, format!("fresh replay: {}", e.message)))?;
    let records = noc_obs::compare_journals(&golden, &fresh)?;
    Ok(VerifyReport {
        name: scenario.name.clone(),
        records,
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
        let journal = record_trace(&scenario, trace_period(&scenario)).unwrap();
        let report = verify_trace(&journal).expect("self-verification");
        assert_eq!(report.name, "tiny-trace");
        assert!(report.records > 3, "header + phases + windows + summary");
    }

    /// The spec's `shards` field is accepted and ignored: a journal whose
    /// header and embedded spec are rewritten to any other value still
    /// verifies record for record.
    #[test]
    fn verification_is_shard_independent() {
        let journal = record_trace(&tiny(), 100).unwrap();
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
        let journal = record_trace(&scenario, 100).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        // A clean truncation parses but fails comparison at the cut.
        let golden = parse_journal(&journal).unwrap();
        let short = parse_journal(&truncated).unwrap();
        let err = noc_obs::compare_journals(&golden, &short).unwrap_err();
        assert_eq!(err.record, golden.len() - 1);
    }

    #[test]
    fn future_schema_is_refused_not_miscompared() {
        let scenario = tiny();
        let journal = record_trace(&scenario, 100).unwrap();
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
