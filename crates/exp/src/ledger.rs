//! Crash-safe sweep bookkeeping: atomic result writes and an append-only
//! completion ledger.
//!
//! Two primitives make a sweep resumable after a hard kill:
//!
//! * [`atomic_write`] — every results artefact (JSON dumps, exported
//!   journals, emitted specs) goes to a same-directory temp file that is
//!   read back and byte-compared before being renamed into place, so a
//!   crash at any instant leaves either the old file or the new file,
//!   never a torn hybrid.
//! * [`Ledger`] — an append-only JSONL journal of completed points, each
//!   keyed by the FNV-1a hash of its scenario's canonical spec JSON
//!   ([`spec_hash`]) and carrying the full [`ScenarioResult`]. Records
//!   are appended in one `write` call and flushed per point, so a kill
//!   mid-append can tear at most the final line — and [`Ledger::open`]
//!   tolerates exactly that, dropping unparsable tails instead of
//!   refusing the file. On `--resume`, points whose hash is already in
//!   the ledger are restored from it byte-identically (the vendored JSON
//!   float encoding is round-trip exact) instead of re-run.
//!
//! Content addressing by spec hash — rather than by name or index —
//! means a resume is only valid for the *same* sweep: edit a spec and
//! its point re-runs, reorder the suite and nothing re-runs needlessly.

use crate::scenario::{Scenario, ScenarioResult};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The canonical (compact, field-ordered) JSON form of a scenario spec —
/// the byte string the completion ledger hashes. The vendored serialiser
/// preserves struct field order and is deterministic, so equal specs
/// always canonicalise to equal bytes.
///
/// # Panics
///
/// Panics only if the spec contains a non-finite float, which
/// `Scenario::validate` already rejects.
#[must_use]
pub fn canonical_spec_json(scenario: &Scenario) -> String {
    serde_json::to_string(scenario).expect("validated specs serialise")
}

/// FNV-1a over `bytes` — the same digest family the simulator uses for
/// fabric state digests, applied here to canonical spec JSON.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content address of a scenario: FNV-1a of its canonical spec JSON.
/// Two scenarios hash equal iff their serialised specs are byte-equal.
#[must_use]
pub fn spec_hash(scenario: &Scenario) -> u64 {
    fnv1a(canonical_spec_json(scenario).as_bytes())
}

/// Writes `contents` to `path` atomically: the bytes go to a
/// same-directory temp file (named after the target plus the writer's
/// pid), are read back and byte-compared — a self-check that the bytes
/// actually hit the disk intact — and only then renamed over `path`.
/// Readers never observe a torn file: they see the old contents or the
/// new contents, nothing in between.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidData` if the read-back
/// does not match what was written (the temp file is removed in that
/// case and `path` is left untouched).
pub fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        drop(file);
        let readback = fs::read(&tmp)?;
        if readback != contents.as_bytes() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "torn write detected for {}: wrote {} bytes, read back {}",
                    path.display(),
                    contents.len(),
                    readback.len()
                ),
            ));
        }
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// One ledger line: the point's hash, its scenario's name (lifted beside
/// the hash, where `grep` finds it without parsing the result) and the
/// result.
fn to_line(hash: u64, result: &ScenarioResult) -> String {
    let fields = vec![
        ("hash".to_string(), Value::String(format!("{hash:016x}"))),
        ("name".to_string(), Value::String(result.name.clone())),
        ("result".to_string(), result.to_value()),
    ];
    serde_json::to_string(&Value::Object(fields)).expect("ledger entries serialise")
}

fn parse_line(line: &str) -> Option<(u64, ScenarioResult)> {
    let value: Value = serde_json::from_str(line).ok()?;
    let hex: String = serde::field(&value, "hash").ok()?;
    let hash = u64::from_str_radix(&hex, 16).ok()?;
    let result = ScenarioResult::from_value(&serde::field(&value, "result").ok()?).ok()?;
    Some((hash, result))
}

/// An append-only JSONL completion ledger for one sweep.
///
/// Open it next to the sweep's results file, [`Ledger::record`] each
/// point as it completes, and on a resumed run skip every point whose
/// [`spec_hash`] answers [`Ledger::lookup`]. The file survives `kill -9`
/// at any instant: appends are single-`write` + flush, and torn final
/// lines are dropped (and counted) on open.
#[derive(Debug)]
pub struct Ledger {
    complete: HashMap<u64, ScenarioResult>,
    torn: usize,
    file: fs::File,
}

impl Ledger {
    /// Opens (creating if absent) the ledger at `path` and indexes every
    /// parseable line. Unparsable lines — the torn tail of a killed
    /// writer — are skipped and counted in [`Ledger::torn_lines`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from reading or opening the file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut complete = HashMap::new();
        let mut torn = 0;
        let mut unterminated = false;
        match fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    match parse_line(line) {
                        Some((hash, result)) => {
                            complete.insert(hash, result);
                        }
                        None => torn += 1,
                    }
                }
                unterminated = !text.is_empty() && !text.ends_with('\n');
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if unterminated {
            // Seal the torn tail so the next append starts a fresh line
            // instead of concatenating onto (and losing) both records.
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok(Self {
            complete,
            torn,
            file,
        })
    }

    /// Completed points indexed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.complete.len()
    }

    /// `true` if no completed point is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.complete.is_empty()
    }

    /// Unparsable lines skipped on open — `> 0` means the previous writer
    /// died mid-append (expected after a hard kill, at most one line).
    #[must_use]
    pub fn torn_lines(&self) -> usize {
        self.torn
    }

    /// The recorded result for `hash`, if that point already completed.
    #[must_use]
    pub fn lookup(&self, hash: u64) -> Option<&ScenarioResult> {
        self.complete.get(&hash)
    }

    /// Appends a completed point and flushes. The line (JSON + newline)
    /// goes down in a single `write` call, so a kill can tear at most
    /// this one line — never corrupt an earlier record.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the in-memory index is only
    /// updated after the bytes are flushed.
    pub fn record(&mut self, hash: u64, result: &ScenarioResult) -> io::Result<()> {
        let mut line = to_line(hash, result);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.complete.insert(hash, result.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadKind;
    use noc_topology::{ElevatorSet, Mesh3d};

    fn tiny(name: &str, seed: u64) -> Scenario {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        Scenario::new(name, mesh, elevators)
            .with_phases(100, 400, 2_000)
            .with_workload(WorkloadKind::Uniform { rate: 0.004 })
            .with_seed(seed)
    }

    #[test]
    fn spec_hash_is_content_addressed() {
        let a = tiny("a", 7);
        assert_eq!(spec_hash(&a), spec_hash(&a.clone()));
        assert_ne!(spec_hash(&a), spec_hash(&tiny("a", 8)), "seed is content");
        assert_ne!(spec_hash(&a), spec_hash(&tiny("b", 7)), "name is content");
        assert_ne!(
            spec_hash(&a),
            spec_hash(&a.clone().with_watchdog(5)),
            "watchdog override is content"
        );
    }

    #[test]
    fn atomic_write_replaces_and_self_checks() {
        let dir = std::env::temp_dir().join(format!("noc_ledger_aw_{}", std::process::id()));
        let path = dir.join("nested").join("out.json");
        atomic_write(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp litter left behind.
        let siblings: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(siblings, vec![std::ffi::OsString::from("out.json")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_round_trips_results_bit_identically() {
        let dir = std::env::temp_dir().join(format!("noc_ledger_rt_{}", std::process::id()));
        let path = dir.join("sweep.ledger.jsonl");
        let scenario = tiny("round-trip", 7);
        let result = scenario.run().unwrap();
        let hash = spec_hash(&scenario);
        {
            let mut ledger = Ledger::open(&path).unwrap();
            assert!(ledger.is_empty());
            ledger.record(hash, &result).unwrap();
            assert_eq!(ledger.lookup(hash), Some(&result));
        }
        let reopened = Ledger::open(&path).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.torn_lines(), 0);
        assert_eq!(
            reopened.lookup(hash),
            Some(&result),
            "restored result must be bit-identical (floats included)"
        );
        assert_eq!(reopened.lookup(hash ^ 1), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_line_is_hash_then_name_then_result() {
        let dir = std::env::temp_dir().join(format!("noc_ledger_line_{}", std::process::id()));
        let path = dir.join("sweep.ledger.jsonl");
        let scenario = tiny("pinned-line", 7);
        let result = scenario.run().unwrap();
        let hash = spec_hash(&scenario);
        Ledger::open(&path).unwrap().record(hash, &result).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let prefix = format!("{{\"hash\":\"{hash:016x}\",\"name\":\"pinned-line\",\"result\":{{");
        assert!(text.starts_with(&prefix), "{text}");
        let reopened = Ledger::open(&path).unwrap();
        let restored = reopened.lookup(hash).expect("the recorded point");
        assert_eq!(restored, &result);
        assert_eq!(
            format!("{}\n", to_line(hash, restored)),
            text,
            "restored result must re-serialise to the same bytes (floats included)"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_not_fatal() {
        let dir = std::env::temp_dir().join(format!("noc_ledger_torn_{}", std::process::id()));
        let path = dir.join("sweep.ledger.jsonl");
        let scenario = tiny("torn", 7);
        let result = scenario.run().unwrap();
        {
            let mut ledger = Ledger::open(&path).unwrap();
            ledger.record(spec_hash(&scenario), &result).unwrap();
        }
        // Simulate a writer killed mid-append: a torn, unterminated line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"hash\":\"dead\",\"name\":\"cut-off");
        fs::write(&path, &text).unwrap();

        let mut ledger = Ledger::open(&path).unwrap();
        assert_eq!(ledger.len(), 1, "intact line survives");
        assert_eq!(ledger.torn_lines(), 1, "torn tail counted, not fatal");
        // Appending after a torn tail keeps working (new line, own record).
        let other = tiny("torn-2", 9);
        let other_result = other.run().unwrap();
        ledger.record(spec_hash(&other), &other_result).unwrap();
        let reopened = Ledger::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
