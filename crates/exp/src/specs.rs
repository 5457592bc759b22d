//! Loading scenario suites from directories of JSON spec files.
//!
//! A *spec file* is one [`Scenario`] serialised as JSON (the format
//! `serde_json::to_string_pretty` produces and `tests/scenario_persistence`
//! pins). A *suite* is a directory of them: [`load_dir`] reads every
//! `*.json` in filename order — so suite execution order is stable across
//! machines — and parse failures carry the offending file's name. Parsing
//! runs [`Scenario::validate`], so a hand-edited spec whose pieces
//! disagree is rejected at load time with a named constraint, never deep
//! inside a run.

use crate::scenario::Scenario;
use std::path::{Path, PathBuf};

/// Parses one spec file.
///
/// # Errors
///
/// Returns a message naming the file on I/O errors, JSON syntax errors
/// and cross-field validation failures.
pub fn load_spec(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read spec ({e})", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads every `*.json` spec in `dir`, sorted by filename.
///
/// Returns `(file stem, scenario)` pairs; non-JSON directory entries are
/// ignored so suites can live next to READMEs.
///
/// # Errors
///
/// Returns a message if the directory cannot be read, contains no spec
/// files at all, or any spec fails to parse/validate.
pub fn load_dir(dir: &Path) -> Result<Vec<(String, Scenario)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read dir ({e})", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no *.json spec files found", dir.display()));
    }
    files
        .into_iter()
        .map(|path| {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            load_spec(&path).map(|scenario| (stem, scenario))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{WorkloadKind, WorkloadSpec};
    use noc_topology::{ElevatorSet, Mesh3d};

    fn tiny(name: &str, rate: f64) -> Scenario {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        Scenario::new(name, mesh, elevators)
            .with_phases(100, 400, 2_000)
            .with_workload(WorkloadKind::Uniform { rate })
    }

    #[test]
    fn directory_loads_sorted_and_parsed() {
        let dir = std::env::temp_dir().join(format!("adele_specs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (file, rate) in [("b_second.json", 0.002), ("a_first.json", 0.001)] {
            let json = serde_json::to_string_pretty(&tiny(file, rate)).unwrap();
            std::fs::write(dir.join(file), json).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "not a spec").unwrap();

        let suite = load_dir(&dir).unwrap();
        assert_eq!(suite.len(), 2, "non-JSON entries are ignored");
        assert_eq!(suite[0].0, "a_first");
        assert_eq!(suite[1].0, "b_second");
        assert_eq!(
            suite[0].1.workload,
            WorkloadSpec::v1(WorkloadKind::Uniform { rate: 0.001 })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_specs_fail_with_the_file_named() {
        let dir = std::env::temp_dir().join(format!("adele_specs_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.json"), "{ not json").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(
            err.contains("broken.json"),
            "error must name the file: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("adele_specs_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_dir(&dir).unwrap_err().contains("no *.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
