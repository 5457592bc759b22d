//! Shared infrastructure for the paper-reproduction harness.
//!
//! The `repro` binary's figures build on the helpers here: placement
//! presets, the policy line-up as `noc_exp` specs (including running the
//! offline AMOSA stage), figure-specific injection-rate grids, table
//! writing and JSON result dumping, and the one strict command-line
//! parser ([`Args`]) every binary shares. Every figure simulation is a
//! `noc_exp` [`Scenario`] started from [`figure_scenario`]: a figure is a
//! flat list of them plus the renderer of their summaries, and `repro`
//! runs the lists of all the figures it prints as one supervised batch.
//! No figure assembles a simulator, a pool or a seed of its own.
//!
//! Nothing here ends the process: a failure comes back as a
//! [`FigureError`] naming what failed, and the binary's `main` chooses
//! the exit code.
//!
//! Set `ADELE_QUICK=1` to shrink warm-up/measurement windows and the
//! AMOSA schedule — useful for smoke-testing every harness quickly.

#![forbid(unsafe_code)]

mod cli;
pub use cli::Args;

use adele::offline::{OfflineOptimizer, OfflineResult, SelectionStrategy, SubsetAssignment};
use amosa::AmosaParams;
use noc_exp::{Scenario, SelectorSpec};
use noc_topology::placement::Placement;
use serde::Serialize;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a figure produced no report: the scenario that failed or the
/// results file that could not be written, named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureError(pub String);

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A report is written into a `String`, which cannot fail; this lets
/// `writeln!(report, ..)?` stand in a function that returns a figure.
impl From<fmt::Error> for FigureError {
    fn from(e: fmt::Error) -> Self {
        Self(format!("writing the report: {e}"))
    }
}

/// A figure scenario on `placement`: its fabric, the figure windows
/// `(warmup, measure, drain_max)` — shorter on PM and under `ADELE_QUICK=1`
/// — and the one figure master seed, 7, from which its traffic and selector
/// streams derive. The figure sets the workload and policy.
#[must_use]
pub fn figure_scenario(name: impl Into<String>, placement: Placement) -> Scenario {
    let (warmup, measure, drain) = match (quick_mode(), placement == Placement::Pm) {
        (true, true) => (500, 2_000, 8_000),
        (true, false) => (1_000, 4_000, 12_000),
        (false, true) => (3_000, 12_000, 40_000),
        (false, false) => (5_000, 20_000, 60_000),
    };
    Scenario::from_placement(name, placement)
        .with_phases(warmup, measure, drain)
        .with_seed(7)
}

/// `true` when `ADELE_QUICK=1` — shorter windows everywhere.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("ADELE_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The three policies every figure compares, as `(column name, spec)`,
/// AdEle on the offline `assignment`. The names are the built selectors'
/// own `name()`s.
#[must_use]
pub fn main_policies(assignment: &SubsetAssignment) -> [(&'static str, SelectorSpec); 3] {
    [
        ("ElevFirst", SelectorSpec::ElevatorFirst),
        ("CDA", SelectorSpec::Cda),
        (
            "AdEle",
            SelectorSpec::Adele {
                rr_only: false,
                measured_energy: false,
                assignment: Some(assignment.clone()),
            },
        ),
    ]
}

/// AMOSA parameters for the offline stage, honouring quick mode.
#[must_use]
pub fn amosa_params(seed: u64) -> AmosaParams {
    if quick_mode() {
        AmosaParams::fast(seed)
    } else {
        AmosaParams {
            hard_limit: 60,
            soft_limit: 120,
            t_max: 100.0,
            t_min: 1e-3,
            alpha: 0.88,
            iterations_per_temperature: 60,
            initial_solutions: 120,
            seed,
        }
    }
}

/// Runs the offline AMOSA stage for a placement and returns its
/// [`SelectionStrategy::balanced`] pick: the lowest-variance point of the
/// front whose average distance stays within 5 % of the front's minimum.
/// Computed on every call (≈ 5 ms on the 4×4×4 placements, ≈ 15 ms on PM);
/// nothing is read from or written to disk.
#[must_use]
pub fn offline_assignment(placement: Placement) -> SubsetAssignment {
    offline_result(placement)
        .select(SelectionStrategy::balanced())
        .assignment
        .clone()
}

/// Runs the offline AMOSA stage from scratch (Fig. 3 / Table II need the
/// full front and exploration cloud, not just one pick).
#[must_use]
pub fn offline_result(placement: Placement) -> OfflineResult {
    let (mesh, elevators) = placement.instantiate();
    OfflineOptimizer::new(mesh, elevators)
        .with_params(amosa_params(0xADE1E))
        .optimize()
}

/// Injection-rate grid for one Fig. 4 panel (uniform, or perfect
/// `shuffle`), matching the paper's x-axes.
#[must_use]
pub fn fig4_rates(placement: Placement, shuffle: bool) -> Vec<f64> {
    let max = match (placement, shuffle) {
        (Placement::Ps1, false) => 0.006,
        (Placement::Ps2, false) => 0.008,
        (Placement::Ps3, false) => 0.010,
        (Placement::Pm, false) => 0.006,
        (Placement::Ps1, true) => 0.008,
        (Placement::Ps2, true) => 0.010,
        (Placement::Ps3, true) => 0.015,
        (Placement::Pm, true) => 0.006,
    };
    let points = if quick_mode() { 4 } else { 6 };
    (1..=points)
        .map(|i| max * i as f64 / points as f64)
        .collect()
}

/// Fig. 6's (low, high) injection rates per placement. Low is the paper's
/// 1e-3; high sits at ≈80 % of each configuration's saturation.
#[must_use]
pub fn fig6_rates(placement: Placement) -> (f64, f64) {
    match placement {
        Placement::Ps1 => (0.001, 0.005),
        Placement::Ps2 => (0.001, 0.0065),
        Placement::Ps3 => (0.001, 0.009),
        Placement::Pm => (0.001, 0.005),
    }
}

/// Base injection rate for the Fig. 7 application models (scaled by each
/// app's intensity): 85 % of the placement's near-saturation rate, so
/// heavy apps contend hard for elevators (with bursts overshooting
/// transiently) while light apps stay near zero-load.
#[must_use]
pub fn fig7_base_rate(placement: Placement) -> f64 {
    fig6_rates(placement).1 * 0.85
}

/// Applies the `ADELE_QUICK=1` window shrink to a scenario in place:
/// quarter warm-up/measure (floored so the checked-in suite's events still
/// land inside the run) and half the drain budget. Topology, workload,
/// events and seed are untouched, so a quick run exercises the same
/// machinery on the same fabric — just for fewer cycles. Shared by
/// `run_specs` and `noc_trace selfcheck` so both smoke modes shrink
/// identically.
pub fn quick_shrink(scenario: &mut Scenario) {
    scenario.warmup = (scenario.warmup / 4).max(500);
    scenario.measure = (scenario.measure / 4).max(2_000);
    scenario.drain_max /= 2;
}

/// Provenance stamp embedded in `run_specs`' result JSON: which tree
/// produced the numbers and on what machine shape — so a record can be
/// judged against the host reproducing it.
#[derive(Debug, Clone, Serialize)]
pub struct BenchMeta {
    /// `git describe --always --dirty` of the tree, or `"unknown"`.
    pub git: String,
    /// The host's available parallelism.
    pub host_cores: usize,
    /// The `NOC_THREADS` pin in effect, if any.
    pub noc_threads: Option<String>,
    /// Workload streams the grid covers.
    pub streams: Vec<String>,
}

/// Builds the provenance stamp for a benchmark covering `streams`. Best
/// effort: a missing `git` binary degrades to `"unknown"`, never an
/// error.
#[must_use]
pub fn bench_meta(streams: &[&str]) -> BenchMeta {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    BenchMeta {
        git,
        host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        noc_threads: std::env::var("NOC_THREADS").ok(),
        streams: streams.iter().map(ToString::to_string).collect(),
    }
}

/// Workspace `results/` directory (created on demand).
#[must_use]
pub fn results_dir() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    root.join("results")
}

/// Dumps a serialisable result to `results/<name>.json`
/// ([`try_dump_json`]); a failure is named after the file.
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> Result<(), FigureError> {
    written(
        &format!("{name}.json"),
        try_dump_json(&results_dir(), name, value),
    )
}

/// The `outcome` of writing `results/<file>`, a failure named after the
/// file: a figure whose output could not be written must not succeed over
/// a stale file.
pub fn written(file: &str, outcome: io::Result<()>) -> Result<(), FigureError> {
    outcome.map_err(|e| FigureError(format!("writing results/{file}: {e}")))
}

/// Writes `value` as pretty JSON to `<dir>/<name>.json`. The write is
/// atomic ([`noc_exp::atomic_write`]): a crash mid-dump leaves the
/// previous file intact, never a torn one.
///
/// # Errors
///
/// Returns the serialisation failure (as `InvalidData`) or the I/O error
/// of creating `dir` or writing the file.
pub fn try_dump_json<T: Serialize>(dir: &Path, name: &str, value: &T) -> io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    noc_exp::atomic_write(&dir.join(format!("{name}.json")), &json)
}

/// A fixed-width table: header row, a rule, then rows of cells. A cell
/// past the last header is written unpadded.
#[must_use]
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut line = |cells: &[String]| {
        let start = out.len();
        for (i, cell) in cells.iter().enumerate() {
            let width = widths.get(i).copied().unwrap_or(0);
            out.push_str(&format!("{cell:<width$}  "));
        }
        out.truncate(out.trim_end().len().max(start));
        out.push('\n');
    };
    line(&headers.iter().map(ToString::to_string).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

/// Formats a float with 1 decimal.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 2 decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 4 decimals (rates).
#[must_use]
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_grids_are_increasing_and_positive() {
        for placement in Placement::ALL {
            for shuffle in [false, true] {
                let rates = fig4_rates(placement, shuffle);
                assert!(!rates.is_empty());
                assert!(rates.windows(2).all(|w| w[0] < w[1]));
                assert!(rates[0] > 0.0);
            }
            let (low, high) = fig6_rates(placement);
            assert!(low < high);
        }
    }

    #[test]
    fn selector_factory_builds_all_policies() {
        let (mesh, elevators) = Placement::Ps1.instantiate();
        let assignment = SubsetAssignment::full(&mesh, &elevators);
        for (label, spec) in main_policies(&assignment) {
            assert_eq!(spec.build(&mesh, &elevators, 1).name(), label);
        }
    }

    #[test]
    fn workloads_build_on_all_placements() {
        use noc_exp::WorkloadKind;
        for placement in Placement::ALL {
            let (mesh, _) = placement.instantiate();
            let rate = 0.001;
            for kind in [
                WorkloadKind::Uniform { rate },
                WorkloadKind::Shuffle { rate },
            ] {
                let t = kind.build_polled(&mesh, 2);
                assert!(t.mean_rate().unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn quick_shrink_quarters_windows_with_floors() {
        let (mesh, elevators) = Placement::Ps1.instantiate();
        let mut scenario =
            Scenario::new("shrink", mesh, elevators).with_phases(1_000, 4_000, 20_000);
        quick_shrink(&mut scenario);
        assert_eq!(
            (scenario.warmup, scenario.measure, scenario.drain_max),
            (500, 2_000, 10_000)
        );
        // Short windows hit the floors instead of collapsing to zero.
        let mut tiny = Scenario::new("tiny", mesh, Placement::Ps1.instantiate().1)
            .with_phases(100, 400, 2_000);
        quick_shrink(&mut tiny);
        assert_eq!((tiny.warmup, tiny.measure), (500, 2_000));
    }

    #[test]
    fn bench_meta_captures_the_grid() {
        let meta = bench_meta(&["v1", "v2"]);
        assert!(!meta.git.is_empty());
        assert!(meta.host_cores >= 1);
        assert_eq!(meta.streams, vec!["v1", "v2"]);
    }

    #[test]
    fn dump_into_a_regular_file_is_an_error() {
        let occupied = std::env::temp_dir().join(format!("adele_dump_{}", std::process::id()));
        std::fs::write(&occupied, "not a directory").unwrap();
        let outcome = try_dump_json(&occupied, "fig", &vec![1u32, 2]);
        std::fs::remove_file(&occupied).unwrap();
        assert!(
            outcome.is_err(),
            "a dump that cannot be written must say so"
        );
    }

    #[test]
    fn table_printer_handles_ragged_rows() {
        let even = table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(even, "a    b\n---  -\n1    2\n333  4\n");
        // A row longer than the header used to index past the widths.
        let long = table(&["a"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(long, "a\n-\n1  2\n");
    }
}
