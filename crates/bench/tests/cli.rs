//! Every `adele_bench` binary parses its command line strictly
//! (`adele_bench::Args`): an unknown flag, a missing value or an
//! unparsable one exits 2 naming the offender on stderr, before the
//! binary touches a file. The case that motivated it: `run_specs specs
//! --resum` used to read as "not resuming", delete the ledger the user
//! meant to resume from, and start over. Input that parses but cannot be
//! run — a name that matches no panel, an empty measurement window or an
//! out-of-range AdEle tuning or app rate, a results file that cannot be
//! written, a journal too damaged to verify — is a named error too (exit
//! 2, 1 and 3), never a panic and never an emptied result file.

use adele::AdeleConfig;
use noc_exp::{SelectorSpec, WorkloadKind};
use noc_traffic::apps::AppKind;
use std::path::Path;
use std::process::Command;

const RUN_SPECS: &str = env!("CARGO_BIN_EXE_run_specs");
const SCALE: &str = env!("CARGO_BIN_EXE_scale");
const NOC_TRACE: &str = env!("CARGO_BIN_EXE_noc_trace");
const REPRO_ALL: &str = env!("CARGO_BIN_EXE_repro_all");
const FIG4: &str = env!("CARGO_BIN_EXE_fig4");
const FIG6: &str = env!("CARGO_BIN_EXE_fig6");

/// Exit code and stderr of `bin args…` (under `ADELE_QUICK=1`, for the
/// rows that get as far as simulating).
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("ADELE_QUICK", "1")
        .output()
        .expect("launch the binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    (out.status.code(), stderr)
}

/// Runs `body` with `results/<name>` holding known bytes and returns what
/// it holds afterwards. A file left by a real run is used as it is;
/// otherwise a stand-in is written and removed again.
fn results_file_after(name: &str, body: impl FnOnce()) -> (Vec<u8>, Option<Vec<u8>>) {
    let dir = adele_bench::results_dir();
    let file = dir.join(name);
    let existing = std::fs::read(&file).ok();
    let before = existing.clone().unwrap_or_else(|| {
        std::fs::create_dir_all(&dir).expect("create results/");
        let stand_in = b"{\"hash\":\"stand-in\"}\n".to_vec();
        std::fs::write(&file, &stand_in).expect("write the stand-in file");
        stand_in
    });
    body();
    let after = std::fs::read(&file).ok();
    if existing.is_none() {
        let _ = std::fs::remove_file(&file);
    }
    (before, after)
}

#[test]
fn usage_errors_exit_2_naming_the_offender() {
    // (binary, arguments, what stderr must name)
    let cases: &[(&str, &[&str], &str)] = &[
        // An unknown flag — a typo, or a flag another binary has.
        (RUN_SPECS, &["specs", "--resum"], "--resum"),
        (RUN_SPECS, &["--emit", "specs", "--resume"], "--resume"),
        (SCALE, &["--quick"], "--quick"),
        (SCALE, &["--shard", "2"], "--shard"),
        (
            NOC_TRACE,
            &["verify", "golden.jsonl", "--shard", "8"],
            "--shard",
        ),
        (
            NOC_TRACE,
            &["selfcheck", "specs", "--period", "5"],
            "--period",
        ),
        (REPRO_ALL, &["--verfy"], "--verfy"),
        (FIG4, &["PM", "--stream", "v2"], "--stream"),
        (FIG4, &["PM", "Uniform", "extra"], "extra"),
        (FIG6, &["--link"], "--link"),
        (FIG6, &["--links", "--stream", "v2"], "--stream"),
        // A flag whose value is missing.
        (RUN_SPECS, &["specs", "--shards"], "--shards"),
        (RUN_SPECS, &["--trace", "--hud"], "--trace"),
        (SCALE, &["--stream"], "--stream"),
        (NOC_TRACE, &["record", "spec.json", "-o"], "-o"),
        (REPRO_ALL, &["--jobs"], "--jobs"),
        // A value that does not parse.
        (RUN_SPECS, &["specs", "--retries", "many"], "--retries"),
        (
            RUN_SPECS,
            &["specs", "--deadline-ms", "1.5"],
            "--deadline-ms",
        ),
        (SCALE, &["--shards", "1,x"], "--shards"),
        (SCALE, &["--stream", "v3"], "--stream"),
        (
            NOC_TRACE,
            &["record", "spec.json", "--period", "x"],
            "--period",
        ),
        (NOC_TRACE, &["selfcheck", "--shards", "1,,8"], "--shards"),
        (REPRO_ALL, &["--jobs", "x"], "--jobs"),
        // A value that parses but cannot be used (it used to panic in
        // `Tracer::new`).
        (
            NOC_TRACE,
            &["record", "spec.json", "--period", "0"],
            "--period",
        ),
    ];
    for (bin, args, named) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?} must exit 2: {stderr}");
        assert!(
            stderr.contains(named),
            "{bin} {args:?} must name {named}: {stderr}"
        );
    }
}

#[test]
fn a_typoed_resume_leaves_the_ledger_untouched() {
    let (before, after) = results_file_after("specs.ledger.jsonl", || {
        let (code, stderr) = run(RUN_SPECS, &["specs", "--resum"]);
        assert_eq!(code, Some(2), "{stderr}");
    });
    assert_eq!(after, Some(before), "the ledger must survive byte for byte");
}

/// `fig4 PS9` used to match no panel, print nothing, overwrite
/// `results/fig4.json` with `[]` and exit 0.
#[test]
fn an_unknown_panel_name_is_a_usage_error_not_an_empty_figure() {
    let (before, after) = results_file_after("fig4.json", || {
        for (args, named) in [(&["PS9"][..], "PS9"), (&["PM", "Unifrm"][..], "Unifrm")] {
            let (code, stderr) = run(FIG4, args);
            assert_eq!(code, Some(2), "fig4 {args:?} must exit 2: {stderr}");
            assert!(stderr.contains(named), "fig4 {args:?}: {stderr}");
        }
    });
    assert_eq!(after, Some(before), "results/fig4.json must be untouched");
}

/// A spec whose measurement window is empty used to pass validation and
/// trip an assertion in the simulator (exit 101 with a backtrace).
#[test]
fn an_empty_measurement_window_fails_at_the_parse_site() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let baseline = std::fs::read_to_string(specs.join("baseline.json")).expect("checked-in spec");
    let spec = std::env::temp_dir().join(format!("adele_empty_window_{}.json", std::process::id()));
    std::fs::write(
        &spec,
        baseline.replace("\"measure\": 4000", "\"measure\": 0"),
    )
    .unwrap();
    let (code, stderr) = run(NOC_TRACE, &["record", spec.to_str().unwrap()]);
    std::fs::remove_file(&spec).unwrap();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("measure must be"), "{stderr}");
}

/// AdEle tuning and application rates became spec input with the figures'
/// move onto scenarios; out of range, they used to trip an `assert!` in
/// `AdeleConfig::validate` or `AppTraffic::new`.
#[test]
fn an_out_of_range_tuning_or_app_rate_fails_at_the_parse_site() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let baseline = noc_exp::load_spec(&specs.join("baseline.json")).expect("checked-in spec");
    let config = AdeleConfig {
        ewma_alpha: 1.5,
        ..AdeleConfig::paper_default()
    };
    let tuned = SelectorSpec::AdeleTuned {
        config,
        assignment: None,
    };
    let app = WorkloadKind::App {
        app: AppKind::Canneal,
        rate: 2.0,
    };
    let cases = [
        (baseline.clone().with_selector(tuned), "ewma_alpha 1.5"),
        (baseline.with_workload(app), "app rate 2"),
    ];
    for (at, (scenario, named)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("adele_bad_spec_{}_{at}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("bad.json");
        std::fs::write(&spec, serde_json::to_string_pretty(&scenario).unwrap()).unwrap();
        let (dir_arg, spec_arg) = (dir.to_str().unwrap(), spec.to_str().unwrap());
        for (bin, args) in [
            (RUN_SPECS, vec![dir_arg]),
            (NOC_TRACE, vec!["record", spec_arg]),
        ] {
            let (code, stderr) = run(bin, &args);
            assert_eq!(code, Some(1), "{bin} {args:?}: {stderr}");
            assert!(
                stderr.contains(named),
                "{bin} {args:?} must name {named}: {stderr}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A journal `noc_trace verify` cannot read is a named error: exit 1,
/// naming the record and why, whatever the damage.
#[test]
fn a_damaged_journal_fails_verify_naming_the_record() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_small.jsonl");
    let golden = std::fs::read_to_string(golden).expect("checked-in journal");
    let two_records: usize = golden.lines().take(2).map(|l| l.len() + 1).sum();
    let cases = [
        (
            "garbage",
            "garbage, not JSON\n".to_string(),
            "record 0: malformed JSON",
        ),
        (
            "truncated",
            golden[..two_records + 20].to_string(),
            "record 2: malformed JSON",
        ),
        (
            "future",
            golden.replacen("\"schema\":1,", "\"schema\":99,", 1),
            "record 0: unsupported trace schema 99",
        ),
        (
            "empty",
            String::new(),
            "record 0: journal does not start with a header",
        ),
    ];
    for (name, journal, named) in cases {
        let path = std::env::temp_dir().join(format!("adele_{name}_{}.jsonl", std::process::id()));
        std::fs::write(&path, journal).unwrap();
        let (code, stderr) = run(NOC_TRACE, &["verify", path.to_str().unwrap()]);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.contains(named), "{name} must name {named}: {stderr}");
    }
}

/// `fig6 --links` used to `.expect(..)` its CSV and heatmap writes.
#[test]
fn an_unwritable_link_artefact_exits_3_naming_the_file() {
    let csv = adele_bench::results_dir().join("fig6_links_PS1.csv");
    // A directory squatting on the CSV's path makes the write fail; a CSV
    // left by a real run is moved aside and put back.
    let existing = std::fs::read(&csv).ok();
    let _ = std::fs::remove_file(&csv);
    std::fs::create_dir_all(&csv).expect("squat on the CSV path");
    let (code, stderr) = run(FIG6, &["--links"]);
    std::fs::remove_dir(&csv).expect("remove the squatter");
    if let Some(bytes) = existing {
        std::fs::write(&csv, bytes).expect("restore the CSV");
    }
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("fig6_links_PS1.csv"), "{stderr}");
}
