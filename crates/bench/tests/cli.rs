//! Every `adele_bench` binary parses its command line strictly
//! (`adele_bench::Args`): an unknown flag, a missing value or an
//! unparsable one exits 2 naming the offender on stderr, before the
//! binary touches a file. The case that motivated it: `run_specs specs
//! --resum` used to read as "not resuming", delete the ledger the user
//! meant to resume from, and start over.

use std::process::Command;

const RUN_SPECS: &str = env!("CARGO_BIN_EXE_run_specs");
const SCALE: &str = env!("CARGO_BIN_EXE_scale");
const NOC_TRACE: &str = env!("CARGO_BIN_EXE_noc_trace");
const REPRO_ALL: &str = env!("CARGO_BIN_EXE_repro_all");
const FIG4: &str = env!("CARGO_BIN_EXE_fig4");
const FIG6: &str = env!("CARGO_BIN_EXE_fig6");

/// Exit code and stderr of `bin args…`.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("launch the binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_2_naming_the_offender() {
    // (binary, arguments, what stderr must name)
    let cases: &[(&str, &[&str], &str)] = &[
        // An unknown flag — a typo, or a flag another binary has.
        (RUN_SPECS, &["specs", "--resum"], "--resum"),
        (RUN_SPECS, &["--emit", "specs", "--resume"], "--resume"),
        (SCALE, &["--quick", "--shard", "2"], "--shard"),
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
    let dir = adele_bench::results_dir();
    let ledger = dir.join("specs.ledger.jsonl");
    // A ledger left by a real run is used as it is; otherwise a stand-in
    // is written and removed again.
    let existing = std::fs::read(&ledger).ok();
    let before = existing.clone().unwrap_or_else(|| {
        std::fs::create_dir_all(&dir).expect("create results/");
        let stand_in = b"{\"hash\":\"stand-in\"}\n".to_vec();
        std::fs::write(&ledger, &stand_in).expect("write the stand-in ledger");
        stand_in
    });
    let (code, stderr) = run(RUN_SPECS, &["specs", "--resum"]);
    let after = std::fs::read(&ledger).ok();
    if existing.is_none() {
        let _ = std::fs::remove_file(&ledger);
    }
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(after, Some(before), "the ledger must survive byte for byte");
}
