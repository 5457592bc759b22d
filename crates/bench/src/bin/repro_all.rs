//! Runs every paper-reproduction harness (Fig. 2b, Fig. 3 + Table II,
//! Fig. 4, Fig. 5, Fig. 6, Fig. 7, Table III, ablation) on the
//! `noc_exp::runner` worker pool, leaving JSON results in `results/`.
//!
//! The harnesses are independent processes, so the pool shards them
//! across cores (work stealing, like every sweep in this workspace) and
//! the captured outputs are printed **in suite order** once all complete —
//! byte-identical to what the old sequential driver streamed, regardless
//! of worker count or finish order.
//!
//! Usage: `repro_all [--jobs N] [--verify]`
//!
//! * `--jobs N` — worker processes (default: available cores).
//! * `--verify` — run the suite twice, on the pool and then fully
//!   sequentially (one harness at a time, each with `NOC_THREADS=1` so
//!   its inner `par_map` grid is a plain loop too), and fail unless every
//!   harness printed byte-identical output both times (the bit-identity
//!   contract, cheap under `ADELE_QUICK=1`).
//!
//! Respects `ADELE_QUICK=1` like the individual binaries.

use adele_bench::Args;
use noc_exp::runner::{default_threads, par_map};
use std::path::Path;
use std::process::Command;

const EXPERIMENTS: [&str; 8] = [
    "fig2b",
    "fig3_table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table3",
    "ablation",
];

/// Output of one harness: combined stdout (status line goes to stderr).
struct HarnessRun {
    name: &'static str,
    ok: bool,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
}

/// Runs the whole suite on `jobs` workers; results in suite order.
/// `sequential_inside` pins the harnesses' own worker pools to one
/// thread (`NOC_THREADS=1`), so nothing in the pass runs in parallel.
fn run_suite(bin_dir: &Path, jobs: usize, sequential_inside: bool) -> Vec<HarnessRun> {
    par_map(&EXPERIMENTS, jobs, |_, &name| {
        // Chaos injection is a property of the supervised sweeps, not of
        // the figure harnesses: a NOC_CHAOS set for the parent must not
        // leak into children and corrupt the paper reproductions.
        let mut command = Command::new(bin_dir.join(name));
        command.env_remove("NOC_CHAOS");
        if sequential_inside {
            command.env("NOC_THREADS", "1");
        }
        let output = command.output();
        let run = match output {
            Ok(out) => HarnessRun {
                name,
                ok: out.status.success(),
                stdout: out.stdout,
                stderr: out.stderr,
            },
            Err(e) => HarnessRun {
                name,
                ok: false,
                stdout: Vec::new(),
                stderr: format!(
                    "failed to launch {name} ({e}); build it with \
                     `cargo build --release -p adele_bench --bins`"
                )
                .into_bytes(),
            },
        };
        eprintln!(
            "[repro_all] {name}: {}",
            if run.ok { "ok" } else { "FAILED" }
        );
        run
    })
}

fn print_suite(runs: &[HarnessRun]) {
    use std::io::Write;
    for run in runs {
        println!("\n================= {} =================", run.name);
        std::io::stdout().write_all(&run.stdout).expect("stdout");
        std::io::stderr().write_all(&run.stderr).expect("stderr");
    }
}

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir").to_path_buf();
    let mut args = Args::from_env("repro_all");
    let verify = args.flag("--verify");
    let jobs = args.value("--jobs").unwrap_or_else(default_threads);
    args.finish();

    let runs = run_suite(&bin_dir, jobs, false);
    print_suite(&runs);

    if verify {
        // The contract the pool port rests on: worker count — of this
        // process fan-out and of each harness's own `par_map` — changes
        // wall-clock time and nothing else. Re-run with both at one and
        // compare every harness's bytes.
        eprintln!("\n[repro_all] --verify: re-running sequentially…");
        let sequential = run_suite(&bin_dir, 1, true);
        for (par, seq) in runs.iter().zip(&sequential) {
            assert_eq!(par.name, seq.name);
            assert!(
                par.stdout == seq.stdout && par.ok == seq.ok,
                "{}: parallel output differs from sequential",
                par.name
            );
        }
        println!(
            "\n--verify: all {} harness outputs bit-identical.",
            runs.len()
        );
    }

    let failed: Vec<&str> = runs.iter().filter(|r| !r.ok).map(|r| r.name).collect();
    if failed.is_empty() {
        println!("\nAll experiments completed. JSON results in results/.");
    } else {
        eprintln!("\nFailed experiments: {failed:?}");
        std::process::exit(1);
    }
}
