//! Reproduces the paper's evaluation: Fig. 2b, Fig. 3 + Table II, Fig. 4,
//! Fig. 5, Fig. 6, Fig. 7, Table III and the ablation study. Each figure is
//! a module whose harness runs its grid on a given number of `noc_exp`
//! pool workers, writes its JSON into `results/` and returns the report
//! printed here.
//!
//! * `repro <figure>` — one figure on the default worker count
//!   (`NOC_THREADS`, else the host's cores); `fig4` takes
//!   `[PS1|PS2|PS3|PM] [Uniform|Shuffle]`, `fig6` takes `--links`.
//! * `repro all [--jobs N] [--verify]` — every figure on an outer pool of
//!   `N` workers (default: the default worker count), the reports in suite
//!   order under a banner each, whatever the finish order. `--verify` runs
//!   the suite again with both worker counts at one and fails unless
//!   every figure printed the same bytes.
//!
//! Exit codes: 2 for a usage error, before any file is touched; 3 when a
//! figure fails or panics, named on stderr (under `all`, after the others
//! have completed and printed); 1 when `--verify` finds a difference,
//! naming the first differing figure and line. `ADELE_QUICK=1` shortens
//! every window and the AMOSA schedule.

mod ablation;
mod fig2b;
mod fig3_table2;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod table3;

use adele_bench::{Args, FigureError};
use noc_exp::runner::{default_threads, par_map};
use std::panic;
use std::process::exit;

/// A figure: its grid on the given number of workers, then its report.
type Harness = fn(usize) -> Result<String, FigureError>;

/// Every figure, in the order `repro all` prints them.
const SUITE: [(&str, Harness); 8] = [
    ("fig2b", fig2b::run),
    ("fig3_table2", fig3_table2::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("table3", table3::run),
    ("ablation", ablation::run),
];

/// One figure's pass: its report, or why it failed.
type Outcome = Result<String, String>;

/// Runs `suite` on `jobs` workers, each figure's grid on `threads`; the
/// outcomes in suite order. A figure that fails or panics fails alone.
fn run_suite(suite: &[(&str, Harness)], jobs: usize, threads: usize) -> Vec<Outcome> {
    par_map(suite, jobs, |_, &(name, harness)| {
        // The panic's message and place are on stderr already (the hook).
        let outcome = match panic::catch_unwind(move || harness(threads)) {
            Ok(report) => report.map_err(|e| e.to_string()),
            Err(_) => Err("panicked".to_string()),
        };
        let status = if outcome.is_ok() { "ok" } else { "FAILED" };
        eprintln!("[repro] {name}: {status}");
        outcome
    })
}

/// The suite's stdout — each figure's report under its banner, in suite
/// order — and every failed figure, named with why.
fn render(suite: &[(&str, Harness)], outcomes: &[Outcome]) -> (String, Vec<String>) {
    let mut out = String::new();
    let mut failed = Vec::new();
    for (&(name, _), outcome) in suite.iter().zip(outcomes) {
        out += &format!("\n================= {name} =================\n");
        match outcome {
            Ok(report) => out += report,
            Err(why) => failed.push(format!("{name}: {why}")),
        }
    }
    (out, failed)
}

/// The first figure whose two passes differ, named with the first line
/// its reports differ on; `None` when every figure printed the same bytes
/// (or failed) both times.
fn first_difference(suite: &[(&str, Harness)], a: &[Outcome], b: &[Outcome]) -> Option<String> {
    let mut passes = suite.iter().zip(a.iter().zip(b));
    passes.find_map(|(&(name, _), pair)| match pair {
        (Ok(a), Ok(b)) if a != b => {
            let line = a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count();
            let at = |report: &str| report.lines().nth(line).unwrap_or("").to_string();
            let (a, b) = (at(a), at(b));
            Some(format!("{name}: line {}: {a:?} vs {b:?}", line + 1))
        }
        (Ok(_), Err(_)) | (Err(_), Ok(_)) => Some(format!("{name}: failed in one pass only")),
        _ => None,
    })
}

/// `repro all [--jobs N] [--verify]`.
fn all(mut args: Args) -> ! {
    let verify = args.flag("--verify");
    let jobs = args.value("--jobs").unwrap_or_else(default_threads);
    args.finish();

    let outcomes = run_suite(&SUITE, jobs, default_threads());
    let (out, failed) = render(&SUITE, &outcomes);
    print!("{out}");
    let mut code = 0;
    if verify {
        // Worker counts — of the suite pool and of each figure's grid —
        // change wall-clock time and nothing else.
        eprintln!("\n[repro] --verify: re-running sequentially…");
        let sequential = run_suite(&SUITE, 1, 1);
        if let Some(difference) = first_difference(&SUITE, &outcomes, &sequential) {
            eprintln!("error: --verify: pooled vs sequential pass at {difference}");
            code = 1;
        } else {
            println!(
                "\n--verify: all {} harness outputs bit-identical.",
                SUITE.len()
            );
        }
    }
    for failure in &failed {
        eprintln!("error: {failure}");
        code = 3;
    }
    if code == 0 {
        println!("\nAll experiments completed. JSON results in results/.");
    }
    exit(code)
}

fn main() {
    let mut args = Args::from_env("repro");
    let threads = default_threads();
    let report = match args.positional().as_deref() {
        Some("all") => all(args),
        Some("fig4") => fig4::run_named(args, threads),
        Some("fig6") if args.flag("--links") => {
            args.finish();
            fig6::run_links(threads)
        }
        Some(name) => match SUITE.iter().find(|&&(figure, _)| figure == name) {
            Some(&(_, harness)) => {
                args.finish();
                harness(threads)
            }
            None => args.die(&format!(
                "unknown figure {name:?} (one of {}, all)",
                SUITE.map(|(figure, _)| figure).join(", ")
            )),
        },
        None => args.die("usage: repro <figure|all> [args]"),
    };
    match report {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            exit(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(_: usize) -> Result<String, FigureError> {
        Ok("one\n".into())
    }

    fn broken(_: usize) -> Result<String, FigureError> {
        Err(FigureError("scenario 0 (stub): deadlock".into()))
    }

    fn panics(_: usize) -> Result<String, FigureError> {
        panic!("stub figure gave up")
    }

    fn last(_: usize) -> Result<String, FigureError> {
        Ok("three\n".into())
    }

    #[test]
    fn the_suite_is_the_eight_figures_once_each() {
        let names = SUITE.map(|(name, _)| name);
        assert_eq!(names.len(), 8);
        assert!(names
            .iter()
            .all(|n| names.iter().filter(|m| m == &n).count() == 1));
        assert!(!names.contains(&"all"));
    }

    #[test]
    fn a_failing_figure_fails_alone() {
        for (middle, why) in [
            (broken as Harness, "scenario 0 (stub): deadlock"),
            (panics, "panicked"),
        ] {
            let suite: [(&str, Harness); 3] =
                [("first", first), ("middle", middle), ("last", last)];
            for jobs in [1, 3] {
                let outcomes = run_suite(&suite, jobs, 1);
                let (out, failed) = render(&suite, &outcomes);
                assert_eq!(
                    out,
                    "\n================= first =================\none\n\
                     \n================= middle =================\n\
                     \n================= last =================\nthree\n"
                );
                assert_eq!(failed, [format!("middle: {why}")]);
            }
        }
    }

    #[test]
    fn verify_names_the_first_differing_figure_and_line() {
        let suite: [(&str, Harness); 3] = [("first", first), ("middle", broken), ("last", last)];
        let ok = |text: &str| Ok(text.to_string());
        let pooled: Vec<Outcome> = vec![ok("a\nb\n"), Err("x".into()), ok("c\nd\ne\n")];
        assert_eq!(first_difference(&suite, &pooled, &pooled), None);
        // A figure that failed in both passes is no difference.
        let other_failure = vec![ok("a\nb\n"), Err("y".into()), ok("c\nd\ne\n")];
        assert_eq!(first_difference(&suite, &pooled, &other_failure), None);

        let changed = vec![ok("a\nb\n"), Err("x".into()), ok("c\nD\nE\n")];
        assert_eq!(
            first_difference(&suite, &pooled, &changed).as_deref(),
            Some("last: line 2: \"d\" vs \"D\"")
        );
        let shorter = vec![ok("a\n"), Err("x".into()), ok("c\nD\n")];
        assert_eq!(
            first_difference(&suite, &pooled, &shorter).as_deref(),
            Some("first: line 2: \"b\" vs \"\"")
        );
        let recovered = vec![ok("a\nb\n"), ok("m\n"), ok("c\nd\ne\n")];
        assert_eq!(
            first_difference(&suite, &pooled, &recovered).as_deref(),
            Some("middle: failed in one pass only")
        );
        assert_eq!(
            first_difference(&suite, &recovered, &pooled).as_deref(),
            Some("middle: failed in one pass only")
        );
    }
}
