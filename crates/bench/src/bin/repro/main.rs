//! Reproduces the paper's evaluation: Fig. 2b, Fig. 3 + Table II, Fig. 4,
//! Fig. 5, Fig. 6, Fig. 7, Table III and the ablation study. Each figure is
//! a module whose harness returns a [`Plan`]. The scenarios of all figures
//! `repro` prints run as one `noc_exp` supervised batch on `NOC_THREADS`
//! (else the host's cores) workers; then each renders, in suite order.
//!
//! * `repro <figure>` — one figure; `fig4` takes
//!   `[PS1|PS2|PS3|PM] [Uniform|Shuffle]`, `fig6` takes `--links`.
//! * `repro all [--verify]` — every figure, each report under a banner.
//!   `--verify` runs the suite again on one worker and fails unless every
//!   figure printed the same bytes.
//!
//! Exit codes: 2 for a usage error, before any file is touched; 3 when a
//! figure fails or panics, named on stderr (under `all`, after the others
//! have printed); 1 when `--verify` finds a difference, naming the first
//! differing figure and line. `ADELE_QUICK=1` shortens every window and
//! the AMOSA schedule.

mod ablation;
mod fig2b;
mod fig3_table2;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod table3;

use adele_bench::{Args, FigureError};
use noc_exp::runner::default_threads;
use noc_exp::{run_batch_supervised, Scenario, Supervision};
use noc_sim::RunSummary;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

/// A figure's report, or why it has none.
type Report = Result<String, FigureError>;

/// Turns a figure's summaries, in scenario order, into its report.
type Render = Box<dyn FnOnce(&[RunSummary]) -> Report>;

/// A figure: its scenarios and their renderer.
struct Plan {
    scenarios: Vec<Scenario>,
    render: Render,
}

impl Plan {
    fn new(scenarios: Vec<Scenario>, f: impl FnOnce(&[RunSummary]) -> Report + 'static) -> Self {
        let render = Box::new(f);
        Self { scenarios, render }
    }
}

/// A figure's harness: its plan.
type Harness = fn() -> Plan;

/// Every figure, in the order `repro all` prints them.
const SUITE: [(&str, Harness); 8] = [
    ("fig2b", fig2b::plan),
    ("fig3_table2", fig3_table2::plan),
    ("fig4", fig4::plan),
    ("fig5", fig5::plan),
    ("fig6", fig6::plan),
    ("fig7", fig7::plan),
    ("table3", table3::plan),
    ("ablation", ablation::plan),
];

/// One figure's pass: its report, or why it failed.
type Outcome = Result<String, String>;

/// Runs the scenarios of all `plans` as one supervised batch on `threads`
/// workers, then renders each plan from its share of the summaries; the
/// outcomes in plan order. A failed scenario or a panicking renderer
/// fails its figure alone.
fn run(plans: Vec<Plan>, threads: usize) -> Vec<Outcome> {
    let batch: Vec<Scenario> = plans.iter().flat_map(|p| p.scenarios.clone()).collect();
    let mut outcomes = run_batch_supervised(&batch, threads, &Supervision::new(), None, |_| {});
    let mut outcome = |plan: Plan| {
        let mut summaries = Vec::new();
        let share = outcomes.drain(..plan.scenarios.len());
        for (at, (point, scenario)) in share.zip(&plan.scenarios).enumerate() {
            match point.into_result() {
                Ok(result) => summaries.push(result.summary),
                Err(failure) => {
                    let name = &scenario.name;
                    return Err(format!("scenario {at} ({name}): {}", failure.error));
                }
            }
        }
        // The panic's message and place are on stderr already (the hook).
        match catch_unwind(AssertUnwindSafe(|| (plan.render)(&summaries))) {
            Ok(report) => report.map_err(|e| e.to_string()),
            Err(_) => Err("panicked".to_string()),
        }
    };
    plans.into_iter().map(&mut outcome).collect()
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

/// `repro all [--verify]`.
fn all(mut args: Args) -> ! {
    let verify = args.flag("--verify");
    args.finish();

    let suite = |threads| run(SUITE.map(|(_, plan)| plan()).into(), threads);
    let outcomes = suite(default_threads());
    let (out, failed) = render(&SUITE, &outcomes);
    print!("{out}");
    let mut code = 0;
    if verify {
        // The worker count changes wall-clock time and nothing else.
        eprintln!("\n[repro] --verify: re-running sequentially…");
        let sequential = suite(1);
        if let Some(difference) = first_difference(&SUITE, &outcomes, &sequential) {
            eprintln!("error: --verify: pooled vs sequential pass at {difference}");
            code = 1;
        } else {
            let figures = SUITE.len();
            println!("\n--verify: all {figures} harness outputs bit-identical.");
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
    let plan = match args.positional().as_deref() {
        Some("all") => all(args),
        Some("fig4") => fig4::plan_named(args),
        Some("fig6") if args.flag("--links") => {
            args.finish();
            Plan::new(Vec::new(), |_| fig6::run_links())
        }
        Some(name) => match SUITE.iter().find(|&&(figure, _)| figure == name) {
            Some(&(_, plan)) => {
                args.finish();
                plan()
            }
            None => args.die(&format!(
                "unknown figure {name:?} (one of {}, all)",
                SUITE.map(|(figure, _)| figure).join(", ")
            )),
        },
        None => args.die("usage: repro <figure|all> [args]"),
    };
    match run(vec![plan], default_threads()).remove(0) {
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
    use adele::offline::SubsetAssignment;
    use adele::AdeleConfig;
    use noc_exp::{ChaosSpec, SelectorSpec, WorkloadKind};
    use noc_topology::{ElevatorSet, Mesh3d};
    use noc_traffic::apps::AppKind;

    /// A 4×4×2 fabric with two pillars.
    fn fabric() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        (mesh, ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap())
    }

    /// Uniform traffic at `rate` on [`fabric`] with short windows: the
    /// runner's mechanics without a preset's 64-node, 25 000-cycle runs.
    fn tiny(name: &str, rate: f64) -> Scenario {
        let (mesh, elevators) = fabric();
        Scenario::new(name, mesh, elevators)
            .with_phases(100, 400, 2_000)
            .with_workload(WorkloadKind::Uniform { rate })
            .with_seed(7)
    }

    /// A figure whose report is its summaries, debug-printed.
    fn echo(scenarios: Vec<Scenario>) -> Plan {
        Plan::new(scenarios, |summaries| Ok(format!("{summaries:?}\n")))
    }

    /// Two healthy runs, echoed.
    fn good() -> Plan {
        echo(vec![tiny("good a", 0.002), tiny("good b", 0.004)])
    }

    /// One run, rigged to deadlock.
    fn deadlocks() -> Plan {
        echo(vec![ChaosSpec::new(0).rig_deadlock(&tiny("stuck", 0.004))])
    }

    /// One healthy run and a renderer that panics.
    fn panics() -> Plan {
        Plan::new(vec![tiny("fine", 0.003)], |_| panic!("stub figure gave up"))
    }

    /// No runs, a one-line report.
    fn first() -> Plan {
        Plan::new(Vec::new(), |_| Ok("one\n".into()))
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
        let suite: [(&str, Harness); 4] = [
            ("deadlocks", deadlocks),
            ("good", good),
            ("panics", panics),
            ("last", good),
        ];
        let plain: Vec<RunSummary> = good()
            .scenarios
            .iter()
            .map(|scenario| scenario.run().unwrap().summary)
            .collect();
        let stuck = &deadlocks().scenarios[0];
        let deadlock = stuck.run().expect_err("the rig deadlocks");
        for threads in [1, 3] {
            let outcomes = run(suite.map(|(_, plan)| plan()).into(), threads);
            let (out, failed) = render(&suite, &outcomes);
            assert_eq!(
                out,
                format!(
                    "\n================= deadlocks =================\n\
                     \n================= good =================\n{plain:?}\n\
                     \n================= panics =================\n\
                     \n================= last =================\n{plain:?}\n"
                ),
                "{threads} worker(s)"
            );
            assert_eq!(
                failed,
                [
                    format!("deadlocks: scenario 0 (stuck): {deadlock}"),
                    "panics: panicked".to_string()
                ],
                "{threads} worker(s)"
            );
        }
    }

    #[test]
    fn the_batch_equals_a_plain_loop_in_input_order_at_any_worker_count() {
        let (mesh, elevators) = fabric();
        let assignment = SubsetAssignment::full(&mesh, &elevators);
        let mut scenarios: Vec<Scenario> = adele_bench::main_policies(&assignment)
            .into_iter()
            .zip([0.002, 0.004, 0.008])
            .map(|((name, policy), rate)| {
                tiny(&format!("{name} @ {rate}"), rate).with_selector(policy)
            })
            .collect();
        scenarios.push(
            tiny("fft, AdEle-RR", 0.004)
                .with_workload(WorkloadKind::App {
                    app: AppKind::Fft,
                    rate: 0.004,
                })
                .with_selector(SelectorSpec::AdeleTuned {
                    config: AdeleConfig::rr_only(),
                    assignment: Some(assignment),
                }),
        );

        let plain: Vec<RunSummary> = scenarios
            .iter()
            .map(|scenario| scenario.run().unwrap().summary)
            .collect();
        assert!(plain.windows(2).all(|w| w[0] != w[1]), "distinct scenarios");
        for threads in [1, 4] {
            // Split across two figures, so the batch's split is checked too.
            let (a, b) = scenarios.split_at(1);
            let outcomes = run(vec![echo(a.to_vec()), echo(b.to_vec())], threads);
            let expected = [&plain[..1], &plain[1..]].map(|s| Ok(format!("{s:?}\n")));
            assert_eq!(outcomes, expected, "{threads} worker(s)");
        }
    }

    #[test]
    fn verify_names_the_first_differing_figure_and_line() {
        let suite: [(&str, Harness); 3] = [("first", first), ("middle", panics), ("last", first)];
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
