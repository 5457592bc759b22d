//! The state of one workload run: timing samples, the fixed-prefix
//! digest and exact counts, correctness checks, and the roll-up into
//! the end-to-end and per-layer metric sets.

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probes::ProbeFabric;
use crate::span::Spans;
use crate::stats::{median, percentile};
use noc_sim::RunSummary;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest set-ups per run.
pub const MIN_SETUPS: usize = 5;
/// Most set-ups per run.
pub const MAX_SETUPS: usize = 400;
/// Host time cheap set-ups are repeated for.
pub const SETUP_FLOOR: Duration = Duration::from_secs(1);
/// One timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// Which distinct op this is: a point's position in its sweep (a
    /// point run again in a later pass keeps its id). Windows of one
    /// steady-state simulator, and `spec_sweep`'s batches of fresh seeds
    /// over the same specs, are repeats of a single op, id 0.
    pub id: usize,
    /// Milliseconds the op took.
    pub ms: f64,
    /// Host ns per simulated flit-hop (`ms` over the op's sum of
    /// `router_flits`).
    pub ns_per_flit_hop: f64,
}

/// Exact simulated counts, summed over a set of ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Measured cycles.
    pub sim_cycles: u64,
    /// Measured packets injected.
    pub injected_packets: u64,
    /// Measured packets delivered.
    pub delivered_packets: u64,
    /// Flits through routers.
    pub flit_hops: u64,
    /// Sum of `avg_latency x delivered` (for the weighted mean).
    pub latency_weighted: f64,
    /// Sum of `energy_per_flit_nj x delivered`.
    pub energy_weighted: f64,
    /// Largest per-op p99 latency.
    pub latency_p99: u64,
    /// Live packets when the last counted op ended (window workloads).
    pub live_packets_end: f64,
    /// See [`crate::workloads::backlog_growth`] (window workloads).
    pub backlog_growth: f64,
}

impl Counts {
    fn add(&mut self, summary: &RunSummary, flit_hops: u64) {
        let delivered = summary.delivered_packets as f64;
        self.sim_cycles += summary.measured_cycles;
        self.injected_packets += summary.injected_packets;
        self.delivered_packets += summary.delivered_packets;
        self.flit_hops += flit_hops;
        self.latency_weighted += summary.avg_latency * delivered;
        self.energy_weighted += summary.energy_per_flit_nj * delivered;
        self.latency_p99 = self.latency_p99.max(summary.latency_p99);
    }
}

/// A named pass/fail correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one workload run accumulates.
#[derive(Debug)]
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Worker threads this workload may use (already capped at `nproc`).
    pub threads: usize,
    /// Seconds the op loop should run.
    pub budget: Duration,
    /// The span recorder (disabled in the untraced pass).
    pub spans: Spans,
    /// Seconds of each set-up.
    pub setups_s: Vec<f64>,
    /// Seconds of each offline (AMOSA) optimisation during set-up.
    pub offline_s: Vec<f64>,
    /// Objective evaluations those optimisations made.
    pub amosa_evaluations: u64,
    /// Timing samples of the op loop.
    pub ops: Vec<OpSample>,
    /// Exact counts over every timed op.
    pub timed: Counts,
    /// Exact counts over the fixed prefix only.
    pub prefix: Counts,
    /// What the layer probes re-drive.
    pub probe_fabric: Option<ProbeFabric>,
    /// Per-layer values the workload measured itself (fig7_apps'
    /// fidelity, spec_sweep's dump and resume pass over its real sweep);
    /// both passes print them, and a layer probe skips what is set here.
    pub layer: Vec<(&'static str, f64)>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Ops that failed.
    pub failed: u64,
    /// Smoke mode: cycle and op counts / 50, one set-up, for the
    /// correctness checks only.
    pub smoke: bool,
    peak_rss_mb: f64,
    prefix_ops: usize,
    digest: u64,
    timed_from: Option<Instant>,
    timed_ns: u64,
}

impl Run {
    /// A fresh run.
    #[must_use]
    pub fn new(
        workload: &'static str,
        seed: u64,
        threads: usize,
        budget: Duration,
        trace: bool,
    ) -> Self {
        Self {
            workload,
            seed,
            threads,
            budget,
            spans: Spans::new(workload, trace),
            setups_s: Vec::new(),
            offline_s: Vec::new(),
            amosa_evaluations: 0,
            ops: Vec::new(),
            timed: Counts::default(),
            prefix: Counts::default(),
            probe_fabric: None,
            layer: Vec::new(),
            checks: Vec::new(),
            failed: 0,
            smoke: false,
            peak_rss_mb: 0.0,
            prefix_ops: 0,
            digest: 0,
            timed_from: None,
            timed_ns: 0,
        }
    }

    /// Marks the start of the op loop.
    pub fn start_timed(&mut self) {
        self.timed_from = Some(Instant::now());
    }

    /// Marks the end of the op loop.
    pub fn stop_timed(&mut self) {
        if let Some(from) = self.timed_from.take() {
            self.timed_ns = u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// `count` as the workload defines it, or a fiftieth of it (at least
    /// 1) in smoke mode.
    #[must_use]
    pub fn scaled(&self, count: u64) -> u64 {
        if self.smoke {
            (count / 50).max(1)
        } else {
            count
        }
    }

    /// Runs one set-up inside a `bench.setup` span and books its time.
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut Run) -> R) -> R {
        let begun = Instant::now();
        let span = self.spans.enter("bench.setup", None);
        let out = f(self);
        self.spans.exit(span);
        self.setups_s.push(begun.elapsed().as_secs_f64());
        out
    }

    /// Seconds `f` takes, inside a span named `name`.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (f64, R) {
        let begun = Instant::now();
        let out = self.spans.scope(name, None, f);
        (begun.elapsed().as_secs_f64(), out)
    }

    /// `true` while another set-up should run: `setup_s` is the minimum
    /// of at least [`MIN_SETUPS`], and cheap set-ups (a 0.3 ms spec load)
    /// repeat until [`SETUP_FLOOR`] has been spent on them, so theirs has
    /// as many chances of an undisturbed sample as an expensive one's.
    /// Smoke mode sets up once.
    #[must_use]
    pub fn wants_more_setups(&self) -> bool {
        let done = self.setups_s.len();
        if self.smoke {
            return done == 0;
        }
        let spent: f64 = self.setups_s.iter().sum();
        done < MIN_SETUPS || (spent < SETUP_FLOOR.as_secs_f64() && done < MAX_SETUPS)
    }

    /// `true` while the loop should go on: the budget is not spent, or
    /// fewer than `prefix_ops` ops (the fixed prefix behind the digest and
    /// the exact counts) have run.
    pub fn wants_more_ops(&mut self, prefix_ops: usize) -> bool {
        self.prefix_ops = prefix_ops;
        let spent = self.timed_from.map_or(Duration::ZERO, |t| t.elapsed());
        self.ops.len() < prefix_ops || spent < self.budget
    }

    /// Books one finished op: which distinct op it is (see
    /// [`OpSample::id`]), its wall clock and its outputs (one summary, or
    /// a batch's).
    pub fn record_op<'a>(
        &mut self,
        id: usize,
        elapsed: Duration,
        summaries: impl IntoIterator<Item = &'a RunSummary>,
    ) {
        let in_prefix = self.ops.len() < self.prefix_ops;
        let mut flit_hops = 0u64;
        for summary in summaries {
            let hops: u64 = summary.router_flits.iter().sum();
            flit_hops += hops;
            self.timed.add(summary, hops);
            if in_prefix {
                self.prefix.add(summary, hops);
                let json = serde_json::to_string(summary).expect("summaries serialise");
                let chained = [self.digest, noc_exp::fnv1a(json.as_bytes())].map(u64::to_le_bytes);
                self.digest = noc_exp::fnv1a(chained.as_flattened());
            }
        }
        self.ops.push(OpSample {
            id,
            ms: elapsed.as_secs_f64() * 1e3,
            ns_per_flit_hop: elapsed.as_secs_f64() * 1e9 / flit_hops.max(1) as f64,
        });
        // The high-water mark once the fixed prefix is done: a fixed
        // amount of work, where the ops after it are as many as the clock
        // allowed (and `spec_sweep` keeps every batch for its resume pass).
        if self.ops.len() == self.prefix_ops {
            self.peak_rss_mb = crate::peak_rss_mb();
        }
    }

    /// Books a failed op and hands the message back for `?`.
    pub fn fail_op(&mut self, message: String) -> String {
        self.failed += 1;
        eprintln!("{}: FAILED op: {message}", self.workload);
        message
    }

    /// Books a correctness check; a failed one counts as a failed op.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// Ops attempted, successful or not.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        (self.ops.len() as u64 + self.failed).max(1)
    }

    /// FNV-1a chain over the canonical JSON of every prefix op's
    /// `RunSummary`, in op order.
    #[must_use]
    pub fn result_digest(&self) -> u64 {
        self.digest
    }

    /// A directory for files this run writes, inside the checkout
    /// (`benchmark/out/`) and unique to this process. `Ledger::open` and
    /// `atomic_write` create it on first use; the writer removes it.
    #[must_use]
    pub fn scratch_dir(&self) -> PathBuf {
        crate::out_dir().join(format!("tmp.{}.{}", self.workload, std::process::id()))
    }

    /// Per distinct op, the minimum of its samples. This sandbox shares
    /// its cores and caches: a neighbour slows every op by 10-40 % for
    /// seconds or minutes at a time, and only ever *adds* time, so the
    /// minimum follows the code where the median follows the neighbours.
    /// It was picked by measurement, not up front: README "Steadiness"
    /// lists every roll-up that was tried and its ten-seed spread. Each
    /// point of a sweep counts once however many passes ran.
    #[must_use]
    pub fn per_op(&self) -> Vec<PerOp> {
        let distinct = self.ops.iter().map(|o| o.id + 1).max().unwrap_or(0);
        let mut best = vec![
            PerOp {
                ms: f64::INFINITY,
                ns_per_flit_hop: f64::INFINITY,
            };
            distinct
        ];
        for op in &self.ops {
            let slot = &mut best[op.id];
            slot.ms = slot.ms.min(op.ms);
            slot.ns_per_flit_hop = slot.ns_per_flit_hop.min(op.ns_per_flit_hop);
        }
        best.retain(|o| o.ms.is_finite());
        best
    }

    /// Wall clock of the op loop in seconds, everything between the ops
    /// included.
    #[must_use]
    pub fn timed_s(&self) -> f64 {
        self.timed_ns as f64 / 1e9
    }

    /// The end-to-end metric set (untraced pass).
    #[must_use]
    pub fn end_to_end(&self) -> Metrics {
        let per_op = self.per_op();
        let ms: Vec<f64> = per_op.iter().map(|o| o.ms).collect();
        let ns: Vec<f64> = per_op.iter().map(|o| o.ns_per_flit_hop).collect();
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", minimum(&self.setups_s));
        metrics.set("op_ms", median(&ms));
        metrics.set("host_ns_per_flit_hop", median(&ns));
        metrics.set("peak_rss_mb", self.peak_rss_mb);
        metrics
    }

    /// The per-layer metrics the run itself knows (exact counts, offline
    /// stage, what the workload measured itself, the benchmark's own
    /// view); the layer probes add the rest.
    #[must_use]
    pub fn per_layer(&self) -> Metrics {
        let mut m = Metrics::new(PER_LAYER);
        let p = &self.prefix;
        let delivered = (p.delivered_packets as f64).max(1.0);
        m.set("noc_sim.sim_cycles", p.sim_cycles as f64);
        m.set("noc_sim.injected_packets", p.injected_packets as f64);
        m.set("noc_sim.delivered_packets", p.delivered_packets as f64);
        m.set("noc_sim.flit_hops", p.flit_hops as f64);
        m.set("noc_sim.avg_latency_cycles", p.latency_weighted / delivered);
        m.set("noc_sim.latency_p99_cycles", p.latency_p99 as f64);
        m.set("noc_sim.energy_nj_per_flit", p.energy_weighted / delivered);
        m.set("noc_sim.live_packets_end", p.live_packets_end);
        m.set("noc_sim.backlog_growth", p.backlog_growth);
        if !self.offline_s.is_empty() {
            let total: f64 = self.offline_s.iter().sum();
            m.set("adele.offline_optimize_s", median(&self.offline_s));
            m.set(
                "amosa.evaluations",
                self.amosa_evaluations as f64 / self.offline_s.len() as f64,
            );
            m.set(
                "amosa.evals_per_s",
                self.amosa_evaluations as f64 / total.max(1e-12),
            );
        }
        for &(name, value) in &self.layer {
            m.set(name, value);
        }
        // Plain order statistics over every sample, interference and
        // all: what this host actually delivered.
        let ms: Vec<f64> = self.ops.iter().map(|o| o.ms).collect();
        m.set("bench.ops", self.ops.len() as f64);
        m.set(
            "bench.ops_per_s",
            self.ops.len() as f64 / self.timed_s().max(1e-12),
        );
        m.set("bench.op_ms_p50", median(&ms));
        if let Some(p90) = percentile(&ms, 90) {
            m.set("bench.op_ms_p90", p90);
        }
        m.set(
            "bench.sim_cycles_per_s",
            self.timed.sim_cycles as f64 / self.timed_s().max(1e-12),
        );
        m.set(
            "bench.result_digest32",
            (self.result_digest() & 0xffff_ffff) as f64,
        );
        m
    }
}

/// One distinct op's cost on a quiet host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerOp {
    /// Fewest milliseconds over its samples.
    pub ms: f64,
    /// Fewest host ns per flit-hop over its samples.
    pub ns_per_flit_hop: f64,
}

/// Smallest of `values`, 0 for none.
fn minimum(values: &[f64]) -> f64 {
    let least = values.iter().copied().fold(f64::INFINITY, f64::min);
    if least.is_finite() {
        least
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(seed: u64) -> RunSummary {
        RunSummary {
            policy: "ElevFirst".into(),
            workload: "uniform".into(),
            offered_rate: Some(0.001),
            avg_latency: 20.0 + seed as f64,
            avg_network_latency: 18.0,
            delivered_packets: 10,
            injected_packets: 11,
            throughput_flits: 0.01,
            energy_per_flit_nj: 0.5,
            router_flits: vec![seed, 2, 3],
            elevator_packets: vec![4],
            pillar_energy_nj: vec![1.5],
            pillar_tsv_flits: vec![6],
            measured_cycles: 100,
            completed: true,
            latency_p50: 16,
            latency_p90: 32,
            latency_p99: 64,
            latency_max: 70,
        }
    }

    /// A run over `seeds`: op `i` has id `i % 2` and takes
    /// `10 * (i + 1)` ms.
    fn run_with(seeds: &[u64], prefix_ops: usize) -> Run {
        let mut run = Run::new("t", 7, 1, Duration::ZERO, false);
        run.start_timed();
        for (i, &seed) in seeds.iter().enumerate() {
            assert!(run.wants_more_ops(prefix_ops) || i >= prefix_ops);
            let elapsed = Duration::from_millis(10 * (i as u64 + 1));
            run.record_op(i % 2, elapsed, [&summary(seed)]);
        }
        run.stop_timed();
        run
    }

    #[test]
    fn digest_is_stable_for_one_input_and_differs_for_another() {
        let a = run_with(&[1, 2, 3], 3);
        let b = run_with(&[1, 2, 3], 3);
        let c = run_with(&[1, 2, 4], 3);
        let swapped = run_with(&[2, 1, 3], 3);
        assert_eq!(a.result_digest(), b.result_digest());
        assert_ne!(a.result_digest(), c.result_digest());
        assert_ne!(a.result_digest(), swapped.result_digest());
        // Ops past the fixed prefix do not enter the digest or the exact
        // counts, so a longer run reads the same.
        let longer = run_with(&[1, 2, 3, 9, 9], 3);
        assert_eq!(a.result_digest(), longer.result_digest());
        assert_eq!(a.prefix, longer.prefix);
        assert_ne!(a.timed, longer.timed);
    }

    #[test]
    fn a_batch_is_one_op_over_all_its_summaries() {
        let mut run = Run::new("t", 7, 1, Duration::ZERO, false);
        assert!(run.wants_more_ops(1));
        let batch = [summary(1), summary(2)];
        run.record_op(0, Duration::from_millis(11), &batch);
        assert_eq!(run.ops.len(), 1);
        // 6 + 7 flit-hops under one 11 ms op.
        assert_eq!(run.prefix.flit_hops, 13);
        assert!((run.ops[0].ns_per_flit_hop - 11e6 / 13.0).abs() < 1e-6);
        assert_eq!(run.prefix.delivered_packets, 20);
    }

    #[test]
    fn repeated_ops_collapse_to_their_minimum() {
        // ids 0,1,0,1,0 with 10,20,30,40,50 ms: op 0 has {10,30,50}, op 1
        // has {20,40}.
        let mut run = run_with(&[1, 1, 1, 1, 1], 2);
        let per_op = run.per_op();
        assert_eq!(per_op.len(), 2);
        assert_eq!((per_op[0].ms, per_op[1].ms), (10.0, 20.0));
        // 6 flit-hops per op: 10 ms / 6 hops.
        assert!((per_op[0].ns_per_flit_hop - 1e7 / 6.0).abs() < 1e-6);
        run.setups_s = vec![0.3, 0.1, 0.2];
        let metrics = run.end_to_end();
        assert_eq!(metrics.unset(), vec!["setup_s"; 0]);
        assert_eq!(metrics.get("op_ms"), Some(15.0));
        assert_eq!(metrics.get("setup_s"), Some(0.1));
        assert_eq!(minimum(&[]), 0.0);
    }

    #[test]
    fn failed_checks_count_as_failed_ops() {
        let mut run = Run::new("t", 7, 1, Duration::ZERO, false);
        run.check("fine", true, String::new());
        assert_eq!(run.failed, 0);
        run.check("broken", false, "why".into());
        let _ = run.fail_op("boom".into());
        assert_eq!(run.failed, 2);
        assert_eq!(run.attempted(), 2);
    }
}
