//! The metric vocabulary: every name the benchmark prints, with its
//! unit, and the `BENCHMARK.json` manifest that declares the same names
//! to the driver. A unit test holds the two together.

use serde::Value;
use std::path::Path;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`, at most 64 characters.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the stack waits for or pays; measured with spans and
/// tracer off, printed by every workload, gated by `bound`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("op_ms", "ms"),
    lower("host_ns_per_flit_hop", "ns"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer numbers from the traced pass. `0` means the workload
/// does not drive that path (no offline stage, fewer than 100 ops, …).
pub const PER_LAYER: &[MetricDef] = &[
    // noc_traffic — generators driven alone over the workload's mesh,
    // rate and seed.
    lower("noc_traffic.polled_ns_per_cycle", "ns"),
    lower("noc_traffic.scheduled_ns_per_cycle", "ns"),
    higher("noc_traffic.injections", "count"),
    lower("noc_traffic.offered_rate_error_pct", "%"),
    // adele / amosa — online selectors on a ZeroProbe, offline stage.
    lower("adele.select_ns.elevfirst", "ns"),
    lower("adele.select_ns.cda", "ns"),
    lower("adele.select_ns.adele", "ns"),
    lower("adele.offline_optimize_s", "s"),
    lower("amosa.evaluations", "count"),
    higher("amosa.evals_per_s", "1/s"),
    // noc_topology
    lower("noc_topology.route_step_ns", "ns"),
    lower("noc_topology.instantiate_us", "us"),
    // noc_sim — host time per layer call.
    lower("noc_sim.build_ms", "ms"),
    lower("noc_sim.inject_ns_per_cycle", "ns"),
    lower("noc_sim.compute_ns_per_cycle", "ns"),
    lower("noc_sim.exchange_ns_per_cycle", "ns"),
    lower("noc_sim.commit_ns_per_cycle", "ns"),
    lower("noc_sim.serial_share", "ratio"),
    lower("noc_sim.armed_step_ratio", "ratio"),
    lower("noc_sim.window_fixed_us", "us"),
    lower("noc_sim.shard_inline_ratio", "ratio"),
    higher("noc_sim.pool_speedup", "ratio"),
    // noc_sim — exact simulated counts over the fixed op prefix; a
    // simulator-only change must leave every one of them unchanged.
    lower("noc_sim.sim_cycles", "count"),
    lower("noc_sim.injected_packets", "count"),
    lower("noc_sim.delivered_packets", "count"),
    lower("noc_sim.flit_hops", "count"),
    lower("noc_sim.avg_latency_cycles", "cycles"),
    lower("noc_sim.latency_p99_cycles", "cycles"),
    lower("noc_sim.energy_nj_per_flit", "nJ"),
    lower("noc_sim.live_packets_end", "count"),
    lower("noc_sim.backlog_growth", "ratio"),
    // noc_energy
    lower("noc_energy.rollup_us", "us"),
    lower("noc_energy.report_ms", "ms"),
    // noc_obs
    lower("noc_obs.armed_tracer_ratio", "ratio"),
    lower("noc_obs.hist_ratio", "ratio"),
    lower("noc_obs.journal_bytes", "bytes"),
    lower("noc_obs.journal_parse_ms", "ms"),
    lower("noc_obs.prometheus_ms", "ms"),
    lower("noc_obs.perfetto_ms", "ms"),
    // noc_exp
    lower("noc_exp.spec_parse_us", "us"),
    lower("noc_exp.spec_hash_us", "us"),
    lower("noc_exp.ledger_append_us", "us"),
    lower("noc_exp.ledger_open_ms", "ms"),
    lower("noc_exp.results_json_ms", "ms"),
    lower("noc_exp.results_json_bytes", "bytes"),
    lower("noc_exp.supervise_ratio", "ratio"),
    higher("noc_exp.par_map_speedup", "ratio"),
    lower("noc_exp.resume_ms", "ms"),
    higher("noc_exp.points_cached", "count"),
    lower("noc_exp.points_retried", "count"),
    // Paper fidelity (fig7_apps only): distance from the abstract's
    // printed claims, in percentage points.
    lower("fidelity.latency_gap_pp", "pp"),
    lower("fidelity.energy_gap_pp", "pp"),
    higher("fidelity.gain_ps1_pct", "%"),
    higher("fidelity.gain_ps2_pct", "%"),
    higher("fidelity.gain_ps3_pct", "%"),
    // The benchmark's own view of the traced pass.
    higher("bench.ops", "count"),
    higher("bench.ops_per_s", "1/s"),
    lower("bench.op_ms_p50", "ms"),
    lower("bench.op_ms_p90", "ms"),
    higher("bench.sim_cycles_per_s", "1/s"),
    lower("bench.trace_overhead_ratio", "ratio"),
    higher("bench.span_coverage", "ratio"),
    lower("bench.result_digest32", "count"),
];

/// Named values being collected for one run, restricted to a declared
/// set: setting an undeclared name is a bug and panics.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty collection over `defs`.
    #[must_use]
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or `value` is not finite.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        assert!(value.is_finite(), "metric {name:?} is not finite: {value}");
        self.values[at] = Some(value);
    }

    /// The value set for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        let at = self.defs.iter().position(|d| d.name == name)?;
        self.values[at]
    }

    /// Every declared metric in declaration order; unset ones read 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(def, value)| (def, value.unwrap_or(0.0)))
    }

    /// Declared names that were never set.
    #[cfg(test)]
    pub fn unset(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }

    /// The `metrics` object of the result line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name,
                    json_number(value),
                    def.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite float with all its digits, as JSON.
fn json_number(value: f64) -> String {
    // `{:?}` is Rust's shortest round-trip form; JSON wants `1e-7`, not
    // a bare `NaN`/`inf`, and `Metrics::set` already rejected those.
    format!("{value:?}")
}

/// One `end_to_end` row of the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Allowed worsening as a share of the reference median.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end rows.
    pub end_to_end: Vec<Bounded>,
    /// Per-layer `(name, unit, better)` rows.
    pub per_layer: Vec<(String, String, String)>,
}

impl Manifest {
    /// Parses the manifest text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        let err = |e: serde::DeError| e.0;
        let rows =
            |key: &str| -> Result<Vec<Value>, String> { serde::field(&root, key).map_err(err) };
        let text_of = |row: &Value, key: &str| -> Result<String, String> {
            serde::field(row, key).map_err(err)
        };
        Ok(Self {
            run_seconds: serde::field(&root, "run_seconds").map_err(err)?,
            workloads: rows("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: rows("end_to_end")?
                .iter()
                .map(|m| {
                    Ok(Bounded {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: serde::field(m, "bound").map_err(err)?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: rows("per_layer")?
                .iter()
                .map(|m| {
                    Ok((
                        text_of(m, "name")?,
                        text_of(m, "unit")?,
                        text_of(m, "better")?,
                    ))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// Loads `BENCHMARK.json` from `root` (the checkout root).
    ///
    /// # Errors
    ///
    /// Returns a message if the file is missing or malformed.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: cannot read ({e})", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn manifest() -> Manifest {
        Manifest::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn better(def: &MetricDef) -> &'static str {
        if def.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!def.name.is_empty() && def.name.len() <= 64, "{}", def.name);
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{} has a character outside [A-Za-z0-9_.-]",
                def.name
            );
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                def.unit,
                def.name
            );
            assert!(seen.insert(def.name), "{} declared twice", def.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_printed_metric_is_declared_in_the_manifest_and_vice_versa() {
        let manifest = manifest();
        let declared: Vec<(String, String, String)> = manifest
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
            .collect();
        let printed: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), better(d).into()))
            .collect();
        assert_eq!(declared, printed, "end_to_end rows differ");
        let printed: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), better(d).into()))
            .collect();
        assert_eq!(manifest.per_layer, printed, "per_layer rows differ");
    }

    #[test]
    fn manifest_bounds_and_workloads_follow_the_contract() {
        let manifest = manifest();
        assert!((1..=60).contains(&manifest.run_seconds));
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(manifest.workloads, names);
        for row in &manifest.end_to_end {
            assert!(row.bound > 0.0 && row.bound <= 0.25, "{}", row.name);
        }
        let setup = &manifest.end_to_end[0];
        assert_eq!((setup.name.as_str(), setup.unit.as_str()), ("setup_s", "s"));
        let widest = manifest
            .end_to_end
            .iter()
            .map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn collector_rejects_undeclared_names_and_prints_every_declared_one() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 0.25);
        assert_eq!(metrics.get("setup_s"), Some(0.25));
        assert_eq!(metrics.unset().len(), END_TO_END.len() - 1);
        let value: Value = serde_json::from_str(&metrics.to_json()).unwrap();
        let Value::Object(rows) = value else {
            panic!("metrics print as an object")
        };
        assert_eq!(rows.len(), END_TO_END.len());
        let caught = std::panic::catch_unwind(move || metrics.set("nope", 1.0));
        assert!(caught.is_err());
    }
}
