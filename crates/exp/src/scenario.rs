//! Declarative experiment specifications.
//!
//! A [`Scenario`] names everything one simulation run needs — topology,
//! workload composition, selection policy, measurement windows, seed and a
//! timed [`Event`] schedule — as plain data. Plain data shards across the
//! [`crate::runner`] worker pool, serialises into experiment logs, and
//! keeps the figure harnesses declarative instead of each wiring up its
//! own simulator.
//!
//! A workload is a [`WorkloadKind`] (what is offered) plus a
//! [`StreamVersion`] (which generator draws it). The kind describes itself
//! once, as [`SyntheticParts`]; [`WorkloadSpec::build`] is the single
//! place the stream is matched, and it returns the one workload type
//! the simulator accepts.

use adele::offline::SubsetAssignment;
use adele::online::ElevatorSelector;
use adele::online::{AdeleSelector, CdaSelector, ElevatorFirstSelector};
use adele::AdeleConfig;
use noc_sim::hooks::{resolve_hotspots, validate_hotspots};
use noc_sim::{Event, RunSummary, SimConfig, SimError, Simulator};
use noc_topology::placement::Placement;
use noc_topology::{Coord, ElevatorSet, Mesh3d};
use noc_traffic::apps::{AppKind, AppTraffic};
use noc_traffic::{
    BatchedSynthetic, CyclePolled, ScheduledSource, StreamVersion, SyntheticParts,
    SyntheticTraffic, TrafficSource,
};
use serde::{Deserialize, Serialize};

// One scenario seed fans out into decorrelated per-component seeds via
// the SplitMix mixer shared with the batched sources' per-node streams.
use noc_traffic::scheduled::derive_stream_seed as derive_seed;

/// The workload *shape* half of a scenario, as data: what traffic is
/// offered, independent of which injection-stream generation
/// ([`StreamVersion`]) generates it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Uniform random at `rate` packets/node/cycle.
    Uniform {
        /// Offered load.
        rate: f64,
    },
    /// Perfect shuffle at `rate`.
    Shuffle {
        /// Offered load.
        rate: f64,
    },
    /// Hotspot traffic: a `fraction` of packets target `hotspots`.
    Hotspot {
        /// Offered load.
        rate: f64,
        /// Hotspot router coordinates.
        hotspots: Vec<Coord>,
        /// Probability that a packet targets a hotspot.
        fraction: f64,
    },
    /// A synthetic application model (Fig. 7) at a base `rate`, which
    /// the app scales by its intensity.
    App {
        /// Which benchmark is modelled.
        app: AppKind,
        /// Packets/node/cycle of a full-intensity app.
        rate: f64,
    },
}

impl WorkloadKind {
    /// Checks the spec against `mesh`: rates are probabilities and
    /// hotspot coordinates lie inside the mesh.
    /// [`Scenario::validate`] runs this on every parsed spec so malformed
    /// spec files fail at the parse site, not deep inside a run.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self, mesh: &Mesh3d) -> Result<(), String> {
        let rate_ok = |rate: f64, what: &str| {
            if (0.0..=1.0).contains(&rate) {
                Ok(())
            } else {
                Err(format!("{what} rate {rate} outside [0, 1]"))
            }
        };
        match self {
            WorkloadKind::Uniform { rate } => rate_ok(*rate, "uniform"),
            WorkloadKind::Shuffle { rate } => rate_ok(*rate, "shuffle"),
            WorkloadKind::Hotspot {
                rate,
                hotspots,
                fraction,
            } => {
                rate_ok(*rate, "hotspot")?;
                validate_hotspots(mesh, hotspots, *fraction)
            }
            WorkloadKind::App { rate, .. } => rate_ok(*rate, "app"),
        }
    }

    /// The generator-independent description of a synthetic kind on
    /// `mesh` — what both streams are built from — or `None` for the one
    /// kind that exists only polled, an application model.
    fn parts(&self, mesh: &Mesh3d) -> Option<SyntheticParts> {
        Some(match self {
            WorkloadKind::Uniform { rate } => SyntheticParts::uniform(mesh, *rate),
            WorkloadKind::Shuffle { rate } => SyntheticParts::shuffle(mesh, *rate),
            WorkloadKind::Hotspot {
                rate,
                hotspots,
                fraction,
            } => {
                let hotspots = resolve_hotspots(mesh, hotspots);
                SyntheticParts::hotspot(mesh, *rate, hotspots, *fraction)
            }
            WorkloadKind::App { .. } => return None,
        })
    }

    /// Instantiates the workload's polled form on `mesh` with streams
    /// derived from `seed` — what the `v1` stream runs, and what
    /// [`noc_sim::harness::run_once`] takes.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (rates outside `[0, 1]`, hotspot
    /// coordinates outside the mesh) — scenario authoring errors.
    #[must_use]
    pub fn build_polled(&self, mesh: &Mesh3d, seed: u64) -> Box<dyn TrafficSource> {
        match self {
            WorkloadKind::App { app, rate } => Box::new(AppTraffic::new(*app, mesh, *rate, seed)),
            synthetic => {
                let parts = synthetic
                    .parts(mesh)
                    .expect("every other kind is synthetic");
                Box::new(SyntheticTraffic::from_parts(parts, seed))
            }
        }
    }
}

/// The workload half of a scenario: a [`WorkloadKind`] plus the
/// [`StreamVersion`] that generates it.
///
/// `stream` defaults to [`StreamVersion::V1`] — the polled stream every
/// checked-in baseline was recorded on — and `v1` specs serialise exactly
/// as they did before the field existed, so existing spec files and their
/// results stay bit-identical. `v2` selects the event-driven batched
/// stream: the same offered load in distribution, several times faster at
/// low rates, but a different RNG stream (cross-stream comparisons are
/// statistical, never bit-for-bit).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Which injection-stream generation runs the workload.
    pub stream: StreamVersion,
    /// The offered traffic.
    pub kind: WorkloadKind,
}

impl WorkloadSpec {
    /// `kind` on the default bit-stable `v1` stream.
    #[must_use]
    pub fn v1(kind: WorkloadKind) -> Self {
        Self {
            stream: StreamVersion::V1,
            kind,
        }
    }

    /// `kind` on the batched `v2` stream.
    #[must_use]
    pub fn v2(kind: WorkloadKind) -> Self {
        Self {
            stream: StreamVersion::V2,
            kind,
        }
    }

    /// Checks the workload shape against `mesh` (see
    /// [`WorkloadKind::validate`]; the stream version needs no
    /// validation).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self, mesh: &Mesh3d) -> Result<(), String> {
        self.kind.validate(mesh)
    }

    /// Instantiates the workload on `mesh` with streams derived from
    /// `seed`, as the one type the simulator takes. This is the only place
    /// a [`StreamVersion`] picks a generator: `v2` skip-samples a
    /// synthetic kind natively; `v1` — and a `v2` app, which has no
    /// batched generator yet — is the polled form behind [`CyclePolled`].
    ///
    /// # Panics
    ///
    /// Panics on scenario authoring errors (see
    /// [`WorkloadKind::build_polled`]).
    #[must_use]
    pub fn build(&self, mesh: &Mesh3d, seed: u64) -> Box<dyn ScheduledSource> {
        let batched = match self.stream {
            StreamVersion::V1 => None,
            StreamVersion::V2 => self.kind.parts(mesh),
        };
        match batched {
            Some(parts) => Box::new(BatchedSynthetic::from_parts(parts, seed)),
            None => Box::new(CyclePolled::new(
                self.kind.build_polled(mesh, seed),
                mesh.node_count(),
            )),
        }
    }
}

impl From<WorkloadKind> for WorkloadSpec {
    fn from(kind: WorkloadKind) -> Self {
        Self::v1(kind)
    }
}

impl Serialize for WorkloadSpec {
    /// `v1` serialises as the bare externally tagged kind — byte-identical
    /// to the pre-versioning format — while `v2` prepends a `"stream"`
    /// field to the kind's object.
    fn to_value(&self) -> serde::Value {
        let kind = self.kind.to_value();
        match self.stream {
            StreamVersion::V1 => kind,
            StreamVersion::V2 => {
                let serde::Value::Object(mut entries) = kind else {
                    unreachable!("workload kinds are struct variants (objects)");
                };
                entries.insert(0, ("stream".into(), self.stream.to_value()));
                serde::Value::Object(entries)
            }
        }
    }
}

impl Deserialize for WorkloadSpec {
    /// Reads the optional `"stream"` field (default `v1`), then parses the
    /// remaining entries as the externally tagged [`WorkloadKind`].
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        if let serde::Value::Object(entries) = value {
            let mut stream = StreamVersion::V1;
            let mut rest = Vec::with_capacity(entries.len());
            for (key, entry) in entries {
                if key == "stream" {
                    stream = StreamVersion::from_value(entry)
                        .map_err(|e| serde::DeError(format!("field \"stream\": {e}")))?;
                } else {
                    rest.push((key.clone(), entry.clone()));
                }
            }
            let kind = WorkloadKind::from_value(&serde::Value::Object(rest))?;
            Ok(Self { stream, kind })
        } else {
            Err(serde::DeError::expected("a workload object", value))
        }
    }
}

/// The selection-policy half of a scenario, as data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectorSpec {
    /// Nearest-elevator baseline.
    ElevatorFirst,
    /// Congestion-aware dynamic assignment baseline.
    Cda,
    /// AdEle (or its round-robin ablation with `rr_only`): shorthand for
    /// [`SelectorSpec::AdeleTuned`] with a preset configuration. Without
    /// an explicit offline `assignment`, every router gets the full
    /// elevator set (maximal redundancy).
    Adele {
        /// Drop the congestion-skipping stage (the AdEle-RR ablation).
        rr_only: bool,
        /// Drive the low-traffic override from measured per-pillar energy
        /// telemetry instead of the hop-count proxy.
        measured_energy: bool,
        /// Offline subset assignment; `None` means the full set.
        assignment: Option<SubsetAssignment>,
    },
    /// AdEle with an explicit configuration (the ablation's rows).
    AdeleTuned {
        /// The online stage's tuning.
        config: AdeleConfig,
        /// Offline subset assignment; `None` means the full set.
        assignment: Option<SubsetAssignment>,
    },
}

impl SelectorSpec {
    /// An AdEle variant's configuration and explicit assignment; `None`
    /// for the baselines. [`SelectorSpec::Adele`] reads as its preset.
    fn tuned(&self) -> Option<(AdeleConfig, Option<&SubsetAssignment>)> {
        match self {
            SelectorSpec::ElevatorFirst | SelectorSpec::Cda => None,
            SelectorSpec::Adele {
                rr_only,
                measured_energy,
                assignment,
            } => {
                let preset = if *rr_only {
                    AdeleConfig::rr_only()
                } else {
                    AdeleConfig::paper_default()
                };
                let config = AdeleConfig {
                    measured_energy_override: *measured_energy,
                    ..preset
                };
                Some((config, assignment.as_ref()))
            }
            SelectorSpec::AdeleTuned { config, assignment } => Some((*config, assignment.as_ref())),
        }
    }

    /// AdEle with paper defaults and the full-subset assignment.
    #[must_use]
    pub fn adele() -> Self {
        SelectorSpec::Adele {
            rr_only: false,
            measured_energy: false,
            assignment: None,
        }
    }

    /// AdEle reading measured per-pillar energy telemetry in its
    /// low-traffic override (full-subset assignment).
    #[must_use]
    pub fn adele_measured_energy() -> Self {
        SelectorSpec::Adele {
            rr_only: false,
            measured_energy: true,
            assignment: None,
        }
    }

    /// Instantiates the policy for `mesh`/`elevators` with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if an explicit assignment does not match the topology or the
    /// configuration is out of range ([`Scenario::validate`] errors).
    #[must_use]
    pub fn build(
        &self,
        mesh: &Mesh3d,
        elevators: &ElevatorSet,
        seed: u64,
    ) -> Box<dyn ElevatorSelector> {
        let Some((config, assignment)) = self.tuned() else {
            return match self {
                SelectorSpec::Cda => Box::new(CdaSelector::new()),
                _ => Box::new(ElevatorFirstSelector::new(mesh, elevators)),
            };
        };
        let full = SubsetAssignment::full(mesh, elevators);
        let assignment = assignment.unwrap_or(&full);
        Box::new(
            AdeleSelector::from_assignment(mesh, elevators, assignment, config, seed)
                .expect("a validated scenario's assignment and configuration"),
        )
    }
}

/// The opt-in flight-recorder half of a scenario: when present,
/// `noc_trace record` (and any other trace-aware driver) emits a window
/// record every `period` cycles; when absent, nothing about the run
/// changes and the spec serialises exactly as before the field existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Cycles between `window` records (≥ 1).
    pub period: u64,
}

/// One declarative experiment: topology + workload + policy + windows +
/// seed + timed events.
///
/// Serialisable both ways: experiment suites can live in checked-in JSON
/// spec files (`serde_json::to_string_pretty` / `from_str`) instead of
/// Rust, and a parsed scenario runs bit-identically to the original.
/// Deserialisation cross-validates the fields ([`Scenario::validate`]),
/// so a hand-edited spec whose pieces disagree — elevators built for a
/// different mesh, events naming out-of-range elevators — fails at the
/// parse site instead of deep inside the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Experiment name (carried into results).
    pub name: String,
    /// The 3D mesh.
    pub mesh: Mesh3d,
    /// Elevator columns.
    pub elevators: ElevatorSet,
    /// Workload composition.
    pub workload: WorkloadSpec,
    /// Selection policy.
    pub selector: SelectorSpec,
    /// Warm-up cycles before measurement.
    pub warmup: u64,
    /// Measurement-window cycles.
    pub measure: u64,
    /// Drain cap after measurement.
    pub drain_max: u64,
    /// Master seed; traffic and selector streams are derived from it.
    pub seed: u64,
    /// Timed events delivered mid-run.
    pub events: Vec<Event>,
    /// Accepted for spec compatibility and ignored: the simulated fabric
    /// is one router range whatever this says. It must still parse as a
    /// non-negative integer, is absent from older spec files (parsed as
    /// 1), and round-trips as written, so spec files and [`spec_hash`]es
    /// that carry it stay byte-identical.
    ///
    /// [`spec_hash`]: crate::spec_hash
    pub shards: usize,
    /// Opt-in flight-recorder settings; `None` (the default) leaves the
    /// spec's serialised form — and the run — exactly as before.
    pub trace: Option<TraceSpec>,
    /// Deadlock-watchdog override in cycles; `None` (the default) keeps
    /// [`SimConfig`]'s threshold and leaves the serialised spec exactly
    /// as before the field existed. The chaos harness sets adversarially
    /// tiny values here (0 is legal) to turn induced stalls into
    /// deterministic structured failures.
    pub watchdog: Option<u64>,
}

impl Serialize for Scenario {
    /// Field order matches the former derive byte for byte; the opt-in
    /// `trace` field is appended only when set, so every pre-existing
    /// spec file round-trips unchanged.
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("name".to_string(), self.name.to_value()),
            ("mesh".to_string(), self.mesh.to_value()),
            ("elevators".to_string(), self.elevators.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("selector".to_string(), self.selector.to_value()),
            ("warmup".to_string(), self.warmup.to_value()),
            ("measure".to_string(), self.measure.to_value()),
            ("drain_max".to_string(), self.drain_max.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("events".to_string(), self.events.to_value()),
            ("shards".to_string(), self.shards.to_value()),
        ];
        if let Some(trace) = &self.trace {
            entries.push(("trace".to_string(), trace.to_value()));
        }
        if let Some(watchdog) = self.watchdog {
            entries.push(("watchdog".to_string(), watchdog.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Scenario {
    /// A scenario on an explicit topology, with paper-flavoured defaults:
    /// uniform traffic at 0.003, Elevator-First, moderate windows, seed 1,
    /// no events.
    #[must_use]
    pub fn new(name: impl Into<String>, mesh: Mesh3d, elevators: ElevatorSet) -> Self {
        Self {
            name: name.into(),
            mesh,
            elevators,
            workload: WorkloadSpec::v1(WorkloadKind::Uniform { rate: 0.003 }),
            selector: SelectorSpec::ElevatorFirst,
            warmup: 1_000,
            measure: 4_000,
            drain_max: 20_000,
            seed: 1,
            events: Vec::new(),
            shards: 1,
            trace: None,
            watchdog: None,
        }
    }

    /// A scenario on one of the paper's placement presets.
    #[must_use]
    pub fn from_placement(name: impl Into<String>, placement: Placement) -> Self {
        let (mesh, elevators) = placement.instantiate();
        Self::new(name, mesh, elevators)
    }

    /// Sets the workload (a bare [`WorkloadKind`] selects the default
    /// `v1` stream).
    #[must_use]
    pub fn with_workload(mut self, workload: impl Into<WorkloadSpec>) -> Self {
        self.workload = workload.into();
        self
    }

    /// Moves the scenario's workload onto the given injection stream.
    #[must_use]
    pub fn with_stream(mut self, stream: StreamVersion) -> Self {
        self.workload.stream = stream;
        self
    }

    /// Sets the selection policy.
    #[must_use]
    pub fn with_selector(mut self, selector: SelectorSpec) -> Self {
        self.selector = selector;
        self
    }

    /// Sets warm-up, measurement and drain windows (cycles).
    #[must_use]
    pub fn with_phases(mut self, warmup: u64, measure: u64, drain_max: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self.drain_max = drain_max;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends a timed event.
    #[must_use]
    pub fn with_event(mut self, event: Event) -> Self {
        self.events.push(event);
        self
    }

    /// Sets the ignored [`Self::shards`] field: it changes the spec's
    /// serialised form and nothing about the run.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Opts the scenario into flight recording with a `window` record
    /// every `period` cycles.
    #[must_use]
    pub fn with_trace(mut self, period: u64) -> Self {
        self.trace = Some(TraceSpec { period });
        self
    }

    /// Overrides the deadlock-watchdog threshold (cycles without progress
    /// while flits are in flight before the run fails with
    /// [`SimError::Deadlock`]). `0` is legal and adversarial.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: u64) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Checks that the scenario's pieces agree with each other: the
    /// elevator set matches the mesh geometry, the workload fits the mesh,
    /// the measurement window is not empty, an AdEle policy's explicit
    /// offline assignment matches the topology and its configuration is in
    /// range ([`AdeleConfig::validate`]), and every
    /// event references an existing elevator / in-mesh hotspot with sane
    /// parameters. Run automatically when a scenario is deserialised.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.elevators.is_compatible_with(&self.mesh) {
            return Err(format!(
                "elevator set does not fit the {}x{}x{} mesh",
                self.mesh.x(),
                self.mesh.y(),
                self.mesh.layers()
            ));
        }
        self.workload.validate(&self.mesh)?;
        if self.measure == 0 {
            return Err("measure must be at least 1 cycle".into());
        }
        if let Some((config, assignment)) = self.selector.tuned() {
            if let Some(assignment) = assignment {
                assignment
                    .check_compatible(&self.mesh, &self.elevators)
                    .map_err(|e| format!("offline assignment: {e}"))?;
            }
            config
                .validate()
                .map_err(|e| format!("AdEle config: {e}"))?;
        }
        for event in &self.events {
            event.validate(&self.mesh, &self.elevators)?;
        }
        if let Some(trace) = &self.trace {
            if trace.period == 0 {
                return Err("trace period must be at least 1 cycle".into());
            }
        }
        Ok(())
    }

    /// The simulator configuration this scenario describes.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        let mut config = SimConfig::new(self.mesh, self.elevators.clone())
            .with_phases(self.warmup, self.measure, self.drain_max)
            .with_seed(self.seed);
        if let Some(watchdog) = self.watchdog {
            config = config.with_watchdog(watchdog);
        }
        config
    }

    /// Instantiates the simulator: workload and selector built from
    /// derived seeds, events handed to the simulator's schedule.
    #[must_use]
    pub fn build_simulator(&self) -> Simulator {
        let traffic = self.workload.build(&self.mesh, derive_seed(self.seed, 11));
        let selector = self
            .selector
            .build(&self.mesh, &self.elevators, derive_seed(self.seed, 13));
        let mut sim = Simulator::from_scheduled(self.sim_config(), traffic, selector);
        for event in &self.events {
            sim.schedule(event.clone());
        }
        sim
    }

    /// Runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (deadlock watchdog) from the run as a
    /// structured value — supervised pools record it per point; trusted
    /// fast paths `expect` it with the scenario's name for context.
    pub fn run(&self) -> Result<ScenarioResult, SimError> {
        Ok(ScenarioResult {
            name: self.name.clone(),
            summary: self.build_simulator().run()?,
        })
    }
}

impl Deserialize for Scenario {
    /// Field-wise deserialisation followed by [`Scenario::validate`]:
    /// cross-field inconsistencies in spec files are parse errors.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let scenario = Self {
            name: serde::field(value, "name")?,
            mesh: serde::field(value, "mesh")?,
            elevators: serde::field(value, "elevators")?,
            workload: serde::field(value, "workload")?,
            selector: serde::field(value, "selector")?,
            warmup: serde::field(value, "warmup")?,
            measure: serde::field(value, "measure")?,
            drain_max: serde::field(value, "drain_max")?,
            seed: serde::field(value, "seed")?,
            events: serde::field(value, "events")?,
            // Grew after the spec format shipped: absent means 1 (a
            // malformed value still errors — see `optional_field`).
            shards: serde::optional_field(value, "shards")?.unwrap_or(1),
            // Also post-format: absent means no flight recorder.
            trace: serde::optional_field(value, "trace")?,
            // Absent means the simulator's default threshold.
            watchdog: serde::optional_field(value, "watchdog")?,
        };
        scenario
            .validate()
            .map_err(|e| serde::DeError(format!("invalid scenario: {e}")))?;
        Ok(scenario)
    }
}

/// The outcome of one scenario run.
///
/// Round-trips through JSON (the completion ledger restores results from
/// disk on `--resume`, byte-identically — the vendored JSON float
/// representation is exact for round-trips).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario's name.
    pub name: String,
    /// The run summary.
    pub summary: RunSummary,
}

/// Serialises a batch of results as pretty JSON (the experiment-log dump
/// format; `RunSummary` carries the per-pillar energy telemetry).
///
/// # Panics
///
/// Never panics: the vendored JSON writer is infallible for value trees.
#[must_use]
pub fn results_to_json(results: &[ScenarioResult]) -> String {
    serde_json::to_string_pretty(results).expect("JSON encoding is infallible")
}

/// [`results_to_json`] wrapped in a provenance envelope: an object with a
/// `meta` block (whatever the harness passes — typically its
/// `bench_meta()` value) and the `results` array. With `meta == None`
/// this falls back to the bare array format for byte-compatibility.
///
/// # Panics
///
/// Never panics: the vendored JSON writer is infallible for value trees.
#[must_use]
pub fn results_to_json_with_meta(results: &[ScenarioResult], meta: Option<serde::Value>) -> String {
    let Some(meta) = meta else {
        return results_to_json(results);
    };
    let envelope = serde::Value::Object(vec![
        ("meta".to_string(), meta),
        ("results".to_string(), results.to_value()),
    ]);
    serde_json::to_string_pretty(&envelope).expect("JSON encoding is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::ElevatorId;

    fn tiny() -> Scenario {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        Scenario::new("tiny", mesh, elevators)
            .with_phases(200, 800, 4_000)
            .with_workload(WorkloadKind::Uniform { rate: 0.004 })
            .with_seed(7)
    }

    #[test]
    fn scenario_runs_and_is_deterministic() {
        let scenario = tiny();
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.name, "tiny");
        assert!(a.summary.delivered_packets > 0);
        assert!(a.summary.completed);
    }

    #[test]
    fn every_workload_spec_builds_and_delivers() {
        let specs = [
            WorkloadKind::Uniform { rate: 0.004 },
            WorkloadKind::Shuffle { rate: 0.004 },
            WorkloadKind::Hotspot {
                rate: 0.004,
                hotspots: vec![Coord::new(1, 1, 1)],
                fraction: 0.4,
            },
            WorkloadKind::App {
                app: AppKind::Fft,
                rate: 0.004,
            },
        ];
        let mesh = tiny().mesh;
        for kind in specs {
            // Both streams draw a synthetic kind from the same parts, so
            // they agree on what is offered; an app is polled on both.
            let (v1, v2) = (WorkloadSpec::v1(kind.clone()), WorkloadSpec::v2(kind));
            let (a, b) = (v1.build(&mesh, 3), v2.build(&mesh, 3));
            assert_eq!(a.name(), b.name(), "{v1:?}");
            assert_eq!(a.mean_rate(), b.mean_rate(), "{v1:?}");
            let synthetic = v2.kind.parts(&mesh).is_some();
            assert_eq!(
                b.horizon() > 1,
                synthetic,
                "only synthetic kinds batch: {v2:?}"
            );
            for spec in [v1, v2] {
                let result = tiny().with_workload(spec.clone()).run().unwrap();
                assert!(
                    result.summary.delivered_packets > 0,
                    "{spec:?} must deliver packets"
                );
            }
        }
    }

    #[test]
    fn every_selector_spec_builds() {
        for (spec, name) in [
            (SelectorSpec::ElevatorFirst, "ElevFirst"),
            (SelectorSpec::Cda, "CDA"),
            (SelectorSpec::adele(), "AdEle"),
            (
                SelectorSpec::Adele {
                    rr_only: true,
                    measured_energy: false,
                    assignment: None,
                },
                "AdEle-RR",
            ),
        ] {
            let scenario = tiny().with_selector(spec);
            let result = scenario.run().unwrap();
            assert_eq!(result.summary.policy, name);
        }
    }

    #[test]
    fn adele_shorthand_runs_as_its_tuned_preset() {
        let full = SubsetAssignment::full(&tiny().mesh, &tiny().elevators);
        for (rr_only, measured_energy, preset) in [
            (false, false, AdeleConfig::paper_default()),
            (true, false, AdeleConfig::rr_only()),
            (false, true, AdeleConfig::measured_energy()),
        ] {
            let shorthand = SelectorSpec::Adele {
                rr_only,
                measured_energy,
                assignment: Some(full.clone()),
            };
            let tuned = SelectorSpec::AdeleTuned {
                config: preset,
                assignment: Some(full.clone()),
            };
            let run = |selector| tiny().with_selector(selector).run().unwrap().summary;
            assert_eq!(run(shorthand), run(tuned), "{preset:?}");
        }
    }

    #[test]
    fn injection_burst_event_raises_offered_load() {
        let base = tiny().run().unwrap();
        let burst = tiny()
            .with_event(Event::InjectionBurst {
                cycle: 0,
                factor: 3.0,
            })
            .run()
            .unwrap();
        assert!(
            burst.summary.injected_packets > base.summary.injected_packets * 2,
            "3× burst must roughly triple injections ({} vs {})",
            burst.summary.injected_packets,
            base.summary.injected_packets
        );
    }

    #[test]
    fn hotspot_shift_event_moves_load() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let hot = Coord::new(3, 3, 1);
        let shifted = tiny()
            .with_event(Event::HotspotShift {
                cycle: 0,
                hotspots: vec![hot],
                fraction: 0.9,
            })
            .run()
            .unwrap();
        let base = tiny().run().unwrap();
        let hot_id = mesh.node_id(hot).unwrap();
        assert!(
            shifted.summary.router_flits[hot_id.index()]
                > base.summary.router_flits[hot_id.index()],
            "the shifted hotspot router must see more flits"
        );
    }

    #[test]
    fn elevator_fail_event_reaches_the_selector() {
        let failed = tiny()
            .with_selector(SelectorSpec::adele())
            .with_event(Event::ElevatorFail {
                cycle: 0,
                elevator: ElevatorId(0),
            })
            .run()
            .unwrap();
        assert_eq!(failed.summary.elevator_packets[0], 0);
        assert!(failed.summary.elevator_packets[1] > 0);
    }
}
