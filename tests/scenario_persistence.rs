//! Scenario persistence: experiment specs serialise to JSON and parse
//! back losslessly (the first step of keeping experiment suites in
//! checked-in spec files), and a parsed scenario runs **bit-identically**
//! to the original.

use adele::offline::SubsetAssignment;
use adele::AdeleConfig;
use noc_exp::{
    results_to_json, spec_hash, Event, Scenario, SelectorSpec, StreamVersion, WorkloadKind,
    WorkloadSpec,
};
use noc_topology::{Coord, ElevatorId, ElevatorSet, Mesh3d};
use noc_traffic::apps::AppKind;

fn topology() -> (Mesh3d, ElevatorSet) {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    (mesh, elevators)
}

/// A scenario exercising every corner of the spec surface: a hotspot
/// workload with two hotspots, an explicit offline assignment, and one
/// event of every kind.
fn kitchen_sink() -> Scenario {
    let (mesh, elevators) = topology();
    let assignment = SubsetAssignment::nearest(&mesh, &elevators);
    Scenario::new("kitchen-sink", mesh, elevators)
        .with_phases(150, 600, 3_000)
        .with_seed(99)
        .with_workload(WorkloadKind::Hotspot {
            rate: 0.004,
            hotspots: vec![Coord::new(3, 3, 1), Coord::new(0, 0, 0)],
            fraction: 0.4,
        })
        .with_selector(SelectorSpec::Adele {
            rr_only: false,
            measured_energy: false,
            assignment: Some(assignment),
        })
        .with_event(Event::ElevatorFail {
            cycle: 300,
            elevator: ElevatorId(1),
        })
        .with_event(Event::ElevatorRecover {
            cycle: 500,
            elevator: ElevatorId(1),
        })
        .with_event(Event::InjectionBurst {
            cycle: 400,
            factor: 2.0,
        })
        .with_event(Event::HotspotShift {
            cycle: 450,
            hotspots: vec![Coord::new(1, 1, 0)],
            fraction: 0.7,
        })
}

/// The kitchen sink as a figure scenario would write it: an application
/// model under AdEle with an explicit configuration.
fn tuned_app() -> Scenario {
    let (mesh, elevators) = topology();
    let config = AdeleConfig {
        exploration: 0.2,
        ..AdeleConfig::rr_only()
    };
    kitchen_sink()
        .with_workload(WorkloadKind::App {
            app: AppKind::Radix,
            rate: 0.004,
        })
        .with_selector(SelectorSpec::AdeleTuned {
            config,
            assignment: Some(SubsetAssignment::nearest(&mesh, &elevators)),
        })
}

#[test]
fn scenario_json_round_trip_is_lossless() {
    for original in [kitchen_sink(), tuned_app()] {
        let json = serde_json::to_string_pretty(&original).unwrap();
        let parsed: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, original);
        // The compact form round-trips too.
        let compact = serde_json::to_string(&original).unwrap();
        assert_eq!(
            serde_json::from_str::<Scenario>(&compact).unwrap(),
            original
        );
    }
}

#[test]
fn parsed_scenario_runs_bit_identically() {
    for original in [kitchen_sink(), tuned_app()] {
        let json = serde_json::to_string(&original).unwrap();
        let parsed: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.run().unwrap(), original.run().unwrap());
    }
}

#[test]
fn every_workload_and_selector_spec_round_trips() {
    let workloads = [
        WorkloadKind::Uniform { rate: 0.003 },
        WorkloadKind::Shuffle { rate: 0.004 },
        WorkloadKind::Hotspot {
            rate: 0.002,
            hotspots: vec![Coord::new(2, 2, 1)],
            fraction: 0.25,
        },
        WorkloadKind::App {
            app: AppKind::Canneal,
            rate: 0.003,
        },
    ];
    for kind in workloads {
        // Both streams round-trip; a bare kind parses as the default v1.
        for spec in [WorkloadSpec::v1(kind.clone()), WorkloadSpec::v2(kind)] {
            let json = serde_json::to_string(&spec).unwrap();
            assert_eq!(serde_json::from_str::<WorkloadSpec>(&json).unwrap(), spec);
            if spec.stream == StreamVersion::V1 {
                assert!(
                    !json.contains("stream"),
                    "v1 keeps the pre-versioning format: {json}"
                );
            } else {
                assert!(json.contains("\"stream\":\"v2\""), "{json}");
            }
        }
    }
    let selectors = [
        SelectorSpec::ElevatorFirst,
        SelectorSpec::Cda,
        SelectorSpec::adele(),
        SelectorSpec::adele_measured_energy(),
        SelectorSpec::Adele {
            rr_only: true,
            measured_energy: false,
            assignment: None,
        },
        SelectorSpec::AdeleTuned {
            config: AdeleConfig::measured_energy(),
            assignment: None,
        },
    ];
    for spec in selectors {
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<SelectorSpec>(&json).unwrap(), spec);
    }
    // Unit variants use the externally tagged string form.
    assert_eq!(
        serde_json::to_string(&SelectorSpec::Cda).unwrap(),
        "\"Cda\""
    );
}

/// Cross-field inconsistencies — pieces that parse fine in isolation but
/// disagree with each other — are parse errors, not deep-run panics.
#[test]
fn cross_field_inconsistencies_fail_at_parse_time() {
    let base = kitchen_sink();
    let json = serde_json::to_string(&base).unwrap();

    // Elevators built for a different (wider) mesh.
    let foreign_elevators = json.replace(
        "\"mesh_x\":4,\"nodes_per_layer\":16",
        "\"mesh_x\":8,\"nodes_per_layer\":64",
    );
    assert_ne!(foreign_elevators, json, "replacement must hit");
    let err = serde_json::from_str::<Scenario>(&foreign_elevators).unwrap_err();
    assert!(err.to_string().contains("elevator set"), "{err}");

    // An event naming an elevator the set does not have.
    let bad_event = json.replace(
        "{\"ElevatorFail\":{\"cycle\":300,\"elevator\":1}}",
        "{\"ElevatorFail\":{\"cycle\":300,\"elevator\":7}}",
    );
    assert_ne!(bad_event, json, "replacement must hit");
    let err = serde_json::from_str::<Scenario>(&bad_event).unwrap_err();
    assert!(err.to_string().contains("elevator"), "{err}");

    // An assignment sized for a different mesh.
    let (mesh, elevators) = topology();
    let mut wrong = Scenario::new("wrong", mesh, elevators);
    wrong.selector = SelectorSpec::Adele {
        rr_only: false,
        measured_energy: false,
        assignment: Some(SubsetAssignment::from_masks(vec![1; 5], 2).unwrap()),
    };
    let err =
        serde_json::from_str::<Scenario>(&serde_json::to_string(&wrong).unwrap()).unwrap_err();
    assert!(err.to_string().contains("assignment"), "{err}");

    // An AdEle tuning out of range, and an app rate that is no probability.
    let tuned = serde_json::to_string(&tuned_app()).unwrap();
    for (bad, named) in [
        (
            tuned.replace("\"ewma_alpha\":0.2", "\"ewma_alpha\":1.5"),
            "ewma_alpha",
        ),
        (tuned.replace("\"rate\":0.004", "\"rate\":2.0"), "app rate"),
    ] {
        assert_ne!(bad, tuned, "replacement must hit");
        let err = serde_json::from_str::<Scenario>(&bad).unwrap_err();
        assert!(err.to_string().contains(named), "{err}");
    }

    // And the validator is callable directly on constructed scenarios.
    assert!(base.validate().is_ok());
    assert!(wrong.validate().is_err());
}

/// The `shards` field grew after the spec format shipped: pre-existing
/// spec files (no `shards` key) must keep parsing — as 1 — while a
/// malformed value still errors, the field round-trips, and a scenario
/// with another value runs bit-identically to its `"shards": 1` twin.
#[test]
fn shards_field_defaults_round_trips_and_never_changes_results() {
    let original = kitchen_sink();
    let json = serde_json::to_string(&original).unwrap();
    assert!(json.contains("\"shards\":1"), "{json}");

    // A pre-shards document: strip the field entirely.
    let legacy = json.replace(",\"shards\":1", "");
    assert_ne!(legacy, json, "replacement must hit");
    let parsed: Scenario = serde_json::from_str(&legacy).unwrap();
    assert_eq!(parsed.shards, 1, "absent field means 1");
    assert_eq!(parsed, original);

    // Present but malformed is an error, not a silent default.
    let bad = json.replace("\"shards\":1", "\"shards\":\"many\"");
    let err = serde_json::from_str::<Scenario>(&bad).unwrap_err();
    assert!(err.to_string().contains("shards"), "{err}");

    // A non-default value round-trips and cannot perturb results.
    let mut other = original.clone();
    other.shards = 4;
    let round: Scenario = serde_json::from_str(&serde_json::to_string(&other).unwrap()).unwrap();
    assert_eq!(round, other);
    assert_eq!(
        other.run().unwrap().summary,
        original.run().unwrap().summary,
        "the shards field is ignored"
    );
}

/// The simulated fabric is one router range, and a spec's `shards` is an
/// accepted, validated and ignored compatibility field: any non-negative
/// value parses, writes back byte for byte (so its `spec_hash` holds), and
/// runs exactly like `"shards": 1`; a negative or non-numeric value is a
/// parse error naming the field.
#[test]
fn ignored_shards_values_parse_round_trip_and_change_nothing() {
    let (mesh, elevators) = topology();
    let base = Scenario::new("ignored-shards", mesh, elevators)
        .with_phases(200, 800, 4_000)
        .with_workload(WorkloadKind::Uniform { rate: 0.004 })
        .with_selector(SelectorSpec::Cda)
        .with_seed(9);
    let json = serde_json::to_string(&base).unwrap();
    let reference = base.run().unwrap().summary;
    for shards in ["0", "8", "10000"] {
        let text = json.replace("\"shards\":1", &format!("\"shards\":{shards}"));
        assert_ne!(text, json, "replacement must hit");
        let parsed: Scenario = serde_json::from_str(&text).unwrap();
        let written = serde_json::to_string(&parsed).unwrap();
        assert_eq!(written, text, "shards {shards}");
        let reparsed: Scenario = serde_json::from_str(&written).unwrap();
        assert_eq!(spec_hash(&reparsed), spec_hash(&parsed));
        assert_ne!(spec_hash(&parsed), spec_hash(&base), "the field is hashed");
        assert_eq!(parsed.run().unwrap().summary, reference, "shards {shards}");
    }
    for bad in ["-1", "\"8\""] {
        let text = json.replace("\"shards\":1", &format!("\"shards\":{bad}"));
        let err = serde_json::from_str::<Scenario>(&text).unwrap_err();
        assert!(err.to_string().contains("shards"), "{bad}: {err}");
    }
}

#[test]
fn measured_energy_selector_enables_the_feedback_period() {
    let (mesh, elevators) = topology();
    let period = |spec: SelectorSpec| spec.build(&mesh, &elevators, 1).pillar_energy_period();
    for spec in [
        SelectorSpec::ElevatorFirst,
        SelectorSpec::Cda,
        SelectorSpec::adele(),
    ] {
        assert_eq!(
            period(spec),
            0,
            "default policies pay nothing for telemetry pushes"
        );
    }
    let tuned = SelectorSpec::AdeleTuned {
        config: AdeleConfig::measured_energy(),
        assignment: None,
    };
    for spec in [SelectorSpec::adele_measured_energy(), tuned] {
        assert_eq!(
            period(spec),
            256,
            "the measured-energy selector asks for the push itself"
        );
    }
}

#[test]
fn malformed_specs_are_rejected_with_errors() {
    // Unknown variant tag.
    assert!(serde_json::from_str::<WorkloadSpec>(r#"{"Gaussian": {"rate": 0.1}}"#).is_err());
    assert!(serde_json::from_str::<SelectorSpec>("\"Oracle\"").is_err());
    // Missing field inside a variant body.
    assert!(serde_json::from_str::<WorkloadSpec>(r#"{"Uniform": {}}"#).is_err());
    // A bare string is no workload; the error must not call a real kind
    // unknown.
    let err = serde_json::from_str::<WorkloadSpec>("\"Uniform\"").unwrap_err();
    assert!(err.to_string().contains("a workload object"), "{err}");
    assert!(!err.to_string().contains("unknown"), "{err}");
    // Domain validation still applies through the spec boundary.
    let json = serde_json::to_string(&kitchen_sink()).unwrap();
    let bad_fraction = json.replace("\"fraction\":0.4", "\"fraction\":1.5");
    assert_ne!(bad_fraction, json, "replacement must hit");
    let err = serde_json::from_str::<Scenario>(&bad_fraction).unwrap_err();
    assert!(err.to_string().contains("hotspot fraction"), "{err}");
}

#[test]
fn results_dump_carries_pillar_telemetry() {
    let (mesh, elevators) = topology();
    let scenario = Scenario::new("dump", mesh, elevators)
        .with_phases(100, 400, 2_000)
        .with_workload(WorkloadKind::Uniform { rate: 0.004 })
        .with_seed(5);
    let results = vec![scenario.run().unwrap()];
    let json = results_to_json(&results);
    assert!(json.contains("\"name\": \"dump\""));
    assert!(json.contains("\"pillar_energy_nj\""));
    assert!(json.contains("\"pillar_tsv_flits\""));
    assert!(json.contains("\"energy_per_flit_nj\""));
    // The dump is valid JSON for the parser half of the codec.
    let value: serde::Value = serde_json::from_str(&json).unwrap();
    let serde::Value::Array(items) = value else {
        panic!("dump must be a JSON array");
    };
    assert_eq!(items.len(), 1);
}

/// The checked-in `specs/` suite (step 2 of the scenario-spec roadmap
/// item): every file parses and cross-validates, the suite loads in
/// filename order, each scenario is named after its file, and one spec of
/// each family is present.
#[test]
fn checked_in_spec_suite_loads_and_validates() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let suite = noc_exp::load_dir(&dir).expect("checked-in specs must parse");
    let names: Vec<&str> = suite.iter().map(|(stem, _)| stem.as_str()).collect();
    assert_eq!(
        names,
        [
            "baseline",
            "baseline_v2",
            "elevator_fail",
            "hotspot_shift",
            "measured_energy"
        ],
        "checked-in suite drifted; specs/*.json are their own source, edit them by hand"
    );
    for (stem, scenario) in &suite {
        assert_eq!(&scenario.name, stem, "scenario name must match its file");
        scenario.validate().expect("parsed specs are valid");
    }
    // The v2 spec really selects the batched stream (and the baseline
    // stays on the default v1); the fault spec really carries mid-run
    // events; the telemetry spec really opts into measured energy.
    assert_eq!(suite[0].1.workload.stream, StreamVersion::V1);
    assert_eq!(suite[1].1.workload.stream, StreamVersion::V2);
    assert_eq!(
        suite[0].1.workload.kind, suite[1].1.workload.kind,
        "the v2 baseline offers the same load as the v1 baseline"
    );
    assert_eq!(suite[2].1.events.len(), 2);
    assert!(matches!(
        suite[4].1.selector,
        SelectorSpec::Adele {
            measured_energy: true,
            ..
        }
    ));
}
