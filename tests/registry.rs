//! Integration tests for the algorithm registry: the names are stable
//! API, every algorithm module is registered, every parameter document
//! survives a JSON round trip, and lookups fail helpfully.

use optimal_gossip::prelude::*;
use std::collections::BTreeSet;

/// The registry's names are unique and pinned — experiment CSVs, BENCH
/// records and the golden table all key on them.
#[test]
fn names_are_unique_and_stable() {
    let names: Vec<&str> = registry::all().iter().map(|a| a.name()).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate names: {names:?}");
    assert_eq!(
        names,
        [
            "Cluster2",
            "Cluster1",
            "AvinElsasser",
            "Karp",
            "PushPull",
            "Push",
            "Pull",
            "Cluster3",
            "ClusterPushPull",
            "Tree",
            "NameDropper",
        ],
        "registry names/order are stable API"
    );
}

/// Every algorithm module exported from `gossip_core`'s and
/// `gossip_baselines`'s `lib.rs` module lists has a registry entry, under
/// a name that normalizes to the module name.
#[test]
fn every_algorithm_module_is_registered() {
    // The algorithm modules of the two crates' `lib.rs` files (the
    // non-algorithm modules — config, report, primitives, common, … —
    // have no `run` entry point to register).
    let modules = [
        // gossip_core
        "cluster1",
        "cluster2",
        "cluster3",
        "cluster_push_pull",
        // gossip_baselines
        "avin_elsasser",
        "karp",
        "name_dropper",
        "pull",
        "push",
        "push_pull",
        "tree",
    ];
    assert_eq!(
        modules.len(),
        registry::all().len(),
        "module list and registry disagree on the algorithm count"
    );
    for module in modules {
        let algo = registry::by_name(module)
            .unwrap_or_else(|e| panic!("module {module} has no registry entry: {e}"));
        // by_name is separator-insensitive, so the module name itself is
        // a valid CLI spelling of the algorithm.
        assert!(!algo.about().is_empty(), "{module} has no description");
    }
}

/// Every algorithm's parameter document survives `render -> parse`, and
/// feeding the defaults back as overrides changes nothing about the run.
#[test]
fn every_config_round_trips_through_json() {
    let scenario = Scenario::broadcast(128).seed(3);
    for algo in registry::all() {
        let params = algo.default_params();
        let doc = params.render();
        let reparsed = Value::parse(&doc).unwrap_or_else(|e| {
            panic!(
                "{}: default params do not re-parse: {e}\n{doc}",
                algo.name()
            )
        });
        assert_eq!(
            reparsed,
            params,
            "{}: JSON round trip lost data",
            algo.name()
        );
        assert_eq!(
            algo.run_with_params(&scenario, &reparsed).unwrap(),
            algo.run(&scenario),
            "{}: defaults-as-overrides changed the run",
            algo.name()
        );
    }
}

/// Unknown names error out listing every valid name; unknown parameter
/// keys error out naming the valid keys.
#[test]
fn unknown_lookups_are_helpful() {
    let err = registry::by_name("raft").unwrap_err();
    let msg = err.to_string();
    for algo in registry::all() {
        assert!(msg.contains(algo.name()), "{msg:?} missing {}", algo.name());
    }

    let scenario = Scenario::broadcast(64).seed(1);
    for algo in registry::all() {
        let err = algo
            .run_with_params(&scenario, &Value::parse(r#"{"warp_factor": 9}"#).unwrap())
            .expect_err("unknown key must be rejected");
        assert!(
            err.to_string().contains("warp_factor"),
            "{}: error does not name the bad key: {err}",
            algo.name()
        );
        // A non-object override document (e.g. double-encoded JSON) must
        // error, not silently run with defaults.
        let err = algo
            .run_with_params(&scenario, &Value::Str(r#"{"delta": 4}"#.into()))
            .expect_err("non-object overrides must be rejected");
        assert!(
            err.to_string().contains("JSON object"),
            "{}: {err}",
            algo.name()
        );
    }
}

/// The harness entry point fans an algorithm's trials out over the
/// parallel runner with the same seed derivation the binaries use.
#[test]
fn run_algorithm_trials_is_deterministic_and_seed_ordered() {
    let algo = registry::by_name("push").unwrap();
    let scenario = Scenario::broadcast(256).seed(0xE1);
    let a = run_algorithm_trials(algo, &scenario, 5);
    let b = run_algorithm_trials(algo, &scenario, 5);
    assert_eq!(a, b, "same scenario, same reports");
    assert_eq!(a.len(), 5);
    assert!(a.iter().all(|r| r.success));
    // Trials are genuinely independently seeded, not clones.
    assert!(
        a.iter().any(|r| r.messages != a[0].messages),
        "all trials identical — seeds not varied?"
    );
}

/// The acceptance loop of the registry: every algorithm runs the default
/// broadcast scenario through the trait with a successful report.
#[test]
fn registry_runs_default_broadcast_scenario() {
    let scenario = Scenario::broadcast(512).seed(9);
    for algo in registry::all() {
        let r = algo.run(&scenario);
        assert!(
            r.success,
            "{} failed: {}/{}",
            algo.name(),
            r.informed,
            r.alive
        );
        assert_eq!(r.n, 512);
    }
}

/// Every rendered parameter document, pinned byte for byte: the key
/// order, the nesting and the string form of 64-bit values above 2^53.
/// The strings were printed by the hand-written renderers that predate
/// the knob tables, so a table that moves a key, renames one or changes
/// a value's encoding fails here.
#[test]
fn rendered_parameter_documents_are_pinned() {
    const C2: &str = r#"{"c_sample":8,"c_cap":8,"grow_slack":4,"square_safety":4,"bounded_push_stall":1.1,"bounded_push_slack":4,"pull_slack":4,"assumed_n":null}"#;
    let cluster3 = format!(r#"{{"c_headroom":5,"merge_boost":10,"c2":{C2}}}"#);
    let expected = [
        ("Cluster2", C2.to_string()),
        (
            "Cluster1",
            r#"{"c_sample":8,"c_min":1,"grow_slack":3,"square_safety":4,"pull_slack":4}"#.into(),
        ),
        ("AvinElsasser", "{}".into()),
        ("Karp", "{}".into()),
        ("PushPull", "{}".into()),
        ("Push", "{}".into()),
        ("Pull", "{}".into()),
        (
            "Cluster3",
            format!(r#"{{"delta":null,"c_headroom":5,"merge_boost":10,"c2":{C2}}}"#),
        ),
        (
            "ClusterPushPull",
            format!(r#"{{"delta":null,"loop_slack":3,"cluster3":{cluster3}}}"#),
        ),
        ("Tree", r#"{"delta":null}"#.into()),
        ("NameDropper", r#"{"topology":"ring"}"#.into()),
    ];
    let rendered: Vec<(&str, String)> = registry::all()
        .iter()
        .map(|a| (a.name(), a.default_params().render()))
        .collect();
    assert_eq!(rendered, expected);

    assert_eq!(
        CommonConfig::default().params().render(),
        concat!(
            r#"{"seed":12648430,"rumor_bits":256,"source":0,"extra_sources":[],"failures":[],"#,
            r#""message_loss":0,"churn":{"crash_rate":0,"batch_size":1,"recovery_rate":0,"#,
            r#""burst_enter":0,"burst_exit":0,"burst_loss":0,"start_round":0,"stop_round":null,"#,
            r#""protected":[],"max_crashed_frac":0.5},"topology":{"kind":"complete"},"#,
            r#""addressing":"overlay","traffic":{"rumors":0,"arrival_rate":1,"bandwidth":0,"#,
            r#""start_round":0},"engine":{"mode":"sync"}}"#,
        )
    );

    let full = CommonConfig {
        seed: u64::MAX - 12345,
        rumor_bits: 512,
        source: 3,
        extra_sources: vec![5, 9],
        failures: FailurePlan::explicit(vec![NodeIdx(8), NodeIdx(2)]),
        message_loss: 0.125,
        churn: ChurnConfig {
            crash_rate: 0.25,
            batch_size: 4,
            recovery_rate: 0.1,
            burst_enter: 0.05,
            burst_exit: 0.3,
            burst_loss: 0.6,
            start_round: 2,
            stop_round: Some(40),
            protected: vec![0, 1],
            max_crashed_frac: 0.4,
        },
        topology: Topology::WattsStrogatz(6, 0.25),
        addressing: DirectAddressing::Restricted,
        traffic: TrafficConfig {
            rumors: 32,
            arrival_rate: 2.5,
            bandwidth: 3,
            start_round: 4,
        },
        engine: Engine::Async(AsyncConfig {
            rate: 2.0,
            latency: Latency::Uniform(0.1, 1.5),
        }),
    };
    assert_eq!(
        full.params().render(),
        concat!(
            r#"{"seed":"18446744073709539270","rumor_bits":512,"source":3,"extra_sources":[5,9],"#,
            r#""failures":[2,8],"message_loss":0.125,"churn":{"crash_rate":0.25,"batch_size":4,"#,
            r#""recovery_rate":0.1,"burst_enter":0.05,"burst_exit":0.3,"burst_loss":0.6,"#,
            r#""start_round":2,"stop_round":40,"protected":[0,1],"max_crashed_frac":0.4},"#,
            r#""topology":{"kind":"watts_strogatz","k":6,"beta":0.25},"addressing":"restricted","#,
            r#""traffic":{"rumors":32,"arrival_rate":2.5,"bandwidth":3,"start_round":4},"#,
            r#""engine":{"mode":"async","rate":2,"latency":{"kind":"uniform","lo":0.1,"hi":1.5}}}"#,
        )
    );
}

/// A `delta` below what a `Δ`-algorithm can run with is a parameter
/// error naming the knob and the minimum, not a panic; the minimum
/// itself runs.
#[test]
fn delta_below_the_minimum_is_an_error() {
    let scenario = Scenario::broadcast(64).seed(4);
    for (name, min) in [("Cluster3", 8), ("ClusterPushPull", 8), ("Tree", 2)] {
        let algo = registry::by_name(name).unwrap();
        let delta = |d: usize| Value::obj([("delta", Value::Num(d as f64))]);
        for below in 0..min {
            let err = algo
                .run_with_params(&scenario, &delta(below))
                .expect_err("delta below the minimum must be rejected");
            assert!(err.0.contains("\"delta\""), "{name}: {err}");
            assert!(err.0.contains(&format!(">= {min}")), "{name}: {err}");
        }
        algo.run_with_params(&scenario, &delta(min))
            .unwrap_or_else(|e| panic!("{name} rejects delta = {min}: {e}"));
    }
}
