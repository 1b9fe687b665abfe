//! Run configuration and the explicit constants behind the paper's `Θ(·)`s.
//!
//! The paper states loop lengths and thresholds asymptotically
//! (`Θ(log log n)` iterations, sampling probability `1/C log n`, …). A
//! running implementation must pick constants; this module is the single
//! place they live, so experiments and ablations can vary them. Defaults
//! were validated across `n ∈ [2^8, 2^20]` (see the integration tests and
//! EXPERIMENTS.md).
//!
//! Every config here travels as a JSON object (see [`crate::params`])
//! through **one knob table per config** (the `knobs!` invocations
//! below): each row names a key once, so the rendered document, the keys
//! an override accepts and the "valid keys" listing of an unknown key
//! all come from the same row list. Applying overrides is all or
//! nothing: a rejected document leaves the config as it was. The
//! kind-tagged enums ([`Topology`], [`Latency`], [`Engine`]) list each
//! variant once with its knobs.

use phonecall::{
    derive_seed, AsyncConfig, ChurnConfig, DirectAddressing, Engine, FailurePlan, Latency, Network,
    NodeIdx, Topology, TrafficConfig,
};
use serde::{Deserialize, Serialize};

use crate::knobs;
use crate::params::{apply, check_knobs, from_value, read_tag, render, Param, ParamError, Value};

/// Parameters shared by every algorithm run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommonConfig {
    /// Seed for all randomness of the run.
    pub seed: u64,
    /// Rumor size `b` in bits. The paper assumes `b = Ω(log n)`; the
    /// default (256) is a typical small payload.
    pub rumor_bits: u64,
    /// Dense index of the node that initially knows the rumor.
    pub source: u32,
    /// Additional initial rumor holders — the paper's broadcast task
    /// allows the rumor to start at "one node (or multiple nodes)".
    pub extra_sources: Vec<u32>,
    /// Nodes the oblivious adversary fails at time 0.
    pub failures: FailurePlan,
    /// Independent per-message loss probability (transient link failures
    /// — the paper's introduction names these among the failures gossip
    /// tolerates; 0.0 is the base model of Section 2).
    pub message_loss: f64,
    /// The dynamic adversary: mid-run crash batches, recoveries and
    /// Gilbert–Elliott burst loss (see `phonecall::churn`). Inert by
    /// default, in which case nothing is scheduled and runs are
    /// bit-identical to pre-churn builds.
    pub churn: ChurnConfig,
    /// The communication topology (see `phonecall::topology`).
    /// [`Topology::Complete`] — the default — installs nothing, keeping
    /// runs bit-identical to pre-topology builds; anything else confines
    /// address-oblivious contacts to graph neighbors.
    pub topology: Topology,
    /// How direct addressing interacts with a restricted topology:
    /// learned-ID calls cross the graph under
    /// [`DirectAddressing::Overlay`] (default) and are confined to edges
    /// under [`DirectAddressing::Restricted`]. Vacuous on the complete
    /// graph.
    pub addressing: DirectAddressing,
    /// The multi-rumor workload (see `phonecall::TrafficConfig`): K
    /// extra rumors arriving at seeded random `(node, round)` pairs that
    /// piggyback on the algorithm's payload messages under a per-node
    /// per-round bandwidth budget. Inert by default, keeping runs
    /// bit-identical to pre-workload builds.
    pub traffic: TrafficConfig,
    /// The execution engine (see `phonecall::events`):
    /// [`Engine::Sync`] — the default — runs lockstep rounds and
    /// installs nothing, keeping runs bit-identical to pre-async
    /// builds; [`Engine::Async`] drives each schedule step from a
    /// deterministic event queue with exponential activation clocks and
    /// sampled message latencies.
    pub engine: Engine,
}

impl Default for CommonConfig {
    fn default() -> Self {
        CommonConfig {
            seed: 0xC0FFEE,
            rumor_bits: 256,
            source: 0,
            extra_sources: Vec::new(),
            failures: FailurePlan::none(),
            message_loss: 0.0,
            churn: ChurnConfig::default(),
            topology: Topology::Complete,
            addressing: DirectAddressing::Overlay,
            traffic: TrafficConfig::default(),
            engine: Engine::Sync,
        }
    }
}

impl CommonConfig {
    /// Same configuration with a different seed (for multi-trial sweeps).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs the scenario's environment on `net`: the time-0 failure
    /// plan, message loss, the dynamic adversary, the contact graph, the
    /// multi-rumor workload and the execution engine. Every algorithm's
    /// network is set up here, so one scenario means one graph, one
    /// adversary history, one rumor stream and one event timeline for
    /// every algorithm. Inert configs, the complete topology and the
    /// sync engine install nothing.
    ///
    /// Stream labels under the scenario seed: 1/2 are the engine's (IDs,
    /// targets), 3 the cluster algorithms' RNG, 4 the churn schedule, 5
    /// the topology, 6 the traffic plan, and 7/8/9 the async engine's
    /// clock/latency/delivery streams, which `set_engine` derives from
    /// the raw seed itself.
    pub fn install<S>(&self, net: &mut Network<S>) {
        net.apply_failures(&self.failures);
        net.set_message_loss(self.message_loss);
        net.set_churn(self.churn.clone(), derive_seed(self.seed, 4));
        net.set_topology(
            self.topology.clone(),
            self.addressing,
            derive_seed(self.seed, 5),
        );
        net.set_traffic(
            self.traffic.clone(),
            self.rumor_bits,
            derive_seed(self.seed, 6),
        );
        net.set_engine(self.engine.clone(), self.seed);
    }
}

/// The `message_loss` knob's range check (the JSON apply and the
/// `Scenario` builder share it).
pub(crate) fn check_loss(p: &f64) -> Result<(), String> {
    if (0.0..=1.0).contains(p) {
        Ok(())
    } else {
        Err(format!(
            "scenario knob \"message_loss\" wants a probability in [0, 1], got {p}"
        ))
    }
}

// The knob tables: one row per key, in render order.
knobs!(
    CommonConfig,
    "scenario",
    [
        seed,
        rumor_bits,
        source,
        extra_sources,
        failures,
        message_loss(check_loss),
        churn,
        topology,
        addressing,
        traffic,
        engine,
    ]
);
knobs!(
    ChurnConfig,
    "churn",
    [
        crash_rate,
        batch_size,
        recovery_rate,
        burst_enter,
        burst_exit,
        burst_loss,
        start_round,
        stop_round,
        protected,
        max_crashed_frac,
    ],
    ChurnConfig::validate
);
knobs!(
    TrafficConfig,
    "traffic",
    [rumors, arrival_rate, bandwidth, start_round],
    TrafficConfig::validate
);
knobs!(
    AsyncConfig,
    "engine",
    [rate, latency],
    AsyncConfig::validate
);
knobs!(
    Cluster1Config,
    "Cluster1",
    [c_sample, c_min, grow_slack, square_safety, pull_slack]
);
knobs!(
    Cluster2Config,
    "Cluster2",
    [
        c_sample,
        c_cap,
        grow_slack,
        square_safety,
        bounded_push_stall,
        bounded_push_slack,
        pull_slack,
        assumed_n,
    ]
);
knobs!(Cluster3Config, "Cluster3", [c_headroom, merge_boost, c2]);
knobs!(PushPullConfig, "ClusterPushPull", [loop_slack, cluster3]);

/// `params` / `apply_params` of this crate's configs, both served by the
/// config's knob table.
macro_rules! params_methods {
    ($($ty:ty),*) => {$(
        impl $ty {
            /// The knobs as a JSON object, one entry per row of this
            /// config's knob table, in table order; nested configs,
            /// kind-tagged enums and arrays nest as JSON values.
            #[must_use]
            pub fn params(&self) -> Value {
                render(self)
            }

            /// Applies a JSON object of overrides, all or nothing (see
            /// [`apply`]).
            ///
            /// # Errors
            ///
            /// Rejects unknown keys (listing the table's keys), wrongly
            /// typed values and out-of-range knobs (naming the offending
            /// one), including inside nested objects; the config is then
            /// left as it was.
            pub fn apply_params(&mut self, overrides: &Value) -> Result<(), ParamError> {
                apply(self, overrides)
            }
        }
    )*};
}

params_methods!(
    CommonConfig,
    Cluster1Config,
    Cluster2Config,
    Cluster3Config,
    PushPullConfig
);

/// Implements [`Param`] for a kind-tagged enum from its variant list: the
/// tag under `$tag_key` names the variant, the variant's fields travel as
/// the named knobs (all required, no other key accepted), and the built
/// value must pass its `validate` before it replaces the old one.
macro_rules! tagged {
    ($ty:ident, $what:literal, $tag_key:literal, [$($tag:literal => $var:ident $(($($knob:ident),*))?),* $(,)?]) => {
        impl Param for $ty {
            fn to_value(&self) -> Value {
                match self {
                    $($ty::$var $(($($knob),*))? => Value::obj([
                        ($tag_key, Value::Str($tag.into())),
                        $($((stringify!($knob), $knob.to_value())),*)?
                    ]),)*
                }
            }

            fn set(&mut self, _key: &str, v: &Value) -> Result<(), ParamError> {
                let built = match read_tag($what, $tag_key, &[$($tag),*], v)? {
                    $($tag => {
                        check_knobs($what, $tag_key, $tag, &[$($(stringify!($knob)),*)?], v)?;
                        $ty::$var $(($(from_value(
                            stringify!($knob),
                            v.get(stringify!($knob)).expect("check_knobs requires every knob"),
                        )?),*))?
                    })*
                    _ => unreachable!("read_tag returns a listed tag"),
                };
                built.validate().map_err(ParamError)?;
                *self = built;
                Ok(())
            }
        }
    };
}

tagged!(Topology, "topology", "kind", [
    "complete" => Complete,
    "ring" => Ring,
    "torus2d" => Torus2D,
    "random_regular" => RandomRegular(degree),
    "erdos_renyi" => ErdosRenyi(p),
    "watts_strogatz" => WattsStrogatz(k, beta),
    "preferential_attachment" => PreferentialAttachment(m),
    "from_adjacency" => FromAdjacency(adjacency),
    "from_file" => FromFile(path),
]);

tagged!(Latency, "latency", "kind", [
    "fixed" => Fixed(value),
    "uniform" => Uniform(lo, hi),
    "exponential" => Exponential(mean),
]);

/// `{"mode": "sync"}`, or `{"mode": "async"}` followed by the
/// [`AsyncConfig`] knobs, whose omitted keys keep their defaults.
impl Param for Engine {
    fn to_value(&self) -> Value {
        match self {
            Engine::Sync => Value::obj([("mode", Value::Str("sync".into()))]),
            Engine::Async(cfg) => render(cfg).with_first("mode", Value::Str("async".into())),
        }
    }

    fn set(&mut self, _key: &str, v: &Value) -> Result<(), ParamError> {
        *self = match read_tag("engine", "mode", &["sync", "async"], v)? {
            "sync" => {
                check_knobs("engine", "mode", "sync", &[], v)?;
                Engine::Sync
            }
            _ => {
                let mut cfg = AsyncConfig::default();
                apply(&mut cfg, &v.without("mode"))?;
                Engine::Async(cfg)
            }
        };
        Ok(())
    }
}

/// The label (`"overlay"` / `"restricted"`).
impl Param for DirectAddressing {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }

    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
        *self = DirectAddressing::parse(&from_value::<String>(key, v)?).map_err(ParamError)?;
        Ok(())
    }
}

/// The failed nodes' dense indices.
impl Param for FailurePlan {
    fn to_value(&self) -> Value {
        Value::Arr(self.failed().iter().map(|i| i.0.to_value()).collect())
    }

    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
        let failed: Vec<u32> = from_value(key, v)?;
        *self = FailurePlan::explicit(failed.into_iter().map(NodeIdx).collect());
        Ok(())
    }
}

/// An [`Engine`] as a JSON object (the `"engine"` knob of
/// [`CommonConfig::params`]): a `"mode"` tag (`"sync"` / `"async"`), and
/// for the async engine the clock rate plus a kind-tagged latency object.
#[must_use]
pub fn engine_params(e: &Engine) -> Value {
    e.to_value()
}

/// Replaces an [`Engine`] from a JSON object (the inverse of
/// [`engine_params`]): the `"mode"` tag selects the engine; `"rate"` and
/// the kind-tagged `"latency"` object tune the async one (omitted knobs
/// keep the async defaults), and the result must pass its validation.
///
/// # Errors
///
/// Rejects a missing or unknown `"mode"`, knobs on the sync engine,
/// wrongly typed values, an unknown latency `"kind"` (listing the valid
/// ones), and out-of-range knobs (naming the offending one); `e` is then
/// left as it was.
pub fn apply_engine_params(e: &mut Engine, overrides: &Value) -> Result<(), ParamError> {
    e.set("engine", overrides)
}

/// Tuning for [`crate::cluster1`] (Algorithm 1).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster1Config {
    /// Shared parameters.
    pub common: CommonConfig,
    /// `C`: initial leaders are sampled with probability `1/(C·log₂ n)`.
    pub c_sample: f64,
    /// `C'`: the initial cluster-size floor is `C'·log₂ n`
    /// (`ClusterDissolve` threshold). The paper requires `C' ≪ C`.
    pub c_min: f64,
    /// Extra rounds added to the computed `GrowInitialClusters` budget.
    pub grow_slack: u32,
    /// Safety divisor in the squaring schedule `s ← s²/safety` (absorbs
    /// collision losses so the schedule never overshoots real sizes).
    pub square_safety: f64,
    /// Extra rounds added to the computed `UnclusteredNodesPull` budget.
    pub pull_slack: u32,
}

impl Default for Cluster1Config {
    fn default() -> Self {
        Cluster1Config {
            common: CommonConfig::default(),
            c_sample: 8.0,
            c_min: 1.0,
            grow_slack: 3,
            square_safety: 4.0,
            pull_slack: 4,
        }
    }
}

/// Tuning for [`crate::cluster2`] (Algorithm 2).
///
/// The paper's exponents (`1/C log⁴ n` sampling, `C' log³ n` caps) only
/// separate scales at astronomically large `n`; at laptop scales
/// (`n ≤ 2^22`) they degenerate (e.g. `√n/log² n < 1`). We keep the
/// *mechanisms* — a `Θ(n/log n)` clustered backbone, growth-stall
/// detection at `2 − 1/log n`, continuous resizing, squaring with a
/// `1/log n` hit-rate penalty, a bounded PUSH before the final PULL — and
/// use one power of `log n` less so every phase is exercised at practical
/// sizes. DESIGN.md §2 documents this substitution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster2Config {
    /// Shared parameters.
    pub common: CommonConfig,
    /// Initial leaders are sampled with probability
    /// `1/(c_sample·log₂² n)`.
    pub c_sample: f64,
    /// Size cap during controlled growth is `c_cap·log₂ n`; together with
    /// `c_sample = c_cap` this makes the clustered backbone plateau at
    /// `≈ n/log₂ n` nodes exactly when the stall rule `2 − 1/log n`
    /// triggers.
    pub c_cap: f64,
    /// Extra rounds for the growth loop beyond the computed budget.
    pub grow_slack: u32,
    /// Safety divisor in the squaring schedule `s ← s²·f/safety`.
    pub square_safety: f64,
    /// Growth-stall threshold of `BoundedClusterPush` (paper: 1.1).
    pub bounded_push_stall: f64,
    /// Extra rounds for `BoundedClusterPush` beyond the computed budget.
    pub bounded_push_slack: u32,
    /// Extra rounds for the final PULL phase.
    pub pull_slack: u32,
    /// The network size the *nodes believe* (guess-test-and-double,
    /// Section 2). `None` means the true `n` is known — the paper's
    /// default assumption. All sampling probabilities and round budgets
    /// are computed from this value when set.
    pub assumed_n: Option<usize>,
}

impl Default for Cluster2Config {
    fn default() -> Self {
        Cluster2Config {
            common: CommonConfig::default(),
            c_sample: 8.0,
            c_cap: 8.0,
            grow_slack: 4,
            square_safety: 4.0,
            bounded_push_stall: 1.1,
            bounded_push_slack: 4,
            pull_slack: 4,
            assumed_n: None,
        }
    }
}

impl Cluster2Config {
    /// The size the protocol's parameters are computed from: the assumed
    /// size when set (guess-test-and-double), else the true size.
    #[must_use]
    pub fn parameter_n(&self, true_n: usize) -> usize {
        self.assumed_n.unwrap_or(true_n).max(2)
    }
}

/// Tuning for [`crate::cluster3`] (Algorithm 4 — `Δ`-clustering).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster3Config {
    /// Shared parameters.
    pub common: CommonConfig,
    /// Underlying Cluster2-style growth/squaring constants.
    pub c2: Cluster2Config,
    /// `C''`: cluster-size head-room below `Δ`. Working sizes are
    /// `Δ/c_headroom`; resizing bounds clusters by `2Δ/C''` and a single
    /// recruit round can at most double that before the next resize, so
    /// `C'' ≥ 5` keeps every transient (`4Δ/C''` plus pull-round joins)
    /// strictly below `Δ`.
    pub c_headroom: f64,
    /// Activation multiplier in `MergeClusters` (paper: 10).
    pub merge_boost: f64,
}

impl Default for Cluster3Config {
    fn default() -> Self {
        Cluster3Config {
            common: CommonConfig::default(),
            c2: Cluster2Config::default(),
            c_headroom: 5.0,
            merge_boost: 10.0,
        }
    }
}

/// Tuning for [`crate::cluster_push_pull`] (Algorithm 3).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PushPullConfig {
    /// Shared parameters.
    pub common: CommonConfig,
    /// The `Δ`-clustering construction parameters.
    pub cluster3: Cluster3Config,
    /// Extra main-loop iterations beyond the computed
    /// `⌈log n / log Δ'⌉` budget.
    pub loop_slack: u32,
}

impl Default for PushPullConfig {
    fn default() -> Self {
        PushPullConfig {
            common: CommonConfig::default(),
            cluster3: Cluster3Config::default(),
            loop_slack: 3,
        }
    }
}

/// `log₂ n`, floored at 1 (the ubiquitous `L` of the budget formulas).
#[must_use]
pub fn log2n(n: usize) -> f64 {
    (n.max(2) as f64).log2().max(1.0)
}

/// `log₂ log₂ n`, floored at 1 (`LL` of the budget formulas).
#[must_use]
pub fn loglog2n(n: usize) -> f64 {
    log2n(n).log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Knobs;

    #[test]
    fn defaults_are_sane() {
        let c1 = Cluster1Config::default();
        assert!(c1.c_min < c1.c_sample, "the paper requires C' << C");
        let c2 = Cluster2Config::default();
        assert!(
            (c2.c_sample - c2.c_cap).abs() < f64::EPSILON,
            "plateau calibration"
        );
        assert!(c2.bounded_push_stall > 1.0);
        let c3 = Cluster3Config::default();
        assert!(
            c3.c_headroom >= 4.0,
            "transient doubling must stay under delta"
        );
    }

    #[test]
    fn log_helpers() {
        assert!((log2n(1024) - 10.0).abs() < 1e-9);
        assert!((loglog2n(1 << 16) - 4.0).abs() < 1e-9);
        assert!((log2n(1) - 1.0).abs() < 1e-9, "floored at 1");
        assert!((loglog2n(2) - 1.0).abs() < 1e-9, "floored at 1");
    }

    #[test]
    fn params_round_trip_through_json() {
        let docs = [
            Cluster1Config::default().params(),
            Cluster2Config::default().params(),
            Cluster3Config::default().params(),
            PushPullConfig::default().params(),
        ];
        for p in docs {
            assert_eq!(Value::parse(&p.render()).unwrap(), p);
        }
    }

    #[test]
    fn apply_own_params_is_identity() {
        let mut c2 = Cluster2Config::default();
        c2.apply_params(&Cluster2Config::default().params())
            .unwrap();
        assert_eq!(c2, Cluster2Config::default());

        let mut pp = PushPullConfig::default();
        pp.apply_params(&PushPullConfig::default().params())
            .unwrap();
        assert_eq!(pp, PushPullConfig::default());
    }

    #[test]
    fn apply_params_overrides_and_rejects() {
        let mut c2 = Cluster2Config::default();
        c2.apply_params(&Value::parse(r#"{"c_sample": 4, "assumed_n": 4096}"#).unwrap())
            .unwrap();
        assert!((c2.c_sample - 4.0).abs() < f64::EPSILON);
        assert_eq!(c2.assumed_n, Some(4096));
        c2.apply_params(&Value::parse(r#"{"assumed_n": null}"#).unwrap())
            .unwrap();
        assert_eq!(c2.assumed_n, None);

        let err = c2
            .apply_params(&Value::parse(r#"{"nope": 1}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("valid keys"), "{err}");
        let err = c2
            .apply_params(&Value::parse(r#"{"grow_slack": 1.5}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("integer"), "{err}");

        // Nested overrides reach the inner config.
        let mut c3 = Cluster3Config::default();
        c3.apply_params(&Value::parse(r#"{"c2": {"pull_slack": 9}}"#).unwrap())
            .unwrap();
        assert_eq!(c3.c2.pull_slack, 9);
    }

    #[test]
    fn common_and_churn_params_round_trip_through_json() {
        let mut common = CommonConfig::default();
        common.seed = 99;
        common.extra_sources = vec![3, 5];
        common.failures = FailurePlan::explicit(vec![NodeIdx(8), NodeIdx(2)]);
        common.message_loss = 0.125;
        common.churn = ChurnConfig {
            crash_rate: 0.25,
            batch_size: 4,
            recovery_rate: 0.1,
            burst_enter: 0.05,
            burst_exit: 0.3,
            burst_loss: 0.6,
            start_round: 2,
            stop_round: Some(40),
            protected: vec![0],
            max_crashed_frac: 0.4,
        };
        let doc = common.params();
        assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
        let mut rebuilt = CommonConfig::default();
        rebuilt.apply_params(&doc).unwrap();
        assert_eq!(rebuilt, common, "apply(params()) is the identity");
    }

    #[test]
    fn full_width_u64_knobs_round_trip_exactly() {
        // JSON numbers are doubles; seeds above 2^53 (e.g. derive_seed
        // outputs) travel as decimal strings so replay stays exact.
        let mut common = CommonConfig::default();
        common.seed = u64::MAX - 12345;
        common.churn.crash_rate = 0.1;
        common.churn.start_round = (1 << 60) + 1;
        common.churn.stop_round = Some(u64::MAX);
        let doc = common.params();
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common, "no f64 rounding of 64-bit knobs");
    }

    #[test]
    fn churn_apply_rejects_bad_keys_and_values() {
        let mut c = ChurnConfig::default();
        let before = c.clone();
        let e = apply(&mut c, &Value::parse(r#"{"crash_rat": 0.5}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("valid keys"), "{e}");
        let e = apply(&mut c, &Value::parse(r#"{"crash_rate": 1.5}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("\"crash_rate\""), "{e}");
        let e = apply(&mut c, &Value::parse(r#"{"batch_size": 0.5}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
        let e = apply(
            &mut c,
            &Value::parse(r#"{"batch_size": 3, "crash_rate": 2.0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("\"crash_rate\""), "{e}");
        assert_eq!(c, before, "failed applies leave the value");
        // stop_round accepts null.
        apply(
            &mut c,
            &Value::parse(r#"{"stop_round": 12, "crash_rate": 0.5}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(c.stop_round, Some(12));
        apply(&mut c, &Value::parse(r#"{"stop_round": null}"#).unwrap()).unwrap();
        assert_eq!(c.stop_round, None);
    }

    #[test]
    fn topology_params_round_trip_every_family() {
        for topo in [
            Topology::Complete,
            Topology::Ring,
            Topology::Torus2D,
            Topology::RandomRegular(8),
            Topology::ErdosRenyi(0.125),
            Topology::WattsStrogatz(6, 0.25),
            Topology::PreferentialAttachment(3),
            Topology::FromAdjacency(vec![vec![1], vec![0, 2], vec![1]]),
            Topology::FromFile("tests/data/pa_2k.txt".to_string()),
        ] {
            let doc = topo.to_value();
            assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
            let mut rebuilt = Topology::Complete;
            rebuilt.set("topology", &doc).unwrap();
            assert_eq!(rebuilt, topo, "apply(params()) is the identity");
        }
    }

    #[test]
    fn topology_apply_rejects_bad_kinds_knobs_and_values() {
        let mut t = Topology::Complete;
        let e = t
            .set("topology", &Value::parse(r#"{"kind": "moebius"}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("valid kinds"), "{e}");
        let e = t
            .set("topology", &Value::parse(r#"{"degree": 4}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("\"kind\""), "{e}");
        let e = t
            .set(
                "topology",
                &Value::parse(r#"{"kind": "ring", "degree": 4}"#).unwrap(),
            )
            .unwrap_err();
        assert!(e.0.contains("does not apply"), "{e}");
        let e = t
            .set(
                "topology",
                &Value::parse(r#"{"kind": "random_regular"}"#).unwrap(),
            )
            .unwrap_err();
        assert!(e.0.contains("needs \"degree\""), "{e}");
        let e = t
            .set(
                "topology",
                &Value::parse(r#"{"kind": "erdos_renyi", "p": 7}"#).unwrap(),
            )
            .unwrap_err();
        assert!(e.0.contains("\"p\""), "{e}");
        let e = t
            .set(
                "topology",
                &Value::parse(r#"{"kind": "from_file"}"#).unwrap(),
            )
            .unwrap_err();
        assert!(e.0.contains("needs \"path\""), "{e}");
        let e = t
            .set(
                "topology",
                &Value::parse(r#"{"kind": "from_file", "path": 7}"#).unwrap(),
            )
            .unwrap_err();
        assert!(e.0.contains("wants a string"), "{e}");
        let e = t
            .set(
                "topology",
                &Value::parse(r#"{"kind": "from_file", "path": ""}"#).unwrap(),
            )
            .unwrap_err();
        assert!(e.0.contains("\"path\""), "{e}");
        assert_eq!(t, Topology::Complete, "failed applies leave the value");
    }

    #[test]
    fn engine_params_round_trip_every_mode_and_latency() {
        for engine in [
            Engine::Sync,
            Engine::Async(AsyncConfig::default()),
            Engine::Async(AsyncConfig {
                rate: 2.0,
                latency: Latency::Fixed(0.25),
            }),
            Engine::Async(AsyncConfig {
                rate: 0.5,
                latency: Latency::Uniform(0.1, 1.5),
            }),
            Engine::Async(AsyncConfig {
                rate: 1.0,
                latency: Latency::Exponential(0.75),
            }),
        ] {
            let doc = engine_params(&engine);
            assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
            let mut rebuilt = Engine::Sync;
            apply_engine_params(&mut rebuilt, &doc).unwrap();
            assert_eq!(rebuilt, engine, "apply(params()) is the identity");
        }
    }

    #[test]
    fn engine_apply_rejects_bad_modes_knobs_and_values() {
        let mut e = Engine::Sync;
        let err =
            apply_engine_params(&mut e, &Value::parse(r#"{"rate": 1.0}"#).unwrap()).unwrap_err();
        assert!(err.0.contains("\"mode\""), "{err}");
        let err = apply_engine_params(&mut e, &Value::parse(r#"{"mode": "turbo"}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("\"sync\" or \"async\""), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "sync", "rate": 1.0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("no knobs"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "clock": 1.0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("valid keys"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "rate": -1.0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("rate"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "latency": {"kind": "gamma"}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("valid kinds"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "latency": {"kind": "fixed"}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("needs \"value\""), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(r#"{"mode": "async", "latency": {"kind": "uniform", "lo": 0.5}}"#)
                .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("\"lo\" and \"hi\""), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(
                r#"{"mode": "async", "latency": {"kind": "fixed", "value": 0.5, "mean": 1.0}}"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("does not take knob"), "{err}");
        let err = apply_engine_params(
            &mut e,
            &Value::parse(
                r#"{"mode": "async", "latency": {"kind": "uniform", "lo": 2.0, "hi": 1.0}}"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("lo"), "{err}");
        assert_eq!(e, Engine::Sync, "failed applies leave the value");

        // Omitted knobs keep the async defaults.
        apply_engine_params(&mut e, &Value::parse(r#"{"mode": "async"}"#).unwrap()).unwrap();
        assert_eq!(e, Engine::Async(AsyncConfig::default()));
    }

    #[test]
    fn common_params_round_trip_engine() {
        let mut common = CommonConfig::default();
        common.engine = Engine::Async(AsyncConfig {
            rate: 2.0,
            latency: Latency::Uniform(0.2, 0.9),
        });
        let doc = common.params();
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common, "apply(params()) is the identity");
        assert!(
            CommonConfig::TABLE.iter().any(|k| k.key == "engine"),
            "the engine must be addressable as a named override"
        );
    }

    #[test]
    fn common_params_round_trip_topology_and_addressing() {
        let mut common = CommonConfig::default();
        common.topology = Topology::WattsStrogatz(4, 0.5);
        common.addressing = DirectAddressing::Restricted;
        let doc = common.params();
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common);

        let e = rebuilt
            .apply_params(&Value::parse(r#"{"addressing": "tunnel"}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("overlay"), "{e}");
    }

    #[test]
    fn traffic_params_round_trip_through_json() {
        let mut common = CommonConfig::default();
        common.traffic = TrafficConfig {
            rumors: 32,
            arrival_rate: 2.5,
            bandwidth: 3,
            start_round: 4,
        };
        let doc = common.params();
        assert_eq!(Value::parse(&doc.render()).unwrap(), doc, "JSON stable");
        let mut rebuilt = CommonConfig::default();
        rebuilt
            .apply_params(&Value::parse(&doc.render()).unwrap())
            .unwrap();
        assert_eq!(rebuilt, common, "apply(params()) is the identity");
    }

    #[test]
    fn traffic_apply_rejects_bad_keys_and_values() {
        let mut t = TrafficConfig::default();
        let before = t.clone();
        let e = apply(&mut t, &Value::parse(r#"{"rumor": 5}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("valid keys"), "{e}");
        let e = apply(&mut t, &Value::parse(r#"{"arrival_rate": 0}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("\"arrival_rate\""), "{e}");
        let e = apply(
            &mut t,
            &Value::parse(r#"{"rumors": 4, "arrival_rate": 0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("\"arrival_rate\""), "{e}");
        let e = apply(&mut t, &Value::parse(r#"{"rumors": 1.5}"#).unwrap()).unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
        assert_eq!(t, before, "failed applies leave the value");
        let mut t = TrafficConfig::default();
        apply(
            &mut t,
            &Value::parse(r#"{"rumors": 8, "bandwidth": 2}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(t.rumors, 8);
        assert_eq!(t.bandwidth, 2);
    }

    #[test]
    fn common_apply_rejects_out_of_range_loss_naming_the_knob() {
        let mut common = CommonConfig::default();
        let before = common.clone();
        let e = common
            .apply_params(&Value::parse(r#"{"message_loss": 2}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("\"message_loss\""), "{e}");
        assert!(e.0.contains("probability"), "{e}");
        let e = common
            .apply_params(&Value::parse(r#"{"seed": 5, "message_loss": 2}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("\"message_loss\""), "{e}");
        let e = common
            .apply_params(&Value::parse(r#"{"seed": 5, "churn": {"crash_rate": 2}}"#).unwrap())
            .unwrap_err();
        assert!(e.0.contains("\"crash_rate\""), "{e}");
        assert_eq!(common, before, "failed applies leave the value");
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = CommonConfig::default();
        let b = a.clone().with_seed(9);
        assert_eq!(b.seed, 9);
        assert_eq!(a.rumor_bits, b.rumor_bits);
    }
}
