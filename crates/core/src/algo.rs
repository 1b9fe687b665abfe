//! The first-class algorithm abstraction: an object-safe [`Algorithm`]
//! trait, the [`Scenario`] builder that describes *what* to run, and the
//! paper algorithms as trait objects.
//!
//! The paper's headline claim is a *comparison* — Algorithms 1–4 against
//! PUSH, PUSH-PULL, Karp et al. and Name-Dropper — so a harness must be
//! able to hold "an algorithm" without knowing its config type. Before
//! this module every consumer re-invented dispatch (closure tables,
//! `match` arms per algorithm); now one [`Scenario`] runs against any
//! `&dyn Algorithm` from the registry (`gossip_baselines::registry`,
//! re-exported as `optimal_gossip::registry`).
//!
//! ```
//! use gossip_core::algo::{Algorithm, Scenario, CLUSTER2};
//!
//! let scenario = Scenario::broadcast(1 << 10).seed(42).rumor_bits(512);
//! let report = CLUSTER2.run(&scenario);
//! assert!(report.success);
//! ```
//!
//! The free `run(n, &Config)` functions remain the primary entry points —
//! the trait impls here are thin wrappers over them, so every golden
//! digest stays bit-identical whichever door a caller comes through.

use phonecall::{ChurnConfig, DirectAddressing, Engine, FailurePlan, Topology, TrafficConfig};

use crate::config::{
    check_loss, Cluster1Config, Cluster2Config, Cluster3Config, CommonConfig, PushPullConfig,
};
use crate::params::{from_value, ParamError, Value};
use crate::report::RunReport;
use crate::{cluster1, cluster2, cluster3, cluster_push_pull};

/// Asymptotic round-complexity label of an algorithm (the paper's `Θ(·)`
/// column). Harness code maps this onto its fit machinery
/// (`gossip_harness::ScalingLaw: From<Law>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Law {
    /// `Θ(log log n)` — Algorithms 1 and 2.
    LogLog,
    /// `Θ(√log n)` — the Avin–Elsässer reconstruction.
    SqrtLog,
    /// `Θ(log n)` — PUSH / PULL / PUSH-PULL / Karp et al.
    Log,
    /// `Θ(log² n)` — Name-Dropper resource discovery.
    LogSquared,
    /// `Θ(log n / log Δ)` — broadcast over a `Δ`-clustering (Lemma 17).
    LogOverLogDelta,
    /// `⌈log_Δ n⌉` exactly — the oracle tree optimum of Lemma 16.
    TreeDepth,
}

impl Law {
    /// Short ASCII label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Law::LogLog => "loglog n",
            Law::SqrtLog => "sqrt(log)",
            Law::Log => "log n",
            Law::LogSquared => "log^2 n",
            Law::LogOverLogDelta => "log n/log d",
            Law::TreeDepth => "log_d n",
        }
    }
}

/// A description of one run: network size plus the shared environment
/// knobs of [`CommonConfig`] (seed, rumor size, sources, failures, loss).
///
/// Built fluently and passed by reference to any number of algorithms —
/// that is the point: *one* scenario, *many* comparable runs.
///
/// ```
/// use gossip_core::algo::Scenario;
/// use phonecall::FailurePlan;
///
/// let s = Scenario::broadcast(1 << 12)
///     .seed(7)
///     .rumor_bits(1024)
///     .extra_sources([1, 2])
///     .failures(FailurePlan::random(1 << 12, 100, 99))
///     .message_loss(0.01);
/// assert_eq!(s.n(), 1 << 12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    n: usize,
    common: CommonConfig,
}

impl Scenario {
    /// A broadcast scenario over `n` nodes with the default environment
    /// (seed `0xC0FFEE`, 256-bit rumor at node 0, no failures, no loss).
    #[must_use]
    pub fn broadcast(n: usize) -> Self {
        Scenario {
            n,
            common: CommonConfig::default(),
        }
    }

    /// A scenario from an existing [`CommonConfig`].
    #[must_use]
    pub fn with_common(n: usize, common: CommonConfig) -> Self {
        Scenario { n, common }
    }

    /// Sets the master seed for all randomness of the run.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.common.seed = seed;
        self
    }

    /// Sets the rumor size `b` in bits.
    #[must_use]
    pub fn rumor_bits(mut self, bits: u64) -> Self {
        self.common.rumor_bits = bits;
        self
    }

    /// Sets the (dense index of the) node that initially knows the rumor.
    #[must_use]
    pub fn source(mut self, source: u32) -> Self {
        self.common.source = source;
        self
    }

    /// Adds additional initial rumor holders.
    #[must_use]
    pub fn extra_sources(mut self, sources: impl IntoIterator<Item = u32>) -> Self {
        self.common.extra_sources = sources.into_iter().collect();
        self
    }

    /// Sets the oblivious time-0 failure plan.
    #[must_use]
    pub fn failures(mut self, plan: FailurePlan) -> Self {
        self.common.failures = plan;
        self
    }

    /// Sets the independent per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics here — at the builder, naming the knob — rather than deep
    /// inside `Network::set_message_loss` if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn message_loss(mut self, p: f64) -> Self {
        if let Err(e) = check_loss(&p) {
            panic!("{e}");
        }
        self.common.message_loss = p;
        self
    }

    /// Attaches the dynamic adversary: per-round crash batches,
    /// recoveries and Gilbert–Elliott burst loss (see
    /// `phonecall::churn`). The schedule seeds off this scenario's run
    /// seed, so every algorithm facing this scenario faces the *same*
    /// crash/recovery/burst history.
    ///
    /// # Panics
    ///
    /// Panics at the builder if the config fails
    /// [`ChurnConfig::validate`], with the offending knob named.
    #[must_use]
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        if let Err(e) = churn.validate() {
            panic!("invalid scenario: {e}");
        }
        self.common.churn = churn;
        self
    }

    /// Sets the communication topology (see `phonecall::topology`): the
    /// graph the address-oblivious contacts are confined to. The graph
    /// builds off this scenario's run seed under one shared stream
    /// label, so every algorithm facing this scenario faces the *same*
    /// contact graph. [`Topology::Complete`] (the default) restores the
    /// paper's base model, bit-identical to pre-topology builds.
    ///
    /// # Panics
    ///
    /// Panics at the builder if the topology fails
    /// [`Topology::validate`], with the offending knob named.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        if let Err(e) = topology.validate() {
            panic!("invalid scenario: {e}");
        }
        self.common.topology = topology;
        self
    }

    /// Sets the direct-addressing mode on a restricted topology:
    /// [`DirectAddressing::Overlay`] (default) lets learned-ID calls
    /// cross the graph, [`DirectAddressing::Restricted`] confines them
    /// to edges. Vacuous on the complete graph.
    #[must_use]
    pub fn addressing(mut self, mode: DirectAddressing) -> Self {
        self.common.addressing = mode;
        self
    }

    /// Selects the execution engine (see `phonecall::events`):
    /// [`Engine::Async`] drives every schedule step from a
    /// deterministic event queue with exponential activation clocks
    /// and sampled message latencies, its streams derived from this
    /// scenario's run seed — so every algorithm facing this scenario
    /// faces the *same* clock and latency timeline. [`Engine::Sync`]
    /// (the default) restores lockstep rounds, bit-identical to
    /// pre-async builds.
    ///
    /// # Panics
    ///
    /// Panics if the config fails `Engine::validate` (the message names
    /// the offending knob).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        if let Err(e) = engine.validate() {
            panic!("invalid scenario: {e}");
        }
        self.common.engine = engine;
        self
    }

    /// Attaches the multi-rumor workload: `k` extra rumors arriving at
    /// seeded random `(node, round)` pairs with exponential inter-arrival
    /// gaps of rate `arrival_rate`, piggybacking on the algorithm's
    /// payload messages (see `phonecall::TrafficConfig`). The arrival
    /// plan seeds off this scenario's run seed, so every algorithm
    /// facing this scenario faces the *same* rumor stream. `k = 0`
    /// restores the paper's single-rumor task, bit-identical to
    /// pre-workload builds.
    ///
    /// # Panics
    ///
    /// Panics at the builder if the resulting config fails
    /// [`TrafficConfig::validate`], with the offending knob named.
    #[must_use]
    pub fn rumors(mut self, k: u32, arrival_rate: f64) -> Self {
        let traffic = TrafficConfig {
            rumors: k,
            arrival_rate,
            ..self.common.traffic.clone()
        };
        if let Err(e) = traffic.validate() {
            panic!("invalid scenario: {e}");
        }
        self.common.traffic = traffic;
        self
    }

    /// Sets the per-node per-round bandwidth budget of the workload:
    /// how many workload rumor payloads one sender may piggyback per
    /// round across all its messages (0 = unlimited). Inert without
    /// [`Scenario::rumors`].
    #[must_use]
    pub fn bandwidth(mut self, budget: u32) -> Self {
        self.common.traffic.bandwidth = budget;
        self
    }

    /// Network size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shared environment configuration this scenario describes.
    #[must_use]
    pub fn common(&self) -> &CommonConfig {
        &self.common
    }
}

/// A gossip algorithm as a first-class object.
///
/// Object safe: registries hold `&'static dyn Algorithm`, harnesses take
/// `&dyn Algorithm`. Implementations are stateless unit structs wrapping
/// the existing free `run` functions, so running through the trait is
/// bit-identical to calling the module function with the same config.
pub trait Algorithm: Sync {
    /// Stable display name (also the trial-seed label and the `--algo`
    /// CLI name; matching is case- and separator-insensitive).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn about(&self) -> &'static str;

    /// The predicted round-complexity law.
    fn law(&self) -> Law;

    /// The algorithm's tunables with their default values, as a JSON
    /// object (see [`crate::params`]). Pass a subset of these keys to
    /// [`Algorithm::run_with_params`] to override them.
    fn default_params(&self) -> Value;

    /// Runs the scenario with JSON parameter overrides applied on top of
    /// the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for unknown keys or wrongly typed values;
    /// the error names the valid keys.
    fn run_with_params(
        &self,
        scenario: &Scenario,
        overrides: &Value,
    ) -> Result<RunReport, ParamError>;

    /// Runs the scenario with default parameters.
    fn run(&self, scenario: &Scenario) -> RunReport {
        self.run_with_params(scenario, &Value::empty())
            .expect("empty overrides are always valid")
    }
}

impl std::fmt::Debug for dyn Algorithm + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Algorithm({})", self.name())
    }
}

/// Default fan-in bound for the `Δ`-parameterized algorithms when the
/// `"delta"` parameter is left `null`: `max(16, ⌈√n⌉)` — inside the
/// paper's `Δ = log^{ω(1)} n` regime at every practical size, and scaled
/// so the `Θ(Δ)` clusters stay well below `n`.
#[must_use]
pub fn auto_delta(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).max(16)
}

/// Resolves a `"delta"` override (`None` → [`auto_delta`], which is at
/// least 16) against the algorithm's smallest workable `Δ`. Shared by
/// every `Δ`-parameterized [`Algorithm`] impl, in-crate and in the
/// baselines (the oracle tree).
///
/// # Errors
///
/// Rejects a `delta` below `min`, naming the knob and the minimum.
pub fn resolve_delta(delta: Option<usize>, n: usize, min: usize) -> Result<usize, ParamError> {
    match delta {
        None => Ok(auto_delta(n)),
        Some(d) if d >= min => Ok(d),
        Some(d) => Err(ParamError(format!(
            "parameter \"delta\" wants an integer >= {min} (or null), got {d}"
        ))),
    }
}

/// The `"delta"` entry of `overrides` (which the algorithm consumes
/// itself, rather than its config), resolved by [`resolve_delta`].
fn delta_param(overrides: &Value, n: usize) -> Result<usize, ParamError> {
    let delta = from_value("delta", overrides.get("delta").unwrap_or(&Value::Null))?;
    resolve_delta(delta, n, cluster3::MIN_DELTA)
}

/// Algorithm 1 (`Cluster1`) as a trait object — see [`crate::cluster1`].
pub struct Cluster1Algo;

/// Algorithm 1: `O(log log n)` rounds via cluster squaring (Theorem 9).
pub static CLUSTER1: Cluster1Algo = Cluster1Algo;

impl Algorithm for Cluster1Algo {
    fn name(&self) -> &'static str {
        "Cluster1"
    }

    fn about(&self) -> &'static str {
        "Algorithm 1: O(log log n)-round gossip via cluster squaring (Theorem 9)"
    }

    fn law(&self) -> Law {
        Law::LogLog
    }

    fn default_params(&self) -> Value {
        Cluster1Config::default().params()
    }

    fn run_with_params(
        &self,
        scenario: &Scenario,
        overrides: &Value,
    ) -> Result<RunReport, ParamError> {
        let mut cfg = Cluster1Config::default();
        cfg.apply_params(overrides)?;
        cfg.common = scenario.common().clone();
        Ok(cluster1::run(scenario.n(), &cfg))
    }
}

/// Algorithm 2 (`Cluster2`) as a trait object — see [`crate::cluster2`].
pub struct Cluster2Algo;

/// Algorithm 2: the headline result — `O(log log n)` rounds, `O(1)`
/// messages/node, `O(nb)` bits (Theorem 2).
pub static CLUSTER2: Cluster2Algo = Cluster2Algo;

impl Algorithm for Cluster2Algo {
    fn name(&self) -> &'static str {
        "Cluster2"
    }

    fn about(&self) -> &'static str {
        "Algorithm 2 (headline): O(log log n) rounds, O(1) msgs/node, O(nb) bits (Theorem 2)"
    }

    fn law(&self) -> Law {
        Law::LogLog
    }

    fn default_params(&self) -> Value {
        Cluster2Config::default().params()
    }

    fn run_with_params(
        &self,
        scenario: &Scenario,
        overrides: &Value,
    ) -> Result<RunReport, ParamError> {
        let mut cfg = Cluster2Config::default();
        cfg.apply_params(overrides)?;
        cfg.common = scenario.common().clone();
        Ok(cluster2::run(scenario.n(), &cfg))
    }
}

/// Algorithm 4 (`Cluster3(Δ)`) as a trait object — see [`crate::cluster3`].
///
/// The task is a `Δ`-clustering *construction*, not a broadcast, reported
/// through the same [`RunReport`] shape: `informed` counts **clustered**
/// nodes and `success` means the clustering is complete (every alive node
/// clustered); `max_fan_in ≤ Δ` is the Theorem 4 guarantee to check.
pub struct Cluster3Algo;

/// Algorithm 4: a `Θ(Δ)`-clustering in `O(log log n)` rounds with fan-in
/// `≤ Δ` (Theorem 4/18).
pub static CLUSTER3: Cluster3Algo = Cluster3Algo;

impl Algorithm for Cluster3Algo {
    fn name(&self) -> &'static str {
        "Cluster3"
    }

    fn about(&self) -> &'static str {
        "Algorithm 4: Theta(delta)-clustering, O(log log n) rounds, fan-in <= delta (Theorem 4)"
    }

    fn law(&self) -> Law {
        Law::LogLog
    }

    fn default_params(&self) -> Value {
        Cluster3Config::default()
            .params()
            .with_first("delta", Value::Null)
    }

    fn run_with_params(
        &self,
        scenario: &Scenario,
        overrides: &Value,
    ) -> Result<RunReport, ParamError> {
        let delta = delta_param(overrides, scenario.n())?;
        let mut cfg = Cluster3Config::default();
        cfg.apply_params(&overrides.without("delta"))?;
        cfg.common = scenario.common().clone();
        cfg.c2.common = scenario.common().clone();
        let (mut sim, delta_report) = cluster3::build(scenario.n(), delta, &cfg);
        let mut report = sim.report();
        report.informed = delta_report.clustering.clustered;
        report.success = delta_report.complete;
        Ok(report)
    }
}

/// Algorithm 3 (`ClusterPUSH-PULL(Δ)`) as a trait object — see
/// [`crate::cluster_push_pull`].
pub struct ClusterPushPullAlgo;

/// Algorithm 3: broadcast over a `Δ`-clustering in `O(log n / log Δ)`
/// rounds (Lemma 17).
pub static CLUSTER_PUSH_PULL: ClusterPushPullAlgo = ClusterPushPullAlgo;

impl Algorithm for ClusterPushPullAlgo {
    fn name(&self) -> &'static str {
        "ClusterPushPull"
    }

    fn about(&self) -> &'static str {
        "Algorithm 3: broadcast over a delta-clustering in O(log n/log delta) rounds (Lemma 17)"
    }

    fn law(&self) -> Law {
        Law::LogOverLogDelta
    }

    fn default_params(&self) -> Value {
        PushPullConfig::default()
            .params()
            .with_first("delta", Value::Null)
    }

    fn run_with_params(
        &self,
        scenario: &Scenario,
        overrides: &Value,
    ) -> Result<RunReport, ParamError> {
        let delta = delta_param(overrides, scenario.n())?;
        let mut cfg = PushPullConfig::default();
        cfg.apply_params(&overrides.without("delta"))?;
        cfg.common = scenario.common().clone();
        Ok(cluster_push_pull::run(scenario.n(), delta, &cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builder_mirrors_common_config() {
        let s = Scenario::broadcast(128)
            .seed(9)
            .rumor_bits(64)
            .source(3)
            .extra_sources([5, 6])
            .message_loss(0.25);
        let mut want = CommonConfig::default();
        want.seed = 9;
        want.rumor_bits = 64;
        want.source = 3;
        want.extra_sources = vec![5, 6];
        want.message_loss = 0.25;
        assert_eq!(s.common(), &want);
        assert_eq!(s.n(), 128);
    }

    #[test]
    fn churn_builder_mirrors_common_config() {
        let churn = ChurnConfig {
            crash_rate: 0.2,
            batch_size: 3,
            recovery_rate: 0.25,
            ..ChurnConfig::default()
        };
        let s = Scenario::broadcast(64).churn(churn.clone());
        assert_eq!(s.common().churn, churn);
    }

    #[test]
    fn topology_builder_mirrors_common_config() {
        let s = Scenario::broadcast(64)
            .topology(Topology::RandomRegular(4))
            .addressing(DirectAddressing::Restricted);
        assert_eq!(s.common().topology, Topology::RandomRegular(4));
        assert_eq!(s.common().addressing, DirectAddressing::Restricted);
    }

    #[test]
    fn rumors_builder_mirrors_common_config() {
        let s = Scenario::broadcast(64).rumors(16, 2.0).bandwidth(3);
        assert_eq!(
            s.common().traffic,
            TrafficConfig {
                rumors: 16,
                arrival_rate: 2.0,
                bandwidth: 3,
                start_round: 0,
            }
        );
        assert!(s.common().traffic.is_active());
        // Builder order must not matter.
        let s2 = Scenario::broadcast(64).bandwidth(3).rumors(16, 2.0);
        assert_eq!(s.common().traffic, s2.common().traffic);
    }

    #[test]
    #[should_panic(expected = "\"arrival_rate\" wants a positive finite rate")]
    fn builder_rejects_invalid_arrival_rate_naming_the_knob() {
        let _ = Scenario::broadcast(8).rumors(4, 0.0);
    }

    #[test]
    #[should_panic(expected = "\"message_loss\" wants a probability")]
    fn builder_rejects_out_of_range_loss() {
        let _ = Scenario::broadcast(8).message_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "\"degree\" wants an integer >= 2")]
    fn builder_rejects_invalid_topology_naming_the_knob() {
        let _ = Scenario::broadcast(8).topology(Topology::RandomRegular(1));
    }

    #[test]
    #[should_panic(expected = "\"recovery_rate\" wants a probability")]
    fn builder_rejects_invalid_churn_naming_the_knob() {
        let _ = Scenario::broadcast(8).churn(ChurnConfig {
            recovery_rate: -0.5,
            ..ChurnConfig::default()
        });
    }

    #[test]
    fn trait_run_matches_free_function_bit_for_bit() {
        let scenario = Scenario::broadcast(256).seed(11);
        let mut cfg = Cluster2Config::default();
        cfg.common = scenario.common().clone();
        assert_eq!(CLUSTER2.run(&scenario), cluster2::run(256, &cfg));

        let mut cfg = Cluster1Config::default();
        cfg.common = scenario.common().clone();
        assert_eq!(CLUSTER1.run(&scenario), cluster1::run(256, &cfg));
    }

    #[test]
    fn params_override_changes_behavior_and_bad_keys_fail() {
        let scenario = Scenario::broadcast(256).seed(2);
        let slow = CLUSTER2
            .run_with_params(&scenario, &Value::parse(r#"{"pull_slack": 12}"#).unwrap())
            .unwrap();
        // Extra pull rounds extend the schedule deterministically.
        assert!(slow.rounds > CLUSTER2.run(&scenario).rounds);

        let err = CLUSTER2
            .run_with_params(&scenario, &Value::parse(r#"{"warp": 9}"#).unwrap())
            .unwrap_err();
        assert!(err.0.contains("valid keys"), "{err}");
    }

    #[test]
    fn delta_algorithms_honor_delta_param() {
        let scenario = Scenario::broadcast(512).seed(3);
        let r = CLUSTER3
            .run_with_params(&scenario, &Value::parse(r#"{"delta": 32}"#).unwrap())
            .unwrap();
        assert!(r.success, "clustering incomplete");
        assert!(r.max_fan_in <= 32, "fan-in {} > 32", r.max_fan_in);

        let r = CLUSTER_PUSH_PULL
            .run_with_params(&scenario, &Value::parse(r#"{"delta": 64}"#).unwrap())
            .unwrap();
        assert!(r.success);
        assert!(r.max_fan_in <= 64);
    }

    #[test]
    fn auto_delta_is_sane() {
        assert_eq!(auto_delta(4), 16);
        assert_eq!(auto_delta(256), 16);
        assert_eq!(auto_delta(1 << 12), 64);
        assert_eq!(auto_delta(1 << 20), 1024);
    }

    #[test]
    fn default_params_round_trip_and_are_accepted() {
        for algo in [
            &CLUSTER1 as &dyn Algorithm,
            &CLUSTER2,
            &CLUSTER3,
            &CLUSTER_PUSH_PULL,
        ] {
            let p = algo.default_params();
            let reparsed = Value::parse(&p.render()).unwrap();
            assert_eq!(reparsed, p, "{}", algo.name());
            let scenario = Scenario::broadcast(128).seed(1);
            assert_eq!(
                algo.run_with_params(&scenario, &reparsed).unwrap(),
                algo.run(&scenario),
                "{}: defaults-as-overrides must not change the run",
                algo.name()
            );
        }
    }
}
