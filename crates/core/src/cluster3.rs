//! **Algorithm 4 — `Cluster3(Δ)`**: computing a `Θ(Δ)`-clustering in
//! `O(log log n)` rounds with `O(n)` messages while **no node communicates
//! with more than `Δ` nodes in any round** (Theorem 4/18, Section 7).
//!
//! A `Δ`-clustering (Definition 1) clusters *every* node into clusters of
//! size `Θ(Δ)`. Given one, any broadcast/aggregation task runs with
//! `Δ`-bounded fan-in: coordination happens inside `Θ(Δ)`-sized clusters,
//! so a leader never answers more than `O(Δ)` requests per round.
//!
//! Structure: `Cluster2`'s growth and squaring phases, stopped early at
//! cluster size `≈ √(Δ·log n)`; a randomized `MergeClusters` step that
//! grows clusters to `Θ(Δ/C'')`; a `BoundedClusterPush` with *continuous*
//! `ClusterResize(Δ/C'')` (so recruiting never pushes a cluster past the
//! fan-in budget); a PULL phase joining the remaining nodes; and a final
//! `ClusterResize(Δ/C'')`.
//!
//! The head-room constant `C''` (default 4) guarantees `2·Δ/C'' ≤ Δ/2`, so
//! even a freshly doubled cluster keeps its leader within the fan-in bound.

use serde::Serialize;

use crate::config::{log2n, loglog2n, Cluster3Config};
use crate::primitives::{
    activate, bounded_recruit_iteration, dissolve, flatten_round, merge_iteration, resize,
    unclustered_pull_round, MergeOpts, MergeRule, Who,
};
use crate::report::ClusteringStats;
use crate::sim::ClusterSim;

/// Report of a `Δ`-clustering construction.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DeltaClusteringReport {
    /// Network size.
    pub n: usize,
    /// The requested fan-in bound `Δ`.
    pub delta: usize,
    /// The working cluster size `Δ' = Δ / C''`.
    pub working_size: u64,
    /// Rounds used.
    pub rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Total bits.
    pub bits: u64,
    /// Maximum per-round per-node communications observed — must be `≤ Δ`.
    pub max_fan_in: u64,
    /// Final clustering snapshot.
    pub clustering: ClusteringStats,
    /// Whether every alive node ended up clustered.
    pub complete: bool,
}

/// The smallest `Δ` the construction accepts (it needs a little
/// head-room; the paper assumes `Δ = log^{ω(1)} n`).
pub const MIN_DELTA: usize = 8;

/// Builds a `Θ(Δ)`-clustering over a fresh `n`-node network and returns
/// the simulation (for running broadcasts on top) plus the report.
///
/// # Panics
///
/// Panics if `delta < 8` (the construction needs a little head-room; the
/// paper assumes `Δ = log^{ω(1)} n`).
///
/// ```
/// use gossip_core::{cluster3, Cluster3Config};
/// let (sim, report) = cluster3::build(1 << 10, 64, &Cluster3Config::default());
/// assert!(report.complete);
/// assert!(report.max_fan_in <= 64);
/// assert!(sim.clustering_stats().clusters > 1);
/// ```
#[must_use]
pub fn build(n: usize, delta: usize, cfg: &Cluster3Config) -> (ClusterSim, DeltaClusteringReport) {
    let mut sim = ClusterSim::new(n, &cfg.common);
    let report = run_on(&mut sim, delta, cfg);
    (sim, report)
}

/// Runs the `Δ`-clustering construction on an existing simulation.
///
/// # Panics
///
/// Panics if `delta < 8`.
pub fn run_on(sim: &mut ClusterSim, delta: usize, cfg: &Cluster3Config) -> DeltaClusteringReport {
    assert!(
        delta >= MIN_DELTA,
        "delta-clusterings need delta >= {MIN_DELTA} (paper: log^w(1) n)"
    );
    let n = sim.n();
    let l = log2n(n);
    let working = working_size(delta, cfg);

    // The fan-in bound must hold during construction too: intermediate
    // cluster sizes (a leader answers one pull per member) have to stay
    // safely below Δ at every instant, including between resizes. Growth
    // caps the cluster size at Δ/16 (transient ≤ 4·cap = Δ/4), and the
    // squaring target is set so one merge iteration — which multiplies
    // sizes by the clustered-fraction hit rate `s·f` — lands below Δ/2
    // even at several times the expected fraction.
    let mut c2 = cfg.c2.clone();
    c2.c_cap = c2.c_cap.min(delta as f64 / (16.0 * l)).max(2.0 / l);

    sim.begin_phase();
    crate::cluster2::grow_initial_clusters(sim, &c2);
    sim.end_phase("GrowInitialClusters");

    // Squaring stops at √(Δ'·log n / 32): post-merge sizes are then
    // ≈ s²·f·κ ≤ Δ'/4 for clustered fractions up to 8/log n.
    sim.begin_phase();
    let s_target = (working as f64 * l / 32.0).sqrt().max(2.0);
    square_to(sim, &c2, s_target);
    sim.end_phase("SquareClusters");

    // Phase 3: MergeClusters — activate with probability
    // `merge_boost·s/Δ'` and let inactive clusters merge into a uniformly
    // random active candidate; active clusters jump to ≈ Δ'/merge_boost
    // nodes in one O(1)-round step, so the remaining gap to Δ' costs
    // BoundedClusterPush only O(1) doubling iterations.
    sim.begin_phase();
    merge_clusters(sim, working, s_target, cfg);
    sim.end_phase("MergeClusters");

    // Phase 4: BoundedClusterPush with continuous resize at Δ'.
    sim.begin_phase();
    bounded_cluster_push(sim, working, cfg);
    sim.end_phase("BoundedClusterPush");

    // Phase 5: remaining nodes pull to join. Joins are not size-controlled
    // by themselves, so a resize follows every pull round — otherwise a
    // popular cluster could exceed 2Δ' and its leader would answer more
    // than Δ membership pushes in the next collect round.
    sim.begin_phase();
    let pull_budget = loglog2n(n).ceil() as u32 + cfg.c2.pull_slack;
    for _ in 0..pull_budget {
        unclustered_pull_round(sim);
        resize(sim, working, Who::AllClustered);
    }
    sim.end_phase("UnclusteredNodesPull");

    // Final shaping: dissolve runts (below Δ'/2), let their members rejoin
    // by pulling, and resize once more — tightening the Θ(Δ) size band.
    sim.begin_phase();
    dissolve(sim, working / 2, Who::AllClustered);
    let rejoin_budget = loglog2n(n).ceil() as u32 + 2;
    for _ in 0..rejoin_budget {
        unclustered_pull_round(sim);
        resize(sim, working, Who::AllClustered);
    }
    sim.end_phase("FinalResize");

    let m = sim.net.metrics();
    let clustering = sim.clustering_stats();
    DeltaClusteringReport {
        n,
        delta,
        working_size: working,
        rounds: m.rounds,
        messages: m.messages,
        bits: m.bits,
        max_fan_in: m.max_fan_in,
        clustering,
        complete: clustering.unclustered == 0,
    }
}

/// The working cluster size `Δ' = ⌊Δ / C''⌋` (floored at 2) the
/// construction aims for — the single source of truth behind
/// [`DeltaClusteringReport::working_size`], exported so consumers (e.g.
/// experiment E5's size-band column) never re-derive it.
#[must_use]
pub fn working_size(delta: usize, cfg: &Cluster3Config) -> u64 {
    ((delta as f64 / cfg.c_headroom).floor() as u64).max(2)
}

/// `Cluster2::square_clusters` with a caller-chosen size target.
fn square_to(sim: &mut ClusterSim, c2: &crate::config::Cluster2Config, s_target: f64) {
    let n = sim.n();
    let l = log2n(n);
    let f_est = 1.0 / l;
    let mut s = (crate::cluster2::size_cap(n, c2) / 2).max(2) as f64;
    dissolve(sim, s as u64, Who::ActiveOnly);
    activate(sim, 1.0);
    let mut iterations = 0u32;
    while s < s_target && (f_est * n as f64) / s >= 32.0 && iterations < 24 {
        resize(sim, s as u64, Who::AllClustered);
        activate(sim, 1.0 / s);
        for _ in 0..2 {
            merge_iteration(
                sim,
                MergeOpts {
                    pushers: Who::ActiveOnly,
                    inactive_merge_only: true,
                    rule: MergeRule::Random,
                    smaller_only: false,
                    mark_merged_active: true,
                },
            );
        }
        flatten_round(sim);
        s = (2.0 * s)
            .max(s * s * f_est / c2.square_safety)
            .min(s_target + 1.0);
        iterations += 1;
    }
}

/// `MergeClusters` (Algorithm 4 lines 7–10): activate each cluster with
/// probability `merge_boost·s/Δ'`; active clusters PUSH their ID once and
/// every inactive cluster merges into a uniformly random received
/// candidate, growing active clusters to `≈ Δ'/merge_boost` nodes.
///
/// We run the push/merge step twice — the second sweep catches inactive
/// clusters that heard no candidate, which at practical `Δ` (where
/// `Δ = log^{ω(1)} n` has not kicked in yet) would otherwise linger.
fn merge_clusters(sim: &mut ClusterSim, working: u64, s_est: f64, cfg: &Cluster3Config) {
    let p = (cfg.merge_boost * s_est / working as f64).clamp(0.01, 1.0);
    activate(sim, p);
    for _ in 0..2 {
        merge_iteration(
            sim,
            MergeOpts {
                pushers: Who::ActiveOnly,
                inactive_merge_only: true,
                rule: MergeRule::Random,
                smaller_only: false,
                mark_merged_active: true,
            },
        );
    }
    flatten_round(sim);
}

/// `BoundedClusterPush` with continuous `ClusterResize(Δ')`: every
/// iteration resizes (keeping all clusters `< 2Δ'`), pushes, and applies
/// the 1.1 growth-stall rule.
fn bounded_cluster_push(sim: &mut ClusterSim, working: u64, cfg: &Cluster3Config) {
    activate(sim, 1.0);
    let budget = loglog2n(sim.n()).ceil() as u32 + cfg.c2.bounded_push_slack;
    for _ in 0..budget {
        resize(sim, working, Who::ActiveOnly);
        bounded_recruit_iteration(sim, cfg.c2.bounded_push_stall);
    }
    // One final sweep so late recruits are size-bounded too.
    resize(sim, working, Who::AllClustered);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_clustering, check_delta_clustering};

    fn cfg(seed: u64) -> Cluster3Config {
        let mut c = Cluster3Config::default();
        c.common.seed = seed;
        c.c2.common.seed = seed;
        c
    }

    #[test]
    fn builds_complete_clustering() {
        let (sim, report) = build(1 << 11, 64, &cfg(1));
        assert!(
            report.complete,
            "unclustered: {}",
            report.clustering.unclustered
        );
        check_clustering(&sim).expect("well-formed");
    }

    #[test]
    fn fan_in_stays_below_delta() {
        let delta = 128;
        let (_sim, report) = build(1 << 12, delta, &cfg(2));
        assert!(
            report.max_fan_in <= delta as u64,
            "fan-in {} exceeded delta {delta}",
            report.max_fan_in
        );
    }

    #[test]
    fn cluster_sizes_are_theta_delta() {
        let delta = 64;
        let (sim, report) = build(1 << 11, delta, &cfg(3));
        assert!(report.complete);
        // Θ(Δ): sizes within [Δ/16, Δ/2] given head-room C''=4.
        check_delta_clustering(&sim, delta / 16, delta / 2)
            .unwrap_or_else(|e| panic!("{e}; stats: {:?}", report.clustering));
    }

    #[test]
    fn rounds_scale_like_loglog_not_log() {
        let r_small = build(1 << 9, 32, &cfg(4)).1;
        let r_large = build(1 << 14, 32, &cfg(4)).1;
        let ratio = r_large.rounds as f64 / r_small.rounds.max(1) as f64;
        assert!(
            ratio < 2.2,
            "Δ-clustering rounds must grow slowly, ratio {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "delta >= 8")]
    fn tiny_delta_rejected() {
        let _ = build(256, 4, &cfg(0));
    }
}
