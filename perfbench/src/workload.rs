//! The benchmark's workloads: what each one runs, at which size, in
//! which environment. Every workload is built from the CLI seed alone,
//! so the same seed always yields the same trials and the same inputs.

use std::path::{Path, PathBuf};

use gossip_baselines::registry;
use gossip_core::algo::{Algorithm, Scenario};
use phonecall::dataset::fixture::{self, Fixture};
use phonecall::{AsyncConfig, ChurnConfig, DirectAddressing, Engine, Latency, Topology};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "clique_2e20",
    "sweep_2e12_storm",
    "async_2e16",
    "realgraph_2e17",
];

/// Node count of the rendered real-graph snapshot.
const REALGRAPH_NODES: usize = 1 << 17;

/// One algorithm's share of a workload pass: `trials` seeded runs of
/// `algo` on `scenario`, fanned out by the harness.
pub struct AlgoRun {
    pub algo: &'static dyn Algorithm,
    pub scenario: Scenario,
    pub trials: u32,
}

/// A fully prepared workload.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    /// Network size every trial and the engine probe run at.
    pub n: usize,
    /// The trials of one pass, run algorithm by algorithm.
    pub runs: Vec<AlgoRun>,
    /// The graph the set-up builds explicitly with `Topology::build`.
    pub topology: Topology,
    /// The edge-list file the set-up loads cold and warm, and whose
    /// graph each pass runs HyperBall on.
    pub dataset: Option<PathBuf>,
    /// Whether every trial must report `success` (complete graph, no
    /// loss, no churn: anything short of full coverage is a bug).
    pub require_success: bool,
}

impl Workload {
    /// Workload rumors per trial (the `K` of the traffic check).
    pub fn rumors(&self) -> u32 {
        self.runs[0].scenario.common().traffic.rumors
    }

    pub fn trials_per_pass(&self) -> u32 {
        self.runs.iter().map(|r| r.trials).sum()
    }

    /// The scenario whose environment the engine probe installs.
    pub fn probe_scenario(&self) -> &Scenario {
        &self.runs[0].scenario
    }
}

fn algo(name: &str) -> &'static dyn Algorithm {
    registry::by_name(name).expect("workload algorithms are registry names")
}

/// The E10 `storm` churn profile at `n`: rolling crash batches with
/// recovery over the first 30 rounds plus Gilbert–Elliott burst loss,
/// the rumor source protected.
fn storm(n: usize) -> ChurnConfig {
    ChurnConfig {
        crash_rate: 1.0,
        batch_size: (n / 64).max(4) as u32,
        recovery_rate: 0.15,
        burst_enter: 0.15,
        burst_exit: 0.35,
        burst_loss: 0.5,
        start_round: 1,
        stop_round: Some(30),
        protected: vec![0],
        ..ChurnConfig::default()
    }
}

/// The snapshot recipe of `realgraph_2e17`: a preferential-attachment
/// graph with `m = 4`, rendered with the noise of a real download.
pub fn realgraph_fixture(nodes: usize, seed: u64) -> Fixture {
    Fixture {
        name: "pa_2e17",
        file_name: "pa_2e17.txt",
        nodes,
        topology: Topology::PreferentialAttachment(4),
        seed,
    }
}

/// Builds workload `name` for `seed`. `workdir` receives generated
/// inputs (only `realgraph_2e17` writes one).
///
/// # Errors
///
/// Returns a message for an unknown name or an input that cannot be
/// written.
pub fn prepare(name: &str, seed: u64, workdir: &Path) -> Result<Workload, String> {
    let name = *NAMES
        .iter()
        .find(|&&w| w == name)
        .ok_or_else(|| format!("unknown workload {name:?}; valid: {}", NAMES.join(", ")))?;
    let pair = |scenario: &Scenario, trials: u32| {
        ["cluster2", "pushpull"]
            .iter()
            .map(|a| AlgoRun {
                algo: algo(a),
                scenario: scenario.clone(),
                trials,
            })
            .collect()
    };
    let w = match name {
        "clique_2e20" => {
            let n = 1 << 20;
            let s = Scenario::broadcast(n).seed(seed);
            Workload {
                name,
                seed,
                n,
                runs: pair(&s, 2),
                topology: Topology::Complete,
                dataset: None,
                require_success: true,
            }
        }
        "sweep_2e12_storm" => {
            let n = 1 << 12;
            let topology = Topology::RandomRegular(8);
            let s = Scenario::broadcast(n)
                .seed(seed)
                .topology(topology.clone())
                .message_loss(0.02)
                .churn(storm(n))
                .rumors(32, 1.0);
            let runs = ["cluster2", "clusterpushpull", "karp", "pushpull"]
                .iter()
                .map(|a| AlgoRun {
                    algo: algo(a),
                    scenario: s.clone(),
                    trials: 128,
                })
                .collect();
            Workload {
                name,
                seed,
                n,
                runs,
                topology,
                dataset: None,
                require_success: false,
            }
        }
        "async_2e16" => {
            let n = 1 << 16;
            let s = Scenario::broadcast(n)
                .seed(seed)
                .engine(Engine::Async(AsyncConfig {
                    rate: 1.0,
                    latency: Latency::Exponential(0.5),
                }));
            Workload {
                name,
                seed,
                n,
                runs: pair(&s, 2),
                topology: Topology::Complete,
                dataset: None,
                require_success: true,
            }
        }
        "realgraph_2e17" => {
            let f = realgraph_fixture(REALGRAPH_NODES, seed);
            let path = workdir.join(f.file_name);
            std::fs::write(&path, fixture::render(&f))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let topology = Topology::FromFile(path.to_string_lossy().into_owned());
            let n = REALGRAPH_NODES;
            let base = Scenario::broadcast(n).seed(seed).topology(topology.clone());
            let runs = vec![
                AlgoRun {
                    algo: algo("cluster2"),
                    scenario: base.clone().addressing(DirectAddressing::Restricted),
                    trials: 2,
                },
                AlgoRun {
                    algo: algo("pushpull"),
                    scenario: base.addressing(DirectAddressing::Overlay),
                    trials: 2,
                },
            ];
            Workload {
                name,
                seed,
                n,
                runs,
                topology,
                dataset: Some(path),
                require_success: false,
            }
        }
        _ => unreachable!("NAMES lists exactly the workloads matched above"),
    };
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realgraph_input_is_byte_identical_per_seed() {
        let nodes = 1 << 10;
        let a = fixture::render(&realgraph_fixture(nodes, 7));
        let b = fixture::render(&realgraph_fixture(nodes, 7));
        assert_eq!(a, b, "same seed, same bytes");
        let c = fixture::render(&realgraph_fixture(nodes, 8));
        assert_ne!(a, c, "the seed reaches the generator");
    }

    #[test]
    fn every_name_prepares() {
        // Only realgraph_2e17 writes into the work directory.
        let dir = Path::new("unused");
        for &name in NAMES.iter().filter(|&&n| n != "realgraph_2e17") {
            let w = prepare(name, 1, dir).expect("known workload");
            assert_eq!(w.name, name);
            assert!(w.trials_per_pass() > 0);
            assert!(w.runs.iter().all(|r| r.scenario.n() == w.n));
        }
        assert!(prepare("nope", 1, dir).is_err());
    }
}
