//! The timed calls: the set-up before the first trial, and the passes
//! over the workload's trials. Every layer is timed from outside, at
//! its public entry point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use gossip_core::report::RunReport;
use gossip_harness::par_map_trials_on;
use phonecall::dataset::{self, hyperball};
use phonecall::{Adjacency, Network};

use crate::check::{check, Expect};
use crate::probe::{self, ProbeState};
use crate::trace::{thread_index, Trace};
use crate::workload::Workload;

/// Set-up repeats at least `SETUP_REPS` times and until `SETUP_MIN_S`
/// host seconds are spent, so a set-up of a few milliseconds still
/// yields a steady median; `setup_s` is that median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

fn secs(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64()
}

/// Times `f` as one span named `name` under `parent`.
fn timed<R>(
    trace: &mut Trace,
    name: &str,
    parent: usize,
    samples: &mut Vec<f64>,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    samples.push(secs(start, end));
    trace.push(name, Some(parent), (start, end), None, thread_index());
    out
}

/// What the set-up repetitions measured.
pub struct Setup {
    /// Host seconds of each whole repetition.
    pub rep_s: Vec<f64>,
    pub load_cold_s: Vec<f64>,
    pub load_warm_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub alloc_s: Vec<f64>,
    /// Edges of the explicitly built topology (0 on the complete graph,
    /// which is never materialized).
    pub edges: u64,
    /// Size of the loaded edge-list file.
    pub dataset_bytes: u64,
    /// The warm-loaded dataset graph HyperBall runs on.
    pub graph: Option<Adjacency>,
    /// The last repetition's probe network, for the engine probe.
    pub net: Option<Network<ProbeState>>,
    /// Set-up results that disagree with each other.
    pub problems: Vec<String>,
}

/// Runs the set-up repeatedly (see [`SETUP_REPS`]): cold and warm
/// dataset load, the explicit `Topology::build`, and the engine-probe
/// network.
///
/// # Errors
///
/// Returns a message if the dataset cannot be loaded.
pub fn setup(w: &Workload, trace: &mut Trace) -> Result<Setup, String> {
    let mut s = Setup {
        rep_s: Vec::new(),
        load_cold_s: Vec::new(),
        load_warm_s: Vec::new(),
        build_s: Vec::new(),
        alloc_s: Vec::new(),
        edges: 0,
        dataset_bytes: 0,
        graph: None,
        net: None,
        problems: Vec::new(),
    };
    while s.rep_s.len() < SETUP_REPS || s.rep_s.iter().sum::<f64>() < SETUP_MIN_S {
        let rep = trace.open("setup", None);
        let start = Instant::now();
        if let Some(path) = &w.dataset {
            s.dataset_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            remove_cache(path)?;
            let cold = timed(trace, "dataset.load_cold", rep, &mut s.load_cold_s, || {
                dataset::load(path)
            })?;
            let warm = timed(trace, "dataset.load_warm", rep, &mut s.load_warm_s, || {
                dataset::load(path)
            })?;
            if cold != warm {
                s.problems
                    .push("warm dataset load differs from the cold load".into());
            }
            s.graph = Some(warm);
        }
        let adj = timed(trace, "topology.build", rep, &mut s.build_s, || {
            w.topology.build(w.n, w.seed)
        });
        s.edges = adj.map_or(0, |a| a.edge_count() as u64);
        s.net = Some(timed(trace, "network.alloc", rep, &mut s.alloc_s, || {
            probe::install(w.n, w.probe_scenario().common())
        }));
        s.rep_s.push(secs(start, Instant::now()));
        trace.close(rep);
    }
    Ok(s)
}

fn remove_cache(path: &Path) -> Result<(), String> {
    let cache = dataset::cache_path(path);
    match std::fs::remove_file(&cache) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", cache.display()))
        }
        _ => Ok(()),
    }
}

/// One trial as the harness returned it.
pub struct Trial {
    /// The report, or the panic message of a trial that panicked.
    pub report: Result<RunReport, String>,
    pub secs: f64,
    /// Why the trial failed: a panic or a broken report invariant.
    pub failure: Option<String>,
}

/// One algorithm's `par_map_trials_on` call within a pass.
pub struct AlgoPass {
    /// Lower-case registry name, as used in metric names.
    pub key: String,
    pub trials: Vec<Trial>,
    /// Host seconds of the whole harness call.
    pub wall_s: f64,
    /// Worker threads the call could use: `min(threads, trials)`.
    pub workers: usize,
    /// Span id of the harness call (meaningful in traced passes).
    pub span: usize,
}

/// One pass over the workload's trials.
pub struct Pass {
    pub traced: bool,
    pub wall_s: f64,
    /// HyperBall host seconds and estimated diameter, on dataset
    /// workloads.
    pub hyperball: Option<(f64, u32)>,
    pub algos: Vec<AlgoPass>,
}

impl Pass {
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.algos
            .iter()
            .flat_map(|a| &a.trials)
            .filter_map(|t| t.report.as_ref().ok())
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".into())
}

/// Runs one pass: HyperBall on dataset workloads, then each algorithm's
/// trials through `par_map_trials_on` on `threads` workers. Each worker
/// starts its next trial when the previous one returns. Every report is
/// checked against the workload's invariants.
pub fn pass(w: &Workload, threads: usize, graph: Option<&Adjacency>, trace: &mut Trace) -> Pass {
    let expect = Expect {
        rumors: w.rumors(),
        success: w.require_success,
    };
    let root = trace.open("pass", None);
    let start = Instant::now();
    let hyperball = graph.map(|g| {
        let mut s = Vec::new();
        let est = timed(trace, "dataset.hyperball", root, &mut s, || {
            hyperball::estimate(g, w.seed)
        });
        (s[0], est.diameter)
    });
    let algos = w
        .runs
        .iter()
        .map(|run| {
            let key = run.algo.name().to_ascii_lowercase();
            let span = trace.open(format!("harness.{key}"), Some(root));
            let call_start = Instant::now();
            let trials = par_map_trials_on(threads, w.seed, run.algo.name(), run.trials, |seed| {
                let scenario = run.scenario.clone().seed(seed);
                let start = Instant::now();
                let report = catch_unwind(AssertUnwindSafe(|| run.algo.run(&scenario)));
                let end = Instant::now();
                (
                    report.map_err(|p| panic_message(&*p)),
                    start,
                    end,
                    thread_index(),
                )
            });
            let wall_s = secs(call_start, Instant::now());
            trace.close(span);
            let trials = trials
                .into_iter()
                .enumerate()
                .map(|(i, (report, start, end, thread))| {
                    let trial = u32::try_from(i).expect("trial counts fit u32");
                    trace.push(
                        format!("algo.{key}"),
                        Some(span),
                        (start, end),
                        Some(trial),
                        thread,
                    );
                    let failure = match &report {
                        Err(panic) => Some(format!("panicked: {panic}")),
                        Ok(r) => check(r, expect).err(),
                    };
                    Trial {
                        report,
                        secs: secs(start, end),
                        failure,
                    }
                })
                .collect();
            AlgoPass {
                key,
                trials,
                wall_s,
                workers: threads.clamp(1, run.trials.max(1) as usize),
                span,
            }
        })
        .collect();
    let wall_s = secs(start, Instant::now());
    trace.close(root);
    Pass {
        traced: trace.enabled,
        wall_s,
        hyperball,
        algos,
    }
}
