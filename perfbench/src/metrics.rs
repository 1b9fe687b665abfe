//! Turning the measured calls into named metrics: the end-to-end set a
//! user of the simulator sees, and the per-layer set of the traced run.

use std::collections::BTreeMap;

use gossip_core::report::RunReport;

use crate::measure::{Pass, Setup};
use crate::probe::Probe;
use crate::stats::{median, p90};
use crate::trace::{self_time, Span};
use crate::workload::Workload;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end metrics the result line carries, with units: each is
/// measured on every workload and is never 0. The rest are printed but
/// not carried: `trial_s.p90`, `rumors_completed` and `virtual_time`
/// exist on some workloads only, `failed_frac` is 0 when all is well,
/// and `trial_s.p50` falls in the gap between two algorithms' trial
/// times on the two-algorithm workloads, which makes it too unsteady
/// from seed to seed to gate on.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("node_rounds_per_s", "node-rounds/s"),
    ("peak_rss_mb", "MiB"),
    ("rounds", "count"),
    ("msgs_per_node", "count"),
    ("coverage", "ratio"),
];

/// Registry algorithms with per-trial timings on every workload.
const TIMED_ALGOS: &[&str] = &["cluster2", "pushpull"];
/// Registry algorithms whose counts the result line carries, with the
/// phases they report.
const COUNTED_ALGOS: &[(&str, &[&str])] = &[
    (
        "cluster2",
        &[
            "GrowInitialClusters",
            "SquareClusters",
            "MergeAllClusters",
            "BoundedClusterPush",
            "UnclusteredNodesPull",
            "Consolidate",
            "ClusterShare",
        ],
    ),
    ("pushpull", &[]),
    ("karp", &[]),
    (
        "clusterpushpull",
        &[
            "GrowInitialClusters",
            "SquareClusters",
            "MergeClusters",
            "BoundedClusterPush",
            "UnclusteredNodesPull",
            "FinalResize",
            "SeedShare",
            "PushPullLoop",
            "FinalShare",
        ],
    ),
];

/// The per-layer metrics the traced run's result line carries, with
/// units. Timings are those measured on every workload; a count of a
/// layer that does no work on a workload reads 0. The timings of
/// workload-specific layers are printed and written to the trace file.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("harness.busy_s", "s"),
        ("harness.idle_s", "s"),
        ("harness.efficiency", "ratio"),
        ("harness.self_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for a in TIMED_ALGOS {
        out.push((format!("algo.{a}.trial_s.p50"), "s"));
        out.push((format!("algo.{a}.ns_per_node_round"), "ns"));
    }
    for (a, phases) in COUNTED_ALGOS {
        out.push((format!("algo.{a}.rounds"), "count"));
        out.push((format!("algo.{a}.messages"), "count"));
        for p in *phases {
            out.push((format!("algo.{a}.phase.{p}.rounds"), "count"));
            out.push((format!("algo.{a}.phase.{p}.messages"), "count"));
        }
    }
    for (n, u) in [
        ("network.round_s.p50", "s"),
        ("network.ns_per_contact", "ns"),
        ("network.contacts", "count"),
        ("network.max_fan_in", "count"),
        ("network.alloc_s", "s"),
        ("events.events", "count"),
        ("topology.build_s", "s"),
        ("topology.edges", "count"),
        ("dataset.hyperball_diameter", "count"),
        ("traffic.rumor_payloads", "count"),
        ("traffic.budget_drops", "count"),
        ("trace.overhead_s", "s"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), (value, unit));
}

fn coverage(r: &RunReport) -> f64 {
    if r.alive == 0 {
        1.0
    } else {
        r.informed as f64 / r.alive as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a message where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Everything one run measured.
pub struct Run<'a> {
    pub workload: &'a Workload,
    pub setup: &'a Setup,
    pub passes: &'a [Pass],
    pub probe: Option<&'a Probe>,
    pub spans: &'a [Span],
}

impl Run<'_> {
    fn untraced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| !p.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| p.traced)
    }

    /// Trials attempted and failed over all passes.
    pub fn trial_counts(&self) -> (usize, usize) {
        let trials = self
            .passes
            .iter()
            .flat_map(|p| &p.algos)
            .flat_map(|a| &a.trials);
        let (mut attempted, mut failed) = (0, 0);
        for t in trials {
            attempted += 1;
            failed += usize::from(t.failure.is_some());
        }
        (attempted, failed)
    }

    /// The end-to-end metrics, from the untraced passes.
    ///
    /// # Errors
    ///
    /// Returns a message if there is no untraced pass or no peak RSS.
    pub fn end_to_end(&self) -> Result<Metrics, String> {
        let w = self.workload;
        let mut m = Metrics::new();
        let walls: Vec<f64> = self.untraced().map(|p| p.wall_s).collect();
        put(
            &mut m,
            "wall_s",
            median(&walls).ok_or("no untraced pass")?,
            "s",
        );
        let setup = median(&self.setup.rep_s).ok_or("no set-up repetition")?;
        put(&mut m, "setup_s", setup, "s");
        // Per-pass statistics, then their median over passes: a pass
        // slowed by a burst of host contention moves one sample, not
        // every total.
        let (mut p50s, mut rates, mut all) = (vec![], vec![], vec![]);
        for p in self.untraced() {
            let trials: Vec<_> = p.algos.iter().flat_map(|a| &a.trials).collect();
            let secs: Vec<f64> = trials.iter().map(|t| t.secs).collect();
            p50s.push(median(&secs).unwrap_or(0.0));
            all.extend(secs);
            let (node_rounds, busy) = trials
                .iter()
                .filter_map(|t| t.report.as_ref().ok().map(|r| (r, t.secs)))
                .fold((0.0, 0.0), |(nr, s), (r, secs)| {
                    (nr + r.n as f64 * r.rounds as f64, s + secs)
                });
            rates.push(node_rounds / busy);
        }
        put(&mut m, "trial_s.p50", median(&p50s).unwrap_or(0.0), "s");
        put(&mut m, "trial_s.samples", all.len() as f64, "count");
        if let Some(v) = p90(&all) {
            put(&mut m, "trial_s.p90", v, "s");
        }
        let rate = median(&rates).unwrap_or(0.0);
        put(&mut m, "node_rounds_per_s", rate, "node-rounds/s");
        put(&mut m, "peak_rss_mb", peak_rss_mib()?, "MiB");

        // Simulation outcomes: deterministic per seed, equal in every
        // pass (main checks the digests), so the first pass stands for
        // all.
        let first: Vec<&RunReport> = self.passes[0].reports().collect();
        let rounds = first.iter().map(|r| r.rounds as f64);
        put(&mut m, "rounds", mean(rounds), "count");
        let msgs = first.iter().map(|r| r.messages_per_node());
        put(&mut m, "msgs_per_node", mean(msgs), "count");
        put(
            &mut m,
            "coverage",
            mean(first.iter().map(|r| coverage(r))),
            "ratio",
        );
        let k = w.rumors();
        if k > 0 {
            let done = first
                .iter()
                .map(|r| r.rumors_completed() as f64 / f64::from(k));
            put(&mut m, "rumors_completed", mean(done), "ratio");
        }
        if w.probe_scenario().common().engine.is_async() {
            let vt = first.iter().map(|r| r.virtual_time);
            put(&mut m, "virtual_time", mean(vt), "time-units");
        }
        let (attempted, failed) = self.trial_counts();
        put(
            &mut m,
            "failed_frac",
            failed as f64 / attempted as f64,
            "ratio",
        );
        Ok(m)
    }

    /// The per-layer metrics, from the traced passes, the set-up and
    /// the engine probe.
    ///
    /// # Errors
    ///
    /// Returns a message if there is no traced or no untraced pass.
    pub fn per_layer(&self) -> Result<Metrics, String> {
        let mut m = Metrics::new();
        let traced: Vec<&Pass> = self.traced().collect();
        let med = |v: Vec<f64>| median(&v).ok_or("no traced pass");

        // harness: per traced pass, busy = Σ trial time and capacity =
        // Σ workers × harness-call time over the pass's calls.
        let (mut busy, mut idle, mut eff, mut own) = (vec![], vec![], vec![], vec![]);
        for p in &traced {
            let b: f64 = p.algos.iter().flat_map(|a| &a.trials).map(|t| t.secs).sum();
            let cap: f64 = p.algos.iter().map(|a| a.workers as f64 * a.wall_s).sum();
            busy.push(b);
            idle.push(cap - b);
            eff.push(b / cap);
            own.push(p.algos.iter().map(|a| self_time(self.spans, a.span)).sum());
        }
        put(&mut m, "harness.busy_s", med(busy)?, "s");
        put(&mut m, "harness.idle_s", med(idle)?, "s");
        put(&mut m, "harness.efficiency", med(eff)?, "ratio");
        put(&mut m, "harness.self_s", med(own)?, "s");

        // algo: timings over the traced passes, counts from the first.
        for (i, a) in self.passes[0].algos.iter().enumerate() {
            let key = &a.key;
            let runs: Vec<_> = traced.iter().map(|p| &p.algos[i]).collect();
            let secs: Vec<f64> = runs
                .iter()
                .flat_map(|r| &r.trials)
                .map(|t| t.secs)
                .collect();
            put(
                &mut m,
                format!("algo.{key}.trial_s.p50"),
                med(secs.clone())?,
                "s",
            );
            let node_rounds: f64 = runs
                .iter()
                .flat_map(|r| &r.trials)
                .filter_map(|t| t.report.as_ref().ok())
                .map(|r| r.n as f64 * r.rounds as f64)
                .sum();
            let ns = secs.iter().sum::<f64>() * 1e9 / node_rounds;
            put(&mut m, format!("algo.{key}.ns_per_node_round"), ns, "ns");
            let reports: Vec<&RunReport> = a
                .trials
                .iter()
                .filter_map(|t| t.report.as_ref().ok())
                .collect();
            let rounds = mean(reports.iter().map(|r| r.rounds as f64));
            put(&mut m, format!("algo.{key}.rounds"), rounds, "count");
            let messages = mean(reports.iter().map(|r| r.messages as f64));
            put(&mut m, format!("algo.{key}.messages"), messages, "count");
            let mut phases: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
            for r in &reports {
                for ph in &r.phases {
                    let e = phases.entry(ph.name).or_default();
                    e.0 += ph.rounds as f64 / reports.len() as f64;
                    e.1 += ph.messages as f64 / reports.len() as f64;
                }
            }
            for (name, (rounds, messages)) in phases {
                put(
                    &mut m,
                    format!("algo.{key}.phase.{name}.rounds"),
                    rounds,
                    "count",
                );
                put(
                    &mut m,
                    format!("algo.{key}.phase.{name}.messages"),
                    messages,
                    "count",
                );
            }
        }

        // network / events: the engine probe.
        if let Some(p) = self.probe {
            let round_s = median(&p.round_s).unwrap_or(0.0);
            put(&mut m, "network.round_s.p50", round_s, "s");
            put(&mut m, "network.ns_per_contact", p.ns_per(p.contacts), "ns");
            put(&mut m, "network.contacts", p.contacts as f64, "count");
            put(&mut m, "network.max_fan_in", p.max_fan_in as f64, "count");
            put(&mut m, "events.events", p.events as f64, "count");
            if p.events > 0 {
                put(&mut m, "events.ns_per_event", p.ns_per(p.events), "ns");
            }
        }

        // topology and dataset: the set-up calls and HyperBall.
        let s = self.setup;
        put(
            &mut m,
            "topology.build_s",
            median(&s.build_s).unwrap_or(0.0),
            "s",
        );
        put(&mut m, "topology.edges", s.edges as f64, "count");
        put(
            &mut m,
            "network.alloc_s",
            median(&s.alloc_s).unwrap_or(0.0),
            "s",
        );
        if let (Some(cold), Some(warm)) = (median(&s.load_cold_s), median(&s.load_warm_s)) {
            put(&mut m, "dataset.load_cold_s", cold, "s");
            put(&mut m, "dataset.load_warm_s", warm, "s");
            put(
                &mut m,
                "dataset.parse_mb_per_s",
                s.dataset_bytes as f64 / 1e6 / cold,
                "MB/s",
            );
        }
        if let Some((_, diameter)) = self.passes[0].hyperball {
            let hb = traced.iter().filter_map(|p| p.hyperball).map(|(t, _)| t);
            put(&mut m, "dataset.hyperball_s", med(hb.collect())?, "s");
            put(
                &mut m,
                "dataset.hyperball_diameter",
                f64::from(diameter),
                "count",
            );
        }

        // traffic: per-trial means from the first pass.
        let first: Vec<&RunReport> = self.passes[0].reports().collect();
        let payloads = first.iter().map(|r| r.rumor_payloads as f64);
        put(&mut m, "traffic.rumor_payloads", mean(payloads), "count");
        let drops = first.iter().map(|r| r.budget_drops as f64);
        put(&mut m, "traffic.budget_drops", mean(drops), "count");

        let walls = |traced: bool| {
            let v: Vec<f64> = self
                .passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.wall_s)
                .collect();
            median(&v).ok_or("the traced run needs a traced and an untraced pass")
        };
        put(
            &mut m,
            "trace.overhead_s",
            walls(true)? - walls(false)?,
            "s",
        );

        // Layers with no work on this workload count zero.
        for (name, unit) in per_layer() {
            if unit == "count" {
                m.entry(name).or_insert((0.0, unit));
            }
        }
        Ok(m)
    }
}

/// The `metrics` object of the result line: exactly the listed metrics.
///
/// # Errors
///
/// Returns the first listed metric this run did not measure.
pub fn result_metrics(m: &Metrics, names: &[(String, &'static str)]) -> Result<String, String> {
    let fields = names
        .iter()
        .map(|(name, unit)| {
            let (value, got) = m
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            if got != unit || !value.is_finite() {
                return Err(format!(
                    "metric {name} = {value} {got}, want a finite value in {unit}"
                ));
            }
            Ok(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` of one list in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed(&json, "per_layer"), layers);
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
        {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} listed with unit {unit}"
            );
        }
    }

    #[test]
    fn result_metrics_are_exact_and_finite() {
        let mut m = Metrics::new();
        put(&mut m, "a", 1.5, "s");
        put(&mut m, "b", f64::NAN, "s");
        let want = |n: &str| vec![(n.to_string(), "s")];
        assert_eq!(
            result_metrics(&m, &want("a")),
            Ok("{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}".into())
        );
        assert!(result_metrics(&m, &want("b")).is_err(), "NaN is refused");
        assert!(
            result_metrics(&m, &want("c")).is_err(),
            "missing is refused"
        );
        assert!(
            result_metrics(&m, &[("a".into(), "ms")]).is_err(),
            "unit mismatch"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("Linux /proc") > 0.0);
    }
}
