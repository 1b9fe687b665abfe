//! The repository benchmark. One run measures one workload:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload clique_2e20 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It prints the run's fingerprint, a digest of every report, each
//! metric by name with its unit, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` carries
//! the end-to-end metrics, `--trace 1` the per-layer metrics and writes
//! every span to `.perfbench/`. See `perfbench/README.md`.

mod check;
mod measure;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Metrics, Run, END_TO_END};
use trace::Trace;

/// Where runs write: the traced run's span files, and per-process work
/// directories for generated inputs (removed when the run ends).
const OUT_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, read from `.git` without running git;
/// `"unknown"` outside a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workdir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let result = std::fs::create_dir_all(&workdir)
        .map_err(|e| format!("cannot create {}: {e}", workdir.display()))
        .and_then(|()| run(&args, &workdir));
    let _ = std::fs::remove_dir_all(&workdir);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_metrics(kind: &str, m: &Metrics) {
    for (name, (value, unit)) in m {
        println!("{kind:<6} {name:<48} {value:>18.6} {unit}");
    }
}

fn run(args: &Args, workdir: &Path) -> Result<(), String> {
    let epoch = Instant::now();
    // Generating the inputs is not timed.
    let w = workload::prepare(&args.workload, args.seed, workdir)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = gossip_harness::default_threads().min(nproc);

    let mut trace = Trace::new(epoch, args.trace);
    let mut setup = measure::setup(&w, &mut trace)?;

    // Closed loop over passes until the time budget would be overrun.
    // The traced run alternates untraced and traced passes, so tracing
    // overhead is their difference.
    let min_passes = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        trace.enabled = args.trace && passes.len() % 2 == 1;
        passes.push(measure::pass(&w, threads, setup.graph.as_ref(), &mut trace));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_passes && elapsed + per_pass / 2.0 > args.seconds {
            break;
        }
    }
    trace.enabled = args.trace;

    let probe = if args.trace {
        let root = trace.open("probe", None);
        let mut net = setup.net.take().expect("set-up ran at least once");
        let p = probe::run(&mut net, &mut trace, root);
        trace.close(root);
        Some(p)
    } else {
        None
    };

    let digests: Vec<u64> = passes.iter().map(|p| check::digest(p.reports())).collect();
    let mut problems = std::mem::take(&mut setup.problems);
    if digests.iter().any(|&d| d != digests[0]) {
        problems.push(format!(
            "passes disagree on the report digest: {digests:x?}"
        ));
    }
    let data = Run {
        workload: &w,
        setup: &setup,
        passes: &passes,
        probe: probe.as_ref(),
        spans: &trace.spans,
    };
    let (attempted, failed) = data.trial_counts();
    for t in passes.iter().flat_map(|p| &p.algos).flat_map(|a| &a.trials) {
        if let Some(f) = &t.failure {
            eprintln!("perfbench: failed trial: {f}");
        }
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }

    let gossip_threads = std::env::var("GOSSIP_THREADS").unwrap_or_else(|_| "unset".into());
    let fingerprint = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \"gossip_threads\": \"{gossip_threads}\", \"commit\": \"{}\", \"n\": {}, \"trials_per_pass\": {}, \"passes\": {}, \"setup_reps\": {}}}",
        w.name,
        w.seed,
        args.seconds,
        args.trace,
        git_commit(),
        w.n,
        w.trials_per_pass(),
        passes.len(),
        setup.rep_s.len(),
    );
    println!("fingerprint {fingerprint}");
    println!(
        "digest {} {:016x} ({} reports per pass)",
        w.name,
        digests[0],
        passes[0].reports().count()
    );

    for (i, p) in passes.iter().enumerate() {
        let kind = if p.traced { "traced" } else { "untraced" };
        println!("pass   {i:<3} {kind:<9} {:>12.6} s", p.wall_s);
    }
    let e2e = data.end_to_end()?;
    print_metrics("e2e", &e2e);
    let carried = if args.trace {
        let layers = data.per_layer()?;
        print_metrics("layer", &layers);
        let self_s = trace::self_times(&trace.spans);
        for (name, s) in &self_s {
            println!("self   {name:<48} {s:>18.6} s");
        }
        write_trace(&w, &fingerprint, &trace.spans, &self_s, &layers)?;
        metrics::result_metrics(&layers, &metrics::per_layer())?
    } else {
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        metrics::result_metrics(&e2e, &names)?
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {carried}}}",
        failed == 0 && problems.is_empty()
    );
    Ok(())
}

/// Writes the fingerprint, every per-layer metric, the self time per
/// span name and every span to `.perfbench/trace-<workload>-seed<n>.json`.
fn write_trace(
    w: &workload::Workload,
    fingerprint: &str,
    spans: &[trace::Span],
    self_s: &std::collections::BTreeMap<&str, f64>,
    layers: &Metrics,
) -> Result<(), String> {
    let layers: Vec<String> = layers
        .iter()
        .map(|(n, (v, u))| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    let self_s: Vec<String> = self_s
        .iter()
        .map(|(n, s)| format!("\"{n}\": {s}"))
        .collect();
    let body = format!(
        "{{\"fingerprint\": {fingerprint},\n\"layers\": {{{}}},\n\"self_s\": {{{}}},\n\"spans\": {}}}\n",
        layers.join(", "),
        self_s.join(", "),
        trace::spans_json(spans)
    );
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", w.name, w.seed));
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace {}", path.display());
    Ok(())
}
