//! detlint's own regression suite: every rule family demonstrated on a
//! bad fixture it must catch and a good fixture it must stay silent on,
//! plus the suppression semantics, the collision grouping, and the
//! registry round-trip.
//!
//! The star fixture is the *real* pre-fix `topology.rs` retry loop —
//! the variable-label hazard this linter was built to catch (`attempt`
//! counting straight through the engine's reserved labels on the
//! shared scenario seed) — paired with the nested-stream form the fix
//! introduced, which must lint clean.

use gossip_lint::{lint_files, LintReport, Rule, SourceFile};

fn lint(files: &[(&str, &str)]) -> LintReport {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|&(path, text)| SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect();
    lint_files(&files, None)
}

/// Unsuppressed findings of one rule, as `(path, line)`.
fn fired(report: &LintReport, rule: Rule) -> Vec<(String, u32)> {
    report
        .unsuppressed()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.clone(), f.line))
        .collect()
}

// ---------------------------------------------------------------- deny

#[test]
fn hash_order_fires_in_sim_crates_only() {
    let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    let report = lint(&[("crates/core/src/x.rs", src)]);
    assert_eq!(fired(&report, Rule::HashOrder).len(), 3, "{report:?}");

    // Outside the four simulation crates the same code is fine: the
    // harness/bench layer may hash freely.
    let report = lint(&[("crates/harness/src/x.rs", src)]);
    assert!(fired(&report, Rule::HashOrder).is_empty());
    let report = lint(&[("tests/x.rs", src)]);
    assert!(fired(&report, Rule::HashOrder).is_empty());
}

#[test]
fn wall_clock_and_ambient_rng_and_env_reads_fire() {
    let src = r#"
fn f() {
    let t = std::time::Instant::now();
    let s = SystemTime::now();
    let mut rng = rand::thread_rng();
    let x: u64 = rand::random();
    let v = std::env::var("GOSSIP_THREADS");
}
"#;
    let report = lint(&[("crates/phonecall/src/x.rs", src)]);
    assert_eq!(fired(&report, Rule::WallClock).len(), 2);
    assert_eq!(fired(&report, Rule::AmbientRng).len(), 2);
    assert_eq!(fired(&report, Rule::EnvRead).len(), 1);
}

#[test]
fn env_family_matches_reads_not_modules() {
    // `std::env::temp_dir()` and a bare `env` path segment are not reads.
    let src = "fn f() { let d = std::env::temp_dir(); }\n";
    let report = lint(&[("crates/core/src/x.rs", src)]);
    assert!(fired(&report, Rule::EnvRead).is_empty());
}

#[test]
fn deny_tokens_inside_strings_and_comments_are_invisible() {
    let src = r#"
// A HashMap would be nondeterministic here, so we do not use one.
fn f() -> &'static str { "HashMap thread_rng Instant" }
"#;
    let report = lint(&[("crates/core/src/x.rs", src)]);
    assert!(report.unsuppressed().next().is_none() || fired(&report, Rule::HashOrder).is_empty());
}

// -------------------------------------------------------------- unsafe

#[test]
fn unsafe_tokens_fire_everywhere_and_allow_file_covers_them() {
    let bad = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    let report = lint(&[("crates/phonecall/tests/t.rs", bad)]);
    assert_eq!(fired(&report, Rule::UnsafeCode).len(), 1);

    let audited = "// detlint: allow-file(unsafe_code) — test shim, defers to System\n\
                   fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    let report = lint(&[("crates/phonecall/tests/t.rs", audited)]);
    assert!(fired(&report, Rule::UnsafeCode).is_empty());
    assert_eq!(report.suppressed().count(), 1);
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let bare = "pub fn f() {}\n";
    let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    for root in [
        "src/lib.rs",
        "crates/foo/src/lib.rs",
        "crates/foo/src/main.rs",
        "crates/foo/src/bin/exp.rs",
    ] {
        assert_eq!(fired(&lint(&[(root, bare)]), Rule::ForbidUnsafe).len(), 1);
        assert!(fired(&lint(&[(root, good)]), Rule::ForbidUnsafe).is_empty());
    }
    // Non-roots carry no such obligation.
    assert!(fired(&lint(&[("crates/foo/src/x.rs", bare)]), Rule::ForbidUnsafe).is_empty());
    assert!(fired(&lint(&[("tests/x.rs", bare)]), Rule::ForbidUnsafe).is_empty());
}

// ------------------------------------------------------------- streams

/// The real hazard this linter exists for: `topology.rs` as it stood
/// before the fix, `attempt` walking labels 0..64 on the shared
/// scenario seed — straight through the engine's reserved streams.
const PRE_FIX_TOPOLOGY: &str = r"
const BUILD_ATTEMPTS: u64 = 64;
pub fn build(n: usize, seed: u64) {
    for attempt in 0..BUILD_ATTEMPTS {
        let mut rng = rng_from_seed(derive_seed(seed, attempt));
    }
}
";

#[test]
fn variable_label_on_shared_parent_fires() {
    let report = lint(&[("crates/phonecall/src/topology.rs", PRE_FIX_TOPOLOGY)]);
    assert_eq!(
        fired(&report, Rule::StreamLabel),
        vec![("crates/phonecall/src/topology.rs".to_string(), 5)]
    );
}

#[test]
fn variable_label_on_private_nested_stream_is_clean() {
    let fixed = r"
const RETRY_STREAM: u64 = 0x7e7a;
pub fn build(n: usize, seed: u64) {
    for attempt in 0..64u64 {
        let mut rng = rng_from_seed(if attempt == 0 {
            derive_seed(seed, 0)
        } else {
            derive_seed(derive_seed(seed, RETRY_STREAM), attempt)
        });
    }
}
";
    let report = lint(&[("crates/phonecall/src/topology.rs", fixed)]);
    assert!(fired(&report, Rule::StreamLabel).is_empty(), "{report:?}");
    // Three sites extracted: the two fixed-label calls and the outer
    // variable-label call on the private stream.
    assert_eq!(report.streams.len(), 3);
}

#[test]
fn rustfmt_trailing_commas_do_not_hide_call_sites() {
    // rustfmt wraps long calls across lines and adds a trailing comma;
    // the site must still be extracted (and still flag its hazard).
    let src = r"
fn f(cfg: &C, attempt: u64) -> u64 {
    phonecall::derive_seed(
        phonecall::derive_seed(cfg.common.seed, GUESS_STREAM),
        attempt,
    )
}
";
    let report = lint(&[("crates/core/src/x.rs", src)]);
    assert_eq!(report.streams.len(), 2, "{:?}", report.streams);
    assert!(fired(&report, Rule::StreamLabel).is_empty(), "{report:?}");
}

#[test]
fn variable_label_on_literal_parent_is_clean() {
    let src = "fn f(k: u64) -> u64 { derive_seed(0xE4, k) }\n";
    let report = lint(&[("crates/lowerbound/src/x.rs", src)]);
    assert!(fired(&report, Rule::StreamLabel).is_empty());
}

#[test]
fn non_reserved_label_collisions_fire_across_files_and_field_paths() {
    // `cfg.seed` and `self.seed` are the same scenario seed threaded
    // through different structs — the trailing-segment grouping must
    // see the collision across the two crates.
    let a = "fn f(cfg: &C) -> u64 { derive_seed(cfg.seed, 42) }\n";
    let b = "fn g(&self) -> u64 { derive_seed(self.seed, 42) }\n";
    let report = lint(&[
        ("crates/core/src/a.rs", a),
        ("crates/phonecall/src/b.rs", b),
    ]);
    let hits = fired(&report, Rule::StreamCollision);
    assert_eq!(hits, vec![("crates/phonecall/src/b.rs".to_string(), 1)]);
}

#[test]
fn reserved_engine_labels_may_repeat() {
    // One scenario seed deliberately yields one churn schedule / one
    // topology no matter which crate derives it.
    let a = "fn f(seed: u64) -> u64 { derive_seed(seed, 4) }\n";
    let b = "fn g(seed: u64) -> u64 { derive_seed(seed, 4) }\n";
    let report = lint(&[
        ("crates/core/src/a.rs", a),
        ("crates/baselines/src/b.rs", b),
    ]);
    assert!(fired(&report, Rule::StreamCollision).is_empty());
}

#[test]
fn unit_test_modules_are_outside_the_registry() {
    let src = r"
pub fn f(seed: u64) -> u64 { derive_seed(seed, 9) }

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let s = derive_seed(1, 2);
        let t = derive_seed(s, 9);
    }
}
";
    let report = lint(&[("crates/core/src/x.rs", src)]);
    assert_eq!(report.streams.len(), 1, "{:?}", report.streams);
    assert_eq!(report.streams[0].line, 2);
}

#[test]
fn stream_extraction_skips_the_definition_and_test_scope() {
    let src = "pub fn derive_seed(seed: u64, label: u64) -> u64 { seed ^ label }\n";
    let report = lint(&[("crates/phonecall/src/rng.rs", src)]);
    assert!(report.streams.is_empty());
    // Integration tests and examples are out of stream scope entirely.
    let call = "fn f(seed: u64) -> u64 { derive_seed(seed, 3) }\n";
    assert!(lint(&[("tests/x.rs", call)]).streams.is_empty());
    assert!(lint(&[("examples/x.rs", call)]).streams.is_empty());
}

// -------------------------------------------------------- suppressions

#[test]
fn trailing_and_next_line_suppressions_cover_their_sites() {
    let trailing = "use std::collections::HashMap; // detlint: allow(hash_order) — lookup-only\n";
    let report = lint(&[("crates/core/src/x.rs", trailing)]);
    assert!(fired(&report, Rule::HashOrder).is_empty());
    assert_eq!(report.suppressed().count(), 1);

    let own_line = "// detlint: allow(hash_order) — lookup-only\nuse std::collections::HashMap;\n";
    let report = lint(&[("crates/core/src/x.rs", own_line)]);
    assert!(fired(&report, Rule::HashOrder).is_empty());

    // The suppression covers only its line, not the rest of the file.
    let elsewhere =
        "// detlint: allow(hash_order) — lookup-only\nfn f() {}\nuse std::collections::HashMap;\n";
    let report = lint(&[("crates/core/src/x.rs", elsewhere)]);
    assert_eq!(fired(&report, Rule::HashOrder).len(), 1);
}

#[test]
fn malformed_suppressions_are_findings_and_do_not_silence() {
    // No justification.
    let bare = "use std::collections::HashMap; // detlint: allow(hash_order)\n";
    let report = lint(&[("crates/core/src/x.rs", bare)]);
    assert_eq!(fired(&report, Rule::BadSuppression).len(), 1);
    assert_eq!(fired(&report, Rule::HashOrder).len(), 1, "must not silence");

    // Unknown rule.
    let unknown = "fn f() {} // detlint: allow(hash_maps) — wrong name\n";
    let report = lint(&[("crates/core/src/x.rs", unknown)]);
    assert_eq!(fired(&report, Rule::BadSuppression).len(), 1);

    // Unsuppressible rule.
    let golden = "fn f() {} // detlint: allow(golden_table) — please\n";
    let report = lint(&[("tests/x.rs", golden)]);
    assert_eq!(fired(&report, Rule::BadSuppression).len(), 1);
}

#[test]
fn stale_suppressions_are_findings() {
    // A line-scoped allow over a line with no finding of its rule.
    let line = "fn f() {} // detlint: allow(hash_order) — lookup-only\n";
    let report = lint(&[("crates/core/src/x.rs", line)]);
    assert_eq!(
        fired(&report, Rule::BadSuppression),
        vec![("crates/core/src/x.rs".to_string(), 1)]
    );
    let message = stale_message(&report);
    assert!(message.contains("allow(hash_order)"), "{message}");

    // A file-scoped allow whose hazard was deleted: the comment on
    // line 2 is reported, naming its rule.
    let file =
        "fn f() {}\n// detlint: allow-file(hash_order) — the map is lookup-only\nfn g() {}\n";
    let report = lint(&[("crates/phonecall/src/id.rs", file)]);
    assert_eq!(
        fired(&report, Rule::BadSuppression),
        vec![("crates/phonecall/src/id.rs".to_string(), 2)]
    );
    let message = stale_message(&report);
    assert!(message.contains("allow-file(hash_order)"), "{message}");

    // An allow for one rule is stale even where another rule fires.
    let other = "use std::collections::HashMap; // detlint: allow(wall_clock) — not a clock\n";
    let report = lint(&[("crates/core/src/x.rs", other)]);
    assert_eq!(fired(&report, Rule::BadSuppression).len(), 1);
    assert_eq!(fired(&report, Rule::HashOrder).len(), 1);

    // A suppression that covers a finding is in use, not stale.
    let used = "// detlint: allow-file(hash_order) — lookup-only\nuse std::collections::HashMap;\n";
    let report = lint(&[("crates/core/src/x.rs", used)]);
    assert!(
        fired(&report, Rule::BadSuppression).is_empty(),
        "{report:?}"
    );
    assert!(fired(&report, Rule::HashOrder).is_empty());
}

fn stale_message(report: &LintReport) -> &str {
    &report
        .unsuppressed()
        .find(|f| f.rule == Rule::BadSuppression)
        .expect("a bad_suppression finding")
        .message
}

#[test]
fn doc_comments_mentioning_directives_are_prose() {
    let src = "//! Suppress with `detlint: allow(hash_order)` and a reason.\n\
               /// See `detlint: allow-file(unsafe_code)` in the alloc test.\n\
               fn f() {}\n";
    let report = lint(&[("crates/core/src/x.rs", src)]);
    assert!(
        fired(&report, Rule::BadSuppression).is_empty(),
        "{report:?}"
    );
    assert_eq!(report.suppressed().count(), 0);
}

// ------------------------------------------------------- golden tables

/// Builds a minimal well-formed `golden_reports.rs` body, then lets the
/// caller vandalize one table's rows.
fn golden_fixture(vandalize: impl Fn(&str, &mut Vec<String>)) -> String {
    let mut out = String::new();
    for &(table, arity) in gossip_lint::goldens::TABLES {
        let mut rows: Vec<String> = gossip_lint::goldens::ALGORITHMS
            .iter()
            .map(|algo| {
                if arity == 3 {
                    format!("    (\"{algo}\", 64, 1, 10, 20, 30, 64),")
                } else {
                    format!("    (\"{algo}\", \"grid/x\", 10, 20, 30, 64),")
                }
            })
            .collect();
        vandalize(table, &mut rows);
        out.push_str(&format!("const {table}: &[Golden] = &[\n"));
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
        out.push_str("];\n");
    }
    out
}

#[test]
fn coherent_golden_tables_lint_clean() {
    let text = golden_fixture(|_, _| {});
    let report = lint(&[("tests/golden_reports.rs", text.as_str())]);
    assert!(fired(&report, Rule::GoldenTable).is_empty(), "{report:?}");
}

#[test]
fn duplicate_rows_missing_algorithms_and_strays_are_findings() {
    // Duplicate grid key: the duplicate itself, plus the uneven
    // coverage it creates.
    let text = golden_fixture(|t, rows| {
        if t == "CHURN_GOLDEN" {
            rows.push(rows[0].clone());
        }
    });
    let report = lint(&[("tests/golden_reports.rs", text.as_str())]);
    assert_eq!(fired(&report, Rule::GoldenTable).len(), 2, "{report:?}");

    // An algorithm dropped from one table: one missing-coverage finding.
    let text = golden_fixture(|t, rows| {
        if t == "TRAFFIC_GOLDEN" {
            rows.retain(|r| !r.contains("NameDropper"));
        }
    });
    let report = lint(&[("tests/golden_reports.rs", text.as_str())]);
    assert_eq!(fired(&report, Rule::GoldenTable).len(), 1, "{report:?}");

    // A row pinning an algorithm the registry does not know.
    let text = golden_fixture(|t, rows| {
        if t == "GOLDEN" {
            rows.push("    (\"Cluster9\", 64, 1, 1, 2, 3, 64),".to_string());
        }
    });
    let report = lint(&[("tests/golden_reports.rs", text.as_str())]);
    assert_eq!(fired(&report, Rule::GoldenTable).len(), 1, "{report:?}");

    // Uneven coverage: one algorithm pinned at more grid points.
    let text = golden_fixture(|t, rows| {
        if t == "DATASET_GOLDEN" {
            rows.push("    (\"Push\", \"grid/y\", 1, 2, 3, 64),".to_string());
        }
    });
    let report = lint(&[("tests/golden_reports.rs", text.as_str())]);
    assert_eq!(fired(&report, Rule::GoldenTable).len(), 1, "{report:?}");

    // A table missing wholesale.
    let text = golden_fixture(|_, _| {}).replace("const GOLDEN:", "const OLDEN:");
    let report = lint(&[("tests/golden_reports.rs", text.as_str())]);
    assert_eq!(fired(&report, Rule::GoldenTable).len(), 1, "{report:?}");
}

// ------------------------------------------------------------ registry

#[test]
fn registry_round_trips_and_drift_is_detected() {
    let files = [(
        "crates/core/src/x.rs",
        "fn f(seed: u64) -> u64 { derive_seed(seed, 3) }\n",
    )];
    // No committed registry: drift.
    let report = lint(&files);
    assert_eq!(fired(&report, Rule::RegistryDrift).len(), 1);

    // The fresh rendering, committed verbatim: clean and stable.
    let fresh = gossip_lint::registry::render(&report.streams);
    assert!(fresh.contains("crates/core/src/x.rs\tseed\t3\tliteral"));
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|&(p, t)| SourceFile {
            path: p.to_string(),
            text: t.to_string(),
        })
        .collect();
    let report = lint_files(&sources, Some(&fresh));
    assert!(fired(&report, Rule::RegistryDrift).is_empty());

    // Any stream change shows up as drift against the old commit.
    let changed = [(
        "crates/core/src/x.rs",
        "fn f(seed: u64) -> u64 { derive_seed(seed, 9) }\n",
    )];
    let sources: Vec<SourceFile> = changed
        .iter()
        .map(|&(p, t)| SourceFile {
            path: p.to_string(),
            text: t.to_string(),
        })
        .collect();
    let report = lint_files(&sources, Some(&fresh));
    assert_eq!(fired(&report, Rule::RegistryDrift).len(), 1);
}
