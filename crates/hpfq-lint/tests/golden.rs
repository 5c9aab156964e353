//! Golden tests: each rule is proven live against a fixture with known
//! violation lines, a clean fixture passes every rule, `lint:allow`
//! suppression is honoured end-to-end, and the workspace itself has no
//! unsuppressed finding.
//!
//! The retired IDs (L002, L004, L007–L009) are pinned where their rules
//! live now — the root `clippy.toml` and the crate-root lint lists — so
//! deleting one of those entries fails here instead of silently passing
//! clippy.
//!
//! Fixtures live in `tests/fixtures/` (not compiled — they reference
//! undeclared items on purpose).

use hpfq_lint::{lint_source, lint_workspace, Finding};

/// Lints a fixture as if it sat in `hpfq-core`.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_source(&format!("crates/hpfq-core/src/{name}"), &src)
}

/// Asserts the fixture produces exactly `expected` unsuppressed
/// `(rule, line)` findings, in order.
fn assert_findings(name: &str, expected: &[(&str, u32)]) {
    let got: Vec<(String, u32)> = lint_fixture(name)
        .into_iter()
        .filter(|f| !f.suppressed)
        .map(|f| (f.rule.to_string(), f.line))
        .collect();
    let want: Vec<(String, u32)> = expected.iter().map(|(r, l)| (r.to_string(), *l)).collect();
    assert_eq!(got, want, "fixture {name}");
}

/// A file of the workspace, by its path from the workspace root.
fn workspace_file(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Asserts the root `clippy.toml` lists every one of `paths` under `key`
/// (`disallowed-types` or `disallowed-methods`).
fn assert_clippy_bans(key: &str, paths: &[&str]) {
    let toml = workspace_file("clippy.toml");
    let list = toml
        .split_once(&format!("{key} = ["))
        .and_then(|(_, rest)| rest.split_once("\n]"))
        .map_or("", |(list, _)| list);
    for p in paths {
        assert!(
            list.contains(&format!("path = \"{p}\"")),
            "clippy.toml: {key} lacks {p}"
        );
    }
}

#[test]
fn l001_raw_vtime_comparisons() {
    assert_findings("l001.rs", &[("L001", 8), ("L001", 13), ("L001", 18)]);
}

/// The crates the per-packet path runs in warn on every panic family at
/// their root.
#[test]
fn l002_hot_path_panics() {
    let lints = [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ]
    .map(|lint| format!("\n    clippy::{lint},"))
    .concat();
    let attr = format!("#![warn({}\n)]", lints.trim_end_matches(','));
    for krate in ["events", "core", "sim", "tcp", "obs"] {
        let root = workspace_file(&format!("crates/hpfq-{krate}/src/lib.rs"));
        assert!(root.contains(&attr), "hpfq-{krate} lacks {attr}");
    }
}

#[test]
fn l003_hardcoded_tolerances() {
    assert_findings("l003.rs", &[("L003", 6), ("L003", 8)]);
}

#[test]
fn l004_hashmaps() {
    assert_clippy_bans(
        "disallowed-types",
        &[
            "std::collections::HashMap",
            "std::collections::hash_map::RandomState",
        ],
    );
}

#[test]
fn l005_float_int_casts() {
    assert_findings("l005.rs", &[("L005", 6), ("L005", 8)]);
}

#[test]
fn l006_ungated_observer_call() {
    assert_findings("l006.rs", &[("L006", 16)]);
}

#[test]
fn l007_wall_clock_in_sim() {
    assert_clippy_bans(
        "disallowed-types",
        &["std::time::Instant", "std::time::SystemTime"],
    );
    assert_clippy_bans("disallowed-methods", &["std::thread::current"]);
}

#[test]
fn l008_pointer_identity() {
    assert_clippy_bans(
        "disallowed-methods",
        &["std::ptr::eq", "std::ptr::hash", "std::ptr::addr_eq"],
    );
}

#[test]
fn l009_unordered_iteration() {
    assert_clippy_bans("disallowed-types", &["std::collections::HashSet"]);
}

#[test]
fn l011_stale_allows() {
    // One stale allow (the L005 on an integer cast); the second stale
    // allow is itself acknowledged via lint:allow(L011).
    assert_findings("l011.rs", &[("L011", 5)]);
    let findings = lint_fixture("l011.rs");
    assert!(
        findings.iter().any(|f| f.rule == "L011" && f.suppressed),
        "{findings:?}"
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert_findings("clean.rs", &[]);
}

#[test]
fn allowed_fixture_is_fully_suppressed() {
    let findings = lint_fixture("allowed.rs");
    // The violations ARE detected…
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["L001", "L005", "L006"]);
    // …but every one is suppressed, each by a reasoned directive.
    assert!(findings.iter().all(|f| f.suppressed), "{findings:?}");
    // And none of the allows is flagged bare (L000) or stale (L011).
    assert!(findings
        .iter()
        .all(|f| f.rule != "L000" && f.rule != "L011"));
}

/// The scan CI blocks on: `src/` and `crates/*/src/` of this repository
/// carry no finding a reasoned `lint:allow` does not cover.
#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let findings = lint_workspace(root).expect("the workspace sources are readable");
    assert!(
        findings.iter().any(|f| f.suppressed),
        "the scan found no allowlisted finding: is it reading the workspace?"
    );
    let live: Vec<String> = findings
        .iter()
        .filter(|f| !f.suppressed)
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        live.is_empty(),
        "{} unsuppressed finding(s):\n{}",
        live.len(),
        live.join("\n")
    );
}
