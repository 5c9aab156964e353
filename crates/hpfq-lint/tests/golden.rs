//! Golden tests: each rule is proven live against a fixture with known
//! violation lines, a clean fixture passes every rule, and `lint:allow`
//! suppression is honoured end-to-end. Every determinism-family fixture
//! (L007–L009, L011) carries both a violating and a suppressed case.
//!
//! Fixtures live in `tests/fixtures/` (not compiled — they reference
//! undeclared items on purpose). Hot-path scope is taint-derived, so the
//! fixtures for taint-scoped rules embed their own engine entry point
//! (`impl Network { pub fn run … }`).

use hpfq_lint::{lint_source, Finding};

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

/// Asserts the fixture also contains at least one *suppressed* finding of
/// `rule` — the allowlisted half of each fixture's violating/suppressed
/// pair — and that the suppression did not leak an L000/L011.
fn assert_suppressed_case(name: &str, rule: &str) {
    let findings = lint_fixture(name);
    assert!(
        findings.iter().any(|f| f.rule == rule && f.suppressed),
        "fixture {name}: expected a suppressed {rule} case, got {findings:?}"
    );
}

#[test]
fn l001_raw_vtime_comparisons() {
    assert_findings("l001.rs", &[("L001", 8), ("L001", 13), ("L001", 18)]);
}

#[test]
fn l002_hot_path_panics() {
    assert_findings("l002.rs", &[("L002", 15), ("L002", 17), ("L002", 19)]);
}

#[test]
fn l003_hardcoded_tolerances() {
    assert_findings("l003.rs", &[("L003", 6), ("L003", 8)]);
}

#[test]
fn l004_hashmaps() {
    assert_findings("l004.rs", &[("L004", 5), ("L004", 9)]);
}

#[test]
fn l005_float_int_casts() {
    assert_findings("l005.rs", &[("L005", 6), ("L005", 8)]);
}

#[test]
fn l006_ungated_observer_call() {
    assert_findings("l006.rs", &[("L006", 24)]);
}

#[test]
fn l007_wall_clock_in_sim() {
    assert_findings("l007.rs", &[("L007", 12), ("L007", 13)]);
    assert_suppressed_case("l007.rs", "L007");
}

#[test]
fn l008_pointer_identity() {
    assert_findings("l008.rs", &[("L008", 5), ("L008", 9), ("L008", 13)]);
    assert_suppressed_case("l008.rs", "L008");
}

#[test]
fn l009_unordered_iteration() {
    assert_findings("l009.rs", &[("L009", 11), ("L009", 12)]);
    assert_suppressed_case("l009.rs", "L009");
}

#[test]
fn l011_stale_allows() {
    // One stale allow (the L002 on a no-longer-hot fn); the second stale
    // allow is itself acknowledged via lint:allow(L011).
    assert_findings("l011.rs", &[("L011", 5)]);
    assert_suppressed_case("l011.rs", "L011");
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
    assert_eq!(rules, vec!["L001", "L002", "L005", "L004"]);
    // …but every one is suppressed, each by a reasoned directive.
    assert!(findings.iter().all(|f| f.suppressed), "{findings:?}");
    // And none of the allows is flagged bare (L000) or stale (L011).
    assert!(findings
        .iter()
        .all(|f| f.rule != "L000" && f.rule != "L011"));
}

#[test]
fn taint_replaces_crate_scoping() {
    // The same fixture carries its own entry point, so the findings are
    // identical whichever crate path it is linted under — hot-path scope
    // follows the call graph, not a crate list.
    let path = format!("{}/tests/fixtures/l002.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(path).unwrap();
    let in_obs = lint_source("crates/hpfq-obs/src/l002.rs", &src);
    let lines: Vec<(&str, u32)> = in_obs
        .iter()
        .filter(|f| !f.suppressed)
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(lines, vec![("L002", 15), ("L002", 17), ("L002", 19)]);
}

#[test]
fn pifo_rank_program_hot_path() {
    // The L002 hit inside `WfqRank::threshold` proves the PIFO dispatch
    // entry points (`PifoTree::select_next` & co.) seed the hot-path
    // taint, so rank programs — in-tree or external — are covered.
    assert_findings(
        "pifo_rank.rs",
        &[("L001", 16), ("L002", 17), ("L009", 24), ("L009", 25)],
    );
    assert_suppressed_case("pifo_rank.rs", "L009");
}
