//! # hpfq-lint — a dependency-free static-analysis pass for virtual-time
//! # correctness and determinism
//!
//! The schedulers in this workspace are `f64` tag machines: one raw `<`
//! where a tolerance-aware comparison was needed (or vice versa) silently
//! changes dispatch order, and one `HashMap` iteration silently breaks
//! run-to-run determinism. `rustc` and `clippy` cannot see these
//! domain-level rules, so this crate enforces them:
//!
//! | rule | checks |
//! |------|--------|
//! | L001 | raw f64 comparisons on virtual-time identifiers outside `vtime` |
//! | L002 | `unwrap`/`expect`/panic macros in hot-path-tainted functions |
//! | L003 | hard-coded tolerance literals outside the canonical `vtime::EPS` |
//! | L004 | `HashMap` (non-deterministic iteration) in simulation state |
//! | L005 | `as` float→integer casts in byte/length accounting |
//! | L006 | observer hook calls not gated behind `O::ENABLED` |
//! | L007 | wall-clock / entropy sources in simulation crates |
//! | L008 | pointer identity used as an ordering or hash key |
//! | L009 | `HashSet` / unordered iteration feeding observable output |
//! | L011 | stale `lint:allow` suppressions matching no finding |
//!
//! Analysis is a hand-rolled tokenizer ([`lexer`]) plus a lightweight
//! workspace symbol table ([`symbols`]) and call graph ([`callgraph`]) —
//! no `syn`, no external dependencies, so the pass runs in the offline CI
//! image. Hot-path scope is *computed*, not configured: the call graph
//! propagates taint from the engine entry points (`Network::run`, the
//! `PifoTree` dispatch surface, the `EventQueue`/`Engine` ops), so L002/L006 follow the
//! code wherever it moves, and a crate is a "simulation crate" (L007/L009
//! scope) iff it contains a hot function. Intentional exceptions are
//! allowlisted in place:
//!
//! ```text
//! // lint:allow(L002): head exists — is_empty() checked on the line above
//! let pkt = self.queue.pop().expect("non-empty");
//! ```
//!
//! The directive covers its own line and the next code line (comment
//! continuation lines in between are fine), requires a `: reason`, and
//! accepts a comma-separated rule list. Allowlist hygiene is itself
//! linted: a bare allow is L000, and an allow that no longer matches any
//! finding is L011 (stale). Run with
//! `cargo run -p hpfq-lint -- --workspace` (`--deny` for a non-zero exit
//! on violations, `--json` for the machine-readable report,
//! `--explain L00x` for a rule's rationale and fix).
//!
//! ## Scan scope
//!
//! `--workspace` scans `src/` and `crates/*/src/` under the root —
//! production code only. `tests/`, `benches/`, and `examples/` are out of
//! scope by design: the disciplines the rules enforce (no panics, gated
//! observers, canonical tolerances) are hot-path properties, and test code
//! legitimately uses `unwrap`, ad-hoc tolerances, and fixture literals.
//!
//! ## Determinism of the report itself
//!
//! Findings are globally sorted by `(file, line, rule, message)` and paths
//! are normalised to forward-slash relative form, so the JSON report is
//! byte-identical regardless of directory-walk order or platform —
//! the linter practices what it lints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod callgraph;
pub mod determinism;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;

pub use engine::{FileCtx, FileView, Finding};
pub use rules::{check_file, explain, Rule, RULES};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Lints a set of sources as one workspace: builds the symbol table and
/// call graph over *all* files, propagates the hot-path taint, then runs
/// every rule plus the allowlist-hygiene post-passes (L000 bare allows,
/// L011 stale allows).
///
/// Each element is `(rel_path, source)`; the path determines the crate
/// (`crates/<name>/…`) and appears in diagnostics. Findings are globally
/// sorted by `(file, line, rule, message)` for byte-deterministic output.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let ctxs: Vec<FileCtx> = sources
        .iter()
        .map(|(path, src)| FileCtx::new(path.clone(), report::crate_of(path), src))
        .collect();
    let st = symbols::SymbolTable::build(&ctxs);
    let cg = callgraph::CallGraph::build(&st);
    let hot = cg.reach(&st, callgraph::is_hot_seed);
    let sim_crates: BTreeSet<String> = st
        .fns
        .iter()
        .enumerate()
        .filter(|&(i, _)| hot[i])
        .map(|(_, f)| f.krate.clone())
        .collect();

    let mut all = Vec::new();
    for (file, ctx) in ctxs.iter().enumerate() {
        let view = FileView::build(ctx, file, &st, &hot, &sim_crates);
        let mut findings = rules::check_file(ctx, &view);

        // L000 — a bare `lint:allow` without a reason is itself a
        // violation: the reason is the audit trail.
        for s in &ctx.suppressions {
            if !s.has_reason {
                findings.push(Finding {
                    rule: "L000",
                    file: ctx.path.clone(),
                    line: s.line,
                    message: format!(
                        "lint:allow({}) without a `: reason` — every allowlist entry must say why",
                        s.rules.join(", ")
                    ),
                    suppressed: false,
                });
            }
        }

        // L011 — a reasoned allow that matches no finding of the named
        // rule on the lines it covers is stale: the violation it excused
        // was fixed (or rule scoping changed), and the dead entry would
        // silently excuse a future unrelated violation.
        let mut stale = Vec::new();
        for s in &ctx.suppressions {
            if !s.has_reason {
                continue;
            }
            for r in &s.rules {
                if r == "L011" {
                    continue;
                }
                let matched = findings
                    .iter()
                    .any(|f| f.rule == r.as_str() && f.suppressed && ctx.covers(s, f.line));
                if !matched {
                    stale.push(Finding {
                        rule: "L011",
                        file: ctx.path.clone(),
                        line: s.line,
                        message: format!(
                            "stale lint:allow({r}): no {r} finding on the lines it covers — \
                             remove the directive or re-justify it against a live finding"
                        ),
                        suppressed: ctx.is_suppressed("L011", s.line),
                    });
                }
            }
        }
        findings.extend(stale);
        all.extend(findings);
    }

    all.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    all
}

/// Lints one source string, as if read from `rel_path` (used for crate
/// resolution and in diagnostics). Single-file convenience over
/// [`lint_sources`] — taint seeds must be visible within the file.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), src.to_string())])
}

/// Collects the production `.rs` files of the workspace rooted at `root`:
/// `src/**` plus `crates/*/src/**`, sorted for deterministic output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Normalises a path to scan-root-relative, forward-slash form.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints a set of files on disk as one workspace; `root` anchors the
/// relative paths used in diagnostics.
pub fn lint_files(root: &Path, paths: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let sources: std::io::Result<Vec<(String, String)>> = paths
        .iter()
        .map(|p| Ok((rel_path(root, p), std::fs::read_to_string(p)?)))
        .collect();
    Ok(lint_sources(&sources?))
}

/// Lints the whole workspace under `root`: all production files are
/// analysed together so cross-crate taint propagation sees every edge.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    lint_files(root, &workspace_files(root)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_allow_is_reported_as_l000() {
        let f = lint_source(
            "crates/hpfq-sim/src/x.rs",
            "// lint:allow(L004)\nlet m = 1;",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "L000");
    }

    #[test]
    fn taint_crosses_files_in_lint_sources() {
        // Network::run in file A calls a method defined in file B (another
        // crate); the callee's unwrap must be flagged even though file B
        // alone contains no entry point.
        let sources = vec![
            (
                "crates/hpfq-sim/src/network.rs".to_string(),
                "impl Network { pub fn run(&mut self) { self.sched.dispatch(); } }".to_string(),
            ),
            (
                "crates/hpfq-core/src/sched.rs".to_string(),
                "impl Sched { pub fn dispatch(&mut self) { self.q.pop().unwrap(); } }".to_string(),
            ),
        ];
        let f = lint_sources(&sources);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L002");
        assert_eq!(f[0].file, "crates/hpfq-core/src/sched.rs");
    }

    #[test]
    fn stale_allow_is_reported_as_l011() {
        // The allow names L002 but the fn is not hot, so no L002 finding
        // exists and the allow is stale.
        let src =
            "fn cold() {\n    // lint:allow(L002): was hot before the refactor\n    x.unwrap();\n}";
        let f = lint_source("crates/hpfq-core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L011");
        assert_eq!(f[0].line, 2);
        assert!(!f[0].suppressed);
    }

    #[test]
    fn live_allow_is_not_stale() {
        let src = "impl Network { pub fn run(&mut self) {\n    // lint:allow(L002): invariant: queue non-empty here\n    x.unwrap();\n} }";
        let f = lint_source("crates/hpfq-sim/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L002");
        assert!(f[0].suppressed);
    }

    #[test]
    fn stale_allow_can_itself_be_allowlisted() {
        let src = "fn cold() {\n    // lint:allow(L011): keeping L002 allow for the planned re-hot refactor\n    // lint:allow(L002): will be hot again after ROADMAP item 2\n    x.unwrap();\n}";
        let f = lint_source("crates/hpfq-core/src/x.rs", src);
        // The stale-L002 finding (L011) lands on line 3 — a comment line —
        // which the L011 directive on line 2 covers, because a directive's
        // span runs through the next code line inclusive.
        let l011: Vec<_> = f.iter().filter(|f| f.rule == "L011").collect();
        assert_eq!(l011.len(), 1, "{f:?}");
        assert!(l011[0].suppressed);
    }

    #[test]
    fn findings_are_globally_sorted_and_stable() {
        let sources = vec![
            (
                "crates/hpfq-sim/src/b.rs".to_string(),
                "impl Network { pub fn run(&mut self) { x.unwrap(); } }".to_string(),
            ),
            (
                "crates/hpfq-sim/src/a.rs".to_string(),
                "struct S { m: HashMap<u32, u32> }".to_string(),
            ),
        ];
        let forward = lint_sources(&sources);
        let reversed: Vec<(String, String)> = sources.iter().rev().cloned().collect();
        let backward = lint_sources(&reversed);
        let key = |fs: &[Finding]| -> Vec<(String, u32, String)> {
            fs.iter()
                .map(|f| (f.file.clone(), f.line, f.rule.to_string()))
                .collect()
        };
        assert_eq!(
            key(&forward),
            key(&backward),
            "order must not depend on input order"
        );
        assert!(key(&forward).windows(2).all(|w| w[0] <= w[1]));
    }
}
