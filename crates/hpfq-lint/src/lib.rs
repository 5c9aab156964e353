//! # hpfq-lint — the virtual-time rules clippy cannot express
//!
//! The schedulers in this workspace are `f64` tag machines: one raw `<`
//! where a tolerance-aware comparison was needed (or vice versa) silently
//! changes dispatch order, and one observer call outside its gate makes
//! unobserved runs pay for event construction. Clippy cannot see these
//! domain rules, so this crate checks them:
//!
//! | rule | checks |
//! |------|--------|
//! | L001 | raw f64 comparisons on virtual-time identifiers outside `vtime` |
//! | L003 | hard-coded tolerance literals outside the canonical `vtime::EPS` |
//! | L005 | `as` float→integer casts in byte/length accounting |
//! | L006 | observer hook calls not gated behind `O::ENABLED` |
//! | L011 | stale `lint:allow` suppressions matching no finding |
//!
//! What clippy can say — panics on the per-packet path, `HashMap` /
//! `HashSet`, wall clocks, pointer identity, reasonless or stale
//! suppressions — lives in the root `clippy.toml` and the crate-root lint
//! lists instead (DESIGN.md §8).
//!
//! Analysis is a hand-rolled tokenizer ([`lexer`]) plus token annotations
//! computed per file ([`engine`]) — no `syn`, no external dependencies, no
//! state shared between files, so the pass runs in the offline CI image.
//! Intentional exceptions are allowlisted in place:
//!
//! ```text
//! // lint:allow(L005): pos = q*(len-1) with q asserted in [0, 1] above
//! let lo = pos.floor() as usize;
//! ```
//!
//! The directive covers its own line and the next code line (comment
//! continuation lines in between are fine), requires a `: reason`, and
//! accepts a comma-separated rule list. Allowlist hygiene is itself
//! linted: a bare allow is L000, and an allow that no longer matches any
//! finding is L011 (stale). Each rule's rationale is the doc comment on
//! its `fn l00x` in [`rules`].
//!
//! ## Where it runs
//!
//! As a test: `tests/golden.rs`'s `workspace_has_no_unsuppressed_findings`
//! runs [`lint_workspace`] over the repository under plain `cargo test`
//! and fails with one `file:line [rule] message` per live finding.
//!
//! ## Scan scope
//!
//! [`lint_workspace`] scans `src/` and `crates/*/src/` under the root —
//! production code only. `tests/`, `benches/`, and `examples/` are out of
//! scope by design, and so are `#[cfg(test)]` regions: test code
//! legitimately uses ad-hoc tolerances and fixture literals.
//!
//! Findings are globally sorted by `(file, line, rule, message)` and paths
//! are root-relative with forward slashes, so the report does not depend
//! on directory-walk order or platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{FileCtx, Finding};
pub use rules::check_file;

use std::path::{Path, PathBuf};

/// Lints one file: every rule, then the allowlist-hygiene post-passes
/// (L000 bare allows, L011 stale allows).
fn lint_file(path: &str, src: &str) -> Vec<Finding> {
    let ctx = FileCtx::new(path.to_string(), src);
    let mut findings = rules::check_file(&ctx);

    // L000 — a bare `lint:allow` without a reason is itself a violation:
    // the reason is the audit trail.
    for s in ctx.suppressions.iter().filter(|s| !s.has_reason) {
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

    // L011 — a reasoned allow that matches no finding of the named rule on
    // the lines it covers is stale: the violation it excused was fixed (or
    // its rule retired), and the dead entry would silently excuse a future
    // unrelated violation.
    let mut stale = Vec::new();
    for s in ctx.suppressions.iter().filter(|s| s.has_reason) {
        for r in s.rules.iter().filter(|r| *r != "L011") {
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
    findings
}

/// Lints a set of sources, each on its own. Each element is
/// `(rel_path, source)`; the path appears in diagnostics. Findings are
/// globally sorted by `(file, line, rule, message)` for byte-deterministic
/// output.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let mut all: Vec<Finding> = sources
        .iter()
        .flat_map(|(path, src)| lint_file(path, src))
        .collect();
    all.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    all
}

/// Lints one source string, as if read from `rel_path`.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), src.to_string())])
}

/// Collects the production `.rs` files of the workspace rooted at `root`:
/// `src/**` plus `crates/*/src/**`, sorted for deterministic output.
fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
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

/// Lints every production file of the workspace under `root`; paths in
/// the findings are root-relative, with forward slashes.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let sources = workspace_files(root)?
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap_or(&p).to_string_lossy();
            Ok((rel.replace('\\', "/"), std::fs::read_to_string(&p)?))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(lint_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_allow_is_reported_as_l000() {
        let f = lint_source(
            "crates/hpfq-sim/src/x.rs",
            "// lint:allow(L005)\nlet m = 1;",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "L000");
    }

    #[test]
    fn stale_allow_is_reported_as_l011() {
        // The allow names L005 but the cast is integer to integer, so no
        // L005 finding exists and the allow is stale.
        let src = "fn f(n: usize) -> u32 {\n    // lint:allow(L005): was a float before the refactor\n    n as u32\n}";
        let f = lint_source("crates/hpfq-core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L011");
        assert_eq!(f[0].line, 2);
        assert!(!f[0].suppressed);
    }

    #[test]
    fn live_allow_is_not_stale() {
        let src = "fn f(t: f64) -> u64 {\n    // lint:allow(L005): a non-negative time's floor fits u64\n    t.floor() as u64\n}";
        let f = lint_source("crates/hpfq-sim/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L005");
        assert!(f[0].suppressed);
    }

    #[test]
    fn stale_allow_can_itself_be_allowlisted() {
        let src = "fn f(n: usize) -> u32 {\n    // lint:allow(L011): keeping the L005 allow for the planned float refactor\n    // lint:allow(L005): will be a float cast again\n    n as u32\n}";
        let f = lint_source("crates/hpfq-core/src/x.rs", src);
        // The stale-L005 finding (L011) lands on line 3 — a comment line —
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
                "fn f(t: f64) -> u64 { t.floor() as u64 }".to_string(),
            ),
            (
                "crates/hpfq-sim/src/a.rs".to_string(),
                "fn g(start: f64, v: f64) -> bool { start <= v }".to_string(),
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
        assert_eq!(key(&forward).len(), 2);
        assert_eq!(
            key(&forward),
            key(&backward),
            "order must not depend on input order"
        );
        assert!(key(&forward).windows(2).all(|w| w[0] <= w[1]));
    }
}
