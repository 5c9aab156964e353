//! Rule-engine scaffolding: the per-file analysis context shared by all
//! rules, the [`Finding`] model, and the `lint:allow` suppression pass.
//!
//! A [`FileCtx`] is built once per file and carries three token-aligned
//! annotations the rules query:
//!
//! * `is_test[i]` — token `i` lies inside a `#[cfg(test)]` / `#[test]`
//!   region (tracked with a brace-depth stack; good enough for rustfmt'd
//!   code where attributes precede their item).
//! * `gated[i]` — token `i` lies inside a block whose condition mentions
//!   `ENABLED` (the `if O::ENABLED { … }` observability gate).
//! * `suppressed` — rule IDs allowlisted per line via
//!   `// lint:allow(L00x): reason` comments. A directive covers its own
//!   line *and* the next token-bearing (code) line — intervening comment
//!   or blank lines don't break the span, so the reason may wrap across
//!   several comment lines. The reason is mandatory (a bare allow is
//!   itself reported).

use crate::lexer::{lex, Lexed, Tok, TokKind};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule ID, e.g. `"L001"`.
    pub rule: &'static str,
    /// Path of the offending file, relative to the scan root.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Whether a `lint:allow` directive covers this finding.
    pub suppressed: bool,
}

/// A per-line allow directive parsed from an allow comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules named in the directive.
    pub rules: Vec<String>,
    /// Line of the comment itself.
    pub line: u32,
    /// Whether the mandatory `: reason` clause was present and non-empty.
    pub has_reason: bool,
}

/// Everything a rule needs to analyse one file.
pub struct FileCtx {
    /// Path relative to the scan root (forward slashes).
    pub path: String,
    /// Crate the file belongs to (directory under `crates/`, or the
    /// workspace root's package name).
    pub krate: String,
    /// Token stream.
    pub tokens: Vec<Tok>,
    /// `tokens[i]` is inside a test region.
    pub is_test: Vec<bool>,
    /// `tokens[i]` is inside an `ENABLED`-gated block.
    pub gated: Vec<bool>,
    /// Parsed allow directives.
    pub suppressions: Vec<Suppression>,
}

impl FileCtx {
    /// Lexes and annotates `src`.
    pub fn new(path: String, krate: String, src: &str) -> Self {
        let Lexed { tokens, comments } = lex(src);
        let is_test = mark_test_regions(&tokens);
        let gated = mark_gated_regions(&tokens);
        let suppressions = parse_suppressions(&comments);
        FileCtx {
            path,
            krate,
            tokens,
            is_test,
            gated,
            suppressions,
        }
    }

    /// Whether `rule` is allowlisted on `line` (directive on the same line,
    /// or `line` is the next code line below the directive).
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rules.iter().any(|r| r == rule) && self.covers(s, line))
    }

    /// A directive covers the span from its own line through the first
    /// token-bearing line after it, inclusive — comment continuation lines
    /// and blanks in between don't break the span, and are themselves
    /// covered (so an L011 finding, which lands on another directive's
    /// comment line, can be allowlisted).
    pub(crate) fn covers(&self, s: &Suppression, line: u32) -> bool {
        if line < s.line {
            return false;
        }
        if s.line == line {
            return true;
        }
        match self
            .tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > s.line)
            .min()
        {
            Some(next_code) => line <= next_code,
            None => false,
        }
    }

    /// Creates a [`Finding`] for this file, resolving suppression.
    pub fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.clone(),
            line,
            message,
            suppressed: self.is_suppressed(rule, line),
        }
    }
}

/// Workspace-derived context for one file: what the symbol table, call
/// graph, and taint propagation concluded about it. Built once per file
/// by [`crate::lint_sources`] and handed to every rule alongside the
/// [`FileCtx`].
pub struct FileView<'a> {
    /// `tokens[i]` lies inside the body of a hot-path-tainted function
    /// (reachable from the engine entry points).
    pub hot: Vec<bool>,
    /// The file's crate contains at least one hot-path function, so its
    /// state can feed simulation output (rules L007/L009 apply).
    pub sim_crate: bool,
    /// Identifiers declared in this file with an unordered-container
    /// type (`HashSet`/`HashMap`).
    pub unordered: &'a std::collections::BTreeSet<String>,
    /// Body ranges of functions that are themselves observer hooks —
    /// forwarding calls inside them inherit the caller's `ENABLED` gate.
    pub hook_bodies: Vec<(usize, usize)>,
}

impl<'a> FileView<'a> {
    /// Derives the view of file `file` from workspace-level analysis
    /// results (`hot` is the per-fn hot-path taint).
    pub fn build(
        ctx: &FileCtx,
        file: usize,
        st: &'a crate::symbols::SymbolTable,
        hot: &[bool],
        sim_crates: &std::collections::BTreeSet<String>,
    ) -> FileView<'a> {
        let hot_toks = crate::callgraph::token_mask(st, file, ctx.tokens.len(), hot);
        let hook_bodies = st
            .fns_of_file(file)
            .map(|fid| &st.fns[fid])
            .filter(|f| crate::rules::is_observer_hook(&f.name) && f.body.0 < f.body.1)
            .map(|f| f.body)
            .collect();
        FileView {
            hot: hot_toks,
            sim_crate: sim_crates.contains(&ctx.krate),
            unordered: &st.unordered[file],
            hook_bodies,
        }
    }

    /// Whether token `i` lies inside an observer-hook body.
    pub fn in_hook_body(&self, i: usize) -> bool {
        self.hook_bodies.iter().any(|&(a, b)| a <= i && i <= b)
    }
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` regions.
///
/// Strategy: when an attribute `#[...]` whose tokens include the identifier
/// `test` (and not `not`, so `#[cfg(not(test))]` is exempt) is seen, the
/// *next* brace-delimited block (module or function body) is a test region.
/// Regions are tracked with a brace-depth stack so nesting works; a `;`
/// before any `{` cancels the pending attribute (e.g. `#[test] use …;`
/// never happens, but robustness is cheap).
fn mark_test_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut out = vec![false; tokens.len()];
    let mut pending_test_attr = false;
    // Brace depths at which a test region started.
    let mut region_starts: Vec<u32> = Vec::new();
    let mut depth: u32 = 0;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let in_test = !region_starts.is_empty();
        if in_test {
            out[i] = true;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "#") => {
                // Attribute: `#[ ... ]` (or `#![...]`). Scan the bracket group.
                let mut j = i + 1;
                if j < tokens.len() && tokens[j].text == "!" {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].text == "[" {
                    let mut bd = 0i32;
                    let mut saw_test = false;
                    let mut saw_not = false;
                    while j < tokens.len() {
                        match tokens[j].text.as_str() {
                            "[" => bd += 1,
                            "]" => {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            "test" | "tests" if tokens[j].kind == TokKind::Ident => saw_test = true,
                            "not" if tokens[j].kind == TokKind::Ident => saw_not = true,
                            _ => {}
                        }
                        if in_test {
                            out[j] = true;
                        }
                        j += 1;
                    }
                    if in_test && j < tokens.len() {
                        out[j] = true;
                    }
                    if saw_test && !saw_not {
                        pending_test_attr = true;
                    }
                    i = j + 1;
                    continue;
                }
            }
            (TokKind::Punct, "{") => {
                depth += 1;
                if pending_test_attr {
                    region_starts.push(depth);
                    pending_test_attr = false;
                    out[i] = true;
                }
            }
            (TokKind::Punct, "}") => {
                if region_starts.last() == Some(&depth) {
                    region_starts.pop();
                    out[i] = true;
                }
                depth = depth.saturating_sub(1);
            }
            (TokKind::Punct, ";") => {
                pending_test_attr = false;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Marks tokens inside blocks whose opening condition mentions `ENABLED`
/// (the `if O::ENABLED { … }` observability gate).
///
/// For each `{`, look back to the previous `{`, `}`, or `;`: if the
/// intervening tokens contain the identifier `ENABLED`, the block is gated.
fn mark_gated_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut out = vec![false; tokens.len()];
    let mut gate_starts: Vec<u32> = Vec::new();
    let mut depth: u32 = 0;
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !gate_starts.is_empty() {
            out[i] = true;
        }
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => {
                depth += 1;
                let mut j = i;
                let mut gated = false;
                while j > 0 {
                    j -= 1;
                    match (tokens[j].kind, tokens[j].text.as_str()) {
                        (TokKind::Punct, "{" | "}" | ";") => break,
                        (TokKind::Ident, "ENABLED") => {
                            gated = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if gated {
                    gate_starts.push(depth);
                    out[i] = true;
                }
            }
            "}" => {
                if gate_starts.last() == Some(&depth) {
                    gate_starts.pop();
                    out[i] = true;
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    out
}

/// Parses `lint:allow(L001): reason` / `lint:allow(L001, L002): reason`
/// directives out of line comments.
fn parse_suppressions(comments: &[crate::lexer::LineComment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments (`///` → text starts with `/`, `//!` → `!`) are
        // prose, not directives — their `lint:allow` examples must not
        // suppress anything (or trip the stale-allow rule L011).
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|reason| !reason.trim().is_empty());
        out.push(Suppression {
            rules,
            line: c.line,
            has_reason,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("x.rs".into(), "hpfq-core".into(), src)
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let c =
            ctx("fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }");
        let unwraps: Vec<bool> = c
            .tokens
            .iter()
            .zip(&c.is_test)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let c = ctx("#[cfg(not(test))]\nmod live { fn f() { a.unwrap(); } }");
        assert!(c.is_test.iter().all(|&m| !m));
    }

    #[test]
    fn test_attr_on_fn_is_marked() {
        let c = ctx("#[test]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }");
        let unwraps: Vec<bool> = c
            .tokens
            .iter()
            .zip(&c.is_test)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn enabled_gate_marks_block() {
        let c = ctx("fn f() { if O::ENABLED { obs.on_dispatch(&e); } obs.on_drop(&e); }");
        let calls: Vec<bool> = c
            .tokens
            .iter()
            .zip(&c.gated)
            .filter(|(t, _)| t.text.starts_with("on_"))
            .map(|(_, &g)| g)
            .collect();
        assert_eq!(calls, vec![true, false]);
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let c = ctx("// lint:allow(L001, L002): both fine here\nlet a = 1;\nlet b = 2;");
        assert!(c.is_suppressed("L001", 1));
        assert!(c.is_suppressed("L002", 2));
        assert!(!c.is_suppressed("L003", 2));
        assert!(!c.is_suppressed("L001", 3));
        assert!(c.suppressions[0].has_reason);
    }

    #[test]
    fn suppression_skips_comment_continuation_lines() {
        let c = ctx(
            "fn f() {\n    // lint:allow(L002): a long reason that\n    // wraps onto a second comment line\n    x.unwrap();\n}",
        );
        assert!(c.is_suppressed("L002", 4));
        // The line after the covered code line is not covered.
        assert!(!c.is_suppressed("L002", 5));
    }

    #[test]
    fn bare_allow_has_no_reason() {
        let c = ctx("// lint:allow(L004)\nlet m = 1;");
        assert!(!c.suppressions[0].has_reason);
    }
}
