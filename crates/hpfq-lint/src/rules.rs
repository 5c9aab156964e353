//! The lint rules (L001–L009, L011): catalog, the original six
//! token-level rules, and the dispatcher. The determinism family L007–L009 lives in
//! [`crate::determinism`]; the stale-suppression rule L011 runs as a
//! post-pass in [`crate::lint_sources`] because it needs the other
//! rules' findings as input.
//!
//! Rules are pure functions over a [`FileCtx`] plus the workspace-derived
//! [`FileView`] (hot-path taint, unordered-container declarations). L002 and L006 are *taint-scoped*: they fire inside
//! functions the call graph proves reachable from the engine entry
//! points, wherever those functions live — not inside a hard-coded crate
//! list.

use crate::engine::{FileCtx, FileView, Finding};
use crate::lexer::{Tok, TokKind};

/// Static description of one rule, for `--list-rules`, `--explain`, and
/// docs.
pub struct Rule {
    /// Rule ID (`L001`…`L011`; L010 is retired).
    pub id: &'static str,
    /// Short name.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists — the failure mode it prevents.
    pub rationale: &'static str,
    /// A minimal before/after fix example.
    pub example: &'static str,
}

/// The rule catalog.
pub const RULES: [Rule; 10] = [
    Rule {
        id: "L001",
        name: "raw-vtime-comparison",
        summary: "raw f64 comparison operator on a virtual-time-typed identifier outside the \
                  approved vtime helper module",
        rationale: "Virtual-time tags are sums of f64 increments; two mathematically equal tags \
                    can differ in the last ulp depending on summation order. A raw `<` that \
                    should have been drift-tolerant (or a tolerant compare where exact stamp \
                    identity was required) silently reorders dispatch.",
        example: "-    if pkt.finish <= v { dispatch(); }\n\
                  +    if vtime::approx_le(pkt.finish, v) { dispatch(); }",
    },
    Rule {
        id: "L002",
        name: "hot-path-panic",
        summary: "unwrap()/expect()/panic-family macro in non-test code reachable from the \
                  engine entry points (hot-path taint)",
        rationale: "A panic on the per-packet path tears down the whole simulation instead of \
                    degrading through the typed-error escalation ladder. \
                    The call graph decides what is hot; construction and teardown code may \
                    panic freely.",
        example: "-    let head = self.queue.pop().unwrap();\n\
                  +    let Some(head) = self.queue.pop() else {\n\
                  +        return Err(HpfqError::EmptyQueue);\n\
                  +    };",
    },
    Rule {
        id: "L003",
        name: "hardcoded-tolerance",
        summary: "hard-coded float tolerance literal (0 < |x| <= 1e-6) outside the canonical \
                  vtime::EPS definition",
        rationale: "Scattered ad-hoc epsilons drift apart and make two comparisons of the same \
                    pair of tags disagree. One canonical EPS per domain keeps every tolerance \
                    decision consistent and auditable.",
        example: "-    if (a - b).abs() < 1e-9 { merge(); }\n\
                  +    if vtime::same_stamp(a, b) { merge(); }",
    },
    Rule {
        id: "L004",
        name: "nondeterministic-hashmap",
        summary: "HashMap with the default (randomly seeded) hasher — iteration order is \
                  non-deterministic; use BTreeMap in simulation state",
        rationale: "std's default hasher is seeded from OS entropy per process, so iteration \
                    order varies run to run. Any HashMap iteration that feeds scheduling or \
                    output breaks byte-reproducibility.",
        example: "-    flows: HashMap<u32, FlowState>,\n\
                  +    flows: BTreeMap<u32, FlowState>,",
    },
    Rule {
        id: "L005",
        name: "float-as-int-cast",
        summary: "`as` cast of a float expression to an integer type in byte/length accounting \
                  (saturating, truncating, silently lossy)",
        rationale: "`as` saturates on overflow and truncates toward zero without any signal; \
                    byte ledgers that must balance to zero can silently leak. Prove the range \
                    and allowlist, or keep the accounting in integers.",
        example: "-    let bytes = (rate * dt) as u64;\n\
                  +    // lint:allow(L005): rate*dt < 2^53 by construction (link <= 100G, dt <= 1h)\n\
                  +    let bytes = (rate * dt) as u64;",
    },
    Rule {
        id: "L006",
        name: "ungated-observer-call",
        summary: "observer hook call not inside an `ENABLED`-gated block in hot-path-tainted \
                  code",
        rationale: "With NoopObserver the whole event construction must be dead code the \
                    optimizer deletes, not a call into an inlined-empty function that still \
                    built its argument. The `if O::ENABLED` gate is what makes observability \
                    zero-cost when off.",
        example: "-    obs.on_dispatch(&DispatchEvent::new(now, node));\n\
                  +    if O::ENABLED {\n\
                  +        obs.on_dispatch(&DispatchEvent::new(now, node));\n\
                  +    }",
    },
    Rule {
        id: "L007",
        name: "wall-clock-in-sim",
        summary: "wall-clock or entropy source (Instant, SystemTime, thread::current().id(), \
                  OS randomness) in a crate that executes simulation state",
        rationale: "Simulation time is virtual; anything derived from host time, thread \
                    identity, or OS entropy differs across runs and machines. If it can reach \
                    simulation state or output, byte-determinism is gone — and with it the \
                    golden digests and the snapshot round-trip oracle.",
        example: "-    let seed = std::time::Instant::now().elapsed().as_nanos() as u64;\n\
                  +    let seed = self.rng.next_u64(); // SmallRng: seeded, deterministic",
    },
    Rule {
        id: "L008",
        name: "pointer-identity-key",
        summary: "pointer identity (ptr::eq, address-as-integer cast) used where an ordering \
                  or hash key is expected",
        rationale: "Allocation addresses vary run to run (ASLR, allocator state), so any \
                    ordering, hash, or dedup keyed on an address is non-deterministic. Key on \
                    content-derived ids (flow id, node id, sequence numbers) instead.",
        example: "-    queue.sort_by_key(|p| p.as_ptr() as usize);\n\
                  +    queue.sort_by_key(|p| (p.flow, p.seq));",
    },
    Rule {
        id: "L009",
        name: "unordered-iteration",
        summary: "HashSet, or iteration over an unordered container, in a crate that executes \
                  simulation state — iteration order can feed observable output",
        rationale: "HashSet has no deterministic iteration order; even a 'harmless' loop over \
                    one can reorder trace lines, stats accumulation, or event scheduling. Use \
                    BTreeSet/BTreeMap, or sort before iterating.",
        example: "-    for flow in self.active.iter() { trace(flow); }   // active: HashSet\n\
                  +    for flow in self.active.iter() { trace(flow); }   // active: BTreeSet",
    },
    Rule {
        id: "L011",
        name: "stale-lint-allow",
        summary: "a `lint:allow` directive that no longer matches any finding on the lines it \
                  covers",
        rationale: "An allowlist entry whose violation was since fixed (or whose rule scoping \
                    changed) is dead weight: it documents an invariant nobody checks and will \
                    silently excuse a *future* unrelated violation on that line. Remove it, or \
                    re-justify it against a finding that still exists.",
        example: "-    // lint:allow(L002): teardown, not hot path\n\
                  -    let obs = self.observer.take().unwrap();   // no longer hot: allow is stale\n\
                  +    let obs = self.observer.take().unwrap();",
    },
];

/// Renders the `--explain` text for one rule id, if known.
pub fn explain(id: &str) -> Option<String> {
    let r = RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))?;
    Some(format!(
        "{} ({})\n\n{}\n\nWhy:\n  {}\n\nFix:\n{}\n",
        r.id,
        r.name,
        r.summary,
        r.rationale,
        r.example
            .lines()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    ))
}

/// Identifiers that carry virtual-time / tag semantics in this workspace.
fn is_vtime_ident(name: &str) -> bool {
    matches!(
        name,
        "vtime" | "start" | "finish" | "last_finish" | "smin" | "thr" | "v" | "last_v"
    ) || name.starts_with("v_")
        || name.ends_with("_tag")
        || name.contains("vtime")
}

/// Whether this file is the approved vtime helper module (or its
/// re-export site), exempt from L001/L003.
fn is_vtime_module(path: &str) -> bool {
    path.contains("vtime")
}

/// Runs every per-file rule on one file. (L011 runs as a post-pass in
/// [`crate::lint_sources`].)
pub fn check_file(ctx: &FileCtx, view: &FileView<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    l001_raw_vtime_comparison(ctx, &mut out);
    l002_hot_path_panic(ctx, view, &mut out);
    l003_hardcoded_tolerance(ctx, &mut out);
    l004_nondeterministic_hashmap(ctx, &mut out);
    l005_float_as_int_cast(ctx, &mut out);
    l006_ungated_observer_call(ctx, view, &mut out);
    crate::determinism::check_file(ctx, view, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Keywords that terminate an operand walk — without this, a scan from a
/// match-guard `==` would stroll through `if` into the pattern and
/// collect binding names that are not operands.
pub(crate) fn is_stop_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "in"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "where"
            | "move"
            | "break"
            | "continue"
            | "as"
            | "struct"
            | "enum"
            | "const"
            | "static"
            | "trait"
            | "type"
            | "ref"
            | "mut"
            | "dyn"
    )
}

/// Collects the identifiers of the operand expression adjacent to a
/// comparison operator at token `i`, walking in `dir` (-1 = left,
/// +1 = right). Bracket groups are traversed (collecting the idents
/// inside); arithmetic (`+ - * /`), field access, and paths continue the
/// walk; keywords and anything else stop it.
fn operand_idents(tokens: &[Tok], i: usize, dir: isize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = i as isize + dir;
    let n = tokens.len() as isize;
    while j >= 0 && j < n {
        let t = &tokens[j as usize];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, name) if is_stop_keyword(name) => break,
            (TokKind::Ident, name) => idents.push(name.to_string()),
            (TokKind::Number, _) => {}
            (TokKind::Punct, "." | "::" | "+" | "-" | "*" | "/" | "!") => {}
            (TokKind::Punct, ")" | "]") if dir < 0 => {
                // Jump backwards over the matched group, collecting idents.
                let close = t.text.as_str();
                let open = if close == ")" { "(" } else { "[" };
                let mut depth = 0;
                while j >= 0 {
                    let u = &tokens[j as usize];
                    if u.kind == TokKind::Punct && u.text == close {
                        depth += 1;
                    } else if u.kind == TokKind::Punct && u.text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if u.kind == TokKind::Ident {
                        idents.push(u.text.clone());
                    }
                    j -= 1;
                }
            }
            (TokKind::Punct, "(" | "[") if dir > 0 => {
                let open = t.text.as_str();
                let close = if open == "(" { ")" } else { "]" };
                let mut depth = 0;
                while j < n {
                    let u = &tokens[j as usize];
                    if u.kind == TokKind::Punct && u.text == open {
                        depth += 1;
                    } else if u.kind == TokKind::Punct && u.text == close {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if u.kind == TokKind::Ident {
                        idents.push(u.text.clone());
                    }
                    j += 1;
                }
            }
            _ => break,
        }
        j += dir;
    }
    idents
}

/// L001 — raw comparison operators on virtual-time-typed identifiers.
fn l001_raw_vtime_comparison(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if is_vtime_module(&ctx.path) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Punct {
            continue;
        }
        let op = t.text.as_str();
        let is_cmp = match op {
            "==" | "!=" | "<=" | ">=" => true,
            // Bare < / > double as generics brackets; rustfmt spaces
            // comparisons on both sides and generics on neither.
            "<" | ">" => {
                t.spaced_before && ctx.tokens.get(i + 1).is_some_and(|next| next.spaced_before)
            }
            _ => false,
        };
        if !is_cmp {
            continue;
        }
        let mut names = operand_idents(&ctx.tokens, i, -1);
        names.extend(operand_idents(&ctx.tokens, i, 1));
        if let Some(name) = names.iter().find(|n| is_vtime_ident(n)) {
            out.push(ctx.finding(
                "L001",
                t.line,
                format!(
                    "raw `{op}` on virtual-time identifier `{name}`; use a `vtime::` helper \
                     (approx_le/strictly_before/… for drift-tolerant order, \
                     exactly_le/same_stamp for order-critical paths)"
                ),
            ));
        }
    }
}

/// L002 — panics in hot-path-tainted code.
fn l002_hot_path_panic(ctx: &FileCtx, view: &FileView<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || !view.hot[i] || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let prev = i.checked_sub(1).map(|p| ctx.tokens[p].text.as_str());
        let next = ctx.tokens.get(i + 1).map(|n| n.text.as_str());
        let flagged = match name {
            "unwrap" | "expect" => prev == Some(".") && next == Some("("),
            "panic" | "unreachable" | "todo" | "unimplemented" => next == Some("!"),
            _ => false,
        };
        if flagged {
            out.push(ctx.finding(
                "L002",
                t.line,
                format!(
                    "`{name}` in hot-path code (reachable from the engine entry points); return \
                     a typed `HpfqError`, or allowlist with a reason if the invariant is \
                     locally provable"
                ),
            ));
        }
    }
}

/// L003 — hard-coded tolerance literals.
fn l003_hardcoded_tolerance(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if is_vtime_module(&ctx.path) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Number || !t.is_float {
            continue;
        }
        let cleaned: String = t.text.chars().filter(|&c| c != '_').collect();
        let cleaned = cleaned
            .strip_suffix("f64")
            .or_else(|| cleaned.strip_suffix("f32"))
            .unwrap_or(&cleaned);
        let Ok(val) = cleaned.parse::<f64>() else {
            continue;
        };
        // lint:allow(L003): this literal IS the rule's detection threshold
        if val > 0.0 && val <= 1e-6 {
            out.push(ctx.finding(
                "L003",
                t.line,
                format!(
                    "hard-coded tolerance literal `{}`; derive from the canonical `vtime::EPS` \
                     (or use a tolerance-aware `vtime::` comparison)",
                    t.text
                ),
            ));
        }
    }
}

/// L004 — HashMap with the default hasher.
fn l004_nondeterministic_hashmap(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Ident || t.text != "HashMap" {
            continue;
        }
        out.push(ctx.finding(
            "L004",
            t.line,
            "HashMap's default hasher is randomly seeded, so iteration order varies run-to-run; \
             use BTreeMap for reproducible simulation state"
                .to_string(),
        ));
    }
}

/// Integer types a float must not be silently `as`-cast into.
fn is_int_type(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

/// Idents that mark the casted expression as floating-point.
fn is_float_marker(name: &str) -> bool {
    matches!(
        name,
        "floor" | "ceil" | "round" | "trunc" | "sqrt" | "powi" | "powf" | "f64" | "f32"
    )
}

/// L005 — `as` float→integer casts.
fn l005_float_as_int_cast(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let Some(ty) = ctx.tokens.get(i + 1) else {
            continue;
        };
        if ty.kind != TokKind::Ident || !is_int_type(&ty.text) {
            continue;
        }
        // Walk the postfix expression to the left of `as`, looking for
        // float evidence: a float literal or a float-producing method/type.
        let mut j = i as isize - 1;
        let mut is_float_expr = false;
        while j >= 0 {
            let u = &ctx.tokens[j as usize];
            match (u.kind, u.text.as_str()) {
                (TokKind::Ident, name) => {
                    if is_float_marker(name) {
                        is_float_expr = true;
                    }
                }
                (TokKind::Number, _) => {
                    if u.is_float {
                        is_float_expr = true;
                    }
                }
                (TokKind::Punct, "." | "::") => {}
                (TokKind::Punct, ")" | "]") => {
                    let close = u.text.clone();
                    let open = if close == ")" { "(" } else { "[" };
                    let mut depth = 0;
                    while j >= 0 {
                        let w = &ctx.tokens[j as usize];
                        if w.kind == TokKind::Punct && w.text == close {
                            depth += 1;
                        } else if w.kind == TokKind::Punct && w.text == open {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if (w.kind == TokKind::Ident && is_float_marker(&w.text))
                            || (w.kind == TokKind::Number && w.is_float)
                        {
                            is_float_expr = true;
                        }
                        j -= 1;
                    }
                }
                _ => break,
            }
            j -= 1;
        }
        if is_float_expr {
            out.push(ctx.finding(
                "L005",
                t.line,
                format!(
                    "float expression cast `as {}` truncates/saturates silently; prove the range \
                     and allowlist with a reason, or restructure the accounting in integers",
                    ty.text
                ),
            ));
        }
    }
}

/// Observer hook names whose call sites must be `O::ENABLED`-gated.
pub(crate) fn is_observer_hook(name: &str) -> bool {
    matches!(
        name,
        "on_enqueue"
            | "on_drop"
            | "on_dispatch"
            | "on_tx_start"
            | "on_tx_complete"
            | "on_node_backlog"
            | "on_busy_reset"
    )
}

/// L006 — ungated observer hook calls in hot-path-tainted code.
///
/// Calls inside a function that is *itself* an observer hook are exempt:
/// a composed observer forwarding `self.inner.on_drop(e)` runs under the
/// gate its own caller already checked.
fn l006_ungated_observer_call(ctx: &FileCtx, view: &FileView<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i]
            || !view.hot[i]
            || ctx.gated[i]
            || view.in_hook_body(i)
            || t.kind != TokKind::Ident
            || !is_observer_hook(&t.text)
        {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| ctx.tokens[p].text.as_str());
        let next = ctx.tokens.get(i + 1).map(|n| n.text.as_str());
        if prev == Some(".") && next == Some("(") {
            out.push(ctx.finding(
                "L006",
                t.line,
                format!(
                    "observer call `.{}(…)` outside an `if O::ENABLED` gate; with NoopObserver \
                     the event construction should be dead code, not merely an inlined-empty call",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    fn findings(path: &str, src: &str) -> Vec<(String, u32)> {
        lint_source(path, src)
            .into_iter()
            .filter(|f| !f.suppressed)
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    /// Wraps `body` in an engine entry point so its statements carry the
    /// hot-path taint.
    fn hot(body: &str) -> String {
        format!("impl Network {{ pub fn run(&mut self) {{\n{body}\n}} }}")
    }

    #[test]
    fn l001_flags_raw_comparison_but_not_generics() {
        let f = findings(
            "crates/hpfq-core/src/x.rs",
            "fn f(start: f64, v: f64) -> bool { start <= v }\nfn g(x: Vec<u8>) -> usize { x.len() }",
        );
        assert_eq!(f, vec![("L001".into(), 1)]);
    }

    #[test]
    fn l001_exempt_in_vtime_module_and_tests() {
        assert!(findings(
            "crates/hpfq-obs/src/vtime.rs",
            "fn f(v: f64) -> bool { v <= 1.0 }"
        )
        .is_empty());
        assert!(findings(
            "crates/hpfq-core/src/x.rs",
            "#[cfg(test)]\nmod t { fn f(v: f64) -> bool { v <= 1.0 } }"
        )
        .is_empty());
    }

    #[test]
    fn l001_match_guard_does_not_leak_pattern_bindings() {
        // The scan from `==` must stop at `if`, not collect `start` from
        // the pattern.
        let f = findings(
            "crates/hpfq-core/src/x.rs",
            "fn f(x: Option<(u64, f64)>, want: u64) -> bool {\n    matches!(x, Some((id, start)) if id == want)\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l002_fires_only_under_hot_taint() {
        // `hot()` opens run's body on line 1; step is called from run
        // (hot), cold is not. Line 4 holds step's panics.
        let src = hot("self.step();\n}\nfn step(&self) { x.unwrap(); y.expect(\"m\"); unreachable!() }\nfn cold(&self) { z.unwrap(); ");
        let f = findings("crates/hpfq-core/src/x.rs", &src);
        assert_eq!(
            f,
            vec![("L002".into(), 4), ("L002".into(), 4), ("L002".into(), 4)]
        );
    }

    #[test]
    fn l002_crate_no_longer_matters_without_taint() {
        // An unreachable fn is exempt even in hpfq-core.
        let src = "fn island() { x.unwrap(); }";
        assert!(findings("crates/hpfq-core/src/x.rs", src).is_empty());
        // …and a reachable one is flagged even outside the old crate list.
        let src = "impl Engine { pub fn pop(&mut self) { self.heap.take().unwrap(); } }";
        assert_eq!(
            findings("crates/hpfq-events/src/lib.rs", src),
            vec![("L002".into(), 1)]
        );
    }

    #[test]
    fn l003_flags_small_floats_only() {
        let f = findings(
            "crates/hpfq-sim/src/x.rs",
            "let a = 1e-9; let b = 0.5; let c = 1e-12;",
        );
        assert_eq!(f, vec![("L003".into(), 1), ("L003".into(), 1)]);
    }

    #[test]
    fn l004_flags_hashmap() {
        let f = findings(
            "crates/hpfq-sim/src/x.rs",
            "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }",
        );
        assert_eq!(f, vec![("L004".into(), 1), ("L004".into(), 2)]);
    }

    #[test]
    fn l005_requires_float_evidence() {
        let f = findings(
            "crates/hpfq-sim/src/x.rs",
            "fn f(t: f64) -> u64 { (t / 2.0).floor() as u64 }\nfn g(n: usize) -> u32 { n as u32 }",
        );
        assert_eq!(f, vec![("L005".into(), 1)]);
    }

    #[test]
    fn l006_gated_calls_pass_ungated_hot_calls_fail() {
        let src = hot("if O::ENABLED { obs.on_dispatch(&e); } obs.on_drop(&d);");
        let f = findings("crates/hpfq-core/src/x.rs", &src);
        assert_eq!(f, vec![("L006".into(), 2)]);
    }

    #[test]
    fn l006_exempts_forwarding_inside_hook_bodies() {
        // A composed observer's own hook may forward ungated: the outer
        // call site's gate already covers it.
        let src = "impl Network { pub fn run(&mut self) { if O::ENABLED { self.obs.on_drop(&e); } } }\n\
                   impl Observer for Tee { fn on_drop(&mut self, e: &DropEvent) { self.a.on_drop(e); self.b.on_drop(e); } }";
        let f = findings("crates/hpfq-obs/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lint_allow_suppresses_with_reason() {
        let src = "// lint:allow(L004): bounded test-only map\nuse std::collections::HashMap;";
        let all = lint_source("crates/hpfq-sim/src/x.rs", src);
        assert_eq!(all.len(), 1);
        assert!(all[0].suppressed);
    }

    #[test]
    fn explain_renders_known_rules_only() {
        let text = explain("L007").unwrap();
        assert!(text.contains("wall-clock"), "{text}");
        assert!(text.contains("Fix:"), "{text}");
        assert!(explain("l007").is_some(), "case-insensitive lookup");
        assert!(explain("L999").is_none());
    }
}
