//! The determinism rule family (L007–L009).
//!
//! These rules defend the workspace's core contract: a simulation run is a
//! pure function of its configuration, byte-identical across runs and
//! machines. Each rule targets one way that contract silently breaks:
//!
//! * **L007** — wall-clock and entropy sources in simulation crates;
//! * **L008** — pointer identity used as an ordering or hash key;
//! * **L009** — `HashSet` / iteration over unordered containers feeding
//!   observable output.
//!
//! "Simulation crate" is not a hard-coded list: a crate is a sim crate iff
//! the call graph proves it contains at least one hot-path function (see
//! [`crate::callgraph`]), so the scope follows the code as it moves.

use crate::engine::{FileCtx, FileView, Finding};
use crate::lexer::{Tok, TokKind};

/// Dispatcher for the determinism family, called from
/// [`crate::rules::check_file`].
pub fn check_file(ctx: &FileCtx, view: &FileView<'_>, out: &mut Vec<Finding>) {
    l007_wall_clock(ctx, view, out);
    l008_pointer_identity(ctx, out);
    l009_unordered_iteration(ctx, view, out);
}

/// Whether `prev`/`name` form a qualified path segment `prev::name`.
fn qualified_by(ctx: &FileCtx, i: usize, prev: &str) -> bool {
    i >= 2
        && ctx.tokens[i - 1].text == "::"
        && ctx.tokens[i - 2].kind == TokKind::Ident
        && ctx.tokens[i - 2].text == prev
}

/// L007 — wall-clock / entropy sources in simulation crates.
///
/// `Instant` and `SystemTime` read host time; `thread::current()` exposes
/// a scheduler-dependent identity; `RandomState`, `OsRng`, `thread_rng`,
/// `from_entropy`, and `getrandom` pull OS entropy. None of these may
/// influence simulation state in a crate the call graph marks as
/// executing the simulation.
fn l007_wall_clock(ctx: &FileCtx, view: &FileView<'_>, out: &mut Vec<Finding>) {
    if !view.sim_crate {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            "Instant" | "SystemTime" => Some(format!(
                "`{}` reads the host clock; simulation time is virtual",
                t.text
            )),
            "current" if qualified_by(ctx, i, "thread") => Some(
                "`thread::current()` exposes a scheduler-dependent thread identity".to_string(),
            ),
            "RandomState" | "OsRng" | "ThreadRng" => Some(format!(
                "`{}` is seeded from OS entropy; use a fixed-seed RNG",
                t.text
            )),
            "thread_rng" | "from_entropy" | "getrandom" => Some(format!(
                "`{}` pulls OS entropy; use a fixed-seed RNG",
                t.text
            )),
            _ => None,
        };
        if let Some(what) = what {
            out.push(ctx.finding(
                "L007",
                t.line,
                format!("{what} — nondeterministic input in a simulation crate"),
            ));
        }
    }
}

/// L008 — pointer identity as an ordering or hash key.
///
/// Detects `ptr::eq` / `ptr::hash`, and address-as-integer materialisation
/// (`.as_ptr() as usize`, `x as *const T as usize`): allocation addresses
/// vary run to run, so anything keyed on them is non-deterministic.
/// Applies workspace-wide — address-keyed ordering is wrong in every
/// crate, not just the simulation ones.
fn l008_pointer_identity(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "eq" | "hash" | "addr_eq" if qualified_by(ctx, i, "ptr") => {
                out.push(ctx.finding(
                    "L008",
                    t.line,
                    format!(
                        "`ptr::{}` compares allocation addresses, which vary run to run; key on \
                         content-derived ids (flow/node ids, sequence numbers) instead",
                        t.text
                    ),
                ));
            }
            // `… as usize` (or any int) where the casted expression is an
            // address: `.as_ptr()`, `addr()`, or an `as *const/mut` chain.
            "as" => {
                let Some(ty) = ctx.tokens.get(i + 1) else {
                    continue;
                };
                if ty.kind != TokKind::Ident || !matches!(ty.text.as_str(), "usize" | "u64" | "u32")
                {
                    continue;
                }
                if cast_source_is_address(&ctx.tokens, i) {
                    out.push(ctx.finding(
                        "L008",
                        t.line,
                        format!(
                            "pointer address cast `as {}` materialises an allocation address; \
                             addresses vary run to run and must not feed ordering or hashing",
                            ty.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Walks the postfix expression left of an `as` cast at token `i`,
/// returning true if it produces a pointer address (`.as_ptr()`/`.addr()`
/// call, or a raw-pointer `as *const T` / `as *mut T` cast in the chain).
fn cast_source_is_address(tokens: &[Tok], i: usize) -> bool {
    let mut j = i as isize - 1;
    while j >= 0 {
        let t = &tokens[j as usize];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "as_ptr" | "as_mut_ptr" | "addr") => return true,
            // An `as *const T` / `as *mut T` step in the cast chain.
            (TokKind::Ident, "const" | "mut") if j >= 1 && tokens[j as usize - 1].text == "*" => {
                return true;
            }
            (TokKind::Ident, name) if crate::rules::is_stop_keyword(name) => return false,
            (TokKind::Ident | TokKind::Number, _) => {}
            (TokKind::Punct, "." | "::" | "*" | "&") => {}
            (TokKind::Punct, ")" | "]") => {
                // Skip the matched group, still scanning for address markers.
                let close = t.text.clone();
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
                    } else if u.kind == TokKind::Ident
                        && matches!(u.text.as_str(), "as_ptr" | "as_mut_ptr" | "addr")
                    {
                        return true;
                    }
                    j -= 1;
                }
            }
            _ => return false,
        }
        j -= 1;
    }
    false
}

/// Iterator-producing methods whose receiver order becomes output order.
fn is_iter_method(name: &str) -> bool {
    matches!(
        name,
        "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "drain" | "into_iter"
    )
}

/// L009 — `HashSet`, and iteration over unordered containers, in
/// simulation crates.
///
/// Any `HashSet` mention is flagged (like L004 for `HashMap`, but scoped
/// to sim crates where its order can feed output); additionally, calling
/// an iterator method on — or `for`-looping over — an identifier the
/// symbol table recorded as unordered-typed is flagged at the use site,
/// where the order actually escapes.
fn l009_unordered_iteration(ctx: &FileCtx, view: &FileView<'_>, out: &mut Vec<Finding>) {
    if !view.sim_crate {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashSet" => {
                out.push(ctx.finding(
                    "L009",
                    t.line,
                    "HashSet iteration order is nondeterministic; use BTreeSet in a simulation \
                     crate"
                        .to_string(),
                ));
            }
            name if is_iter_method(name)
                && i >= 2
                && ctx.tokens[i - 1].text == "."
                && ctx.tokens.get(i + 1).is_some_and(|n| n.text == "(")
                && ctx.tokens[i - 2].kind == TokKind::Ident
                && view.unordered.contains(&ctx.tokens[i - 2].text) =>
            {
                out.push(ctx.finding(
                    "L009",
                    t.line,
                    format!(
                        "`{}.{}()` iterates an unordered container; the order can reach \
                         observable output — use an ordered container or sort first",
                        ctx.tokens[i - 2].text,
                        name
                    ),
                ));
            }
            "in" => {
                // `for pat in <expr> {` — flag if the loop source names an
                // unordered container.
                let mut j = i + 1;
                while j < ctx.tokens.len() && ctx.tokens[j].text != "{" {
                    let u = &ctx.tokens[j];
                    // An ident followed by `.method(` is reported by the
                    // iterator-method arm above — don't double-report.
                    let is_method_recv = ctx.tokens.get(j + 1).is_some_and(|n| n.text == ".");
                    if u.kind == TokKind::Ident
                        && !is_method_recv
                        && view.unordered.contains(&u.text)
                    {
                        out.push(ctx.finding(
                            "L009",
                            u.line,
                            format!(
                                "`for … in {}` iterates an unordered container; the order can \
                                 reach observable output — use an ordered container or sort first",
                                u.text
                            ),
                        ));
                        break;
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    fn live(path: &str, src: &str) -> Vec<(String, u32)> {
        lint_source(path, src)
            .into_iter()
            .filter(|f| !f.suppressed)
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    /// A module with an engine entry point, making its crate a sim crate.
    fn sim(extra: &str) -> String {
        format!("impl Network {{ pub fn run(&mut self) {{}} }}\n{extra}")
    }

    #[test]
    fn l007_flags_clock_and_entropy_in_sim_crates_only() {
        let src = sim("fn f() { let t = Instant::now(); let r = thread_rng(); }");
        let f = live("crates/hpfq-sim/src/x.rs", &src);
        assert_eq!(f, vec![("L007".into(), 2), ("L007".into(), 2)]);
        // Same source, crate with no hot fn: not a sim crate, no findings.
        let cold = "fn f() { let t = Instant::now(); }";
        assert!(live("crates/hpfq-analysis/src/x.rs", cold).is_empty());
    }

    #[test]
    fn l007_flags_thread_identity() {
        let src = sim("fn f() { let id = thread::current().id(); }");
        assert_eq!(
            live("crates/hpfq-sim/src/x.rs", &src),
            vec![("L007".into(), 2)]
        );
    }

    #[test]
    fn l008_flags_ptr_eq_and_address_casts() {
        let src = "fn f(a: &u32, b: &u32, v: &[u8]) -> bool {\n\
                   let same = std::ptr::eq(a, b);\n\
                   let key = v.as_ptr() as usize;\n\
                   same && key > 0\n}";
        let f = live("crates/hpfq-obs/src/x.rs", src);
        assert_eq!(f, vec![("L008".into(), 2), ("L008".into(), 3)]);
    }

    #[test]
    fn l008_flags_raw_pointer_cast_chain() {
        let src = "fn f(n: &Node) -> u64 { n as *const Node as u64 }";
        assert_eq!(
            live("crates/hpfq-core/src/x.rs", src),
            vec![("L008".into(), 1)]
        );
    }

    #[test]
    fn l008_ignores_plain_int_casts() {
        let src = "fn f(n: u64) -> usize { n as usize }";
        assert!(live("crates/hpfq-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn l009_flags_hashset_and_unordered_iteration() {
        let src = sim("struct S { live: HashSet<u32> }\n\
             // lint:allow(L004): declaration under test\n\
             fn g(pending: HashMap<u32, u32>) { for p in pending.keys() { observe(p); } }");
        let f = live("crates/hpfq-sim/src/x.rs", &src);
        // Line 2: HashSet; line 4: HashMap decl is L004-allowed but its
        // `.keys()` iteration is the L009 finding.
        assert_eq!(f, vec![("L009".into(), 2), ("L009".into(), 4)]);
    }

    #[test]
    fn l009_for_loop_over_unordered_names() {
        let src = sim("fn g(active: HashSet<u32>) { for a in &active { observe(a); } }");
        let f = live("crates/hpfq-sim/src/x.rs", &src);
        // HashSet mention + for-loop use site.
        assert_eq!(f, vec![("L009".into(), 2), ("L009".into(), 2)]);
    }
}
