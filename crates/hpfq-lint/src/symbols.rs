//! A lightweight workspace symbol table built on the hand-rolled lexer.
//!
//! One pass over each file's token stream recovers just enough structure
//! for whole-workspace analysis — no `syn`, no type inference:
//!
//! * every `fn` item, with its enclosing `impl` type (so `Network::run`
//!   and a free `run` are distinct symbols), its parameter list (name +
//!   type text), and its body as a token range;
//! * every call site inside a body, classified as a method call
//!   (`.name(…)`), a path-qualified call (`Type::name(…)`), or a free
//!   call (`name(…)`) — the raw material of the [`crate::callgraph`];
//! * identifiers declared with an unordered-container type
//!   (`HashSet`/`HashMap` fields, lets, params), which rule L009 watches
//!   for iteration.
//!
//! The recovery is deliberately token-level and resilient: it tracks
//! brace depth to nest `impl`/`fn` scopes, skips generic-argument groups,
//! and never panics on code it half-understands (a linter must survive
//! the code it inspects). rustfmt'd input — which this workspace enforces
//! in CI — is well within what it parses exactly.

use crate::engine::FileCtx;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// One `name: Type` parameter of a function.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`self` for receivers, `_` tolerated).
    pub name: String,
    /// Flattened type text, tokens joined by single spaces
    /// (e.g. `& [ Mutex < Vec < Envelope > > ]`).
    pub ty: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// For `Type::name(…)`: the qualifying segment (`Type`, or `Self`).
    pub qual: Option<String>,
    /// Whether this is a method call (`.name(…)`).
    pub method: bool,
    /// 1-based source line of the callee token.
    pub line: u32,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Index of the owning file in the analysed file set.
    pub file: usize,
    /// Crate the file belongs to.
    pub krate: String,
    /// Enclosing `impl` target type, if any (`Network` for methods;
    /// `None` for free functions).
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range `[open, close]` of the body braces in the
    /// owning file's token stream. `open == close` marks a bodyless
    /// declaration (trait method signature).
    pub body: (usize, usize),
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Call sites inside the body.
    pub calls: Vec<Call>,
}

impl FnSym {
    /// Qualified name: `Type::name` for methods, `name` for free fns.
    pub fn qname(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace symbol table: every function of every analysed file,
/// plus per-file unordered-container declarations.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All functions, file-major, source order within a file.
    pub fns: Vec<FnSym>,
    /// Per file: names declared with `HashSet`/`HashMap` types.
    pub unordered: Vec<BTreeSet<String>>,
}

impl SymbolTable {
    /// Builds the table over an ordered set of analysed files.
    pub fn build(files: &[FileCtx]) -> SymbolTable {
        let mut st = SymbolTable::default();
        for (fi, ctx) in files.iter().enumerate() {
            collect_file(fi, ctx, &mut st);
        }
        st
    }

    /// Function ids defined in `file`.
    pub fn fns_of_file(&self, file: usize) -> impl Iterator<Item = usize> + '_ {
        self.fns
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.file == file)
            .map(|(i, _)| i)
    }
}

/// Keywords that can directly precede `(` without being calls.
fn is_call_excluded_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while" | "for" | "match" | "return" | "loop" | "fn" | "move" | "in" | "as"
    )
}

/// Skips a balanced generic-argument group starting at `<` (or `<<`),
/// returning the index just past the closing `>`. `i` must point at the
/// opening token.
fn skip_generics(tokens: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            // A `;` or `{` here means we misjudged (comparison, not
            // generics) — bail out rather than eat the file.
            ";" | "{" => return i,
            _ => {}
        }
        i += 1;
        if depth <= 0 {
            break;
        }
    }
    i
}

/// Parses the `impl` target type starting just after the `impl` token,
/// returning `(type_name, index_of_body_open_brace)` — or `None` when no
/// body brace is found (e.g. `impl Trait for T;` never happens, but
/// resilience is cheap).
fn parse_impl_target(tokens: &[Tok], mut i: usize) -> Option<(String, usize)> {
    let n = tokens.len();
    // Optional `impl<…>` generics.
    if i < n && matches!(tokens[i].text.as_str(), "<" | "<<") {
        i = skip_generics(tokens, i);
    }
    let mut last_ident: Option<String> = None;
    while i < n {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "for") => {
                // Trait impl: the target type follows `for`.
                last_ident = None;
                i += 1;
            }
            (TokKind::Ident, "where") | (TokKind::Punct, "{") => break,
            (TokKind::Ident, name) => {
                last_ident = Some(name.to_string());
                i += 1;
                if i < n && matches!(tokens[i].text.as_str(), "<" | "<<") {
                    i = skip_generics(tokens, i);
                }
            }
            _ => i += 1,
        }
    }
    // Find the body `{` (skipping a `where` clause).
    while i < n && tokens[i].text != "{" {
        i += 1;
    }
    if i >= n {
        return None;
    }
    Some((last_ident.unwrap_or_else(|| "<impl>".to_string()), i))
}

/// Parses a parameter list between `(` at `open` and its matching `)`,
/// returning the params and the index of the closing paren.
fn parse_params(tokens: &[Tok], open: usize) -> (Vec<Param>, usize) {
    let n = tokens.len();
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut i = open;
    let mut seg: Vec<&Tok> = Vec::new();
    let close;
    loop {
        if i >= n {
            close = n.saturating_sub(1);
            break;
        }
        let t = &tokens[i];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    if !seg.is_empty() {
                        params.extend(param_of(&seg));
                    }
                    close = i;
                    break;
                }
            }
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle = (angle - 1).max(0),
            ">>" => angle = (angle - 2).max(0),
            "," if depth == 1 && angle == 0 => {
                params.extend(param_of(&seg));
                seg.clear();
                i += 1;
                continue;
            }
            _ => {}
        }
        if depth >= 1 && !(depth == 1 && matches!(t.text.as_str(), "(" | ")")) {
            seg.push(t);
        }
        i += 1;
    }
    (params, close)
}

/// Builds one [`Param`] from the tokens of a parameter segment.
fn param_of(seg: &[&Tok]) -> Option<Param> {
    let name = seg
        .iter()
        .find(|t| t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref"))?
        .text
        .clone();
    let ty = match seg.iter().position(|t| t.text == ":") {
        Some(c) => seg[c + 1..]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" "),
        // `self` / `&mut self` receivers have no ascription.
        None => String::new(),
    };
    Some(Param { name, ty })
}

/// Extracts fns, calls, and unordered-container declarations from one
/// file.
fn collect_file(fi: usize, ctx: &FileCtx, st: &mut SymbolTable) {
    let tokens = &ctx.tokens;
    let n = tokens.len();
    let mut unordered: BTreeSet<String> = BTreeSet::new();

    // (type name, brace depth of the impl body).
    let mut impl_stack: Vec<(String, u32)> = Vec::new();
    // Indices into st.fns of open functions, with their body-open depth.
    let mut fn_stack: Vec<(usize, u32)> = Vec::new();
    // Fns whose body `{` has not been seen yet (between header and brace).
    let mut pending_fn: Option<usize> = None;
    let mut depth: u32 = 0;
    let mut i = 0usize;
    while i < n {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                if let Some(fid) = pending_fn.take() {
                    st.fns[fid].body.0 = i;
                    fn_stack.push((fid, depth));
                }
            }
            (TokKind::Punct, "}") => {
                if let Some(&(fid, d)) = fn_stack.last() {
                    if d == depth {
                        st.fns[fid].body.1 = i;
                        fn_stack.pop();
                    }
                }
                if let Some(&(_, d)) = impl_stack.last() {
                    if d == depth {
                        impl_stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            (TokKind::Punct, ";") => {
                // A `;` before the body brace: trait method declaration.
                pending_fn = None;
            }
            (TokKind::Ident, "impl") => {
                if let Some((ty, body_open)) = parse_impl_target(tokens, i + 1) {
                    // Register at the depth the body will open at, then
                    // resume the scan just inside the body brace.
                    impl_stack.push((ty, depth + 1));
                    depth += 1;
                    i = body_open + 1;
                    continue;
                }
            }
            (TokKind::Ident, "fn") => {
                if let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    // Find the parameter list (skipping `fn name<...>`).
                    let mut j = i + 2;
                    if j < n && matches!(tokens[j].text.as_str(), "<" | "<<") {
                        j = skip_generics(tokens, j);
                    }
                    let (params, close) = if j < n && tokens[j].text == "(" {
                        parse_params(tokens, j)
                    } else {
                        (Vec::new(), j)
                    };
                    // The scan jumps past the parameter list, so harvest
                    // unordered-container params here rather than via
                    // `declared_name_before`.
                    for p in &params {
                        if p.ty.contains("HashSet") || p.ty.contains("HashMap") {
                            unordered.insert(p.name.clone());
                        }
                    }
                    st.fns.push(FnSym {
                        file: fi,
                        krate: ctx.krate.clone(),
                        self_ty: impl_stack.last().map(|(ty, _)| ty.clone()),
                        name: name_tok.text.clone(),
                        line: t.line,
                        body: (close, close),
                        params,
                        calls: Vec::new(),
                    });
                    pending_fn = Some(st.fns.len() - 1);
                    i = close + 1;
                    continue;
                }
            }
            (TokKind::Ident, name) => {
                // Unordered-container declaration: `ident : … Hash{Set,Map} …`.
                if matches!(name, "HashSet" | "HashMap") {
                    if let Some(decl) = declared_name_before(tokens, i) {
                        unordered.insert(decl);
                    }
                }
                // Call site?
                if tokens.get(i + 1).is_some_and(|nx| nx.text == "(")
                    && !is_call_excluded_keyword(name)
                {
                    let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
                    let method = prev == Some(".");
                    let qual = if prev == Some("::") {
                        i.checked_sub(2)
                            .map(|q| &tokens[q])
                            .filter(|q| q.kind == TokKind::Ident)
                            .map(|q| q.text.clone())
                    } else {
                        None
                    };
                    if let Some(&(fid, _)) = fn_stack.last() {
                        st.fns[fid].calls.push(Call {
                            name: name.to_string(),
                            qual,
                            method,
                            line: t.line,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Close any fn left open by an unbalanced file (truncated input).
    while let Some((fid, _)) = fn_stack.pop() {
        st.fns[fid].body.1 = n.saturating_sub(1);
    }
    debug_assert!(st.unordered.len() == fi);
    st.unordered.push(unordered);
}

/// Walks left from a `HashSet`/`HashMap` token to the `ident :` that
/// declares it (struct field, let ascription, or parameter); returns the
/// declared name.
fn declared_name_before(tokens: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    let mut angle = 0i32;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        match t.text.as_str() {
            ">" => angle += 1,
            ">>" => angle += 2,
            "<" => angle -= 1,
            "<<" => angle -= 2,
            ":" if angle <= 0 => {
                let name = tokens.get(j.checked_sub(1)?)?;
                if name.kind == TokKind::Ident {
                    return Some(name.text.clone());
                }
                return None;
            }
            // Crossing a statement/item boundary: it's a bare type
            // mention (use statement, turbofish), not a declaration.
            ";" | "{" | "}" | "(" | ")" | "," | "=" => return None,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileCtx;

    fn table(src: &str) -> SymbolTable {
        let ctx = FileCtx::new("crates/hpfq-sim/src/x.rs".into(), "hpfq-sim".into(), src);
        SymbolTable::build(std::slice::from_ref(&ctx))
    }

    #[test]
    fn free_and_method_fns_are_distinguished() {
        let st = table(
            "fn run(x: u32) { helper(x); }\n\
             impl Network<S, O> { pub fn run(&mut self, horizon: f64) { self.handle(horizon); } }",
        );
        let names: Vec<String> = st.fns.iter().map(|f| f.qname()).collect();
        assert_eq!(names, vec!["run", "Network::run"]);
        assert_eq!(st.fns[0].calls.len(), 1);
        assert_eq!(st.fns[0].calls[0].name, "helper");
        assert!(!st.fns[0].calls[0].method);
        assert!(st.fns[1].calls[0].method);
        assert_eq!(st.fns[1].calls[0].name, "handle");
    }

    #[test]
    fn trait_impl_resolves_target_after_for() {
        let st =
            table("impl<O: Observer> Observer for FlightRecorder<O> { fn on_drop(&mut self) {} }");
        assert_eq!(st.fns[0].qname(), "FlightRecorder::on_drop");
    }

    #[test]
    fn qualified_calls_carry_their_path_segment() {
        let st = table("fn f() { Engine::new(); Self::helper(); plain(); o.method(); }");
        let calls = &st.fns[0].calls;
        assert_eq!(calls[0].qual.as_deref(), Some("Engine"));
        assert_eq!(calls[1].qual.as_deref(), Some("Self"));
        assert!(calls[2].qual.is_none() && !calls[2].method);
        assert!(calls[3].method);
    }

    #[test]
    fn params_capture_type_text() {
        let st = table("fn g(a: &[Mutex<Vec<Envelope>>], next: &Mutex<Vec<f64>>, n: usize) {}");
        let tys: Vec<&str> = st.fns[0].params.iter().map(|p| p.ty.as_str()).collect();
        assert_eq!(tys.len(), 3);
        assert!(tys[0].contains("Mutex"), "{tys:?}");
        assert!(tys[1].contains("Mutex"), "{tys:?}");
        assert!(!tys[2].contains("Mutex"), "{tys:?}");
    }

    #[test]
    fn nested_fn_bodies_close_correctly() {
        let st = table("fn outer() { fn inner(z: u8) { z; } inner(1); }");
        assert_eq!(st.fns.len(), 2);
        let outer = st.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn unordered_declarations_are_collected() {
        let st = table(
            "struct S { seen: HashSet<u32>, map: BTreeMap<u32, u32> }\n\
             fn f() { let cache: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert!(st.unordered[0].contains("seen"));
        assert!(st.unordered[0].contains("cache"));
        assert!(!st.unordered[0].contains("map"));
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let st = table("trait T { fn sig(&self) -> u32; fn with_default(&self) -> u32 { 1 } }");
        assert_eq!(st.fns.len(), 2);
        let sig = st.fns.iter().find(|f| f.name == "sig").unwrap();
        assert_eq!(sig.body.0, sig.body.1, "declaration has empty body range");
        let def = st.fns.iter().find(|f| f.name == "with_default").unwrap();
        assert!(def.body.1 > def.body.0);
    }
}
