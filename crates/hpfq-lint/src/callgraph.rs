//! Workspace call graph and taint propagation.
//!
//! Edges come from name resolution over the [`crate::symbols`] table:
//!
//! * `Type::name(…)` resolves to functions whose qualified name matches
//!   (`Self::name` resolves within the caller's own impl type);
//! * `.name(…)` method calls resolve to *every* method of that name in
//!   the workspace — a deliberate over-approximation that soundly covers
//!   trait dynamic dispatch (a scheduler behind `dyn NodeScheduler`, an
//!   observer behind a generic `O: Observer`);
//! * `name(…)` free calls resolve to free functions of that name.
//!
//! Over-approximation errs toward *more* taint, which for the rules built
//! on it (L002 hot-path panics, L006 ungated observers) means false
//! positives answerable with a reasoned `lint:allow` — never a silently
//! missed hot path.
//!
//! The **hot-path** taint is propagated caller→callee to a fixed point,
//! seeded at the engine entry points — `Network::run`, the `PifoTree`
//! dispatch surface, and every `EventQueue`/`Engine` operation in
//! `hpfq-events`. A function is hot iff per-packet simulation work can
//! reach it.

use crate::symbols::{FnSym, SymbolTable};
use std::collections::BTreeMap;

/// The resolved call graph: `edges[caller] = callee fn ids`.
#[derive(Debug)]
pub struct CallGraph {
    /// Adjacency list, indexed by fn id in the symbol table.
    pub edges: Vec<Vec<usize>>,
}

/// Whether `f` is a hot-path seed (engine entry point).
pub fn is_hot_seed(f: &FnSym) -> bool {
    match f.self_ty.as_deref() {
        Some("Network") => f.name == "run",
        // The PIFO substrate's per-packet dispatch surface: everything a
        // rank program does runs under one of these, so the taint makes
        // L002/L007/L009 cover rank programs out of tree too.
        Some("PifoTree") => matches!(
            f.name.as_str(),
            "select_next" | "backlog" | "requeue" | "arrival_hint"
        ),
        Some("EventQueue") | Some("Engine") => f.krate == "hpfq-events",
        _ => false,
    }
}

impl CallGraph {
    /// Resolves every call site in `st` to candidate definitions.
    pub fn build(st: &SymbolTable) -> CallGraph {
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut qnames: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in st.fns.iter().enumerate() {
            if f.self_ty.is_some() {
                methods.entry(&f.name).or_default().push(i);
            } else {
                free.entry(&f.name).or_default().push(i);
            }
            qnames.entry(f.qname()).or_default().push(i);
        }
        let empty: Vec<usize> = Vec::new();
        let edges = st
            .fns
            .iter()
            .map(|f| {
                let mut out: Vec<usize> = Vec::new();
                for c in &f.calls {
                    let targets: &Vec<usize> = match (&c.qual, c.method) {
                        (Some(q), _) => {
                            let q = if q == "Self" {
                                f.self_ty.clone().unwrap_or_else(|| q.clone())
                            } else {
                                q.clone()
                            };
                            qnames.get(&format!("{q}::{}", c.name)).unwrap_or(&empty)
                        }
                        (None, true) => methods.get(c.name.as_str()).unwrap_or(&empty),
                        (None, false) => free.get(c.name.as_str()).unwrap_or(&empty),
                    };
                    out.extend(targets.iter().copied());
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        CallGraph { edges }
    }

    /// Propagates a taint from `seeds` caller→callee to a fixed point;
    /// returns one flag per fn id.
    pub fn reach(&self, st: &SymbolTable, seed: impl Fn(&FnSym) -> bool) -> Vec<bool> {
        let mut tainted = vec![false; st.fns.len()];
        let mut queue: Vec<usize> = (0..st.fns.len()).filter(|&i| seed(&st.fns[i])).collect();
        for &i in &queue {
            tainted[i] = true;
        }
        while let Some(i) = queue.pop() {
            for &j in &self.edges[i] {
                if !tainted[j] {
                    tainted[j] = true;
                    queue.push(j);
                }
            }
        }
        tainted
    }
}

/// Per-token taint masks for one file, derived from the fn-level taints.
pub fn token_mask(st: &SymbolTable, file: usize, n_tokens: usize, tainted: &[bool]) -> Vec<bool> {
    let mut mask = vec![false; n_tokens];
    for fid in st.fns_of_file(file) {
        if !tainted[fid] {
            continue;
        }
        let (a, b) = st.fns[fid].body;
        if a < b {
            for m in mask
                .iter_mut()
                .take(b.min(n_tokens.saturating_sub(1)) + 1)
                .skip(a)
            {
                *m = true;
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileCtx;

    fn analyse(files: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
        let ctxs: Vec<FileCtx> = files
            .iter()
            .map(|(path, src)| {
                FileCtx::new((*path).to_string(), crate::report::crate_of(path), src)
            })
            .collect();
        let st = SymbolTable::build(&ctxs);
        let cg = CallGraph::build(&st);
        (st, cg)
    }

    #[test]
    fn hot_taint_crosses_crates_via_method_calls() {
        let (st, cg) = analyse(&[
            (
                "crates/hpfq-sim/src/network.rs",
                "impl Network<S, O> { pub fn run(&mut self, h: f64) { self.links.enqueue(h); } }",
            ),
            (
                "crates/hpfq-core/src/hierarchy.rs",
                "impl Hierarchy<S, O> { pub fn enqueue(&mut self, h: f64) { deep_helper(h); } }\n\
                 fn deep_helper(h: f64) {}\n\
                 fn unrelated() {}",
            ),
        ]);
        let hot = cg.reach(&st, is_hot_seed);
        let by_name = |n: &str| st.fns.iter().position(|f| f.name == n).unwrap();
        assert!(hot[by_name("run")]);
        assert!(hot[by_name("enqueue")], "method call must cross the crate");
        assert!(hot[by_name("deep_helper")], "taint must be transitive");
        assert!(!hot[by_name("unrelated")]);
    }

    #[test]
    fn self_qualified_calls_resolve_within_the_impl() {
        let (st, cg) = analyse(&[(
            "crates/hpfq-events/src/lib.rs",
            "impl<E> EventQueue<E> { pub fn pop(&mut self) { Self::fix_heap(); } fn fix_heap() {} }",
        )]);
        let hot = cg.reach(&st, is_hot_seed);
        assert!(
            hot.iter().all(|&h| h),
            "EventQueue ops seed themselves and Self:: calls"
        );
    }
}
