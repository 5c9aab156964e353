//! Pins of the rules that keep dispatch order deterministic and exact,
//! each where it is enforced (DESIGN.md §8):
//!
//! * what clippy enforces — the `clippy.toml` bans, the crate-root panic
//!   lints, `cast_possible_truncation` — is pinned in its configuration
//!   here, so deleting an entry fails a test instead of silently passing
//!   clippy;
//! * what types enforce — `VTime`, the gated observer — is exercised here
//!   and shown not to compile when broken in the `compile_fail` doctests
//!   of `hpfq_core::VTime` and `Hierarchy::observer`;
//! * tolerance literals, which no type can forbid, are scanned for here.

use hpfq::core::{vtime, Hierarchy, Packet, SchedulerKind, VTime};
use hpfq::obs::{BusyResetEvent, Observer};

/// A file of the repository, by its path from the root.
fn repo_file(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Asserts the root `clippy.toml` lists every one of `paths` under `key`
/// (`disallowed-types` or `disallowed-methods`).
fn assert_clippy_bans(key: &str, paths: &[&str]) {
    let toml = repo_file("clippy.toml");
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

/// Tags order only through `VTime`'s named methods (a raw `<` does not
/// compile), each the `vtime` helper of its name: one `EPS`. A one-ulp
/// drift is equal to the tolerant order and not to the exact one.
#[test]
fn l001_raw_vtime_comparisons() {
    let (a, b) = (1.0 + f64::EPSILON, 1.0);
    let (f, v) = (VTime::new(a), VTime::new(b));
    assert!(f.approx_le(v) && v.approx_ge(f) && !f.exactly_le(v) && v.exactly_lt(f));
    assert!(!f.same_stamp(v) && f.same_stamp(f) && f.max(v).same_stamp(f));
    assert_eq!(v.nudge_up().get(), vtime::nudge_up(b));
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
        let root = repo_file(&format!("crates/hpfq-{krate}/src/lib.rs"));
        assert!(root.contains(&attr), "hpfq-{krate} lacks {attr}");
    }
}

/// Float literals `0 < x ≤ 1e-6` in `src` as `(line, literal)`, skipping
/// comments and the items under `#[cfg(test)]` or `#[test]`.
fn small_floats(src: &str) -> Vec<(usize, String)> {
    let (mut found, mut depth, mut test_depth, mut cfg_test) = (Vec::new(), 0, None, false);
    for (n, line) in src.lines().enumerate() {
        let code = line
            .split("//")
            .next()
            .unwrap_or_default()
            .replace("e-", "e~");
        if test_depth.is_some() {
        } else if matches!(code.trim(), "#[cfg(test)]" | "#[test]") {
            cfg_test = true;
        } else if cfg_test && !code.trim_start().starts_with("#[") {
            (cfg_test, test_depth) = (false, code.contains('{').then_some(depth));
        } else {
            for tok in code.split(|c: char| !c.is_ascii_alphanumeric() && !"_.~".contains(c)) {
                let num = tok.replace('~', "-").replace('_', "").replace("f64", "");
                let x = num
                    .trim_end_matches(|c: char| c.is_alphabetic() || c == '.')
                    .parse();
                if tok.starts_with(|c: char| c.is_ascii_digit())
                    && x.is_ok_and(|x: f64| 0.0 < x && x <= 1e-6)
                {
                    found.push((n + 1, num));
                }
            }
        }
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        test_depth = test_depth.filter(|&d| depth > d);
    }
    found
}

/// The only tolerance literals non-test code may hold, by file and line.
const TOLERANCES: [(&str, &str); 8] = [
    ("hpfq-obs/src/vtime.rs", "const EPS"),   // the canonical EPS
    ("hpfq-fluid/src/eps.rs", "const ULP"),   // fluid breakpoint dedup
    ("hpfq-fluid/src/eps.rs", "const TIGHT"), // fluid work at bit scale
    ("hpfq-fluid/src/eps.rs", "const LOOSE"), // fluid drain, EPS at 1
    ("hpfq-analysis/src/lib.rs", "TIME_DEDUP_EPS"), // sbi/wfi instants
    ("hpfq-obs/src/metrics.rs", "const BASE"), // a bucket edge
    ("hpfq-events/src/lib.rs", "self.now - 1e-9"), // no vtime dependency
    ("hpfq-chaos/src/soak.rs", "down - 1e-9"), // real-time outage slop
];

/// The violating lines are found, by line and literal, also after a test
/// module.
#[test]
fn l003_hardcoded_tolerances() {
    let src = "let close = (a - b).abs() < 1e-9;\nlet tight = (a - b).abs() < 1e-12f64;\n\
               #[cfg(test)]\nmod tests {\n    fn f() { 1e-9 }\n}\nconst C: f64 = 5e-7;";
    let found = [(1, "1e-9"), (2, "1e-12"), (7, "5e-7")].map(|(n, l)| (n, l.to_string()));
    assert_eq!(small_floats(src), found);
}

/// Ordinary magnitudes, comments and test code hold no tolerance.
#[test]
fn clean_fixture_is_clean() {
    let src = "x * 0.5 + 1.0 - 1e-3 // 1e-9\n#[cfg(test)]\nmod tests {\n    fn f() { 1e-9 }\n}\n\
               #[test]\nfn g() {\n    1e-9\n}";
    assert_eq!(small_floats(src), []);
}

/// `src/` and `crates/*/src/` hold no tolerance literal outside
/// [`TOLERANCES`], and each of those is still there.
#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path());
    let mut dirs: Vec<_> = crates
        .map(|c| c.join("src"))
        .chain([root.join("src")])
        .collect();
    let (mut stray, mut seen) = (Vec::new(), [false; TOLERANCES.len()]);
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            for (n, lit) in small_floats(&src) {
                let line = src.lines().nth(n - 1).unwrap_or_default();
                match TOLERANCES
                    .iter()
                    .position(|&(f, s)| path.ends_with(f) && line.contains(s))
                {
                    Some(k) => seen[k] = true,
                    None => stray.push(format!("{}:{n}: {lit}", path.display())),
                }
            }
        }
    }
    assert!(
        stray.is_empty(),
        "tolerance literals outside vtime::EPS: {stray:#?}"
    );
    let stale: Vec<_> = TOLERANCES.iter().zip(seen).filter(|&(_, s)| !s).collect();
    assert!(stale.is_empty(), "stale TOLERANCES entries: {stale:?}");
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

/// A float or integer narrowing `as` cast is a clippy warning in every
/// crate of the workspace (CI denies warnings).
#[test]
fn l005_float_int_casts() {
    let manifest = repo_file("Cargo.toml");
    let lints = manifest
        .split_once("[workspace.lints.clippy]\n")
        .and_then(|(_, rest)| rest.split("\n[").next())
        .unwrap_or_default();
    assert!(
        lints.contains("\ncast_possible_truncation = \"warn\""),
        "[workspace.lints.clippy] lacks cast_possible_truncation"
    );
    let crates = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/crates")).unwrap();
    for krate in crates.map(|e| e.unwrap().path().join("Cargo.toml")) {
        let manifest = std::fs::read_to_string(&krate).unwrap();
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            krate.display()
        );
    }
}

/// Counts every hook call; disabled, so a hierarchy must make none.
struct Tripwire(u64);

macro_rules! count_hooks {
    ($($hook:ident($event:ident)),*) => {
        $(fn $hook(&mut self, _: &hpfq::obs::$event) {
            self.0 += 1;
        })*
    };
}

impl Observer for Tripwire {
    const ENABLED: bool = false;
    count_hooks!(
        on_enqueue(EnqueueEvent),
        on_drop(DropEvent),
        on_dispatch(DispatchEvent),
        on_tx_start(TxEvent),
        on_tx_complete(TxEvent),
        on_node_backlog(BacklogEvent),
        on_busy_reset(BusyResetEvent),
        on_fault(FaultEvent)
    );
}

/// Every hook call goes through the `O::ENABLED` gate (one that does not
/// is a compile error: `Hierarchy::observer`'s `compile_fail` doctest), so
/// a disabled observer sees nothing of a run that touches every hook.
#[test]
fn l006_ungated_observer_call() {
    let wf2qp = |r| SchedulerKind::Wf2qPlus.build(r);
    let mut b = Hierarchy::builder_with_observer(1e6, wf2qp, Tripwire(0));
    let class = b.add_internal(b.root(), 0.5).unwrap();
    let leaves = [
        b.add_leaf(class, 0.5).unwrap(),
        b.add_leaf(b.root(), 0.5).unwrap(),
    ];
    let mut h = b.build();
    for (id, &leaf) in (0..8).zip(leaves.iter().cycle()) {
        h.enqueue(leaf, Packet::new(id, 0, 100, 0.0));
    }
    h.remove_leaf(leaves[0]).unwrap();
    while h.dequeue().is_some() {}
    h.observe(|o| {
        o.on_busy_reset(&BusyResetEvent {
            time: 0.0,
            link: 0,
            node: 0,
        })
    });
    assert_eq!(h.into_observer().0, 0);
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
