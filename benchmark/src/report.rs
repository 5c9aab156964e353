//! The metric registry (`BENCHMARK.json` lists the same names; the smoke
//! test holds the two together) and the output shared by both binaries:
//! a table a person can read, a result file under `benchmark/out/`, and the
//! one-line JSON object the driver reads.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::measure::{steal_ticks, Meta, Summary};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric: its name, unit and direction, and — for end-to-end metrics —
/// the share of the reference by which it may worsen before that is a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured by `bench` with tracing off.
///
/// The bounds are what the 2-core build host can resolve, not what one
/// would like. Ten runs on ten seeds spread (inter-quartile, as a share of
/// the median) by 2-10 % on three workloads, but `wide128k` — memory-bound,
/// so at the mercy of whoever shares the host's caches — by 4-13 %
/// depending on the quarter hour (README, "Noise" and "Baseline"), and a
/// bound must stay clear of the spread or it flags the host's regressions.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pkts_per_s", "pkt/s", Higher, 0.25),
    e2e("ns_per_pkt_p50", "ns", Lower, 0.25),
    e2e("ns_per_pkt_p95", "ns", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("rt_delay_over_bound", "ratio", Lower, 0.25),
];

/// Per-layer metrics, measured by `trace`. `<layer>.self_ns_per_pkt` are
/// the ledger lines: with `network.residual_ns_per_pkt` they add up to
/// `trace.bench_ns_per_pkt`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("events.push_ns", "ns", Lower),
    layer("events.pop_ns", "ns", Lower),
    layer("events.per_pkt", "count", Lower),
    layer("events.peak_outstanding", "count", Lower),
    layer("events.self_ns_per_pkt", "ns", Lower),
    layer("source.wake_ns", "ns", Lower),
    layer("source.allocs_per_wake", "count", Lower),
    layer("source.self_ns_per_pkt", "ns", Lower),
    layer("stats.record_ns_per_pkt", "ns", Lower),
    layer("hierarchy.enqueue_ns", "ns", Lower),
    layer("hierarchy.start_ns", "ns", Lower),
    layer("hierarchy.complete_ns", "ns", Lower),
    layer("hierarchy.self_ns_per_pkt", "ns", Lower),
    layer("hierarchy.path_len_mean", "count", Lower),
    layer("pifo.backlog_ns", "ns", Lower),
    layer("pifo.select_ns", "ns", Lower),
    layer("pifo.requeue_ns", "ns", Lower),
    layer("pifo.calls_per_pkt", "count", Lower),
    layer("pifo.self_ns_per_pkt", "ns", Lower),
    layer("eligible.insert_ns", "ns", Lower),
    layer("eligible.threshold_ns", "ns", Lower),
    layer("eligible.pop_ns", "ns", Lower),
    layer("eligible.ops_per_pkt", "count", Lower),
    layer("eligible.mean_members", "count", Lower),
    layer("eligible.self_ns_per_pkt", "ns", Lower),
    layer("tcp.on_delivered_ns", "ns", Lower),
    layer("tcp.self_ns_per_pkt", "ns", Lower),
    layer("tcp.retransmit_share", "ratio", Lower),
    layer("tcp.goodput_share", "ratio", Higher),
    layer("network.residual_ns_per_pkt", "ns", Lower),
    layer("network.residual_share", "ratio", Lower),
    layer("network.allocs_per_pkt", "count", Lower),
    layer("network.alloc_bytes_per_pkt", "B", Lower),
    layer("network.drop_share", "ratio", Lower),
    layer("network.hops_per_pkt", "count", Lower),
    layer("network.bytes_per_flow", "B", Lower),
    layer("parallel.par2_ns_per_pkt", "ns", Lower),
    layer("parallel.speedup_2", "ratio", Higher),
    layer("parallel.fallback", "count", Lower),
    layer("obs.metrics_overhead_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.span_overhead_ns", "ns", Lower),
    layer("trace.bench_ns_per_pkt", "ns", Lower),
    layer("setup.build_s", "s", Lower),
    layer("setup.warmup_s", "s", Lower),
];

/// A JSON value; just enough to write results without a dependency.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // JSON has no NaN or infinity; a metric that is not finite is a
            // bug the smoke test catches, so make it visible as null.
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Everything one workload produced in one run of either binary.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    /// One entry per metric of the binary's table, in table order.
    pub metrics: Vec<(MetricDef, Summary)>,
    pub sim_digest: u64,
    /// Correctness checks attempted and the messages of those that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The table a person reads: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.workload);
        let _ = writeln!(
            out,
            "{:<30} {:>16} {:<6} {:>16} {:>16} {:>3}",
            "metric", "value", "unit", "rep min", "rep max", "n"
        );
        for (d, s) in &self.metrics {
            let _ = writeln!(
                out,
                "{:<30} {:>16.6} {:<6} {:>16.6} {:>16.6} {:>3}",
                d.name, s.value, d.unit, s.min, s.max, s.n
            );
        }
        let _ = writeln!(
            out,
            "{:<30} {:>16.6} {:<6} ({} of {} checks failed)",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.failures.len(),
            self.attempted
        );
        let _ = writeln!(out, "{:<30} {:>16x}", "sim_digest", self.sim_digest);
        for f in &self.failures {
            let _ = writeln!(out, "FAILED CHECK: {f}");
        }
        out
    }

    /// The outcome as plain lines, read back by [`Outcome::from_lines`]: how
    /// `bench` hands a workload's result from the child process that ran it
    /// to the parent. Floats are written in full and read back bit for bit.
    pub fn to_lines(&self) -> String {
        let mut out = format!("workload {}\n", self.workload);
        for (d, s) in &self.metrics {
            let _ = writeln!(
                out,
                "metric {} {} {} {} {}",
                d.name, s.value, s.min, s.max, s.n
            );
        }
        let _ = writeln!(out, "sim_digest {:016x}", self.sim_digest);
        let _ = writeln!(out, "attempted {}", self.attempted);
        for f in &self.failures {
            let _ = writeln!(out, "failure {}", f.replace('\n', " "));
        }
        out
    }

    /// Inverse of [`Outcome::to_lines`]; `defs` is the registry the metric
    /// names are looked up in.
    pub fn from_lines(text: &str, defs: &[MetricDef]) -> Result<Outcome, String> {
        let mut o = Outcome {
            workload: "",
            metrics: Vec::new(),
            sim_digest: 0,
            attempted: 0,
            failures: Vec::new(),
        };
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("bad outcome line '{line}'");
            match key {
                "workload" => {
                    o.workload = crate::workloads::NAMES
                        .iter()
                        .find(|n| **n == rest)
                        .ok_or_else(bad)?;
                }
                "metric" => {
                    let cols: Vec<&str> = rest.split(' ').collect();
                    let [name, value, min, max, n] = cols[..] else {
                        return Err(bad());
                    };
                    let def = defs.iter().find(|d| d.name == name).ok_or_else(bad)?;
                    let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
                    let summary = Summary {
                        value: num(value)?,
                        min: num(min)?,
                        max: num(max)?,
                        n: n.parse().map_err(|_| bad())?,
                    };
                    o.metrics.push((*def, summary));
                }
                "sim_digest" => o.sim_digest = u64::from_str_radix(rest, 16).map_err(|_| bad())?,
                "attempted" => o.attempted = rest.parse().map_err(|_| bad())?,
                "failure" => o.failures.push(rest.to_owned()),
                _ => return Err(bad()),
            }
        }
        if o.workload.is_empty() || o.metrics.len() != defs.len() {
            return Err("incomplete outcome".to_owned());
        }
        Ok(o)
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, s)| {
                let mut fields = vec![
                    ("value".to_owned(), Json::Num(s.value)),
                    ("unit".to_owned(), Json::str(d.unit)),
                    ("min".to_owned(), Json::Num(s.min)),
                    ("max".to_owned(), Json::Num(s.max)),
                    ("n".to_owned(), Json::Int(s.n as u64)),
                ];
                if let Some(b) = d.bound {
                    fields.push(("bound".to_owned(), Json::Num(b)));
                }
                (d.name.to_owned(), Json::Obj(fields))
            })
            .collect();
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("metrics", Json::Obj(metrics)),
            ("failed_share", Json::Num(self.failed_share())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failures.len() as u64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("sim_digest", Json::str(format!("{:016x}", self.sim_digest))),
        ])
    }
}

fn meta_json(meta: &Meta) -> Json {
    Json::obj([
        ("nproc", Json::Int(meta.nproc as u64)),
        ("cpu_model", Json::str(&meta.cpu_model)),
        ("rustc", Json::str(meta.rustc)),
        ("git_commit", Json::str(&meta.git_commit)),
        ("seed", Json::Int(meta.seed)),
        ("seconds", Json::Num(meta.seconds)),
        ("host_spin_ns", Json::Num(meta.host_spin_ns)),
        (
            "steal_ticks",
            Json::Int(steal_ticks().saturating_sub(meta.steal_ticks_at_start)),
        ),
    ])
}

/// `benchmark/out/` under the working directory — the repository root, from
/// which both the driver and the documented commands run the binaries.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    // Created on demand: the directory is git-ignored, so a fresh checkout
    // does not have it.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes `benchmark/out/<tool>-<workloads>-seed<seed>.json` and returns
/// its path. Failing to write is reported, not fatal: the numbers are on
/// standard output as well.
pub fn write_result(tool: &str, meta: &Meta, outcomes: &[Outcome], notes: &[&str]) -> PathBuf {
    // `--twice` brings every workload twice; name it once.
    let mut names: Vec<&str> = Vec::new();
    for o in outcomes {
        if !names.contains(&o.workload) {
            names.push(o.workload);
        }
    }
    let path = out_dir().join(format!("{tool}-{}-seed{}.json", names.join("+"), meta.seed));
    let doc = Json::obj([
        ("tool", Json::str(tool)),
        ("meta", meta_json(meta)),
        (
            "notes",
            Json::Arr(notes.iter().map(|n| Json::str(*n)).collect()),
        ),
        (
            "workloads",
            Json::Arr(outcomes.iter().map(Outcome::to_json).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// With several workloads in one run, metric names carry the workload as a
/// prefix.
pub fn driver_line(outcomes: &[Outcome]) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failures.len() as u64).sum();
    let mut metrics = Vec::new();
    for o in outcomes {
        for (d, s) in &o.metrics {
            let name = if outcomes.len() == 1 {
                d.name.to_owned()
            } else {
                format!("{}.{}", o.workload, d.name)
            };
            metrics.push((
                name,
                Json::obj([("value", Json::Num(s.value)), ("unit", Json::str(d.unit))]),
            ));
        }
    }
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// Command-line options both binaries take.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workloads to run, in order; all four when none is named.
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `bench` only: run the set twice and compare.
    pub twice: bool,
    /// `bench` only, set by `bench` itself when it runs a workload in a
    /// child process: where the child leaves its [`Outcome::to_lines`].
    pub outcome: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--twice]`. `trace_flag` is the value of `--trace` this binary
    /// serves: the driver passes the flag to whichever binary `run.sh`
    /// picked, and a mismatch means the wrong one was started.
    pub fn parse(argv: impl Iterator<Item = String>, trace_flag: u8) -> Result<Args, String> {
        let mut args = Args {
            workloads: Vec::new(),
            seed: 1,
            seconds: 10.0,
            twice: false,
            outcome: None,
        };
        let mut argv = argv.skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    if !crate::workloads::NAMES.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown workload '{name}' (known: {})",
                            crate::workloads::NAMES.join(", ")
                        ));
                    }
                    args.workloads.push(name);
                }
                "--seed" => {
                    let v = value()?;
                    args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    args.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or(format!("bad --seconds '{v}'"))?;
                }
                "--trace" => {
                    let v = value()?;
                    if v != trace_flag.to_string() {
                        return Err(format!(
                            "--trace {v} is served by the other binary (this one is --trace {trace_flag})"
                        ));
                    }
                }
                "--twice" => args.twice = true,
                "--outcome" => args.outcome = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if args.workloads.is_empty() {
            args.workloads = crate::workloads::NAMES
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nests() {
        let v = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Arr(vec![Json::Int(2), Json::Bool(true)])),
            ("c", Json::str("x\"y\\z\n")),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a": 1.5, "b": [2, true], "c": "x\"y\\z\n", "d": null}"#
        );
    }

    #[test]
    fn outcome_survives_the_trip_between_processes() {
        let o = Outcome {
            workload: "tandem4",
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let v = 7.617619829968353e-6 * (i + 1) as f64;
                    (*d, Summary::over(v, &[v / 3.0, v * 3.0]))
                })
                .collect(),
            sim_digest: 0x8294_a452_cf84_8099,
            attempted: 79,
            failures: vec!["rep 3: probe delay is 1.5 of its bound".to_owned()],
        };
        let back = Outcome::from_lines(&o.to_lines(), END_TO_END).unwrap();
        assert_eq!(back.workload, o.workload);
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(
            (back.sim_digest, back.attempted, &back.failures),
            (o.sim_digest, o.attempted, &o.failures)
        );
        // A child that died half way leaves a file that is refused.
        assert!(Outcome::from_lines("workload tandem4\nattempted 3\n", END_TO_END).is_err());
        assert!(Outcome::from_lines("workload nope\n", END_TO_END).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn args_parse_the_driver_form() {
        let argv = "bench --workload tandem4 --seed 7 --seconds 2.5 --trace 0"
            .split(' ')
            .map(str::to_owned);
        let a = Args::parse(argv, 0).unwrap();
        assert_eq!(a.workloads, vec!["tandem4"]);
        assert_eq!((a.seed, a.seconds, a.twice), (7, 2.5, false));
        // Defaults: every workload.
        let a = Args::parse(["bench".to_owned()].into_iter(), 0).unwrap();
        assert_eq!(a.workloads.len(), 4);
        // The wrong binary for the flag, unknown names and bad numbers are
        // refused rather than guessed at.
        let bad = |s: &str| Args::parse(s.split(' ').map(str::to_owned), 0).is_err();
        assert!(bad("bench --trace 1"));
        assert!(bad("bench --workload nope"));
        assert!(bad("bench --seconds -1"));
        assert!(bad("bench --seed"));
        assert!(bad("bench --frobnicate"));
    }
}
