//! Runs both binaries on every workload at a hundredth of the window and
//! holds their output against `BENCHMARK.json`: every metric it names is
//! printed once per workload, finite, with its unit; no check fails; and
//! the ledger's lines add up to the figure they explain.
//!
//! The binaries are run from the repository root, as the driver runs them
//! (results land in the git-ignored `benchmark/out/`).

use std::path::PathBuf;
use std::process::Command;

use hpfq_benchmark::ledger::is_ledger_line;
use hpfq_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use hpfq_benchmark::workloads::NAMES;

/// A hundredth of `BENCHMARK.json`'s `run_seconds`.
const SECONDS: &str = "0.1";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_owned()
}

fn benchmark_json() -> String {
    std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json exists")
}

/// The `(name, unit-or-why)` pairs of the objects in `section`'s array.
/// `BENCHMARK.json` is flat and ours, so a scan is enough.
fn entries(json: &str, section: &str, second_key: &str) -> Vec<(String, String)> {
    let at = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section}"));
    let body = &json[at..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in {obj}"));
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string end");
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, second_key)))
        .collect()
}

fn run(bin: &str, workload: &str, trace: &str) -> String {
    let out = Command::new(bin)
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            SECONDS,
            "--trace",
            trace,
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{bin} --workload {workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The value of `name` in the table: exactly one line, finite, right unit.
fn table_value(stdout: &str, workload: &str, name: &str, unit: &str) -> f64 {
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(name))
        .collect();
    assert_eq!(
        lines.len(),
        1,
        "{workload}: {name} printed {} times",
        lines.len()
    );
    let mut cols = lines[0].split_whitespace().skip(1);
    let value: f64 = cols.next().and_then(|v| v.parse().ok()).expect("a number");
    assert!(value.is_finite(), "{workload}: {name} is {value}");
    assert_eq!(cols.next(), Some(unit), "{workload}: unit of {name}");
    value
}

/// The value of `name` in the driver's last line: there once, finite, with
/// its unit.
fn line_value(stdout: &str, workload: &str, name: &str, unit: &str) -> f64 {
    let line = stdout.lines().last().expect("output");
    let key = format!("\"{name}\": {{\"value\": ");
    assert_eq!(
        line.matches(&key).count(),
        1,
        "{workload}: {name} in the result line"
    );
    let rest = &line[line.find(&key).expect("counted above") + key.len()..];
    let value: f64 = rest[..rest.find(',').expect("unit follows")]
        .parse()
        .expect("a number");
    assert!(value.is_finite(), "{workload}: {name} is {value}");
    assert!(
        rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
        "{workload}: unit of {name} in {rest:.60}"
    );
    value
}

fn assert_result_line_shape(stdout: &str) {
    let line = stdout.lines().last().expect("output");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line:.80}"
    );
    assert!(
        line.contains("\"failed\": 0, \"metrics\": {"),
        "{line:.120}"
    );
}

#[test]
fn benchmark_json_lists_the_registry() {
    let json = benchmark_json();
    let pairs = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    };
    assert_eq!(entries(&json, "end_to_end", "unit"), pairs(END_TO_END));
    assert_eq!(entries(&json, "per_layer", "unit"), pairs(PER_LAYER));
    let workloads: Vec<String> = entries(&json, "workloads", "why")
        .into_iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(workloads, NAMES);
    // The bounds too: `bench --twice` enforces the registry's, the driver
    // BENCHMARK.json's, and they must be the same numbers.
    for d in END_TO_END {
        let needle = format!("\"name\": \"{}\"", d.name);
        let obj = &json[json.find(&needle).expect("listed above")..];
        let obj = &obj[..obj.find('}').expect("object end")];
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        assert!(
            obj.contains(&format!("\"bound\": {bound}")),
            "{}: {obj}",
            d.name
        );
    }
}

#[test]
fn bench_prints_every_end_to_end_metric_once_per_workload() {
    let json = benchmark_json();
    for workload in NAMES {
        let stdout = run(env!("CARGO_BIN_EXE_bench"), workload, "0");
        assert_result_line_shape(&stdout);
        for (name, unit) in entries(&json, "end_to_end", "unit") {
            table_value(&stdout, workload, &name, &unit);
            let v = line_value(&stdout, workload, &name, &unit);
            assert!(v > 0.0, "{workload}: {name} must never be 0, is {v}");
        }
        assert_eq!(table_value(&stdout, workload, "failed_share", "ratio"), 0.0);
        let bound = line_value(&stdout, workload, "rt_delay_over_bound", "ratio");
        assert!(
            bound <= 1.0,
            "{workload}: probes exceed their bound: {bound}"
        );
    }
}

#[test]
fn several_workloads_in_one_run_each_get_a_process_and_a_prefix() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .current_dir(repo_root())
        .args(["--workload", "tandem4", "--workload", "light64"])
        .args(["--seed", "3", "--seconds", SECONDS])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{stdout}");
    assert_result_line_shape(&stdout);
    // Both tables (printed by the children) and both sets of metrics.
    for workload in ["tandem4", "light64"] {
        assert_eq!(stdout.matches(&format!("== {workload} ==")).count(), 1);
        for d in END_TO_END {
            let name = format!("{workload}.{}", d.name);
            assert!(line_value(&stdout, workload, &name, d.unit) > 0.0);
        }
    }
}

#[test]
fn trace_prints_every_per_layer_metric_and_the_ledger_adds_up() {
    let json = benchmark_json();
    for workload in NAMES {
        // A zero exit already means every replay did the run's work in the
        // run's order (the binary checks that itself).
        let stdout = run(env!("CARGO_BIN_EXE_trace"), workload, "1");
        assert_result_line_shape(&stdout);
        let mut lines_sum = 0.0;
        for (name, unit) in entries(&json, "per_layer", "unit") {
            table_value(&stdout, workload, &name, &unit);
            let v = line_value(&stdout, workload, &name, &unit);
            if is_ledger_line(&name) {
                lines_sum += v;
            }
        }
        let whole = line_value(&stdout, workload, "trace.bench_ns_per_pkt", "ns");
        assert!(
            ((lines_sum - whole) / whole).abs() < 0.01,
            "{workload}: ledger lines sum to {lines_sum}, the whole is {whole}"
        );
        assert!(std::path::Path::new(&repo_root())
            .join(format!("benchmark/out/trace-{workload}.jsonl"))
            .exists());
    }
}
