//! Compares a fresh bench-JSON report against a committed baseline and
//! warns about dispatch-path regressions.
//!
//! ```text
//! bench_compare <baseline.json> <current.json> [--threshold 15] [--deny]
//! ```
//!
//! Rows are matched on `(group, name, size)`. A `dispatch`-group row more
//! than `--threshold` percent slower than its baseline counterpart prints
//! a `REGRESSION` warning; other groups are reported informationally.
//! The exit code stays 0 unless `--deny` is given — CI runs this
//! non-blocking, because smoke-profile numbers on shared runners are
//! noisy and a hard gate would flake. Rows present on one side only are
//! listed so coverage drift is visible, never silent.
//!
//! Dispatch rows measured at several sizes (the flow-count scaling sweep)
//! additionally get a **slope check**: per name, the end-to-end growth
//! factor `ns(max size) / ns(min size)` must stay within [`MAX_GROWTH`].
//! Growth is a property of the *current* run alone, so it flags a
//! complexity regression even when every per-size row drifted in lockstep
//! under the pairwise threshold. Slope violations print a `SLOPE` warning
//! and fail the run under `--deny`, like the pairwise regressions.
//!
//! A missing or malformed report, or a flag value that does not parse, is
//! a message on stderr and a non-zero exit code.

use std::collections::BTreeMap;
use std::process::ExitCode;

use hpfq_bench::microbench::{parse_bench_json, BenchRecord};

/// Ceiling on a dispatch sweep's growth factor. The committed O(log N)
/// trajectory grows 2.5x from 64 to 4M flows; a structure that went linear
/// grows by orders of magnitude.
const MAX_GROWTH: f64 = 8.0;

fn load(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_bench_json(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_compare: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Compares the two reports named in `args` and prints the tables;
/// `Ok(false)` when `--deny` was given and something regressed, `Err` for
/// input that cannot be compared at all.
fn run(args: &[String]) -> Result<bool, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut threshold = 15.0f64;
    let mut deny = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it.next().ok_or("--threshold requires a value")?;
                threshold = v.parse().map_err(|e| format!("--threshold {v}: {e}"))?;
            }
            "--deny" => deny = true,
            _ => positional.push(a),
        }
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        return Err(
            "usage: bench_compare <baseline.json> <current.json> [--threshold N] [--deny]".into(),
        );
    };

    let baseline = load(baseline_path)?;
    let current = load(current_path)?;

    let mut regressions = 0usize;
    let mut matched = 0usize;
    println!(
        "== bench_compare: {current_path} vs baseline {baseline_path} (threshold {threshold}%) =="
    );
    for cur in &current {
        let Some(base) = baseline
            .iter()
            .find(|b| b.group == cur.group && b.name == cur.name && b.size == cur.size)
        else {
            println!(
                "  NEW        {}/{} @{} ({:.1} ns/op, no baseline row)",
                cur.group, cur.name, cur.size, cur.ns_per_op
            );
            continue;
        };
        matched += 1;
        let delta_pct = (cur.ns_per_op / base.ns_per_op - 1.0) * 100.0;
        let slow = delta_pct > threshold;
        let gated = cur.group == "dispatch";
        if slow && gated {
            regressions += 1;
        }
        let tag = match (slow, gated) {
            (true, true) => "REGRESSION",
            (true, false) => "slower",
            _ => "ok",
        };
        println!(
            "  {tag:<10} {}/{} @{}: {:.1} -> {:.1} ns/op ({:+.1}%)",
            cur.group, cur.name, cur.size, base.ns_per_op, cur.ns_per_op, delta_pct
        );
    }
    for base in &baseline {
        if !current
            .iter()
            .any(|c| c.group == base.group && c.name == base.name && c.size == base.size)
        {
            println!(
                "  MISSING    {}/{} @{} (in baseline, not in current)",
                base.group, base.name, base.size
            );
        }
    }
    // Scaling-sweep slope check: a dispatch row family measured at 2+
    // sizes is a complexity trajectory, not a point. Gate the end-to-end
    // growth factor of the *current* run, so a structure that quietly
    // degenerated to a steeper curve is caught even if the committed
    // baseline drifted with it (the pairwise rows above would then all
    // read "ok").
    let mut sweeps: BTreeMap<&str, Vec<&BenchRecord>> = BTreeMap::new();
    for row in current.iter().filter(|r| r.group == "dispatch") {
        sweeps.entry(&row.name).or_default().push(row);
    }
    sweeps.retain(|_, rows| rows.len() >= 2);
    if !sweeps.is_empty() {
        println!("== scaling sweeps: growth factor gated at {MAX_GROWTH}x ==");
    }
    let mut slope_violations = 0usize;
    for (name, rows) in &mut sweeps {
        rows.sort_by_key(|r| r.size);
        let (first, last) = (rows[0], rows[rows.len() - 1]);
        let growth = last.ns_per_op / first.ns_per_op;
        let blown = growth > MAX_GROWTH;
        slope_violations += usize::from(blown);
        println!(
            "  {:<10} dispatch/{name}: {growth:.1}x growth over {} -> {} flows",
            if blown { "SLOPE" } else { "ok" },
            first.size,
            last.size
        );
    }

    // Per-phase wall-clock breakdown (group "phase", emitted by profile
    // builds): show each phase's share of the total and its drift. Purely
    // informational — phase means are wall-clock on shared runners.
    let phase_total = |rows: &[BenchRecord]| -> f64 {
        rows.iter()
            .filter(|r| r.group == "phase")
            .map(|r| r.ns_per_op)
            .sum()
    };
    let cur_total = phase_total(&current);
    if cur_total > 0.0 {
        let base_total = phase_total(&baseline);
        println!("== phase breakdown (non-gating) ==");
        for cur in current.iter().filter(|r| r.group == "phase") {
            let share = cur.ns_per_op / cur_total * 100.0;
            let drift = baseline
                .iter()
                .find(|b| b.group == cur.group && b.name == cur.name && b.size == cur.size)
                .map(|b| format!("{:+.1}%", (cur.ns_per_op / b.ns_per_op - 1.0) * 100.0))
                .unwrap_or_else(|| "new".to_string());
            println!(
                "  {:<32} {:>10.1} ns mean  {share:>5.1}% of breakdown  drift {drift}",
                cur.name, cur.ns_per_op
            );
        }
        if base_total > 0.0 {
            println!(
                "  breakdown total: {base_total:.1} -> {cur_total:.1} ns ({:+.1}%)",
                (cur_total / base_total - 1.0) * 100.0
            );
        }
    }

    println!(
        "== {matched} rows compared, {regressions} dispatch regression(s) over {threshold}%, \
         {slope_violations} sweep slope violation(s) over {MAX_GROWTH}x =="
    );
    let failed = regressions + slope_violations > 0;
    if failed && !deny {
        eprintln!("warning: non-blocking; pass --deny to gate");
    }
    Ok(!(deny && failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfq_bench::microbench::records_to_json;

    fn run_on(args: &[&str]) -> Result<bool, String> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn hostile_input_is_an_error_not_a_panic() {
        let path = |name: &str| {
            let file = format!("bench_compare-{}-{name}.json", std::process::id());
            let path = std::env::temp_dir().join(file);
            path.to_string_lossy().into_owned()
        };
        let (good, cut, missing) = (path("good"), path("cut"), path("missing"));
        let row = |size| BenchRecord {
            group: "dispatch".into(),
            name: "wf2q+/scale/pifo".into(),
            size,
            ns_per_op: 100.0,
        };
        let doc = records_to_json(&[], &[row(64), row(1024)]);
        std::fs::write(&good, &doc).unwrap();
        // Cut off inside the second record.
        std::fs::write(&cut, &doc[..doc.len() - 30]).unwrap();

        assert_eq!(run_on(&[&good, &good, "--deny"]), Ok(true));
        let err = run_on(&[&good, &missing]).unwrap_err();
        assert!(err.starts_with(&format!("reading {missing}: ")), "{err}");
        let err = run_on(&[&cut, &good]).unwrap_err();
        assert!(err.starts_with(&format!("parsing {cut}: ")), "{err}");
        let err = run_on(&[&good, &good, "--threshold", "abc"]).unwrap_err();
        assert!(err.starts_with("--threshold abc: "), "{err}");
        assert!(run_on(&[&good, &good, "--threshold"]).is_err());
        assert!(run_on(&[&good]).unwrap_err().starts_with("usage: "));

        for file in [good, cut] {
            std::fs::remove_file(file).unwrap();
        }
    }
}
