//! `hpfq-trace` refuses a bad command line with its usage error (exit 2)
//! instead of panicking, and before it reads any input; given a good one
//! and a valid trace, it exits 0 and writes where `--out` says.

use std::ffi::OsStr;
use std::io::Write as _;
use std::os::unix::ffi::OsStrExt;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn hpfq_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpfq-trace"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("the binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn non_utf8_argument_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpfq-trace"))
        .arg(OsStr::from_bytes(b"\xff"))
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn unknown_command_is_refused_before_the_file_is_read() {
    assert_usage_error(
        &hpfq_trace(&["bogus", "/nonexistent/trace.jsonl"]),
        "unknown command",
    );
}

#[test]
fn unknown_command_does_not_wait_for_stdin() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpfq-trace"))
        .arg("bogus")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary runs");
    // Hold stdin open (and non-empty) for the whole wait.
    let mut stdin = child.stdin.take().expect("piped stdin");
    let _ = stdin.write_all(b"{\"ev\":\"busy_reset\",\"t\":1,\"node\":0}\n");
    // Poll for up to 250 × 20 ms = 5 s.
    let mut status = None;
    for _ in 0..250 {
        status = child.try_wait().expect("wait on the child");
        if status.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("`hpfq-trace bogus` was still reading stdin after 5 s");
    };
    drop(stdin);
    let out = child.wait_with_output().expect("collect stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn non_finite_time_bounds_are_usage_errors() {
    for (flag, value) in [
        ("--from", "NaN"),
        ("--to", "nan"),
        ("--from", "-inf"),
        ("--to", "inf"),
    ] {
        assert_usage_error(
            &hpfq_trace(&["filter", "/nonexistent/trace.jsonl", flag, value]),
            flag,
        );
    }
}

#[test]
fn summary_refuses_filter_options_before_the_file_is_read() {
    for (flag, value) in [
        ("--flow", "3"),
        ("--link", "0"),
        ("--node", "1"),
        ("--from", "0.5"),
        ("--to", "1"),
    ] {
        assert_usage_error(
            &hpfq_trace(&["summary", "/nonexistent", flag, value]),
            "summary takes no filter option",
        );
    }
}

#[test]
fn summary_of_a_valid_trace_exits_zero_and_counts_no_malformed_line() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let trace = format!("{dir}/argv-summary-{}.jsonl", std::process::id());
    let out = format!("{trace}.txt");
    std::fs::write(
        &trace,
        concat!(
            r#"{"ev":"enqueue","t":0.2,"link":0,"leaf":3,"id":7,"flow":1,"len":8192,"arr":0.2,"depth":2,"qbytes":16384}"#,
            "\n",
            r#"{"ev":"tx_start","t":0.2,"link":0,"leaf":3,"id":7,"flow":1,"len":8192,"arr":0.2}"#,
            "\n",
            r#"{"ev":"tx_end","t":0.21,"link":0,"leaf":3,"id":7,"flow":1,"len":8192,"arr":0.2}"#,
            "\n",
            r#"{"ev":"busy_reset","t":0.4,"link":0,"node":0}"#,
            "\n",
        ),
    )
    .expect("write the trace");
    let run = hpfq_trace(&["summary", &trace, "--out", &out]);
    let summary = std::fs::read_to_string(&out).unwrap_or_default();
    let _ = (std::fs::remove_file(&trace), std::fs::remove_file(&out));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(summary.contains("events: 4 "), "{summary}");
    assert!(summary.contains("malformed: 0"), "{summary}");
}
