//! `hpfq-trace` refuses a bad command line with its usage error (exit 2)
//! instead of panicking, and before it reads any input.

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
