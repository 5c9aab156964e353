//! `chaos-soak` refuses a command-line argument that is not UTF-8 with its
//! usage error instead of panicking.

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::process::Command;

#[test]
fn non_utf8_argument_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos-soak"))
        .arg(OsStr::from_bytes(b"\xff"))
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}
