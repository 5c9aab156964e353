//! CLI for the hpfq-lint static-analysis pass.
//!
//! ```text
//! cargo run -p hpfq-lint -- --workspace           # human diagnostics
//! cargo run -p hpfq-lint -- --workspace --deny    # CI: exit 1 on violations
//! cargo run -p hpfq-lint -- --workspace --json    # machine-readable report
//! cargo run -p hpfq-lint -- --list-rules
//! cargo run -p hpfq-lint -- --explain L006        # rationale + fix example
//! cargo run -p hpfq-lint -- path/to/file.rs …     # lint specific files
//! ```

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;

use hpfq_lint::{explain, lint_files, lint_workspace, report, Finding, RULES};

fn usage() -> &'static str {
    "usage: hpfq-lint [--workspace | FILE...] [--root DIR] [--json] [--deny] [--list-rules] \
     [--explain RULE]\n\
     \n\
     --workspace     lint src/ and crates/*/src/ under the root (default: cwd)\n\
     --root DIR      workspace root for --workspace and relative diagnostics\n\
     --json          emit the machine-readable JSON report instead of text\n\
     --deny          exit non-zero if any unsuppressed violation remains\n\
     --list-rules    print the rule catalog and exit\n\
     --explain RULE  print a rule's rationale and a minimal fix example"
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut paths: Vec<PathBuf> = Vec::new();

    let argv = std::env::args_os().skip(1).map(OsString::into_string);
    let mut args = match argv.collect::<Result<Vec<_>, _>>() {
        Ok(argv) => argv.into_iter(),
        Err(a) => {
            eprintln!("argument {a:?} is not UTF-8\n{}", usage());
            return ExitCode::from(2);
        }
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--deny" => deny = true,
            "--list-rules" => {
                for r in &RULES {
                    println!("{}  {:<26} {}", r.id, r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => match args.next() {
                Some(id) => match explain(&id) {
                    Some(text) => {
                        print!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!("unknown rule `{id}` — run --list-rules for the catalog");
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("--explain requires a rule id (e.g. L006)\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("--root requires a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::from(2);
            }
            file => paths.push(PathBuf::from(file)),
        }
    }

    // `cargo run -p hpfq-lint` runs from the workspace root; `--root`
    // overrides for out-of-tree invocations.
    let findings: std::io::Result<Vec<Finding>> = if workspace {
        lint_workspace(&root)
    } else if paths.is_empty() {
        eprintln!("nothing to lint\n{}", usage());
        return ExitCode::from(2);
    } else {
        lint_files(&root, &paths)
    };

    let findings = match findings {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hpfq-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report::render_json(&findings));
    } else {
        print!("{}", report::render_human(&findings));
    }

    let live = findings.iter().filter(|f| !f.suppressed).count();
    if deny && live > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
