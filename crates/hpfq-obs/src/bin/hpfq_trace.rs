//! `hpfq-trace` — query JSONL traces and flight-recorder dumps.
//!
//! ```text
//! hpfq-trace <COMMAND> [FILE] [OPTIONS]
//!
//! Commands:
//!   summary   Tally events, flight headers, and time range
//!   filter    Print event lines matching the filters
//!   delays    Per-flow delay percentiles from tx_end events
//!   chrome    Render a Chrome trace-event (Perfetto) JSON document
//!
//! FILE defaults to `-` (stdin).
//!
//! Options:
//!   --link N    Keep only events on link N        (filter, delays)
//!   --flow N    Keep only events of flow N        (filter, delays)
//!   --node N    Keep only events of node/leaf N   (filter, delays)
//!   --from T    Keep only events at t >= T        (filter, delays)
//!   --to T      Keep only events at t <= T        (filter, delays)
//!   --out PATH  Write output to PATH instead of stdout
//! ```
//!
//! All the heavy lifting lives in `hpfq_obs::query`, which is unit tested;
//! this binary only parses arguments and moves bytes.

use std::ffi::OsString;
use std::io::Read as _;

use hpfq_obs::query::{
    chrome_from_text, delay_report, filter_lines, render_delays, render_summary, summarize, Filter,
};

const USAGE: &str = "usage: hpfq-trace <summary|filter|delays|chrome> \
                     [FILE|-] [--link N] [--flow N] [--node N] [--from T] [--to T] [--out PATH]";

struct Args {
    command: String,
    file: String,
    filter: Filter,
    out: Option<String>,
}

fn parse_args(argv: impl Iterator<Item = OsString>) -> Result<Args, String> {
    let argv = argv
        .map(OsString::into_string)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|a| format!("argument {a:?} is not UTF-8\n{USAGE}"))?;
    let mut command = None;
    let mut file = None;
    let mut filter = Filter::default();
    let mut out = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--link" => {
                filter.link = Some(
                    value("--link")?
                        .parse()
                        .map_err(|e| format!("--link: {e}"))?,
                )
            }
            "--flow" => {
                filter.flow = Some(
                    value("--flow")?
                        .parse()
                        .map_err(|e| format!("--flow: {e}"))?,
                )
            }
            "--node" => {
                filter.node = Some(
                    value("--node")?
                        .parse()
                        .map_err(|e| format!("--node: {e}"))?,
                )
            }
            "--from" => {
                filter.t_from = Some(
                    value("--from")?
                        .parse()
                        .map_err(|e| format!("--from: {e}"))?,
                )
            }
            "--to" => filter.t_to = Some(value("--to")?.parse().map_err(|e| format!("--to: {e}"))?),
            "--out" => out = Some(value("--out")?.clone()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if command.is_none() => command = Some(other.to_string()),
            other if file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Args {
        command: command.ok_or_else(|| USAGE.to_string())?,
        file: file.unwrap_or_else(|| "-".to_string()),
        filter,
        out,
    })
}

fn read_input(file: &str) -> Result<String, String> {
    if file == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))
    }
}

fn run(args: &Args) -> Result<String, String> {
    let text = read_input(&args.file)?;
    match args.command.as_str() {
        "summary" => Ok(render_summary(&summarize(&text))),
        "filter" => Ok(filter_lines(&text, &args.filter)),
        "delays" => Ok(render_delays(&delay_report(&text, &args.filter))),
        "chrome" => Ok(chrome_from_text(&text)),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() {
    let args = match parse_args(std::env::args_os().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(output) => {
            if let Some(path) = &args.out {
                if let Err(e) = std::fs::write(path, &output) {
                    eprintln!("writing {path}: {e}");
                    std::process::exit(1);
                }
            } else {
                print!("{output}");
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
