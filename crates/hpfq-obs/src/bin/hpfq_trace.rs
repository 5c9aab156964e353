//! `hpfq-trace` — query JSONL traces.
//!
//! ```text
//! hpfq-trace <COMMAND> [FILE] [OPTIONS]
//!
//! Commands:
//!   summary   Tally events, malformed lines, and time range
//!   filter    Print event lines matching the filters
//!   delays    Per-flow delay percentiles from tx_end events
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
//! The command and every option are checked before any input is read, so
//! a bad command line fails fast even when stdin never closes. `--from` /
//! `--to` must be finite, and `summary` refuses the five filter options.
//!
//! All the heavy lifting lives in `hpfq_obs::query`, which is unit tested;
//! this binary only parses arguments and moves bytes.

use std::ffi::OsString;
use std::io::Read as _;

use hpfq_obs::query::{
    delay_report, filter_lines, render_delays, render_summary, summarize, Filter,
};

const USAGE: &str = "usage: hpfq-trace <summary|filter|delays> \
                     [FILE|-] [--link N] [--flow N] [--node N] [--from T] [--to T] [--out PATH]";

enum Cmd {
    Summary,
    Filter,
    Delays,
}

struct Args {
    command: Cmd,
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
            "--from" => filter.t_from = Some(time_value("--from", value("--from")?)?),
            "--to" => filter.t_to = Some(time_value("--to", value("--to")?)?),
            "--out" => out = Some(value("--out")?.clone()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if command.is_none() => command = Some(other.to_string()),
            other if file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let command = match command.ok_or_else(|| USAGE.to_string())?.as_str() {
        "summary" if filter != Filter::default() => {
            return Err(format!("summary takes no filter option\n{USAGE}"))
        }
        "summary" => Cmd::Summary,
        "filter" => Cmd::Filter,
        "delays" => Cmd::Delays,
        other => return Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    Ok(Args {
        command,
        file: file.unwrap_or_else(|| "-".to_string()),
        filter,
        out,
    })
}

/// A `--from` / `--to` bound: a finite number of seconds. `t < NaN` is
/// always false, so a NaN bound would silently drop the filter.
fn time_value(name: &str, raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(t) if t.is_finite() => Ok(t),
        Ok(_) => Err(format!("{name}: `{raw}` is not a finite time\n{USAGE}")),
        Err(e) => Err(format!("{name}: {e}")),
    }
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
    Ok(match args.command {
        Cmd::Summary => render_summary(&summarize(&text)),
        Cmd::Filter => filter_lines(&text, &args.filter),
        Cmd::Delays => render_delays(&delay_report(&text, &args.filter)),
    })
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
