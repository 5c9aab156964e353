//! Golden test for the Chrome trace-event (Perfetto) exporter on a real
//! multi-link run.
//!
//! A 3-link tandem (one flow crossing every link with a propagation delay,
//! plus saturating single-hop cross traffic per link) runs to its horizon.
//! The per-link JSONL traces are merged into the canonical stream, parsed
//! back into events, and rendered as a `trace.json` document. The test
//! pins the document's structure (valid balanced JSON, one track per link,
//! tx slices) and its bytes: a committed digest, and two identical runs
//! export identical bytes, because the timeline clock is simulation time,
//! never wall clock.
//!
//! Traces are also input from outside the program: the same run's trace
//! and a flight-recorder dump of it, mutated at the byte and the value
//! level, must go through every reader — parser, merger, replay into the
//! observers, and each `hpfq-trace` report — without a panic.

use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::{merge_traces, parse_trace};
use hpfq::obs::query::{
    chrome_from_text, delay_report, filter_lines, render_delays, render_summary, summarize, Filter,
};
use hpfq::obs::{
    chrome_trace, replay, FlightRecorder, InvariantObserver, JsonlObserver, MetricsObserver,
};
use hpfq::sim::{CbrSource, Hop, Network, Route};

const LINKS: usize = 3;
const RATE: f64 = 10e6;
const PKT: u32 = 1500;
const PROP: f64 = 0.002;
const HORIZON: f64 = 1.5;

/// FNV-1a of the exported document: byte for byte what the sharded
/// runtime exported for this run, less its shard-epoch tracks (pid 2).
const EXPORT_FNV1A: u64 = 0x5335_e5c8_fca7_22b8;

type Obs = JsonlObserver<Vec<u8>>;

/// 3-link tandem: flow 0 crosses every link (2 ms propagation per hop);
/// flows 100..102 are single-hop cross traffic keeping each link busy.
fn tandem() -> Network<MixedScheduler, Obs> {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler, Obs> = Network::new();
    let mut hops = Vec::new();
    for li in 0..LINKS {
        let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
            RATE,
            move |r| kind.build(r),
            JsonlObserver::new(Vec::new()),
        );
        let root = bld.root();
        let tandem_leaf = bld.add_leaf(root, 0.4).unwrap();
        let cross_leaf = bld.add_leaf(root, 0.6).unwrap();
        let link = net.add_link(bld.build());
        assert_eq!(link, li);
        hops.push(Hop {
            link,
            leaf: tandem_leaf,
            buffer_bytes: None,
            prop_delay: PROP,
        });
        let flow = 100 + link as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, PKT, 6e6, 0.0, 1.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: Some(16 * u64::from(PKT)),
                prop_delay: 0.0,
            }]),
        );
    }
    net.add_route(0, CbrSource::new(0, PKT, 3e6, 0.0, 1.0), Route::new(hops));
    net
}

/// The tandem run to `horizon`: one JSONL trace per link.
fn link_traces(horizon: f64) -> Vec<String> {
    let mut net = tandem();
    net.run(horizon);
    net.verify_conservation().unwrap();
    net.into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).unwrap())
        .collect()
}

/// One full pipeline pass: run → merged trace → parsed events → chrome
/// trace JSON. Returns the export and the number of events rendered.
fn export() -> (String, usize) {
    let bufs = link_traces(HORIZON);
    assert_eq!(bufs.len(), LINKS);
    let merged = merge_traces(&bufs);
    let (events, skipped) = parse_trace(&merged);
    assert_eq!(skipped, 0, "merged trace had unparseable lines");
    assert!(events.len() > 100, "trace too small to be meaningful");

    (chrome_trace(&events), events.len())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Structural JSON check without an external parser: balanced braces and
/// brackets outside string literals, no unterminated strings.
fn assert_balanced_json(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close");
    }
    assert_eq!(depth, 0, "unbalanced JSON");
    assert!(!in_str, "unterminated string");
}

#[test]
fn tandem_run_exports_valid_chrome_trace() {
    let (json, n_events) = export();

    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}\n"));
    assert_balanced_json(&json);

    // One named track per link under the "links" process.
    assert!(json.contains("\"args\":{\"name\":\"links\"}"), "{json}");
    for link in 0..LINKS {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"link {link}\"}}")),
            "missing track for link {link}"
        );
    }
    // Transmission slices are complete (`ph:X`) events in the tx category.
    assert!(json.contains("\"cat\":\"tx\",\"ph\":\"X\""), "no tx slices");
    // The tandem flow itself shows up on the timeline.
    assert!(json.contains("\"name\":\"tx f0\""), "tandem flow absent");
    // Links are the only process.
    assert!(!json.contains("\"pid\":2"), "{json}");
    assert!(n_events > 100, "trace too small");
}

#[test]
fn chrome_trace_export_is_byte_deterministic() {
    let (a, _) = export();
    let (b, _) = export();
    assert_eq!(a, b, "trace.json must be a pure function of the run");
    assert_eq!(
        fnv1a(a.as_bytes()),
        EXPORT_FNV1A,
        "{:016x}",
        fnv1a(a.as_bytes())
    );
}

/// What a mutated numeric field is set to.
const HOSTILE_VALUES: [&str; 12] = [
    "NaN",
    "inf",
    "-inf",
    "-0",
    "1e308",
    "-1e308",
    "18446744073709551616",
    "18446744073709551615",
    "4294967296",
    "-1",
    "\u{e9}",
    "\u{663}\u{660}",
];

/// xorshift64: the loop's only randomness, so a failing case reproduces
/// from its index.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One hostile copy of `text`: byte flips, a truncation, lines spliced
/// from pieces of others, or numeric fields set to [`HOSTILE_VALUES`].
fn mutate(text: &str, rng: &mut Xorshift) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    match rng.below(4) {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..1 + rng.below(8) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => {
            return String::from_utf8_lossy(&text.as_bytes()[..rng.below(text.len())]).into_owned()
        }
        2 => {
            for _ in 0..1 + rng.below(4) {
                let (a, b) = (
                    &lines[rng.below(lines.len())],
                    &lines[rng.below(lines.len())],
                );
                let (ca, cb) = (rng.below(a.len()), rng.below(b.len()));
                let (ca, cb) = (floor_char(a, ca), floor_char(b, cb));
                let spliced = format!("{}{}", &a[..ca], &b[cb..]);
                let at = rng.below(lines.len());
                lines.insert(at, spliced);
            }
        }
        _ => {
            for _ in 0..1 + rng.below(6) {
                let i = rng.below(lines.len());
                let line = &lines[i];
                // A field's value: after a `:`, up to the next `,` or `}`.
                let colons: Vec<usize> = line.match_indices(':').map(|(at, _)| at + 1).collect();
                if colons.is_empty() {
                    continue;
                }
                let start = colons[rng.below(colons.len())];
                let end = start + line[start..].find([',', '}']).unwrap_or(line.len() - start);
                let value = HOSTILE_VALUES[rng.below(HOSTILE_VALUES.len())];
                lines[i] = format!("{}{value}{}", &line[..start], &line[end..]);
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// The largest char boundary of `s` at or below `at`.
fn floor_char(s: &str, mut at: usize) -> usize {
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Every reader of a trace, on `text` (and `text` merged with `other`):
/// each must return, whatever the input.
fn read_every_way(text: &str, other: &str) {
    let (events, _) = parse_trace(text);
    let _ = merge_traces(&[text, other]);
    let mut observers = (MetricsObserver::new(), InvariantObserver::new());
    let mut recorder = FlightRecorder::new(64);
    for ev in &events {
        replay(&mut observers, ev);
        replay(&mut recorder, ev);
    }
    let _ = (
        observers.0.report(),
        observers.0.report_json(),
        observers.1.summary(),
    );
    let _ = summarize(&recorder.snapshot_jsonl());
    let _ = chrome_trace(&events);
    let _ = render_summary(&summarize(text));
    for filter in [
        Filter::default(),
        Filter {
            link: Some(1),
            flow: Some(0),
            node: Some(1),
            t_from: Some(0.01),
            t_to: Some(0.05),
        },
    ] {
        let _ = filter_lines(text, &filter);
        let _ = render_delays(&delay_report(text, &filter));
    }
    let _ = chrome_from_text(text);
}

/// Traces are hostile input: a real multi-link trace and a flight dump of
/// it, mutated, are parsed or skipped line by line and reported on, never
/// a panic. 1 500 cases, 15 000 under `proptest-tests`.
#[test]
fn hostile_traces_are_read_without_a_panic() {
    let cases = if cfg!(feature = "proptest-tests") {
        15_000
    } else {
        1_500
    };
    let bufs = link_traces(0.01);
    let merged = merge_traces(&bufs);
    let (events, skipped) = parse_trace(&merged);
    assert_eq!(skipped, 0);
    assert!(
        events.len() > 100,
        "trace too small: {} events",
        events.len()
    );
    let mut recorder = FlightRecorder::new(64);
    for ev in &events {
        replay(&mut recorder, ev);
    }
    let dump = recorder.snapshot_jsonl();
    let seeds = [&merged, &dump, &bufs[1]];
    let mut rng = Xorshift(0x7ace_5eed);
    for case in 0..cases {
        let text = mutate(seeds[case % seeds.len()], &mut rng);
        read_every_way(&text, &bufs[0]);
    }
}
