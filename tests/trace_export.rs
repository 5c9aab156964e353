//! The multi-hop trace golden, and hostile traces for every reader.
//!
//! A 3-link tandem (one flow crossing every link with a propagation delay,
//! plus saturating single-hop cross traffic per link) runs to its horizon.
//! The per-link JSONL traces are merged into the canonical stream, which
//! must parse back without a skipped line and match a committed digest,
//! and so must its `hpfq-trace delays` tables.
//!
//! Traces are also input from outside the program: the same run's trace
//! and its last 64 lines, mutated at the byte and the value level, must go
//! through every reader — parser, merger, the `hpfq-analysis` record and
//! service-curve builders, replay into the observers, and each
//! `hpfq-trace` report — without a panic.
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use hpfq::analysis::{
    path_records_from_trace, per_link_records_from_trace, service_curve_from_records,
    service_records_from_trace,
};
use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::{merge_traces, parse_trace};
use hpfq::obs::query::{
    delay_report, filter_lines, render_delays, render_summary, summarize, Filter,
};
use hpfq::obs::{replay, InvariantObserver, JsonlObserver, MetricsObserver};
use hpfq::sim::{CbrSource, Hop, Network, Route};

const LINKS: usize = 3;
const RATE: f64 = 10e6;
const PKT: u32 = 1500;
const PROP: f64 = 0.002;
const HORIZON: f64 = 1.5;

/// FNV-1a of the merged trace of the run to [`HORIZON`].
const MERGED_FNV1A: u64 = 0x17ce_e2ae_21bb_d135;

/// FNV-1a of the `hpfq-trace delays` tables of that trace, unfiltered
/// and on link 1, recorded when `delay_report` kept its own histograms.
const DELAYS_FNV1A: u64 = 0x03ac_17a4_7173_7db3;

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

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The merged tandem trace is a pure function of the run: two runs merge
/// to the same bytes, and those bytes are the committed digest.
#[test]
fn tandem_merged_trace_is_byte_deterministic() {
    let bufs = link_traces(HORIZON);
    assert_eq!(bufs.len(), LINKS);
    let merged = merge_traces(&bufs);
    let (events, skipped) = parse_trace(&merged);
    assert_eq!(skipped, 0, "merged trace had unparseable lines");
    assert!(events.len() > 100, "trace too small to be meaningful");
    assert_eq!(merged, merge_traces(&link_traces(HORIZON)));
    assert_eq!(
        fnv1a(merged.as_bytes()),
        MERGED_FNV1A,
        "{:016x}",
        fnv1a(merged.as_bytes())
    );
}

/// `hpfq-trace delays` on the merged tandem trace is pinned byte for byte.
#[test]
fn tandem_delay_tables_are_pinned() {
    let merged = merge_traces(&link_traces(HORIZON));
    let on_link_1 = Filter {
        link: Some(1),
        ..Filter::default()
    };
    let tables = render_delays(&delay_report(&merged, &Filter::default()))
        + &render_delays(&delay_report(&merged, &on_link_1));
    assert_eq!(
        fnv1a(tables.as_bytes()),
        DELAYS_FNV1A,
        "{:016x}\n{tables}",
        fnv1a(tables.as_bytes())
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
    let _ = service_records_from_trace(&events);
    let _ = path_records_from_trace(&events);
    for records in per_link_records_from_trace(&events).0.values() {
        let _ = service_curve_from_records(records);
    }
    let mut observers = (
        (MetricsObserver::new(), InvariantObserver::new()),
        JsonlObserver::new(Vec::new()),
    );
    for ev in &events {
        replay(&mut observers, ev);
    }
    let ((metrics, invariants), rewritten) = observers;
    let _ = (metrics.report(), invariants.summary());
    let _ = summarize(&String::from_utf8_lossy(&rewritten.into_inner()));
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
}

/// Traces are hostile input: a real multi-link trace and its last 64
/// lines, mutated, are parsed or skipped line by line and reported on,
/// never a panic. 1 500 cases, 15 000 under `proptest-tests`.
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
    let lines: Vec<&str> = merged.lines().collect();
    let tail = lines[lines.len() - 64..].join("\n") + "\n";
    let seeds = [&merged, &tail, &bufs[1]];
    let mut rng = Xorshift(0x7ace_5eed);
    for case in 0..cases {
        let text = mutate(seeds[case % seeds.len()], &mut rng);
        read_every_way(&text, &bufs[0]);
    }
}
