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

use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::{merge_traces, parse_trace};
use hpfq::obs::{chrome_trace, JsonlObserver};
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

/// One full pipeline pass: run → merged trace → parsed events → chrome
/// trace JSON. Returns the export and the number of events rendered.
fn export() -> (String, usize) {
    let mut net = tandem();
    net.run(HORIZON);
    net.verify_conservation().unwrap();

    let bufs: Vec<String> = net
        .into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).unwrap())
        .collect();
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
