//! Golden test for the Chrome trace-event (Perfetto) exporter on a real
//! parallel run.
//!
//! A 3-link tandem (one flow crossing every link with a propagation delay,
//! plus saturating single-hop cross traffic per link) runs under
//! `run_parallel`, genuinely sharded. The per-link JSONL traces are merged
//! into the canonical stream, parsed back into events, and rendered —
//! together with the runtime's epoch log — as a `trace.json` document.
//! The test pins the document's structure (valid balanced JSON, one track
//! per link, tx slices, one track per shard with epoch slices) and its
//! *byte determinism*: two identical runs must export identical bytes,
//! because the timeline clock is simulation time, never wall clock.

use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::{merge_traces, parse_trace};
use hpfq::obs::{chrome_trace, EpochSpan, JsonlObserver};
use hpfq::sim::{CbrSource, Hop, Network, Route};

const LINKS: usize = 3;
const RATE: f64 = 10e6;
const PKT: u32 = 1500;
const PROP: f64 = 0.002;
const HORIZON: f64 = 1.5;
const SHARDS: usize = 3;

type Obs = JsonlObserver<Vec<u8>>;

/// 3-link tandem: flow 0 crosses every link (2 ms propagation per hop, so
/// the conservative scheme gets real lookahead); flows 100..102 are
/// single-hop cross traffic keeping each link busy.
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

/// One full pipeline pass: parallel run → merged trace → parsed events →
/// chrome trace JSON. Returns the export plus the raw ingredients so the
/// caller can assert on them.
fn export() -> (String, usize, Vec<EpochSpan>) {
    let mut net = tandem();
    net.set_record_epochs(true);
    let report = net.run_parallel(HORIZON, SHARDS);
    assert_eq!(report.fallback, None, "tandem must genuinely shard");
    assert_eq!(report.shards, SHARDS);
    net.verify_conservation().unwrap();

    let epochs: Vec<EpochSpan> = net.epoch_log().to_vec();
    assert!(
        !epochs.is_empty(),
        "epoch recording was on but logged nothing"
    );

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

    (chrome_trace(&events, &epochs), events.len(), epochs)
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
fn tandem_parallel_run_exports_valid_chrome_trace() {
    let (json, n_events, epochs) = export();

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

    // Epoch slices land on per-shard tracks under the "shards" process.
    assert!(json.contains("\"args\":{\"name\":\"shards\"}"), "{json}");
    let shards_seen: std::collections::BTreeSet<usize> = epochs.iter().map(|e| e.shard).collect();
    assert_eq!(shards_seen.len(), SHARDS, "epochs missing for some shard");
    for shard in &shards_seen {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"shard {shard}\"}}")),
            "missing track for shard {shard}"
        );
    }
    assert!(
        json.contains("\"cat\":\"epoch\",\"ph\":\"X\",\"pid\":2"),
        "no epoch slices"
    );

    // Every epoch is well-formed: windows ordered, work actually done.
    // (Epoch `events` count engine events handled, not trace lines, so
    // the only cross-check against the trace is non-triviality.)
    let total_epoch_events: u64 = epochs.iter().map(|e| e.events).sum();
    assert!(total_epoch_events > 0, "no events handled in any epoch");
    assert!(n_events > 100, "trace too small");
    for e in &epochs {
        assert!(e.t1 >= e.t0, "inverted epoch window {e:?}");
        assert!(e.t1 <= HORIZON + 1e-9, "epoch past horizon {e:?}");
    }
}

#[test]
fn chrome_trace_export_is_byte_deterministic() {
    let (a, _, _) = export();
    let (b, _, _) = export();
    assert_eq!(a, b, "trace.json must be a pure function of the run");
}
