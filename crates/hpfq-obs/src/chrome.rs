//! Chrome trace-event (Perfetto) export.
//!
//! [`chrome_trace`] renders a parsed event stream as a Chrome trace-event
//! JSON document — the format `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) open directly. The timeline clock is
//! **simulation** time (microseconds), so the export is a pure function of
//! the trace: byte-identical run to run, which is what the golden test
//! pins.
//!
//! Track layout: process 1 "links", one thread (track) per link; each
//! packet transmission is a complete (`"ph":"X"`) slice from `tx_start` to
//! `tx_end`, and drops / faults / quarantines are instant events on the
//! link they occurred on.
//!
//! Dense per-packet events (enqueue, dispatch, backlog) are deliberately
//! not emitted — they would swamp the timeline; query them with
//! `hpfq-trace` instead.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::event::TraceEvent;

const US: f64 = 1e6;

fn push_event(out: &mut String, first: &mut bool, body: std::fmt::Arguments<'_>) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
    let _ = out.write_fmt(body);
}

/// Renders `events` as a Chrome trace-event JSON document.
///
/// Accepts any event slice (typically from [`crate::jsonl::parse_trace`]
/// over a merged multi-link trace or a flight-recorder dump). Transmission
/// slices still open at the end of the trace are closed at the last
/// timestamp seen and tagged `"open":true`.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut links: BTreeSet<usize> = BTreeSet::new();
    for ev in events {
        links.insert(crate::query::event_link(ev));
    }

    // Last timestamp in the trace, for closing unterminated tx slices.
    let mut t_end = 0.0f64;
    for ev in events {
        t_end = t_end.max(crate::query::event_time(ev));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;

    if !links.is_empty() {
        push_event(
            &mut out,
            &mut first,
            format_args!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"links\"}}}}"
            ),
        );
        for &link in &links {
            push_event(
                &mut out,
                &mut first,
                format_args!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{link},\"args\":{{\"name\":\"link {link}\"}}}}"
                ),
            );
        }
    }

    // (link, packet id) -> tx start time; BTreeMap keeps leftover-slice
    // iteration deterministic.
    let mut open_tx: BTreeMap<(usize, u64), (f64, u32, u32)> = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::TxStart(e) => {
                open_tx.insert((e.link, e.pkt.id), (e.time, e.pkt.flow, e.pkt.len_bytes));
            }
            TraceEvent::TxComplete(e) => {
                let began = open_tx.remove(&(e.link, e.pkt.id));
                let t0 = began.map(|(t0, _, _)| t0).unwrap_or(e.time);
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"name\":\"tx f{}\",\"cat\":\"tx\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"flow\":{},\"pkt\":{},\"len\":{}}}}}",
                        e.pkt.flow,
                        e.link,
                        t0 * US,
                        (e.time - t0) * US,
                        e.pkt.flow,
                        e.pkt.id,
                        e.pkt.len_bytes
                    ),
                );
            }
            TraceEvent::Drop(e) => {
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"name\":\"drop f{}\",\"cat\":\"drop\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"flow\":{},\"pkt\":{}}}}}",
                        e.pkt.flow,
                        e.link,
                        e.time * US,
                        e.pkt.flow,
                        e.pkt.id
                    ),
                );
            }
            TraceEvent::Fault(e) => {
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"name\":\"fault {}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"node\":{},\"flow\":{},\"value\":{}}}}}",
                        e.kind.as_str(),
                        e.link,
                        e.time * US,
                        e.node,
                        e.flow,
                        e.value
                    ),
                );
            }
            TraceEvent::Quarantine(e) => {
                push_event(
                    &mut out,
                    &mut first,
                    format_args!(
                        "{{\"name\":\"quarantine f{}\",\"cat\":\"quarantine\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"flow\":{},\"strikes\":{},\"purged\":{}}}}}",
                        e.flow,
                        e.link,
                        e.time * US,
                        e.flow,
                        e.strikes,
                        e.purged_packets
                    ),
                );
            }
            // Dense events: see the module docs.
            TraceEvent::Enqueue(_)
            | TraceEvent::Dispatch(_)
            | TraceEvent::Backlog(_)
            | TraceEvent::BusyReset(_) => {}
        }
    }
    for (&(link, id), &(t0, flow, len)) in &open_tx {
        push_event(
            &mut out,
            &mut first,
            format_args!(
                "{{\"name\":\"tx f{flow}\",\"cat\":\"tx\",\"ph\":\"X\",\"pid\":1,\"tid\":{link},\"ts\":{},\"dur\":{},\"args\":{{\"flow\":{flow},\"pkt\":{id},\"len\":{len},\"open\":true}}}}",
                t0 * US,
                (t_end - t0).max(0.0) * US,
            ),
        );
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropEvent, PacketInfo, TxEvent};

    fn pkt(id: u64, flow: u32) -> PacketInfo {
        PacketInfo {
            id,
            flow,
            len_bytes: 1000,
            arrival: 0.0,
        }
    }

    /// Minimal structural validator: balanced braces/brackets outside
    /// strings, no raw control characters. A stand-in for a full JSON
    /// parser (no external deps).
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
            assert!(depth >= 0, "unbalanced close in {s}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
        assert!(!in_str, "unterminated string: {s}");
    }

    #[test]
    fn tx_pairs_become_complete_slices() {
        let events = vec![
            TraceEvent::TxStart(TxEvent {
                time: 0.001,
                link: 0,
                leaf: 1,
                pkt: pkt(7, 3),
            }),
            TraceEvent::TxComplete(TxEvent {
                time: 0.002,
                link: 0,
                leaf: 1,
                pkt: pkt(7, 3),
            }),
            TraceEvent::Drop(DropEvent {
                time: 0.0015,
                link: 0,
                leaf: 1,
                pkt: pkt(8, 3),
                queue_bytes: 4000,
            }),
        ];
        let json = chrome_trace(&events);
        assert_balanced_json(&json);
        assert!(json.contains("\"name\":\"tx f3\""), "{json}");
        assert!(json.contains("\"ts\":1000,\"dur\":1000"), "{json}");
        assert!(json.contains("\"name\":\"drop f3\""), "{json}");
        assert!(json.contains("\"name\":\"link 0\""), "{json}");
    }

    #[test]
    fn unterminated_tx_closed_and_tagged_open() {
        let events = vec![
            TraceEvent::TxStart(TxEvent {
                time: 0.5,
                link: 2,
                leaf: 0,
                pkt: pkt(9, 1),
            }),
            TraceEvent::TxComplete(TxEvent {
                time: 1.0,
                link: 0,
                leaf: 0,
                pkt: pkt(1, 0),
            }),
        ];
        let json = chrome_trace(&events);
        assert_balanced_json(&json);
        assert!(json.contains("\"open\":true"), "{json}");
        assert!(json.contains("\"dur\":500000"), "{json}");
    }

    #[test]
    fn empty_input_is_valid_and_deterministic() {
        let a = chrome_trace(&[]);
        let b = chrome_trace(&[]);
        assert_eq!(a, b);
        assert_balanced_json(&a);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    }
}
