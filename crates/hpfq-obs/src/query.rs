//! Trace query primitives behind the `hpfq-trace` CLI.
//!
//! JSONL traces carry plain scheduler events (`crate::jsonl`) and, in
//! flight-recorder dumps, one `{"ev":"flight",…}` header.
//! [`parse_obs_line`] decodes both into [`ObsLine`]; any other line
//! (including the `span` / `epoch` lines older builds wrote) is counted
//! as unparsed and otherwise ignored. The report builders here
//! ([`summarize`], [`delay_report`], [`filter_lines`]) are the library
//! form of the `hpfq-trace` subcommands, so they are unit testable
//! without spawning the binary.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::jsonl::{self, Fields};
use crate::metrics::DelayHistogram;

/// The `{"ev":"flight",…}` header of a flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightInfo {
    /// Ring capacity.
    pub capacity: usize,
    /// Events retained in the dump.
    pub len: usize,
    /// Events evicted before the dump.
    pub dropped: u64,
}

/// Any line an observability JSONL stream can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsLine {
    /// A plain scheduler event.
    Event(TraceEvent),
    /// A flight-recorder dump header.
    Flight(FlightInfo),
}

/// Parses one line of an observability JSONL stream (superset of
/// [`crate::jsonl::parse_line`], which only yields events).
pub fn parse_obs_line(line: &str) -> Option<ObsLine> {
    if let Some(ev) = jsonl::parse_line(line) {
        return Some(ObsLine::Event(ev));
    }
    let f = Fields::parse(line)?;
    if f.str("ev")? != "flight" {
        return None;
    }
    Some(ObsLine::Flight(FlightInfo {
        capacity: f.usize("capacity")?,
        len: f.usize("len")?,
        dropped: f.u64("dropped")?,
    }))
}

/// The time an event occurred.
pub fn event_time(ev: &TraceEvent) -> f64 {
    match ev {
        TraceEvent::Enqueue(e) => e.time,
        TraceEvent::Drop(e) => e.time,
        TraceEvent::Dispatch(e) => e.time,
        TraceEvent::TxStart(e) => e.time,
        TraceEvent::TxComplete(e) => e.time,
        TraceEvent::Backlog(e) => e.time,
        TraceEvent::BusyReset(e) => e.time,
        TraceEvent::Fault(e) => e.time,
        TraceEvent::Quarantine(e) => e.time,
    }
}

/// The link an event belongs to.
pub fn event_link(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::Enqueue(e) => e.link,
        TraceEvent::Drop(e) => e.link,
        TraceEvent::Dispatch(e) => e.link,
        TraceEvent::TxStart(e) => e.link,
        TraceEvent::TxComplete(e) => e.link,
        TraceEvent::Backlog(e) => e.link,
        TraceEvent::BusyReset(e) => e.link,
        TraceEvent::Fault(e) => e.link,
        TraceEvent::Quarantine(e) => e.link,
    }
}

/// The flow an event concerns, when it carries one.
pub fn event_flow(ev: &TraceEvent) -> Option<u32> {
    match ev {
        TraceEvent::Enqueue(e) => Some(e.pkt.flow),
        TraceEvent::Drop(e) => Some(e.pkt.flow),
        TraceEvent::TxStart(e) => Some(e.pkt.flow),
        TraceEvent::TxComplete(e) => Some(e.pkt.flow),
        TraceEvent::Fault(e) => Some(e.flow),
        TraceEvent::Quarantine(e) => Some(e.flow),
        TraceEvent::Dispatch(_) | TraceEvent::Backlog(_) | TraceEvent::BusyReset(_) => None,
    }
}

/// The hierarchy node (or leaf) an event concerns, when it carries one.
pub fn event_node(ev: &TraceEvent) -> Option<usize> {
    match ev {
        TraceEvent::Enqueue(e) => Some(e.leaf),
        TraceEvent::Drop(e) => Some(e.leaf),
        TraceEvent::Dispatch(e) => Some(e.node),
        TraceEvent::TxStart(e) => Some(e.leaf),
        TraceEvent::TxComplete(e) => Some(e.leaf),
        TraceEvent::Backlog(e) => Some(e.node),
        TraceEvent::BusyReset(e) => Some(e.node),
        TraceEvent::Fault(e) => Some(e.node),
        TraceEvent::Quarantine(e) => Some(e.leaf),
    }
}

/// Stable wire tag of an event's kind (matches the JSONL `"ev"` field).
pub fn event_kind(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::Enqueue(_) => "enqueue",
        TraceEvent::Drop(_) => "drop",
        TraceEvent::Dispatch(_) => "dispatch",
        TraceEvent::TxStart(_) => "tx_start",
        TraceEvent::TxComplete(_) => "tx_end",
        TraceEvent::Backlog(_) => "backlog",
        TraceEvent::BusyReset(_) => "busy_reset",
        TraceEvent::Fault(_) => "fault",
        TraceEvent::Quarantine(_) => "quarantine",
    }
}

/// An event predicate over link / flow / node / time range; `None` fields
/// match everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct Filter {
    /// Keep only events on this link.
    pub link: Option<usize>,
    /// Keep only events concerning this flow.
    pub flow: Option<u32>,
    /// Keep only events concerning this node/leaf.
    pub node: Option<usize>,
    /// Keep only events at or after this time (seconds).
    pub t_from: Option<f64>,
    /// Keep only events at or before this time (seconds).
    pub t_to: Option<f64>,
}

impl Filter {
    /// Whether `ev` passes every set constraint.
    pub fn matches(&self, ev: &TraceEvent) -> bool {
        if let Some(link) = self.link {
            if event_link(ev) != link {
                return false;
            }
        }
        if let Some(flow) = self.flow {
            if event_flow(ev) != Some(flow) {
                return false;
            }
        }
        if let Some(node) = self.node {
            if event_node(ev) != Some(node) {
                return false;
            }
        }
        let t = event_time(ev);
        if let Some(lo) = self.t_from {
            if t < lo {
                return false;
            }
        }
        if let Some(hi) = self.t_to {
            if t > hi {
                return false;
            }
        }
        true
    }
}

/// What [`summarize`] found in a stream.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Event count per kind tag.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Total scheduler events.
    pub events: u64,
    /// Flight headers seen.
    pub flights: usize,
    /// Lines that parsed as nothing.
    pub malformed: usize,
    /// `(first, last)` event time, if any events were seen.
    pub time_range: Option<(f64, f64)>,
    /// Links observed.
    pub links: BTreeSet<usize>,
    /// Flows observed.
    pub flows: BTreeSet<u32>,
}

/// Scans a whole stream and tallies what it contains.
pub fn summarize(text: &str) -> TraceSummary {
    let mut s = TraceSummary::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_obs_line(line) {
            Some(ObsLine::Event(ev)) => {
                *s.by_kind.entry(event_kind(&ev)).or_insert(0) += 1;
                s.events += 1;
                s.links.insert(event_link(&ev));
                if let Some(flow) = event_flow(&ev) {
                    s.flows.insert(flow);
                }
                let t = event_time(&ev);
                s.time_range = Some(match s.time_range {
                    None => (t, t),
                    Some((lo, hi)) => (lo.min(t), hi.max(t)),
                });
            }
            Some(ObsLine::Flight(_)) => s.flights += 1,
            None => s.malformed += 1,
        }
    }
    s
}

/// Renders a [`TraceSummary`] as the `hpfq-trace summary` output.
pub fn render_summary(s: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "events: {} across {} link(s), {} flow(s)",
        s.events,
        s.links.len(),
        s.flows.len()
    );
    if let Some((lo, hi)) = s.time_range {
        let _ = writeln!(out, "time range: {lo} .. {hi} s");
    }
    for (kind, n) in &s.by_kind {
        let _ = writeln!(out, "  {kind:<12} {n}");
    }
    let _ = writeln!(
        out,
        "flight headers: {}, malformed: {}",
        s.flights, s.malformed
    );
    out
}

/// Keeps the original lines whose event passes `filter` (flight and
/// malformed lines are dropped — filtering is an event query).
pub fn filter_lines(text: &str, filter: &Filter) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(ev) = jsonl::parse_line(line) {
            if filter.matches(&ev) {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Per-flow packet-delay percentiles extracted from `tx_end` events
/// (delay = completion time − arrival time).
#[derive(Debug, Clone)]
pub struct FlowDelay {
    /// The flow.
    pub flow: u32,
    /// Packets that completed transmission.
    pub packets: u64,
    /// Mean delay, seconds.
    pub mean: f64,
    /// Median delay (histogram bucket lower edge), seconds.
    pub p50: f64,
    /// 99th-percentile delay (bucket lower edge), seconds.
    pub p99: f64,
    /// 99.9th-percentile delay (bucket lower edge), seconds.
    pub p999: f64,
    /// Largest delay, seconds.
    pub max: f64,
}

/// Builds per-flow delay percentiles from the events in `text` that pass
/// `filter`.
pub fn delay_report(text: &str, filter: &Filter) -> Vec<FlowDelay> {
    struct Acc {
        hist: DelayHistogram,
        sum: f64,
        max: f64,
        n: u64,
    }
    let mut flows: BTreeMap<u32, Acc> = BTreeMap::new();
    for line in text.lines() {
        let Some(TraceEvent::TxComplete(e)) = jsonl::parse_line(line) else {
            continue;
        };
        if !filter.matches(&TraceEvent::TxComplete(e)) {
            continue;
        }
        let delay = e.time - e.pkt.arrival;
        let acc = flows.entry(e.pkt.flow).or_insert_with(|| Acc {
            hist: DelayHistogram::new(),
            sum: 0.0,
            max: 0.0,
            n: 0,
        });
        acc.hist.record(delay);
        acc.sum += delay;
        acc.max = acc.max.max(delay);
        acc.n += 1;
    }
    flows
        .into_iter()
        .map(|(flow, acc)| FlowDelay {
            flow,
            packets: acc.n,
            mean: if acc.n == 0 {
                0.0
            } else {
                acc.sum / acc.n as f64
            },
            p50: acc.hist.p50(),
            p99: acc.hist.p99(),
            p999: acc.hist.p999(),
            max: acc.max,
        })
        .collect()
}

/// Renders [`delay_report`] output as the `hpfq-trace delays` table.
pub fn render_delays(rows: &[FlowDelay]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "flow", "packets", "mean_s", "p50_s", "p99_s", "p999_s", "max_s"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            r.flow, r.packets, r.mean, r.p50, r.p99, r.p999, r.max
        );
    }
    if rows.is_empty() {
        let _ = writeln!(out, "(no tx_end events matched)");
    }
    out
}

/// Parses `text` and renders it as a Chrome trace-event document (events
/// only); the library form of `hpfq-trace chrome`.
pub fn chrome_from_text(text: &str) -> String {
    let (events, _) = jsonl::parse_trace(text);
    crate::chrome::chrome_trace(&events)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"ev\":\"flight\",\"capacity\":8,\"len\":3,\"dropped\":1}\n",
        "{\"ev\":\"tx_start\",\"t\":0.1,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":5,\"len\":1000,\"arr\":0.05}\n",
        "{\"ev\":\"tx_end\",\"t\":0.2,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":5,\"len\":1000,\"arr\":0.05}\n",
        "{\"ev\":\"tx_end\",\"t\":0.4,\"link\":1,\"leaf\":2,\"id\":2,\"flow\":6,\"len\":1000,\"arr\":0.1}\n",
        "garbage\n",
    );

    /// A flight dump in the shape builds with the span profiler wrote it:
    /// a span aggregate after the events, plus an epoch line.
    const LEGACY_DUMP: &str = concat!(
        "{\"ev\":\"flight\",\"capacity\":8,\"len\":3,\"dropped\":1,\"checkpoint\":false}\n",
        "{\"ev\":\"tx_start\",\"t\":0.1,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":5,\"len\":1000,\"arr\":0.05}\n",
        "{\"ev\":\"epoch\",\"shard\":1,\"t0\":0,\"t1\":0.01,\"events\":3}\n",
        "{\"ev\":\"tx_end\",\"t\":0.2,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":5,\"len\":1000,\"arr\":0.05}\n",
        "{\"ev\":\"tx_end\",\"t\":0.4,\"link\":1,\"leaf\":2,\"id\":2,\"flow\":6,\"len\":1000,\"arr\":0.1}\n",
        "{\"ev\":\"span\",\"shard\":0,\"kind\":\"dispatch\",\"count\":4,\"total_ns\":400,\"min_ns\":50,\"max_ns\":200,\"p50_ns\":64,\"p99_ns\":128}\n",
    );

    #[test]
    fn parse_obs_line_covers_all_families() {
        assert!(matches!(
            parse_obs_line("{\"ev\":\"busy_reset\",\"t\":1,\"node\":0}"),
            Some(ObsLine::Event(TraceEvent::BusyReset(_)))
        ));
        assert!(matches!(
            parse_obs_line("{\"ev\":\"flight\",\"capacity\":4,\"len\":4,\"dropped\":7}"),
            Some(ObsLine::Flight(FlightInfo {
                capacity: 4,
                len: 4,
                dropped: 7
            }))
        ));
        assert_eq!(parse_obs_line("nonsense"), None);
    }

    #[test]
    fn summary_counts_every_family() {
        let s = summarize(TRACE);
        assert_eq!(s.events, 3);
        assert_eq!(s.by_kind.get("tx_end"), Some(&2));
        assert_eq!(s.flights, 1);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.links.len(), 2);
        assert_eq!(s.flows.len(), 2);
        let (lo, hi) = s.time_range.unwrap();
        assert_eq!(lo, 0.1);
        assert_eq!(hi, 0.4);
        let text = render_summary(&s);
        assert!(text.contains("events: 3"), "{text}");
    }

    #[test]
    fn filter_selects_by_flow_link_and_time() {
        let by_flow = filter_lines(
            TRACE,
            &Filter {
                flow: Some(5),
                ..Filter::default()
            },
        );
        assert_eq!(by_flow.lines().count(), 2);
        let by_link = filter_lines(
            TRACE,
            &Filter {
                link: Some(1),
                ..Filter::default()
            },
        );
        assert_eq!(by_link.lines().count(), 1);
        let by_time = filter_lines(
            TRACE,
            &Filter {
                t_from: Some(0.15),
                t_to: Some(0.3),
                ..Filter::default()
            },
        );
        assert_eq!(by_time.lines().count(), 1);
        assert!(by_time.contains("\"t\":0.2"), "{by_time}");
    }

    #[test]
    fn delay_report_computes_per_flow_percentiles() {
        let rows = delay_report(TRACE, &Filter::default());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].flow, 5);
        assert_eq!(rows[0].packets, 1);
        // 0.2 - 0.05 (binary arithmetic) lands in one histogram bucket;
        // the mean is exact.
        assert!((rows[0].mean - 0.15000000000000002).abs() == 0.0);
        assert!(rows[0].p50 > 0.0 && rows[0].p50 <= rows[0].max);
        let table = render_delays(&rows);
        assert!(table.contains("flow"), "{table}");
    }

    #[test]
    fn legacy_span_and_epoch_lines_read_as_unparsed() {
        let current: String = LEGACY_DUMP
            .lines()
            .filter(|l| !l.contains("\"ev\":\"span\"") && !l.contains("\"ev\":\"epoch\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(current.lines().count(), LEGACY_DUMP.lines().count() - 2);

        let (old, new) = (summarize(LEGACY_DUMP), summarize(&current));
        assert_eq!(old.events, 3);
        assert_eq!(old.events, new.events);
        assert_eq!(old.by_kind, new.by_kind);
        assert_eq!(old.flights, new.flights);
        assert_eq!(old.time_range, new.time_range);
        assert_eq!((old.links, old.flows), (new.links, new.flows));
        assert_eq!(old.malformed, new.malformed + 2);

        for filter in [
            Filter::default(),
            Filter {
                flow: Some(5),
                ..Filter::default()
            },
            Filter {
                node: Some(2),
                ..Filter::default()
            },
        ] {
            assert_eq!(
                filter_lines(LEGACY_DUMP, &filter),
                filter_lines(&current, &filter)
            );
            assert_eq!(
                render_delays(&delay_report(LEGACY_DUMP, &filter)),
                render_delays(&delay_report(&current, &filter))
            );
        }
        let json = chrome_from_text(LEGACY_DUMP);
        assert_eq!(json, chrome_from_text(&current));
        assert!(json.contains("\"name\":\"tx f5\""), "{json}");
        assert!(!json.contains("\"name\":\"shards\""), "{json}");
    }
}
