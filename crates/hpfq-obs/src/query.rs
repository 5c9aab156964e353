//! Trace query primitives behind the `hpfq-trace` CLI.
//!
//! JSONL traces now carry three families of lines: plain scheduler events
//! (`crate::jsonl`), aggregated wall-clock span lines (`{"ev":"span",…}`,
//! written by [`crate::span::SpanSnapshot::write_jsonl`]), and parallel
//! epoch lines (`{"ev":"epoch",…}`). [`parse_obs_line`] decodes all of
//! them into [`ObsLine`]; the report builders here ([`summarize`],
//! [`delay_report`], [`epoch_report`], [`span_report`], [`filter_lines`])
//! are the library form of the `hpfq-trace` subcommands, so they are unit
//! testable without spawning the binary.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::jsonl::{self, Fields};
use crate::metrics::DelayHistogram;
use crate::span::EpochSpan;

/// One aggregated span line from a trace or flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanLine {
    /// Shard the aggregate belongs to (0 for sequential runs).
    pub shard: usize,
    /// Span kind wire name (see [`crate::span::SpanKind::as_str`]).
    pub kind: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of sample durations, ns.
    pub total_ns: u64,
    /// Smallest sample, ns.
    pub min_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
    /// Median (histogram bucket lower edge), ns.
    pub p50_ns: u64,
    /// 99th percentile (histogram bucket lower edge), ns.
    pub p99_ns: u64,
}

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
    /// An aggregated wall-clock span line.
    Span(SpanLine),
    /// A parallel-runtime epoch line.
    Epoch(EpochSpan),
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
    match f.str("ev")? {
        "span" => Some(ObsLine::Span(SpanLine {
            shard: f.usize("shard").unwrap_or(0),
            kind: f.str("kind")?.to_string(),
            count: f.u64("count")?,
            total_ns: f.u64("total_ns")?,
            min_ns: f.u64("min_ns")?,
            max_ns: f.u64("max_ns")?,
            p50_ns: f.u64("p50_ns")?,
            p99_ns: f.u64("p99_ns")?,
        })),
        "epoch" => Some(ObsLine::Epoch(EpochSpan {
            shard: f.usize("shard").unwrap_or(0),
            t0: f.f64("t0")?,
            t1: f.f64("t1")?,
            events: f.u64("events")?,
        })),
        "flight" => Some(ObsLine::Flight(FlightInfo {
            capacity: f.usize("capacity")?,
            len: f.usize("len")?,
            dropped: f.u64("dropped")?,
        })),
        _ => None,
    }
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
    /// Span lines seen.
    pub spans: usize,
    /// Epoch lines seen.
    pub epochs: usize,
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
            Some(ObsLine::Span(_)) => s.spans += 1,
            Some(ObsLine::Epoch(_)) => s.epochs += 1,
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
        "span lines: {}, epoch lines: {}, flight headers: {}, malformed: {}",
        s.spans, s.epochs, s.flights, s.malformed
    );
    out
}

/// Keeps the original lines whose event passes `filter` (span / epoch /
/// flight / malformed lines are dropped — filtering is an event query).
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

/// Per-shard epoch statistics from `{"ev":"epoch",…}` lines.
#[derive(Debug, Clone, Default)]
pub struct ShardEpochs {
    /// Epochs executed.
    pub epochs: u64,
    /// Events handled across all epochs.
    pub events: u64,
    /// Sum of epoch widths, seconds.
    pub width_sum: f64,
    /// Widest epoch, seconds.
    pub width_max: f64,
    /// Epochs in which the shard handled no events.
    pub idle_epochs: u64,
}

/// Aggregates the epoch lines in `text` per shard.
pub fn epoch_report(text: &str) -> BTreeMap<usize, ShardEpochs> {
    let mut shards: BTreeMap<usize, ShardEpochs> = BTreeMap::new();
    for line in text.lines() {
        let Some(ObsLine::Epoch(e)) = parse_obs_line(line) else {
            continue;
        };
        let s = shards.entry(e.shard).or_default();
        let width = (e.t1 - e.t0).max(0.0);
        s.epochs += 1;
        s.events += e.events;
        s.width_sum += width;
        s.width_max = s.width_max.max(width);
        if e.events == 0 {
            s.idle_epochs += 1;
        }
    }
    shards
}

/// Renders [`epoch_report`] output as the `hpfq-trace epochs` table.
pub fn render_epochs(shards: &BTreeMap<usize, ShardEpochs>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>10} {:>12} {:>12} {:>8}",
        "shard", "epochs", "events", "mean_w_s", "max_w_s", "idle"
    );
    for (shard, s) in shards {
        let mean_w = if s.epochs == 0 {
            0.0
        } else {
            s.width_sum / s.epochs as f64
        };
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>10} {:>12.6} {:>12.6} {:>8}",
            shard, s.epochs, s.events, mean_w, s.width_max, s.idle_epochs
        );
    }
    if shards.is_empty() {
        let _ = writeln!(out, "(no epoch lines found)");
    }
    out
}

/// Collects and renders the span lines in `text` as the
/// `hpfq-trace spans` table (one row per shard × kind).
pub fn span_report(text: &str) -> String {
    let mut rows: Vec<SpanLine> = Vec::new();
    for line in text.lines() {
        if let Some(ObsLine::Span(s)) = parse_obs_line(line) {
            rows.push(s);
        }
    }
    rows.sort_by(|a, b| (a.shard, &a.kind).cmp(&(b.shard, &b.kind)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:<16} {:>10} {:>14} {:>10} {:>10} {:>12}",
        "shard", "kind", "count", "total_ns", "p50_ns", "p99_ns", "max_ns"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>6} {:<16} {:>10} {:>14} {:>10} {:>10} {:>12}",
            r.shard, r.kind, r.count, r.total_ns, r.p50_ns, r.p99_ns, r.max_ns
        );
    }
    if rows.is_empty() {
        let _ = writeln!(out, "(no span lines found)");
    }
    out
}

/// What a snapshot artifact contains: the library form of
/// `hpfq-trace snapshots`.
///
/// Covers both artifact shapes the toolchain writes: a bare network
/// checkpoint (the `.ckpt` sidecar a [`crate::FlightRecorder`] dumps, or
/// the state the crash-recovery supervisor rolls back to) and the
/// `chaos-soak` envelope (`chaos-soak --snapshot`) that wraps one in
/// `{kind, seed, horizon, state}` so a resume can rebuild the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotReport {
    /// Artifact size in bytes.
    pub bytes: usize,
    /// Envelope kind (`"chaos-soak"`) or `"network"` for a bare
    /// checkpoint.
    pub kind: String,
    /// Scenario seed, when the envelope carries one.
    pub seed: Option<u64>,
    /// Scenario horizon in seconds, when the envelope carries one.
    pub horizon: Option<f64>,
    /// Snapshot format version (`v`).
    pub version: u64,
    /// Simulated time the state was captured at.
    pub now: f64,
    /// Links in the captured topology.
    pub links: usize,
    /// Source slots (live and churned-out).
    pub sources: usize,
    /// Events pending in the captured queue. Link completions are not
    /// among them (since format v2): see `pending_completions`.
    pub queued_events: usize,
    /// Links with a transmission completion pending (`tx_done` set): a
    /// packet on the wire, not suspended by an outage.
    pub pending_completions: usize,
    /// Distinct flow ids among the sources.
    pub flows: usize,
    /// Whether the captured run had already halted.
    pub halted: bool,
    /// Whether a fault injector's state is embedded.
    pub injector: bool,
}

/// Parses a snapshot artifact (bare checkpoint or `chaos-soak` envelope)
/// and summarizes it. `Err` carries a parse/validation message — this is
/// the `hpfq-trace snapshots` validity check.
pub fn snapshot_report(text: &str) -> Result<SnapshotReport, String> {
    use crate::snap::{self, Value};
    let root = snap::parse(text.trim_end()).map_err(|e| format!("unparseable snapshot: {e}"))?;
    let (kind, seed, horizon, state) = match root.get("kind").and_then(|v| v.as_str()) {
        Ok(kind) => {
            let state = root
                .get("state")
                .map_err(|e| format!("envelope missing state: {e}"))?;
            (
                kind.to_string(),
                root.get("seed").and_then(|v| v.as_u64()).ok(),
                root.get("horizon").and_then(|v| v.as_f64()).ok(),
                state,
            )
        }
        Err(_) => ("network".to_string(), None, None, &root),
    };
    let version = state
        .get("v")
        .and_then(|v| v.as_u64())
        .map_err(|e| format!("not a network snapshot: {e}"))?;
    let now = state
        .get("now")
        .and_then(|v| v.as_f64())
        .map_err(|e| format!("not a network snapshot: {e}"))?;
    let items = |key: &str| state.get(key).and_then(|v| v.items()).unwrap_or(&[]);
    let flow = |s: &Value| s.get("flow").and_then(|f| f.as_u64()).ok();
    Ok(SnapshotReport {
        bytes: text.len(),
        kind,
        seed,
        horizon,
        version,
        now,
        links: items("links").len(),
        sources: items("sources").len(),
        queued_events: items("events").len(),
        pending_completions: items("links")
            .iter()
            .filter(|l| l.get("tx_done").is_ok_and(|t| !t.is_null()))
            .count(),
        flows: items("sources")
            .iter()
            .filter_map(flow)
            .collect::<BTreeSet<_>>()
            .len(),
        halted: state
            .get("halted")
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
        injector: state
            .get("injector")
            .map(|v| !matches!(v, Value::Null))
            .unwrap_or(false),
    })
}

/// Renders a [`SnapshotReport`] as the `hpfq-trace snapshots` text.
pub fn render_snapshot(r: &SnapshotReport) -> String {
    let mut out = String::new();
    let _ = write!(out, "snapshot: {}", r.kind);
    if let Some(seed) = r.seed {
        let _ = write!(out, ", seed {seed}");
    }
    if let Some(h) = r.horizon {
        let _ = write!(out, ", horizon {h} s");
    }
    let _ = writeln!(out, " ({} bytes, format v{})", r.bytes, r.version);
    let _ = writeln!(
        out,
        "state: t={:.6} s, {} link(s), {} source slot(s), {} flow(s), {} queued event(s), \
         {} pending link completion(s)",
        r.now, r.links, r.sources, r.flows, r.queued_events, r.pending_completions
    );
    let _ = writeln!(
        out,
        "flags: injector {}, halted {}",
        if r.injector { "present" } else { "absent" },
        r.halted
    );
    out
}

/// Parses `text` and renders it as a Chrome trace-event document (events
/// plus any epoch lines); the library form of `hpfq-trace chrome`.
pub fn chrome_from_text(text: &str) -> String {
    let mut events = Vec::new();
    let mut epochs = Vec::new();
    for line in text.lines() {
        match parse_obs_line(line) {
            Some(ObsLine::Event(ev)) => events.push(ev),
            Some(ObsLine::Epoch(e)) => epochs.push(e),
            _ => {}
        }
    }
    crate::chrome::chrome_trace(&events, &epochs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"ev\":\"flight\",\"capacity\":8,\"len\":3,\"dropped\":1}\n",
        "{\"ev\":\"tx_start\",\"t\":0.1,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":5,\"len\":1000,\"arr\":0.05}\n",
        "{\"ev\":\"tx_end\",\"t\":0.2,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":5,\"len\":1000,\"arr\":0.05}\n",
        "{\"ev\":\"tx_end\",\"t\":0.4,\"link\":1,\"leaf\":2,\"id\":2,\"flow\":6,\"len\":1000,\"arr\":0.1}\n",
        "{\"ev\":\"span\",\"shard\":0,\"kind\":\"dispatch\",\"count\":4,\"total_ns\":400,\"min_ns\":50,\"max_ns\":200,\"p50_ns\":64,\"p99_ns\":128}\n",
        "{\"ev\":\"epoch\",\"shard\":1,\"t0\":0,\"t1\":0.01,\"events\":3}\n",
        "garbage\n",
    );

    #[test]
    fn parse_obs_line_covers_all_families() {
        assert!(matches!(
            parse_obs_line("{\"ev\":\"busy_reset\",\"t\":1,\"node\":0}"),
            Some(ObsLine::Event(TraceEvent::BusyReset(_)))
        ));
        match parse_obs_line(
            "{\"ev\":\"span\",\"shard\":2,\"kind\":\"merge\",\"count\":1,\"total_ns\":9,\"min_ns\":9,\"max_ns\":9,\"p50_ns\":8,\"p99_ns\":8}",
        ) {
            Some(ObsLine::Span(s)) => {
                assert_eq!(s.shard, 2);
                assert_eq!(s.kind, "merge");
                assert_eq!(s.count, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_obs_line("{\"ev\":\"epoch\",\"shard\":0,\"t0\":0.5,\"t1\":1,\"events\":12}") {
            Some(ObsLine::Epoch(e)) => {
                assert_eq!(e.events, 12);
                assert_eq!(e.t1, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
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
        assert_eq!(s.spans, 1);
        assert_eq!(s.epochs, 1);
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
    fn epoch_and_span_reports_aggregate() {
        let shards = epoch_report(TRACE);
        assert_eq!(shards.len(), 1);
        let s = &shards[&1];
        assert_eq!(s.epochs, 1);
        assert_eq!(s.events, 3);
        assert!(render_epochs(&shards).contains("shard"), "render");
        let spans = span_report(TRACE);
        assert!(spans.contains("dispatch"), "{spans}");
    }

    #[test]
    fn chrome_from_text_includes_epoch_tracks() {
        let json = chrome_from_text(TRACE);
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"name\":\"epoch\""), "{json}");
        assert!(json.contains("\"name\":\"tx f5\""), "{json}");
    }

    #[test]
    fn snapshot_report_reads_bare_and_enveloped_artifacts() {
        use crate::snap::Value;
        let state = Value::map(vec![
            ("v", Value::U64(2)),
            ("now", Value::F64(3.25)),
            (
                "links",
                Value::List(vec![
                    Value::map(vec![("tx_done", Value::F64(3.5))]),
                    Value::map(vec![("tx_done", Value::Null)]),
                ]),
            ),
            ("events", Value::List(vec![Value::Null; 5])),
            (
                "sources",
                Value::List(
                    [7, 9, 7]
                        .map(|flow| Value::map(vec![("flow", Value::U64(flow))]))
                        .to_vec(),
                ),
            ),
            ("halted", Value::Bool(false)),
            ("injector", Value::U64(7)),
        ]);
        let bare = String::from_utf8(state.to_bytes()).unwrap();
        let r = snapshot_report(&bare).unwrap();
        assert_eq!(r.kind, "network");
        assert_eq!(r.seed, None);
        assert_eq!(r.version, 2);
        assert_eq!(r.now, 3.25);
        assert_eq!((r.links, r.sources, r.queued_events, r.flows), (2, 3, 5, 2));
        assert_eq!(r.pending_completions, 1);
        assert!(r.injector && !r.halted);

        let envelope = Value::map(vec![
            ("kind", Value::Str("chaos-soak".into())),
            ("seed", Value::U64(9)),
            ("horizon", Value::F64(8.0)),
            ("state", state),
        ]);
        let text = String::from_utf8(envelope.to_bytes()).unwrap();
        let r = snapshot_report(&text).unwrap();
        assert_eq!(r.kind, "chaos-soak");
        assert_eq!(r.seed, Some(9));
        assert_eq!(r.horizon, Some(8.0));
        assert_eq!(r.links, 2);
        let rendered = render_snapshot(&r);
        assert!(rendered.contains("chaos-soak"), "{rendered}");
        assert!(rendered.contains("seed 9"), "{rendered}");
        assert!(rendered.contains("2 link(s)"), "{rendered}");
        assert!(
            rendered.contains("1 pending link completion(s)"),
            "{rendered}"
        );

        assert!(snapshot_report("not a snapshot").is_err());
        assert!(snapshot_report("(map (x (u 1)))").is_err());
    }
}
