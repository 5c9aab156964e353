//! Flight recorder: a bounded ring of recent events for post-mortem dumps.
//!
//! A [`FlightRecorder`] is an [`Observer`] that keeps the last `capacity`
//! [`TraceEvent`]s in a fixed-capacity ring buffer — memory is bounded no
//! matter how long the run. When something goes wrong long after the
//! interesting history has scrolled out of any full trace you were willing
//! to keep, the recorder still holds the final seconds.
//!
//! Dump semantics: the recorder snapshots itself as JSONL
//! ([`FlightRecorder::snapshot_jsonl`]) — a `{"ev":"flight",…}` header
//! line, then the ring's events in arrival order in the standard
//! [`crate::jsonl`] format. If a dump path is configured, the snapshot is
//! written there **automatically when a flow is quarantined** — and,
//! because the degradation layer in `hpfq-sim` quarantines the offending
//! flow as part of halting, on escalation to halt as well. Harnesses (the
//! chaos soak) also dump explicitly when a conservation check fails. The
//! dump is a plain JSONL file: `hpfq-trace` and
//! [`crate::jsonl::parse_trace`] both read it.

use std::collections::VecDeque;

use crate::event::{
    BacklogEvent, BusyResetEvent, DispatchEvent, DropEvent, EnqueueEvent, FaultEvent,
    QuarantineEvent, TraceEvent, TxEvent,
};
use crate::jsonl::JsonlObserver;
use crate::{replay, Observer};

/// Bounded ring of recent [`TraceEvent`]s with post-mortem dump support.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    dump_path: Option<String>,
    dumps_written: u64,
    dump_errors: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            dump_path: None,
            dumps_written: 0,
            dump_errors: 0,
        }
    }

    /// A recorder that auto-dumps to `path` on quarantine/halt.
    pub fn with_dump_path(capacity: usize, path: impl Into<String>) -> Self {
        let mut r = Self::new(capacity);
        r.dump_path = Some(path.into());
        r
    }

    /// Sets (or clears) the auto-dump path.
    pub fn set_dump_path(&mut self, path: Option<String>) {
        self.dump_path = path;
    }

    /// The configured auto-dump path, if any.
    pub fn dump_path(&self) -> Option<&str> {
        self.dump_path.as_deref()
    }

    /// Ring capacity (events kept).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted because the ring was full (total over the run).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Successful automatic/explicit dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps_written
    }

    /// Dump attempts that failed with an I/O error (never propagated — the
    /// recorder sits on the scheduling hot path).
    pub fn dump_errors(&self) -> u64 {
        self.dump_errors
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Renders the recorder state as a JSONL snapshot: one `"flight"`
    /// header line, then the retained events oldest-first.
    pub fn snapshot_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"ev\":\"flight\",\"capacity\":{},\"len\":{},\"dropped\":{}}}\n",
            self.capacity,
            self.ring.len(),
            self.dropped
        );
        let mut sink = JsonlObserver::new(Vec::new());
        for ev in &self.ring {
            replay(&mut sink, ev);
        }
        out.push_str(&String::from_utf8(sink.into_inner()).unwrap_or_default());
        out
    }

    /// Writes [`FlightRecorder::snapshot_jsonl`] to the configured dump
    /// path. Returns `true` on success; without a path this is a no-op
    /// returning `false`. Errors are counted, not propagated.
    pub fn dump(&mut self) -> bool {
        let Some(path) = self.dump_path.clone() else {
            return false;
        };
        match std::fs::write(&path, self.snapshot_jsonl()) {
            Ok(()) => {
                self.dumps_written += 1;
                true
            }
            Err(_) => {
                self.dump_errors += 1;
                false
            }
        }
    }
}

impl Observer for FlightRecorder {
    #[inline]
    fn on_enqueue(&mut self, e: &EnqueueEvent) {
        self.record(TraceEvent::Enqueue(*e));
    }
    #[inline]
    fn on_drop(&mut self, e: &DropEvent) {
        self.record(TraceEvent::Drop(*e));
    }
    #[inline]
    fn on_dispatch(&mut self, e: &DispatchEvent) {
        self.record(TraceEvent::Dispatch(*e));
    }
    #[inline]
    fn on_tx_start(&mut self, e: &TxEvent) {
        self.record(TraceEvent::TxStart(*e));
    }
    #[inline]
    fn on_tx_complete(&mut self, e: &TxEvent) {
        self.record(TraceEvent::TxComplete(*e));
    }
    #[inline]
    fn on_node_backlog(&mut self, e: &BacklogEvent) {
        self.record(TraceEvent::Backlog(*e));
    }
    #[inline]
    fn on_busy_reset(&mut self, e: &BusyResetEvent) {
        self.record(TraceEvent::BusyReset(*e));
    }
    #[inline]
    fn on_fault(&mut self, e: &FaultEvent) {
        self.record(TraceEvent::Fault(*e));
    }
    fn on_quarantine(&mut self, e: &QuarantineEvent) {
        self.record(TraceEvent::Quarantine(*e));
        // Escalation reached at least quarantine (halt quarantines the
        // offending flow first, so this hook covers halt too): this is the
        // post-mortem moment the recorder exists for.
        self.dump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_trace;

    fn reset_at(time: f64, node: usize) -> BusyResetEvent {
        BusyResetEvent {
            time,
            link: 0,
            node,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_evictions() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.on_busy_reset(&reset_at(i as f64, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let nodes: Vec<usize> = r
            .events()
            .map(|e| match e {
                TraceEvent::BusyReset(b) => b.node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(nodes, [2, 3, 4]);
    }

    #[test]
    fn snapshot_is_parseable_jsonl_with_header() {
        let mut r = FlightRecorder::new(8);
        r.on_busy_reset(&reset_at(1.0, 0));
        let snap = r.snapshot_jsonl();
        let mut lines = snap.lines();
        assert_eq!(
            lines.next(),
            Some("{\"ev\":\"flight\",\"capacity\":8,\"len\":1,\"dropped\":0}")
        );
        // The header is not a TraceEvent; it alone is "skipped" by the
        // plain event parser.
        let (evs, skipped) = parse_trace(&snap);
        assert_eq!(evs.len(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "keeps parallel tests' dump files apart"
    )]
    fn quarantine_auto_dumps_when_path_set() {
        let path = std::env::temp_dir().join(format!(
            "hpfq-flight-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut r = FlightRecorder::with_dump_path(4, path.to_string_lossy());
        r.on_busy_reset(&reset_at(0.5, 1));
        r.on_quarantine(&QuarantineEvent {
            time: 1.0,
            link: 0,
            leaf: 3,
            flow: 7,
            strikes: 3,
            purged_packets: 2,
            purged_bytes: 1024,
        });
        assert_eq!(r.dumps_written(), 1);
        assert_eq!(r.dump_errors(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("\"ev\":\"quarantine\""), "{text}");
        assert!(text.contains("\"ev\":\"busy_reset\""), "{text}");
        assert!(text.starts_with("{\"ev\":\"flight\""), "{text}");
    }

    #[test]
    fn dump_without_path_is_noop() {
        let mut r = FlightRecorder::new(2);
        assert!(!r.dump());
        assert_eq!(r.dumps_written(), 0);
    }
}
