//! Flight recorder: a bounded ring of recent events for post-mortem dumps.
//!
//! A [`FlightRecorder`] is an [`Observer`] that keeps the last `capacity`
//! [`TraceEvent`]s in a fixed-capacity ring buffer — memory is bounded no
//! matter how long the run — plus an optional aggregated span snapshot
//! (see [`crate::span`]). When something goes wrong long after the
//! interesting history has scrolled out of any full trace you were willing
//! to keep, the recorder still holds the final seconds.
//!
//! Dump semantics: the recorder snapshots itself as JSONL
//! ([`FlightRecorder::snapshot_jsonl`]) — a `{"ev":"flight",…}` header
//! line, the ring's events in arrival order in the standard
//! [`crate::jsonl`] format, then one `{"ev":"span",…}` line per attached
//! span kind. If a dump path is configured, the snapshot is written there
//! **automatically when a flow is quarantined** — and, because the
//! degradation layer in `hpfq-sim` quarantines the offending flow as part
//! of halting, on escalation to halt as well. Harnesses (the chaos soak)
//! also dump explicitly when a conservation check fails. The dump is a
//! plain JSONL file: `hpfq-trace` and [`crate::jsonl::parse_trace`] both
//! read it.
//!
//! When the harness has an epoch checkpoint in hand (the crash-contained
//! parallel runtime, DESIGN.md §11), it can attach the serialized bytes
//! via [`FlightRecorder::attach_checkpoint`]; every dump then also writes
//! a `<dump_path>.ckpt` sidecar holding the exact state to resume from —
//! the post-mortem carries not just *what happened* but *where to restart*.
//! The recorder also participates in checkpoint rollback: its
//! [`Observer::mark`]/[`Observer::rewind`] drop ring events recorded after
//! the mark so a retried stint does not duplicate history.

use std::collections::VecDeque;

use crate::event::{
    BacklogEvent, BusyResetEvent, DispatchEvent, DropEvent, EnqueueEvent, FaultEvent,
    QuarantineEvent, TraceEvent, TxEvent,
};
use crate::jsonl::JsonlObserver;
use crate::snap::Value;
use crate::span::SpanSnapshot;
use crate::{replay, Observer};

/// Bounded ring of recent [`TraceEvent`]s with post-mortem dump support.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    spans: SpanSnapshot,
    dump_path: Option<String>,
    dumps_written: u64,
    dump_errors: u64,
    checkpoint: Option<Vec<u8>>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            spans: SpanSnapshot::default(),
            dump_path: None,
            dumps_written: 0,
            dump_errors: 0,
            checkpoint: None,
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

    /// Attaches (folds in) an aggregated span snapshot so dumps carry the
    /// wall-clock profile alongside the event history.
    pub fn attach_spans(&mut self, spans: &SpanSnapshot) {
        self.spans.merge_from(spans);
    }

    /// Attaches the serialized bytes of the last epoch checkpoint (a
    /// [`crate::snap::Value`] rendered with `to_bytes`). Subsequent
    /// [`FlightRecorder::dump`]s write them to a `<dump_path>.ckpt`
    /// sidecar so a post-mortem carries the exact state to resume from
    /// alongside the event history.
    pub fn attach_checkpoint(&mut self, bytes: Vec<u8>) {
        self.checkpoint = Some(bytes);
    }

    /// The attached epoch checkpoint bytes, if any.
    pub fn checkpoint(&self) -> Option<&[u8]> {
        self.checkpoint.as_deref()
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
    /// header line, the retained events oldest-first, then the attached
    /// span aggregates.
    pub fn snapshot_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"ev\":\"flight\",\"capacity\":{},\"len\":{},\"dropped\":{},\"checkpoint\":{}}}\n",
            self.capacity,
            self.ring.len(),
            self.dropped,
            self.checkpoint.is_some()
        );
        let mut sink = JsonlObserver::new(Vec::new());
        for ev in &self.ring {
            replay(&mut sink, ev);
        }
        out.push_str(&String::from_utf8(sink.into_inner()).unwrap_or_default());
        self.spans.write_jsonl(0, &mut out);
        out
    }

    /// Writes [`FlightRecorder::snapshot_jsonl`] to the configured dump
    /// path. Returns `true` on success; without a path this is a no-op
    /// returning `false`. Errors are counted, not propagated.
    ///
    /// If checkpoint bytes are attached ([`attach_checkpoint`]), they are
    /// written alongside to `<dump_path>.ckpt` — a byte-deterministic
    /// snapshot the run can be resumed from (`hpfq-trace snapshots`
    /// inspects it, `chaos-soak --resume` replays it).
    ///
    /// [`attach_checkpoint`]: FlightRecorder::attach_checkpoint
    pub fn dump(&mut self) -> bool {
        let Some(path) = self.dump_path.clone() else {
            return false;
        };
        match std::fs::write(&path, self.snapshot_jsonl()) {
            Ok(()) => {
                self.dumps_written += 1;
                if let Some(ckpt) = &self.checkpoint {
                    if std::fs::write(format!("{path}.ckpt"), ckpt).is_err() {
                        self.dump_errors += 1;
                    }
                }
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

    // Epoch-checkpoint support (DESIGN.md §12): the mark is the total
    // number of events ever recorded; rewinding pops events recorded
    // after the mark off the back of the ring. Events the ring has
    // already evicted cannot come back — the rewind is best-effort in
    // that direction only, which is safe: a retried stint re-records
    // them, and `dropped` already says the oldest history is gone.
    fn mark(&self) -> Value {
        Value::U64(self.dropped + self.ring.len() as u64)
    }

    fn rewind(&mut self, mark: &Value) {
        let Ok(target) = mark.as_u64() else { return };
        while self.dropped + self.ring.len() as u64 > target {
            if self.ring.pop_back().is_none() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_trace;
    use crate::span::{SpanKind, SpanSnapshot};

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
        let mut spans = SpanSnapshot::new();
        spans.record(SpanKind::Dispatch, 50);
        r.attach_spans(&spans);
        let snap = r.snapshot_jsonl();
        let mut lines = snap.lines();
        assert_eq!(
            lines.next(),
            Some("{\"ev\":\"flight\",\"capacity\":8,\"len\":1,\"dropped\":0,\"checkpoint\":false}")
        );
        // The header and span lines are not TraceEvents; exactly those two
        // are "skipped" by the plain event parser.
        let (evs, skipped) = parse_trace(&snap);
        assert_eq!(evs.len(), 1);
        assert_eq!(skipped, 2);
    }

    #[test]
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

    #[test]
    fn dump_writes_checkpoint_sidecar_when_attached() {
        let path = std::env::temp_dir().join(format!(
            "hpfq-flight-ckpt-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut r = FlightRecorder::with_dump_path(4, path.to_string_lossy());
        r.on_busy_reset(&reset_at(0.25, 2));
        r.attach_checkpoint(b"(map (kind snapshot))".to_vec());
        assert!(r.dump());
        let sidecar = format!("{}.ckpt", path.to_string_lossy());
        let text = std::fs::read_to_string(&path).unwrap();
        let ckpt = std::fs::read(&sidecar).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
        assert!(text.starts_with("{\"ev\":\"flight\""), "{text}");
        assert!(text.contains("\"checkpoint\":true"), "{text}");
        assert_eq!(ckpt, b"(map (kind snapshot))");
        assert_eq!(r.dump_errors(), 0);
    }

    #[test]
    fn mark_rewind_discards_events_recorded_after_the_mark() {
        let mut r = FlightRecorder::new(8);
        r.on_busy_reset(&reset_at(0.0, 0));
        r.on_busy_reset(&reset_at(1.0, 1));
        let mark = r.mark();
        r.on_busy_reset(&reset_at(2.0, 2));
        r.on_busy_reset(&reset_at(3.0, 3));
        r.rewind(&mark);
        let nodes: Vec<usize> = r
            .events()
            .map(|e| match e {
                TraceEvent::BusyReset(b) => b.node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(nodes, [0, 1]);
        // Re-recording after the rewind continues cleanly.
        r.on_busy_reset(&reset_at(2.5, 9));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn rewind_past_evicted_history_is_best_effort() {
        let mut r = FlightRecorder::new(2);
        let mark = r.mark(); // 0 events seen
        for i in 0..4 {
            r.on_busy_reset(&reset_at(i as f64, i));
        }
        // Two of the four events were evicted; rewinding to 0 can only
        // drop what the ring still holds.
        r.rewind(&mark);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2);
    }
}
