//! JSONL trace sink and reader.
//!
//! [`JsonlObserver`] writes one flat JSON object per event per line using
//! only `std::io` — no serialization dependency. Floats are printed with
//! Rust's shortest-round-trip `Display`, so a parsed trace reproduces the
//! emitted values bit-exactly. [`parse_line`] inverts the format;
//! `hpfq-analysis` builds service records (and from them empirical WFI and
//! service curves) out of parsed traces.
//!
//! Format, one event kind per `"ev"` tag:
//!
//! ```text
//! {"ev":"enqueue","t":0.2,"link":0,"leaf":3,"id":7,"flow":1,"len":8192,"arr":0.2,"depth":2,"qbytes":16384}
//! {"ev":"dispatch","t":0.2,"link":0,"node":0,"sess":1,"child":2,"s":0.1,"f":0.3,"phi":0.5,"v0":0.1,"v1":0.2,"bits":65536,"rate":45000000,"policy":"wf2q+"}
//! {"ev":"tx_start","t":0.2,"link":0,"leaf":3,"id":7,"flow":1,"len":8192,"arr":0.2}
//! {"ev":"tx_end","t":0.21,"link":0,"leaf":3,"id":7,"flow":1,"len":8192,"arr":0.2}
//! {"ev":"backlog","t":0.2,"link":0,"node":3,"active":true}
//! {"ev":"busy_reset","t":0.4,"link":0,"node":0}
//! {"ev":"drop","t":0.2,"link":0,"leaf":3,"id":8,"flow":1,"len":8192,"arr":0.2,"qbytes":65536}
//! {"ev":"fault","t":0.5,"link":0,"kind":"link_rate","node":0,"flow":0,"value":22500000}
//! ```

use std::io::Write;

use crate::event::{
    intern_policy, BacklogEvent, BusyResetEvent, DispatchEvent, DropEvent, EnqueueEvent,
    FaultEvent, FaultKind, PacketInfo, TraceEvent, TxEvent,
};
use crate::Observer;

/// An [`Observer`] that appends every event to `w` as JSONL.
///
/// Wrap the writer in a [`std::io::BufWriter`] for file sinks; call
/// [`JsonlObserver::into_inner`] (or drop the observer) when done. Write
/// errors are counted, not propagated — the scheduling hot path cannot
/// fail.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    w: W,
    /// Number of write errors swallowed (0 on a healthy sink).
    pub write_errors: u64,
}

impl<W: Write> JsonlObserver<W> {
    /// Creates a JSONL sink over `w`.
    pub fn new(w: W) -> Self {
        JsonlObserver { w, write_errors: 0 }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }

    fn emit(&mut self, line: std::fmt::Arguments<'_>) {
        if self.w.write_fmt(line).is_err() {
            self.write_errors += 1;
        }
    }
}

impl<W: Write> Observer for JsonlObserver<W> {
    fn on_enqueue(&mut self, e: &EnqueueEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"enqueue\",\"t\":{},\"link\":{},\"leaf\":{},\"id\":{},\"flow\":{},\"len\":{},\"arr\":{},\"depth\":{},\"qbytes\":{}}}\n",
            e.time, e.link, e.leaf, e.pkt.id, e.pkt.flow, e.pkt.len_bytes, e.pkt.arrival,
            e.queue_depth, e.queue_bytes,
        ));
    }

    fn on_drop(&mut self, e: &DropEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"drop\",\"t\":{},\"link\":{},\"leaf\":{},\"id\":{},\"flow\":{},\"len\":{},\"arr\":{},\"qbytes\":{}}}\n",
            e.time, e.link, e.leaf, e.pkt.id, e.pkt.flow, e.pkt.len_bytes, e.pkt.arrival,
            e.queue_bytes,
        ));
    }

    fn on_dispatch(&mut self, e: &DispatchEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"dispatch\",\"t\":{},\"link\":{},\"node\":{},\"sess\":{},\"child\":{},\"s\":{},\"f\":{},\"phi\":{},\"v0\":{},\"v1\":{},\"bits\":{},\"rate\":{},\"policy\":\"{}\"}}\n",
            e.time, e.link, e.node, e.session, e.child, e.start_tag, e.finish_tag, e.phi,
            e.v_before, e.v_after, e.head_bits, e.node_rate, e.policy,
        ));
    }

    fn on_tx_start(&mut self, e: &TxEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"tx_start\",\"t\":{},\"link\":{},\"leaf\":{},\"id\":{},\"flow\":{},\"len\":{},\"arr\":{}}}\n",
            e.time, e.link, e.leaf, e.pkt.id, e.pkt.flow, e.pkt.len_bytes, e.pkt.arrival,
        ));
    }

    fn on_tx_complete(&mut self, e: &TxEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"tx_end\",\"t\":{},\"link\":{},\"leaf\":{},\"id\":{},\"flow\":{},\"len\":{},\"arr\":{}}}\n",
            e.time, e.link, e.leaf, e.pkt.id, e.pkt.flow, e.pkt.len_bytes, e.pkt.arrival,
        ));
    }

    fn on_node_backlog(&mut self, e: &BacklogEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"backlog\",\"t\":{},\"link\":{},\"node\":{},\"active\":{}}}\n",
            e.time, e.link, e.node, e.active,
        ));
    }

    fn on_busy_reset(&mut self, e: &BusyResetEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"busy_reset\",\"t\":{},\"link\":{},\"node\":{}}}\n",
            e.time, e.link, e.node,
        ));
    }

    fn on_fault(&mut self, e: &FaultEvent) {
        self.emit(format_args!(
            "{{\"ev\":\"fault\",\"t\":{},\"link\":{},\"kind\":\"{}\",\"node\":{},\"flow\":{},\"value\":{}}}\n",
            e.time,
            e.link,
            e.kind.as_str(),
            e.node,
            e.flow,
            e.value,
        ));
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed `"key":value` pair list from one flat JSON object. The format
/// above never nests objects and its only strings are bare identifiers, so
/// a small scanner suffices.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(line: &'a str) -> Option<Self> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut pairs = Vec::new();
        let mut rest = body;
        while !rest.is_empty() {
            rest = rest.strip_prefix('"')?;
            let kend = rest.find('"')?;
            let key = &rest[..kend];
            rest = rest[kend + 1..].strip_prefix(':')?;
            let val;
            if let Some(r) = rest.strip_prefix('"') {
                let vend = r.find('"')?;
                val = &r[..vend];
                rest = &r[vend + 1..];
            } else {
                let vend = rest.find(',').unwrap_or(rest.len());
                val = &rest[..vend];
                rest = &rest[vend..];
            }
            pairs.push((key, val));
            if let Some(r) = rest.strip_prefix(',') {
                rest = r;
            } else if !rest.is_empty() {
                return None;
            }
        }
        Some(Fields { pairs })
    }

    fn str(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    fn f64(&self, key: &str) -> Option<f64> {
        self.str(key)?.parse().ok()
    }

    fn usize(&self, key: &str) -> Option<usize> {
        self.str(key)?.parse().ok()
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.str(key)?.parse().ok()
    }

    fn u32(&self, key: &str) -> Option<u32> {
        self.str(key)?.parse().ok()
    }

    /// A time: finite, as every one the writer emits is.
    fn time(&self, key: &str) -> Option<f64> {
        self.f64(key).filter(|t| t.is_finite())
    }

    fn pkt(&self) -> Option<PacketInfo> {
        Some(PacketInfo {
            id: self.u64("id")?,
            flow: self.u32("flow")?,
            len_bytes: self.u32("len")?,
            arrival: self.time("arr")?,
        })
    }
}

/// Parses one JSONL trace line back into a [`TraceEvent`]. Returns `None`
/// for malformed lines (callers typically skip them, counting), a `t` or
/// `arr` that is not a finite number included.
pub fn parse_line(line: &str) -> Option<TraceEvent> {
    let f = Fields::parse(line)?;
    let time = f.time("t")?;
    match f.str("ev")? {
        "enqueue" => Some(TraceEvent::Enqueue(EnqueueEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            leaf: f.usize("leaf")?,
            pkt: f.pkt()?,
            queue_depth: f.usize("depth")?,
            queue_bytes: f.u64("qbytes")?,
        })),
        "drop" => Some(TraceEvent::Drop(DropEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            leaf: f.usize("leaf")?,
            pkt: f.pkt()?,
            queue_bytes: f.u64("qbytes")?,
        })),
        "dispatch" => Some(TraceEvent::Dispatch(DispatchEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            node: f.usize("node")?,
            session: f.usize("sess")?,
            child: f.usize("child")?,
            start_tag: f.f64("s")?,
            finish_tag: f.f64("f")?,
            phi: f.f64("phi")?,
            v_before: f.f64("v0")?,
            v_after: f.f64("v1")?,
            head_bits: f.f64("bits")?,
            node_rate: f.f64("rate")?,
            policy: intern_policy(f.str("policy")?),
        })),
        "tx_start" => Some(TraceEvent::TxStart(TxEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            leaf: f.usize("leaf")?,
            pkt: f.pkt()?,
        })),
        "tx_end" => Some(TraceEvent::TxComplete(TxEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            leaf: f.usize("leaf")?,
            pkt: f.pkt()?,
        })),
        "backlog" => Some(TraceEvent::Backlog(BacklogEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            node: f.usize("node")?,
            active: f.str("active")? == "true",
        })),
        "busy_reset" => Some(TraceEvent::BusyReset(BusyResetEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            node: f.usize("node")?,
        })),
        "fault" => Some(TraceEvent::Fault(FaultEvent {
            time,
            link: f.usize("link").unwrap_or(0),
            kind: FaultKind::parse(f.str("kind")?)?,
            node: f.usize("node")?,
            flow: f.u32("flow")?,
            value: f.f64("value")?,
        })),
        _ => None,
    }
}

/// A cloneable in-memory byte sink for [`JsonlObserver`].
///
/// Multi-link simulations attach one observer per link; giving each a
/// clone of the same `SharedBuf` merges their output into a single trace
/// (each event carries its `"link"` field, so the merged stream is still
/// unambiguous). Lines stay interleaved in emission order because every
/// write appends atomically to the shared buffer.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes as a UTF-8 string (JSONL output is always
    /// UTF-8). Clones out of the shared cell.
    #[expect(
        clippy::expect_used,
        reason = "JSONL writers emit `str`s and numbers: UTF-8"
    )]
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.borrow().clone()).expect("JSONL output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Merges per-link JSONL trace buffers into one canonical stream.
///
/// Lines are stable-sorted by `(t, link)` — `t` compared by
/// [`f64::total_cmp`], the same total order the event engine uses. Each
/// per-link buffer is already time-ordered (an observer sees its link's
/// events in simulation order), so for equal `(t, link)` keys the stable
/// sort preserves the emission order *within* that link's buffer, and
/// distinct links never tie on the full key. The merged bytes are therefore
/// a pure function of the per-link byte streams: two runs produce
/// bit-identical merged traces exactly when they produced bit-identical
/// per-link traces. This is the oracle the determinism tests compare.
///
/// Each buffer should carry a distinct `"link"` id (the normal per-link
/// observer setup); a line that fails to parse sorts to the front with
/// `t = -inf` rather than being dropped, so corruption stays visible.
pub fn merge_traces<S: AsRef<str>>(traces: &[S]) -> String {
    let mut lines: Vec<(f64, usize, &str)> = Vec::new();
    let mut total = 0usize;
    for trace in traces {
        let text = trace.as_ref();
        total += text.len();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let key =
                Fields::parse(line).and_then(|f| Some((f.f64("t")?, f.usize("link").unwrap_or(0))));
            let (t, link) = key.unwrap_or((f64::NEG_INFINITY, 0));
            lines.push((t, link, line));
        }
    }
    lines.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut out = String::with_capacity(total + lines.len());
    for (_, _, line) in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Parses a whole trace, skipping malformed lines; returns the events and
/// the number of lines skipped.
pub fn parse_trace(text: &str) -> (Vec<TraceEvent>, usize) {
    let mut events = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(ev) => events.push(ev),
            None => skipped += 1,
        }
    }
    (events, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;

    fn roundtrip(emit: impl FnOnce(&mut JsonlObserver<Vec<u8>>)) -> TraceEvent {
        let mut obs = JsonlObserver::new(Vec::new());
        emit(&mut obs);
        assert_eq!(obs.write_errors, 0);
        let buf = obs.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let (evs, skipped) = parse_trace(&text);
        assert_eq!(skipped, 0, "unparseable: {text}");
        assert_eq!(evs.len(), 1);
        evs[0]
    }

    fn pkt() -> PacketInfo {
        PacketInfo {
            id: 0xFFFF_FFFF_FFFF,
            flow: 42,
            len_bytes: 8192,
            arrival: 0.612_345_678_901_234_5,
        }
    }

    #[test]
    fn every_event_kind_round_trips_exactly() {
        let e = EnqueueEvent {
            time: 1e-9,
            link: 0,
            leaf: 3,
            pkt: pkt(),
            queue_depth: 17,
            queue_bytes: 139_264,
        };
        assert_eq!(roundtrip(|o| o.on_enqueue(&e)), TraceEvent::Enqueue(e));

        let d = DropEvent {
            time: 2.5,
            link: 2,
            leaf: 9,
            pkt: pkt(),
            queue_bytes: 65_536,
        };
        assert_eq!(roundtrip(|o| o.on_drop(&d)), TraceEvent::Drop(d));

        let dis = DispatchEvent {
            time: 0.125,
            link: 1,
            node: 1,
            session: 2,
            child: 5,
            start_tag: 0.001_953_125,
            finish_tag: 0.013_671_875,
            phi: 0.49382716049382713,
            v_before: 0.0,
            v_after: 0.001_456_355_555_555_6,
            head_bits: 65_536.0,
            node_rate: 11.111e6,
            policy: "wf2q+",
        };
        assert_eq!(
            roundtrip(|o| o.on_dispatch(&dis)),
            TraceEvent::Dispatch(dis)
        );

        let tx = TxEvent {
            time: 3.0,
            link: 3,
            leaf: 4,
            pkt: pkt(),
        };
        assert_eq!(roundtrip(|o| o.on_tx_start(&tx)), TraceEvent::TxStart(tx));
        assert_eq!(
            roundtrip(|o| o.on_tx_complete(&tx)),
            TraceEvent::TxComplete(tx)
        );

        let b = BacklogEvent {
            time: 0.25,
            link: 0,
            node: 7,
            active: true,
        };
        assert_eq!(roundtrip(|o| o.on_node_backlog(&b)), TraceEvent::Backlog(b));

        let r = BusyResetEvent {
            time: 9.75,
            link: 1,
            node: 0,
        };
        assert_eq!(roundtrip(|o| o.on_busy_reset(&r)), TraceEvent::BusyReset(r));

        let flt = FaultEvent {
            time: 0.333_333_333_333_333_3,
            link: 0,
            kind: FaultKind::InvalidPacket,
            node: 2,
            flow: 11,
            value: 1500.0,
        };
        assert_eq!(roundtrip(|o| o.on_fault(&flt)), TraceEvent::Fault(flt));
    }

    #[test]
    fn every_fault_kind_round_trips_through_wire_name() {
        use FaultKind::*;
        for kind in [
            LinkRate,
            LinkDown,
            LinkUp,
            PacketDrop,
            FlowAdd,
            FlowRemove,
            InvalidPacket,
        ] {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
            let e = FaultEvent {
                time: 1.0,
                link: 0,
                kind,
                node: 0,
                flow: 0,
                value: 0.0,
            };
            assert_eq!(roundtrip(|o| o.on_fault(&e)), TraceEvent::Fault(e));
        }
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn legacy_lines_without_link_default_to_link_zero() {
        let line = "{\"ev\":\"busy_reset\",\"t\":1,\"node\":4}";
        match parse_line(line) {
            Some(TraceEvent::BusyReset(r)) => {
                assert_eq!(r.link, 0);
                assert_eq!(r.node, 4);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn shared_buf_merges_observers_in_emission_order() {
        let buf = SharedBuf::new();
        let mut a = JsonlObserver::new(buf.clone());
        let mut b = JsonlObserver::new(buf.clone());
        a.on_busy_reset(&BusyResetEvent {
            time: 1.0,
            link: 0,
            node: 0,
        });
        b.on_busy_reset(&BusyResetEvent {
            time: 2.0,
            link: 1,
            node: 0,
        });
        a.on_busy_reset(&BusyResetEvent {
            time: 3.0,
            link: 0,
            node: 2,
        });
        let (evs, skipped) = parse_trace(&buf.contents());
        assert_eq!(skipped, 0);
        let links: Vec<usize> = evs
            .iter()
            .map(|e| match e {
                TraceEvent::BusyReset(r) => r.link,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(links, [0, 1, 0]);
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let (evs, skipped) = parse_trace(
            "{\"ev\":\"busy_reset\",\"t\":1,\"node\":0}\nnot json\n{\"ev\":\"??\",\"t\":1}\n",
        );
        assert_eq!(evs.len(), 1);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn unknown_policy_interned_as_placeholder() {
        let line = "{\"ev\":\"dispatch\",\"t\":0,\"node\":0,\"sess\":0,\"child\":1,\"s\":0,\"f\":1,\"phi\":0.5,\"v0\":0,\"v1\":0.5,\"bits\":8,\"rate\":16,\"policy\":\"custom\"}";
        match parse_line(line) {
            Some(TraceEvent::Dispatch(d)) => assert_eq!(d.policy, "?"),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn merge_traces_interleaves_by_time_then_link() {
        let link0 = "{\"ev\":\"busy_reset\",\"t\":0.1,\"link\":0,\"node\":0}\n\
                     {\"ev\":\"busy_reset\",\"t\":0.3,\"link\":0,\"node\":0}\n";
        let link1 = "{\"ev\":\"busy_reset\",\"t\":0.2,\"link\":1,\"node\":0}\n\
                     {\"ev\":\"busy_reset\",\"t\":0.3,\"link\":1,\"node\":0}\n";
        let merged = merge_traces(&[link0, link1]);
        let times: Vec<(f64, usize)> = merged
            .lines()
            .map(|l| {
                let f = Fields::parse(l).unwrap();
                (f.f64("t").unwrap(), f.usize("link").unwrap())
            })
            .collect();
        assert_eq!(times, vec![(0.1, 0), (0.2, 1), (0.3, 0), (0.3, 1)]);
    }

    #[test]
    fn merge_traces_is_independent_of_buffer_order() {
        let link0 = "{\"ev\":\"busy_reset\",\"t\":0.5,\"link\":0,\"node\":0}\n\
                     {\"ev\":\"busy_reset\",\"t\":0.5,\"link\":0,\"node\":1}\n";
        let link1 = "{\"ev\":\"busy_reset\",\"t\":0.5,\"link\":1,\"node\":2}\n";
        let link2 = "{\"ev\":\"busy_reset\",\"t\":0.25,\"link\":2,\"node\":3}\n";
        let a = merge_traces(&[link0, link1, link2]);
        let b = merge_traces(&[link2, link1, link0]);
        assert_eq!(a, b, "canonical merge must not depend on input order");
        // Within one link, equal-time lines keep emission order.
        let nodes: Vec<&str> = a
            .lines()
            .map(|l| Fields::parse(l).unwrap().str("node").unwrap())
            .collect();
        assert_eq!(nodes, vec!["3", "0", "1", "2"]);
    }

    #[test]
    fn merge_traces_keeps_malformed_lines_visible() {
        let good = "{\"ev\":\"busy_reset\",\"t\":1.0,\"link\":0,\"node\":0}\n";
        let bad = "not json at all\n";
        let merged = merge_traces(&[good, bad]);
        assert_eq!(merged.lines().count(), 2);
        assert!(merged.starts_with("not json"), "malformed sorts first");
    }
}
