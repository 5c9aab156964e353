//! Rebuilding [`ServiceRecord`]s from a JSONL trace.
//!
//! The live simulator records services directly into `SimStats`; this
//! module recovers the same records from a persisted event trace
//! ([`hpfq_obs::jsonl`]), so every measurement in [`crate::measures`],
//! [`crate::wfi`], and [`crate::sbi`] can be re-run offline from a trace
//! file — the figures no longer require re-simulating.
//!
//! A service is a `tx_start`/`tx_end` pair for the same packet id on the
//! same link; each link transmits one packet at a time, so the pairing is
//! a single pass with one slot of pending state *per link*. Multi-link
//! (`Network`) traces interleave links freely in one merged file — the
//! link tag on every event keeps the pairing exact, and
//! [`path_records_from_trace`] stitches the per-link services of one
//! packet back into its route for per-hop and end-to-end delay.

use hpfq_obs::TraceEvent;
use hpfq_sim::ServiceRecord;
use std::collections::BTreeMap;

/// Per-trace pairing diagnostics from [`service_records_from_trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceAnomalies {
    /// `tx_end` events with no preceding `tx_start` for that packet.
    pub unmatched_ends: usize,
    /// `tx_start` events never completed (at most 1 in a truncated trace).
    pub unmatched_starts: usize,
}

/// Pairs every `tx_start` with the `tx_end` of the same packet on the
/// same link: `(link, service)` in departure order, and the anomalies.
fn paired_services(events: &[TraceEvent]) -> (Vec<(usize, ServiceRecord)>, TraceAnomalies) {
    let mut tagged = Vec::new();
    let mut anomalies = TraceAnomalies::default();
    // (packet id, start time) of the in-flight transmission per link —
    // links transmit concurrently, so each gets its own pending slot.
    let mut in_flight: BTreeMap<usize, (u64, f64)> = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::TxStart(e) => {
                let clobbered = in_flight.insert(e.link, (e.pkt.id, e.time));
                anomalies.unmatched_starts += usize::from(clobbered.is_some());
            }
            TraceEvent::TxComplete(e) => match in_flight.remove(&e.link) {
                Some((id, start)) if id == e.pkt.id => tagged.push((
                    e.link,
                    ServiceRecord {
                        id: e.pkt.id,
                        flow: e.pkt.flow,
                        len_bytes: e.pkt.len_bytes,
                        arrival: e.pkt.arrival,
                        start,
                        end: e.time,
                    },
                )),
                other => {
                    anomalies.unmatched_ends += 1;
                    if other.is_some() {
                        anomalies.unmatched_starts += 1;
                    }
                }
            },
            _ => {}
        }
    }
    anomalies.unmatched_starts += in_flight.len();
    (tagged, anomalies)
}

/// Reconstructs the transmitted-packet service records from a parsed
/// trace, in departure order, together with pairing diagnostics.
///
/// Only `tx_start`/`tx_end` events matter; all others are skipped. A
/// healthy complete trace yields zero [`TraceAnomalies`]; a trace cut off
/// mid-transmission leaves exactly one unmatched start.
pub fn service_records_from_trace(events: &[TraceEvent]) -> (Vec<ServiceRecord>, TraceAnomalies) {
    let (tagged, anomalies) = paired_services(events);
    (tagged.into_iter().map(|(_, r)| r).collect(), anomalies)
}

/// Like [`service_records_from_trace`], but keyed by link: one record list
/// per link that appears in the trace, each in that link's departure
/// order. Anomaly counts are trace-global.
pub fn per_link_records_from_trace(
    events: &[TraceEvent],
) -> (BTreeMap<usize, Vec<ServiceRecord>>, TraceAnomalies) {
    let (tagged, anomalies) = paired_services(events);
    let mut by_link: BTreeMap<usize, Vec<ServiceRecord>> = BTreeMap::new();
    for (link, rec) in tagged {
        by_link.entry(link).or_default().push(rec);
    }
    (by_link, anomalies)
}

/// One packet's traversal of a multi-link route, reconstructed from a
/// merged link-tagged trace: the per-hop services in traversal order.
///
/// Each hop's [`ServiceRecord::arrival`] is the packet's arrival *at that
/// hop* (the simulator re-stamps arrival when the packet reaches the next
/// link), so [`ServiceRecord::delay`] on a hop record is the hop-local
/// queueing + transmission delay.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRecord {
    /// Packet id.
    pub id: u64,
    /// Flow the packet belongs to.
    pub flow: u32,
    /// `(link, hop-local service)` in traversal (time) order.
    pub hops: Vec<(usize, ServiceRecord)>,
}

impl PathRecord {
    /// Queueing + transmission delay at hop `i` of the traversal.
    pub fn hop_delay(&self, i: usize) -> f64 {
        self.hops[i].1.delay()
    }

    /// Network delay from arrival at the first hop to departure from the
    /// last: queueing + transmission at every hop plus the propagation
    /// between hops (final-hop delivery propagation is outside the trace).
    pub fn end_to_end(&self) -> f64 {
        self.hops.last().expect("non-empty path").1.end - self.hops[0].1.arrival
    }
}

/// Stitches per-link services back into per-packet paths, in order of
/// final departure. Packets still mid-path when the trace ends (seen on
/// some hop but not yet through their last recorded link) are included
/// with the hops they completed.
pub fn path_records_from_trace(events: &[TraceEvent]) -> (Vec<PathRecord>, TraceAnomalies) {
    let (by_link, anomalies) = per_link_records_from_trace(events);
    let mut paths: BTreeMap<u64, PathRecord> = BTreeMap::new();
    for (&link, records) in &by_link {
        for rec in records {
            let p = paths.entry(rec.id).or_insert_with(|| PathRecord {
                id: rec.id,
                flow: rec.flow,
                hops: Vec::new(),
            });
            p.hops.push((link, *rec));
        }
    }
    let mut out: Vec<PathRecord> = paths.into_values().collect();
    for p in &mut out {
        p.hops
            .sort_by(|a, b| a.1.start.partial_cmp(&b.1.start).expect("finite times"));
    }
    out.sort_by(|a, b| {
        let (ta, tb) = (a.hops.last().unwrap().1.end, b.hops.last().unwrap().1.end);
        ta.partial_cmp(&tb).expect("finite times")
    });
    (out, anomalies)
}

/// [`service_records_from_trace`] filtered to one flow.
pub fn flow_records_from_trace(events: &[TraceEvent], flow: u32) -> Vec<ServiceRecord> {
    let (records, _) = service_records_from_trace(events);
    records.into_iter().filter(|r| r.flow == flow).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfq_obs::{PacketInfo, TxEvent};

    fn pkt(id: u64, flow: u32) -> PacketInfo {
        PacketInfo {
            id,
            flow,
            len_bytes: 1000,
            arrival: 0.25,
        }
    }

    fn start(t: f64, id: u64, flow: u32) -> TraceEvent {
        start_on(0, t, id, flow)
    }

    fn end(t: f64, id: u64, flow: u32) -> TraceEvent {
        end_on(0, t, id, flow)
    }

    fn start_on(link: usize, t: f64, id: u64, flow: u32) -> TraceEvent {
        TraceEvent::TxStart(TxEvent {
            time: t,
            link,
            leaf: 1,
            pkt: pkt(id, flow),
        })
    }

    fn end_on(link: usize, t: f64, id: u64, flow: u32) -> TraceEvent {
        TraceEvent::TxComplete(TxEvent {
            time: t,
            link,
            leaf: 1,
            pkt: pkt(id, flow),
        })
    }

    #[test]
    fn pairs_in_order() {
        let events = [
            start(0.0, 1, 0),
            end(1.0, 1, 0),
            start(1.0, 2, 1),
            end(2.0, 2, 1),
        ];
        let (recs, anomalies) = service_records_from_trace(&events);
        assert_eq!(anomalies, TraceAnomalies::default());
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, 1);
        assert_eq!(recs[0].start, 0.0);
        assert_eq!(recs[0].end, 1.0);
        assert_eq!(recs[0].arrival, 0.25);
        assert_eq!(recs[1].flow, 1);
        assert_eq!(flow_records_from_trace(&events, 1).len(), 1);
    }

    #[test]
    fn truncated_trace_reports_one_unmatched_start() {
        let events = [start(0.0, 1, 0), end(1.0, 1, 0), start(1.0, 2, 0)];
        let (recs, anomalies) = service_records_from_trace(&events);
        assert_eq!(recs.len(), 1);
        assert_eq!(anomalies.unmatched_starts, 1);
        assert_eq!(anomalies.unmatched_ends, 0);
    }

    #[test]
    fn orphan_end_is_counted_not_recorded() {
        let events = [end(1.0, 9, 0)];
        let (recs, anomalies) = service_records_from_trace(&events);
        assert!(recs.is_empty());
        assert_eq!(anomalies.unmatched_ends, 1);
    }

    #[test]
    fn interleaved_links_pair_independently() {
        // Link 0 transmits packet 1 while link 1 transmits packet 2; the
        // merged trace interleaves the edges.
        let events = [
            start_on(0, 0.0, 1, 0),
            start_on(1, 0.2, 2, 1),
            end_on(1, 0.8, 2, 1),
            end_on(0, 1.0, 1, 0),
        ];
        let (recs, anomalies) = service_records_from_trace(&events);
        assert_eq!(anomalies, TraceAnomalies::default());
        assert_eq!(recs.len(), 2);
        let (by_link, anomalies) = per_link_records_from_trace(&events);
        assert_eq!(anomalies, TraceAnomalies::default());
        assert_eq!(by_link[&0].len(), 1);
        assert_eq!(by_link[&1].len(), 1);
        assert_eq!(by_link[&0][0].id, 1);
        assert_eq!(by_link[&1][0].id, 2);
    }

    /// A time that is not a finite number makes its line malformed, so no
    /// reader sorts by it.
    #[test]
    fn a_non_finite_time_is_a_malformed_line() {
        let text = concat!(
            "{\"ev\":\"tx_start\",\"t\":0,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":0,\"len\":1000,\"arr\":0}\n",
            "{\"ev\":\"tx_end\",\"t\":1,\"link\":0,\"leaf\":1,\"id\":1,\"flow\":0,\"len\":1000,\"arr\":0}\n",
            "{\"ev\":\"tx_start\",\"t\":NaN,\"link\":1,\"leaf\":1,\"id\":1,\"flow\":0,\"len\":1000,\"arr\":1}\n",
            "{\"ev\":\"tx_end\",\"t\":2,\"link\":1,\"leaf\":1,\"id\":1,\"flow\":0,\"len\":1000,\"arr\":1}\n",
        );
        let (events, skipped) = hpfq_obs::jsonl::parse_trace(text);
        let (paths, anomalies) = path_records_from_trace(&events);
        assert_eq!(skipped, 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops.len(), 1);
        assert_eq!(anomalies.unmatched_ends, 1);
    }

    #[test]
    fn path_records_stitch_hops_in_traversal_order() {
        // Packet 1 traverses link 0 then link 2; packet 7 uses only
        // link 2. Services interleave in the merged trace.
        let events = [
            start_on(0, 0.0, 1, 0),
            end_on(0, 1.0, 1, 0),
            start_on(2, 0.5, 7, 3),
            end_on(2, 1.5, 7, 3),
            start_on(2, 1.5, 1, 0),
            end_on(2, 2.5, 1, 0),
        ];
        let (paths, anomalies) = path_records_from_trace(&events);
        assert_eq!(anomalies, TraceAnomalies::default());
        assert_eq!(paths.len(), 2);
        // Ordered by final departure: packet 7 leaves at 1.5, packet 1 at 2.5.
        assert_eq!(paths[0].id, 7);
        assert_eq!(paths[0].hops.len(), 1);
        assert_eq!(paths[1].id, 1);
        assert_eq!(
            paths[1].hops.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // Hop delays use the hop-local arrival stamp (0.25 in `pkt`).
        assert!((paths[1].hop_delay(0) - 0.75).abs() < 1e-12);
        assert!((paths[1].hop_delay(1) - 2.25).abs() < 1e-12);
        assert!((paths[1].end_to_end() - 2.25).abs() < 1e-12);
    }
}
