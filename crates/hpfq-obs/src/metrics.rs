//! Metrics registry: per-node and per-flow counters, queue-depth gauges,
//! and fixed-bucket delay histograms, rendered as a text report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{BacklogEvent, BusyResetEvent, DispatchEvent, DropEvent, EnqueueEvent, TxEvent};
use crate::Observer;

/// A histogram of per-packet delays over fixed power-of-two buckets.
///
/// Bucket `i` covers `[BASE·2^i, BASE·2^(i+1))` seconds with
/// `BASE = 1 µs`; bucket 0 additionally absorbs everything below `BASE`,
/// and the last bucket everything above the top edge (≈ 67 s). Fixed
/// buckets keep recording O(1) and allocation-free — the resolution is
/// ample for the paper's millisecond-scale delay figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayHistogram {
    counts: [u64; Self::BUCKETS],
    total: u64,
}

impl Default for DelayHistogram {
    fn default() -> Self {
        DelayHistogram {
            counts: [0; Self::BUCKETS],
            total: 0,
        }
    }
}

impl DelayHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buckets.
    pub const BUCKETS: usize = 27;
    /// Lower edge of bucket 1 in seconds (bucket 0 is `[0, BASE)`).
    // lint:allow(L003): histogram bucket edge, not a comparison tolerance
    pub const BASE: f64 = 1e-6;

    /// The bucket index a delay of `seconds` falls into.
    pub fn bucket_of(seconds: f64) -> usize {
        // NaN and everything at or below BASE land in bucket 0.
        if seconds.is_nan() || seconds <= Self::BASE {
            return 0;
        }
        // lint:allow(L005): seconds > BASE here, so log2 >= 0 and the
        // floor is a non-negative integer (saturating for an infinite or
        // overflowing delay), clamped below BUCKETS
        let i = ((seconds / Self::BASE).log2().floor() as usize).saturating_add(1);
        i.min(Self::BUCKETS - 1)
    }

    /// Lower edge of bucket `i` in seconds.
    pub fn bucket_low(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            Self::BASE * f64::powi(2.0, i as i32 - 1)
        }
    }

    /// Records one delay sample.
    pub fn record(&mut self, seconds: f64) {
        self.counts[Self::bucket_of(seconds)] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The smallest bucket lower edge `q` such that at least `p` (0..=1)
    /// of the samples fall in buckets at or below it — a conservative
    /// (bucket-resolution) percentile.
    pub fn quantile_low_edge(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // lint:allow(L005): ceil of p.clamp(0,1) * total is within 0..=total
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Self::bucket_low(i);
            }
        }
        Self::bucket_low(Self::BUCKETS - 1)
    }

    /// Median delay, as a bucket lower edge in seconds.
    pub fn p50(&self) -> f64 {
        self.quantile_low_edge(0.5)
    }

    /// 99th-percentile delay, as a bucket lower edge in seconds.
    pub fn p99(&self) -> f64 {
        self.quantile_low_edge(0.99)
    }

    /// 99.9th-percentile delay, as a bucket lower edge in seconds.
    pub fn p999(&self) -> f64 {
        self.quantile_low_edge(0.999)
    }
}

/// Per-flow aggregates maintained by the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowMetrics {
    /// Packets transmitted.
    pub packets: u64,
    /// Bytes transmitted.
    pub bytes: u64,
    /// Packets dropped at the buffer.
    pub drops: u64,
    /// Bytes dropped at the buffer.
    pub drop_bytes: u64,
    /// Histogram of enqueue→departure delays.
    pub delay: DelayHistogram,
}

/// Per-node aggregates maintained by the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeMetrics {
    /// RESTART-NODE selections performed by this node.
    pub dispatches: u64,
    /// Busy-period resets of this node's scheduler.
    pub busy_resets: u64,
    /// Idle↔backlogged transitions.
    pub backlog_transitions: u64,
    /// Current queue depth in packets (leaves only; gauge).
    pub queue_depth: usize,
    /// Current queue depth in bytes (leaves only; gauge).
    pub queue_bytes: u64,
    /// High-water mark of the packet queue depth.
    pub queue_depth_max: usize,
    /// High-water mark of the byte queue depth.
    pub queue_bytes_max: u64,
}

/// An [`Observer`] maintaining the full registry. O(1) (map lookup) per
/// event; render with [`MetricsObserver::report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsObserver {
    flows: BTreeMap<u32, FlowMetrics>,
    nodes: BTreeMap<usize, NodeMetrics>,
    /// Total packets transmitted on the link.
    pub tx_packets: u64,
    /// Total bytes transmitted on the link.
    pub tx_bytes: u64,
}

impl MetricsObserver {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metrics for `flow` (zeroes if never seen).
    pub fn flow(&self, flow: u32) -> FlowMetrics {
        self.flows.get(&flow).cloned().unwrap_or_default()
    }

    /// Metrics for node index `node` (zeroes if never seen).
    pub fn node(&self, node: usize) -> NodeMetrics {
        self.nodes.get(&node).cloned().unwrap_or_default()
    }

    /// Renders the registry as a text report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "link: {} packets, {} bytes transmitted",
            self.tx_packets, self.tx_bytes
        );
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>12} {:>8} {:>12} {:>12} {:>12}",
            "flow", "packets", "bytes", "drops", "p50_delay", "p99_delay", "max_bucket"
        );
        for (&flow, m) in &self.flows {
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>12} {:>8} {:>12.6} {:>12.6} {:>12.6}",
                flow,
                m.packets,
                m.bytes,
                m.drops,
                m.delay.quantile_low_edge(0.5),
                m.delay.quantile_low_edge(0.99),
                m.delay.quantile_low_edge(1.0),
            );
        }
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>8} {:>10} {:>12} {:>10} {:>12}",
            "node", "dispatch", "resets", "trans", "depth", "bytes", "depth_max", "bytes_max"
        );
        for (&node, m) in &self.nodes {
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>10} {:>8} {:>10} {:>12} {:>10} {:>12}",
                node,
                m.dispatches,
                m.busy_resets,
                m.backlog_transitions,
                m.queue_depth,
                m.queue_bytes,
                m.queue_depth_max,
                m.queue_bytes_max,
            );
        }
        out
    }

    /// Renders the registry as one JSON object (same data as
    /// [`MetricsObserver::report`], machine-readable):
    /// `{"link":{…},"flows":[…],"nodes":[…]}`. Uses only `std::fmt` —
    /// floats print with shortest-round-trip `Display`, like the JSONL
    /// trace format.
    pub fn report_json(&self) -> String {
        let mut out = format!(
            "{{\"link\":{{\"tx_packets\":{},\"tx_bytes\":{}}},\"flows\":[",
            self.tx_packets, self.tx_bytes
        );
        for (i, (&flow, m)) in self.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"flow\":{},\"packets\":{},\"bytes\":{},\"drops\":{},\"drop_bytes\":{},\"p50_delay\":{},\"p99_delay\":{},\"p999_delay\":{}}}",
                flow,
                m.packets,
                m.bytes,
                m.drops,
                m.drop_bytes,
                m.delay.p50(),
                m.delay.p99(),
                m.delay.p999()
            );
        }
        out.push_str("],\"nodes\":[");
        for (i, (&node, m)) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":{},\"dispatches\":{},\"busy_resets\":{},\"backlog_transitions\":{},\"queue_depth\":{},\"queue_bytes\":{},\"queue_depth_max\":{},\"queue_bytes_max\":{}}}",
                node,
                m.dispatches,
                m.busy_resets,
                m.backlog_transitions,
                m.queue_depth,
                m.queue_bytes,
                m.queue_depth_max,
                m.queue_bytes_max
            );
        }
        out.push_str("]}");
        out
    }
}

impl Observer for MetricsObserver {
    fn on_enqueue(&mut self, e: &EnqueueEvent) {
        let n = self.nodes.entry(e.leaf).or_default();
        n.queue_depth = e.queue_depth;
        n.queue_bytes = e.queue_bytes;
        n.queue_depth_max = n.queue_depth_max.max(e.queue_depth);
        n.queue_bytes_max = n.queue_bytes_max.max(e.queue_bytes);
    }

    fn on_drop(&mut self, e: &DropEvent) {
        let f = self.flows.entry(e.pkt.flow).or_default();
        f.drops += 1;
        f.drop_bytes += u64::from(e.pkt.len_bytes);
    }

    fn on_dispatch(&mut self, e: &DispatchEvent) {
        self.nodes.entry(e.node).or_default().dispatches += 1;
    }

    fn on_tx_complete(&mut self, e: &TxEvent) {
        let f = self.flows.entry(e.pkt.flow).or_default();
        f.packets += 1;
        f.bytes += u64::from(e.pkt.len_bytes);
        f.delay.record(e.time - e.pkt.arrival);
        self.tx_packets += 1;
        self.tx_bytes += u64::from(e.pkt.len_bytes);
        let n = self.nodes.entry(e.leaf).or_default();
        n.queue_depth = n.queue_depth.saturating_sub(1);
        n.queue_bytes = n.queue_bytes.saturating_sub(u64::from(e.pkt.len_bytes));
    }

    fn on_node_backlog(&mut self, e: &BacklogEvent) {
        self.nodes.entry(e.node).or_default().backlog_transitions += 1;
    }

    fn on_busy_reset(&mut self, e: &BusyResetEvent) {
        self.nodes.entry(e.node).or_default().busy_resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketInfo;

    #[test]
    fn histogram_bucket_edges() {
        // Bucket 0: [0, 1µs); bucket 1: [1µs, 2µs); bucket 2: [2µs, 4µs)…
        assert_eq!(DelayHistogram::bucket_of(0.0), 0);
        assert_eq!(DelayHistogram::bucket_of(0.9999e-6), 0);
        assert_eq!(DelayHistogram::bucket_of(1.5e-6), 1);
        assert_eq!(DelayHistogram::bucket_of(2.1e-6), 2);
        assert_eq!(DelayHistogram::bucket_of(3.9e-6), 2);
        assert_eq!(DelayHistogram::bucket_of(4.1e-6), 3);
        // 1 ms = 1000 µs ∈ [512µs, 1024µs) = bucket 10.
        assert_eq!(DelayHistogram::bucket_of(1e-3), 10);
        assert_eq!(DelayHistogram::bucket_low(10), 512e-6);
        // Everything huge lands in the last bucket, infinity and delays
        // whose ratio to BASE overflows included.
        for huge in [1e9, 1e308, f64::INFINITY] {
            assert_eq!(DelayHistogram::bucket_of(huge), DelayHistogram::BUCKETS - 1);
        }
        // Edges are consistent: low(bucket_of(x)) <= x for x >= BASE.
        for i in 1..DelayHistogram::BUCKETS {
            let lo = DelayHistogram::bucket_low(i);
            assert_eq!(
                DelayHistogram::bucket_of(lo * 1.0001),
                i.min(DelayHistogram::BUCKETS - 1)
            );
        }
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = DelayHistogram::default();
        for _ in 0..99 {
            h.record(1e-3); // bucket 10
        }
        h.record(1.0); // bucket 20
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile_low_edge(0.5), DelayHistogram::bucket_low(10));
        assert_eq!(h.quantile_low_edge(0.99), DelayHistogram::bucket_low(10));
        assert_eq!(h.quantile_low_edge(1.0), DelayHistogram::bucket_low(20));
    }

    #[test]
    fn registry_tracks_flows_nodes_and_gauges() {
        let mut m = MetricsObserver::new();
        let pkt = PacketInfo {
            id: 1,
            flow: 3,
            len_bytes: 1000,
            arrival: 0.0,
        };
        m.on_enqueue(&EnqueueEvent {
            time: 0.0,
            link: 0,
            leaf: 2,
            pkt,
            queue_depth: 1,
            queue_bytes: 1000,
        });
        m.on_dispatch(&DispatchEvent {
            time: 0.0,
            link: 0,
            node: 0,
            session: 0,
            child: 2,
            start_tag: 0.0,
            finish_tag: 1.0,
            phi: 1.0,
            v_before: 0.0,
            v_after: 1.0,
            head_bits: 8000.0,
            node_rate: 8000.0,
            policy: "wf2q+",
        });
        m.on_tx_complete(&TxEvent {
            time: 1.0,
            link: 0,
            leaf: 2,
            pkt,
        });
        m.on_drop(&DropEvent {
            time: 1.0,
            link: 0,
            leaf: 2,
            pkt: PacketInfo { id: 2, ..pkt },
            queue_bytes: 0,
        });
        assert_eq!(m.flow(3).packets, 1);
        assert_eq!(m.flow(3).bytes, 1000);
        assert_eq!(m.flow(3).drops, 1);
        assert_eq!(m.flow(3).drop_bytes, 1000);
        assert_eq!(m.node(0).dispatches, 1);
        assert_eq!(m.node(2).queue_depth, 0);
        assert_eq!(m.node(2).queue_depth_max, 1);
        assert_eq!(m.tx_bytes, 1000);
        let report = m.report();
        assert!(report.contains("link: 1 packets"));
        let json = m.report_json();
        assert!(json.starts_with("{\"link\":{\"tx_packets\":1,\"tx_bytes\":1000}"));
        assert!(json.contains("\"flow\":3,\"packets\":1"), "{json}");
        assert!(json.contains("\"node\":0,\"dispatches\":1"), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn named_quantile_accessors_match_low_edges() {
        let mut h = DelayHistogram::new();
        for _ in 0..999 {
            h.record(1e-3);
        }
        h.record(1.0);
        assert_eq!(h.p50(), DelayHistogram::bucket_low(10));
        assert_eq!(h.p99(), DelayHistogram::bucket_low(10));
        assert_eq!(h.p999(), DelayHistogram::bucket_low(10));
        assert_eq!(h.quantile_low_edge(1.0), DelayHistogram::bucket_low(20));
        assert_eq!(DelayHistogram::new().p999(), 0.0);
    }
}
