//! Measurement infrastructure: per-packet service records, per-flow
//! aggregates, and the windowed exponential bandwidth average of paper
//! §5.2.

use std::collections::BTreeMap;

use hpfq_core::Packet;

use crate::flow_map::FlowMap;

/// One transmitted packet, as recorded by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRecord {
    /// Packet id.
    pub id: u64,
    /// Flow the packet belongs to.
    pub flow: u32,
    /// Length in bytes.
    pub len_bytes: u32,
    /// Arrival time at the server.
    pub arrival: f64,
    /// Time transmission began.
    pub start: f64,
    /// Time transmission finished (departure time).
    pub end: f64,
}

impl ServiceRecord {
    /// Queueing delay: departure minus arrival (the paper's Fig. 4–7
    /// metric).
    pub fn delay(&self) -> f64 {
        self.end - self.arrival
    }
}

/// Aggregate statistics for one flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowStats {
    /// Packets transmitted.
    pub packets: u64,
    /// Bytes transmitted.
    pub bytes: u64,
    /// Packets dropped at the buffer.
    pub drops: u64,
    /// Bytes dropped at the buffer.
    pub drop_bytes: u64,
    /// Packets offered by the source (accepted + dropped).
    pub offered_packets: u64,
    /// Bytes offered by the source (accepted + dropped).
    pub offered_bytes: u64,
    /// Packets accepted into the hierarchy (offered − all drops).
    pub accepted_packets: u64,
    /// Bytes accepted into the hierarchy.
    pub accepted_bytes: u64,
    /// Packets refused at admission as invalid, or because their leaf was
    /// gone (distinct from buffer `drops`).
    pub fault_drops: u64,
    /// Bytes of the `fault_drops` packets.
    pub fault_drop_bytes: u64,
    /// Packets purged from the queue when the flow was removed (accepted
    /// but never served).
    pub purged_packets: u64,
    /// Bytes purged on removal.
    pub purged_bytes: u64,
    /// Sum of per-packet delays (seconds).
    pub delay_sum: f64,
    /// Maximum per-packet delay.
    pub delay_max: f64,
    /// Departure time of the last packet.
    pub last_departure: f64,
}

/// What the packet path writes of a flow's [`FlowStats`]: one entry per
/// flow seen, touched two or three times per packet.
#[derive(Debug, Clone, Default)]
struct HotStats {
    offered_packets: u64,
    offered_bytes: u64,
    accepted_packets: u64,
    accepted_bytes: u64,
    packets: u64,
    bytes: u64,
    delay_sum: f64,
    delay_max: f64,
    last_departure: f64,
}

impl HotStats {
    fn offer(&mut self, pkt: &Packet) {
        self.offered_packets += 1;
        self.offered_bytes += u64::from(pkt.len_bytes);
    }

    fn accept(&mut self, pkt: &Packet) {
        self.accepted_packets += 1;
        self.accepted_bytes += u64::from(pkt.len_bytes);
    }

    fn serve(&mut self, rec: &ServiceRecord) {
        self.packets += 1;
        self.bytes += u64::from(rec.len_bytes);
        let d = rec.delay();
        self.delay_sum += d;
        if d > self.delay_max {
            self.delay_max = d;
        }
        self.last_departure = rec.end;
    }
}

/// What only a loss writes of a flow's [`FlowStats`]: an entry exists
/// only for a flow that has lost a packet.
#[derive(Debug, Clone, Default, PartialEq)]
struct ColdStats {
    drops: u64,
    drop_bytes: u64,
    fault_drops: u64,
    fault_drop_bytes: u64,
    purged_packets: u64,
    purged_bytes: u64,
}

/// The two stored halves as the one public value.
fn assemble(hot: &HotStats, cold: Option<&ColdStats>) -> FlowStats {
    let none = ColdStats::default();
    let cold = cold.unwrap_or(&none);
    FlowStats {
        packets: hot.packets,
        bytes: hot.bytes,
        drops: cold.drops,
        drop_bytes: cold.drop_bytes,
        offered_packets: hot.offered_packets,
        offered_bytes: hot.offered_bytes,
        accepted_packets: hot.accepted_packets,
        accepted_bytes: hot.accepted_bytes,
        fault_drops: cold.fault_drops,
        fault_drop_bytes: cold.fault_drop_bytes,
        purged_packets: cold.purged_packets,
        purged_bytes: cold.purged_bytes,
        delay_sum: hot.delay_sum,
        delay_max: hot.delay_max,
        last_departure: hot.last_departure,
    }
}

/// Collected simulation statistics.
///
/// Aggregates are always maintained; full per-packet [`ServiceRecord`]s are
/// kept only for flows registered with [`SimStats::trace_flow`] (traces for
/// a long run over every flow would dominate memory).
///
/// A flow's aggregates are stored in two parts and read as one
/// [`FlowStats`]: the counters every packet writes, and the loss counters,
/// which most flows of most runs never touch and so never store.
#[derive(Debug, Default)]
pub struct SimStats {
    /// One entry per flow seen — the flow list. Whatever writes `cold`
    /// creates the flow's entry here first.
    flows: FlowMap<HotStats>,
    cold: FlowMap<ColdStats>,
    /// Empty in most runs, which is checked before any lookup: the packet
    /// path pays for tracing only when some flow is traced.
    traced: BTreeMap<u32, Vec<ServiceRecord>>,
    /// Total bytes transmitted on the link.
    pub total_bytes: u64,
    /// Total packets transmitted on the link.
    pub total_packets: u64,
    /// Completion time of the last transmission.
    pub last_departure: f64,
}

impl SimStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables per-packet trace capture for `flow`.
    pub fn trace_flow(&mut self, flow: u32) {
        self.traced.entry(flow).or_default();
    }

    /// Sizes the per-flow storage for `flows` flows in total. Entries are
    /// still created on first touch; this only spares a run whose flow
    /// population is known (the network's registered routes) the
    /// re-allocations of growing to it.
    pub fn reserve_flows(&mut self, flows: usize) {
        self.flows.reserve_total(flows);
    }

    fn entry(&mut self, flow: u32) -> &mut HotStats {
        self.flows.get_or_insert_with(flow, HotStats::default)
    }

    /// [`SimStats::entry`] through a storage-slot hint the caller keeps
    /// for the flow ([`FlowMap::get_or_insert_hinted`]: any value is safe,
    /// and the entry is `flow`'s whatever the hint says).
    fn entry_at(&mut self, hint: &mut u32, flow: u32) -> &mut HotStats {
        self.flows
            .get_or_insert_hinted(flow, hint, HotStats::default)
    }

    /// `flow`'s loss counters, the flow listed from now on.
    fn cold_entry(&mut self, flow: u32) -> &mut ColdStats {
        self.entry(flow);
        self.cold.get_or_insert_with(flow, ColdStats::default)
    }

    /// Records a completed transmission.
    pub fn record_service(&mut self, rec: ServiceRecord) {
        self.entry(rec.flow).serve(&rec);
        self.count_service(rec);
    }

    /// [`SimStats::record_service`] through a caller-held slot hint.
    pub(crate) fn record_service_at(&mut self, hint: &mut u32, rec: ServiceRecord) {
        self.entry_at(hint, rec.flow).serve(&rec);
        self.count_service(rec);
    }

    /// The network-wide half of a service record, and its trace capture.
    fn count_service(&mut self, rec: ServiceRecord) {
        self.total_bytes += u64::from(rec.len_bytes);
        self.total_packets += 1;
        self.last_departure = rec.end;
        if !self.traced.is_empty() {
            if let Some(tr) = self.traced.get_mut(&rec.flow) {
                tr.push(rec);
            }
        }
    }

    /// Records a packet offered by its source (before any buffer check).
    pub fn record_arrival(&mut self, pkt: &Packet) {
        self.entry(pkt.flow).offer(pkt);
    }

    /// [`SimStats::record_arrival`] through a caller-held slot hint.
    pub(crate) fn record_arrival_at(&mut self, hint: &mut u32, pkt: &Packet) {
        self.entry_at(hint, pkt.flow).offer(pkt);
    }

    /// Records a buffer drop of `pkt`, including its size.
    pub fn record_drop(&mut self, pkt: &Packet) {
        let f = self.cold_entry(pkt.flow);
        f.drops += 1;
        f.drop_bytes += u64::from(pkt.len_bytes);
    }

    /// Records a packet accepted into the hierarchy (survived fault
    /// injection, validation, and the buffer check).
    pub fn record_accept(&mut self, pkt: &Packet) {
        self.entry(pkt.flow).accept(pkt);
    }

    /// [`SimStats::record_accept`] through a caller-held slot hint.
    pub(crate) fn record_accept_at(&mut self, hint: &mut u32, pkt: &Packet) {
        self.entry_at(hint, pkt.flow).accept(pkt);
    }

    /// Records a packet refused at admission as invalid, or because its
    /// leaf was gone.
    pub fn record_fault_drop(&mut self, pkt: &Packet) {
        let f = self.cold_entry(pkt.flow);
        f.fault_drops += 1;
        f.fault_drop_bytes += u64::from(pkt.len_bytes);
    }

    /// Records a packet purged from its queue by flow removal.
    pub fn record_purge(&mut self, pkt: &Packet) {
        let f = self.cold_entry(pkt.flow);
        f.purged_packets += 1;
        f.purged_bytes += u64::from(pkt.len_bytes);
    }

    /// Verifies byte/packet conservation across the collector:
    ///
    /// * per flow, `offered == accepted + buffer drops + fault drops`
    ///   (packets and bytes), and
    /// * in aggregate, `accepted == served + purged + queued_bytes`
    ///   (bytes; `queued_bytes` is whatever the caller still holds in
    ///   queues, including an in-flight packet).
    ///
    /// Returns a description of the first imbalance found.
    pub fn accounting_balanced(&self, queued_bytes: u64) -> Result<(), String> {
        let mut accepted = 0u64;
        let mut served = 0u64;
        let mut purged = 0u64;
        for (flow, f) in self.assembled() {
            if f.offered_packets != f.accepted_packets + f.drops + f.fault_drops {
                return Err(format!(
                    "flow {flow}: offered {} pkts != accepted {} + dropped {} + fault-dropped {}",
                    f.offered_packets, f.accepted_packets, f.drops, f.fault_drops
                ));
            }
            if f.offered_bytes != f.accepted_bytes + f.drop_bytes + f.fault_drop_bytes {
                return Err(format!(
                    "flow {flow}: offered {} B != accepted {} + dropped {} + fault-dropped {} B",
                    f.offered_bytes, f.accepted_bytes, f.drop_bytes, f.fault_drop_bytes
                ));
            }
            accepted += f.accepted_bytes;
            served += f.bytes;
            purged += f.purged_bytes;
        }
        if accepted != served + purged + queued_bytes {
            return Err(format!(
                "accepted {accepted} B != served {served} + purged {purged} + queued {queued_bytes} B"
            ));
        }
        Ok(())
    }

    /// Aggregates for `flow` (zeroes if it never sent).
    pub fn flow(&self, flow: u32) -> FlowStats {
        self.flows
            .get(flow)
            .map(|hot| assemble(hot, self.cold.get(flow)))
            .unwrap_or_default()
    }

    /// Every flow's aggregates, in ascending flow order.
    fn assembled(&self) -> impl Iterator<Item = (u32, FlowStats)> + '_ {
        self.flows
            .sorted()
            .into_iter()
            .map(|(flow, hot)| (flow, assemble(hot, self.cold.get(flow))))
    }

    /// The captured trace for a flow registered via
    /// [`SimStats::trace_flow`].
    pub fn trace(&self, flow: u32) -> &[ServiceRecord] {
        self.traced.get(&flow).map_or(&[], |v| v.as_slice())
    }

    /// All flows seen, sorted by id.
    pub fn flows(&self) -> Vec<u32> {
        self.flows.keys()
    }
}

/// The paper's §5.2 bandwidth measurement: throughput is accumulated in
/// fixed windows (50 ms in the paper) and smoothed with an exponential
/// average across windows.
#[derive(Debug, Clone)]
pub struct BandwidthEstimator {
    window: f64,
    alpha: f64,
    origin: f64,
    /// Bytes accumulated in the currently open window.
    acc_bytes: f64,
    /// Index of the currently open window.
    cur_window: u64,
    ema_bps: f64,
    /// `(window end time, smoothed bits/s)` samples.
    samples: Vec<(f64, f64)>,
}

impl BandwidthEstimator {
    /// Creates an estimator with the given window length (the paper uses
    /// 50 ms) and smoothing factor `alpha` (weight of the newest window).
    pub fn new(origin: f64, window: f64, alpha: f64) -> Self {
        assert!(window > 0.0 && (0.0..=1.0).contains(&alpha));
        BandwidthEstimator {
            window,
            alpha,
            origin,
            acc_bytes: 0.0,
            cur_window: 0,
            ema_bps: 0.0,
            samples: Vec::new(),
        }
    }

    /// Accounts `bytes` delivered at time `t` (must be non-decreasing).
    pub fn add(&mut self, t: f64, bytes: u64) {
        self.roll_to(t);
        self.acc_bytes += bytes as f64;
    }

    /// Closes every window ending at or before `t`.
    fn roll_to(&mut self, t: f64) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "floor().max(0.0) is a non-negative window count, far below u64::MAX for \
                      any simulated horizon"
        )]
        let target = ((t - self.origin) / self.window).floor().max(0.0) as u64;
        while self.cur_window < target {
            let inst = self.acc_bytes * 8.0 / self.window;
            self.ema_bps = self.alpha * inst + (1.0 - self.alpha) * self.ema_bps;
            self.cur_window += 1;
            self.samples.push((
                self.origin + self.cur_window as f64 * self.window,
                self.ema_bps,
            ));
            self.acc_bytes = 0.0;
        }
    }

    /// Flushes windows up to `t` and returns the sample series
    /// `(window end, smoothed bits/s)`.
    pub fn finish(mut self, t: f64) -> Vec<(f64, f64)> {
        self.roll_to(t);
        self.samples
    }

    /// The samples collected so far.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_traces() {
        let mut s = SimStats::new();
        s.trace_flow(7);
        s.record_service(ServiceRecord {
            id: 1,
            flow: 7,
            len_bytes: 100,
            arrival: 0.0,
            start: 0.5,
            end: 1.0,
        });
        s.record_service(ServiceRecord {
            id: 2,
            flow: 8,
            len_bytes: 200,
            arrival: 0.0,
            start: 1.0,
            end: 3.0,
        });
        let dropped = Packet::new(3, 8, 300, 3.5);
        s.record_arrival(&dropped);
        s.record_drop(&dropped);
        assert_eq!(s.flow(7).packets, 1);
        assert_eq!(s.flow(7).delay_max, 1.0);
        assert_eq!(s.flow(8).drops, 1);
        assert_eq!(s.flow(8).drop_bytes, 300);
        assert_eq!(s.flow(8).offered_bytes, 300);
        assert_eq!(s.flow(8).delay_max, 3.0);
        assert_eq!(s.trace(7).len(), 1);
        assert_eq!(s.trace(8).len(), 0); // not traced
        assert_eq!(s.total_bytes, 300);
        assert_eq!(s.flows(), vec![7, 8]);
    }

    #[test]
    fn accounting_balance_detects_leaks() {
        let mut s = SimStats::new();
        let p1 = Packet::new(1, 7, 100, 0.0);
        let p2 = Packet::new(2, 7, 200, 1.0);
        let p3 = Packet::new(3, 7, 300, 2.0);
        s.record_arrival(&p1);
        s.record_arrival(&p2);
        s.record_arrival(&p3);
        s.record_accept(&p1);
        s.record_accept(&p2);
        s.record_drop(&p3);
        s.record_service(ServiceRecord {
            id: 1,
            flow: 7,
            len_bytes: 100,
            arrival: 0.0,
            start: 0.0,
            end: 0.5,
        });
        // p2 accepted but unserved: balanced only if reported as queued.
        assert!(s.accounting_balanced(200).is_ok());
        assert!(s.accounting_balanced(0).is_err());
        // A purge moves p2 out of the queue but keeps the books straight.
        s.record_purge(&p2);
        assert!(s.accounting_balanced(0).is_ok());
        // An arrival that is neither accepted nor dropped is a leak.
        s.record_arrival(&Packet::new(4, 7, 400, 3.0));
        assert!(s.accounting_balanced(0).is_err());
    }

    /// A collector beside the thing it must be indistinguishable from: one
    /// whole [`FlowStats`] per flow, created by whatever touches it first.
    #[derive(Default)]
    struct Modelled {
        stats: SimStats,
        model: BTreeMap<u32, FlowStats>,
    }

    #[derive(Clone, Copy)]
    enum Rec {
        Arrival,
        Accept,
        Drop,
        FaultDrop,
        Purge,
    }

    impl Modelled {
        /// One `record_*` for `pkt`; through `hint` where the method has a
        /// hinted form and one is given.
        fn packet(&mut self, rec: Rec, pkt: &Packet, hint: Option<&mut u32>) {
            let len = u64::from(pkt.len_bytes);
            let f = self.model.entry(pkt.flow).or_default();
            match rec {
                Rec::Arrival => {
                    match hint {
                        Some(h) => self.stats.record_arrival_at(h, pkt),
                        None => self.stats.record_arrival(pkt),
                    }
                    f.offered_packets += 1;
                    f.offered_bytes += len;
                }
                Rec::Accept => {
                    match hint {
                        Some(h) => self.stats.record_accept_at(h, pkt),
                        None => self.stats.record_accept(pkt),
                    }
                    f.accepted_packets += 1;
                    f.accepted_bytes += len;
                }
                Rec::Drop => {
                    self.stats.record_drop(pkt);
                    f.drops += 1;
                    f.drop_bytes += len;
                }
                Rec::FaultDrop => {
                    self.stats.record_fault_drop(pkt);
                    f.fault_drops += 1;
                    f.fault_drop_bytes += len;
                }
                Rec::Purge => {
                    self.stats.record_purge(pkt);
                    f.purged_packets += 1;
                    f.purged_bytes += len;
                }
            }
        }

        fn service(&mut self, rec: ServiceRecord, hint: Option<&mut u32>) {
            match hint {
                Some(h) => self.stats.record_service_at(h, rec),
                None => self.stats.record_service(rec),
            }
            let f = self.model.entry(rec.flow).or_default();
            f.packets += 1;
            f.bytes += u64::from(rec.len_bytes);
            f.delay_sum += rec.delay();
            f.delay_max = f.delay_max.max(rec.delay());
            f.last_departure = rec.end;
        }

        /// Accepted bytes of `flow` neither served nor purged.
        fn backlog(&self, flow: u32) -> u64 {
            self.model.get(&flow).map_or(0, |f| {
                f.accepted_bytes.saturating_sub(f.bytes + f.purged_bytes)
            })
        }

        /// `accounting_balanced`, worked out from the model.
        fn model_balances(&self, queued: u64) -> bool {
            let per_flow = self.model.values().all(|f| {
                f.offered_packets == f.accepted_packets + f.drops + f.fault_drops
                    && f.offered_bytes == f.accepted_bytes + f.drop_bytes + f.fault_drop_bytes
            });
            let sum = |get: fn(&FlowStats) -> u64| self.model.values().map(get).sum::<u64>();
            per_flow
                && sum(|f| f.accepted_bytes) == sum(|f| f.bytes) + sum(|f| f.purged_bytes) + queued
        }

        fn check(&self, pool: &[u32], label: &str) {
            assert_eq!(
                self.stats.flows(),
                self.model.keys().copied().collect::<Vec<_>>(),
                "{label}"
            );
            for &flow in pool {
                let want = self.model.get(&flow).cloned().unwrap_or_default();
                assert_eq!(self.stats.flow(flow), want, "{label}: flow {flow}");
            }
            let queued: u64 = pool.iter().map(|&f| self.backlog(f)).sum();
            for queued in [queued, queued + 1] {
                assert_eq!(
                    self.stats.accounting_balanced(queued).is_ok(),
                    self.model_balances(queued),
                    "{label}: {queued} B queued"
                );
            }
        }
    }

    /// Hot and cold halves, caller-held hints and all, are not observable:
    /// under random traffic — hinted and un-hinted records interleaved, the
    /// hint cells handed to whichever flow comes next — every view equals
    /// the one-struct-per-flow model's.
    #[test]
    fn split_storage_is_indistinguishable_from_one_record_per_flow() {
        use crate::rng::SmallRng;
        for case in 0..if cfg!(miri) { 3 } else { 48u64 } {
            let mut rng = SmallRng::seed_from_u64(0x57a7_0000 + case);
            let mut pool: Vec<u32> = (0..8).collect();
            pool.extend([u32::MAX, 1 << 31, rng.gen_range_u32(8, u32::MAX)]);
            // Fewer cells than flows, starting anywhere: every hint is
            // wrong for most of the flows it is used for.
            let mut hints = [0, u32::MAX, 3, 1_000_000];
            let (mut a, mut b) = (Modelled::default(), Modelled::default());
            // Listed from a loss alone.
            a.packet(Rec::Purge, &Packet::new(0, pool[0], 40, 0.0), None);
            a.packet(Rec::Accept, &Packet::new(0, pool[0], 40, 0.0), None);
            a.packet(Rec::Arrival, &Packet::new(0, pool[0], 40, 0.0), None);
            b.packet(Rec::Drop, &Packet::new(0, pool[1], 40, 0.0), None);
            b.packet(Rec::Arrival, &Packet::new(0, pool[1], 40, 0.0), None);
            for step in 0..rng.gen_range_usize(1, if cfg!(miri) { 60 } else { 400 }) as u64 {
                let label = format!("case {case} step {step}");
                let flow = pool[rng.gen_range_usize(0, pool.len())];
                let pkt = Packet::new(step, flow, rng.gen_range_u32(40, 1500), step as f64);
                let side = if rng.gen_bool(0.5) { &mut a } else { &mut b };
                let mut hint = rng
                    .gen_bool(0.6)
                    .then(|| &mut hints[rng.gen_range_usize(0, 4)]);
                match rng.gen_range_u32(0, 14) {
                    0..=5 => {
                        side.packet(Rec::Arrival, &pkt, hint.as_deref_mut());
                        side.packet(Rec::Accept, &pkt, hint);
                    }
                    6 => {
                        side.packet(Rec::Arrival, &pkt, hint);
                        side.packet(Rec::Drop, &pkt, None);
                    }
                    7 => {
                        side.packet(Rec::Arrival, &pkt, hint);
                        side.packet(Rec::FaultDrop, &pkt, None);
                    }
                    8..=12 => {
                        // Serve (mostly) or purge the flow's whole backlog
                        // as one packet, keeping the books balanced.
                        let Ok(len @ 1..) = u32::try_from(side.backlog(flow)) else {
                            continue;
                        };
                        if rng.gen_bool(0.8) {
                            let rec = ServiceRecord {
                                id: step,
                                flow,
                                len_bytes: len,
                                arrival: rng.gen_f64() * step as f64,
                                start: step as f64,
                                end: step as f64 + 0.5,
                            };
                            side.service(rec, hint);
                        } else {
                            side.packet(Rec::Purge, &Packet::new(step, flow, len, 0.0), None);
                        }
                    }
                    // A leak: offered and never heard of again.
                    _ => side.packet(Rec::Arrival, &pkt, hint),
                }
                a.check(&pool, &label);
                b.check(&pool, &label);
            }
        }
    }

    #[test]
    fn bandwidth_windows_smooth() {
        // 1-second windows, alpha 0.5; 1000 bytes in each of the first two
        // windows, then nothing.
        let mut b = BandwidthEstimator::new(0.0, 1.0, 0.5);
        b.add(0.2, 500);
        b.add(0.7, 500);
        b.add(1.5, 1000);
        let samples = b.finish(4.0);
        // Window 1 inst = 8000 bps -> ema 4000; window 2 inst 8000 ->
        // ema 6000; windows 3,4 inst 0 -> 3000, 1500.
        assert_eq!(samples.len(), 4);
        assert!((samples[0].1 - 4000.0).abs() < 1e-9);
        assert!((samples[1].1 - 6000.0).abs() < 1e-9);
        assert!((samples[2].1 - 3000.0).abs() < 1e-9);
        assert!((samples[3].1 - 1500.0).abs() < 1e-9);
        assert!((samples[3].0 - 4.0).abs() < 1e-12);
    }
}
