//! The per-packet / per-wake faults, as a [`Source`] adapter.
//!
//! [`ChaosSource`] wraps one flow's source and applies three of the five
//! fault families to its output before the network sees it: correlated
//! drops (Gilbert–Elliott; a dropped packet is never emitted), packet
//! corruption (a mangled packet, which the network's
//! [`hpfq_core::Packet::validate`] drops and counts) and clock jitter (a
//! wake moved early or late). (Link faults and churn are control-plane
//! events — see [`crate::plan`].)
//!
//! # Scheduler independence
//!
//! Differential soaks run the *same* fault schedule against every
//! scheduler. An adapter holds its own flow's RNG streams, advanced only
//! by that flow's packets and wakes. With open-loop sources a flow's
//! packet/wake order is a function of the source alone, so every
//! scheduler sees byte-identical fault decisions — regardless of how it
//! interleaves flows on the link.

use hpfq_core::Packet;
use hpfq_sim::{SmallRng, Source, SourceOutput};

use crate::config::{corrupt, drops, jitter, ChaosConfig};

/// `inner` with `cfg`'s data-plane faults applied to what it emits.
#[derive(Debug, Clone)]
pub struct ChaosSource<S: Source> {
    inner: S,
    cfg: ChaosConfig,
    /// When the network starts `inner`: [`Source::start`] is not told.
    start: f64,
    /// Packets and wakes advance separate streams.
    pkt_rng: SmallRng,
    wake_rng: SmallRng,
    /// The Gilbert–Elliott channel state.
    in_burst: bool,
}

impl<S: Source> ChaosSource<S> {
    /// `inner`, the source of `flow`, under `cfg`'s faults. `start` is the
    /// time the network starts it: 0 for a source attached before the run,
    /// the command's time for one a [`hpfq_sim::SimCommand::AddFlow`]
    /// attaches. All decisions derive from `cfg.seed` and `flow`.
    pub fn new(cfg: ChaosConfig, flow: u32, start: f64, inner: S) -> Self {
        let seed = cfg.seed ^ (u64::from(flow) << 20);
        ChaosSource {
            inner,
            cfg,
            start,
            // Distinct, flow-keyed streams; the odd constants keep packet
            // and wake streams uncorrelated with each other and with the
            // planner's stream.
            pkt_rng: SmallRng::seed_from_u64(seed ^ 0x9E37),
            wake_rng: SmallRng::seed_from_u64(seed ^ 0xC2B2),
            in_burst: false,
        }
    }

    /// `out`, emitted at `now`, with its packets dropped or corrupted and
    /// its wakes jittered.
    fn faulty(&mut self, now: f64, out: SourceOutput) -> SourceOutput {
        SourceOutput {
            packets: out
                .packets
                .into_iter()
                .filter_map(|pkt| self.packet(now, pkt))
                .collect(),
            wakes: out.wakes.into_iter().map(|w| self.wake(now, w)).collect(),
        }
    }

    /// `pkt`, possibly corrupted, or `None` when it is lost.
    fn packet(&mut self, now: f64, mut pkt: Packet) -> Option<Packet> {
        // The stream advances for every packet — even in the quiet tail —
        // so the decision sequence depends only on the flow's packet
        // index, never on timing.
        let r_state = self.pkt_rng.gen_f64();
        let r_drop = self.pkt_rng.gen_f64();
        let r_corrupt = self.pkt_rng.gen_f64();
        let r_mode = self.pkt_rng.gen_range_u64(0, 4);
        if !self.cfg.faults || now >= self.cfg.quiet_from() {
            return Some(pkt);
        }
        if self.in_burst {
            if r_state < drops::P_BURST_TO_GOOD {
                self.in_burst = false;
            }
        } else if r_state < drops::P_GOOD_TO_BURST {
            self.in_burst = true;
        }
        let p = if self.in_burst {
            drops::P_DROP_BURST
        } else {
            drops::P_DROP_GOOD
        };
        if r_drop < p {
            return None;
        }
        if r_corrupt < corrupt::PROB {
            // Each mode mangles a field the network keeps as emitted: it
            // stamps `arrival` on admission, so that one would heal.
            match r_mode {
                0 => pkt.len_bytes = 0,
                1 => pkt.len_bytes = u32::MAX,
                2 => pkt.birth = f64::NAN,
                _ => pkt.birth = f64::INFINITY,
            }
        }
        Some(pkt)
    }

    /// The wake the inner source asked for at `now`, possibly jittered.
    fn wake(&mut self, now: f64, wake: f64) -> f64 {
        let r = self.wake_rng.gen_f64();
        let off = self
            .wake_rng
            .gen_range_f64(-jitter::MAX_OFFSET, jitter::MAX_OFFSET);
        if !self.cfg.faults || now >= self.cfg.quiet_from() || r >= jitter::PROB {
            return wake;
        }
        wake + off
    }
}

impl<S: Source> Source for ChaosSource<S> {
    fn start(&mut self) -> SourceOutput {
        let out = self.inner.start();
        self.faulty(self.start, out)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        let out = self.inner.on_wake(now);
        self.faulty(now, out)
    }

    fn on_delivered(&mut self, now: f64, pkt: &Packet) -> SourceOutput {
        let out = self.inner.on_delivered(now, pkt);
        self.faulty(now, out)
    }

    fn wants_delivery(&self) -> bool {
        self.inner.wants_delivery()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfq_sim::CbrSource;

    /// Flow `flow`'s 1000-byte packets, one every 10 ms from `start` on,
    /// under `cfg`.
    fn cbr(cfg: ChaosConfig, flow: u32, start: f64) -> ChaosSource<CbrSource> {
        let inner = CbrSource::new(flow, 1000, 0.8e6, start, f64::INFINITY);
        ChaosSource::new(cfg, flow, start, inner)
    }

    /// What one source emitted: each packet with the time it was emitted,
    /// and each wake it asked for.
    type Emitted = (Vec<(f64, Packet)>, Vec<f64>);

    /// `srcs` driven in step, in order, for `n` wakes each, as the network
    /// drives them: each wake at the time asked for, clamped to the clock.
    fn drive(mut srcs: Vec<ChaosSource<CbrSource>>, n: usize) -> Vec<Emitted> {
        let mut runs: Vec<_> = srcs
            .iter_mut()
            .map(|s| (s.start, s.start(), Emitted::default()))
            .collect();
        for _ in 0..n {
            for (src, (now, out, (pkts, wakes))) in srcs.iter_mut().zip(&mut runs) {
                wakes.extend(out.wakes.iter().copied());
                *now = out.wakes[0].max(*now);
                *out = src.on_wake(*now);
                pkts.extend(out.packets.iter().map(|&p| (*now, p)));
            }
        }
        runs.into_iter().map(|(_, _, emitted)| emitted).collect()
    }

    /// Each packet's fields, bit for bit.
    fn fields(pkts: &[(f64, Packet)]) -> Vec<(u64, u32, u32, u64, u64)> {
        pkts.iter()
            .map(|(_, p)| {
                (
                    p.id,
                    p.flow,
                    p.len_bytes,
                    p.birth.to_bits(),
                    p.arrival.to_bits(),
                )
            })
            .collect()
    }

    /// `pkt` as the network admits it: stamped with its emission time.
    fn admitted(now: f64, mut pkt: Packet) -> Packet {
        pkt.arrival = now;
        pkt
    }

    #[test]
    fn decisions_reproduce_from_seed() {
        let run = |seed| {
            let (pkts, wakes) =
                drive(vec![cbr(ChaosConfig::all_faults(seed, 30.0), 3, 0.0)], 2000).remove(0);
            let wakes: Vec<u64> = wakes.iter().map(|w| w.to_bits()).collect();
            (fields(&pkts), wakes)
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8), "different seeds should differ somewhere");
        assert!(a.0.len() < 2000, "nothing was dropped");
    }

    #[test]
    fn per_flow_streams_are_independent_of_interleaving() {
        // A flow's decisions are a function of its own packet index: driven
        // alone it loses and mangles the same packets as when it is driven
        // in step with another flow, whichever of the two goes first.
        let cfg = ChaosConfig::all_faults(11, 30.0);
        let alone = |flow| fields(&drive(vec![cbr(cfg, flow, 0.0)], 500)[0].0);
        let both = drive(vec![cbr(cfg, 2, 0.0), cbr(cfg, 1, 0.0)], 500);
        assert_eq!(fields(&both[1].0), alone(1));
        assert_eq!(fields(&both[0].0), alone(2));
        assert_ne!(alone(1), alone(2), "flows share a stream");
    }

    #[test]
    fn corruption_always_fails_validation() {
        // The inner source emits 1000-byte packets born when emitted, so a
        // packet that differs in any field was corrupted. Each must fail
        // validation even after the network has stamped its own arrival
        // time on it.
        let (pkts, _) =
            drive(vec![cbr(ChaosConfig::all_faults(3, 1e6), 9, 0.0)], 200_000).remove(0);
        let mut seen = 0;
        for (now, pkt) in pkts {
            if pkt != Packet::new(pkt.id, pkt.flow, 1000, now) {
                let pkt = admitted(now, pkt);
                assert!(
                    pkt.validate().is_err(),
                    "corrupted packet validated: {pkt:?}"
                );
                seen += 1;
            }
        }
        assert!(seen > 50, "corruption rate too low to test ({seen})");
    }

    #[test]
    fn quiet_tail_is_fault_free() {
        // Quiet from t = 7: a source started at 8 emits every packet
        // unchanged and wakes exactly when it asks to.
        let (pkts, wakes) =
            drive(vec![cbr(ChaosConfig::all_faults(5, 10.0), 1, 8.0)], 5000).remove(0);
        let (want_pkts, want_wakes) =
            drive(vec![cbr(ChaosConfig::quiescent(5, 10.0), 1, 8.0)], 5000).remove(0);
        assert_eq!(pkts.len(), 5000);
        assert_eq!(fields(&pkts), fields(&want_pkts));
        assert_eq!(wakes, want_wakes);
        assert!(pkts
            .iter()
            .all(|&(now, p)| admitted(now, p).validate().is_ok()));
    }
}
