//! The per-packet / per-timer fault injector.
//!
//! [`ChaosInjector`] implements [`hpfq_sim::FaultInjector`] with three of
//! the five fault families: correlated drops (Gilbert–Elliott), packet
//! corruption, and clock jitter. (Link faults and churn are control-plane
//! events — see [`crate::plan`].)
//!
//! # Scheduler independence
//!
//! Differential soaks run the *same* fault schedule against every
//! scheduler. The injector therefore keeps an independent RNG stream per
//! flow, advanced only by that flow's own packets and timers. With
//! open-loop sources a flow's packet/timer order is a function of the
//! source alone, so every scheduler sees byte-identical fault decisions —
//! regardless of how it interleaves flows on the link.

use std::collections::BTreeMap;

use hpfq_core::Packet;
use hpfq_sim::{FaultInjector, PacketVerdict, SmallRng};

use crate::config::ChaosConfig;

/// Per-flow injector state: two RNG streams (packets and timers advance
/// independently) and the Gilbert–Elliott channel state.
#[derive(Debug, Clone)]
struct FlowChaos {
    pkt_rng: SmallRng,
    wake_rng: SmallRng,
    in_burst: bool,
}

/// Deterministic, seed-reproducible fault injector.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    cfg: ChaosConfig,
    flows: BTreeMap<u32, FlowChaos>,
    /// Packets dropped by the loss model.
    pub dropped: u64,
    /// Packets corrupted.
    pub corrupted: u64,
    /// Timers jittered.
    pub jittered: u64,
}

impl ChaosInjector {
    /// Builds an injector for `cfg`; all decisions derive from
    /// `cfg.seed`.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosInjector {
            cfg,
            flows: BTreeMap::new(),
            dropped: 0,
            corrupted: 0,
            jittered: 0,
        }
    }

    fn flow_state(&mut self, flow: u32) -> &mut FlowChaos {
        let seed = self.cfg.seed;
        self.flows.entry(flow).or_insert_with(|| FlowChaos {
            // Distinct, flow-keyed streams; the odd constants keep packet
            // and wake streams uncorrelated with each other and with the
            // planner's stream.
            pkt_rng: SmallRng::seed_from_u64(seed ^ (u64::from(flow) << 20) ^ 0x9E37),
            wake_rng: SmallRng::seed_from_u64(seed ^ (u64::from(flow) << 20) ^ 0xC2B2),
            in_burst: false,
        })
    }
}

impl FaultInjector for ChaosInjector {
    fn on_packet(&mut self, now: f64, pkt: &mut Packet) -> PacketVerdict {
        let quiet_from = self.cfg.quiet_from();
        let drops = self.cfg.drops;
        let corrupt = self.cfg.corrupt;
        let st = self.flow_state(pkt.flow);
        // The RNG streams advance for every packet — even in the quiet
        // tail — so the decision sequence depends only on the flow's
        // packet index, never on timing.
        let r_state = st.pkt_rng.gen_f64();
        let r_drop = st.pkt_rng.gen_f64();
        let r_corrupt = st.pkt_rng.gen_f64();
        let r_mode = st.pkt_rng.gen_range_u64(0, 4);
        if now >= quiet_from {
            return PacketVerdict::Pass;
        }
        if drops.enabled {
            if st.in_burst {
                if r_state < drops.p_burst_to_good {
                    st.in_burst = false;
                }
            } else if r_state < drops.p_good_to_burst {
                st.in_burst = true;
            }
            let p = if st.in_burst {
                drops.p_drop_burst
            } else {
                drops.p_drop_good
            };
            if r_drop < p {
                self.dropped += 1;
                return PacketVerdict::Drop;
            }
        }
        if corrupt.enabled && r_corrupt < corrupt.prob {
            match r_mode {
                0 => pkt.len_bytes = 0,
                1 => pkt.len_bytes = u32::MAX,
                2 => pkt.birth = f64::NAN,
                _ => pkt.arrival = f64::INFINITY,
            }
            self.corrupted += 1;
            return PacketVerdict::Corrupted;
        }
        PacketVerdict::Pass
    }

    fn jitter(&mut self, now: f64, flow: u32, wake: f64) -> f64 {
        let quiet_from = self.cfg.quiet_from();
        let jitter = self.cfg.jitter;
        let st = self.flow_state(flow);
        let r = st.wake_rng.gen_f64();
        let off = st
            .wake_rng
            .gen_range_f64(-jitter.max_offset, jitter.max_offset);
        if now >= quiet_from || !jitter.enabled || r >= jitter.prob {
            return wake;
        }
        self.jittered += 1;
        wake + off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_decisions(seed: u64, flow: u32, n: usize) -> Vec<PacketVerdict> {
        let mut inj = ChaosInjector::new(ChaosConfig::all_faults(seed, 30.0));
        (0..n)
            .map(|i| {
                let mut p = Packet::new(i as u64, flow, 1000, 0.1 * i as f64);
                inj.on_packet(0.1 * i as f64, &mut p)
            })
            .collect()
    }

    #[test]
    fn decisions_reproduce_from_seed() {
        let a = run_decisions(7, 3, 2000);
        let b = run_decisions(7, 3, 2000);
        assert_eq!(a, b);
        let c = run_decisions(8, 3, 2000);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn per_flow_streams_are_independent_of_interleaving() {
        // Feed flows 1 and 2 interleaved vs sequentially: each flow's
        // verdict sequence must be identical either way.
        let cfg = ChaosConfig::all_faults(11, 30.0);
        let mut seq = ChaosInjector::new(cfg);
        let mut ver_seq: BTreeMap<u32, Vec<PacketVerdict>> = BTreeMap::new();
        for flow in [1u32, 2] {
            for i in 0..500u64 {
                let mut p = Packet::new(i, flow, 1000, 0.01 * i as f64);
                ver_seq
                    .entry(flow)
                    .or_default()
                    .push(seq.on_packet(0.01 * i as f64, &mut p));
            }
        }
        let mut inter = ChaosInjector::new(cfg);
        let mut ver_inter: BTreeMap<u32, Vec<PacketVerdict>> = BTreeMap::new();
        for i in 0..500u64 {
            for flow in [2u32, 1] {
                let mut p = Packet::new(i, flow, 1000, 0.01 * i as f64);
                ver_inter
                    .entry(flow)
                    .or_default()
                    .push(inter.on_packet(0.01 * i as f64, &mut p));
            }
        }
        assert_eq!(ver_seq, ver_inter);
    }

    #[test]
    fn corruption_always_fails_validation() {
        let mut inj = ChaosInjector::new(ChaosConfig::all_faults(3, 1e6));
        let mut seen = 0;
        for i in 0..200_000u64 {
            let mut p = Packet::new(i, 9, 1000, 0.0);
            if inj.on_packet(0.0, &mut p) == PacketVerdict::Corrupted {
                assert!(p.validate().is_err(), "corrupted packet validated: {p:?}");
                seen += 1;
            }
        }
        assert!(seen > 50, "corruption rate too low to test ({seen})");
    }

    #[test]
    fn quiet_tail_is_fault_free() {
        let cfg = ChaosConfig::all_faults(5, 10.0); // quiet from t=7
        let mut inj = ChaosInjector::new(cfg);
        for i in 0..5000u64 {
            let mut p = Packet::new(i, 1, 1000, 8.0);
            assert_eq!(inj.on_packet(8.0, &mut p), PacketVerdict::Pass);
            assert_eq!(inj.jitter(8.0, 1, 9.0), 9.0);
        }
    }
}
