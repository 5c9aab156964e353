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
use hpfq_obs::snap::{refuse, SnapError, Value};
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

    fn flow_value(flow: u32, st: &FlowChaos) -> Value {
        let rng = |r: &SmallRng| Value::List(r.state().iter().map(|&w| Value::U64(w)).collect());
        Value::map(vec![
            ("flow", Value::U64(u64::from(flow))),
            ("pkt_rng", rng(&st.pkt_rng)),
            ("wake_rng", rng(&st.wake_rng)),
            ("in_burst", Value::Bool(st.in_burst)),
        ])
    }

    /// Refuses a state no injector of this seed saved.
    fn check_origin(&self, state: &Value) -> Result<(), SnapError> {
        let (kind, seed) = (state.get("kind")?.as_str()?, state.get("seed")?.as_u64()?);
        if (kind, seed) != ("chaos", self.cfg.seed) {
            return Err(refuse(format!(
                "a '{kind}' state for seed {seed} does not fit a chaos injector seeded {}",
                self.cfg.seed
            )));
        }
        Ok(())
    }

    fn flow_from_value(v: &Value) -> Result<(u32, FlowChaos), SnapError> {
        let rng = |v: &Value| -> Result<SmallRng, SnapError> {
            let [a, b, c, d] = v.items()? else {
                return Err(refuse("an rng state is not four words"));
            };
            let words = [a.as_u64()?, b.as_u64()?, c.as_u64()?, d.as_u64()?];
            Ok(SmallRng::from_state(words))
        };
        Ok((
            v.get("flow")?.as_u32()?,
            FlowChaos {
                pkt_rng: rng(v.get("pkt_rng")?)?,
                wake_rng: rng(v.get("wake_rng")?)?,
                in_burst: v.get("in_burst")?.as_bool()?,
            },
        ))
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

    /// Serializes the full injector state — per-flow RNG words,
    /// Gilbert–Elliott channel states, fault counters — byte-exactly, so
    /// a snapshot can restore the decision streams mid-run.
    fn save_state(&self) -> Result<Value, SnapError> {
        Ok(Value::map(vec![
            ("kind", Value::Str("chaos".into())),
            ("seed", Value::U64(self.cfg.seed)),
            ("dropped", Value::U64(self.dropped)),
            ("corrupted", Value::U64(self.corrupted)),
            ("jittered", Value::U64(self.jittered)),
            (
                "flows",
                Value::List(
                    self.flows
                        .iter()
                        .map(|(&f, st)| Self::flow_value(f, st))
                        .collect(),
                ),
            ),
        ]))
    }

    /// Parses everything first: a refused state leaves the injector as it
    /// was.
    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        self.check_origin(state)?;
        let flows = state.get("flows")?.items()?;
        let flows = flows
            .iter()
            .map(Self::flow_from_value)
            .collect::<Result<_, _>>()?;
        let [dropped, corrupted, jittered] =
            ["dropped", "corrupted", "jittered"].map(|key| state.get(key)?.as_counter());
        (self.dropped, self.corrupted, self.jittered) = (dropped?, corrupted?, jittered?);
        self.flows = flows;
        Ok(())
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
    fn save_load_resumes_streams_mid_run() {
        let cfg = ChaosConfig::all_faults(13, 30.0);
        let mut whole = ChaosInjector::new(cfg);
        let mut halves = ChaosInjector::new(cfg);
        let feed = |inj: &mut ChaosInjector, lo: u64, hi: u64| -> Vec<PacketVerdict> {
            (lo..hi)
                .flat_map(|i| {
                    [1u32, 2].map(|flow| {
                        let mut p = Packet::new(i, flow, 1000, 0.01 * i as f64);
                        inj.on_packet(0.01 * i as f64, &mut p)
                    })
                })
                .collect()
        };
        let mut expect = feed(&mut whole, 0, 400);
        expect.extend(feed(&mut whole, 400, 800));
        let mut got = feed(&mut halves, 0, 400);
        // Checkpoint, scribble over the state, restore, continue.
        let snap = halves.save_state().unwrap();
        assert_eq!(snap, halves.save_state().unwrap(), "snapshot not stable");
        let _ = feed(&mut halves, 400, 600);
        halves.load_state(&snap).unwrap();
        got.extend(feed(&mut halves, 400, 800));
        assert_eq!(expect, got);
        assert_eq!(whole.dropped, halves.dropped);
        assert_eq!(whole.corrupted, halves.corrupted);
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
