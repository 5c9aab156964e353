//! The control-plane fault plan: link-rate faults and flow churn.
//!
//! A [`ChaosPlan`] is a time-stamped command schedule generated from the
//! seed *before* the run starts, so it is identical for every scheduler in
//! a differential soak (commands are pure functions of the config, never
//! of scheduler behaviour). The plan also records the outage windows it
//! created — consumers use them to excuse work-conservation "violations"
//! during intervals when the link was legitimately down.

use hpfq_core::NodeId;
use hpfq_sim::{CbrSource, SimCommand, SmallRng};

use crate::config::{churn, link, ChaosConfig};
use crate::inject::ChaosSource;

/// Flow ids `CHURN_FLOW_BASE..` are churn flows; lower ids are the static
/// base traffic.
pub const CHURN_FLOW_BASE: u32 = 100;

/// A generated control-plane schedule.
pub struct ChaosPlan {
    /// `(time, command)` pairs, time-ascending.
    pub commands: Vec<(f64, SimCommand)>,
    /// Closed outage intervals `[down, up]`.
    pub outages: Vec<(f64, f64)>,
    /// Churn flow ids the plan ever attaches.
    pub churn_flows: Vec<u32>,
    /// Time of the last scheduled fault (the recovery window starts here).
    pub last_fault: f64,
}

/// Generates the command schedule for `cfg` against a hierarchy whose
/// churn leaves will be attached under `churn_parent` on a link of
/// `link_bps`; each churn flow's source runs under `cfg`'s data-plane
/// faults from its join time. Deterministic: same inputs, same plan.
pub fn build_plan(cfg: &ChaosConfig, churn_parent: NodeId, link_bps: f64) -> ChaosPlan {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x51_7CC1_B727_2220);
    let mut commands: Vec<(f64, SimCommand)> = Vec::new();
    let mut outages = Vec::new();
    let mut last_fault: f64 = 0.0;
    let quiet_from = cfg.quiet_from();

    // ---- Link-rate fluctuation and outages -------------------------------
    if cfg.faults {
        let mut t = link::INTERVAL;
        while t < quiet_from {
            if rng.gen_bool(link::OUTAGE_PROB) {
                let dur = rng.gen_range_f64(link::OUTAGE_DURATION.0, link::OUTAGE_DURATION.1);
                let up = (t + dur).min(quiet_from);
                commands.push((t, SimCommand::SetLinkRate { link: 0, bps: 0.0 }));
                commands.push((
                    up,
                    SimCommand::SetLinkRate {
                        link: 0,
                        bps: link_bps,
                    },
                ));
                outages.push((t, up));
                last_fault = last_fault.max(up);
            } else {
                let f = rng.gen_range_f64(link::RATE_FACTOR.0, link::RATE_FACTOR.1);
                commands.push((
                    t,
                    SimCommand::SetLinkRate {
                        link: 0,
                        bps: f * link_bps,
                    },
                ));
                last_fault = last_fault.max(t);
            }
            t += link::INTERVAL;
        }
        // Restore the nominal rate for the recovery window.
        commands.push((
            quiet_from,
            SimCommand::SetLinkRate {
                link: 0,
                bps: link_bps,
            },
        ));
        last_fault = last_fault.max(quiet_from);
    }

    // ---- Flow churn ------------------------------------------------------
    let mut churn_flows = Vec::new();
    if cfg.faults {
        // Budgeted shares: even if every slot ever attached were live (or
        // draining) at once, their sum stays within the churn budget.
        let total_slots = {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a count of churn intervals within the soak horizon; the cast saturates"
            )]
            let events = (quiet_from / churn::INTERVAL) as usize;
            events.max(1)
        };
        let phi = churn::SHARE_BUDGET / total_slots.max(churn::MAX_CONCURRENT) as f64;
        let mut live: Vec<u32> = Vec::new();
        let mut next_flow = CHURN_FLOW_BASE;
        let mut t = churn::INTERVAL * 0.75; // offset from link events
        while t < quiet_from {
            let add = live.len() < churn::MAX_CONCURRENT && (live.is_empty() || rng.gen_bool(0.6));
            if add {
                let flow = next_flow;
                next_flow += 1;
                churn_flows.push(flow);
                live.push(flow);
                // A churn flow offers a bit more than its share so it
                // competes: phi * link * 1.5.
                let rate = (phi * link_bps * 1.5).max(8_000.0);
                let source = CbrSource::new(flow, 500, rate, t, cfg.horizon);
                commands.push((
                    t,
                    SimCommand::AddFlow {
                        parent: churn_parent,
                        phi,
                        flow,
                        source: Box::new(ChaosSource::new(*cfg, flow, t, source)),
                        buffer_bytes: None,
                        delivery_delay: 0.0,
                    },
                ));
            } else {
                let idx = rng.gen_range_usize(0, live.len());
                let flow = live.swap_remove(idx);
                commands.push((t, SimCommand::RemoveFlow(flow)));
            }
            last_fault = last_fault.max(t);
            t += churn::INTERVAL;
        }
    }

    commands.sort_by(|a, b| a.0.total_cmp(&b.0));
    ChaosPlan {
        commands,
        outages,
        churn_flows,
        last_fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_fingerprint(p: &ChaosPlan) -> Vec<(u64, String)> {
        p.commands
            .iter()
            .map(|(t, c)| (t.to_bits(), format!("{c:?}")))
            .collect()
    }

    #[test]
    fn plan_is_deterministic() {
        let cfg = ChaosConfig::all_faults(1234, 30.0);
        let parent = NodeId(0);
        let a = build_plan(&cfg, parent, 1e6);
        let b = build_plan(&cfg, parent, 1e6);
        assert_eq!(plan_fingerprint(&a), plan_fingerprint(&b));
        assert_eq!(a.outages, b.outages);
        assert!(!a.commands.is_empty());
    }

    #[test]
    fn plan_respects_quiet_window() {
        let cfg = ChaosConfig::all_faults(99, 40.0);
        let p = build_plan(&cfg, NodeId(0), 1e6);
        let quiet = cfg.quiet_from();
        for (t, cmd) in &p.commands {
            assert!(
                *t <= quiet + 1e-9,
                "command {cmd:?} scheduled at {t} after quiet point {quiet}"
            );
        }
        assert!(p.last_fault <= quiet + 1e-9);
    }

    #[test]
    fn churn_shares_never_exceed_budget() {
        let cfg = ChaosConfig::all_faults(7, 60.0);
        let p = build_plan(&cfg, NodeId(0), 1e6);
        // Worst case: every add command's share counted as permanently
        // allocated (covers draining leaves that never finalize during an
        // outage).
        let mut total_phi = 0.0;
        for (_, cmd) in &p.commands {
            if let SimCommand::AddFlow { phi, .. } = cmd {
                total_phi += phi;
            }
        }
        assert!(
            total_phi <= churn::SHARE_BUDGET + 1e-9,
            "cumulative churn share {total_phi} exceeds budget {}",
            churn::SHARE_BUDGET
        );
    }
}
