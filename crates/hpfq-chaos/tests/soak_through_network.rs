//! The chaos soak is deterministic run to run.
//!
//! `build_soak_sim` hands back the one-link [`hpfq_sim::Network`] the
//! harness drives; everything the soak exercises — faulty sources,
//! scheduled commands, churn — lives in that one type. Two independently
//! built soaks under the same config must therefore agree exactly: same
//! fault schedule, same fault drops, same trace bytes.

use hpfq_chaos::{build_plan, build_soak_sim, ChaosConfig};
use hpfq_core::{NodeId, SchedulerKind};

#[test]
fn soak_is_identical_through_simulation_and_network_front_ends() {
    let cfg = ChaosConfig::all_faults(5, 15.0);
    let run = || {
        let (mut net, _) = build_soak_sim(SchedulerKind::Wf2qPlus, &cfg);
        for (t, cmd) in build_plan(&cfg, NodeId(0), hpfq_chaos::LINK_BPS).commands {
            net.schedule_command(t, cmd);
        }
        net.run(cfg.horizon);
        net.verify_conservation().unwrap();
        let totals = (net.stats.total_bytes, net.stats.total_packets);
        let fault_drops: Vec<u64> = (0..3).map(|f| net.stats.flow(f).fault_drops).collect();
        (
            totals,
            fault_drops,
            net.into_observers().remove(0).into_inner(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert!(a.2 == b.2, "soak trace diverged between runs");
}
