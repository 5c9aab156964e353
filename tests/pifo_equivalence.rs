//! Golden and differential oracles for the eight policies [`PifoTree`]
//! serves (via [`SchedulerKind::build`]).
//!
//! **Goldens.** Each policy's dispatch decisions, tags and virtual-time
//! bits on two fixed lockstep schedules, its JSONL trace and statistics on
//! the reduced Fig. 3 workload (outage, finite buffer, flow churn), and its
//! run through the busy periods of a six-session schedule are held to what the
//! hand-rolled per-policy schedulers the rank programs were derived from
//! produced at commit 1c9611a, the last commit that had them (their output
//! had matched the rank programs bit for bit since the programs were
//! written; "legacy" in the test names). Overlapped round robin never had a
//! hand-rolled twin: its goldens were recorded from its rank program at the
//! same commit. A third lockstep schedule, whose packet lengths are
//! multiples of no quantum, was added later with goldens recorded from the
//! rank programs.
//!
//! **Backends.** The same drivers hold the dual heap that ships
//! byte-identical, for all eight programs, to [`SortByRankPifo`]: a `Vec`
//! and a linear scan on the ranked interface, sharing no code with it.
//!
//! Randomized churn + outage suites ride behind the `proptest-tests`
//! feature alongside `tests/proptest_invariants.rs`:
//!
//! ```text
//! cargo test --features proptest-tests --test pifo_equivalence
//! ```
//!
//! [`PifoTree`]: hpfq::core::PifoTree
//! [`SchedulerKind::build`]: hpfq::core::SchedulerKind::build

use hpfq::core::pifo::rank::{
    DrrRank, FifoRank, RrRank, ScfqRank, SfqRank, Wf2qPlusRank, Wf2qRank, WfqRank,
};
use hpfq::core::{
    Hierarchy, NodeId, NodeScheduler, PifoBackend, PifoTree, RankProgram, SchedulerKind, SessionId,
};
use hpfq::obs::{JsonlObserver, Observer, SharedBuf};
use hpfq::sim::{
    CbrSource, Network, PacketTrainSource, PeriodicOnOffSource, PoissonSource, Route, SimCommand,
};

/// What one policy produced at commit 1c9611a (see the module docs).
struct Golden {
    kind: SchedulerKind,
    /// `(FNV-1a, dispatches)` of the first two [`LOCKSTEP_RUNS`]
    /// schedules' steps.
    lockstep: [(u64, u64); 2],
    /// The same for the third, odd-length schedule, recorded at commit
    /// ba8daa6 (the rank programs are unchanged since 1c9611a).
    odd_lockstep: (u64, u64),
    /// `(FNV-1a, lines)` of the reduced Fig. 3 JSONL trace.
    fig3_trace: (u64, usize),
    /// The reduced Fig. 3 totals and per-flow statistics, as
    /// [`run_fig3ish`] renders them.
    fig3_stats: [&'static str; 6],
    /// `(FNV-1a, bytes)` of its last line, flow 1's per-packet records.
    fig3_records: (u64, usize),
    /// `(FNV-1a, entries)` of the six-session schedule's 300 steps.
    six_session: (u64, usize),
    /// FNV-1a of the 24 randomized schedules' steps.
    #[cfg_attr(
        not(feature = "proptest-tests"),
        expect(dead_code, reason = "only the proptest-tests suites read it")
    )]
    random: u64,
}

/// One entry per policy, in [`SchedulerKind::ALL`] order.
const GOLDENS: [Golden; 8] = [
    Golden {
        kind: SchedulerKind::Wf2qPlus,
        lockstep: [(0x733b_a932_f340_30bb, 552), (0xcd48_980e_4b89_13d3, 383)],
        odd_lockstep: (0xee5d_59af_48ec_b23b, 476),
        fig3_trace: (0x0509_9114_7aff_e3d3, 5999),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.16501902222220155, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.547381298593055, delay_max: 0.03361315555555722, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08334470906476998, delay_max: 0.004506191481091659, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.2730624944565414, delay_max: 0.010208533333330605, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.05288480429119093, delay_max: 0.02430378313565651, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0x1fad_d134_9b65_e086, 5626),
        six_session: (0x2a54_1648_12a5_196a, 278),
        random: 0xcb00_38f4_6b34_e3c0,
    },
    Golden {
        kind: SchedulerKind::Wfq,
        lockstep: [(0xf894_4a20_cdaa_c487, 552), (0xf58a_50df_c6ed_7350, 383)],
        odd_lockstep: (0x4d37_a154_0b32_babb, 476),
        fig3_trace: (0x9151_8cdc_762f_cce9, 5999),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.15628088888886815, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.5430122319263883, delay_max: 0.0361617777777794, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08480106462032555, delay_max: 0.004506191481091659, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.27451885001209697, delay_max: 0.010208533333330605, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.0630792931800799, delay_max: 0.03449827202454547, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0xdf17_9046_c1da_25d8, 5626),
        six_session: (0xbd2b_33c8_06e8_9555, 278),
        random: 0xe297_00be_2595_6147,
    },
    Golden {
        kind: SchedulerKind::Wf2q,
        lockstep: [(0x867a_7039_ab84_aa06, 552), (0xbf9a_5d0b_5ef3_1bcb, 383)],
        odd_lockstep: (0x0c52_6b09_6d35_9ab9, 476),
        fig3_trace: (0x605e_e74e_d5a1_2d38, 5999),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.16210631111109042, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.5488376541486105, delay_max: 0.034705422222223836, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08334470906476998, delay_max: 0.004506191481091659, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.2730624944565414, delay_max: 0.010208533333330605, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.0543411598467465, delay_max: 0.025760138691212076, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0x3f21_c669_5811_7886, 5626),
        six_session: (0x11ed_01b5_84e6_c2f9, 278),
        random: 0x1489_ac7c_06f6_de3b,
    },
    Golden {
        kind: SchedulerKind::Scfq,
        lockstep: [(0x310d_f5de_c4b3_207e, 552), (0xafdb_675f_afec_2a2c, 383)],
        odd_lockstep: (0x8215_f928_0e40_6f48, 476),
        fig3_trace: (0x7750_29fe_3de1_31c1, 5999),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.15628088888886815, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.5430122319263883, delay_max: 0.0361617777777794, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08480106462032555, delay_max: 0.004506191481091659, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.27451885001209697, delay_max: 0.010208533333330605, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.0630792931800799, delay_max: 0.03449827202454547, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0xdf17_9046_c1da_25d8, 5626),
        six_session: (0x55e0_5dd1_a8ee_0b69, 278),
        random: 0x92bd_649c_2ccd_05dc,
    },
    Golden {
        kind: SchedulerKind::Sfq,
        lockstep: [(0x22ec_10fd_e136_3d87, 552), (0x1adc_8e49_94e0_a342, 383)],
        odd_lockstep: (0xeeec_79bc_67ad_6087, 476),
        fig3_trace: (0x4e70_d563_5093_b1a3, 5993),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.16647537777775712, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.547381298593055, delay_max: 0.03361315555555722, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08334470906476998, delay_max: 0.004506191481091659, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.27160613890098584, delay_max: 0.010208533333330605, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.05288480429119093, delay_max: 0.02430378313565651, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0x0e94_e445_96c2_0d3e, 5626),
        six_session: (0xd357_e99f_c101_1832, 278),
        random: 0xc933_e545_1e0b_78a8,
    },
    Golden {
        kind: SchedulerKind::Drr,
        lockstep: [(0x9f11_5cd8_f2e5_906b, 552), (0xb9ec_3a2e_73cb_6d81, 383)],
        odd_lockstep: (0x08d0_10c6_95e1_49b3, 476),
        fig3_trace: (0x225b_92ca_1e8d_2d96, 5997),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.15628088888886815, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.5430122319263883, delay_max: 0.0361617777777794, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08771377573143668, delay_max: 0.0053689295432807205, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.27160613890098584, delay_max: 0.010208533333330605, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.0630792931800799, delay_max: 0.03449827202454547, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0xdf17_9046_c1da_25d8, 5626),
        six_session: (0x3eb8_cf07_35c8_2643, 278),
        random: 0x0df5_939e_3dba_2726,
    },
    Golden {
        kind: SchedulerKind::Fifo,
        lockstep: [(0x58a5_5ff1_2578_4382, 552), (0x16b6_e092_d7ea_0e15, 383)],
        odd_lockstep: (0x0e7d_292b_ba1a_e40c, 476),
        fig3_trace: (0x6b60_29d6_63c2_52e8, 5993),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.17230079999997938, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.547381298593055, delay_max: 0.03324906666666827, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08188835350921442, delay_max: 0.004506191481091659, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.2657807166787636, delay_max: 0.010039822222222439, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.0543411598467465, delay_max: 0.02430378313565651, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0xdf51_9ff2_807e_949f, 5626),
        six_session: (0x5826_a7bd_90af_3120, 278),
        random: 0x8170_567a_42d5_c80c,
    },
    Golden {
        kind: SchedulerKind::Rr,
        lockstep: [(0xbd9e_511e_e99c_da8c, 552), (0x4fb0_03af_aac8_3db4, 383)],
        odd_lockstep: (0xb8e6_4c70_39bf_8b24, 476),
        fig3_trace: (0x514d_6f32_8796_740c, 5997),
        fig3_stats: [
            "total 3686400 450 1.5998254222222223",
            "flow 1 FlowStats { packets: 40, bytes: 327680, drops: 0, drop_bytes: 0, offered_packets: 41, offered_bytes: 335872, accepted_packets: 41, accepted_bytes: 335872, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.15628088888886815, delay_max: 0.03145635555555548, last_departure: 1.4233016888888892 }",
            "flow 2 FlowStats { packets: 289, bytes: 2367488, drops: 4, drop_bytes: 32768, offered_packets: 293, offered_bytes: 2400256, accepted_packets: 289, accepted_bytes: 2367488, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.5430122319263883, delay_max: 0.0361617777777794, last_departure: 1.5969127111111112 }",
            "flow 11 FlowStats { packets: 47, bytes: 385024, drops: 0, drop_bytes: 0, offered_packets: 47, offered_bytes: 385024, accepted_packets: 47, accepted_bytes: 385024, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.08771377573143668, delay_max: 0.0053689295432807205, last_departure: 1.5732294864565277 }",
            "flow 31 FlowStats { packets: 59, bytes: 483328, drops: 0, drop_bytes: 0, offered_packets: 61, offered_bytes: 499712, accepted_packets: 61, accepted_bytes: 499712, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.27160613890098584, delay_max: 0.010208533333330605, last_departure: 1.5998254222222223 }",
            "flow 16 FlowStats { packets: 15, bytes: 122880, drops: 0, drop_bytes: 0, offered_packets: 15, offered_bytes: 122880, accepted_packets: 15, accepted_bytes: 122880, fault_drops: 0, fault_drop_bytes: 0, purged_packets: 0, purged_bytes: 0, delay_sum: 0.0630792931800799, delay_max: 0.03449827202454547, last_departure: 1.0650777542455168 }",
        ],
        fig3_records: (0xdf17_9046_c1da_25d8, 5626),
        six_session: (0x3eb8_cf07_35c8_2643, 278),
        random: 0xa77f_4701_8bd7_893b,
    },
];

/// Evaluates `$body` once per policy, with `$kind` bound to its
/// [`SchedulerKind`] and `$program` to its rank program's type.
macro_rules! for_each_program {
    (|$kind:ident, $program:ident| $body:expr) => {
        for_each_program!(@ $kind, $program, $body;
            Wf2qPlus Wf2qPlusRank, Wfq WfqRank, Wf2q Wf2qRank, Scfq ScfqRank,
            Sfq SfqRank, Drr DrrRank, Fifo FifoRank, Rr RrRank)
    };
    (@ $kind:ident, $program:ident, $body:expr; $($name:ident $rank:ident),*) => {$({
        let $kind = SchedulerKind::$name;
        type $program = $rank;
        $body
    })*};
}

/// One member of [`SortByRankPifo`]: `(id, eligibility key, primary,
/// secondary)`; the key is cleared when the member is admitted.
type Member = (SessionId, Option<f64>, f64, f64);

/// The reference PIFO: the rank model of `hpfq::core::pifo` written down
/// as a `Vec` and a linear `(primary, secondary, id)` min-scan. A gated
/// member is admitted by the first threshold that reaches its key and
/// stays admitted (thresholds only go back across WF²Q's fallback, and an
/// admission does not).
#[derive(Debug, Clone, Default)]
struct SortByRankPifo {
    members: Vec<Member>,
}

impl PifoBackend for SortByRankPifo {
    fn backend_name(&self) -> &'static str {
        "sort-by-rank"
    }
    fn ensure_sessions(&mut self, _n: usize) {}
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64) {
        assert!(!self.members.iter().any(|m| m.0 == id), "{id:?} twice");
        self.members.push((id, elig, primary, secondary));
    }
    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        self.insert_ranked(id, None, primary, secondary);
    }
    fn pop_monotone(&mut self) -> Option<SessionId> {
        self.pop_min_ranked()
    }
    fn pop_min_ranked(&mut self) -> Option<SessionId> {
        self.pop_eligible(f64::INFINITY)
    }
    fn clamp_threshold(&mut self, v: f64) -> Option<f64> {
        // An admitted member's key was at or below an earlier threshold.
        let key = |m: &Member| m.1.unwrap_or(f64::NEG_INFINITY);
        let smin = self.members.iter().map(key).reduce(f64::min)?;
        Some(v.max(smin))
    }
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId> {
        for m in &mut self.members {
            m.1 = m.1.filter(|&key| key > thr);
        }
        let rank = |m: &Member| (m.2, m.3, m.0 .0);
        let admitted = self.members.iter().filter(|m| m.1.is_none());
        let best = admitted.min_by(|a, b| rank(a).partial_cmp(&rank(b)).unwrap())?;
        let id = best.0;
        self.members.retain(|m| m.0 != id);
        Some(id)
    }
    fn members_in_order(&self) -> Vec<Member> {
        // Admitted members by rank, then gated ones by key.
        let order = |m: &Member| (m.1.is_some(), m.1.unwrap_or(m.2), m.3, m.0 .0);
        let mut out = self.members.clone();
        out.sort_by(|a, b| order(a).partial_cmp(&order(b)).unwrap());
        out
    }
    fn members(&self) -> usize {
        self.members.len()
    }
    fn reset(&mut self) {
        self.members.clear();
    }
}

/// `program` on the reference PIFO instead of the dual heap.
fn oracle<P: RankProgram>(rate: f64, program: P) -> PifoTree<P, SortByRankPifo> {
    PifoTree::with_backend(rate, program)
}

const LINK: f64 = 45e6;
const PKT: u32 = 8192;

/// 64-bit FNV-1a of `bytes`, continuing from `h` (start from
/// [`FNV_BASIS`]).
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `words` in little-endian byte order, continuing from `h`.
fn fnv1a_words(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// The golden recorded for `kind`.
fn golden(kind: SchedulerKind) -> &'static Golden {
    GOLDENS.iter().find(|g| g.kind == kind).unwrap()
}

impl Golden {
    /// `(FNV-1a, dispatches)` of [`LOCKSTEP_RUNS`]`[run]`.
    fn lockstep_digest(&self, run: usize) -> (u64, u64) {
        [self.lockstep[0], self.lockstep[1], self.odd_lockstep][run]
    }
}

// ---------------------------------------------------------------------------
// Scheduler-level steps: every dispatch decision, tag, and virtual-time bit.
// ---------------------------------------------------------------------------

/// What one step of a schedule observes: the selection (`u64::MAX` for
/// none), the selected head's start and finish tag bits, then the
/// virtual-time bits and backlogged count after the selection and again
/// after the requeue (zeros when nothing was selected).
type Step = [u64; 7];

/// The observations of one selection on `s`; the requeue half is filled in
/// by [`requeued`].
fn selected(s: &impl NodeScheduler, id: Option<SessionId>) -> Step {
    let Some(id) = id else {
        return [u64::MAX, 0, 0, 0, 0, 0, 0];
    };
    let (start, finish) = s.tags(id);
    let vt = s.virtual_time().to_bits();
    [
        id.0 as u64,
        start.to_bits(),
        finish.to_bits(),
        vt,
        s.backlogged() as u64,
        0,
        0,
    ]
}

/// `step` with the observations after the requeue.
fn requeued(s: &impl NodeScheduler, mut step: Step) -> Step {
    step[5] = s.virtual_time().to_bits();
    step[6] = s.backlogged() as u64;
    step
}

/// `(FNV-1a, dispatches)` of a schedule's steps — what [`Golden`] holds.
fn digest(steps: &[Step]) -> (u64, u64) {
    let h = steps.iter().fold(FNV_BASIS, |h, s| fnv1a_words(h, s));
    let dispatches = steps.iter().filter(|s| s[0] != u64::MAX).count();
    (h, dispatches as u64)
}

/// Asserts two schedules' steps agree, naming the first that does not.
fn assert_same_steps(kind: SchedulerKind, label: &str, a: &[Step], b: &[Step]) {
    if let Some(at) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!(
            "{} {label} step {at}: {:?} vs {:?}",
            kind.name(),
            a.get(at),
            b.get(at)
        );
    }
}

/// Packet lengths in bits, cycled by step.
const LENS: &[f64] = &[1000.0, 3000.0, 500.0, 7000.0, 1500.0, 11000.0];

/// Odd prime lengths, multiples of no quantum (every [`LENS`] entry is a
/// multiple of 100 bits). Over 8 sessions a DRR quantum is a whole 1 500
/// bits, so a head can miss its deficit by a single bit, and a program
/// that credits a quantum one bit off moves the digest.
const ODD_LENS: &[f64] = &[997.0, 2999.0, 4111.0, 1511.0, 6007.0, 523.0];

/// `lens[i]`, cycling.
fn cycled(lens: &[f64], i: u64) -> f64 {
    lens[(i % lens.len() as u64) as usize]
}

/// Deterministic packet-length pattern (primes keep lengths from aliasing
/// into round numbers).
fn len_pattern(i: u64) -> f64 {
    cycled(LENS, i)
}

/// Drives `s` through a deterministic dispatch / requeue / churn / drain
/// schedule over `n` sessions with packet lengths cycled from `lens`, and
/// returns every step's observations. The schedule periodically drains the
/// scheduler completely so the busy-period reset path is exercised too.
fn drive_lockstep(mut s: impl NodeScheduler, (n, steps, seed, lens): LockstepRun) -> Vec<Step> {
    for _ in 0..n {
        s.add_session(1.0 / n as f64);
    }
    let mut queued: Vec<u64> = (0..n as u64).map(|i| 2 + (i + seed) % 4).collect();
    for (i, &q) in queued.iter().enumerate() {
        if q > 0 {
            s.backlog(SessionId(i), cycled(lens, i as u64 + seed), None);
        }
    }
    let mut log = Vec::new();
    for step in 0..steps {
        let picked = s.select_next();
        let obs = selected(&s, picked);
        let Some(id) = picked else {
            // Drained: busy period over; restart deterministically.
            for (i, q) in queued.iter_mut().enumerate() {
                *q = 1 + (i as u64 + step) % 3;
                s.backlog(SessionId(i), cycled(lens, step + i as u64), None);
            }
            log.push(obs);
            continue;
        };
        queued[id.0] -= 1;
        // Occasionally a fresh arrival lands on an idle session mid-run.
        if (step * 7 + seed).is_multiple_of(11) {
            for (i, q) in queued.iter_mut().enumerate() {
                if *q == 0 && SessionId(i) != id {
                    *q = 2;
                    s.backlog(SessionId(i), cycled(lens, step + 1), None);
                    break;
                }
            }
        }
        let next = (queued[id.0] > 0).then(|| cycled(lens, step + 2));
        s.requeue(id, next);
        log.push(requeued(&s, obs));
    }
    log
}

/// `(sessions, steps, seed, lengths)` of one fixed lockstep schedule.
type LockstepRun = (usize, u64, u64, &'static [f64]);

/// The fixed lockstep schedules.
const LOCKSTEP_RUNS: [LockstepRun; 3] =
    [(5, 600, 3, LENS), (9, 400, 17, LENS), (8, 500, 5, ODD_LENS)];

#[test]
fn every_policy_matches_legacy_in_lockstep() {
    for kind in SchedulerKind::ALL {
        for (run, schedule) in LOCKSTEP_RUNS.into_iter().enumerate() {
            let log = drive_lockstep(kind.build(1e6), schedule);
            assert_eq!(
                digest(&log),
                golden(kind).lockstep_digest(run),
                "{} lockstep run {run}: steps diverged from the golden",
                kind.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Network-level traces: the reduced Fig. 3 workload (outage, finite buffer,
// flow churn).
// ---------------------------------------------------------------------------

/// A reduced Fig. 3 hierarchy, generic over the node factory so the same
/// topology can be built on any scheduler.
fn fig3ish<S: NodeScheduler + 'static, O: Observer>(
    obs: O,
    node: impl Fn(f64) -> S + 'static,
) -> (Hierarchy<S, O>, Vec<NodeId>) {
    let mut bld = Hierarchy::builder_with_observer(LINK, node, obs);
    let root = bld.root();
    let n2 = bld.add_internal(root, 0.5).unwrap();
    let n1 = bld.add_internal(n2, 0.494).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap();
    let be1 = bld.add_leaf(n1, 0.19).unwrap();
    let ps1 = bld.add_leaf(root, 0.05).unwrap();
    let cs1 = bld.add_leaf(root, 0.05).unwrap();
    let ps6 = bld.add_leaf(n2, 0.0506).unwrap();
    (bld.build(), vec![rt1, be1, ps1, cs1, ps6])
}

/// Runs the reduced Fig. 3 scenario to `horizon` and returns the raw JSONL
/// trace plus the per-flow statistics the oracle compares.
fn run_fig3ish<S: NodeScheduler + 'static>(
    node: impl Fn(f64) -> S + 'static,
    horizon: f64,
) -> (String, Vec<String>) {
    let buf = SharedBuf::new();
    let (h, leaves) = fig3ish(JsonlObserver::new(buf.clone()), node);
    let mut sim = Network::single_link(h);
    sim.stats.trace_flow(1);
    let mut attach =
        |flow: u32, src: Box<dyn hpfq::sim::Source>, leaf: usize, buffer: Option<u64>| {
            sim.add_route(flow, src, Route::single(leaves[leaf], buffer, 0.0));
        };
    attach(
        1,
        Box::new(PeriodicOnOffSource::new(
            1,
            PKT,
            9e6,
            0.025,
            0.100,
            0.200,
            f64::INFINITY,
        )),
        0,
        None,
    );
    // BE-1 floods through a finite buffer so drop accounting is exercised.
    attach(
        2,
        Box::new(CbrSource::new(2, PKT, 12e6, 0.0, f64::INFINITY)),
        1,
        Some(3 * u64::from(PKT)),
    );
    attach(
        11,
        Box::new(PoissonSource::new(11, PKT, 2.25e6, 0.0, f64::INFINITY, 7)),
        2,
        None,
    );
    attach(
        31,
        Box::new(PacketTrainSource::new(
            31,
            PKT,
            7,
            f64::from(PKT) * 8.0 / LINK,
            0.193,
            0.05,
            f64::INFINITY,
        )),
        3,
        None,
    );
    attach(
        16,
        Box::new(PoissonSource::new(16, PKT, 1.14e6, 0.0, f64::INFINITY, 9)),
        4,
        None,
    );
    // A 30 ms outage and mid-run flow churn exercise the epoch/credit and
    // detach machinery.
    sim.schedule_command(0.9, SimCommand::SetLinkRate(0.0));
    sim.schedule_command(0.93, SimCommand::SetLinkRate(LINK));
    sim.schedule_command(1.2, SimCommand::RemoveFlow(16));
    sim.run(horizon);
    sim.verify_conservation().unwrap();
    let mut stats = vec![format!(
        "total {} {} {}",
        sim.stats.total_bytes, sim.stats.total_packets, sim.stats.last_departure
    )];
    for flow in [1u32, 2, 11, 31, 16] {
        stats.push(format!("flow {flow} {:?}", sim.stats.flow(flow)));
    }
    stats.push(format!("records {:?}", sim.stats.trace(1)));
    (buf.contents(), stats)
}

#[test]
fn fig3_trace_is_byte_identical_for_every_policy() {
    for kind in SchedulerKind::ALL {
        let (trace, mut stats) = run_fig3ish(move |r| kind.build(r), 1.6);
        let records = stats.pop().unwrap();
        let g = golden(kind);
        assert_eq!(
            stats,
            g.fig3_stats,
            "{}: statistics diverged from the golden",
            kind.name()
        );
        assert_eq!(
            (fnv1a(FNV_BASIS, records.as_bytes()), records.len()),
            g.fig3_records,
            "{}: flow 1's records diverged from the golden",
            kind.name()
        );
        assert_eq!(
            (fnv1a(FNV_BASIS, trace.as_bytes()), trace.lines().count()),
            g.fig3_trace,
            "{}: trace diverged from the golden",
            kind.name()
        );
    }
}

// ---------------------------------------------------------------------------
// The six-session schedule: 300 straight steps through repeated busy
// periods, each restarted with fresh heads.
// ---------------------------------------------------------------------------

/// Sessions of the six-session schedule.
const SIX_SESSIONS: usize = 6;

/// `(FNV-1a, entries)` of the six-session schedule's 300 steps on `s`,
/// each dispatch logged as `(session, start tag bits, finish tag bits)` —
/// what [`Golden`] holds.
fn six_session_digest(s: &mut impl NodeScheduler) -> (u64, usize) {
    for _ in 0..SIX_SESSIONS {
        s.add_session(1.0 / SIX_SESSIONS as f64);
    }
    let mut q: Vec<u64> = (0..SIX_SESSIONS as u64).map(|i| 3 + i % 3).collect();
    for i in 0..SIX_SESSIONS {
        s.backlog(SessionId(i), len_pattern(i as u64), None);
    }
    let (mut h, mut entries) = (FNV_BASIS, 0);
    for step in 0..300 {
        let Some(id) = s.select_next() else {
            for (i, qq) in q.iter_mut().enumerate() {
                *qq = 1 + (i as u64 + step) % 3;
                s.backlog(SessionId(i), len_pattern(step + i as u64), None);
            }
            continue;
        };
        let tags = s.tags(id);
        h = fnv1a_words(h, &[id.0 as u64, tags.0.to_bits(), tags.1.to_bits()]);
        entries += 1;
        q[id.0] -= 1;
        let next = (q[id.0] > 0).then(|| len_pattern(step + 2));
        s.requeue(id, next);
    }
    (h, entries)
}

/// Every policy's six-session run matches the legacy schedulers' straight
/// run. (The name dates from when the run was cut at step 150 by a
/// snapshot and finished in a fresh scheduler.)
#[test]
fn pifo_snapshot_resume_matches_legacy_straight_run() {
    for kind in SchedulerKind::ALL {
        assert_eq!(
            six_session_digest(&mut kind.build(1e6)),
            golden(kind).six_session,
            "{}: the six-session run diverges from the golden",
            kind.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Backend equivalence: the dual heap must pop in the exact rank order the
// reference PIFO finds by scanning, so the full dispatch sequence —
// selections, tags, virtual-time bits, network traces — is byte-identical
// for every policy.
// ---------------------------------------------------------------------------

#[test]
fn every_backend_matches_dual_heap_in_lockstep() {
    for_each_program!(|kind, Program| {
        for schedule in LOCKSTEP_RUNS {
            let scan = drive_lockstep(oracle(1e6, Program::new()), schedule);
            let heap = drive_lockstep(kind.build(1e6), schedule);
            assert_same_steps(kind, "reference PIFO", &scan, &heap);
        }
    });
}

#[test]
fn fig3_trace_is_byte_identical_across_backends() {
    for_each_program!(|kind, Program| {
        let (trace_h, stats_h) = run_fig3ish(move |r| kind.build(r), 1.6);
        let (trace_b, stats_b) = run_fig3ish(|r| oracle(r, Program::new()), 1.6);
        assert_eq!(
            stats_b,
            stats_h,
            "{} on the reference PIFO: statistics diverged from dual heap",
            kind.name()
        );
        assert_eq!(
            trace_b,
            trace_h,
            "{} on the reference PIFO: trace diverged from dual heap",
            kind.name()
        );
    });
}

/// The two backends, each run on its own to mid-busy-period of the
/// six-session schedule (10 of the 24 offered packets), then driven on in
/// lockstep with fresh heads, select and tag identically. (The name dates
/// from when the second backend took its midpoint from a snapshot of the
/// first.)
#[test]
fn snapshot_restores_across_backends() {
    const N: usize = 6;
    fn continue_across(
        kind: SchedulerKind,
        label: &str,
        mut a: impl NodeScheduler,
        mut b: impl NodeScheduler,
    ) {
        // Each backend on its own to mid-busy-period; returns the packets
        // each session still has queued.
        fn to_midpoint(s: &mut dyn NodeScheduler) -> Vec<u64> {
            let mut queued: Vec<u64> = (0..N as u64).map(|i| 3 + i % 3).collect();
            for _ in 0..N {
                s.add_session(1.0 / N as f64);
            }
            for i in 0..N {
                s.backlog(SessionId(i), len_pattern(i as u64), None);
            }
            for step in 0..10u64 {
                let Some(id) = s.select_next() else { break };
                queued[id.0] -= 1;
                let next = (queued[id.0] > 0).then(|| len_pattern(step + 2));
                s.requeue(id, next);
            }
            queued
        }
        let mut queued = to_midpoint(&mut a);
        assert_eq!(
            to_midpoint(&mut b),
            queued,
            "{} {label}: midpoint",
            kind.name()
        );
        let mut matched = 0;
        for step in 0..80u64 {
            let x = a.select_next();
            let y = b.select_next();
            assert_eq!(
                x,
                y,
                "{} {label} step {step}: selection diverged past the midpoint",
                kind.name()
            );
            let Some(id) = x else { break };
            assert_eq!(
                a.tags(id).1.to_bits(),
                b.tags(id).1.to_bits(),
                "{} {label} step {step}: tags diverged",
                kind.name()
            );
            queued[id.0] = queued[id.0].saturating_sub(1);
            let next = (queued[id.0] > 0).then(|| len_pattern(step + 5));
            a.requeue(id, next);
            b.requeue(id, next);
            matched += 1;
        }
        assert!(
            matched >= 10,
            "{} {label}: the midpoint left the schedulers idle ({matched} selections after it)",
            kind.name()
        );
    }
    for_each_program!(|kind, Program| {
        let heap = || PifoTree::new(1e6, Program::new());
        continue_across(
            kind,
            "reference->dual-heap",
            oracle(1e6, Program::new()),
            heap(),
        );
        continue_across(
            kind,
            "dual-heap->reference",
            heap(),
            oracle(1e6, Program::new()),
        );
    });
}

// ---------------------------------------------------------------------------
// Randomized churn + outage suites (proptest-tests feature).
// ---------------------------------------------------------------------------

#[cfg(feature = "proptest-tests")]
mod random_differential {
    use super::*;
    use hpfq::sim::SmallRng;

    /// FNV-1a of the six outage/churn traces, concatenated.
    const OUTAGE_CHURN_FNV1A: u64 = 0x69d9_b030_76f8_23df;

    /// Drives `s` through random admissible op schedule `case` — random
    /// backlogs on idle sessions, random service continuations/drains,
    /// random full-drain idle gaps — and returns every step's
    /// observations.
    fn drive_random_schedule(case: u64, mut s: impl NodeScheduler) -> Vec<Step> {
        let mut rng = SmallRng::seed_from_u64(0x91f0_0000 + case);
        let n = rng.gen_range_usize(2, 12);
        for i in 0..n {
            s.add_session(1.0 / n as f64 * if i % 2 == 0 { 1.2 } else { 0.8 });
        }
        // queued[i] > 0 ⇔ session i is offered to the scheduler.
        let mut queued = vec![0u64; n];
        let mut log = Vec::new();
        for _ in 0..rng.gen_range_usize(50, 400) {
            // Random arrivals on idle sessions (more likely when
            // everything is idle, so busy periods restart).
            let idle_all = queued.iter().all(|&q| q == 0);
            let arrivals = if idle_all {
                rng.gen_range_usize(1, n + 1)
            } else {
                rng.gen_range_usize(0, 3)
            };
            for _ in 0..arrivals {
                let i = rng.gen_range_usize(0, n);
                let bits = (rng.gen_range_usize(1, 24) * 500) as f64;
                if queued[i] == 0 {
                    s.backlog(SessionId(i), bits, None);
                    queued[i] = rng.gen_range_usize(1, 5) as u64;
                }
            }
            let picked = s.select_next();
            let obs = selected(&s, picked);
            let Some(id) = picked else {
                log.push(obs);
                continue;
            };
            queued[id.0] -= 1;
            let next = (queued[id.0] > 0).then(|| (rng.gen_range_usize(1, 24) * 500) as f64);
            s.requeue(id, next);
            log.push(requeued(&s, obs));
        }
        log
    }

    /// Arbitrary admissible op sequences against each policy's golden.
    #[test]
    fn random_schedules_agree_for_every_policy() {
        for kind in SchedulerKind::ALL {
            let h = (0..24u64).fold(FNV_BASIS, |h, case| {
                let log = drive_random_schedule(case, kind.build(1e6));
                log.iter().fold(h, |h, s| fnv1a_words(h, s))
            });
            assert_eq!(h, golden(kind).random, "{}", kind.name());
        }
    }

    /// The same randomized schedules on the reference PIFO against the
    /// dual heap that ships.
    #[test]
    fn random_schedules_agree_across_backends() {
        for_each_program!(|kind, Program| {
            for case in 0..24u64 {
                let scan = drive_random_schedule(case, oracle(1e6, Program::new()));
                let heap = drive_random_schedule(case, kind.build(1e6));
                assert_same_steps(kind, &format!("reference-pifo case {case}"), &scan, &heap);
            }
        });
    }

    /// One randomized outage/churn run of the Fig. 3 topology; returns the
    /// raw JSONL trace.
    fn run_random<S: NodeScheduler + 'static>(
        node: impl Fn(f64) -> S + 'static,
        out_start: f64,
        out_len: f64,
        churn_at: f64,
    ) -> String {
        let buf = SharedBuf::new();
        let (h, leaves) = fig3ish(JsonlObserver::new(buf.clone()), node);
        let mut sim = Network::single_link(h);
        sim.add_route(
            1,
            CbrSource::new(1, PKT, 9e6, 0.0, f64::INFINITY),
            Route::single(leaves[0], None, 0.0),
        );
        sim.add_route(
            2,
            PoissonSource::new(2, PKT, 6e6, 0.0, f64::INFINITY, 5),
            Route::single(leaves[1], Some(2 * u64::from(PKT)), 0.0),
        );
        sim.add_route(
            3,
            CbrSource::new(3, PKT, 3e6, 0.1, f64::INFINITY),
            Route::single(leaves[4], None, 0.0),
        );
        sim.schedule_command(out_start, SimCommand::SetLinkRate(0.0));
        sim.schedule_command(out_start + out_len, SimCommand::SetLinkRate(LINK));
        sim.schedule_command(churn_at, SimCommand::RemoveFlow(3));
        sim.run(1.5);
        sim.verify_conservation().unwrap();
        buf.contents()
    }

    /// Random outage windows + random churn on the Fig. 3 workload, one
    /// random policy per case: the six traces must match the golden.
    #[test]
    fn random_outage_and_churn_traces_agree() {
        let h = (0..6u64).fold(FNV_BASIS, |h, case| {
            let mut rng = SmallRng::seed_from_u64(0x07a6_e000 + case);
            let kind = SchedulerKind::ALL[rng.gen_range_usize(0, SchedulerKind::ALL.len())];
            let out_start = rng.gen_range_f64(0.2, 1.0);
            let out_len = rng.gen_range_f64(0.005, 0.08);
            let churn_at = rng.gen_range_f64(0.3, 1.3);
            let trace = run_random(move |r| kind.build(r), out_start, out_len, churn_at);
            fnv1a(h, trace.as_bytes())
        });
        assert_eq!(h, OUTAGE_CHURN_FNV1A);
    }
}
