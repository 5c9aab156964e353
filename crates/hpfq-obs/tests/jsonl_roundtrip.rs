//! Round-trip property tests for the JSONL trace format.
//!
//! For every `TraceEvent` variant: serialize → `parse_line` → re-serialize
//! must be byte-identical (floats use shortest-round-trip `Display`, so
//! the first serialization is already canonical). Randomized inputs come
//! from a hand-rolled xorshift PRNG — `hpfq-obs` stays dependency-free.
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use hpfq_obs::jsonl::{merge_traces, parse_line, JsonlObserver};
use hpfq_obs::{
    replay, BacklogEvent, BusyResetEvent, DispatchEvent, DropEvent, EnqueueEvent, FaultEvent,
    FaultKind, Observer, PacketInfo, TraceEvent, TxEvent,
};

/// xorshift64* — deterministic, seedable, good enough for fuzzing fields.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn usize(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// A finite, mostly-awkward f64: dyadic rationals, tiny values, long
    /// decimal expansions — everything `Display` must round-trip.
    fn f64(&mut self) -> f64 {
        match self.next() % 4 {
            0 => (self.next() % 1_000_000) as f64 / 1024.0,
            1 => (self.next() % 1_000_000_000) as f64 * 1e-9,
            2 => (self.next() % 7919) as f64 / 7919.0,
            _ => (self.next() % 1_000) as f64,
        }
    }

    fn pkt(&mut self) -> PacketInfo {
        PacketInfo {
            id: self.next() >> 16,
            flow: self.u32() % 4096,
            len_bytes: self.u32() % 65536,
            arrival: self.f64(),
        }
    }
}

fn serialize(ev: &TraceEvent) -> String {
    let mut obs = JsonlObserver::new(Vec::new());
    replay(&mut obs, ev);
    assert_eq!(obs.write_errors, 0);
    String::from_utf8(obs.into_inner()).unwrap()
}

fn assert_round_trips(ev: TraceEvent) {
    let first = serialize(&ev);
    let parsed = parse_line(first.trim_end()).unwrap_or_else(|| panic!("unparseable: {first}"));
    assert_eq!(parsed, ev, "value drift through parse: {first}");
    let second = serialize(&parsed);
    assert_eq!(first, second, "re-serialization not byte-identical");
}

const FAULT_KINDS: [FaultKind; 7] = [
    FaultKind::LinkRate,
    FaultKind::LinkDown,
    FaultKind::LinkUp,
    FaultKind::PacketDrop,
    FaultKind::FlowAdd,
    FaultKind::FlowRemove,
    FaultKind::InvalidPacket,
];

const POLICIES: [&str; 7] = ["wf2q+", "wfq", "wf2q", "scfq", "sfq", "drr", "fifo"];

/// One random event of each variant per iteration — every variant is
/// exercised with every PRNG state.
fn random_events(rng: &mut Rng) -> [TraceEvent; 8] {
    [
        TraceEvent::Enqueue(EnqueueEvent {
            time: rng.f64(),
            link: rng.usize(8),
            leaf: rng.usize(64),
            pkt: rng.pkt(),
            queue_depth: rng.usize(1024),
            queue_bytes: rng.next() % (1 << 30),
        }),
        TraceEvent::Drop(DropEvent {
            time: rng.f64(),
            link: rng.usize(8),
            leaf: rng.usize(64),
            pkt: rng.pkt(),
            queue_bytes: rng.next() % (1 << 30),
        }),
        TraceEvent::Dispatch(DispatchEvent {
            time: rng.f64(),
            link: rng.usize(8),
            node: rng.usize(64),
            session: rng.usize(16),
            child: rng.usize(64),
            start_tag: rng.f64(),
            finish_tag: rng.f64(),
            phi: rng.f64(),
            v_before: rng.f64(),
            v_after: rng.f64(),
            head_bits: (rng.next() % 1_000_000) as f64,
            node_rate: (rng.next() % 1_000_000_000) as f64,
            policy: POLICIES[rng.usize(POLICIES.len())],
        }),
        TraceEvent::TxStart(TxEvent {
            time: rng.f64(),
            link: rng.usize(8),
            leaf: rng.usize(64),
            pkt: rng.pkt(),
        }),
        TraceEvent::TxComplete(TxEvent {
            time: rng.f64(),
            link: rng.usize(8),
            leaf: rng.usize(64),
            pkt: rng.pkt(),
        }),
        TraceEvent::Backlog(BacklogEvent {
            time: rng.f64(),
            link: rng.usize(8),
            node: rng.usize(64),
            active: rng.next().is_multiple_of(2),
        }),
        TraceEvent::BusyReset(BusyResetEvent {
            time: rng.f64(),
            link: rng.usize(8),
            node: rng.usize(64),
        }),
        TraceEvent::Fault(FaultEvent {
            time: rng.f64(),
            link: rng.usize(8),
            kind: FAULT_KINDS[rng.usize(FAULT_KINDS.len())],
            node: rng.usize(64),
            flow: rng.u32() % 4096,
            value: rng.f64(),
        }),
    ]
}

#[test]
fn every_variant_round_trips_byte_identically_randomized() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    for _ in 0..500 {
        for ev in random_events(&mut rng) {
            assert_round_trips(ev);
        }
    }
}

#[test]
fn extreme_values_round_trip() {
    assert_round_trips(TraceEvent::Enqueue(EnqueueEvent {
        time: f64::MIN_POSITIVE,
        link: usize::MAX,
        leaf: 0,
        pkt: PacketInfo {
            id: u64::MAX,
            flow: u32::MAX,
            len_bytes: u32::MAX,
            arrival: f64::MAX,
        },
        queue_depth: usize::MAX,
        queue_bytes: u64::MAX,
    }));
    assert_round_trips(TraceEvent::Dispatch(DispatchEvent {
        time: 0.1 + 0.2, // classic non-representable decimal sum
        link: 0,
        node: 0,
        session: 0,
        child: 0,
        start_tag: f64::EPSILON,
        finish_tag: 1.0 / 3.0,
        phi: 2.0_f64.powi(-60),
        v_before: 0.0,
        v_after: -0.0,
        head_bits: 1e300,
        node_rate: 5e-324, // smallest subnormal
        policy: "fifo",
    }));
}

#[test]
fn merge_traces_empty_inputs() {
    let no_traces: [&str; 0] = [];
    assert_eq!(merge_traces(&no_traces), "");
    assert_eq!(merge_traces(&["", "\n\n"]), "");
    let one = "{\"ev\":\"busy_reset\",\"t\":1,\"link\":0,\"node\":0}\n";
    assert_eq!(merge_traces(&["", one]), one);
}

#[test]
fn merge_traces_single_link_is_identity() {
    let mut rng = Rng(42);
    let mut obs = JsonlObserver::new(Vec::new());
    let mut t = 0.0;
    for _ in 0..50 {
        t += rng.f64();
        obs.on_busy_reset(&BusyResetEvent {
            time: t,
            link: 0,
            node: rng.usize(8),
        });
    }
    let trace = String::from_utf8(obs.into_inner()).unwrap();
    assert_eq!(merge_traces(&[trace.as_str()]), trace);
}

#[test]
fn merge_traces_duplicate_timestamps_stable_within_link_ordered_across() {
    // Two links, every event at the same instant: links must interleave by
    // id, and each link's internal emission order must be preserved.
    let l0 = "{\"ev\":\"busy_reset\",\"t\":0.5,\"link\":0,\"node\":10}\n\
              {\"ev\":\"busy_reset\",\"t\":0.5,\"link\":0,\"node\":11}\n";
    let l1 = "{\"ev\":\"busy_reset\",\"t\":0.5,\"link\":1,\"node\":20}\n\
              {\"ev\":\"busy_reset\",\"t\":0.5,\"link\":1,\"node\":21}\n";
    let merged = merge_traces(&[l1, l0]);
    let nodes: Vec<u64> = merged
        .lines()
        .map(|l| match parse_line(l) {
            Some(TraceEvent::BusyReset(b)) => b.node as u64,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(nodes, [10, 11, 20, 21]);
    // Merging is idempotent: re-merging the merged trace changes nothing.
    assert_eq!(merge_traces(&[merged.as_str()]), merged);
}
