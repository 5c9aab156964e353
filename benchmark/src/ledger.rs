//! The per-layer cost ledger: one traced run of a workload, the replays of
//! its log, and the arithmetic that turns spans into metrics.
//!
//! The ledger reconciles by construction. Each layer's line is its spans'
//! self time per delivered packet; `network.residual_ns_per_pkt` is the
//! end-to-end figure (measured here exactly as `bench` measures it, with
//! tracing off) minus the sum of those lines. What the residual holds is
//! therefore named, not hidden: the `Network` glue between the layers
//! (route lookups, `SourceOutput` vectors, boxed source dispatch, link
//! bookkeeping), cache effects of running the layers interleaved instead of
//! one at a time, and the error of the layer measurements themselves.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hpfq_obs::{MetricsObserver, NoopObserver};

use crate::alloc;
use crate::measure::Summary;
use crate::replay::{
    annotate, count_log, replay_events, replay_hierarchy, replay_sources, replay_stats,
    EventsOutcome, Log, LogObserver, SourcesOutcome,
};
use crate::report::{MetricDef, Outcome, PER_LAYER};
use crate::span::{self, Name, Overhead, RawSpan, Table};
use crate::workloads::{measure, prepare, run_rep, Rep, Workload, CHECKS_PER_REP, SLICES};

/// The traced window is this share of the host time `--seconds` asks
/// `bench` to measure (0.31 s at the default 10): the log costs ~50 bytes
/// per event and is replayed fifteen times, and the layer figures need no
/// more.
const WINDOW_SHARE: f64 = 1.0 / 32.0;

/// The ledger's layers and the spans that belong to each.
const LAYERS: &[(&str, &[Name])] = &[
    ("events", &[Name::EventsPush, Name::EventsPop]),
    ("source", &[Name::SourceWake]),
    ("stats", &[Name::StatsRecord]),
    (
        "hierarchy",
        &[
            Name::HierarchyEnqueue,
            Name::HierarchyStart,
            Name::HierarchyComplete,
        ],
    ),
    (
        "pifo",
        &[Name::PifoBacklog, Name::PifoSelect, Name::PifoRequeue],
    ),
    (
        "eligible",
        &[
            Name::EligibleInsert,
            Name::EligibleThreshold,
            Name::EligiblePop,
        ],
    ),
    ("tcp", &[Name::TcpWake, Name::TcpDelivered]),
];

/// Whether metric `name` is a line of the ledger: a layer's self time per
/// delivered packet, or the residual. The lines add up to
/// `trace.bench_ns_per_pkt`.
pub fn is_ledger_line(name: &str) -> bool {
    name.ends_with(".self_ns_per_pkt")
        || name == "stats.record_ns_per_pkt"
        || name == "network.residual_ns_per_pkt"
}

/// The checks made along the way; failures end the run non-zero.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{what}: {}", detail()));
        }
    }

    /// The per-repetition checks `run_rep` already made.
    fn rep(&mut self, what: &str, rep: &Rep) {
        self.attempted += CHECKS_PER_REP;
        self.failures
            .extend(rep.failed_checks.iter().map(|f| format!("{what}: {f}")));
    }
}

/// Runs and replay passes per figure. Every figure here is the composite
/// of this many repetitions of identical work, each segment taken at its
/// fastest (see [`Rep::fastest_of`] and [`Table::fastest_of`]).
const REPEATS: usize = 5;

/// Wall time after which the runs, and then the replay passes, stop
/// repeating (one of each is always made): on a host that takes the CPU away
/// for long stretches the driver's 180 s limit matters more than a fifth
/// pass. A quiet host needs 15-50 s for everything.
const RUNS_WALL_CAP: Duration = Duration::from_secs(60);
const PASSES_WALL_CAP: Duration = Duration::from_secs(110);

/// Of those, how many also make the two side measurements (the metrics
/// observer's overhead, the two-shard run) no ledger line depends on.
const SIDE_REPEATS: usize = 3;

fn ns_per_pkt(rep: &Rep) -> f64 {
    rep.window_ns() as f64 / rep.window_pkts().max(1) as f64
}

/// One workload's traced run and replays: the per-layer metrics, and the
/// raw spans kept for `trace-<workload>.jsonl`.
pub fn trace_workload(name: &str, seed: u64, seconds: f64) -> (Outcome, Vec<RawSpan>) {
    let w = Workload::by_name(name, seed).expect("name was validated by Args::parse");
    let window = seconds * w.sim_per_host_s * WINDOW_SHARE;
    let horizon = w.t_warm + window;
    let mut checks = Checks::default();

    span::reset(SLICES);
    let overhead = span::calibrate();
    // The calibration's own spans are not part of any pass.
    span::take_pass();

    // 1. Four kinds of run, interleaved so the host treats them alike:
    //    the reference (what `bench` runs, tracing off; the allocator's
    //    counters are read around the first one's measured window), the
    //    traced run (a logging observer on every link; the first one's log
    //    is the one replayed), the same under the metrics-registry observer
    //    (the always-on instrumentation budget), and two shards
    //    (single-link workloads fall back to the sequential loop, which the
    //    report says).
    let (mut plain, mut traced, mut with_metrics) = (Vec::new(), Vec::new(), Vec::new());
    let mut allocs = None;
    let mut first_log = None;
    let mut traced_stats = None;
    let mut par_ns = f64::INFINITY;
    let mut par_total = 0;
    let mut fallback = false;
    let started = Instant::now();
    for repeat in 0..REPEATS {
        if repeat > 0 && started.elapsed() > RUNS_WALL_CAP {
            break;
        }
        let before_build = alloc::snapshot();
        let warm = prepare(&w, |_| NoopObserver);
        let before_window = alloc::snapshot();
        let (rep, built) = measure(&w, warm, window);
        allocs.get_or_insert((before_build, before_window, alloc::snapshot()));
        drop(built);
        checks.rep("untraced run", &rep);
        plain.push(rep);

        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (rep, built) = run_rep(&w, window, |_| LogObserver(Rc::clone(&log)));
        checks.rep("traced run", &rep);
        let mut net = built.net;
        traced_stats.get_or_insert(std::mem::take(&mut net.stats));
        // Dropping the network drops its observers, the log's other owners.
        drop(net);
        first_log.get_or_insert_with(|| {
            Rc::try_unwrap(log)
                .expect("the observers were dropped with their network")
                .into_inner()
        });
        traced.push(rep);

        if repeat < SIDE_REPEATS {
            let (rep, _) = run_rep(&w, window, |_| MetricsObserver::new());
            checks.rep("metrics-observer run", &rep);
            with_metrics.push(rep);

            let mut warm = prepare(&w, |_| NoopObserver);
            // Wall time here, not thread CPU time: the shards run on other
            // threads.
            let t0 = Instant::now();
            let report = warm.built.net.run_parallel(horizon, 2);
            par_ns = par_ns.min(t0.elapsed().as_nanos() as f64);
            fallback = report.fallback.is_some();
            par_total = warm.built.net.stats.total_packets;
        }
    }
    let (before_build, before_window, after_window) = allocs.expect("REPEATS > 0");
    let (mut log, traced_stats) = (
        first_log.expect("REPEATS > 0"),
        traced_stats.expect("REPEATS > 0"),
    );
    let plain = Rep::fastest_of(&plain);
    let traced = Rep::fastest_of(&traced);
    let with_metrics = Rep::fastest_of(&with_metrics);
    let pkts = plain.window_pkts().max(1) as f64;
    let bench_ns = ns_per_pkt(&plain);
    checks.check(
        "observer leaves the simulation unchanged",
        traced.digest == plain.digest,
        || {
            format!(
                "sim_digest {:016x} traced vs {:016x} untraced",
                traced.digest, plain.digest
            )
        },
    );
    checks.check(
        "run_parallel(_, 2) delivers the sequential packet count",
        par_total == traced_stats.total_packets,
        || {
            format!(
                "{par_total} packets sharded vs {} sequential",
                traced_stats.total_packets
            )
        },
    );
    annotate(&w, &mut log);
    let counts = count_log(&w, &log, w.t_warm);
    checks.check(
        "log covers the window",
        counts.delivered == plain.window_pkts(),
        || {
            format!(
                "log has {} deliveries in the window, the run counted {}",
                counts.delivered,
                plain.window_pkts()
            )
        },
    );

    // 2. The replays, one layer at a time, REPEATS passes over the log;
    //    each pass once with per-call spans and once unspanned.
    let mut passes = Vec::new();
    let mut events = EventsOutcome::default();
    let mut sources = SourcesOutcome::default();
    for pass in 0..REPEATS {
        if pass > 0 && started.elapsed() > PASSES_WALL_CAP {
            break;
        }
        let fid = replay_hierarchy(&w, &log, w.t_warm, window, true);
        replay_hierarchy(&w, &log, w.t_warm, window, false);
        events = replay_events(&w, &log, w.t_warm, window, true);
        replay_events(&w, &log, w.t_warm, window, false);
        sources = replay_sources(&w, &log, w.t_warm, window);
        let stats = replay_stats(&w, &log, w.t_warm, window, true);
        replay_stats(&w, &log, w.t_warm, window, false);
        passes.push(span::take_pass());
        if pass > 0 {
            continue; // the replays are deterministic: one verdict is all of them
        }
        checks.check("hierarchy replay", fid.first.is_none(), || {
            fid.describe("transmission order")
        });
        checks.check("source replay", sources.fidelity.first.is_none(), || {
            sources.fidelity.describe("emitted packets")
        });
        let same_stats = stats.total_packets == traced_stats.total_packets
            && stats.total_bytes == traced_stats.total_bytes
            && traced_stats
                .flows()
                .into_iter()
                .all(|f| stats.flow(f) == traced_stats.flow(f));
        checks.check("stats replay", same_stats, || {
            "replayed SimStats differ from the traced run's".to_owned()
        });
    }
    drop(log);
    let spans = Table::fastest_of(&passes);

    // The ledger. A span's clock cost inside a real replay is not quite
    // what an empty loop calibrates (the tracer's own cache lines compete
    // with the layer's), and at a dozen spans per packet a few ns per span
    // move whole layers. Where a group has an unspanned total there is one
    // unknown — the clock cost per span, `fit` times the calibrated one —
    // and one equation: the group's self times must add up to the total
    // measured without spans. That pins the clock cost as it was in this
    // replay; the calibration only supplies its inner:outer proportion.
    let agg = |n: Name| spans.total(n);
    let names_of = |group: &[&str]| -> Vec<Name> {
        LAYERS
            .iter()
            .filter(|(l, _)| group.contains(l))
            .flat_map(|(_, names)| names.iter().copied())
            .collect()
    };
    let fit = |group: &[&str], unspanned: Name| -> f64 {
        let (mut raw, mut clock) = (0.0, 0.0);
        for a in names_of(group).into_iter().map(agg) {
            raw += a.total_ns as f64 - a.child_ns as f64;
            clock += overhead.inner_ns * a.count as f64 + overhead.outer_ns * a.children as f64;
        }
        let total = agg(unspanned).total_ns as f64;
        if clock > 0.0 {
            ((raw - total) / clock).clamp(0.0, 4.0)
        } else {
            1.0
        }
    };
    let sched_fit = fit(&["hierarchy", "pifo", "eligible"], Name::SchedUnspanned);
    let events_fit = fit(&["events"], Name::EventsUnspanned);
    let stats_fit = fit(&["stats"], Name::StatsUnspanned);
    let overhead_in = |layer: &str| -> Overhead {
        let k = match layer {
            "hierarchy" | "pifo" | "eligible" => sched_fit,
            "events" => events_fit,
            // The source and TCP replays are flat one-span-per-call loops
            // like the stats replay, and have no unspanned total of their
            // own (the calls are too short against their loops).
            _ => stats_fit,
        };
        Overhead {
            inner_ns: overhead.inner_ns * k,
            outer_ns: overhead.outer_ns * k,
        }
    };
    let layer_of = |n: Name| {
        LAYERS
            .iter()
            .find(|(_, names)| names.contains(&n))
            .map_or("", |(l, _)| *l)
    };
    let self_per_pkt = |layer: &str| -> f64 {
        let oh = overhead_in(layer);
        names_of(&[layer])
            .into_iter()
            .map(|n| agg(n).self_ns(oh))
            .sum::<f64>()
            / pkts
    };
    let layers_sum: f64 = LAYERS.iter().map(|(l, _)| self_per_pkt(l)).sum();
    let residual = bench_ns - layers_sum;
    let calls = |names: &[Name]| names.iter().map(|&n| agg(n).count).sum::<u64>() as f64;
    let mean = |n: Name| agg(n).mean_ns(overhead_in(layer_of(n)));
    let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let pct_over = |x: f64, base: f64| (x / base - 1.0) * 100.0;
    let members_sum = spans.eligible_members_sum as f64;

    let value = |d: &MetricDef| -> f64 {
        match d.name {
            "events.push_ns" => mean(Name::EventsPush),
            "events.pop_ns" => mean(Name::EventsPop),
            "events.per_pkt" => agg(Name::EventsPop).count as f64 / pkts,
            "events.peak_outstanding" => events.peak_outstanding as f64,
            "events.self_ns_per_pkt" => self_per_pkt("events"),
            "source.wake_ns" => mean(Name::SourceWake),
            "source.allocs_per_wake" => share(sources.wake_allocs, sources.wakes),
            "source.self_ns_per_pkt" => self_per_pkt("source"),
            "stats.record_ns_per_pkt" => self_per_pkt("stats"),
            "hierarchy.enqueue_ns" => mean(Name::HierarchyEnqueue),
            "hierarchy.start_ns" => mean(Name::HierarchyStart),
            "hierarchy.complete_ns" => mean(Name::HierarchyComplete),
            "hierarchy.self_ns_per_pkt" => self_per_pkt("hierarchy"),
            "hierarchy.path_len_mean" => share(counts.path_len_sum, counts.transmissions),
            "pifo.backlog_ns" => mean(Name::PifoBacklog),
            "pifo.select_ns" => mean(Name::PifoSelect),
            "pifo.requeue_ns" => mean(Name::PifoRequeue),
            "pifo.calls_per_pkt" => {
                calls(&[Name::PifoBacklog, Name::PifoSelect, Name::PifoRequeue]) / pkts
            }
            "pifo.self_ns_per_pkt" => self_per_pkt("pifo"),
            "eligible.insert_ns" => mean(Name::EligibleInsert),
            "eligible.threshold_ns" => mean(Name::EligibleThreshold),
            "eligible.pop_ns" => mean(Name::EligiblePop),
            "eligible.ops_per_pkt" => {
                calls(&[
                    Name::EligibleInsert,
                    Name::EligibleThreshold,
                    Name::EligiblePop,
                ]) / pkts
            }
            "eligible.mean_members" => members_sum / agg(Name::EligiblePop).count.max(1) as f64,
            "eligible.self_ns_per_pkt" => self_per_pkt("eligible"),
            "tcp.on_delivered_ns" => mean(Name::TcpDelivered),
            "tcp.self_ns_per_pkt" => self_per_pkt("tcp"),
            "tcp.retransmit_share" => share(counts.tcp_retransmits, counts.tcp_offered),
            "tcp.goodput_share" => share(counts.tcp_delivered_new, counts.tcp_delivered),
            "network.residual_ns_per_pkt" => residual,
            "network.residual_share" => residual / bench_ns,
            "network.allocs_per_pkt" => (after_window.count - before_window.count) as f64 / pkts,
            "network.alloc_bytes_per_pkt" => {
                (after_window.bytes - before_window.bytes) as f64 / pkts
            }
            "network.drop_share" => share(counts.dropped, counts.offered),
            "network.hops_per_pkt" => share(counts.transmissions, counts.delivered),
            "network.bytes_per_flow" => {
                (before_window.live - before_build.live).max(0) as f64 / w.flows.len() as f64
            }
            "parallel.par2_ns_per_pkt" => par_ns / pkts,
            "parallel.speedup_2" => plain.window_ns() as f64 / par_ns,
            "parallel.fallback" => f64::from(u8::from(fallback)),
            "obs.metrics_overhead_pct" => pct_over(ns_per_pkt(&with_metrics), bench_ns),
            "trace.overhead_pct" => pct_over(ns_per_pkt(&traced), bench_ns),
            "trace.span_overhead_ns" => (overhead.inner_ns + overhead.outer_ns) * sched_fit,
            "trace.bench_ns_per_pkt" => bench_ns,
            "setup.build_s" => plain.build_ns as f64 / 1e9,
            "setup.warmup_s" => plain.warm_ns.iter().sum::<u64>() as f64 / 1e9,
            other => unreachable!("no measurement for per-layer metric {other}"),
        }
    };
    let metrics: Vec<(MetricDef, Summary)> = PER_LAYER
        .iter()
        .map(|d| (*d, Summary::one(value(d))))
        .collect();
    // The reported lines, read back by name: the table must add up, not
    // just the arithmetic above.
    let lines: f64 = metrics
        .iter()
        .filter(|(d, _)| is_ledger_line(d.name))
        .map(|(_, s)| s.value)
        .sum();
    checks.check(
        "ledger lines add up to trace.bench_ns_per_pkt",
        ((lines - bench_ns) / bench_ns).abs() < 0.01,
        || format!("lines sum to {lines:.1}, the whole is {bench_ns:.1} ns/packet"),
    );
    let raw = span::with(|t| t.raw().to_vec());
    let outcome = Outcome {
        workload: w.name,
        metrics,
        sim_digest: plain.digest,
        attempted: checks.attempted,
        failures: checks.failures,
    };
    (outcome, raw)
}
