//! The four benchmark workloads as plain data, and the code that turns one
//! into a running [`Network`].
//!
//! A [`Workload`] is a description — link trees, flows, routes — generated
//! from the seed alone. Both binaries instantiate it through [`build`], so
//! `bench` (tracing off) and `trace` (the per-layer ledger) measure the same
//! inputs; `trace` additionally re-instantiates single link trees over
//! instrumented schedulers through [`hierarchy`].
//!
//! Only the engine surface the issue pins down is used on this path:
//! `SchedulerKind::Wf2qPlus.build`, the hierarchy builder,
//! `Network::{new, add_link, add_route, run, stats, verify_conservation}`
//! (plus the read-only `queued_bytes`/`link_ledger` for the accounting
//! check), `Hop`/`Route`, the CBR/Poisson/TCP sources and
//! `hpfq_analysis::corollary2_bound`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpfq_analysis::corollary2_bound;
use hpfq_core::{Hierarchy, MixedScheduler, NodeId, NodeScheduler, Packet, SchedulerKind};
use hpfq_obs::Observer;
use hpfq_sim::{CbrSource, Hop, Network, PoissonSource, Route, Source, SourceOutput};
use hpfq_tcp::{TcpConfig, TcpSource};

use crate::measure::{median, tail_percentile, thread_cpu_ns, Fnv};

/// Workload names, in report order.
pub const NAMES: [&str; 4] = ["light64", "deep6_sat", "wide128k", "tandem4"];

/// Slices the measured window is cut into (`ns_per_pkt_p50`/`p95` are
/// taken over these).
pub const SLICES: usize = 200;

const GBIT: f64 = 1e9;
const PROBE_LEN: u32 = 200;
const LOAD_LEN: u32 = 500;

/// One non-root node of a link's tree; node `i` of [`LinkSpec::nodes`] gets
/// `NodeId(i + 1)` (ids are dense in creation order, the root is 0).
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// `NodeId` of the parent.
    pub parent: usize,
    /// Share of the parent's rate.
    pub phi: f64,
    /// Leaf (real queue) or internal class.
    pub leaf: bool,
}

/// One output link: its rate and its tree.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Link rate in bits/s.
    pub rate: f64,
    /// Non-root nodes in creation order.
    pub nodes: Vec<NodeSpec>,
}

impl LinkSpec {
    fn new(rate: f64) -> Self {
        LinkSpec {
            rate,
            nodes: Vec::new(),
        }
    }

    fn add(&mut self, parent: usize, phi: f64, leaf: bool) -> usize {
        self.nodes.push(NodeSpec { parent, phi, leaf });
        self.nodes.len()
    }

    /// Guaranteed rates from `node` up to (excluding) the root — the
    /// `rates_path` argument of `corollary2_bound`.
    fn rates_path(&self, mut node: usize) -> Vec<f64> {
        let mut chain = Vec::new();
        while node != 0 {
            chain.push(node);
            node = self.nodes[node - 1].parent;
        }
        // Rate of a node = link rate x product of shares from the root down.
        let mut rates = vec![0.0; chain.len()];
        let mut r = self.rate;
        for (i, &n) in chain.iter().enumerate().rev() {
            r *= self.nodes[n - 1].phi;
            rates[i] = r;
        }
        rates
    }
}

/// The arrival process of one flow.
#[derive(Debug, Clone, Copy)]
pub enum Gen {
    /// `CbrSource`: `len` bytes at `rate` bits/s, first packet at `start`.
    Cbr { len: u32, rate: f64, start: f64 },
    /// `PoissonSource`: `len` bytes averaging `rate` bits/s.
    Poisson { len: u32, rate: f64, seed: u64 },
    /// Greedy `TcpSource` with the workload's [`Workload::tcp`] config.
    Tcp,
}

/// One hop of a flow's route.
#[derive(Debug, Clone, Copy)]
pub struct HopSpec {
    pub link: usize,
    /// `NodeId` of the leaf on that link.
    pub leaf: usize,
    pub buffer_bytes: Option<u64>,
    pub prop_delay: f64,
}

/// One flow: flow id = its index in [`Workload::flows`].
#[derive(Debug, Clone)]
pub struct FlowSpec {
    pub gen: Gen,
    /// Range into [`Workload::hops`].
    pub hops: Range<usize>,
    /// For probe flows, the delay bound in seconds (queueing + transmission,
    /// propagation excluded): Corollary 2 at each hop, summed over hops.
    pub probe_bound: Option<f64>,
}

/// A benchmark workload: everything needed to build and run it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Repetitions per run.
    pub reps: usize,
    pub links: Vec<LinkSpec>,
    pub flows: Vec<FlowSpec>,
    pub hops: Vec<HopSpec>,
    pub tcp: TcpConfig,
    /// Simulated seconds of warm-up before the measured window.
    pub t_warm: f64,
    /// Simulated seconds one host second buys at the seed commit. Fixes the
    /// window length (= the work measured) as a function of `--seconds`
    /// only, so a faster engine finishes the same work sooner.
    pub sim_per_host_s: f64,
}

/// Splitmix64: phases and Poisson seeds are a pure function of `--seed`.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Workload {
    /// The workload called `name` with inputs drawn from `seed`.
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "light64" => Some(Self::light64(seed)),
            "deep6_sat" => Some(Self::deep6_sat(seed)),
            "wide128k" => Some(Self::wide128k(seed)),
            "tandem4" => Some(Self::tandem4(seed)),
            _ => None,
        }
    }

    fn empty(name: &'static str, reps: usize, t_warm: f64, sim_per_host_s: f64) -> Workload {
        Workload {
            name,
            reps,
            links: Vec::new(),
            flows: Vec::new(),
            hops: Vec::new(),
            tcp: TcpConfig::default(),
            t_warm,
            sim_per_host_s,
        }
    }

    /// Simulated length of one repetition's measured window when the whole
    /// run is asked to measure for `seconds` host seconds.
    pub fn window_sim(&self, seconds: f64) -> f64 {
        seconds / self.reps as f64 * self.sim_per_host_s
    }

    fn add_flow(&mut self, gen: Gen, hops: &[HopSpec], probe: bool) {
        let lo = self.hops.len();
        self.hops.extend_from_slice(hops);
        let probe_bound = probe.then(|| {
            let Gen::Cbr { len, .. } = gen else {
                unreachable!("probes are CBR")
            };
            // A CBR stream below its guaranteed rate is (one packet, r_i)
            // leaky-bucket conformant, and with sigma = L the per-hop bounds
            // add up to the Parekh-Gallager tandem bound.
            hops.iter()
                .map(|h| {
                    let link = &self.links[h.link];
                    corollary2_bound(
                        f64::from(len) * 8.0,
                        self.l_max_bits(h.link),
                        &link.rates_path(h.leaf),
                    )
                })
                .sum()
        });
        self.flows.push(FlowSpec {
            gen,
            hops: lo..self.hops.len(),
            probe_bound,
        });
    }

    /// Largest packet any flow sends over `link`, in bits. Probes are added
    /// after the load flows, so this sees every competitor.
    fn l_max_bits(&self, link: usize) -> f64 {
        let tcp_len = self.tcp.mss_bytes;
        self.flows
            .iter()
            .filter(|f| self.hops[f.hops.clone()].iter().any(|h| h.link == link))
            .map(|f| match f.gen {
                Gen::Cbr { len, .. } | Gen::Poisson { len, .. } => len,
                Gen::Tcp => tcp_len,
            })
            .max()
            .map_or(f64::from(PROBE_LEN) * 8.0, |l| f64::from(l) * 8.0)
    }

    /// A CBR flow of `len`-byte packets at `rate` with a seeded phase.
    fn cbr(mix: &mut Mix, len: u32, rate: f64) -> Gen {
        let interval = f64::from(len) * 8.0 / rate;
        Gen::Cbr {
            len,
            rate,
            start: mix.unit() * interval,
        }
    }

    fn single_hop(leaf: usize, buffer_pkts: Option<u64>, len: u32) -> [HopSpec; 1] {
        [HopSpec {
            link: 0,
            leaf,
            buffer_bytes: buffer_pkts.map(|n| n * u64::from(len)),
            prop_delay: 0.0,
        }]
    }

    /// Flat 64-leaf tree at 10 % load: the engine around an idle scheduler.
    fn light64(seed: u64) -> Workload {
        let mut mix = Mix(seed);
        let mut w = Self::empty("light64", 20, 4.0, 80.0);
        let mut link = LinkSpec::new(GBIT);
        const PROBES: usize = 2;
        const LOAD: usize = 62;
        let probe_phi = 1.0 / 512.0;
        let load_phi = (1.0 - PROBES as f64 * probe_phi) / LOAD as f64;
        let load_leaves: Vec<usize> = (0..LOAD).map(|_| link.add(0, load_phi, true)).collect();
        let probe_leaves: Vec<usize> = (0..PROBES).map(|_| link.add(0, probe_phi, true)).collect();
        w.links.push(link);
        let probe_rate = 0.9 * probe_phi * GBIT;
        let load_rate = (0.10 * GBIT - PROBES as f64 * probe_rate) / LOAD as f64;
        // The load flows share one rate and are staggered evenly over one
        // packet interval (the seed shifts the whole comb), so they never
        // queue behind each other; the probes run at slightly different
        // rates and drift through every alignment with the comb and with
        // each other. The worst probe delay is then a property of the
        // configuration — one load packet in service, the other probe, its
        // own transmission — not of which phases a seed happened to draw.
        let interval = f64::from(LOAD_LEN) * 8.0 / load_rate;
        let shift = mix.unit();
        for (k, &leaf) in load_leaves.iter().enumerate() {
            let gen = Gen::Cbr {
                len: LOAD_LEN,
                rate: load_rate,
                start: (k as f64 + shift) * interval / LOAD as f64,
            };
            w.add_flow(gen, &Self::single_hop(leaf, Some(64), LOAD_LEN), false);
        }
        for (j, &leaf) in probe_leaves.iter().enumerate() {
            let gen = Self::cbr(&mut mix, PROBE_LEN, probe_rate * (1.0 - j as f64 * 2e-4));
            w.add_flow(gen, &Self::single_hop(leaf, None, PROBE_LEN), true);
        }
        w
    }

    /// Six levels, fanout four, every leaf overloaded: RESET-PATH /
    /// RESTART-NODE over six backlogged nodes on every dispatch.
    fn deep6_sat(seed: u64) -> Workload {
        let mut mix = Mix(seed);
        let mut w = Self::empty("deep6_sat", 20, 2.5, 2.0);
        let mut link = LinkSpec::new(GBIT);
        const DEPTH: usize = 6;
        const FANOUT: usize = 4;
        const PROBE_DEPTH: usize = 3;
        let mut level = vec![0usize];
        let mut probe_leaves = Vec::new();
        let mut load_leaves = Vec::new();
        // (node, first-descendant flag carried down from the depth-3 node)
        let mut first_under: Vec<bool> = vec![false];
        for depth in 1..=DEPTH {
            let mut next = Vec::with_capacity(level.len() * FANOUT);
            let mut next_first = Vec::with_capacity(level.len() * FANOUT);
            for (pi, &parent) in level.iter().enumerate() {
                for c in 0..FANOUT {
                    let node = link.add(parent, 1.0 / FANOUT as f64, depth == DEPTH);
                    let first = if depth == PROBE_DEPTH {
                        true
                    } else {
                        first_under[pi] && c == 0
                    };
                    next.push(node);
                    next_first.push(first);
                }
            }
            level = next;
            first_under = next_first;
        }
        for (&leaf, &first) in level.iter().zip(&first_under) {
            if first {
                probe_leaves.push(leaf);
            } else {
                load_leaves.push(leaf);
            }
        }
        w.links.push(link);
        let r_leaf = GBIT / (FANOUT as f64).powi(DEPTH as i32);
        for &leaf in &load_leaves {
            let gen = Self::cbr(&mut mix, LOAD_LEN, 1.2 * r_leaf);
            w.add_flow(gen, &Self::single_hop(leaf, Some(32), LOAD_LEN), false);
        }
        for &leaf in &probe_leaves {
            let gen = Self::cbr(&mut mix, PROBE_LEN, 0.9 * r_leaf);
            w.add_flow(gen, &Self::single_hop(leaf, None, PROBE_LEN), true);
        }
        w
    }

    /// One node, 131 072 Poisson flows: the eligible set and the event
    /// queue at a size that misses the caches.
    fn wide128k(seed: u64) -> Workload {
        let mut mix = Mix(seed);
        let mut w = Self::empty("wide128k", 12, 1.0, 0.6);
        let mut link = LinkSpec::new(GBIT);
        const LEAVES: usize = 131_072;
        const PROBES: usize = 64;
        let phi = 1.0 / LEAVES as f64;
        let leaves: Vec<usize> = (0..LEAVES).map(|_| link.add(0, phi, true)).collect();
        w.links.push(link);
        let r_leaf = GBIT * phi;
        let stride = LEAVES / PROBES;
        let (mut probes, mut load) = (Vec::new(), Vec::new());
        for (i, &leaf) in leaves.iter().enumerate() {
            if i % stride == 0 {
                probes.push(leaf);
            } else {
                load.push(leaf);
            }
        }
        for &leaf in &load {
            let gen = Gen::Poisson {
                len: LOAD_LEN,
                rate: 1.2 * r_leaf,
                seed: mix.next(),
            };
            w.add_flow(gen, &Self::single_hop(leaf, Some(8), LOAD_LEN), false);
        }
        for &leaf in &probes {
            let gen = Self::cbr(&mut mix, PROBE_LEN, 0.9 * r_leaf);
            w.add_flow(gen, &Self::single_hop(leaf, None, PROBE_LEN), true);
        }
        w
    }

    /// Four 100 Mb/s links in tandem with cross traffic, multi-hop probes
    /// and closed-loop TCP: re-admission, delivery callbacks, loss.
    fn tandem4(seed: u64) -> Workload {
        let mut mix = Mix(seed);
        let mut w = Self::empty("tandem4", 20, 2.0, 11.0);
        const LINKS: usize = 4;
        const RATE: f64 = 100e6;
        const THROUGH: usize = 6;
        const CROSS: usize = 8;
        const CROSS_LEN: u32 = 512;
        const PROP: f64 = 0.002;
        w.tcp = TcpConfig {
            mss_bytes: 1024,
            ack_delay: 0.008,
            ..TcpConfig::default()
        };
        let mut through_leaves = Vec::new();
        let mut cross_leaves = Vec::new();
        for _ in 0..LINKS {
            let mut link = LinkSpec::new(RATE);
            let through = link.add(0, 0.4, false);
            let cross = link.add(0, 0.6, false);
            through_leaves = (0..THROUGH)
                .map(|_| link.add(through, 1.0 / THROUGH as f64, true))
                .collect();
            cross_leaves = (0..CROSS)
                .map(|_| link.add(cross, 1.0 / CROSS as f64, true))
                .collect();
            w.links.push(link);
        }
        let r_cross = RATE * 0.6 / CROSS as f64;
        let r_through = RATE * 0.4 / THROUGH as f64;
        for link in 0..LINKS {
            for &leaf in &cross_leaves {
                let gen = Self::cbr(&mut mix, CROSS_LEN, 1.1 * r_cross);
                let hop = HopSpec {
                    link,
                    leaf,
                    buffer_bytes: Some(32 * u64::from(CROSS_LEN)),
                    prop_delay: 0.0,
                };
                w.add_flow(gen, &[hop], false);
            }
        }
        let path = |leaf: usize, buffer_bytes: Option<u64>, reverse: bool| -> Vec<HopSpec> {
            let mut hops: Vec<HopSpec> = (0..LINKS)
                .map(|link| HopSpec {
                    link,
                    leaf,
                    buffer_bytes,
                    prop_delay: PROP,
                })
                .collect();
            if reverse {
                hops.reverse();
            }
            hops
        };
        for k in 0..4 {
            w.add_flow(
                Gen::Tcp,
                &path(through_leaves[2 + k], Some(64 * 1024), false),
                false,
            );
        }
        for (k, reverse) in [false, true].into_iter().enumerate() {
            let gen = Self::cbr(&mut mix, PROBE_LEN, 0.9 * r_through);
            w.add_flow(gen, &path(through_leaves[k], None, reverse), true);
        }
        w
    }

    /// The hops of flow `f`.
    pub fn hops_of(&self, f: usize) -> &[HopSpec] {
        &self.hops[self.flows[f].hops.clone()]
    }
}

/// Builds link `link`'s tree over any node scheduler and observer.
pub fn hierarchy<S: NodeScheduler, O: Observer>(
    link: &LinkSpec,
    factory: impl Fn(f64) -> S + 'static,
    obs: O,
) -> Hierarchy<S, O> {
    let mut b = Hierarchy::builder_with_observer(link.rate, factory, obs);
    for n in &link.nodes {
        let parent = NodeId(n.parent);
        let added = if n.leaf {
            b.add_leaf(parent, n.phi)
        } else {
            b.add_internal(parent, n.phi)
        };
        added.expect("workload trees are valid by construction");
    }
    b.build()
}

/// A multi-hop probe: `FlowStats::delay_max` only covers the last hop of a
/// route (arrival is re-stamped at every hop), so the end-to-end delay is
/// taken here, at delivery, from the packet's birth time.
struct E2eProbe {
    inner: CbrSource,
    /// `f64` bits of the largest delivery delay seen (non-negative floats
    /// order like their bit patterns, so `fetch_max` works).
    max_delay: Arc<AtomicU64>,
}

impl Source for E2eProbe {
    fn start(&mut self) -> SourceOutput {
        self.inner.start()
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        self.inner.on_wake(now)
    }

    fn on_delivered(&mut self, now: f64, pkt: &Packet) -> SourceOutput {
        self.max_delay
            .fetch_max((now - pkt.birth).max(0.0).to_bits(), Ordering::Relaxed);
        SourceOutput::none()
    }
}

fn cbr_source(flow: u32, len: u32, rate: f64, start: f64) -> CbrSource {
    CbrSource::new(flow, len, rate, start, f64::INFINITY)
}

fn poisson_source(flow: u32, len: u32, rate: f64, seed: u64) -> PoissonSource {
    PoissonSource::new(flow, len, rate, 0.0, f64::INFINITY, seed)
}

/// The source object for flow `f` (what the program under test receives),
/// boxed for the replays; [`build`] hands the engine the concrete types.
pub fn source_of(w: &Workload, f: usize) -> Box<dyn Source> {
    let flow = f as u32;
    match w.flows[f].gen {
        Gen::Cbr { len, rate, start } => Box::new(cbr_source(flow, len, rate, start)),
        Gen::Poisson { len, rate, seed } => Box::new(poisson_source(flow, len, rate, seed)),
        Gen::Tcp => Box::new(TcpSource::new(flow, w.tcp)),
    }
}

/// A built network plus the handles needed to read the probes.
pub struct Built<O: Observer> {
    pub net: Network<MixedScheduler, O>,
    /// `(flow, max delivery delay bits)` for multi-hop probes.
    e2e: Vec<(usize, Arc<AtomicU64>)>,
}

/// Instantiates `w`: one WF2Q+ hierarchy per link, every flow routed.
pub fn build<O: Observer>(w: &Workload, mut mk_obs: impl FnMut(usize) -> O) -> Built<O> {
    let mut net = Network::new();
    for (i, link) in w.links.iter().enumerate() {
        let h = hierarchy(link, |r| SchedulerKind::Wf2qPlus.build(r), mk_obs(i));
        net.add_link(h);
    }
    let mut e2e = Vec::new();
    for (f, spec) in w.flows.iter().enumerate() {
        let hops: Vec<Hop> = w
            .hops_of(f)
            .iter()
            .map(|h| Hop {
                link: h.link,
                leaf: NodeId(h.leaf),
                buffer_bytes: h.buffer_bytes,
                prop_delay: h.prop_delay,
            })
            .collect();
        let multi_hop_probe = spec.probe_bound.is_some() && hops.len() > 1;
        let route = Route::new(hops);
        let flow = f as u32;
        // Concrete source types, so the engine's one `Box<dyn Source>` is
        // the only indirection on the wake path.
        match spec.gen {
            Gen::Cbr { len, rate, start } => {
                let inner = cbr_source(flow, len, rate, start);
                if multi_hop_probe {
                    let max_delay = Arc::new(AtomicU64::new(0));
                    e2e.push((f, Arc::clone(&max_delay)));
                    net.add_route(flow, E2eProbe { inner, max_delay }, route);
                } else {
                    net.add_route(flow, inner, route);
                }
            }
            Gen::Poisson { len, rate, seed } => {
                net.add_route(flow, poisson_source(flow, len, rate, seed), route);
            }
            Gen::Tcp => {
                net.add_route(flow, TcpSource::new(flow, w.tcp), route);
            }
        }
    }
    Built { net, e2e }
}

impl<O: Observer> Built<O> {
    /// Worst probe delay over its bound, and whether every probe delivered
    /// at least one packet.
    pub fn rt_delay_over_bound(&self, w: &Workload) -> (f64, bool) {
        let mut worst = 0.0f64;
        let mut all_delivered = true;
        for (f, spec) in w.flows.iter().enumerate() {
            let Some(bound) = spec.probe_bound else {
                continue;
            };
            let stats = self.net.stats.flow(f as u32);
            all_delivered &= stats.packets > 0;
            let delay = match self.e2e.iter().find(|(pf, _)| *pf == f) {
                Some((_, bits)) => {
                    let prop: f64 = w.hops_of(f).iter().map(|h| h.prop_delay).sum();
                    f64::from_bits(bits.load(Ordering::Relaxed)) - prop
                }
                None => stats.delay_max,
            };
            worst = worst.max(delay / bound);
        }
        (worst, all_delivered)
    }

    /// FNV-1a over the simulation's observable outcome: `SimStats` totals,
    /// every per-flow `FlowStats`, and the probe reading. A speed-only
    /// change must leave it unchanged.
    pub fn sim_digest(&self, w: &Workload) -> u64 {
        let s = &self.net.stats;
        let mut h = Fnv::new();
        h.u64(s.total_bytes);
        h.u64(s.total_packets);
        h.f64(s.last_departure);
        for flow in s.flows() {
            let f = s.flow(flow);
            h.u64(u64::from(flow));
            for v in [
                f.packets,
                f.bytes,
                f.drops,
                f.drop_bytes,
                f.offered_packets,
                f.offered_bytes,
                f.accepted_packets,
                f.accepted_bytes,
                f.fault_drops,
                f.fault_drop_bytes,
                f.purged_packets,
                f.purged_bytes,
            ] {
                h.u64(v);
            }
            h.f64(f.delay_sum);
            h.f64(f.delay_max);
            h.f64(f.last_departure);
        }
        h.f64(self.rt_delay_over_bound(w).0);
        h.finish()
    }

    /// The correctness checks run after every repetition; returns the
    /// failures as messages (one entry per failed check, of three).
    pub fn check(&self, w: &Workload) -> Vec<String> {
        let mut failed = Vec::new();
        if let Err(e) = self.net.verify_conservation() {
            failed.push(format!("verify_conservation: {e}"));
        }
        // Bytes between hops, from the per-link ledgers: what left a link
        // that was neither a final-hop service nor re-admitted (or dropped)
        // downstream.
        let s = &self.net.stats;
        let (mut accepted, mut purged) = (0u64, 0u64);
        for flow in s.flows() {
            let f = s.flow(flow);
            accepted += f.accepted_bytes;
            purged += f.purged_bytes;
        }
        let (mut link_in, mut link_out) = (0u64, 0u64);
        for l in 0..w.links.len() {
            let ledger = self.net.link_ledger(l);
            link_in += ledger.bytes_in;
            link_out += ledger.bytes_out;
        }
        let inflight = (link_out + accepted).saturating_sub(s.total_bytes + link_in + purged);
        if let Err(e) = s.accounting_balanced(self.net.queued_bytes() + inflight) {
            failed.push(format!("accounting_balanced: {e}"));
        }
        let (ratio, delivered) = self.rt_delay_over_bound(w);
        if !delivered {
            failed.push("a probe flow delivered no packet".to_owned());
        } else if !(ratio > 0.0 && ratio <= 1.0) {
            failed.push(format!("probe delay is {ratio} of its Corollary 2 bound"));
        }
        failed
    }
}

/// Checks attempted by [`Built::check`].
pub const CHECKS_PER_REP: u64 = 3;

/// Slices the warm-up segment is cut into, so it can be timed the way the
/// window is.
pub const WARM_SLICES: usize = 20;

/// One repetition's raw measurements. Every repetition of a run does the
/// same simulated work segment for segment (the simulation is
/// deterministic), which is what lets `bench` compare segment `i` of one
/// repetition with segment `i` of another.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Thread CPU ns ([`thread_cpu_ns`]) to build hierarchy, links, routes
    /// and sources.
    pub build_ns: u64,
    /// CPU ns per slice of the warm-up segment.
    pub warm_ns: Vec<u64>,
    /// `(CPU ns, delivered packets)` per slice of the measured window.
    pub slices: Vec<(u64, u64)>,
    pub digest: u64,
    pub rt_delay_over_bound: f64,
    pub failed_checks: Vec<String>,
}

impl Rep {
    pub fn setup_ns(&self) -> u64 {
        self.build_ns + self.warm_ns.iter().sum::<u64>()
    }

    pub fn window_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.0).sum()
    }

    pub fn window_pkts(&self) -> u64 {
        self.slices.iter().map(|s| s.1).sum()
    }

    /// The composite repetition: every segment — the build, each warm-up
    /// slice, each window slice — at the fastest any repetition ran it.
    ///
    /// The repetitions do identical work, so a segment's fastest run is the
    /// one the host interfered with least. The build host alternates
    /// between a fast state and episodes (about half a second, every few
    /// seconds) in which everything runs ~1.7x slower; whole-repetition
    /// means and even medians then report the host's duty cycle. Taking
    /// each segment's minimum first removes the episodes wherever at least
    /// one repetition ran the segment undisturbed, and leaves what the
    /// program itself does slowly — that repeats in every repetition.
    pub fn fastest_of(reps: &[Rep]) -> Rep {
        let first = reps.first().expect("at least one repetition");
        let min_at = |pick: &dyn Fn(&Rep) -> u64| reps.iter().map(pick).min().unwrap_or(0);
        Rep {
            build_ns: min_at(&|r| r.build_ns),
            warm_ns: (0..first.warm_ns.len())
                .map(|j| min_at(&|r| r.warm_ns[j]))
                .collect(),
            slices: (0..first.slices.len())
                .map(|i| (min_at(&|r| r.slices[i].0), first.slices[i].1))
                .collect(),
            ..first.clone()
        }
    }

    /// The timed end-to-end metrics of this (raw or composite) repetition.
    pub fn timed(&self) -> Timed {
        let per_pkt: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.1 > 0)
            .map(|s| s.0 as f64 / s.1 as f64)
            .collect();
        Timed {
            setup_s: self.setup_ns() as f64 / 1e9,
            pkts_per_s: self.window_pkts() as f64 / (self.window_ns() as f64 / 1e9),
            ns_per_pkt_p50: median(&per_pkt),
            ns_per_pkt_p95: tail_percentile(&per_pkt).0,
        }
    }
}

/// The timed end-to-end metrics (see [`Rep::timed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub setup_s: f64,
    pub pkts_per_s: f64,
    /// Median over the window's slices of host ns per delivered packet.
    pub ns_per_pkt_p50: f64,
    /// The highest percentile of the same with ten slices beyond it.
    pub ns_per_pkt_p95: f64,
}

/// A built and warmed-up network, ready for its measured window.
pub struct Warm<O: Observer> {
    pub built: Built<O>,
    pub build_ns: u64,
    pub warm_ns: Vec<u64>,
}

/// Runs `net` to `from + len` in `n` equal slices of simulated time,
/// returning `(host ns, delivered packets)` per slice.
fn run_sliced<O: Observer>(
    net: &mut Network<MixedScheduler, O>,
    from: f64,
    len: f64,
    n: usize,
) -> Vec<(u64, u64)> {
    let mut slices = Vec::with_capacity(n);
    let mut delivered = net.stats.total_packets;
    for i in 1..=n {
        let t0 = thread_cpu_ns();
        net.run(from + len * i as f64 / n as f64);
        let ns = thread_cpu_ns() - t0;
        let now = net.stats.total_packets;
        slices.push((ns, now - delivered));
        delivered = now;
    }
    slices
}

/// Builds `w` (timed) and runs its warm-up segment (timed, in
/// [`WARM_SLICES`] slices).
pub fn prepare<O: Observer>(w: &Workload, mk_obs: impl FnMut(usize) -> O) -> Warm<O> {
    let t0 = thread_cpu_ns();
    let mut built = build(w, mk_obs);
    let build_ns = thread_cpu_ns() - t0;
    let warm = run_sliced(&mut built.net, 0.0, w.t_warm, WARM_SLICES);
    Warm {
        built,
        build_ns,
        warm_ns: warm.into_iter().map(|s| s.0).collect(),
    }
}

/// Runs the measured window in [`SLICES`] equal slices of simulated time,
/// then the correctness checks.
pub fn measure<O: Observer>(w: &Workload, warm: Warm<O>, window_sim: f64) -> (Rep, Built<O>) {
    let Warm {
        mut built,
        build_ns,
        warm_ns,
    } = warm;
    let slices = run_sliced(&mut built.net, w.t_warm, window_sim, SLICES);
    let rep = Rep {
        build_ns,
        warm_ns,
        slices,
        digest: built.sim_digest(w),
        rt_delay_over_bound: built.rt_delay_over_bound(w).0,
        failed_checks: built.check(w),
    };
    (rep, built)
}

/// One repetition: [`prepare`] then [`measure`].
pub fn run_rep<O: Observer>(
    w: &Workload,
    window_sim: f64,
    mk_obs: impl FnMut(usize) -> O,
) -> (Rep, Built<O>) {
    measure(w, prepare(w, mk_obs), window_sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfq_obs::NoopObserver;

    fn leaves(l: &LinkSpec) -> usize {
        l.nodes.iter().filter(|n| n.leaf).count()
    }

    fn probes(w: &Workload) -> usize {
        w.flows.iter().filter(|f| f.probe_bound.is_some()).count()
    }

    #[test]
    fn topologies_have_the_documented_shape() {
        let w = Workload::by_name("light64", 1).unwrap();
        assert_eq!(
            (
                w.links.len(),
                leaves(&w.links[0]),
                w.flows.len(),
                probes(&w)
            ),
            (1, 64, 64, 2)
        );

        let w = Workload::by_name("deep6_sat", 1).unwrap();
        let l = &w.links[0];
        // 4096 leaves, 1365 internal nodes (the root is implicit).
        assert_eq!((leaves(l), l.nodes.len() - leaves(l) + 1), (4096, 1365));
        assert_eq!((w.flows.len(), probes(&w)), (4096, 64));
        // Every probe sits six levels down, one under each depth-3 node.
        let mut depth3 = std::collections::BTreeSet::new();
        for (f, spec) in w.flows.iter().enumerate() {
            if spec.probe_bound.is_some() {
                let path = l.rates_path(w.hops_of(f)[0].leaf);
                assert_eq!(path.len(), 6);
                let mut n = w.hops_of(f)[0].leaf;
                for _ in 0..3 {
                    n = l.nodes[n - 1].parent;
                }
                assert!(depth3.insert(n), "two probes under depth-3 node {n}");
            }
        }

        let w = Workload::by_name("wide128k", 1).unwrap();
        assert_eq!(
            (leaves(&w.links[0]), w.flows.len(), probes(&w)),
            (131_072, 131_072, 64)
        );

        let w = Workload::by_name("tandem4", 1).unwrap();
        assert_eq!(w.links.len(), 4);
        assert!(w
            .links
            .iter()
            .all(|l| leaves(l) == 14 && l.nodes.len() == 16));
        // 32 single-hop cross flows, 4 four-hop TCP flows, 2 four-hop probes.
        let hops = |n: usize| {
            (0..w.flows.len())
                .filter(|&f| w.hops_of(f).len() == n)
                .count()
        };
        assert_eq!((hops(1), hops(4), probes(&w)), (32, 6, 2));
        let tcp = w.flows.iter().filter(|f| matches!(f.gen, Gen::Tcp)).count();
        assert_eq!(tcp, 4);
        // The reverse probe crosses the links in the opposite order.
        let links = |f: usize| w.hops_of(f).iter().map(|h| h.link).collect::<Vec<_>>();
        assert_eq!(links(w.flows.len() - 2), vec![0, 1, 2, 3]);
        assert_eq!(links(w.flows.len() - 1), vec![3, 2, 1, 0]);
    }

    #[test]
    fn shares_never_oversubscribe_a_node() {
        for name in NAMES {
            let w = Workload::by_name(name, 1).unwrap();
            for l in &w.links {
                let mut sum = vec![0.0; l.nodes.len() + 1];
                for n in &l.nodes {
                    sum[n.parent] += n.phi;
                }
                assert!(sum.iter().all(|&s| s <= 1.0 + 1e-9), "{name}: {sum:?}");
            }
        }
    }

    #[test]
    fn probe_bound_is_corollary_2_summed_over_hops() {
        // tandem4: r_i = 100e6 * 0.4 / 6, class 40e6, L_max = 1024 B (TCP),
        // sigma = one 200 B packet; four identical hops.
        let w = Workload::by_name("tandem4", 1).unwrap();
        let r_i = 100e6 * 0.4 / 6.0;
        let per_hop = 1600.0 / r_i + 8192.0 / r_i + 8192.0 / 40e6;
        let bound = w.flows.last().unwrap().probe_bound.unwrap();
        assert!(
            (bound - 4.0 * per_hop).abs() < 1e-12,
            "{bound} vs {}",
            4.0 * per_hop
        );
    }

    #[test]
    fn digest_is_a_function_of_the_seed_alone() {
        let run = |seed| {
            let w = Workload::by_name("light64", seed).unwrap();
            let (rep, _) = run_rep(&w, 0.5, |_| NoopObserver);
            assert!(rep.failed_checks.is_empty(), "{:?}", rep.failed_checks);
            assert!(rep.window_pkts() > 1000);
            (rep.digest, rep.rt_delay_over_bound)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn fastest_of_takes_each_segment_at_its_minimum() {
        let rep = |build_ns, warm: [u64; 2], win: [u64; 3]| Rep {
            build_ns,
            warm_ns: warm.to_vec(),
            slices: win.iter().map(|&ns| (ns, 10)).collect(),
            digest: 1,
            rt_delay_over_bound: 0.5,
            failed_checks: Vec::new(),
        };
        // A slow episode hits a different stretch of each repetition.
        let a = rep(50, [10, 90], [100, 170, 100]);
        let b = rep(40, [70, 12], [170, 100, 101]);
        let best = Rep::fastest_of(&[a, b]);
        assert_eq!(best.build_ns, 40);
        assert_eq!(best.warm_ns, vec![10, 12]);
        assert_eq!(best.slices, vec![(100, 10), (100, 10), (100, 10)]);
        let t = best.timed();
        assert_eq!(t.setup_s, 62e-9);
        assert_eq!(t.ns_per_pkt_p50, 10.0);
        assert_eq!(t.pkts_per_s, 30.0 / 300e-9);
    }
}
