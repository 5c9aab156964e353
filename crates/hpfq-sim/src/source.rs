//! Traffic sources: the workloads of paper §5 plus supporting generators.
//!
//! A [`Source`] is a state machine driven by the simulator:
//! [`Source::start`] runs once at simulation start; [`Source::on_wake`]
//! runs at each timer the source scheduled; [`Source::on_delivered`] runs
//! when one of the source's packets is delivered to its destination (used
//! by the TCP model for ACK clocking — open-loop sources ignore it). Each
//! callback returns packets to enqueue *now* and further timers to set.
//!
//! Sources never see the clock except through callback timestamps, and all
//! randomness is seeded, so simulations are reproducible.

use crate::rng::SmallRng;
use hpfq_core::{vtime, Packet};

/// Zero, one, or many `T`s in order: the storage behind
/// [`SourceOutput`]'s fields and a [`crate::Route`]'s hops. Nearly every
/// source callback returns at most one packet and one wake-up, and every
/// route of a one-link network has one hop, so the first element is held
/// inline and only a second one allocates. Reads like a slice (`len`, indexing,
/// `iter`), grows with [`Few::push`], and is consumed by value with `for`.
#[derive(Debug, Clone)]
pub struct Few<T>(Repr<T>);

impl<T> Default for Few<T> {
    fn default() -> Self {
        Few::new()
    }
}

#[derive(Debug, Clone, Default)]
enum Repr<T> {
    #[default]
    Empty,
    One(T),
    Many(Vec<T>),
}

impl<T> Few<T> {
    /// No elements.
    pub fn new() -> Self {
        Few(Repr::Empty)
    }

    /// Exactly `item`, held inline.
    pub fn one(item: T) -> Self {
        Few(Repr::One(item))
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        self.0 = match std::mem::take(&mut self.0) {
            Repr::Empty => Repr::One(item),
            Repr::One(first) => Repr::Many(vec![first, item]),
            Repr::Many(mut items) => {
                items.push(item);
                Repr::Many(items)
            }
        };
    }
}

impl<T> std::ops::Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }
}

impl<T> FromIterator<T> for Few<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Few::new();
        for item in iter {
            out.push(item);
        }
        out
    }
}

impl<T> IntoIterator for Few<T> {
    type Item = T;
    /// The inline element, then the spilled ones: one side is always
    /// empty (and an empty `Vec` owns no allocation).
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (inline, spilled) = match self.0 {
            Repr::Empty => (None, Vec::new()),
            Repr::One(item) => (Some(item), Vec::new()),
            Repr::Many(items) => (None, items),
        };
        inline.into_iter().chain(spilled)
    }
}

/// What a source callback hands back to the simulator.
#[derive(Debug, Default)]
pub struct SourceOutput {
    /// Packets to enqueue at the source's leaf, in order, at the current
    /// instant. Lengths and flow ids are the source's responsibility.
    pub packets: Few<Packet>,
    /// Absolute times at which to call [`Source::on_wake`] again.
    pub wakes: Few<f64>,
}

impl SourceOutput {
    /// Empty output.
    pub fn none() -> Self {
        Self::default()
    }

    /// Output consisting of a single wake-up.
    pub fn wake_at(t: f64) -> Self {
        SourceOutput {
            packets: Few::new(),
            wakes: Few::one(t),
        }
    }

    /// One packet now and one further wake-up: the steady-state output of
    /// every periodic source.
    pub fn packet_and_wake(pkt: Packet, wake: f64) -> Self {
        SourceOutput {
            packets: Few::one(pkt),
            wakes: Few::one(wake),
        }
    }
}

/// A traffic generator attached to one leaf of the hierarchy.
pub trait Source {
    /// Called once at simulation start (time 0); typically schedules the
    /// first wake-up.
    fn start(&mut self) -> SourceOutput;

    /// Called at a time previously requested via `wakes`.
    fn on_wake(&mut self, now: f64) -> SourceOutput;

    /// Called when one of this source's packets has been delivered to its
    /// destination (transmission complete + one-way delay). Open-loop
    /// sources use the default no-op.
    fn on_delivered(&mut self, _now: f64, _pkt: &Packet) -> SourceOutput {
        SourceOutput::none()
    }

    /// Whether [`Source::on_delivered`] does anything. A source that
    /// returns `false` promises its `on_delivered` is the default no-op;
    /// the simulator then skips scheduling delivery events for its
    /// packets altogether. Read once, when the source is attached. The
    /// default is `true`, so closed-loop and external sources keep every
    /// callback; the built-in open-loop generators return `false`.
    fn wants_delivery(&self) -> bool {
        true
    }

    /// Short label for reports.
    fn label(&self) -> String {
        "source".to_owned()
    }
}

impl Source for Box<dyn Source> {
    fn start(&mut self) -> SourceOutput {
        (**self).start()
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        (**self).on_wake(now)
    }

    fn on_delivered(&mut self, now: f64, pkt: &Packet) -> SourceOutput {
        (**self).on_delivered(now, pkt)
    }

    fn wants_delivery(&self) -> bool {
        (**self).wants_delivery()
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

/// Allocates globally unique packet ids within one simulation.
/// (Sources receive an id range at construction: flow id in the high bits.)
fn pkt_id(flow: u32, seq: u64) -> u64 {
    (u64::from(flow) << 40) | (seq & 0xFF_FFFF_FFFF)
}

/// The one predicate of a built-in source — packets of at least one byte,
/// start times short of +∞, gaps finite and positive — which its
/// constructor asserts.
trait Valid: Source + Sized {
    fn is_valid(&self) -> bool;

    /// `self`, from a constructor. Panics if it is not valid.
    fn built(self) -> Self {
        assert!(self.is_valid(), "invalid {} parameters", self.label());
        self
    }
}

/// A gap between two wakes: finite and positive.
fn is_gap(dt: f64) -> bool {
    dt.is_finite() && dt > 0.0
}

/// A time a source may first wake at: any but NaN or +∞ (one in the
/// past, −∞ included, wakes at once).
fn is_start(t: f64) -> bool {
    t < f64::INFINITY
}

/// `wake`, or `now + gap` if `wake` is not later than `now`, or the next
/// instant after `now` if that sum rounds back to it: a source's next wake
/// is strictly later, so a gap below the clock's resolution, or a start
/// time too far off for the period to register, cannot make it wake at one
/// instant forever.
fn later(now: f64, wake: f64, gap: f64) -> f64 {
    if wake > now {
        wake
    } else if now + gap > now {
        now + gap
    } else {
        now.next_up()
    }
}

// ---------------------------------------------------------------------------

/// Constant-bit-rate source (the paper's PS-n sessions): fixed-size packets
/// at exact intervals from `start_time` until `stop_time`.
#[derive(Debug, Clone)]
pub struct CbrSource {
    flow: u32,
    len_bytes: u32,
    interval: f64,
    start_time: f64,
    stop_time: f64,
    seq: u64,
}

impl CbrSource {
    /// A CBR source sending `rate_bps` worth of `len_bytes` packets.
    pub fn new(flow: u32, len_bytes: u32, rate_bps: f64, start_time: f64, stop_time: f64) -> Self {
        CbrSource {
            flow,
            len_bytes,
            interval: f64::from(len_bytes) * 8.0 / rate_bps,
            start_time,
            stop_time,
            seq: 0,
        }
        .built()
    }
}

impl Valid for CbrSource {
    fn is_valid(&self) -> bool {
        self.len_bytes > 0 && is_gap(self.interval) && is_start(self.start_time)
    }
}

impl Source for CbrSource {
    fn start(&mut self) -> SourceOutput {
        SourceOutput::wake_at(self.start_time)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        if now >= self.stop_time {
            return SourceOutput::none();
        }
        self.seq += 1;
        let pkt = Packet::new(pkt_id(self.flow, self.seq), self.flow, self.len_bytes, now);
        SourceOutput::packet_and_wake(pkt, later(now, now + self.interval, self.interval))
    }

    fn wants_delivery(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!("cbr-{}", self.flow)
    }
}

// ---------------------------------------------------------------------------

/// Deterministic periodic on/off source (the paper's RT-1: 25 ms on, 75 ms
/// off): during the on phase, sends like CBR at `peak_rate_bps`.
#[derive(Debug, Clone)]
pub struct PeriodicOnOffSource {
    flow: u32,
    len_bytes: u32,
    interval: f64,
    on_duration: f64,
    period: f64,
    start_time: f64,
    stop_time: f64,
    seq: u64,
}

impl PeriodicOnOffSource {
    /// `on_duration` of CBR at `peak_rate_bps` every `period` seconds.
    pub fn new(
        flow: u32,
        len_bytes: u32,
        peak_rate_bps: f64,
        on_duration: f64,
        period: f64,
        start_time: f64,
        stop_time: f64,
    ) -> Self {
        PeriodicOnOffSource {
            flow,
            len_bytes,
            interval: f64::from(len_bytes) * 8.0 / peak_rate_bps,
            on_duration,
            period,
            start_time,
            stop_time,
            seq: 0,
        }
        .built()
    }

    /// Phase offset within the current period.
    fn phase(&self, now: f64) -> f64 {
        (now - self.start_time).rem_euclid(self.period)
    }
}

impl Valid for PeriodicOnOffSource {
    fn is_valid(&self) -> bool {
        self.len_bytes > 0
            && is_gap(self.interval)
            && self.on_duration > 0.0
            && is_gap(self.period)
            && self.period >= self.on_duration
            && is_start(self.start_time)
    }
}

impl Source for PeriodicOnOffSource {
    fn start(&mut self) -> SourceOutput {
        SourceOutput::wake_at(self.start_time)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        if now >= self.stop_time {
            return SourceOutput::none();
        }
        // Within the on phase (half-open: a packet slot must *begin*
        // strictly inside it)?
        if vtime::strictly_before(self.phase(now), self.on_duration) {
            self.seq += 1;
            let pkt = Packet::new(pkt_id(self.flow, self.seq), self.flow, self.len_bytes, now);
            let next = now + self.interval;
            // If the next slot falls in the off phase, jump to the next
            // period start.
            let wake = if vtime::strictly_before(self.phase(next), self.on_duration) && next > now {
                next
            } else {
                let k = ((next - self.start_time) / self.period).floor() + 1.0;
                self.start_time + k * self.period
            };
            SourceOutput::packet_and_wake(pkt, later(now, wake, self.period))
        } else {
            // Woke in the off phase (e.g. first wake landed oddly): go to
            // the next period boundary — strictly in the future, so float
            // rounding can never re-deliver the same instant forever.
            let mut k = ((now - self.start_time) / self.period).floor() + 1.0;
            let mut wake = self.start_time + k * self.period;
            if wake <= now {
                k += 1.0;
                wake = self.start_time + k * self.period;
            }
            SourceOutput::wake_at(later(now, wake, self.period))
        }
    }

    fn wants_delivery(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!("onoff-{}", self.flow)
    }
}

// ---------------------------------------------------------------------------

/// On/off source with an explicit activity schedule (the §5.2 link-sharing
/// on/off sources, Fig. 8(b)): CBR at `rate_bps` during each interval.
#[derive(Debug, Clone)]
pub struct ScheduledOnOffSource {
    flow: u32,
    len_bytes: u32,
    interval: f64,
    /// Half-open active intervals `(start, end)`, sorted, non-overlapping.
    schedule: Vec<(f64, f64)>,
    seq: u64,
}

impl ScheduledOnOffSource {
    /// A source active during each `(start, end)` of `schedule`.
    pub fn new(flow: u32, len_bytes: u32, rate_bps: f64, schedule: Vec<(f64, f64)>) -> Self {
        ScheduledOnOffSource {
            flow,
            len_bytes,
            interval: f64::from(len_bytes) * 8.0 / rate_bps,
            schedule,
            seq: 0,
        }
        .built()
    }

    /// The active interval containing `t`, if any.
    fn active_at(&self, t: f64) -> Option<(f64, f64)> {
        self.schedule
            .iter()
            .copied()
            .find(|&(s, e)| vtime::approx_ge(t, s) && vtime::strictly_before(t, e))
    }

    /// Start of the first interval after `t`.
    fn next_start_after(&self, t: f64) -> Option<f64> {
        self.schedule
            .iter()
            .map(|&(s, _)| s)
            .find(|&s| vtime::strictly_after(s, t))
    }
}

impl Valid for ScheduledOnOffSource {
    /// Intervals sorted and disjoint, each starting at a finite time.
    fn is_valid(&self) -> bool {
        let mut at = f64::NEG_INFINITY;
        self.len_bytes > 0
            && is_gap(self.interval)
            && self.schedule.iter().all(|&(s, e)| {
                let ordered = is_start(s) && at <= s;
                at = e;
                ordered
            })
    }
}

impl Source for ScheduledOnOffSource {
    fn start(&mut self) -> SourceOutput {
        match self.schedule.first() {
            Some(&(s, _)) => SourceOutput::wake_at(s),
            None => SourceOutput::none(),
        }
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        if let Some((_, end)) = self.active_at(now) {
            self.seq += 1;
            let pkt = Packet::new(pkt_id(self.flow, self.seq), self.flow, self.len_bytes, now);
            let next = later(now, now + self.interval, self.interval);
            let wake = if vtime::strictly_before(next, end) {
                Some(next)
            } else {
                self.next_start_after(now)
            };
            SourceOutput {
                packets: Few::one(pkt),
                wakes: wake.into_iter().collect(),
            }
        } else {
            match self.next_start_after(now) {
                Some(s) => SourceOutput::wake_at(s),
                None => SourceOutput::none(),
            }
        }
    }

    fn wants_delivery(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!("sched-{}", self.flow)
    }
}

// ---------------------------------------------------------------------------

/// Poisson source: exponential inter-arrival times with mean matching
/// `rate_bps` (the paper's overloaded PS-n scenario sets `rate_bps` to 1.5×
/// the guaranteed rate).
#[derive(Debug)]
pub struct PoissonSource {
    flow: u32,
    len_bytes: u32,
    mean_interval: f64,
    start_time: f64,
    stop_time: f64,
    rng: SmallRng,
    seq: u64,
}

impl PoissonSource {
    /// A Poisson stream of `len_bytes` packets averaging `rate_bps`.
    pub fn new(
        flow: u32,
        len_bytes: u32,
        rate_bps: f64,
        start_time: f64,
        stop_time: f64,
        seed: u64,
    ) -> Self {
        PoissonSource {
            flow,
            len_bytes,
            mean_interval: f64::from(len_bytes) * 8.0 / rate_bps,
            start_time,
            stop_time,
            rng: SmallRng::seed_from_u64(seed),
            seq: 0,
        }
        .built()
    }

    fn exp_sample(&mut self) -> f64 {
        // Inverse-transform sampling; 1-u avoids ln(0).
        let u = self.rng.gen_f64();
        -(1.0 - u).ln() * self.mean_interval
    }
}

impl Valid for PoissonSource {
    fn is_valid(&self) -> bool {
        self.len_bytes > 0 && is_gap(self.mean_interval) && is_start(self.start_time)
    }
}

impl Source for PoissonSource {
    fn start(&mut self) -> SourceOutput {
        let first = self.start_time + self.exp_sample();
        SourceOutput::wake_at(first)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        if now >= self.stop_time {
            return SourceOutput::none();
        }
        self.seq += 1;
        let pkt = Packet::new(pkt_id(self.flow, self.seq), self.flow, self.len_bytes, now);
        let gap = self.exp_sample();
        SourceOutput::packet_and_wake(pkt, later(now, now + gap, gap))
    }

    fn wants_delivery(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!("poisson-{}", self.flow)
    }
}

// ---------------------------------------------------------------------------

/// Packet-train source (the paper's CS-n sessions): every `period`, a burst
/// of `burst_len` packets spaced `intra_gap` apart — "the sort of packet
/// train burst that could be sent by individual users and/or networks with
/// high speed connections" (§5.1), produced there by multiplexing constant
/// sources.
#[derive(Debug, Clone)]
pub struct PacketTrainSource {
    flow: u32,
    len_bytes: u32,
    burst_len: u32,
    intra_gap: f64,
    period: f64,
    start_time: f64,
    stop_time: f64,
    seq: u64,
    in_burst: u32,
}

impl PacketTrainSource {
    /// Bursts of `burst_len` packets every `period` seconds.
    pub fn new(
        flow: u32,
        len_bytes: u32,
        burst_len: u32,
        intra_gap: f64,
        period: f64,
        start_time: f64,
        stop_time: f64,
    ) -> Self {
        PacketTrainSource {
            flow,
            len_bytes,
            burst_len,
            intra_gap,
            period,
            start_time,
            stop_time,
            seq: 0,
            in_burst: 0,
        }
        .built()
    }
}

impl Valid for PacketTrainSource {
    /// A non-empty burst that fits its period, one packet of it at a time.
    fn is_valid(&self) -> bool {
        self.len_bytes > 0
            && self.in_burst < self.burst_len
            && self.intra_gap >= 0.0
            && self.intra_gap * f64::from(self.burst_len) < self.period
            && is_gap(self.period)
            && is_start(self.start_time)
    }
}

impl Source for PacketTrainSource {
    fn start(&mut self) -> SourceOutput {
        SourceOutput::wake_at(self.start_time)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        if now >= self.stop_time {
            return SourceOutput::none();
        }
        self.seq += 1;
        let pkt = Packet::new(pkt_id(self.flow, self.seq), self.flow, self.len_bytes, now);
        self.in_burst += 1;
        let wake = if self.in_burst < self.burst_len {
            if self.intra_gap > 0.0 {
                now + self.intra_gap
            } else {
                now // zero gap: back-to-back arrivals at the same instant
            }
        } else {
            self.in_burst = 0;
            let elapsed_bursts = ((now - self.start_time) / self.period).floor() + 1.0;
            // A gapless burst ends at its period's start, where rounding can
            // make this that same start: `later` moves it a period on.
            later(
                now,
                self.start_time + elapsed_bursts * self.period,
                self.period,
            )
        };
        SourceOutput::packet_and_wake(pkt, wake)
    }

    fn wants_delivery(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!("train-{}", self.flow)
    }
}

// ---------------------------------------------------------------------------

/// Greedy leaky-bucket source: the worst-case `(σ, ρ)`-constrained arrival
/// pattern — a burst of `σ` bytes at the start, then CBR at `ρ`. Used by
/// the delay-bound experiments, whose Corollary-2 bound assumes exactly
/// this envelope (eq. 17).
#[derive(Debug, Clone)]
pub struct GreedyLbSource {
    flow: u32,
    len_bytes: u32,
    sigma_bytes: u32,
    rho_bps: f64,
    start_time: f64,
    stop_time: f64,
    seq: u64,
    burst_sent: bool,
}

impl GreedyLbSource {
    /// A greedy `(sigma_bytes, rho_bps)` source of `len_bytes` packets.
    pub fn new(
        flow: u32,
        len_bytes: u32,
        sigma_bytes: u32,
        rho_bps: f64,
        start_time: f64,
        stop_time: f64,
    ) -> Self {
        GreedyLbSource {
            flow,
            len_bytes,
            sigma_bytes,
            rho_bps,
            start_time,
            stop_time,
            seq: 0,
            burst_sent: false,
        }
        .built()
    }

    /// Seconds between two packets at the rate `rho`.
    fn gap(&self) -> f64 {
        f64::from(self.len_bytes) * 8.0 / self.rho_bps
    }
}

impl Valid for GreedyLbSource {
    fn is_valid(&self) -> bool {
        self.len_bytes > 0
            && self.sigma_bytes >= self.len_bytes
            && is_gap(self.gap())
            && is_start(self.start_time)
    }
}

impl Source for GreedyLbSource {
    fn start(&mut self) -> SourceOutput {
        SourceOutput::wake_at(self.start_time)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        if now >= self.stop_time {
            return SourceOutput::none();
        }
        let wake = later(now, now + self.gap(), self.gap());
        if !self.burst_sent {
            self.burst_sent = true;
            let n = self.sigma_bytes / self.len_bytes;
            let packets = (0..n)
                .map(|_| {
                    self.seq += 1;
                    Packet::new(pkt_id(self.flow, self.seq), self.flow, self.len_bytes, now)
                })
                .collect();
            return SourceOutput {
                packets,
                wakes: Few::one(wake),
            };
        }
        self.seq += 1;
        let pkt = Packet::new(pkt_id(self.flow, self.seq), self.flow, self.len_bytes, now);
        SourceOutput::packet_and_wake(pkt, wake)
    }

    fn wants_delivery(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!("lb-{}", self.flow)
    }
}

// ---------------------------------------------------------------------------

/// Replays an explicit `(time, len_bytes)` trace.
#[derive(Debug, Clone)]
pub struct TraceSource {
    flow: u32,
    /// Remaining `(time, len)` entries, in time order (reversed for pop).
    entries: Vec<(f64, u32)>,
    seq: u64,
}

impl TraceSource {
    /// A source emitting exactly `entries` (must be sorted by time).
    pub fn new(flow: u32, mut entries: Vec<(f64, u32)>) -> Self {
        entries.reverse();
        TraceSource {
            flow,
            entries,
            seq: 0,
        }
        .built()
    }
}

impl Valid for TraceSource {
    /// Finite times of non-empty packets, sorted (held latest first).
    fn is_valid(&self) -> bool {
        let sorted = self.entries.windows(2).all(|w| w[0].0 >= w[1].0);
        sorted && self.entries.iter().all(|&(t, len)| is_start(t) && len > 0)
    }
}

impl Source for TraceSource {
    fn start(&mut self) -> SourceOutput {
        match self.entries.last() {
            Some(&(t, _)) => SourceOutput::wake_at(t),
            None => SourceOutput::none(),
        }
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        let mut out = SourceOutput::none();
        while let Some(&(t, len)) = self.entries.last() {
            if vtime::approx_le(t, now) {
                self.entries.pop();
                self.seq += 1;
                out.packets.push(Packet::new(
                    pkt_id(self.flow, self.seq),
                    self.flow,
                    len,
                    now,
                ));
            } else {
                out.wakes.push(t);
                break;
            }
        }
        out
    }

    fn wants_delivery(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!("trace-{}", self.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(src: &mut dyn Source, horizon: f64) -> Vec<(f64, u64)> {
        // Minimal wake-loop harness for source unit tests. Wake times are
        // kept as exact f64 values (as the real simulator does): any
        // quantization here can make a source re-observe an instant just
        // before its scheduled wake and loop forever.
        let out = src.start();
        assert!(out.packets.is_empty(), "start() must not emit packets");
        let mut wakes: Vec<f64> = out.wakes.to_vec();
        let mut emitted = Vec::new();
        let mut guard = 0u32;
        while !wakes.is_empty() {
            let Some((i, _)) = wakes.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)) else {
                break; // unreachable: the loop condition holds wakes non-empty
            };
            let t = wakes.swap_remove(i);
            if t > horizon {
                break;
            }
            guard += 1;
            assert!(guard < 1_000_000, "source wake loop ran away");
            let out = src.on_wake(t);
            for p in out.packets {
                emitted.push((t, p.id));
            }
            wakes.extend(out.wakes);
        }
        emitted
    }

    #[test]
    fn cbr_spacing() {
        // 1000 bytes at 8 kbit/s => one packet per second.
        let mut s = CbrSource::new(1, 1000, 8000.0, 0.5, 100.0);
        let pkts = drain(&mut s, 5.0);
        assert_eq!(pkts.len(), 5);
        for (i, &(t, _)) in pkts.iter().enumerate() {
            assert!((t - (0.5 + i as f64)).abs() < 1e-6);
        }
    }

    #[test]
    fn periodic_onoff_duty_cycle() {
        // 25 ms on / 75 ms off starting at 200 ms, peak 3.2 Mbit/s with
        // 1000-byte packets => 8000 bits / 3.2e6 = 2.5 ms per packet =>
        // 10 packets per burst.
        let mut s = PeriodicOnOffSource::new(2, 1000, 3.2e6, 0.025, 0.1, 0.2, 10.0);
        let pkts = drain(&mut s, 0.4999);
        // Bursts at 200 and 300 and 400 ms: 3 bursts of 10.
        assert_eq!(pkts.len(), 30);
        assert!((pkts[0].0 - 0.2).abs() < 1e-9);
        assert!((pkts[10].0 - 0.3).abs() < 1e-6);
        // No packet in an off phase.
        for &(t, _) in &pkts {
            let phase = (t - 0.2).rem_euclid(0.1);
            assert!(phase < 0.025 + 1e-9, "packet at {t} in off phase");
        }
    }

    #[test]
    fn scheduled_onoff_respects_schedule() {
        let mut s = ScheduledOnOffSource::new(3, 1000, 8000.0, vec![(1.0, 3.0), (5.0, 6.0)]);
        let pkts = drain(&mut s, 10.0);
        for &(t, _) in &pkts {
            assert!(
                (1.0 - 1e-9..3.0).contains(&t) || (5.0 - 1e-9..6.0).contains(&t),
                "packet at {t} outside schedule"
            );
        }
        // Interval 1: t=1,2 (packet at 3.0 would end outside); interval 2:
        // t=5.
        assert_eq!(pkts.len(), 3);
    }

    #[test]
    fn poisson_mean_rate() {
        let mut s = PoissonSource::new(4, 1000, 8000.0, 0.0, 1e9, 42);
        let pkts = drain(&mut s, 2000.0);
        // Expect ~2000 packets (one per second on average); 3 sigma ≈ 134.
        assert!(
            (pkts.len() as f64 - 2000.0).abs() < 200.0,
            "{} packets",
            pkts.len()
        );
    }

    #[test]
    fn packet_train_bursts() {
        let mut s = PacketTrainSource::new(5, 1000, 4, 0.001, 0.193, 0.0, 10.0);
        let pkts = drain(&mut s, 0.4);
        // Bursts at 0, 0.193, 0.386 => 12 packets.
        assert_eq!(pkts.len(), 12);
        assert!((pkts[3].0 - 0.003).abs() < 1e-9);
        assert!((pkts[4].0 - 0.193).abs() < 1e-9);
    }

    #[test]
    fn greedy_lb_burst_then_rate() {
        let mut s = GreedyLbSource::new(6, 100, 500, 800.0, 0.0, 100.0);
        let pkts = drain(&mut s, 3.0);
        // Burst of 5 at t=0, then 1 packet per second (800 bits at 800
        // bps).
        assert_eq!(pkts.len(), 8);
        for p in &pkts[..5] {
            assert_eq!(p.0, 0.0);
        }
        assert!((pkts[5].0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fast_sources_are_valid_and_every_wake_is_later() {
        // 1 Gb/s of 64-byte packets: 512 ns apart, about 1.95 Mpps.
        let mut s = CbrSource::new(1, 64, 1e9, 0.0, 1.0);
        assert_eq!(drain(&mut s, 1e-5).len(), 20);
        // Gaps below the clock's resolution at t = 1 s still move it on, as
        // does a period lost in the rounding of a far-off start time.
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(PeriodicOnOffSource::new(6, 1, 8.0, 0.5, 1.0, 1e300, 2e300)),
            Box::new(PeriodicOnOffSource::new(
                7,
                1,
                8.0,
                0.5,
                1.0,
                f64::NEG_INFINITY,
                2.0,
            )),
            Box::new(CbrSource::new(1, 1, 1e300, 1.0, 2.0)),
            Box::new(PoissonSource::new(2, 1, 1e300, 1.0, 2.0, 3)),
            Box::new(ScheduledOnOffSource::new(3, 1, 1e300, vec![(1.0, 2.0)])),
            Box::new(GreedyLbSource::new(4, 1, 1, 1e300, 1.0, 2.0)),
            Box::new(PacketTrainSource::new(5, 1, 2, 0.0, 1e-300, 1.0, 2.0)),
        ];
        for s in &mut sources {
            let (mut now, mut wakes) = (1.0, 0);
            while now == 1.0 {
                now = s.on_wake(now).wakes[0];
                wakes += 1;
                assert!(wakes <= 2, "{} woke at 1 s again", s.label());
            }
            assert!(now > 1.0, "{}", s.label());
        }
    }

    #[test]
    fn trace_replay() {
        let mut s = TraceSource::new(7, vec![(0.5, 100), (0.5, 200), (2.0, 300)]);
        let pkts = drain(&mut s, 10.0);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].0, 0.5);
        assert_eq!(pkts[1].0, 0.5);
        assert_eq!(pkts[2].0, 2.0);
    }
}
