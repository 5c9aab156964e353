//! Worst-case single-call *work* — the honest form of the §3.4
//! complexity comparison, counted exactly.
//!
//! §3.4 makes two claims. WF²Q+'s eq. (27) and its SEFF selection do
//! O(log N) work on every single call, while `V_GPS` can owe up to N
//! fluid departures to one unlucky call. Amortized per-packet cost is
//! O(log N) for *all* the virtual-time schedulers — the GPS clock's O(N)
//! departure processing spreads its work across a busy period — so what
//! WF²Q+ buys is a *bounded worst case*. Wall-clock maxima are hopelessly
//! noisy on a shared machine, so this binary counts both halves:
//!
//! * `tail.csv` — the largest number of fluid departures any single clock
//!   advance processed ([`hpfq_core::GpsClock::worst_sweep`]) under a
//!   drain-refill workload in which all N sessions' fluid backlogs empty
//!   between two packet events. It grows as N − 1.
//! * `heap.csv` — comparisons per `push` and per `pop` of [`QuadHeap`],
//!   the one heap under both WF²Q+'s eligible set and the event queue, for
//!   N from 64 to 4M. The binary exits non-zero when any count exceeds
//!   the bound below.
//!
//! # The heap bound
//!
//! Let D(n) be the depth of the last slot of a 4-ary heap holding n
//! entries. Slots 0, 1–4, 5–20, 21–84, … make up depths 0, 1, 2, 3, …,
//! so D(n) = ⌊log₄(3n − 2)⌋ ≤ ⌈log₄ n⌉. Reading `heap.rs`:
//!
//! * A `push` that leaves n entries starts its hole at slot n − 1, at
//!   depth D(n), and makes one comparison per ancestor it visits:
//!   **push ≤ D(n)**.
//! * A `pop` from n entries re-places the last one among the n − 1 left.
//!   It walks the hole down along the smallest child to some depth
//!   h ≤ D(n − 1), with three comparisons per full group of four siblings
//!   and at most two for a partial one, never comparing against the
//!   displaced entry. It then sifts that entry up from depth h, one
//!   comparison per ancestor visited, so at most h more:
//!   **pop ≤ 4·D(n − 1)**.

use std::process::ExitCode;

use hpfq_analysis::CsvWriter;
use hpfq_bench::experiments::results_dir;
use hpfq_core::pifo::rank::{Wf2qRank, WfqRank};
use hpfq_core::{NodeScheduler, PifoTree};
use hpfq_events::heap::QuadHeap;
use hpfq_sim::SmallRng;

const PKT_BITS: f64 = 12_000.0;

/// Drives `rounds` drain-refill cycles through `s` and returns the
/// scheduler's worst clock sweep, queried by `probe`.
///
/// Per round: all N sessions send one packet and (except a keeper) go
/// idle — leaving N−1 fluid departures pending at virtual time ≈ N·L/r —
/// then the keeper alone transmits N more packets, pushing reference
/// time well past that pile without touching the clock. The next round's
/// first `backlog` must then integrate across the entire pile in a
/// single call: the O(N) charge.
fn run<S: NodeScheduler>(s: &mut S, n: usize, rounds: usize, probe: impl Fn(&S) -> usize) -> usize {
    let ids: Vec<_> = (0..n).map(|_| s.add_session(1.0 / n as f64)).collect();
    let keeper = ids[n - 1];
    for &id in &ids {
        s.backlog(id, PKT_BITS, None);
    }
    for _ in 0..rounds {
        // Drain: everyone transmits once; only the keeper stays.
        for _ in 0..n {
            let id = s.select_next().expect("backlogged");
            s.requeue(id, if id == keeper { Some(PKT_BITS) } else { None });
        }
        // Keeper monopolizes the link for N packets: reference time moves
        // far past the pending departure pile.
        for _ in 0..n {
            let id = s.select_next().expect("keeper backlogged");
            assert_eq!(id, keeper);
            s.requeue(id, Some(PKT_BITS));
        }
        // Refill: the first stamp pays the accumulated sweep.
        for &id in &ids[..n - 1] {
            s.backlog(id, PKT_BITS, None);
        }
    }
    // Final drain.
    while let Some(id) = s.select_next() {
        s.requeue(id, None);
    }
    probe(s)
}

/// Heap sizes of the N sweep, 64 to 4M.
const HEAP_SIZES: [usize; 6] = [64, 1 << 10, 1 << 14, 1 << 18, 1 << 20, 1 << 22];

/// Comparisons per call, over every call of one kind.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    max: u64,
    total: u64,
    calls: u64,
}

impl Tally {
    fn add(&mut self, comparisons: u64) {
        self.max = self.max.max(comparisons);
        self.total += comparisons;
        self.calls += 1;
    }

    fn mean(&self) -> f64 {
        self.total as f64 / self.calls as f64
    }
}

/// The comparison counts of one heap size: one `heap.csv` row.
#[derive(Debug, Clone, Copy)]
struct HeapCount {
    n: usize,
    push: Tally,
    pop: Tally,
}

/// D(`len`): the depth of the last slot of a 4-ary heap of `len` entries.
fn depth(len: usize) -> u64 {
    let (mut d, mut slots, mut width) = (0, 1, 1);
    while slots < len {
        width *= 4;
        slots += width;
        d += 1;
    }
    d
}

impl HeapCount {
    fn push_bound(&self) -> u64 {
        depth(self.n)
    }

    fn pop_bound(&self) -> u64 {
        4 * depth(self.n - 1)
    }

    /// The predicate `heap.csv` is held to (module documentation).
    fn within_bound(&self) -> bool {
        self.push.max <= self.push_bound() && self.pop.max <= self.pop_bound()
    }
}

/// Counts every comparison `QuadHeap` makes while `n` sessions, resident
/// throughout, are served in finish-tag order for `n` dispatches.
///
/// This is a busy WF²Q+ node's ready heap: each dispatch pops the minimum
/// finish tag and reinserts that session with its next one, `L/φ` later.
/// The increments are drawn once per session from 1..=n, so a reinsert
/// lands anywhere from the root to the bottom level. Entries are
/// `(finish, session)` pairs: distinct sessions make the order strict and
/// total. Filling the heap is not counted.
fn count_heap(n: usize) -> HeapCount {
    let mut rng = SmallRng::seed_from_u64(n as u64);
    let top = u32::try_from(n).expect("heap sizes fit u32") + 1;
    let step: Vec<u32> = (0..n).map(|_| rng.gen_range_u32(1, top)).collect();
    let mut heap = QuadHeap::new();
    for (s, &d) in (0u32..).zip(&step) {
        heap.push((u64::from(d), s), |a, b| a < b);
    }
    let (mut push, mut pop) = (Tally::default(), Tally::default());
    for _ in 0..n {
        let mut c = 0;
        let (finish, s) = heap
            .pop(|a, b| {
                c += 1;
                a < b
            })
            .expect("every session stays resident");
        pop.add(c);
        c = 0;
        heap.push((finish + u64::from(step[s as usize]), s), |a, b| {
            c += 1;
            a < b
        });
        push.add(c);
    }
    HeapCount { n, push, pop }
}

fn main() -> ExitCode {
    let sizes = [64usize, 256, 1024, 4096, 16384];
    println!("worst fluid-departure sweep of a single V_GPS advance (drain-refill, 20 rounds)");
    println!("(WF2Q+ has no GPS clock: its per-call work is O(log N) by construction)");
    println!();
    print!("{:<8}", "algo");
    for n in sizes {
        print!(" {:>9}", format!("N={n}"));
    }
    println!();
    let dir = results_dir("complexity_tail");
    let mut w = CsvWriter::create(dir.join("tail.csv"), &["algo", "n", "worst_sweep"]).unwrap();
    print!("{:<8}", "wfq");
    for n in sizes {
        let mut s = PifoTree::new(1e9, WfqRank::new());
        let sweep = run(&mut s, n, 20, |s| s.program().worst_clock_sweep());
        print!(" {sweep:>9}");
        w.labeled_row("wfq", &[n as f64, sweep as f64]).unwrap();
    }
    println!();
    print!("{:<8}", "wf2q");
    for n in sizes {
        let mut s = PifoTree::new(1e9, Wf2qRank::new());
        let sweep = run(&mut s, n, 20, |s| s.program().worst_clock_sweep());
        print!(" {sweep:>9}");
        w.labeled_row("wf2q", &[n as f64, sweep as f64]).unwrap();
    }
    println!();
    w.finish().unwrap();
    println!("\nthe sweep grows linearly in N: a single packet event can be charged");
    println!("O(N) clock work under WFQ/WF2Q — the cost WF2Q+'s eq. 27 eliminates.");

    println!("\ncomparisons per QuadHeap call, N dispatches of pop-min + reinsert-later");
    println!(
        "{:>8} {:>8} {:>8} {:>6} {:>8} {:>8} {:>6}",
        "N", "push max", "mean", "bound", "pop max", "mean", "bound"
    );
    let mut w = CsvWriter::create(
        dir.join("heap.csv"),
        &[
            "n",
            "push_max",
            "push_mean",
            "push_bound",
            "pop_max",
            "pop_mean",
            "pop_bound",
        ],
    )
    .unwrap();
    let mut violated = false;
    for n in HEAP_SIZES {
        let c = count_heap(n);
        let (push_bound, pop_bound) = (c.push_bound(), c.pop_bound());
        println!(
            "{n:>8} {:>8} {:>8.3} {push_bound:>6} {:>8} {:>8.3} {pop_bound:>6}",
            c.push.max,
            c.push.mean(),
            c.pop.max,
            c.pop.mean()
        );
        w.row(&[
            n as f64,
            c.push.max as f64,
            c.push.mean(),
            push_bound as f64,
            c.pop.max as f64,
            c.pop.mean(),
            pop_bound as f64,
        ])
        .unwrap();
        violated |= !c.within_bound();
    }
    w.finish().unwrap();
    if violated {
        eprintln!("complexity_tail: a heap call compared more often than its O(log N) bound");
        return ExitCode::FAILURE;
    }
    println!("\nevery push stays within D(N) <= ceil(log4 N) comparisons and every pop");
    println!("within 4*D(N-1): the O(log N) per-call work of WF2Q+'s eligible set.");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_the_level_of_the_last_slot() {
        let want = [
            (1, 0),
            (2, 1),
            (5, 1),
            (6, 2),
            (21, 2),
            (22, 3),
            (85, 3),
            (86, 4),
        ];
        for (len, d) in want {
            assert_eq!(depth(len), d, "len {len}");
        }
        assert_eq!(depth(1 << 22), 11);
    }

    #[test]
    fn heap_counts_hold_their_bound_and_one_over_is_refused() {
        for n in [64, 1024] {
            let c = count_heap(n);
            assert!(c.within_bound(), "{c:?}");
            let push_over = HeapCount {
                push: Tally {
                    max: c.push_bound() + 1,
                    ..c.push
                },
                ..c
            };
            assert!(!push_over.within_bound());
            let pop_over = HeapCount {
                pop: Tally {
                    max: c.pop_bound() + 1,
                    ..c.pop
                },
                ..c
            };
            assert!(!pop_over.within_bound());
        }
    }
}
