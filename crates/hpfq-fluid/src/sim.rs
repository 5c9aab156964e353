//! Event-driven fluid simulation of GPS / H-GPS.
//!
//! Between events (packet arrivals and fluid queue-empty instants) the rate
//! of every leaf is constant: the link rate is distributed down the tree,
//! at each node in proportion to the shares of *backlogged* children
//! (paper eq. 8). The simulator advances segment by segment, recording
//! per-node cumulative service curves and exact per-packet fluid finish
//! times (a packet finishes when its session's cumulative fluid service
//! reaches the packet's end offset).

use crate::curve::ServiceCurve;
use crate::tree::{FluidNodeId, FluidTree};
use std::collections::VecDeque;

/// A packet arrival for the fluid system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival time in seconds.
    pub time: f64,
    /// Destination leaf.
    pub leaf: FluidNodeId,
    /// Packet length in bits.
    pub bits: f64,
    /// Caller-chosen packet identifier, reported back in departures.
    pub id: u64,
}

/// The output of a fluid run.
#[derive(Debug, Clone)]
pub struct FluidResult {
    /// Cumulative service curve per node (indexed by `FluidNodeId`); for an
    /// internal node this is `W_n`, the sum over its descendant leaves.
    pub service: Vec<ServiceCurve>,
    /// `(packet id, fluid finish time)` in non-decreasing finish order
    /// (simultaneous finishes ordered by leaf, then arrival order).
    pub departures: Vec<(u64, f64)>,
    /// Time at which the fluid system drained (end of the last busy
    /// period).
    pub end_time: f64,
}

impl FluidResult {
    /// Finish time of packet `id`, if it departed.
    pub fn finish_of(&self, id: u64) -> Option<f64> {
        self.departures
            .iter()
            .find(|&&(pid, _)| pid == id)
            .map(|&(_, t)| t)
    }
}

#[derive(Debug, Clone)]
struct LeafState {
    backlog: f64,
    /// Per-packet `(end offset in cumulative bits, id)`, FIFO.
    fifo: VecDeque<(f64, u64)>,
    arrived: f64,
    served: f64,
}

/// The fluid simulator. Stateless: [`FluidSim::run`] consumes a tree and an
/// arrival trace.
#[derive(Debug, Clone, Copy)]
pub struct FluidSim;

impl FluidSim {
    /// Runs the fluid system at link rate `rate_bps` over `arrivals`
    /// (must be sorted by time) until it drains.
    ///
    /// # Panics
    /// If arrivals are unsorted, reference a non-leaf, or have non-positive
    /// length.
    pub fn run(tree: &FluidTree, rate_bps: f64, arrivals: &[Arrival]) -> FluidResult {
        assert!(rate_bps.is_finite() && rate_bps > 0.0);
        let n = tree.node_count();
        let mut leaves: Vec<Option<LeafState>> = (0..n)
            .map(|i| {
                tree.is_leaf(FluidNodeId(i)).then(|| LeafState {
                    backlog: 0.0,
                    fifo: VecDeque::new(),
                    arrived: 0.0,
                    served: 0.0,
                })
            })
            .collect();
        let mut node_served = vec![0.0_f64; n];
        let mut curves = vec![ServiceCurve::new(); n];
        let mut departures: Vec<(u64, f64)> = Vec::new();

        for w in arrivals.windows(2) {
            assert!(w[0].time <= w[1].time, "arrivals must be sorted by time");
        }

        // The arrival calendar: the sorted arrivals themselves, so
        // simultaneous arrivals are applied in trace order. Queue-empty
        // instants are computed, not scheduled, because every rate change
        // would invalidate them.
        let mut calendar = arrivals.iter().peekable();

        let mut t = calendar.peek().map(|a| a.time).unwrap_or(0.0);
        let mut end_time = t;

        // Record a zero point so curves start from the first activity.
        for c in &mut curves {
            c.push(t, 0.0);
        }

        let mut rates = vec![0.0_f64; n];
        loop {
            // Apply all arrivals due at the current instant.
            while let Some(a) = calendar.next_if(|a| a.time <= t + crate::eps::ULP) {
                let leaf = leaves[a.leaf.0]
                    .as_mut()
                    // Arrivals target leaves by construction; the fluid oracle
                    // fails loud on malformed workloads.
                    .unwrap_or_else(|| panic!("arrival to non-leaf node {}", a.leaf.0));
                assert!(a.bits > 0.0, "non-positive packet length");
                leaf.arrived += a.bits;
                leaf.backlog += a.bits;
                leaf.fifo.push_back((leaf.arrived, a.id));
            }

            let any_backlog = leaves
                .iter()
                .flatten()
                .any(|l| l.backlog > crate::eps::TIGHT);
            if !any_backlog {
                let Some(t_next) = calendar.peek().map(|a| a.time) else {
                    break; // drained and no more work
                };
                // Idle gap: flat curve segment, then jump to next arrival.
                for (i, c) in curves.iter_mut().enumerate() {
                    c.push(t_next, node_served[i]);
                }
                t = t_next;
                continue;
            }

            // Distribute rates top-down among backlogged subtrees (eq. 8).
            compute_rates(tree, &leaves, rate_bps, &mut rates);

            // Segment length: next arrival or earliest fluid queue-empty.
            let mut dt = f64::INFINITY;
            if let Some(t_next) = calendar.peek().map(|a| a.time) {
                dt = t_next - t;
            }
            for (i, l) in leaves.iter().enumerate() {
                if let Some(l) = l {
                    if l.backlog > crate::eps::TIGHT {
                        debug_assert!(rates[i] > 0.0, "backlogged leaf with zero rate");
                        dt = dt.min(l.backlog / rates[i]);
                    }
                }
            }
            debug_assert!(dt.is_finite() && dt >= 0.0);

            // Advance the segment: serve fluid, record departures.
            for (i, slot) in leaves.iter_mut().enumerate() {
                let Some(l) = slot else { continue };
                if l.backlog <= crate::eps::TIGHT || rates[i] <= 0.0 {
                    continue;
                }
                let served_now = (rates[i] * dt).min(l.backlog);
                let served_before = l.served;
                l.served += served_now;
                l.backlog = (l.backlog - served_now).max(0.0);
                if l.backlog < crate::eps::LOOSE {
                    l.backlog = 0.0;
                }
                // Packets whose end offset falls inside this segment finish.
                while let Some(&(end_off, id)) = l.fifo.front() {
                    if end_off <= l.served + crate::eps::LOOSE {
                        let t_fin = t + (end_off - served_before) / rates[i];
                        departures.push((id, t_fin.min(t + dt)));
                        l.fifo.pop_front();
                    } else {
                        break;
                    }
                }
            }
            // Node service accumulates at the node's distributed rate.
            t += dt;
            end_time = t;
            for i in 0..n {
                node_served[i] += rates[i] * dt;
                curves[i].push(t, node_served[i]);
            }
        }

        // Departure times are finite by construction (no NaN inputs).
        departures.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
        FluidResult {
            service: curves,
            departures,
            end_time,
        }
    }
}

/// Top-down rate distribution: every node with a backlogged descendant
/// shares its parent's allocation in proportion to φ among backlogged
/// siblings; idle subtrees get zero (their share is redistributed).
fn compute_rates(tree: &FluidTree, leaves: &[Option<LeafState>], rate_bps: f64, rates: &mut [f64]) {
    let n = tree.node_count();
    // A node is "active" if some descendant leaf is backlogged.
    let mut active = vec![false; n];
    for i in (0..n).rev() {
        let id = FluidNodeId(i);
        if tree.is_leaf(id) {
            active[i] = leaves[i]
                .as_ref()
                .is_some_and(|l| l.backlog > crate::eps::TIGHT);
        } else {
            // Children have larger indices, already computed.
            active[i] = tree.children(id).iter().any(|c| active[c.0]);
        }
    }
    for r in rates.iter_mut() {
        *r = 0.0;
    }
    if !active[0] {
        return;
    }
    rates[0] = rate_bps;
    for i in 0..n {
        let id = FluidNodeId(i);
        if tree.is_leaf(id) || rates[i] <= 0.0 {
            continue;
        }
        let children = tree.children(id);
        let phi_sum: f64 = children
            .iter()
            .filter(|c| active[c.0])
            .map(|c| tree.phi(*c))
            .sum();
        if phi_sum <= 0.0 {
            continue;
        }
        for c in children {
            if active[c.0] {
                rates[c.0] = rates[i] * tree.phi(c) / phi_sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper §2.1 / Fig. 2 GPS numbers: 11 sessions, unit packets, unit
    /// rate; session 1 (φ=0.5) sends 11 packets at t=0, the rest (φ=0.05)
    /// one each. GPS finish times: 2k for p1^k (k=1..10), 21 for p1^11,
    /// 20 for the others.
    #[test]
    fn fig2_gps_finish_times() {
        let mut tree = FluidTree::new();
        let s0 = tree.add_leaf(tree.root(), 0.5).unwrap();
        let mut small = Vec::new();
        for _ in 0..10 {
            small.push(tree.add_leaf(tree.root(), 0.05).unwrap());
        }
        let mut arr = Vec::new();
        for k in 0..11 {
            arr.push(Arrival {
                time: 0.0,
                leaf: s0,
                bits: 1.0,
                id: k,
            });
        }
        for (j, &leaf) in small.iter().enumerate() {
            arr.push(Arrival {
                time: 0.0,
                leaf,
                bits: 1.0,
                id: 100 + j as u64,
            });
        }
        let res = FluidSim::run(&tree, 1.0, &arr);
        for k in 0..10 {
            let f = res.finish_of(k).unwrap();
            assert!(
                (f - 2.0 * (k + 1) as f64).abs() < 1e-9,
                "p1^{} finished at {f}",
                k + 1
            );
        }
        assert!((res.finish_of(10).unwrap() - 21.0).abs() < 1e-9);
        for j in 0..10 {
            assert!((res.finish_of(100 + j).unwrap() - 20.0).abs() < 1e-9);
        }
        // Work conservation: the busy period is [0, 21] at rate 1.
        assert!((res.service[0].total() - 21.0).abs() < 1e-9);
        assert!((res.end_time - 21.0).abs() < 1e-9);
    }

    /// Paper §2.2 worked example: root children A (0.8) and B (0.2); A's
    /// children A1 (0.75 abs) and A2 (0.05 abs). A2 and B backlogged from
    /// t=0; A1's packets arrive at t=1 and re-order A2 relative to B.
    #[test]
    fn sec22_hgps_reordering() {
        let mut tree = FluidTree::new();
        let a = tree.add_internal(tree.root(), 0.8).unwrap();
        let b = tree.add_leaf(tree.root(), 0.2).unwrap();
        let a1 = tree.add_leaf(a, 0.9375).unwrap();
        let a2 = tree.add_leaf(a, 0.0625).unwrap();

        // "A2 and B have many packets queued" — enough that both stay
        // backlogged throughout the window of interest.
        let mut arr = Vec::new();
        for k in 0..40 {
            arr.push(Arrival {
                time: 0.0,
                leaf: a2,
                bits: 1.0,
                id: 200 + k,
            });
        }
        for k in 0..40 {
            arr.push(Arrival {
                time: 0.0,
                leaf: b,
                bits: 1.0,
                id: 300 + k,
            });
        }
        // First check the no-future-arrivals finish times (paper: A2 at
        // 1.25, 2.5, 3.75, ...; B at 5, 10, 15, ...).
        let res = FluidSim::run(&tree, 1.0, &arr);
        for k in 0..4 {
            assert!(
                (res.finish_of(200 + k).unwrap() - 1.25 * (k + 1) as f64).abs() < 1e-9,
                "A2 packet {k}"
            );
            assert!(
                (res.finish_of(300 + k).unwrap() - 5.0 * (k + 1) as f64).abs() < 1e-9,
                "B packet {k}"
            );
        }

        // Now A1 floods from t=1: A1/A2/B shares become 0.75/0.05/0.20,
        // delaying A2's remaining packets past B's (the Property-1
        // violation that motivates H-PFQ).
        let mut arr2 = arr.clone();
        for k in 0..40 {
            arr2.push(Arrival {
                time: 1.0,
                leaf: a1,
                bits: 1.0,
                id: 400 + k,
            });
        }
        arr2.sort_by(|x, y| x.time.partial_cmp(&y.time).unwrap());
        let res2 = FluidSim::run(&tree, 1.0, &arr2);
        // A2 served 0.8 bits by t=1; its first packet's remaining 0.2 bits
        // drain at rate 0.05 => finish at 1 + 4 = 5; the second needs 1.2
        // more bits => 25, the third 45 (the paper quotes the same ~20s
        // spacing, "21, 41, 61", from a slightly different idealization).
        assert!((res2.finish_of(200).unwrap() - 5.0).abs() < 1e-9);
        assert!((res2.finish_of(201).unwrap() - 25.0).abs() < 1e-9);
        assert!((res2.finish_of(202).unwrap() - 45.0).abs() < 1e-9);
        // B's finish times are unaffected (5, 10, 15, 20)...
        for k in 0..4 {
            assert!((res2.finish_of(300 + k).unwrap() - 5.0 * (k + 1) as f64).abs() < 1e-9);
        }
        // ...so B's 2nd..4th packets now finish BEFORE A2's 2nd packet,
        // although without A1 they finished after: the relative order
        // changed due to a future arrival.
        assert!(res2.finish_of(301).unwrap() < res2.finish_of(201).unwrap());
        assert!(res.finish_of(301).unwrap() > res.finish_of(201).unwrap());
    }

    #[test]
    fn idle_gap_between_busy_periods() {
        let mut tree = FluidTree::new();
        let a = tree.add_leaf(tree.root(), 1.0).unwrap();
        let arr = vec![
            Arrival {
                time: 0.0,
                leaf: a,
                bits: 2.0,
                id: 1,
            },
            Arrival {
                time: 10.0,
                leaf: a,
                bits: 2.0,
                id: 2,
            },
        ];
        let res = FluidSim::run(&tree, 1.0, &arr);
        assert!((res.finish_of(1).unwrap() - 2.0).abs() < 1e-12);
        assert!((res.finish_of(2).unwrap() - 12.0).abs() < 1e-12);
        // Flat between 2 and 10.
        assert!((res.service[a.0].served(2.0, 10.0)).abs() < 1e-12);
        assert!((res.service[0].total() - 4.0).abs() < 1e-12);
    }
}
