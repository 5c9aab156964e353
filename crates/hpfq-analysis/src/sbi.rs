//! T-WFI and SBI: the paper's remaining worst-case indices.
//!
//! * Definition 1 (T-WFI) measures the index in *time*; Definition 2
//!   (B-WFI) in *bits*; for a standalone server they are equivalent with
//!   `α = r_i · A` (paper eq. 15).
//! * Definition 3 (SBI) relaxes worst-case fairness: the service
//!   guarantee need only hold for *one* interval ending at each
//!   backlogged instant and starting at a backlog-period start. A
//!   session's B-WFI is therefore always an upper bound on its SBI, and
//!   Lemma 1 converts an SBI into a delay bound.

use hpfq_core::vtime;
use hpfq_fluid::ServiceCurve;

/// Converts a B-WFI (bits) into the equivalent standalone T-WFI (seconds)
/// per eq. 15: `A = α / r_i`.
pub fn t_wfi_from_b_wfi(alpha_bits: f64, r_i: f64) -> f64 {
    assert!(r_i > 0.0);
    alpha_bits / r_i
}

/// Lemma 1: the delay bound `(σ + γ)/r_i` a standalone server guarantees
/// a `(σ, r_i)` leaky-bucket session from an SBI of `γ` bits.
pub fn lemma1_delay_bound(sigma_bits: f64, gamma_bits: f64, r_i: f64) -> f64 {
    assert!(r_i > 0.0);
    (sigma_bits + gamma_bits) / r_i
}

/// Empirical SBI (bits) of a session over a trace (Definition 3): for
/// every instant `t2` at which the session is backlogged, only the
/// interval starting at the *beginning of the enclosing backlog period*
/// needs to satisfy the service inequality — so the inner minimum of the
/// B-WFI computation is pinned to the period start instead of running.
///
/// Arguments as in [`crate::wfi::empirical_bwfi`]. Always ≤ the B-WFI of
/// the same trace (worst-case fair is the stronger property).
pub fn empirical_sbi(
    arrivals: &[(f64, f64)],
    w_i: &ServiceCurve,
    w_s: &ServiceCurve,
    share: f64,
) -> f64 {
    assert!(share > 0.0 && vtime::approx_le(share, 1.0));
    let mut times: Vec<f64> = arrivals.iter().map(|&(t, _)| t).collect();
    times.extend(w_i.points().iter().map(|&(t, _)| t));
    times.extend(w_s.points().iter().map(|&(t, _)| t));
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times.dedup_by(|a, b| (*a - *b).abs() < crate::TIME_DEDUP_EPS);

    let arrived_at = |t: f64| -> f64 {
        let idx = arrivals.partition_point(|&(at, _)| at <= t + crate::TIME_DEDUP_EPS);
        arrivals[..idx].iter().map(|&(_, b)| b).sum()
    };

    let mut best = 0.0_f64;
    let mut period_start_d: Option<f64> = None;
    for &t in &times {
        let backlog = arrived_at(t) - w_i.value_at(t);
        let d = share * w_s.value_at(t) - w_i.value_at(t);
        if backlog > crate::BACKLOG_EPS_BITS {
            let d0 = *period_start_d.get_or_insert(d);
            if d - d0 > best {
                best = d - d0;
            }
        } else {
            if let Some(d0) = period_start_d.take() {
                if d - d0 > best {
                    best = d - d0;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wfi::empirical_bwfi;

    #[test]
    fn conversions_are_inverse() {
        let alpha = 12_000.0;
        let r = 1.5e6;
        let a = t_wfi_from_b_wfi(alpha, r);
        assert!((a * r - alpha).abs() < 1e-9);
    }

    #[test]
    fn lemma1_matches_hand_computation() {
        // σ = 16 kbit, γ = 8 kbit, r = 1 Mbit/s => 24 ms.
        assert!((lemma1_delay_bound(16e3, 8e3, 1e6) - 0.024).abs() < 1e-12);
    }

    /// The WFQ example from §3.2: SBI is one packet while the WFI is ~N
    /// packets. Construct a service curve that runs ahead then starves
    /// mid-period: the SBI (anchored at the period start, where the
    /// session is ahead) is small, the B-WFI (anchored at the running
    /// minimum) is large.
    #[test]
    fn sbi_is_weaker_than_wfi() {
        // Session backlogged [0, 10]; share 0.5 of a unit-rate server.
        // Service: full rate [0,2] (ahead by 1), nothing [2,6] (behind by
        // 1 at t=6), share rate [6,10].
        let mut w_i = hpfq_fluid::ServiceCurve::new();
        w_i.push(0.0, 0.0);
        w_i.push(2.0, 2.0);
        w_i.push(6.0, 2.0);
        w_i.push(10.0, 4.0);
        let mut w_s = hpfq_fluid::ServiceCurve::new();
        w_s.push(0.0, 0.0);
        w_s.push(10.0, 10.0);
        let arrivals = vec![(0.0, 100.0)];
        let sbi = empirical_sbi(&arrivals, &w_i, &w_s, 0.5);
        let wfi = empirical_bwfi(&arrivals, &w_i, &w_s, 0.5);
        // From the period start (D=0): worst D is +1 at t=6.
        assert!((sbi - 1.0).abs() < 1e-9, "sbi {sbi}");
        // From the running minimum (D=-1 at t=2): worst rise is 2.
        assert!((wfi - 2.0).abs() < 1e-9, "wfi {wfi}");
        assert!(sbi <= wfi);
    }

    #[test]
    fn perfectly_fair_service_has_zero_sbi() {
        let mut w_i = hpfq_fluid::ServiceCurve::new();
        w_i.push(0.0, 0.0);
        w_i.push(10.0, 5.0);
        let mut w_s = hpfq_fluid::ServiceCurve::new();
        w_s.push(0.0, 0.0);
        w_s.push(10.0, 10.0);
        let sbi = empirical_sbi(&[(0.0, 5.0)], &w_i, &w_s, 0.5);
        assert!(sbi < 1e-9);
    }
}
