//! Closed-form bounds from the paper's theorems.
//!
//! All quantities are in bits, bits/s, and seconds. "Share paths" run from
//! the session's own node up to (but excluding) the root: for a session
//! `i` with `H` ancestors, index `h` of a slice corresponds to `p^h(i)`,
//! `h = 0 .. H-1` (so `path[0]` describes the session itself and
//! `path[H-1]` the child of the root), exactly the summation ranges of
//! Theorems 1–2.

/// Theorem 4(2) / eq. (30): the B-WFI (bits) WF²Q+ guarantees a session
/// with maximum packet size `l_i_max`, under a server with maximum packet
/// size `l_max`, when the session's guaranteed rate is `r_i` of a server
/// of rate `r`.
pub fn wf2q_plus_bwfi(l_i_max: f64, l_max: f64, r_i: f64, r: f64) -> f64 {
    assert!(l_i_max <= l_max && r_i <= r);
    l_i_max + (l_max - l_i_max) * r_i / r
}

/// Theorem 4(3): delay bound (seconds) for a `(sigma, r_i)` leaky-bucket
/// session under standalone WF²Q+.
pub fn wf2q_plus_delay_bound(sigma: f64, r_i: f64, l_max: f64, r: f64) -> f64 {
    sigma / r_i + l_max / r
}

/// Theorem 1 / eq. (23): B-WFI (bits) of a session under an H-PFQ server.
///
/// `path[h] = (phi_ratio_h, alpha_h)` where `phi_ratio_h` is
/// `φ_i / φ_{p^h(i)}` and `alpha_h` the B-WFI the server node `p^{h+1}(i)`
/// guarantees the logical queue at `p^h(i)`, for `h = 0 .. H-1`.
pub fn theorem1_bwfi(path: &[(f64, f64)]) -> f64 {
    path.iter().map(|&(ratio, alpha)| ratio * alpha).sum()
}

/// Corollary 1 / eq. (24): delay bound (seconds) for a `(sigma, r_i)`
/// leaky-bucket session under H-PFQ, from per-level WFIs.
///
/// `path[h] = (r_h, alpha_h)` where `r_h` is the guaranteed rate of node
/// `p^h(i)` and `alpha_h` as in [`theorem1_bwfi`], `h = 0 .. H-1`.
pub fn corollary1_bound(sigma: f64, r_i: f64, path: &[(f64, f64)]) -> f64 {
    sigma / r_i
        + path
            .iter()
            .map(|&(r_h, alpha_h)| alpha_h / r_h)
            .sum::<f64>()
}

/// Corollary 2 / eq. (31): delay bound (seconds) for a `(sigma, r_i)`
/// leaky-bucket session under H-WF²Q+ when `L_max = L_{i,max}`:
///
/// ```text
/// σ_i / r_i + Σ_{h=0}^{H-1} L_max / r_{p^h(i)}
/// ```
///
/// `rates_path[h]` is the guaranteed rate of `p^h(i)`, `h = 0 .. H-1`
/// (`rates_path[0] = r_i`).
pub fn corollary2_bound(sigma: f64, l_max: f64, rates_path: &[f64]) -> f64 {
    assert!(!rates_path.is_empty());
    let r_i = rates_path[0];
    sigma / r_i + rates_path.iter().map(|&r| l_max / r).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq30_reduces_to_lmax_for_equal_packets() {
        // L_i,max == L_max => alpha = L_max, independent of rates.
        assert_eq!(wf2q_plus_bwfi(12_000.0, 12_000.0, 1.0, 10.0), 12_000.0);
        // Smaller own packets: interpolates.
        let a = wf2q_plus_bwfi(4_000.0, 12_000.0, 2.0, 10.0);
        assert!((a - (4_000.0 + 8_000.0 * 0.2)).abs() < 1e-9);
    }

    #[test]
    fn corollary2_matches_hand_computation() {
        // 3-level path: r_i = 1 Mbit/s, parent 10, grandparent (root child)
        // 45; sigma = 96 kbit; L = 12 kbit.
        let b = corollary2_bound(96_000.0, 12_000.0, &[1e6, 10e6, 45e6]);
        let expect = 96e3 / 1e6 + 12e3 / 1e6 + 12e3 / 10e6 + 12e3 / 45e6;
        assert!((b - expect).abs() < 1e-12);
    }

    #[test]
    fn theorem1_weighted_sum() {
        // Two levels with ratios 1 and 0.5, alphas 8k and 12k bits.
        let a = theorem1_bwfi(&[(1.0, 8_000.0), (0.5, 12_000.0)]);
        assert!((a - 14_000.0).abs() < 1e-12);
    }

    #[test]
    fn corollary1_sums_alpha_over_rate() {
        let b = corollary1_bound(10_000.0, 1e6, &[(1e6, 8_000.0), (1e7, 12_000.0)]);
        let expect = 0.01 + 8e3 / 1e6 + 12e3 / 1e7;
        assert!((b - expect).abs() < 1e-12);
    }
}
