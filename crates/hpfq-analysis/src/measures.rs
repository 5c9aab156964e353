//! Empirical measures extracted from packet service traces.

use hpfq_fluid::ServiceCurve;
use hpfq_sim::ServiceRecord;

/// Builds a cumulative service curve `W(t)` from service records: each
/// packet contributes a linear ramp of its bits over its transmission
/// interval `[start, end]` (the link transfers bits at line rate during
/// the transmission). Records must be non-overlapping in time — true for
/// any set of records from one link — but may be given unsorted.
pub fn service_curve_from_records<'a>(
    records: impl IntoIterator<Item = &'a ServiceRecord>,
) -> ServiceCurve {
    let mut recs: Vec<&ServiceRecord> = records.into_iter().collect();
    recs.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite times"));
    let mut curve = ServiceCurve::new();
    let mut w = 0.0;
    for r in recs {
        curve.push(r.start, w);
        w += f64::from(r.len_bytes) * 8.0;
        curve.push(r.end, w);
    }
    curve
}

/// `(arrival time, delay)` series for a traced flow — the data behind the
/// paper's Figs. 4, 6, 7.
pub fn delay_series(records: &[ServiceRecord]) -> Vec<(f64, f64)> {
    records.iter().map(|r| (r.arrival, r.delay())).collect()
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample set, by linear interpolation.
/// Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "pos = q*(len-1) with q asserted in [0, 1] above"
    )]
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

/// Average received bandwidth (bits/s) of a flow over `[t1, t2]`, from its
/// service records (fractional packets at the boundaries are included
/// pro-rata via the ramp model).
pub fn bandwidth_over(records: &[ServiceRecord], t1: f64, t2: f64) -> f64 {
    service_curve_from_records(records.iter()).avg_rate(t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, start: f64, end: f64, bytes: u32) -> ServiceRecord {
        ServiceRecord {
            id,
            flow: 0,
            len_bytes: bytes,
            arrival: start - 0.5,
            start,
            end,
        }
    }

    #[test]
    fn curve_ramps_per_packet() {
        let recs = vec![rec(1, 1.0, 2.0, 125), rec(2, 3.0, 4.0, 125)];
        let c = service_curve_from_records(&recs);
        assert_eq!(c.value_at(1.0), 0.0);
        assert_eq!(c.value_at(1.5), 500.0);
        assert_eq!(c.value_at(2.5), 1000.0);
        assert_eq!(c.value_at(4.0), 2000.0);
        assert!((bandwidth_over(&recs, 1.0, 4.0) - 2000.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unsorted_records_are_sorted() {
        let recs = vec![rec(2, 3.0, 4.0, 125), rec(1, 1.0, 2.0, 125)];
        let c = service_curve_from_records(&recs);
        assert_eq!(c.value_at(2.5), 1000.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn delay_series_matches_records() {
        let recs = vec![rec(1, 1.0, 2.0, 125)];
        let s = delay_series(&recs);
        assert_eq!(s, vec![(0.5, 1.5)]);
    }
}
