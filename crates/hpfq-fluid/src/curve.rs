//! Piecewise-linear cumulative service curves.
//!
//! A [`ServiceCurve`] records `W(t)` — cumulative bits served by time `t` —
//! as a non-decreasing piecewise-linear function. Fluid simulations emit
//! one per leaf; the analysis crate builds them from packet service traces
//! too, so `W_i(t1, t2)` queries (the quantity in every definition of §3.2)
//! are uniform across fluid and packet systems.

/// A non-decreasing piecewise-linear cumulative function of time.
///
/// Stored as breakpoints `(t, w)`; between breakpoints the function is
/// linear; before the first breakpoint it is 0; after the last it stays at
/// the final value (append more breakpoints to extend).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceCurve {
    points: Vec<(f64, f64)>,
}

impl ServiceCurve {
    /// An empty curve (identically zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a breakpoint. Time and value must be non-decreasing.
    pub fn push(&mut self, t: f64, w: f64) {
        if let Some(&(pt, pw)) = self.points.last() {
            assert!(
                t >= pt - crate::eps::TIGHT && w >= pw - crate::eps::LOOSE,
                "breakpoints must be non-decreasing: ({t}, {w}) after ({pt}, {pw})"
            );
            // Collapse zero-width duplicates to keep the vector tidy.
            if (t - pt).abs() < crate::eps::ULP && (w - pw).abs() < crate::eps::TIGHT {
                return;
            }
        }
        self.points.push((t, w));
    }

    /// `W(t)`: cumulative bits served by time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self
            .points
            .binary_search_by(|&(pt, _)| pt.partial_cmp(&t).expect("curve times must not be NaN"))
        {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) if i == self.points.len() => self.points[i - 1].1,
            Err(i) => {
                let (t0, w0) = self.points[i - 1];
                let (t1, w1) = self.points[i];
                if t1 - t0 <= 0.0 {
                    w1
                } else {
                    w0 + (w1 - w0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }

    /// `W(t1, t2)`: bits served in `[t1, t2]`.
    pub fn served(&self, t1: f64, t2: f64) -> f64 {
        debug_assert!(t2 >= t1);
        self.value_at(t2) - self.value_at(t1)
    }

    /// Total bits served over the whole recorded horizon.
    pub fn total(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, w)| w)
    }

    /// Time of the last breakpoint.
    pub fn end_time(&self) -> f64 {
        self.points.last().map_or(0.0, |&(t, _)| t)
    }

    /// Breakpoints `(t, W(t))`.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Average rate over `[t1, t2]` in bits/s.
    pub fn avg_rate(&self, t1: f64, t2: f64) -> f64 {
        if t2 <= t1 {
            0.0
        } else {
            self.served(t1, t2) / (t2 - t1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_curve_interpolates() {
        let mut c = ServiceCurve::new();
        c.push(0.0, 0.0);
        c.push(2.0, 4.0); // rate 2
        c.push(5.0, 4.0); // idle
        c.push(6.0, 7.0); // rate 3
        assert_eq!(c.value_at(-1.0), 0.0);
        assert_eq!(c.value_at(1.0), 2.0);
        assert_eq!(c.value_at(3.0), 4.0);
        assert_eq!(c.value_at(5.5), 5.5);
        assert_eq!(c.value_at(10.0), 7.0);
        assert_eq!(c.served(1.0, 5.5), 3.5);
        assert!((c.avg_rate(0.0, 2.0) - 2.0).abs() < 1e-12);
    }
}
