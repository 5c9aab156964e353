//! [`VTime`]: the type of every virtual start tag, finish tag and virtual
//! clock this crate stores.

use std::ops::{Add, Sub};

use crate::vtime;

/// A virtual time — an `S`, `F` or `V` of eqs. (27)–(29), in
/// reference-time seconds.
///
/// Tags are sums of `f64` increments, so two mathematically equal tags can
/// differ in the last ulp. A `VTime` therefore has no `PartialOrd` and no
/// `PartialEq`: its methods say which comparison is meant, drift-tolerant
/// (`approx_*`) or exact (`exactly_*`, `same_stamp`), each the [`vtime`]
/// helper of its name, so there is one `EPS`.
///
/// ```compile_fail,E0369
/// use hpfq_core::VTime;
/// let (start, v) = (VTime::new(1.0), VTime::new(2.0));
/// let eligible = start < v; // a raw comparison on a tag does not compile
/// ```
///
/// while the named comparison does:
///
/// ```
/// use hpfq_core::VTime;
/// let (start, v) = (VTime::new(1.0), VTime::new(2.0));
/// let eligible = start.approx_le(v);
/// assert!(eligible);
/// ```
///
/// Ranks ([`crate::Rank`], [`crate::Threshold`]) stay plain `f64`: a PIFO
/// rank is any number (DRR rounds, FIFO sequence numbers, priorities), and
/// virtual time is one kind of it. [`VTime::get`] is the one way out.
#[derive(Clone, Copy, Debug, Default)]
#[repr(transparent)]
pub struct VTime(f64);

impl VTime {
    /// Virtual time zero: the start of every busy period.
    pub const ZERO: VTime = VTime(0.0);

    /// The virtual time `v` reference-time seconds.
    #[inline]
    pub const fn new(v: f64) -> VTime {
        VTime(v)
    }

    /// The raw value, for a rank, an event or a report.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// `self ≤ other` up to the scaled tolerance ([`vtime::approx_le`]).
    #[inline]
    pub fn approx_le(self, other: VTime) -> bool {
        vtime::approx_le(self.0, other.0)
    }

    /// `self ≥ other` up to the scaled tolerance ([`vtime::approx_ge`]).
    #[inline]
    pub fn approx_ge(self, other: VTime) -> bool {
        vtime::approx_ge(self.0, other.0)
    }

    /// Exact `self ≤ other` ([`vtime::exactly_le`]).
    #[inline]
    pub fn exactly_le(self, other: VTime) -> bool {
        vtime::exactly_le(self.0, other.0)
    }

    /// Exact `self < other` ([`vtime::exactly_lt`]).
    #[inline]
    pub fn exactly_lt(self, other: VTime) -> bool {
        vtime::exactly_lt(self.0, other.0)
    }

    /// Whether `self` is the stored stamp `other`, bit for bit in value
    /// ([`vtime::same_stamp`]).
    #[inline]
    pub fn same_stamp(self, other: VTime) -> bool {
        vtime::same_stamp(self.0, other.0)
    }

    /// The later of the two, as [`f64::max`] (eq. 28's `max(F, V)`).
    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        VTime(self.0.max(other.0))
    }

    /// `self` bumped up by one scaled tolerance ([`vtime::nudge_up`]).
    #[inline]
    pub fn nudge_up(self) -> VTime {
        VTime(vtime::nudge_up(self.0))
    }
}

/// Advances a virtual time by `dv` reference-time seconds.
impl Add<f64> for VTime {
    type Output = VTime;

    #[inline]
    fn add(self, dv: f64) -> VTime {
        VTime(self.0 + dv)
    }
}

/// The virtual time between two instants, in reference-time seconds.
impl Sub for VTime {
    type Output = f64;

    #[inline]
    fn sub(self, other: VTime) -> f64 {
        self.0 - other.0
    }
}
