//! The packet type shared by the schedulers, the hierarchy, and the
//! discrete-event simulator.

use crate::error::HpfqError;

/// Largest packet length the admission path accepts, in bytes (16 MiB —
/// far above any real MTU, small enough that `len * 8` stays exact in
/// `f64` and a single corrupted length cannot wedge the link for hours).
pub const MAX_PACKET_BYTES: u32 = 1 << 24;

/// A network packet as seen by the scheduling machinery.
///
/// The scheduler only ever inspects `len_bytes`; the remaining fields are
/// carried through so that measurement code can attribute service to flows
/// and compute per-packet delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Globally unique identifier, assigned by the traffic source.
    pub id: u64,
    /// Identifier of the flow (user-level session) the packet belongs to.
    pub flow: u32,
    /// Length on the wire in bytes.
    pub len_bytes: u32,
    /// Creation time at the source, in simulation seconds.
    pub birth: f64,
    /// Arrival time at the server under measurement, in simulation seconds.
    /// Set by the simulator when the packet is enqueued.
    pub arrival: f64,
}

impl Packet {
    /// Creates a packet born (and, until re-stamped, arriving) at `t`.
    pub fn new(id: u64, flow: u32, len_bytes: u32, t: f64) -> Self {
        debug_assert!(len_bytes > 0, "zero-length packet");
        Packet {
            id,
            flow,
            len_bytes,
            birth: t,
            arrival: t,
        }
    }

    /// Length of the packet in bits.
    #[inline]
    pub fn bits(&self) -> f64 {
        f64::from(self.len_bytes) * 8.0
    }

    /// Transmission time of this packet on a link of `rate_bps` bits/s.
    #[inline]
    pub fn tx_time(&self, rate_bps: f64) -> f64 {
        self.bits() / rate_bps
    }

    /// Admission validation: rejects the malformed packets an adversarial
    /// or corrupted source can produce. A packet is valid iff its length
    /// is in `1..=`[`MAX_PACKET_BYTES`] and both timestamps are finite.
    ///
    /// The scheduler maths divides by packet length and accumulates
    /// timestamps into virtual clocks, so any of these faults would poison
    /// every tag downstream — they must be stopped at the edge.
    pub fn validate(&self) -> Result<(), HpfqError> {
        let fail = |reason| HpfqError::InvalidPacket {
            id: self.id,
            flow: self.flow,
            reason,
        };
        if self.len_bytes == 0 {
            return Err(fail("zero length"));
        }
        if self.len_bytes > MAX_PACKET_BYTES {
            return Err(fail("length exceeds MAX_PACKET_BYTES"));
        }
        if !self.arrival.is_finite() {
            return Err(fail("non-finite arrival time"));
        }
        if !self.birth.is_finite() {
            return Err(fail("non-finite birth time"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_adversarial_fields() {
        let ok = Packet::new(1, 7, 1500, 0.25);
        assert!(ok.validate().is_ok());
        let mut p = ok;
        p.len_bytes = 0;
        assert!(matches!(
            p.validate(),
            Err(HpfqError::InvalidPacket {
                reason: "zero length",
                ..
            })
        ));
        p.len_bytes = MAX_PACKET_BYTES + 1;
        assert!(p.validate().is_err());
        p = ok;
        p.arrival = f64::NAN;
        assert!(p.validate().is_err());
        p = ok;
        p.birth = f64::INFINITY;
        assert!(p.validate().is_err());
    }

    #[test]
    fn bits_and_tx_time() {
        let p = Packet::new(1, 7, 1500, 0.25);
        assert_eq!(p.bits(), 12_000.0);
        assert!((p.tx_time(1_000_000.0) - 0.012).abs() < 1e-12);
        assert_eq!(p.flow, 7);
        assert_eq!(p.arrival, 0.25);
    }
}
