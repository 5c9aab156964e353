//! A small, dependency-free PRNG for traffic generation and tests.
//!
//! Implements xoshiro256** (Blackman & Vigna) seeded through splitmix64,
//! which is the standard recipe for expanding a 64-bit seed into the
//! 256-bit state. Not cryptographic — it exists so simulations are
//! reproducible from a single `u64` seed without pulling in an external
//! crate.

/// xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Expands `seed` into the full state via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.gen_f64()
    }

    /// Uniform `u64` in `[lo, hi)` (half-open; `hi > lo`).
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        // Debiased multiply-shift (Lemire); the retry loop terminates with
        // overwhelming probability after one or two draws.
        let span = hi - lo;
        let zone = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "Lemire's test reads the low 64 bits of the product"
            )]
            let low = m as u64;
            if low >= zone {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Uniform `u32` in `[lo, hi)`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is below hi, a u32"
    )]
    pub fn gen_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.gen_range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is below hi, a usize"
    )]
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_u64(lo as u64, hi as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.gen_range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
        // Every value of a small range is hit.
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[r.gen_range_usize(0, 5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_probability_is_respected() {
        let mut r = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_800..3_200).contains(&hits), "hits {hits}");
    }
}
