//! Deterministic random number generation.
//!
//! Every randomized experiment in the reproduction (the randomized
//! adversary, the workload generators, bootstrap resampling) is driven by a
//! ChaCha8 stream seeded explicitly, so that any figure or table can be
//! regenerated bit-for-bit from its seed. [`Modulus`] maps raw draws onto
//! `0..d` without a hardware division, draw for draw the same as `x % d`.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The concrete RNG used across the workspace.
pub type DodaRng = ChaCha8Rng;

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// use doda_stats::rng::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(7);
/// let mut b = seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> DodaRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A deterministic generator of per-trial seeds.
///
/// Experiments typically run many independent trials; `SeedSequence` derives
/// one sub-seed per trial from a single experiment seed so that trials are
/// independent yet reproducible, and so that adding trials never perturbs
/// the seeds of earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    base: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `base`.
    pub fn new(base: u64) -> Self {
        SeedSequence { base }
    }

    /// Returns the seed for trial `index`.
    ///
    /// Uses the SplitMix64 output function, which maps distinct inputs to
    /// well-spread 64-bit outputs.
    pub fn seed(&self, index: u64) -> u64 {
        let mut z = self
            .base
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns the RNG for trial `index`.
    pub fn rng(&self, index: u64) -> DodaRng {
        seeded_rng(self.seed(index))
    }

    /// Derives a child sequence (e.g. one per value of `n` in a sweep).
    pub fn child(&self, label: u64) -> SeedSequence {
        SeedSequence {
            base: self.seed(label ^ 0xA5A5_A5A5_A5A5_A5A5),
        }
    }
}

/// Division-free `x % d` for a divisor fixed in advance.
///
/// Samplers map 64 random bits onto `0..d` as `x % d`. A hardware 64-bit
/// division costs tens of cycles; `Modulus` precomputes a magic number
/// once, so each reduction takes one widening multiply and a shift, then
/// one multiply-subtract for the remainder. This is Granlund and
/// Montgomery's invariant-integer division ("Division by Invariant
/// Integers using Multiplication", PLDI 1994) in the round-up form
/// libdivide uses: the magic is `⌈2^(64+ℓ)/d⌉` with `ℓ = ⌊log₂ d⌋`, and
/// when that needs 65 bits the quotient takes one extra add-and-halve
/// step. A power of two reduces to a plain shift.
///
/// The result is exact, `reduce(x) == x % d`, for every `u64` `x` and
/// every `d ≥ 1`, so a sampler keeps its stream when it switches to it.
///
/// # Example
///
/// ```
/// use doda_stats::rng::Modulus;
///
/// let m = Modulus::new(511);
/// assert_eq!(m.reduce(1_000_000), 1_000_000 % 511);
/// assert_eq!(m.reduce(u64::MAX), u64::MAX % 511);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modulus {
    d: u64,
    magic: u64,
    shift: u32,
    kind: Reduction,
}

/// How [`Modulus::reduce`] computes the quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reduction {
    /// `d = 2^shift`: `q = x >> shift`.
    Shift,
    /// The magic fits in 64 bits: `q = mulhi(x, magic) >> shift`.
    Multiply,
    /// The 65-bit magic `2^64 + magic`: `q = (((x − h) >> 1) + h) >> shift`
    /// with `h = mulhi(x, magic)`.
    MultiplyAdd,
}

impl Modulus {
    /// Precomputes the reduction modulo `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d >= 1, "the modulus must be at least 1");
        let log = 63 - d.leading_zeros();
        if d.is_power_of_two() {
            return Modulus {
                d,
                magic: 0,
                shift: log,
                kind: Reduction::Shift,
            };
        }
        // ⌊2^(64+ℓ) / d⌋ fits in 64 bits because d > 2^ℓ.
        let power = 1u128 << (64 + log);
        let mut magic = (power / d as u128) as u64;
        let rem = (power % d as u128) as u64;
        // The rounded-up magic ⌊2^(64+ℓ)/d⌋ + 1 exceeds 2^(64+ℓ)/d by
        // e/d with e = d − rem; the quotient stays exact for every x when
        // x·e < 2^(64+ℓ), which e < 2^ℓ guarantees for all x < 2^64.
        let kind = if d - rem < 1 << log {
            Reduction::Multiply
        } else {
            // Use the next power instead: double quotient and remainder
            // (the quotient's 65th bit is implied), correcting for the
            // remainder reaching d.
            magic = magic.wrapping_add(magic);
            let twice_rem = rem.wrapping_add(rem);
            if twice_rem >= d || twice_rem < rem {
                magic += 1;
            }
            Reduction::MultiplyAdd
        };
        Modulus {
            d,
            magic: magic + 1,
            shift: log,
            kind,
        }
    }

    /// Returns `x % d`.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        let q = match self.kind {
            Reduction::Shift => x >> self.shift,
            Reduction::Multiply => mul_hi(x, self.magic) >> self.shift,
            Reduction::MultiplyAdd => {
                let h = mul_hi(x, self.magic);
                (((x - h) >> 1) + h) >> self.shift
            }
        };
        x - q * self.d
    }
}

/// The high 64 bits of the 128-bit product `a · b`.
#[inline]
fn mul_hi(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        let va: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn seed_sequence_is_stable_and_spread() {
        let seq = SeedSequence::new(42);
        let s0 = seq.seed(0);
        let s1 = seq.seed(1);
        assert_ne!(s0, s1);
        // Stability: same index, same seed.
        assert_eq!(seq.seed(0), s0);
        // 1000 trial seeds are all distinct.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(seq.seed(i)));
        }
    }

    #[test]
    fn child_sequences_are_independent() {
        let seq = SeedSequence::new(7);
        let a = seq.child(0);
        let b = seq.child(1);
        assert_ne!(a.seed(0), b.seed(0));
        assert_ne!(a.seed(0), seq.seed(0));
    }

    /// The divisors `Modulus` must handle exactly: small, powers of two
    /// and their neighbours, around `2^32`, `u64::MAX`, and the `n` and
    /// `n − 1` of every pair sampler up to `n = 2048`.
    fn divisors() -> Vec<u64> {
        let mut ds = vec![1, 2, 3, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, u64::MAX];
        for k in 1..64 {
            let p = 1u64 << k;
            ds.extend([p - 1, p, p + 1]);
        }
        ds.extend(1..=2048);
        ds.sort_unstable();
        ds.dedup();
        ds
    }

    #[test]
    fn modulus_is_exact() {
        let mut rng = seeded_rng(2024);
        for d in divisors() {
            let m = Modulus::new(d);
            let edges = [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX];
            let random = (0..64).map(|_| rng.gen::<u64>());
            for x in edges.into_iter().chain(random) {
                assert_eq!(m.reduce(x), x % d, "{x} mod {d}");
            }
        }
    }

    #[test]
    fn modulus_covers_every_reduction_kind() {
        assert_eq!(Modulus::new(1).kind, Reduction::Shift);
        assert_eq!(Modulus::new(512).kind, Reduction::Shift);
        let kinds: Vec<Reduction> = divisors()
            .into_iter()
            .map(|d| Modulus::new(d).kind)
            .collect();
        assert!(kinds.contains(&Reduction::Multiply));
        assert!(kinds.contains(&Reduction::MultiplyAdd));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn modulus_rejects_zero() {
        let _ = Modulus::new(0);
    }

    #[test]
    fn trial_rngs_reproduce() {
        let seq = SeedSequence::new(9);
        let x: u64 = seq.rng(5).gen();
        let y: u64 = seq.rng(5).gen();
        assert_eq!(x, y);
    }
}
