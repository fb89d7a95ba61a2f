//! Deterministic random number generation.
//!
//! Every stochastic component in the simulator draws from a [`DetRng`] that is
//! seeded explicitly, so that a simulation run is a pure function of its
//! configuration and seed. Independent sub-streams are derived with
//! [`DetRng::derive`] so that adding a consumer never perturbs the draws seen
//! by existing consumers.

/// A deterministic, explicitly-seeded random number generator.
///
/// The core is xoshiro256++ seeded through SplitMix64 — a self-contained,
/// platform-stable generator (no external dependency, identical streams on
/// every target) — plus the distribution samplers the simulator needs
/// (normal, truncated normal).
///
/// # Examples
///
/// ```
/// use metaclass_netsim::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
    spare_normal: Option<f64>,
}

/// SplitMix64 step, used to derive independent stream seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed into four non-degenerate state words, the standard
        // SplitMix64 initialization recommended for the xoshiro family:
        // word i is the i-th output of a SplitMix64 stream started at `seed`.
        let golden = 0x9E37_79B9_7F4A_7C15u64;
        let word = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(golden)));
        DetRng { seed, state: [word(0), word(1), word(2), word(3)], spare_normal: None }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for sub-stream `stream`.
    ///
    /// Derivation depends only on the original seed and `stream`, never on how
    /// many values have been drawn, so component RNGs stay decoupled.
    pub fn derive(&self, stream: u64) -> DetRng {
        DetRng::new(splitmix64(self.seed ^ splitmix64(stream)))
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid range");
        if lo == hi {
            lo
        } else {
            lo + self.next_f64() * (hi - lo)
        }
    }

    /// Uniform integer in `[0, bound)` without modulo bias, via Lemire's
    /// multiply-then-compare reduction with rejection.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound == 1 {
            return 0;
        }
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let product = u128::from(self.next_u64()) * u128::from(bound);
            if product as u64 >= threshold {
                return (product >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "invalid range");
        lo + self.below(hi - lo)
    }

    /// Uniform index in `[0, len)`, for choosing an element.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot choose from an empty collection");
        self.below(len as u64) as usize
    }

    /// Standard normal draw (Box–Muller with caching of the spare value).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller transform.
        let u1: f64 = loop {
            let u = self.next_f64();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Normal draw rejected-and-resampled into `[lo, hi]`.
    ///
    /// Falls back to clamping after 64 rejections so the call always
    /// terminates, even for intervals far in the tail.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn truncated_normal(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "invalid truncation interval");
        for _ in 0..64 {
            let x = self.normal(mean, std_dev);
            if (lo..=hi).contains(&x) {
                return x;
            }
        }
        self.normal(mean, std_dev).clamp(lo, hi)
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_are_independent_of_consumption() {
        let a = DetRng::new(7);
        let mut a_used = DetRng::new(7);
        for _ in 0..10 {
            a_used.next_u64();
        }
        let mut d1 = a.derive(3);
        let mut d2 = a_used.derive(3);
        assert_eq!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn derived_streams_differ_between_ids() {
        let a = DetRng::new(7);
        assert_ne!(a.derive(1).next_u64(), a.derive(2).next_u64());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = DetRng::new(99);
        let n = 20_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal(5.0, 2.0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = DetRng::new(1);
        for _ in 0..5_000 {
            let x = rng.truncated_normal(0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(21);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
