//! Deterministic random number generation.
//!
//! The whole UUCS-RS study must regenerate bit-identically from a single
//! seed, so we implement our own small PCG-family generator rather than
//! depending on an external crate whose stream might change across
//! versions. The generator is PCG XSL-RR 128/64 ("pcg64"): 128-bit LCG
//! state, 64-bit xorshift-low + random-rotate output.
//!
//! [`Pcg64::split`] derives an independent child stream from a label, which
//! is how per-user / per-run / per-testcase randomness is kept decoupled:
//! adding runs for one user never perturbs another user's draws.

/// Multiplier for the underlying 128-bit LCG (from the PCG reference
/// implementation).
const PCG_MUL: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// A deterministic PCG XSL-RR 128/64 generator.
///
/// ```
/// use uucs_stats::Pcg64;
/// let root = Pcg64::new(42);
/// let mut a = root.split_str("user-07");
/// let mut b = root.split_str("user-07");
/// assert_eq!(a.next_u64(), b.next_u64()); // same label, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    /// Stream selector; must be odd. Two generators with different
    /// increments produce independent sequences.
    inc: u128,
}

impl Pcg64 {
    /// Creates a generator from a 64-bit seed on the default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Creates a generator from a seed and a stream id. Distinct stream ids
    /// yield statistically independent sequences for the same seed.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg64 {
            state: 0,
            inc: ((stream as u128) << 1) | 1,
        };
        // Standard PCG seeding dance: advance once, add seed, advance again.
        rng.step();
        rng.state = rng.state.wrapping_add(seed as u128);
        rng.step();
        rng
    }

    /// Derives an independent child generator labeled by `label`.
    ///
    /// The child is seeded from the parent's stream *without* consuming
    /// parent state, so the set of children is a pure function of
    /// `(parent seed, labels)`.
    pub fn split(&self, label: u64) -> Pcg64 {
        // Mix the label through splitmix64 so adjacent labels are far apart.
        let mixed = splitmix64(label ^ 0x9e37_79b9_7f4a_7c15);
        Pcg64::with_stream(
            (self.state as u64) ^ mixed,
            ((self.state >> 64) as u64).wrapping_add(splitmix64(label)),
        )
    }

    /// Derives a child generator from a string label (e.g. a testcase id).
    pub fn split_str(&self, label: &str) -> Pcg64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.split(h)
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MUL).wrapping_add(self.inc);
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step();
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        let rot = (self.state >> 122) as u32;
        xored.rotate_right(rot)
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]` — safe as an argument to `ln`.
    #[inline]
    pub fn f64_open0(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with rate `lambda` (mean `1/lambda`).
    ///
    /// Used for M/M/1 interarrival and service times (the paper's `expexp`
    /// exercise-function generator).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0);
        -self.f64_open0().ln() / lambda
    }

    /// Pareto variate with scale `x_min > 0` and shape `alpha > 0`.
    ///
    /// Used for M/G/1 heavy-tailed job sizes (the paper's `exppar`
    /// generator).
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        x_min / self.f64_open0().powf(1.0 / alpha)
    }

    /// Standard normal variate via the Marsaglia polar method.
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = self.uniform(-1.0, 1.0);
            let v = self.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Lognormal variate: `exp(N(mu, sigma))`.
    ///
    /// This is the shape of the synthetic users' discomfort thresholds.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson variate with mean `lambda`.
    ///
    /// Knuth's product method for small `lambda`, normal approximation with
    /// continuity correction for large `lambda` (the client's testcase
    /// arrival process never needs exactness above ~30).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0);
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let limit = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64_open0();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.normal(lambda, lambda.sqrt());
            if x < 0.5 {
                0
            } else {
                (x + 0.5) as u64
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Chooses one element uniformly. Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Samples `k` distinct indices from `0..n` (reservoir-free partial
    /// Fisher–Yates; order is random). Used by the client's "growing random
    /// sample" hot-sync policy.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// splitmix64 mixing function (public-domain reference constants).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg64::new(42);
        let mut b = Pcg64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg64::new(1);
        let mut b = Pcg64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_pure_and_independent() {
        let root = Pcg64::new(7);
        let mut c1 = root.split(1);
        let mut c1b = root.split(1);
        let mut c2 = root.split(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        // Extremely unlikely to collide if independent.
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn split_str_matches_itself() {
        let root = Pcg64::new(9);
        let mut a = root.split_str("testcase-17");
        let mut b = root.split_str("testcase-17");
        let mut c = root.split_str("testcase-18");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Pcg64::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Pcg64::new(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Pcg64::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean() {
        let mut r = Pcg64::new(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pareto_min_respected_and_mean() {
        let mut r = Pcg64::new(7);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.pareto(1.0, 3.0);
            assert!(x >= 1.0);
            sum += x;
        }
        // mean = alpha/(alpha-1) = 1.5 for alpha=3, x_min=1
        let mean = sum / n as f64;
        assert!((mean - 1.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Pcg64::new(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = Pcg64::new(9);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.lognormal(0.7, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median - 0.7f64.exp()).abs() < 0.05, "median {median}");
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut r = Pcg64::new(10);
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 50_000;
            let mean: f64 = (0..n).map(|_| r.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero() {
        let mut r = Pcg64::new(11);
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Pcg64::new(12);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = Pcg64::new(13);
        let s = r.sample_indices(50, 10);
        assert_eq!(s.len(), 10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_k_exceeds_n() {
        let mut r = Pcg64::new(14);
        let s = r.sample_indices(3, 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut r = Pcg64::new(15);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            match r.range_inclusive(5, 9) {
                5 => lo_seen = true,
                9 => hi_seen = true,
                x => assert!((5..=9).contains(&x)),
            }
        }
        assert!(lo_seen && hi_seen);
    }
}
