//! A small Zipf-distributed sampler.
//!
//! Network traffic (the paper's motivating workload) is heavily skewed: a
//! few autonomous systems carry most flows. `rand` does not ship a Zipf
//! distribution, so we precompute the CDF over `n` ranks with exponent `s`
//! and sample by binary search — O(log n) per draw, exact, deterministic
//! under a seeded RNG.

use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s ≥ 0`
/// (`s = 0` is uniform; larger `s` is more skewed).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        assert!(s >= 0.0 && s.is_finite(), "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the domain has a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // The CDF and `u` are finite and non-negative, where `total_cmp`
        // is the numeric order.
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn skewed_head_dominates() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s = 1.2 the top 10 of 100 ranks carry well over half.
        assert!(head as f64 > 0.6 * n as f64, "head fraction {head}/{n}");
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(50, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn all_ranks_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zero_domain_panics() {
        Zipf::new(0, 1.0);
    }
}
