//! The truncated normal sampler behind the paper's duplicate
//! distributions (§3.3.1, Graph 3).

use rand::Rng;

/// |N(0, σ)| truncated to [0, 1).
///
/// Sampling an index `⌊x·u⌋` with `x` drawn from this distribution
/// concentrates duplicates on low-indexed values: σ = 0.1 reproduces the
/// paper's *skewed* curve (a small fraction of the values receives nearly
/// all duplicate tuples), σ = 0.4 the *moderately skewed* curve, and
/// σ = 0.8 the *near-uniform* curve of Graph 3.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedNormal {
    sigma: f64,
}

impl TruncatedNormal {
    /// Create a sampler with standard deviation `sigma` (> 0).
    #[must_use]
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        TruncatedNormal { sigma }
    }

    /// The paper's skewed distribution (σ = 0.1).
    #[must_use]
    pub fn skewed() -> Self {
        TruncatedNormal::new(0.1)
    }

    /// The paper's moderately skewed distribution (σ = 0.4).
    #[must_use]
    pub fn moderate() -> Self {
        TruncatedNormal::new(0.4)
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draw one sample in [0, 1) by rejection from a Box–Muller normal.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            // Box–Muller transform.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let x = (z * self.sigma).abs();
            if x < 1.0 {
                return x;
            }
        }
    }

    /// Draw an index in `[0, n)` (the value that receives a duplicate).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> usize {
        ((self.sample(rng) * n as f64) as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(sigma: f64, buckets: usize, samples: usize) -> Vec<usize> {
        let tn = TruncatedNormal::new(sigma);
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = vec![0usize; buckets];
        for _ in 0..samples {
            h[tn.sample_index(&mut rng, buckets)] += 1;
        }
        h
    }

    #[test]
    fn samples_in_unit_interval() {
        let tn = TruncatedNormal::skewed();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = tn.sample(&mut rng);
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn skewed_concentrates_mass_at_low_indices() {
        let h = histogram(0.1, 10, 50_000);
        let first_two: usize = h[..2].iter().sum();
        let total: usize = h.iter().sum();
        // With σ=0.1 about 95% of |N| mass lies below 0.2.
        assert!(
            first_two as f64 / total as f64 > 0.90,
            "first two buckets hold {first_two}/{total}"
        );
    }

    #[test]
    fn near_uniform_spreads_mass() {
        let h = histogram(0.8, 10, 50_000);
        let first_two: usize = h[..2].iter().sum();
        let total: usize = h.iter().sum();
        let frac = first_two as f64 / total as f64;
        assert!(
            frac < 0.5,
            "σ=0.8 should be much flatter; first two buckets hold {frac}"
        );
        // And every bucket gets something.
        assert!(h.iter().all(|c| *c > 0));
    }

    #[test]
    fn moderate_is_between() {
        let skew = histogram(0.1, 10, 50_000)[0] as f64;
        let mid = histogram(0.4, 10, 50_000)[0] as f64;
        let flat = histogram(0.8, 10, 50_000)[0] as f64;
        assert!(skew > mid && mid > flat, "{skew} > {mid} > {flat}");
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_rejected() {
        let _ = TruncatedNormal::new(0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let tn = TruncatedNormal::moderate();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(tn.sample(&mut a).to_bits(), tn.sample(&mut b).to_bits());
        }
    }
}
