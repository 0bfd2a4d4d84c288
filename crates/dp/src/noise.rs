//! Gaussian noise generation.
//!
//! The Gaussian mechanism (Definition 3 context, §II-B) adds
//! `N(0, S²σ²)` noise per coordinate. We implement our own
//! standard-normal sampler (Marsaglia polar method) instead of pulling
//! in `rand_distr`: the noise path is the security-critical part of a
//! DP system, and fifteen auditable lines beat a transitive
//! dependency. Statistical quality is asserted by moment and quantile
//! tests below.

use rand::Rng;

/// Standard-normal sampler using the Marsaglia polar method with a
/// cached spare deviate (the method produces pairs).
#[derive(Clone, Debug, Default)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Fresh sampler with no cached deviate.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached spare deviate, if any. The polar method produces
    /// pairs and hands out the second sample on the next call, so the
    /// spare is part of the sampler's resumable state: a checkpoint
    /// that dropped it would shift every subsequent noise draw.
    pub fn spare(&self) -> Option<f64> {
        self.spare
    }

    /// Rebuilds a sampler from a checkpointed [`GaussianSampler::spare`],
    /// bit-exact.
    pub fn from_spare(spare: Option<f64>) -> Self {
        Self { spare }
    }

    /// Draws one `N(0, 1)` sample.
    pub fn standard<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        loop {
            // u, v uniform on (-1, 1); accept when inside the unit disc.
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = polar_factor(s);
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Draws the next `n` deviates into `batch`, deferring their
    /// transform: the result is bit-identical to `n` calls of
    /// [`GaussianSampler::standard`], and leaves the same spare behind.
    ///
    /// Only the accept/reject loop consumes `rng`, so only it must run
    /// in stream order. It stores the accepted `(u, v)` pairs without
    /// branching on acceptance; [`PolarBatch::add_scaled`] later turns
    /// them into deviates (the `ln`/`sqrt` work) on any thread, in any
    /// order.
    pub fn draw_batch<R: Rng + ?Sized>(&mut self, n: usize, batch: &mut PolarBatch, rng: &mut R) {
        batch.lead = None;
        if n == 0 {
            batch.pairs.clear();
            return;
        }
        batch.lead = self.spare.take();
        let fresh = n - usize::from(batch.lead.is_some());
        let pairs = fresh.div_ceil(2);
        // `resize` only grows or truncates; every kept slot is
        // overwritten by the loop below.
        batch.pairs.resize(pairs, [0.0; 2]);
        let mut k = 0;
        while k < pairs {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            batch.pairs[k] = [u, v];
            k += usize::from((s > 0.0) & (s < 1.0));
        }
        if fresh % 2 == 1 {
            let [u, v] = batch.pairs[pairs - 1];
            self.spare = Some(v * polar_factor(u * u + v * v));
        }
    }

    /// Draws one `N(0, std²)` sample.
    pub fn with_std<R: Rng + ?Sized>(&mut self, std: f64, rng: &mut R) -> f64 {
        debug_assert!(std >= 0.0, "negative std");
        std * self.standard(rng)
    }

    /// Adds i.i.d. `N(0, std²)` noise to every element of `x`
    /// (the Gaussian mechanism applied to a vector-valued function).
    pub fn perturb_slice<R: Rng + ?Sized>(&mut self, x: &mut [f64], std: f64, rng: &mut R) {
        if std == 0.0 {
            return;
        }
        for v in x.iter_mut() {
            *v += self.with_std(std, rng);
        }
    }

    /// Fills `out` with i.i.d. `N(0, std²)` samples.
    pub fn fill_slice<R: Rng + ?Sized>(&mut self, out: &mut [f64], std: f64, rng: &mut R) {
        for v in out.iter_mut() {
            *v = self.with_std(std, rng);
        }
    }
}

/// The polar method's scale `sqrt(-2 ln s / s)` for an accepted `s`.
#[inline]
fn polar_factor(s: f64) -> f64 {
    (-2.0 * s.ln() / s).sqrt()
}

/// Standard-normal deviates drawn by [`GaussianSampler::draw_batch`]:
/// the sampler's previous spare (if it had one) followed by accepted
/// polar pairs whose transform has not run yet. Reusable across draws.
#[derive(Clone, Debug, Default)]
pub struct PolarBatch {
    lead: Option<f64>,
    pairs: Vec<[f64; 2]>,
}

impl PolarBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `std · z_{start+i}` to `out[i]`, where `z_t` is deviate `t`
    /// of the batch — the same value, bit for bit, that the `t`-th
    /// [`GaussianSampler::standard`] call would have returned, so
    /// disjoint ranges can be applied on different threads.
    ///
    /// # Panics
    /// Panics if the range runs past the drawn deviates.
    pub fn add_scaled(&self, start: usize, std: f64, out: &mut [f64]) {
        if out.is_empty() {
            return;
        }
        let (mut i, mut t) = (0, start);
        if let Some(z) = self.lead {
            // Deviate 0 is the spare; pair deviates start at 1.
            if start == 0 {
                out[0] += std * z;
                i = 1;
            } else {
                t = start - 1;
            }
        }
        // `out[i]` takes pair deviate `t`: the u of pair t/2 when t is
        // even, its v when odd. Each pair's factor is computed once.
        while i < out.len() {
            let [u, v] = self.pairs[t / 2];
            let f = polar_factor(u * u + v * v);
            if t % 2 == 0 {
                out[i] += std * (u * f);
                i += 1;
                t += 1;
                if i == out.len() {
                    break;
                }
            }
            out[i] += std * (v * f);
            i += 1;
            t += 1;
        }
    }
}

/// Convenience: a vector of `n` i.i.d. `N(0, std²)` samples.
pub fn gaussian_vec<R: Rng + ?Sized>(n: usize, std: f64, rng: &mut R) -> Vec<f64> {
    let mut s = GaussianSampler::new();
    let mut out = vec![0.0; n];
    s.fill_slice(&mut out, std, rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn samples(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        gaussian_vec(n, 1.0, &mut rng)
    }

    #[test]
    fn moments_match_standard_normal() {
        let xs = samples(200_000, 42);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let skew = xs.iter().map(|&x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = xs.iter().map(|&x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn quantiles_match_standard_normal() {
        let mut xs = samples(200_000, 7);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| xs[(p * xs.len() as f64) as usize];
        // Φ^{-1}(0.5)=0, Φ^{-1}(0.8413)≈1, Φ^{-1}(0.9772)≈2
        assert!(q(0.5).abs() < 0.02, "median {}", q(0.5));
        assert!((q(0.8413) - 1.0).abs() < 0.03, "q84 {}", q(0.8413));
        assert!((q(0.9772) - 2.0).abs() < 0.06, "q97.7 {}", q(0.9772));
    }

    #[test]
    fn scaled_std_is_linear() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs = gaussian_vec(100_000, 5.0, &mut rng);
        let n = xs.len() as f64;
        let var = xs.iter().map(|&x| x * x).sum::<f64>() / n;
        assert!((var.sqrt() - 5.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(samples(100, 9), samples(100, 9));
        assert_ne!(samples(100, 9), samples(100, 10));
    }

    #[test]
    fn zero_std_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = GaussianSampler::new();
        let mut x = vec![1.0, 2.0, 3.0];
        s.perturb_slice(&mut x, 0.0, &mut rng);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn perturb_changes_values_with_positive_std() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = GaussianSampler::new();
        let mut x = vec![0.0; 16];
        s.perturb_slice(&mut x, 1.0, &mut rng);
        assert!(x.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn batch_draw_is_bit_identical_to_serial_draws() {
        // Odd sizes leave a spare that the next batch must lead with.
        let sizes = [0usize, 1, 3, 4, 7, 0, 2, 9, 1, 1, 128];
        let mut serial_rng = StdRng::seed_from_u64(21);
        let mut batch_rng = StdRng::seed_from_u64(21);
        let mut serial = GaussianSampler::new();
        let mut batched = GaussianSampler::from_spare(None);
        let mut batch = PolarBatch::new();
        for &n in &sizes {
            let expect: Vec<f64> = (0..n)
                .map(|_| 2.5 * serial.standard(&mut serial_rng))
                .collect();
            batched.draw_batch(n, &mut batch, &mut batch_rng);
            // Whole range, and the same range in uneven pieces.
            let mut whole = vec![0.0; n];
            batch.add_scaled(0, 2.5, &mut whole);
            let mut pieces = vec![0.0; n];
            let mut start = 0;
            for len in [1usize, 2, 3].iter().cycle() {
                if start >= n {
                    break;
                }
                let end = (start + len).min(n);
                batch.add_scaled(start, 2.5, &mut pieces[start..end]);
                start = end;
            }
            for got in [&whole, &pieces] {
                assert_eq!(
                    expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "batch of {n}"
                );
            }
            assert_eq!(
                serial.spare().map(f64::to_bits),
                batched.spare().map(f64::to_bits)
            );
            assert_eq!(
                serial_rng.next_u64(),
                batch_rng.next_u64(),
                "RNG stream diverged"
            );
        }
    }

    #[test]
    fn spare_deviate_consumed_in_pairs() {
        // Two consecutive draws should use one accept/reject round:
        // verify the stream differs from restarting the sampler.
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut s1 = GaussianSampler::new();
        let a = s1.standard(&mut rng1);
        let b = s1.standard(&mut rng1);
        let mut rng2 = StdRng::seed_from_u64(5);
        let mut s2 = GaussianSampler::new();
        let a2 = s2.standard(&mut rng2);
        let mut s3 = GaussianSampler::new();
        let b2 = s3.standard(&mut rng2);
        assert_eq!(a, a2);
        // b comes from the spare; b2 from a fresh polar round — they differ.
        assert_ne!(b, b2);
    }
}
