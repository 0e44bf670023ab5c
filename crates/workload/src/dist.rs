//! Deterministic samplers for the workload's distributions.
//!
//! The paper's workload needs three non-uniform distributions: log-normal
//! page sizes (Barford & Crovella), Zipf page popularity (Breslau et al.),
//! and a step-wise modification-interval distribution calibrated to the
//! MSNBC observations. `rand` ships none of them, so they are implemented
//! here from scratch on top of uniform deviates.

use pscd_types::count;
use rand::Rng as RngCore;
use serde::{Deserialize, Serialize};

/// Log-normal sampler: `exp(mu + sigma * N(0,1))` via Box–Muller.
///
/// The paper's page sizes use `mu = 9.357`, `sigma = 1.318` over
/// `ln(bytes)` (§4.1, after Barford & Crovella), giving a median of
/// ~11.6 KB with a heavy tail.
///
/// # Examples
///
/// ```
/// use pscd_workload::LogNormal;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let ln = LogNormal::new(9.357, 1.318).unwrap();
/// let x = ln.sample(&mut rng);
/// assert!(x > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a sampler with location `mu` and scale `sigma` (of the
    /// underlying normal). Returns `None` if `sigma` is negative or either
    /// parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (mu.is_finite() && sigma.is_finite() && sigma >= 0.0).then_some(Self { mu, sigma })
    }

    /// The location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one log-normal deviate.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller: u1 in (0, 1] so ln(u1) is finite.
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Zipf sampler over ranks `1..=n`: `P(rank = i) ∝ 1 / i^alpha`.
///
/// Sampling uses a precomputed CDF with binary search (O(log n) per draw),
/// which is exact and fast enough for the paper's 30k-page universe.
///
/// # Examples
///
/// ```
/// use pscd_workload::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let z = Zipf::new(100, 1.5).unwrap();
/// let rank = z.sample(&mut rng);
/// assert!((1..=100).contains(&rank));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    alpha: f64,
    shift: f64,
}

impl Zipf {
    /// Creates a Zipf sampler over `n >= 1` ranks with exponent
    /// `alpha >= 0`. Returns `None` for `n == 0` or invalid `alpha`.
    pub fn new(n: usize, alpha: f64) -> Option<Self> {
        Self::with_shift(n, alpha, 0.0)
    }

    /// Creates a Zipf–Mandelbrot sampler: `P(rank = i) ∝ 1/(shift + i)^alpha`.
    ///
    /// A positive `shift` flattens the head of the distribution while
    /// keeping the power-law body/tail — matching observed web popularity
    /// curves, whose Zipf exponent is fitted on the body while the top
    /// documents take a smaller share than a pure Zipf head would.
    /// Returns `None` for `n == 0`, invalid `alpha`, or negative/invalid
    /// `shift`.
    pub fn with_shift(n: usize, alpha: f64, shift: f64) -> Option<Self> {
        if n == 0 || !alpha.is_finite() || alpha < 0.0 || !shift.is_finite() || shift < 0.0 {
            return None;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += (shift + i as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Some(Self { cdf, alpha, shift })
    }

    /// The Mandelbrot shift (0 for pure Zipf).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// The exponent `alpha`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability of drawing rank `i` (1-based). Zero outside `1..=n`.
    pub fn probability(&self, rank: usize) -> f64 {
        if rank == 0 || rank > self.cdf.len() {
            return 0.0;
        }
        let hi = self.cdf[rank - 1];
        let lo = if rank >= 2 { self.cdf[rank - 2] } else { 0.0 };
        hi - lo
    }

    /// Draws one rank in `1..=n`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // First index with cdf[i] >= u; that index is rank-1.
        let i = match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i,
        };
        (i + 1).min(self.cdf.len())
    }
}

/// The paper's step-wise modification-interval distribution (§4.1):
/// 5% of intervals are below one hour, 5% above one day, and the remaining
/// 90% uniform in `[1 hour, 1 day]`; the tails are uniform in
/// `[lower_floor, 1h)` and `(1d, upper_ceil]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepwiseInterval {
    /// Fraction of intervals below one hour (paper: 0.05).
    pub short_fraction: f64,
    /// Fraction of intervals above one day (paper: 0.05).
    pub long_fraction: f64,
    /// Shortest possible interval in hours (default 0.1 h = 6 min).
    pub min_hours: f64,
    /// Longest possible interval in hours (default 72 h = 3 days).
    pub max_hours: f64,
}

impl StepwiseInterval {
    /// The paper's parameterization.
    pub const fn paper() -> Self {
        Self {
            short_fraction: 0.05,
            long_fraction: 0.05,
            min_hours: 0.1,
            max_hours: 72.0,
        }
    }

    /// Draws a modification interval in hours.
    pub fn sample_hours<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        if u < self.short_fraction {
            rng.random_range(self.min_hours..1.0)
        } else if u < self.short_fraction + self.long_fraction {
            rng.random_range(24.0..self.max_hours)
        } else {
            rng.random_range(1.0..24.0)
        }
    }
}

impl Default for StepwiseInterval {
    fn default() -> Self {
        Self::paper()
    }
}

/// Power-law age-decay sampler on `[0, span]`: density `∝ (1 + age)^-gamma`
/// with `age` measured in hours.
///
/// Used to place a page's requests in time (§4.2): "the probability for the
/// page to be requested at a given time is inversely correlated to the
/// page's age", with stronger decay (`gamma`) for more popular classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgeDecay {
    gamma: f64,
}

impl AgeDecay {
    /// Creates a sampler with decay exponent `gamma >= 0`. Returns `None`
    /// for invalid exponents.
    pub fn new(gamma: f64) -> Option<Self> {
        (gamma.is_finite() && gamma >= 0.0).then_some(Self { gamma })
    }

    /// The decay exponent.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Draws an age in hours from `[0, span_hours]` with density
    /// `∝ (1 + age)^-gamma` (inverse-CDF sampling).
    pub fn sample_age_hours<R: RngCore + ?Sized>(&self, rng: &mut R, span_hours: f64) -> f64 {
        self.over_span(span_hours).sample(rng)
    }

    /// The sampler of ages over one span, with the inverse CDF's span
    /// term computed once: a page draws all its requests over one span,
    /// so each draw costs one `powf` (or `exp`), not two.
    pub(crate) fn over_span(&self, span_hours: f64) -> SpanAges {
        let span = span_hours.max(0.0);
        let g = self.gamma;
        let law = if span == 0.0 {
            AgeLaw::Zero
        } else if (g - 1.0).abs() < 1e-9 {
            // CDF ∝ ln(1 + a); invert.
            AgeLaw::Log {
                top: (1.0 + span).ln(),
            }
        } else {
            // CDF ∝ ((1+a)^(1-g) - 1) / ((1+span)^(1-g) - 1)
            let p = 1.0 - g;
            count!(Counter::GeneratorPow, 1);
            AgeLaw::Power {
                p,
                top: (1.0 + span).powf(p) - 1.0,
            }
        };
        SpanAges { span, law }
    }
}

/// [`AgeDecay`] over one span ([`AgeDecay::over_span`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanAges {
    span: f64,
    law: AgeLaw,
}

/// The inverse CDF of one span, by branch.
#[derive(Debug, Clone, Copy)]
enum AgeLaw {
    /// An empty span: every age is 0, and nothing is drawn.
    Zero,
    /// `gamma = 1`: `top = ln(1 + span)`.
    Log { top: f64 },
    /// `p = 1 - gamma`, `top = (1 + span)^p - 1`.
    Power { p: f64, top: f64 },
}

impl SpanAges {
    /// Draws one age in hours from `[0, span]`.
    pub(crate) fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let age = match self.law {
            AgeLaw::Zero => return 0.0,
            AgeLaw::Log { top } => (rng.random::<f64>() * top).exp(),
            AgeLaw::Power { p, top } => {
                count!(Counter::GeneratorPow, 1);
                (1.0 + rng.random::<f64>() * top).powf(1.0 / p)
            }
        };
        (age - 1.0).clamp(0.0, self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn lognormal_validates_and_matches_moments() {
        assert!(LogNormal::new(1.0, -0.1).is_none());
        assert!(LogNormal::new(f64::NAN, 1.0).is_none());
        let ln = LogNormal::new(2.0, 0.5).unwrap();
        assert_eq!(ln.mu(), 2.0);
        assert_eq!(ln.sigma(), 0.5);
        let mut r = rng();
        let n = 20_000;
        let mean_log: f64 = (0..n).map(|_| ln.sample(&mut r).ln()).sum::<f64>() / n as f64;
        assert!((mean_log - 2.0).abs() < 0.02, "mean_log = {mean_log}");
    }

    #[test]
    fn lognormal_zero_sigma_is_deterministic() {
        let ln = LogNormal::new(3.0, 0.0).unwrap();
        let mut r = rng();
        let x = ln.sample(&mut r);
        assert!((x - 3.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn zipf_validates() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(10, -1.0).is_none());
        assert!(Zipf::new(10, f64::INFINITY).is_none());
        let z = Zipf::new(10, 1.5).unwrap();
        assert_eq!(z.n(), 10);
        assert_eq!(z.alpha(), 1.5);
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decay() {
        let z = Zipf::new(100, 1.5).unwrap();
        let total: f64 = (1..=100).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.probability(1) > z.probability(2));
        assert!(z.probability(2) > z.probability(50));
        assert_eq!(z.probability(0), 0.0);
        assert_eq!(z.probability(101), 0.0);
        // Exact Zipf ratio: p(1)/p(2) = 2^alpha.
        let ratio = z.probability(1) / z.probability(2);
        assert!((ratio - 2f64.powf(1.5)).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range_and_skewed() {
        let z = Zipf::new(50, 1.0).unwrap();
        let mut r = rng();
        let mut counts = vec![0u32; 51];
        for _ in 0..20_000 {
            let k = z.sample(&mut r);
            assert!((1..=50).contains(&k));
            counts[k] += 1;
        }
        assert!(counts[1] > counts[10]);
        assert!(counts[1] > 3 * counts[25]);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for i in 1..=4 {
            assert!((z.probability(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn stepwise_fractions_hold() {
        let s = StepwiseInterval::paper();
        let mut r = rng();
        let n = 50_000;
        let mut short = 0;
        let mut long = 0;
        for _ in 0..n {
            let h = s.sample_hours(&mut r);
            assert!(h >= s.min_hours && h <= s.max_hours);
            if h < 1.0 {
                short += 1;
            } else if h > 24.0 {
                long += 1;
            }
        }
        let short_frac = short as f64 / n as f64;
        let long_frac = long as f64 / n as f64;
        assert!((short_frac - 0.05).abs() < 0.01, "short = {short_frac}");
        assert!((long_frac - 0.05).abs() < 0.01, "long = {long_frac}");
    }

    #[test]
    fn age_decay_validates_and_bounds() {
        assert!(AgeDecay::new(-1.0).is_none());
        assert!(AgeDecay::new(f64::NAN).is_none());
        let d = AgeDecay::new(1.5).unwrap();
        assert_eq!(d.gamma(), 1.5);
        let mut r = rng();
        for _ in 0..1_000 {
            let a = d.sample_age_hours(&mut r, 100.0);
            assert!((0.0..=100.0).contains(&a));
        }
        assert_eq!(d.sample_age_hours(&mut r, 0.0), 0.0);
        assert_eq!(d.sample_age_hours(&mut r, -5.0), 0.0);
    }

    #[test]
    fn age_decay_prefers_young_pages() {
        let d = AgeDecay::new(2.0).unwrap();
        let mut r = rng();
        let n = 10_000;
        let young = (0..n)
            .filter(|_| d.sample_age_hours(&mut r, 168.0) < 24.0)
            .count();
        // With gamma=2 the mass below 24h is (1 - 1/25)/(1 - 1/169) ≈ 0.966.
        assert!(young as f64 / n as f64 > 0.9, "young = {young}");
    }

    #[test]
    fn age_decay_gamma_one_branch() {
        let d = AgeDecay::new(1.0).unwrap();
        let mut r = rng();
        let mean: f64 = (0..5_000)
            .map(|_| d.sample_age_hours(&mut r, 168.0))
            .sum::<f64>()
            / 5_000.0;
        // E[age] = (span - ln(1+span)) / ln(1+span) ≈ 27.7 for span 168.
        assert!((20.0..40.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn age_decay_gamma_zero_is_uniform() {
        let d = AgeDecay::new(0.0).unwrap();
        let mut r = rng();
        let mean: f64 = (0..20_000)
            .map(|_| d.sample_age_hours(&mut r, 100.0))
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 50.0).abs() < 2.0, "mean = {mean}");
    }

    /// The age draw as it was written before the per-span sampler: both
    /// of the span's terms computed for every draw.
    fn age_by_the_formula(gamma: f64, rng: &mut StdRng, span_hours: f64) -> f64 {
        let span = span_hours.max(0.0);
        if span == 0.0 {
            return 0.0;
        }
        let u: f64 = rng.random();
        if (gamma - 1.0).abs() < 1e-9 {
            let top = (1.0 + span).ln();
            ((u * top).exp() - 1.0).clamp(0.0, span)
        } else {
            let p = 1.0 - gamma;
            let top = (1.0 + span).powf(p) - 1.0;
            ((1.0 + u * top).powf(1.0 / p) - 1.0).clamp(0.0, span)
        }
    }

    #[test]
    fn the_per_span_sampler_draws_the_formula_bit_for_bit() {
        for gamma in [1.0, 1.0 + 1e-10, 0.0, 0.3, 0.8, 1.4, 2.0, 3.7] {
            let d = AgeDecay::new(gamma).unwrap();
            for span in [0.0, -0.0, -5.0, 1e-9, 0.5, 1.0, 23.9, 167.99, 1e6] {
                let mut expected = rng();
                let (mut by_call, mut by_span) = (rng(), rng());
                let ages = d.over_span(span);
                for _ in 0..64 {
                    let want = age_by_the_formula(gamma, &mut expected, span).to_bits();
                    let call = d.sample_age_hours(&mut by_call, span).to_bits();
                    assert_eq!(call, want, "gamma {gamma}, span {span}");
                    assert_eq!(ages.sample(&mut by_span).to_bits(), want);
                }
                // The same draws consumed: none at all for an empty span.
                let next = expected.random::<u64>();
                assert_eq!(
                    (by_call.random::<u64>(), by_span.random::<u64>()),
                    (next, next)
                );
            }
        }
    }
}
