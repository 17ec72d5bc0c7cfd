//! Link-delay distributions and payload-dependent transfer times.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A parametric distribution of one-way link latency in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayDistribution {
    /// Always exactly this many seconds.
    Constant(f64),
    /// Uniform on `[min, max]`.
    Uniform {
        /// Lower bound in seconds.
        min: f64,
        /// Upper bound in seconds.
        max: f64,
    },
    /// Normal with the given mean and standard deviation, truncated at zero.
    Normal {
        /// Mean in seconds.
        mean: f64,
        /// Standard deviation in seconds.
        std: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean in seconds.
        mean: f64,
    },
}

impl DelayDistribution {
    /// Samples a latency in seconds (never negative).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let value = match *self {
            DelayDistribution::Constant(v) => v,
            DelayDistribution::Uniform { min, max } => {
                assert!(min <= max, "uniform delay bounds are inverted");
                if min == max {
                    min
                } else {
                    rng.gen_range(min..max)
                }
            }
            DelayDistribution::Normal { mean, std } => {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                mean + std * z
            }
            DelayDistribution::Exponential { mean } => {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                -mean * u.ln()
            }
        };
        value.max(0.0)
    }

    /// Validates the distribution's parameters, so configuration errors
    /// surface at build time instead of as mid-run panics in
    /// [`sample`](Self::sample).
    ///
    /// Every parameter must be finite; `Uniform` bounds must not be
    /// inverted, `Normal` needs a non-negative spread, and `Exponential`
    /// a non-negative mean. (Negative *locations* — a negative constant
    /// or normal mean — are tolerated: the sampler clamps them to zero.)
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            DelayDistribution::Constant(v) if !v.is_finite() => {
                Err(format!("constant delay must be finite, got {v}"))
            }
            DelayDistribution::Uniform { min, max } if !(min.is_finite() && max.is_finite()) => {
                Err(format!(
                    "uniform delay bounds must be finite, got [{min}, {max}]"
                ))
            }
            DelayDistribution::Uniform { min, max } if min > max => {
                Err(format!("uniform delay bounds are inverted: [{min}, {max}]"))
            }
            DelayDistribution::Normal { mean, std }
                if !(mean.is_finite() && std.is_finite() && std >= 0.0) =>
            {
                Err(format!(
                    "normal delay needs a finite mean and non-negative std, got N({mean}, {std})"
                ))
            }
            DelayDistribution::Exponential { mean } if !(mean.is_finite() && mean >= 0.0) => Err(
                format!("exponential delay needs a finite non-negative mean, got {mean}"),
            ),
            _ => Ok(()),
        }
    }

    /// Expected value of the distribution in seconds.
    pub fn mean(&self) -> f64 {
        match *self {
            DelayDistribution::Constant(v) => v.max(0.0),
            DelayDistribution::Uniform { min, max } => ((min + max) / 2.0).max(0.0),
            DelayDistribution::Normal { mean, .. } => mean.max(0.0),
            DelayDistribution::Exponential { mean } => mean.max(0.0),
        }
    }
}

/// A link model combining a latency distribution with a transfer rate, so
/// that larger payloads (for example a vanilla-BFL block that carries one
/// hundred local gradients) take proportionally longer to move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Per-message latency distribution.
    pub latency: DelayDistribution,
    /// Sustained throughput in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl LinkModel {
    /// A typical wide-area edge uplink: tens of milliseconds of jittery
    /// latency and ~2 MB/s of goodput.
    pub fn edge_uplink() -> Self {
        LinkModel {
            latency: DelayDistribution::Normal {
                mean: 0.08,
                std: 0.03,
            },
            bandwidth_bytes_per_s: 2.0e6,
        }
    }

    /// A fast, stable miner-to-miner backbone link.
    pub fn miner_backbone() -> Self {
        LinkModel {
            latency: DelayDistribution::Constant(0.01),
            bandwidth_bytes_per_s: 50.0e6,
        }
    }

    /// Samples the time to move `payload_bytes` over this link.
    pub fn sample_transfer<R: Rng + ?Sized>(&self, payload_bytes: usize, rng: &mut R) -> f64 {
        assert!(
            self.bandwidth_bytes_per_s > 0.0,
            "bandwidth must be positive"
        );
        self.latency.sample(rng) + payload_bytes as f64 / self.bandwidth_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn constant_is_constant() {
        let mut r = rng();
        let d = DelayDistribution::Constant(0.5);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 0.5);
        }
        assert_eq!(d.mean(), 0.5);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = rng();
        let d = DelayDistribution::Uniform { min: 0.1, max: 0.3 };
        for _ in 0..200 {
            let s = d.sample(&mut r);
            assert!((0.1..=0.3).contains(&s));
        }
        assert!((d.mean() - 0.2).abs() < 1e-12);
        // Degenerate range.
        let point = DelayDistribution::Uniform { min: 0.2, max: 0.2 };
        assert_eq!(point.sample(&mut r), 0.2);
    }

    #[test]
    fn samples_are_never_negative() {
        let mut r = rng();
        for d in [
            DelayDistribution::Normal {
                mean: 0.01,
                std: 0.5,
            },
            DelayDistribution::Exponential { mean: 0.2 },
            DelayDistribution::Constant(-1.0),
        ] {
            for _ in 0..200 {
                assert!(d.sample(&mut r) >= 0.0);
            }
        }
    }

    #[test]
    fn empirical_means_track_configured_means() {
        let mut r = rng();
        let cases = [
            DelayDistribution::Normal {
                mean: 0.5,
                std: 0.05,
            },
            DelayDistribution::Exponential { mean: 0.4 },
            DelayDistribution::Uniform { min: 0.2, max: 0.6 },
        ];
        for d in cases {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
            assert!(
                (mean - d.mean()).abs() < 0.03,
                "{d:?}: empirical {mean} vs expected {}",
                d.mean()
            );
        }
    }

    #[test]
    fn transfer_time_scales_with_payload() {
        let mut r = rng();
        let link = LinkModel {
            latency: DelayDistribution::Constant(0.05),
            bandwidth_bytes_per_s: 1_000_000.0,
        };
        let small = link.sample_transfer(1_000, &mut r);
        let large = link.sample_transfer(10_000_000, &mut r);
        assert!(large > small);
        assert!((link.sample_transfer(1_000_000, &mut r) - 1.05).abs() < 1e-9);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Builds one distribution per variant from the drawn parameters,
        /// including deliberately hostile ones (negative constants and
        /// means) that the sampler's non-negativity contract must absorb.
        fn distribution_under_test(variant: usize, a: f64, b: f64) -> DelayDistribution {
            match variant % 4 {
                0 => DelayDistribution::Constant(a - 2.5),
                1 => DelayDistribution::Uniform {
                    min: a.min(b),
                    max: a.max(b),
                },
                2 => DelayDistribution::Normal {
                    mean: a - 2.5,
                    std: b * 0.6,
                },
                _ => DelayDistribution::Exponential { mean: a },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn every_variant_samples_non_negative(
                variant in 0usize..4,
                a in 0.0f64..5.0,
                b in 0.0f64..5.0,
                seed in any::<u64>(),
            ) {
                let d = distribution_under_test(variant, a, b);
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..64 {
                    let s = d.sample(&mut rng);
                    prop_assert!(s >= 0.0, "{d:?} sampled {s}");
                    prop_assert!(s.is_finite(), "{d:?} sampled {s}");
                }
                prop_assert!(d.mean() >= 0.0);
            }

            #[test]
            fn uniform_stays_within_its_bounds(
                a in 0.0f64..10.0,
                b in 0.0f64..10.0,
                seed in any::<u64>(),
            ) {
                let (min, max) = (a.min(b), a.max(b));
                let d = DelayDistribution::Uniform { min, max };
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..64 {
                    let s = d.sample(&mut rng);
                    prop_assert!((min..=max).contains(&s), "{s} outside [{min}, {max}]");
                }
            }

            #[test]
            fn normal_honours_its_truncation_at_zero(
                mean in -1.0f64..1.0,
                std in 0.5f64..4.0,
                seed in any::<u64>(),
            ) {
                // Wide spreads around a near-zero mean would go negative
                // roughly half the time untruncated; the documented
                // contract clamps those draws to exactly zero.
                let d = DelayDistribution::Normal { mean, std };
                let mut rng = StdRng::seed_from_u64(seed);
                let mut clamped = 0usize;
                for _ in 0..256 {
                    let s = d.sample(&mut rng);
                    prop_assert!(s >= 0.0);
                    if s == 0.0 {
                        clamped += 1;
                    }
                }
                // With std >= 0.5 and |mean| <= 1, a 256-draw sample hits
                // the truncation with overwhelming probability.
                prop_assert!(clamped > 0, "no draw hit the zero truncation");
            }
        }
    }

    #[test]
    fn presets_are_sane() {
        let edge = LinkModel::edge_uplink();
        let backbone = LinkModel::miner_backbone();
        // The backbone moves a 1 MB payload much faster than the edge uplink.
        let mut r = rng();
        assert!(
            backbone.sample_transfer(1_000_000, &mut r) < edge.sample_transfer(1_000_000, &mut r)
        );
    }
}
