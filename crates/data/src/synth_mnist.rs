//! Procedural MNIST-like digit dataset.
//!
//! Each of the ten classes is defined by a stroke prototype (line segments
//! and elliptical arcs roughly tracing the digit shape) rendered onto a
//! 28x28 grid. Samples are drawn by perturbing the prototype: random
//! translation of up to ±2 pixels, random stroke intensity, random stroke
//! thickness and additive pixel noise, followed by clamping to `[0, 1]`.
//! The result is a ten-class image classification task of the same shape
//! and difficulty class as MNIST for the linear model trained on it, generated
//! deterministically from a seed — see DESIGN.md for why this substitution
//! preserves the behaviours the paper's evaluation depends on.

use crate::dataset::Dataset;
use bfl_ml::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Image side length (28 pixels, as in MNIST).
pub const IMAGE_SIDE: usize = 28;
/// Number of pixels per image.
pub const IMAGE_PIXELS: usize = IMAGE_SIDE * IMAGE_SIDE;
/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;

/// One drawing primitive of a digit prototype.
#[derive(Debug, Clone, Copy)]
enum Stroke {
    /// Straight segment from (x0, y0) to (x1, y1) in pixel coordinates.
    Line(f64, f64, f64, f64),
    /// Elliptical arc centred at (cx, cy) with radii (rx, ry) swept from
    /// `start` to `end` radians.
    Arc(f64, f64, f64, f64, f64, f64),
}

/// Stroke prototypes for the digits 0-9.
fn digit_strokes(digit: usize) -> Vec<Stroke> {
    use std::f64::consts::PI;
    match digit {
        0 => vec![Stroke::Arc(14.0, 14.0, 6.0, 8.5, 0.0, 2.0 * PI)],
        1 => vec![
            Stroke::Line(14.0, 5.0, 14.0, 23.0),
            Stroke::Line(11.0, 8.0, 14.0, 5.0),
        ],
        2 => vec![
            Stroke::Arc(14.0, 9.5, 5.5, 4.5, PI, 2.25 * PI),
            Stroke::Line(18.5, 11.5, 8.5, 22.0),
            Stroke::Line(8.5, 22.0, 20.0, 22.0),
        ],
        3 => vec![
            Stroke::Arc(13.0, 9.5, 5.0, 4.5, 1.1 * PI, 2.4 * PI),
            Stroke::Arc(13.0, 18.5, 5.5, 4.5, 1.6 * PI, 2.9 * PI),
        ],
        4 => vec![
            Stroke::Line(17.5, 5.0, 17.5, 23.0),
            Stroke::Line(17.5, 5.0, 8.0, 16.0),
            Stroke::Line(8.0, 16.0, 21.0, 16.0),
        ],
        5 => vec![
            Stroke::Line(18.5, 5.5, 9.5, 5.5),
            Stroke::Line(9.5, 5.5, 9.5, 13.0),
            Stroke::Arc(13.5, 17.0, 5.5, 5.0, 1.25 * PI, 2.75 * PI),
        ],
        6 => vec![
            Stroke::Arc(13.5, 17.5, 5.5, 5.5, 0.0, 2.0 * PI),
            Stroke::Arc(16.0, 10.0, 8.0, 9.0, 0.55 * PI, 1.05 * PI),
        ],
        7 => vec![
            Stroke::Line(8.5, 5.5, 19.5, 5.5),
            Stroke::Line(19.5, 5.5, 12.0, 23.0),
        ],
        8 => vec![
            Stroke::Arc(14.0, 9.5, 4.5, 4.0, 0.0, 2.0 * PI),
            Stroke::Arc(14.0, 18.0, 5.5, 4.8, 0.0, 2.0 * PI),
        ],
        9 => vec![
            Stroke::Arc(14.0, 10.0, 5.0, 4.5, 0.0, 2.0 * PI),
            Stroke::Line(18.5, 10.5, 16.5, 23.0),
        ],
        other => panic!("digit prototypes exist only for 0-9, requested {other}"),
    }
}

/// Paints a stroke onto the canvas with the given thickness and intensity.
fn render_stroke(
    canvas: &mut [f64],
    stroke: &Stroke,
    thickness: f64,
    intensity: f64,
    dx: f64,
    dy: f64,
) {
    let points: Vec<(f64, f64)> = match *stroke {
        Stroke::Line(x0, y0, x1, y1) => {
            let steps = 60;
            (0..=steps)
                .map(|i| {
                    let t = i as f64 / steps as f64;
                    (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
                })
                .collect()
        }
        Stroke::Arc(cx, cy, rx, ry, start, end) => {
            let steps = 90;
            (0..=steps)
                .map(|i| {
                    let t = start + (end - start) * i as f64 / steps as f64;
                    (cx + rx * t.cos(), cy + ry * t.sin())
                })
                .collect()
        }
    };
    for (px, py) in points {
        let px = px + dx;
        let py = py + dy;
        // Paint a small disc of radius `thickness` around each sample point.
        let radius = thickness.ceil() as i64;
        for oy in -radius..=radius {
            for ox in -radius..=radius {
                let x = px.round() as i64 + ox;
                let y = py.round() as i64 + oy;
                if x < 0 || y < 0 || x >= IMAGE_SIDE as i64 || y >= IMAGE_SIDE as i64 {
                    continue;
                }
                let dist2 = ((x as f64 - px).powi(2) + (y as f64 - py).powi(2)).sqrt();
                if dist2 <= thickness {
                    let idx = y as usize * IMAGE_SIDE + x as usize;
                    let value = intensity * (1.0 - 0.35 * (dist2 / thickness));
                    if value > canvas[idx] {
                        canvas[idx] = value;
                    }
                }
            }
        }
    }
}

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthMnistConfig {
    /// Number of training samples to generate.
    pub train_samples: usize,
    /// Number of held-out test samples to generate.
    pub test_samples: usize,
    /// Standard deviation of additive per-pixel Gaussian noise.
    pub noise_std: f64,
    /// Maximum absolute translation in pixels applied to each sample.
    pub max_translation: f64,
}

impl Default for SynthMnistConfig {
    fn default() -> Self {
        SynthMnistConfig {
            train_samples: 6000,
            test_samples: 1000,
            noise_std: 0.08,
            max_translation: 2.0,
        }
    }
}

/// Generator for the synthetic MNIST surrogate.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthMnist {
    /// Generation parameters.
    pub config: SynthMnistConfig,
}

impl SynthMnist {
    /// Creates a generator with the given configuration.
    pub fn new(config: SynthMnistConfig) -> Self {
        SynthMnist { config }
    }

    /// Renders one sample of `digit` with random jitter.
    pub fn render_sample<R: Rng + ?Sized>(&self, digit: usize, rng: &mut R) -> Vec<f64> {
        let mut canvas = vec![0.0; IMAGE_PIXELS];
        let dx = rng.gen_range(-self.config.max_translation..=self.config.max_translation);
        let dy = rng.gen_range(-self.config.max_translation..=self.config.max_translation);
        let thickness = rng.gen_range(1.1..1.9);
        let intensity = rng.gen_range(0.75..1.0);
        for stroke in digit_strokes(digit) {
            render_stroke(&mut canvas, &stroke, thickness, intensity, dx, dy);
        }
        if self.config.noise_std > 0.0 {
            for value in canvas.iter_mut() {
                // Box-Muller Gaussian noise.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                *value = (*value + normal * self.config.noise_std).clamp(0.0, 1.0);
            }
        }
        canvas
    }

    /// Generates a dataset of `samples` images with balanced class counts
    /// (classes are assigned round-robin).
    pub fn generate_split<R: Rng + ?Sized>(&self, samples: usize, rng: &mut R) -> Dataset {
        let mut rows = Vec::with_capacity(samples);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let digit = i % NUM_CLASSES;
            rows.push(self.render_sample(digit, rng));
            labels.push(digit);
        }
        Dataset::new(Matrix::from_rows(&rows), labels, NUM_CLASSES)
    }

    /// Generates the train and test splits configured in [`SynthMnistConfig`].
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> (Dataset, Dataset) {
        let train = self.generate_split(self.config.train_samples, rng);
        let test = self.generate_split(self.config.test_samples, rng);
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_ml::gradient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generator() -> SynthMnist {
        SynthMnist::new(SynthMnistConfig {
            train_samples: 200,
            test_samples: 50,
            noise_std: 0.05,
            max_translation: 2.0,
        })
    }

    #[test]
    fn samples_have_mnist_shape_and_range() {
        let gen = generator();
        let mut rng = StdRng::seed_from_u64(1);
        for digit in 0..NUM_CLASSES {
            let img = gen.render_sample(digit, &mut rng);
            assert_eq!(img.len(), IMAGE_PIXELS);
            assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
            // The glyph should paint a meaningful number of pixels.
            let lit = img.iter().filter(|&&v| v > 0.3).count();
            assert!(lit > 20, "digit {digit} lit only {lit} pixels");
            assert!(
                lit < IMAGE_PIXELS / 2,
                "digit {digit} lit too many pixels: {lit}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "0-9")]
    fn out_of_range_digit_panics() {
        let gen = generator();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = gen.render_sample(10, &mut rng);
    }

    #[test]
    fn class_prototypes_are_mutually_distinguishable() {
        // Noise-free renders of different digits should be far apart, and
        // two renders of the same digit should be closer to each other than
        // to any other digit (on average).
        let gen = SynthMnist::new(SynthMnistConfig {
            noise_std: 0.0,
            max_translation: 0.0,
            ..SynthMnistConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let prototypes: Vec<Vec<f64>> = (0..NUM_CLASSES)
            .map(|d| gen.render_sample(d, &mut rng))
            .collect();
        for i in 0..NUM_CLASSES {
            for j in 0..NUM_CLASSES {
                if i != j {
                    let d = gradient::cosine_distance(&prototypes[i], &prototypes[j]);
                    assert!(
                        d > 0.15,
                        "digits {i} and {j} are too similar (cosine distance {d})"
                    );
                }
            }
        }
    }

    #[test]
    fn generate_split_is_balanced_and_labelled() {
        let gen = generator();
        let mut rng = StdRng::seed_from_u64(3);
        let data = gen.generate_split(200, &mut rng);
        assert_eq!(data.len(), 200);
        assert_eq!(data.feature_count(), IMAGE_PIXELS);
        assert_eq!(data.classes, NUM_CLASSES);
        for class in 0..NUM_CLASSES {
            let count = data.labels.iter().filter(|&&label| label == class).count();
            assert_eq!(count, 20, "class {class}");
        }
    }

    #[test]
    fn generate_returns_train_and_test() {
        let gen = generator();
        let mut rng = StdRng::seed_from_u64(4);
        let (train, test) = gen.generate(&mut rng);
        assert_eq!(train.len(), 200);
        assert_eq!(test.len(), 50);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let gen = generator();
        let a = gen.generate_split(30, &mut StdRng::seed_from_u64(9));
        let b = gen.generate_split(30, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn a_linear_model_can_learn_the_task() {
        // End-to-end sanity check: softmax regression reaches high accuracy
        // quickly, as it would on MNIST.
        use bfl_ml::metrics::accuracy;
        use bfl_ml::model::Model;
        use bfl_ml::optimizer::{train_local, LocalTrainingConfig};
        use bfl_ml::SoftmaxRegression;

        let gen = SynthMnist::new(SynthMnistConfig {
            train_samples: 400,
            test_samples: 100,
            noise_std: 0.05,
            max_translation: 1.5,
        });
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) = gen.generate(&mut rng);
        let mut model = SoftmaxRegression::new(IMAGE_PIXELS, NUM_CLASSES, &mut rng);
        let samples: Vec<usize> = (0..train.len()).collect();
        let config = LocalTrainingConfig {
            epochs: 5,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        train_local(
            &mut model,
            &train.features,
            &train.labels,
            &samples,
            &config,
            &mut rng,
        );
        let acc = accuracy(&model, &test.features, &test.labels, None);
        assert!(
            acc > 0.85,
            "synthetic MNIST should be learnable to >85% by a linear model, got {acc}"
        );
        assert_eq!(model.num_params(), 7850);
    }
}
