//! Procedurally-generated image-classification dataset.
//!
//! The paper trains on ImageNet, which we cannot ship (see DESIGN.md). For
//! the *training-dynamics* experiments all that matters is that a ReLU CNN
//! learns a non-trivial classification task from scratch — the density
//! U-curve is a property of backpropagation + ReLU, not of photographs. This
//! module generates a deterministic K-class task where each class is a
//! distinct spatial pattern (stripes, checkerboards, Gaussian blobs, ramps)
//! under heavy noise, jitter and per-image contrast changes, so a small CNN
//! must genuinely learn feature detectors to separate the classes.

use cdma_tensor::{Layout, Shape4, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic synthetic dataset generator.
#[derive(Debug, Clone)]
pub struct SyntheticImages {
    classes: usize,
    channels: usize,
    size: usize,
    noise: f64,
    rng: StdRng,
}

impl SyntheticImages {
    /// Creates a generator for `classes` classes of `channels`×`size`×`size`
    /// images.
    ///
    /// # Panics
    ///
    /// Panics if `classes < 2` or `size < 8` (patterns need room).
    pub fn new(classes: usize, channels: usize, size: usize, seed: u64) -> Self {
        assert!(classes >= 2, "need at least two classes, got {classes}");
        assert!(size >= 8, "images must be at least 8x8, got {size}");
        SyntheticImages {
            classes,
            channels,
            size,
            noise: 0.35,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image shape for a batch of `n`.
    pub fn shape(&self, n: usize) -> Shape4 {
        Shape4::new(n, self.channels, self.size, self.size)
    }

    /// Generates a batch of images with uniformly-sampled labels.
    pub fn batch(&mut self, n: usize) -> (Tensor, Vec<usize>) {
        let labels: Vec<usize> = (0..n)
            .map(|_| self.rng.gen_range(0..self.classes))
            .collect();
        let images = self.batch_for_labels(&labels);
        (images, labels)
    }

    /// Generates one image per provided label.
    fn batch_for_labels(&mut self, labels: &[usize]) -> Tensor {
        let shape = self.shape(labels.len());
        let mut out = Tensor::zeros(shape, Layout::Nchw);
        for (n, &label) in labels.iter().enumerate() {
            assert!(label < self.classes, "label {label} out of range");
            // Per-image nuisance parameters the classifier must ignore.
            // Phase jitter is small — the ±2 px translation jitter already
            // shifts stripe phase by up to ±π/2, and unbounded phase would
            // wash the class signal out of the mean entirely.
            let phase = self.rng.gen_range(0.0..0.3);
            let contrast = self.rng.gen_range(0.6..1.4);
            let offset_h = self.rng.gen_range(-2i64..=2) as f64;
            let offset_w = self.rng.gen_range(-2i64..=2) as f64;
            for c in 0..self.channels {
                for h in 0..self.size {
                    for w in 0..self.size {
                        let sig = class_signal(
                            label,
                            self.classes,
                            c,
                            h as f64 + offset_h,
                            w as f64 + offset_w,
                            self.size as f64,
                            phase,
                        );
                        let noise = self.rng.gen_range(-1.0..1.0) * self.noise;
                        out.set(n, c, h, w, ((sig * contrast) + noise) as f32);
                    }
                }
            }
        }
        out
    }
}

/// Class-conditional signal in `[-1, 1]`.
fn class_signal(
    label: usize,
    classes: usize,
    channel: usize,
    h: f64,
    w: f64,
    size: f64,
    phase: f64,
) -> f64 {
    // Pattern family cycles with the label; parameters shift per label so
    // classes within a family remain separable.
    let family = label % 4;
    let variant = (label / 4 + 1) as f64;
    let freq = std::f64::consts::TAU * (1.0 + variant) / size;
    let ch_flip = if channel.is_multiple_of(2) { 1.0 } else { -1.0 };
    match family {
        0 => (freq * h + phase).sin() * ch_flip,
        1 => (freq * w + phase).sin() * ch_flip,
        2 => ((freq * (h + w) / 1.5 + phase).sin() * (freq * (h - w) / 1.5).cos()) * ch_flip,
        _ => {
            // Gaussian blob in a class-dependent quadrant.
            let q = label % classes;
            let cx = size * (0.3 + 0.4 * ((q % 2) as f64));
            let cy = size * (0.3 + 0.4 * (((q / 2) % 2) as f64));
            let r = size * 0.22 * variant.sqrt();
            let d2 = (h - cy).powi(2) + (w - cx).powi(2);
            (2.0 * (-d2 / (2.0 * r * r)).exp() - 1.0) * ch_flip
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SyntheticImages::new(4, 1, 16, 9);
        let mut b = SyntheticImages::new(4, 1, 16, 9);
        let (xa, la) = a.batch(8);
        let (xb, lb) = b.batch(8);
        assert_eq!(la, lb);
        assert_eq!(xa.as_slice(), xb.as_slice());
    }

    #[test]
    fn labels_in_range_and_varied() {
        let mut gen = SyntheticImages::new(4, 1, 16, 5);
        let (_, labels) = gen.batch(64);
        assert!(labels.iter().all(|&l| l < 4));
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert!(distinct.len() >= 3, "sampling should hit most classes");
    }

    #[test]
    fn images_are_roughly_zero_mean() {
        let mut gen = SyntheticImages::new(4, 1, 16, 5);
        let (x, _) = gen.batch(32);
        let mean = x.as_slice().iter().map(|&v| v as f64).sum::<f64>() / x.len() as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn classes_are_statistically_distinct() {
        // Mean images of two different classes should differ far more than
        // two batches of the same class.
        let mut gen = SyntheticImages::new(4, 1, 16, 7);
        let mean_image = |gen: &mut SyntheticImages, label: usize| -> Vec<f64> {
            let labels = vec![label; 64];
            let x = gen.batch_for_labels(&labels);
            let per = x.shape().per_image();
            let mut acc = vec![0f64; per];
            for n in 0..64 {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a += x.as_slice()[n * per + i] as f64 / 64.0;
                }
            }
            acc
        };
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let c0a = mean_image(&mut gen, 0);
        let c0b = mean_image(&mut gen, 0);
        let c1 = mean_image(&mut gen, 1);
        let c2 = mean_image(&mut gen, 2);
        assert!(dist(&c0a, &c1) > 2.5 * dist(&c0a, &c0b));
        assert!(dist(&c1, &c2) > 2.5 * dist(&c0a, &c0b));
    }

    #[test]
    fn batch_for_labels_respects_order() {
        let mut gen = SyntheticImages::new(4, 2, 16, 3);
        let x = gen.batch_for_labels(&[0, 1, 2, 3]);
        assert_eq!(x.shape(), Shape4::new(4, 2, 16, 16));
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn single_class_rejected() {
        let _ = SyntheticImages::new(1, 1, 16, 0);
    }
}
