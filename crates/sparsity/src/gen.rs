use cdma_tensor::{Layout, Shape4, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spatial-structure parameters for synthesized activation maps.
///
/// Real post-ReLU activation maps are not salt-and-pepper noise: activity
/// concentrates in contiguous regions where the learned filter responds
/// (Fig. 5 of the paper shows exactly this blob structure), some channels go
/// entirely quiet, and — for early, class-invariant layers — the *same*
/// image regions light up across the minibatch. Those three properties are
/// what make RLE and zlib sensitive to the memory layout, so the generator
/// models each of them explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialClustering {
    /// Maximum number of Gaussian activity blobs per channel plane.
    pub blobs_per_plane: usize,
    /// Blob radius as a fraction of `min(H, W)`.
    pub radius_frac: f64,
    /// Log-normal σ of the per-channel gain; higher values mean more
    /// channels fall entirely below threshold (dead channels → full-plane
    /// zero runs in NCHW).
    pub channel_gain_sigma: f64,
    /// Positional jitter of blob centres across minibatch images, as a
    /// fraction of the plane extent. Small values model class-invariant
    /// early layers (high cross-image correlation).
    pub batch_jitter: f64,
    /// Amplitude of unstructured noise added on top of the blobs.
    pub noise: f64,
}

impl Default for SpatialClustering {
    fn default() -> Self {
        SpatialClustering {
            blobs_per_plane: 4,
            radius_frac: 0.18,
            channel_gain_sigma: 1.0,
            batch_jitter: 0.3,
            noise: 0.18,
        }
    }
}

impl SpatialClustering {
    /// No spatial structure at all — i.i.d. activations. Useful as the
    /// control case: with this setting RLE gains nothing from any layout.
    #[cfg(test)]
    fn unstructured() -> Self {
        SpatialClustering {
            blobs_per_plane: 0,
            radius_frac: 0.0,
            channel_gain_sigma: 0.0,
            batch_jitter: 1.0,
            noise: 1.0,
        }
    }
}

/// Deterministic activation-map synthesizer with controllable density and
/// spatial clustering.
///
/// The generator produces a continuous "response field" per channel plane
/// (sum of Gaussian blobs × per-channel gain + noise), then thresholds the
/// whole tensor at the quantile matching the requested density. The
/// threshold construction guarantees the measured density matches the target
/// to within one element, while the field's spatial correlation produces the
/// clustered zero patterns the paper observed.
///
/// ```
/// use cdma_sparsity::ActivationGen;
/// use cdma_tensor::{Layout, Shape4};
/// let mut gen = ActivationGen::seeded(7);
/// let t = gen.generate(Shape4::new(2, 16, 27, 27), Layout::Nchw, 0.35);
/// assert!((t.density() - 0.35).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct ActivationGen {
    rng: StdRng,
    clustering: SpatialClustering,
}

impl ActivationGen {
    /// Creates a generator from a seed with default clustering.
    pub fn seeded(seed: u64) -> Self {
        ActivationGen {
            rng: StdRng::seed_from_u64(seed),
            clustering: SpatialClustering::default(),
        }
    }

    /// Creates a generator with explicit clustering parameters.
    #[cfg(test)]
    fn with_clustering(seed: u64, clustering: SpatialClustering) -> Self {
        ActivationGen {
            rng: StdRng::seed_from_u64(seed),
            clustering,
        }
    }

    /// The clustering parameters in use.
    pub fn clustering(&self) -> SpatialClustering {
        self.clustering
    }

    /// Generates an activation tensor of `shape` in `layout` whose density
    /// is `density` (to within one element).
    ///
    /// # Panics
    ///
    /// Panics if `density` is outside `[0, 1]`.
    pub fn generate(&mut self, shape: Shape4, layout: Layout, density: f64) -> Tensor {
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be in [0, 1], got {density}"
        );
        let field = self.response_field(shape);
        threshold_to_density(field, shape, layout, density)
    }

    /// Continuous response field in logical NCHW order.
    fn response_field(&mut self, shape: Shape4) -> Vec<f32> {
        let Shape4 { n, c, h, w } = shape;
        let cl = self.clustering;
        let mut field = vec![0f32; shape.len()];
        for ci in 0..c {
            // Per-channel gain: log-normal, so a heavy lower tail produces
            // fully-dead channels once thresholded.
            let gain = if cl.channel_gain_sigma > 0.0 {
                let g: f64 = self.rng.gen_range(-1.0..1.0) * cl.channel_gain_sigma * 1.6;
                g.exp()
            } else {
                1.0
            };
            // Blob layout is shared per channel (class-invariant response),
            // then jittered per image.
            let blob_count = if cl.blobs_per_plane == 0 {
                0
            } else {
                self.rng.gen_range(1..=cl.blobs_per_plane)
            };
            let blobs: Vec<(f64, f64, f64, f64)> = (0..blob_count)
                .map(|_| {
                    let cx = self.rng.gen_range(0.0..w as f64);
                    let cy = self.rng.gen_range(0.0..h as f64);
                    let r =
                        (cl.radius_frac * h.min(w) as f64).max(0.5) * self.rng.gen_range(0.5..1.5);
                    let amp = self.rng.gen_range(0.3..1.0);
                    (cx, cy, r, amp)
                })
                .collect();
            for ni in 0..n {
                let (jx, jy) = (
                    self.rng.gen_range(-1.0..1.0) * cl.batch_jitter * w as f64,
                    self.rng.gen_range(-1.0..1.0) * cl.batch_jitter * h as f64,
                );
                let img_gain = gain * self.rng.gen_range(0.7..1.3);
                for hi in 0..h {
                    for wi in 0..w {
                        let mut v = 0f64;
                        for &(cx, cy, r, amp) in &blobs {
                            let dx = wi as f64 - (cx + jx);
                            let dy = hi as f64 - (cy + jy);
                            v += amp * (-(dx * dx + dy * dy) / (2.0 * r * r)).exp();
                        }
                        v = v * img_gain + cl.noise * self.rng.gen_range(0.0..1.0);
                        let off = ((ni * c + ci) * h + hi) * w + wi;
                        field[off] = v as f32;
                    }
                }
            }
        }
        field
    }
}

/// Thresholds a logical-NCHW response field at the quantile giving the
/// target density, writing the result in the requested layout.
fn threshold_to_density(field: Vec<f32>, shape: Shape4, layout: Layout, density: f64) -> Tensor {
    let len = shape.len();
    let keep = (density * len as f64).round() as usize;
    if keep == 0 {
        return Tensor::zeros(shape, layout);
    }
    let threshold = if keep >= len {
        f32::NEG_INFINITY
    } else {
        let mut sorted = field.clone();
        let idx = len - keep;
        sorted.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("field is finite"));
        sorted[idx]
    };
    let mut out = Tensor::zeros(shape, layout);
    let nchw_strides = Layout::Nchw.strides(shape);
    let mut kept = 0usize;
    for ni in 0..shape.n {
        for ci in 0..shape.c {
            for hi in 0..shape.h {
                for wi in 0..shape.w {
                    let off = ni * nchw_strides.0 + ci * nchw_strides.1 + hi * nchw_strides.2 + wi;
                    let v = field[off];
                    // `>=` keeps at least `keep` elements; ties may keep a
                    // few more, bounded by the number of exact duplicates.
                    if v >= threshold && kept < keep {
                        out.set(ni, ci, hi, wi, v - threshold + 0.01);
                        kept += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_is_accurate() {
        let mut g = ActivationGen::seeded(1);
        for &d in &[0.0, 0.05, 0.3, 0.5, 0.8, 1.0] {
            let t = g.generate(Shape4::new(2, 8, 13, 13), Layout::Nchw, d);
            assert!(
                (t.density() - d).abs() < 0.01,
                "target {d}, got {}",
                t.density()
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = ActivationGen::seeded(99).generate(Shape4::new(1, 4, 9, 9), Layout::Nhwc, 0.4);
        let b = ActivationGen::seeded(99).generate(Shape4::new(1, 4, 9, 9), Layout::Nhwc, 0.4);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ActivationGen::seeded(1).generate(Shape4::new(1, 4, 9, 9), Layout::Nchw, 0.4);
        let b = ActivationGen::seeded(2).generate(Shape4::new(1, 4, 9, 9), Layout::Nchw, 0.4);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn layouts_hold_same_logical_data_statistics() {
        // Same seed, different layout: the raw stream differs but density
        // must match (ZVC layout-insensitivity depends on this).
        let d = 0.37;
        let shape = Shape4::new(2, 8, 11, 11);
        let a = ActivationGen::seeded(5).generate(shape, Layout::Nchw, d);
        let b = ActivationGen::seeded(5).generate(shape, Layout::Chwn, d);
        assert!((a.density() - b.density()).abs() < 1e-9);
    }

    #[test]
    fn clustered_zeros_give_longer_runs_in_nchw() {
        // Count zero-run lengths in the raw stream: NCHW must have a longer
        // mean zero run than NHWC for blob-structured data. This is the
        // micro-property behind the Fig. 11 layout sensitivity.
        let shape = Shape4::new(4, 32, 13, 13);
        let mean_zero_run = |t: &Tensor| -> f64 {
            let mut runs = Vec::new();
            let mut run = 0usize;
            for v in t.as_slice() {
                if *v == 0.0 {
                    run += 1;
                } else if run > 0 {
                    runs.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                runs.push(run);
            }
            if runs.is_empty() {
                return 0.0;
            }
            runs.iter().sum::<usize>() as f64 / runs.len() as f64
        };
        let nchw = ActivationGen::seeded(11).generate(shape, Layout::Nchw, 0.3);
        let nhwc = ActivationGen::seeded(11).generate(shape, Layout::Nhwc, 0.3);
        assert!(
            mean_zero_run(&nchw) > 1.5 * mean_zero_run(&nhwc),
            "NCHW {} vs NHWC {}",
            mean_zero_run(&nchw),
            mean_zero_run(&nhwc)
        );
    }

    #[test]
    fn fc_shapes_work() {
        let mut g = ActivationGen::seeded(3);
        let t = g.generate(Shape4::fc(8, 4096), Layout::Nchw, 0.1);
        assert!((t.density() - 0.1).abs() < 0.01);
    }

    #[test]
    fn unstructured_control_has_short_runs() {
        let shape = Shape4::new(2, 16, 13, 13);
        let g = |cl: SpatialClustering| {
            ActivationGen::with_clustering(7, cl).generate(shape, Layout::Nchw, 0.5)
        };
        let structured = g(SpatialClustering::default());
        let control = g(SpatialClustering::unstructured());
        let longest_run = |t: &Tensor| {
            let mut best = 0usize;
            let mut run = 0usize;
            for v in t.as_slice() {
                if *v == 0.0 {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 0;
                }
            }
            best
        };
        assert!(longest_run(&structured) > longest_run(&control));
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn invalid_density_rejected() {
        let _ = ActivationGen::seeded(0).generate(Shape4::new(1, 1, 2, 2), Layout::Nchw, 1.5);
    }
}
