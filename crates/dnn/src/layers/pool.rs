use cdma_tensor::{Layout, Shape4, Tensor};

use crate::{Layer, LayerKind, Mode};

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Avg,
}

/// Spatial down-sampling layer (Section II-A).
///
/// The paper's Fig. 4/5 observation that "pooling layers always increase
/// activation density" falls out of the max/avg semantics: a pooled output
/// is zero only when *every* input in its window is zero. The unit tests
/// pin down exactly that behaviour.
#[derive(Debug)]
pub struct Pool {
    name: String,
    kind: PoolKind,
    window: usize,
    stride: usize,
    /// For max pooling: flat input index chosen per output element.
    argmax: Option<Vec<usize>>,
    input_shape: Option<Shape4>,
}

impl Pool {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(name: &str, kind: PoolKind, window: usize, stride: usize) -> Self {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        Pool {
            name: name.to_owned(),
            kind,
            window,
            stride,
            argmax: None,
            input_shape: None,
        }
    }

    fn out_extent(&self, input: usize) -> usize {
        assert!(
            input >= self.window,
            "layer {}: input extent {input} smaller than pool window {}",
            self.name,
            self.window
        );
        (input - self.window) / self.stride + 1
    }
}

impl Layer for Pool {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Pool
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        Shape4::new(
            input.n,
            input.c,
            self.out_extent(input.h),
            self.out_extent(input.w),
        )
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let s = input.shape();
        let os = self.output_shape(s);
        let xs = input.as_slice();
        let (xsn, xsc, xsh, _) = Layout::Nchw.strides(s);
        let mut y = Tensor::zeros(os, Layout::Nchw);
        let mut argmax = vec![0usize; os.len()];
        {
            let ys = y.as_mut_slice();
            let mut oi = 0usize;
            for n in 0..s.n {
                for c in 0..s.c {
                    let base = n * xsn + c * xsc;
                    for oh in 0..os.h {
                        for ow in 0..os.w {
                            match self.kind {
                                PoolKind::Max => {
                                    let mut best = f32::NEG_INFINITY;
                                    let mut best_idx = 0usize;
                                    for kh in 0..self.window {
                                        for kw in 0..self.window {
                                            let idx = base
                                                + (oh * self.stride + kh) * xsh
                                                + (ow * self.stride + kw);
                                            if xs[idx] > best {
                                                best = xs[idx];
                                                best_idx = idx;
                                            }
                                        }
                                    }
                                    ys[oi] = best;
                                    argmax[oi] = best_idx;
                                }
                                PoolKind::Avg => {
                                    let mut acc = 0f32;
                                    for kh in 0..self.window {
                                        for kw in 0..self.window {
                                            acc += xs[base
                                                + (oh * self.stride + kh) * xsh
                                                + (ow * self.stride + kw)];
                                        }
                                    }
                                    ys[oi] = acc / (self.window * self.window) as f32;
                                }
                            }
                            oi += 1;
                        }
                    }
                }
            }
        }
        self.argmax = Some(argmax);
        self.input_shape = Some(s);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let s = self.input_shape.expect("backward called before forward");
        let os = self.output_shape(s);
        assert_eq!(
            grad_out.shape(),
            os,
            "layer {}: gradient shape mismatch",
            self.name
        );
        let gs = grad_out.as_slice();
        let mut dx = Tensor::zeros(s, Layout::Nchw);
        let dxs = dx.as_mut_slice();
        match self.kind {
            PoolKind::Max => {
                let argmax = self.argmax.as_ref().expect("argmax cached");
                for (oi, &src) in argmax.iter().enumerate() {
                    dxs[src] += gs[oi];
                }
            }
            PoolKind::Avg => {
                let (xsn, xsc, xsh, _) = Layout::Nchw.strides(s);
                let scale = 1.0 / (self.window * self.window) as f32;
                let mut oi = 0usize;
                for n in 0..s.n {
                    for c in 0..s.c {
                        let base = n * xsn + c * xsc;
                        for oh in 0..os.h {
                            for ow in 0..os.w {
                                let g = gs[oi] * scale;
                                for kh in 0..self.window {
                                    for kw in 0..self.window {
                                        dxs[base
                                            + (oh * self.stride + kh) * xsh
                                            + (ow * self.stride + kw)] += g;
                                    }
                                }
                                oi += 1;
                            }
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck;

    fn input(seed: u64) -> Tensor {
        // All values distinct and well separated (>= 0.05 apart) so the
        // central-difference probe (eps = 1e-3) can never flip an argmax —
        // max pooling is not differentiable at ties.
        let mut counter = 0usize;
        // 6*seed + 5 is ≡ 5 (mod 6), hence coprime with 144 = 16·9: the map
        // i -> i*mult (mod 144) is a permutation and all values are unique.
        let mult = 6 * seed as usize + 5;
        Tensor::from_fn(Shape4::new(2, 2, 6, 6), Layout::Nchw, |_, _, _, _| {
            let i = counter;
            counter += 1;
            (((i * mult) % 144) as f32) * 0.05 - 3.0
        })
    }

    #[test]
    fn output_shape_alexnet_pool0() {
        // AlexNet pool0: (96, 55, 55) -> (96, 27, 27) with 3x3 s2.
        let p = Pool::new("pool0", PoolKind::Max, 3, 2);
        assert_eq!(
            p.output_shape(Shape4::new(1, 96, 55, 55)),
            Shape4::new(1, 96, 27, 27)
        );
    }

    #[test]
    fn max_pool_picks_maximum() {
        let mut p = Pool::new("p", PoolKind::Max, 2, 2);
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 2, 2),
            Layout::Nchw,
            vec![1.0, -2.0, 3.0, 0.5],
        );
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[3.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let mut p = Pool::new("p", PoolKind::Avg, 2, 2);
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 2, 2),
            Layout::Nchw,
            vec![1.0, 2.0, 3.0, 2.0],
        );
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[2.0]);
    }

    #[test]
    fn pooling_increases_density() {
        // The paper's Fig. 4 observation: output is zero only if the whole
        // window is zero, so density never decreases through max pooling of
        // non-negative (post-ReLU) data.
        let mut state = 9u64;
        let x = Tensor::from_fn(Shape4::new(2, 4, 8, 8), Layout::Nchw, |_, _, _, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33) % 10 < 7 {
                0.0
            } else {
                ((state >> 33) % 5) as f32 + 1.0
            }
        });
        let mut p = Pool::new("p", PoolKind::Max, 2, 2);
        let y = p.forward(&x, Mode::Train);
        assert!(
            y.density() > x.density(),
            "pool density {} should exceed input {}",
            y.density(),
            x.density()
        );
    }

    #[test]
    fn max_pool_gradient_goes_to_argmax_only() {
        let mut p = Pool::new("p", PoolKind::Max, 2, 2);
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 2, 2),
            Layout::Nchw,
            vec![1.0, -2.0, 3.0, 0.5],
        );
        let _ = p.forward(&x, Mode::Train);
        let g = Tensor::full(Shape4::new(1, 1, 1, 1), Layout::Nchw, 2.0);
        let dx = p.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn gradcheck_max_pool() {
        let mut p = Pool::new("p", PoolKind::Max, 2, 2);
        gradcheck::check_input_gradient(&mut p, &input(3), 2e-2);
    }

    #[test]
    fn gradcheck_avg_pool() {
        let mut p = Pool::new("p", PoolKind::Avg, 3, 1);
        gradcheck::check_input_gradient(&mut p, &input(5), 2e-2);
    }

    #[test]
    fn overlapping_windows_accumulate_gradient() {
        let mut p = Pool::new("p", PoolKind::Avg, 2, 1);
        let x = Tensor::full(Shape4::new(1, 1, 3, 3), Layout::Nchw, 1.0);
        let _ = p.forward(&x, Mode::Train);
        let g = Tensor::full(Shape4::new(1, 1, 2, 2), Layout::Nchw, 4.0);
        let dx = p.backward(&g);
        // Centre element appears in all four windows: 4 * 4.0 / 4 = 4.0.
        assert_eq!(dx.get(0, 0, 1, 1), 4.0);
        // Corner appears in one window: 4.0 / 4 = 1.0.
        assert_eq!(dx.get(0, 0, 0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "smaller than pool window")]
    fn too_small_input_rejected() {
        let p = Pool::new("p", PoolKind::Max, 4, 2);
        let _ = p.output_shape(Shape4::new(1, 1, 3, 3));
    }
}
