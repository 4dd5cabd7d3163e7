use cdma_tensor::{Layout, Shape4, Tensor};

use crate::{Layer, LayerKind, Mode, ParamRef, WeightInit};

/// Which forward/backward implementation a [`Conv2d`] uses.
///
/// The paper notes (Section VI) that "state-of-the-art DNN libraries
/// refactor the convolution operations into a dense matrix-multiplication
/// operation" — the im2col + GEMM strategy of cuDNN. Both a direct
/// 7-deep-loop implementation and the im2col-GEMM refactoring are provided
/// and cross-checked in the tests; im2col is the default, like cuDNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvImpl {
    /// Straightforward nested loops.
    Direct,
    /// Lower to an `[out_c, ic·kh·kw] × [ic·kh·kw, oh·ow]` matrix product.
    Im2col,
}

/// 2-D convolution layer with square kernels, stride and zero padding.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    w_grads: Vec<f32>,
    b_grads: Vec<f32>,
    implementation: ConvImpl,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He initialization.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero or any channel count is zero.
    pub fn new(
        name: &str,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(in_c > 0 && out_c > 0, "channel counts must be positive");
        let mut weights = vec![0f32; out_c * in_c * kernel * kernel];
        let fan_in = in_c * kernel * kernel;
        let fan_out = out_c * kernel * kernel;
        WeightInit::He.fill(&mut weights, fan_in, fan_out, seed);
        Conv2d {
            name: name.to_owned(),
            in_c,
            out_c,
            kernel,
            stride,
            pad,
            w_grads: vec![0.0; weights.len()],
            weights,
            bias: vec![0.0; out_c],
            b_grads: vec![0.0; out_c],
            implementation: ConvImpl::Im2col,
            cached_input: None,
        }
    }

    /// Switches the forward/backward implementation.
    // pub: the only way to select the reference implementation `ConvImpl::Direct`
    pub fn with_impl(mut self, implementation: ConvImpl) -> Self {
        self.implementation = implementation;
        self
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    fn out_extent(&self, input: usize) -> usize {
        assert!(
            input + 2 * self.pad >= self.kernel,
            "layer {}: input extent {input} (+2*{} pad) smaller than kernel {}",
            self.name,
            self.pad,
            self.kernel
        );
        (input + 2 * self.pad - self.kernel) / self.stride + 1
    }

    fn forward_direct(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        let out_shape = self.output_shape(s);
        let (k, st, pad) = (self.kernel, self.stride, self.pad as isize);
        let xs = x.as_slice();
        let mut y = Tensor::zeros(out_shape, Layout::Nchw);
        let (xsn, xsc, xsh, _) = Layout::Nchw.strides(s);
        let (ysn, ysc, ysh, _) = Layout::Nchw.strides(out_shape);
        let ys = y.as_mut_slice();
        for n in 0..s.n {
            for oc in 0..self.out_c {
                let wbase = oc * self.in_c * k * k;
                for oh in 0..out_shape.h {
                    for ow in 0..out_shape.w {
                        let mut acc = self.bias[oc];
                        for ic in 0..self.in_c {
                            for kh in 0..k {
                                let ih = (oh * st) as isize + kh as isize - pad;
                                if ih < 0 || ih >= s.h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let iw = (ow * st) as isize + kw as isize - pad;
                                    if iw < 0 || iw >= s.w as isize {
                                        continue;
                                    }
                                    let xv =
                                        xs[n * xsn + ic * xsc + ih as usize * xsh + iw as usize];
                                    let wv = self.weights[wbase + (ic * k + kh) * k + kw];
                                    acc += xv * wv;
                                }
                            }
                        }
                        ys[n * ysn + oc * ysc + oh * ysh + ow] = acc;
                    }
                }
            }
        }
        y
    }

    /// Builds the im2col matrix for image `n`: rows are `(ic, kh, kw)`
    /// patch coordinates, columns are `(oh, ow)` output positions.
    fn im2col(&self, x: &Tensor, n: usize, oh_w: (usize, usize)) -> Vec<f32> {
        let s = x.shape();
        let (out_h, out_w) = oh_w;
        let k = self.kernel;
        let rows = self.in_c * k * k;
        let cols = out_h * out_w;
        let mut m = vec![0f32; rows * cols];
        let xs = x.as_slice();
        let (xsn, xsc, xsh, _) = Layout::Nchw.strides(s);
        for ic in 0..self.in_c {
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ic * k + kh) * k + kw;
                    for oh in 0..out_h {
                        let ih = (oh * self.stride + kh) as isize - self.pad as isize;
                        if ih < 0 || ih >= s.h as isize {
                            continue;
                        }
                        for ow in 0..out_w {
                            let iw = (ow * self.stride + kw) as isize - self.pad as isize;
                            if iw < 0 || iw >= s.w as isize {
                                continue;
                            }
                            m[row * cols + oh * out_w + ow] =
                                xs[n * xsn + ic * xsc + ih as usize * xsh + iw as usize];
                        }
                    }
                }
            }
        }
        m
    }

    fn forward_im2col(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        let out_shape = self.output_shape(s);
        let (out_h, out_w) = (out_shape.h, out_shape.w);
        let k = self.kernel;
        let rows = self.in_c * k * k;
        let cols = out_h * out_w;
        let mut y = Tensor::zeros(out_shape, Layout::Nchw);
        let (ysn, ysc, _, _) = Layout::Nchw.strides(out_shape);
        for n in 0..s.n {
            let m = self.im2col(x, n, (out_h, out_w));
            // GEMM: weights [out_c × rows] times m [rows × cols].
            let ys = y.as_mut_slice();
            for oc in 0..self.out_c {
                let wrow = &self.weights[oc * rows..(oc + 1) * rows];
                let ybase = n * ysn + oc * ysc;
                for (r, &wv) in wrow.iter().enumerate() {
                    if wv == 0.0 {
                        continue;
                    }
                    let mrow = &m[r * cols..(r + 1) * cols];
                    for (col, &mv) in mrow.iter().enumerate() {
                        ys[ybase + col] += wv * mv;
                    }
                }
                for col in 0..cols {
                    ys[ybase + col] += self.bias[oc];
                }
            }
        }
        y
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        assert_eq!(
            input.c, self.in_c,
            "layer {}: expected {} input channels, got {}",
            self.name, self.in_c, input.c
        );
        Shape4::new(
            input.n,
            self.out_c,
            self.out_extent(input.h),
            self.out_extent(input.w),
        )
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let y = match self.implementation {
            ConvImpl::Direct => self.forward_direct(input),
            ConvImpl::Im2col => self.forward_im2col(input),
        };
        self.cached_input = Some(input.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward")
            .clone();
        let s = x.shape();
        let out_shape = self.output_shape(s);
        assert_eq!(
            grad_out.shape(),
            out_shape,
            "layer {}: gradient shape mismatch",
            self.name
        );
        let k = self.kernel;
        let (st, pad) = (self.stride, self.pad as isize);
        let xs = x.as_slice();
        let gs = grad_out.as_slice();
        let mut dx = Tensor::zeros(s, Layout::Nchw);
        let dxs = dx.as_mut_slice();
        let (xsn, xsc, xsh, _) = Layout::Nchw.strides(s);
        let (ysn, ysc, ysh, _) = Layout::Nchw.strides(out_shape);
        for n in 0..s.n {
            for oc in 0..self.out_c {
                let wbase = oc * self.in_c * k * k;
                for oh in 0..out_shape.h {
                    for ow in 0..out_shape.w {
                        let g = gs[n * ysn + oc * ysc + oh * ysh + ow];
                        if g == 0.0 {
                            continue;
                        }
                        self.b_grads[oc] += g;
                        for ic in 0..self.in_c {
                            for kh in 0..k {
                                let ih = (oh * st) as isize + kh as isize - pad;
                                if ih < 0 || ih >= s.h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let iw = (ow * st) as isize + kw as isize - pad;
                                    if iw < 0 || iw >= s.w as isize {
                                        continue;
                                    }
                                    let xi = n * xsn + ic * xsc + ih as usize * xsh + iw as usize;
                                    let wi = wbase + (ic * k + kh) * k + kw;
                                    self.w_grads[wi] += g * xs[xi];
                                    dxs[xi] += g * self.weights[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                values: &mut self.weights,
                grads: &mut self.w_grads,
            },
            ParamRef {
                values: &mut self.bias,
                grads: &mut self.b_grads,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn zero_grads(&mut self) {
        self.w_grads.iter_mut().for_each(|g| *g = 0.0);
        self.b_grads.iter_mut().for_each(|g| *g = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck;

    fn input(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        Tensor::from_fn(Shape4::new(n, c, h, w), Layout::Nchw, |_, _, _, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 200) as f32 / 100.0 - 1.0
        })
    }

    #[test]
    fn output_shape_formula() {
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, 0);
        assert_eq!(
            conv.output_shape(Shape4::new(2, 3, 8, 8)),
            Shape4::new(2, 8, 8, 8)
        );
        let conv = Conv2d::new("c", 3, 96, 11, 4, 0, 0);
        // AlexNet conv0: 227 -> 55.
        assert_eq!(
            conv.output_shape(Shape4::new(1, 3, 227, 227)),
            Shape4::new(1, 96, 55, 55)
        );
    }

    #[test]
    fn direct_and_im2col_agree() {
        let x = input(2, 3, 9, 9, 5);
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (3, 2)] {
            let mut a = Conv2d::new("a", 3, 4, 3, stride, pad, 9).with_impl(ConvImpl::Direct);
            let mut b = Conv2d::new("b", 3, 4, 3, stride, pad, 9).with_impl(ConvImpl::Im2col);
            let ya = a.forward(&x, Mode::Train);
            let yb = b.forward(&x, Mode::Train);
            assert_eq!(ya.shape(), yb.shape());
            for (p, q) in ya.as_slice().iter().zip(yb.as_slice()) {
                assert!(
                    (p - q).abs() < 1e-4,
                    "stride {stride} pad {pad}: {p} vs {q}"
                );
            }
        }
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new("id", 1, 1, 1, 1, 0, 0);
        conv.params_mut()[0].values[0] = 1.0;
        let x = input(1, 1, 4, 4, 3);
        let y = conv.forward(&x, Mode::Train);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bias_shifts_output() {
        let mut conv = Conv2d::new("b", 1, 2, 3, 1, 1, 1);
        for w in conv.params_mut()[0].values.iter_mut() {
            *w = 0.0;
        }
        conv.params_mut()[1].values[0] = 2.5;
        conv.params_mut()[1].values[1] = -1.0;
        let x = input(1, 1, 4, 4, 3);
        let y = conv.forward(&x, Mode::Train);
        assert!(y.as_slice()[..16].iter().all(|&v| (v - 2.5).abs() < 1e-6));
        assert!(y.as_slice()[16..].iter().all(|&v| (v + 1.0).abs() < 1e-6));
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut conv = Conv2d::new("g", 2, 3, 3, 1, 1, 11);
        let x = input(2, 2, 5, 5, 7);
        gradcheck::check_input_gradient(&mut conv, &x, 2e-2);
    }

    #[test]
    fn input_gradient_matches_numeric_strided() {
        let mut conv = Conv2d::new("g", 2, 2, 3, 2, 0, 13);
        let x = input(1, 2, 7, 7, 9);
        gradcheck::check_input_gradient(&mut conv, &x, 2e-2);
    }

    #[test]
    fn param_gradient_matches_numeric() {
        let mut conv = Conv2d::new("g", 2, 3, 3, 1, 1, 17);
        let x = input(2, 2, 5, 5, 19);
        gradcheck::check_param_gradient(&mut conv, &x, 2e-2);
    }

    #[test]
    fn param_count_is_correct() {
        let conv = Conv2d::new("c", 3, 8, 5, 1, 2, 0);
        assert_eq!(conv.param_count(), 8 * 3 * 5 * 5 + 8);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn wrong_channel_count_rejected() {
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, 0);
        let _ = conv.output_shape(Shape4::new(1, 4, 8, 8));
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn too_small_input_rejected() {
        let conv = Conv2d::new("c", 1, 1, 5, 1, 0, 0);
        let _ = conv.output_shape(Shape4::new(1, 1, 3, 3));
    }
}
