use std::ops::Range;

use cdma_tensor::{Layout, Shape4, Tensor};

use crate::{Layer, LayerKind, Mode, ParamRef, WeightInit};

/// 2-D convolution layer with square kernels, stride and zero padding.
///
/// The paper notes (Section VI) that "state-of-the-art DNN libraries
/// refactor the convolution operations into a dense matrix-multiplication
/// operation" — the im2col + GEMM strategy of cuDNN, which this layer
/// runs: it lowers to an `[out_c, ic·kh·kw] × [ic·kh·kw, oh·ow]` matrix
/// product. The direct 7-deep loops stay in the tests as the reference:
/// the im2col backward keeps their order of operations and is held to
/// them bit for bit.
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
            cached_input: None,
        }
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

    /// The reference forward: straightforward nested loops.
    #[cfg(test)]
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

    /// Writes image `n`'s im2col matrix into `m`: rows are `(ic, kh, kw)`
    /// patch coordinates, columns are `(oh, ow)` output positions. Only the
    /// entries that read the input are written; the padding entries are the
    /// same for every image, so `m` keeps the zeros it was created with.
    fn im2col_into(&self, x: &Tensor, n: usize, out_shape: Shape4, m: &mut [f32]) {
        let s = x.shape();
        let (k, st, pad) = (self.kernel, self.stride, self.pad);
        let cols = out_shape.h * out_shape.w;
        let xs = x.as_slice();
        let (xsn, xsc, xsh, _) = Layout::Nchw.strides(s);
        for ic in 0..self.in_c {
            let plane = &xs[n * xsn + ic * xsc..][..xsc];
            for kh in 0..k {
                let ohs = valid_outputs(kh, pad, st, s.h, out_shape.h);
                for kw in 0..k {
                    let ows = valid_outputs(kw, pad, st, s.w, out_shape.w);
                    if ows.is_empty() {
                        continue;
                    }
                    let row = &mut m[((ic * k + kh) * k + kw) * cols..][..cols];
                    for oh in ohs.clone() {
                        let src = &plane[(oh * st + kh - pad) * xsh + ows.start * st + kw - pad..];
                        let dst = &mut row[oh * out_shape.w..][ows.clone()];
                        if st == 1 {
                            dst.copy_from_slice(&src[..dst.len()]);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(st)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// im2col + GEMM. Output `(oc, col)` is `+0.0` plus `w[oc][r]·m[r][col]`
    /// for each row `r` in ascending order whose weight is non-zero, plus
    /// the bias last.
    fn forward_im2col(&self, x: &Tensor) -> Tensor {
        let s = x.shape();
        let out_shape = self.output_shape(s);
        let rows = self.in_c * self.kernel * self.kernel;
        let cols = out_shape.h * out_shape.w;
        let mut m = vec![0f32; rows * cols];
        let mut y = Tensor::zeros(out_shape, Layout::Nchw);
        let images = y.as_mut_slice().chunks_exact_mut(self.out_c * cols);
        for (n, yn) in images.enumerate() {
            self.im2col_into(x, n, out_shape, &mut m);
            let ocs = self.weights.chunks_exact(rows).zip(&self.bias);
            for ((wrow, &bias), yrow) in ocs.zip(yn.chunks_exact_mut(cols)) {
                gemm_row(wrow, &m, bias, yrow);
            }
        }
        y
    }

    /// The reference backward: every tap of every output position, bounds
    /// tested one by one.
    #[cfg(test)]
    fn backward_direct(&mut self, grad_out: &Tensor, dx: &mut Tensor) {
        let x = self.cached_input.as_ref().expect("cached by forward");
        let s = x.shape();
        let out_shape = self.output_shape(s);
        let k = self.kernel;
        let (st, pad) = (self.stride, self.pad as isize);
        let xs = x.as_slice();
        let gs = grad_out.as_slice();
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
    }

    /// The direct loop's operations in its order (`n, oc, oh, ow`, zero
    /// gradients skipped), with each position's tap range clipped to the
    /// input once. The taps of one position touch distinct weights and
    /// inputs, so each accumulator sees the reference's sequence of adds.
    fn backward_im2col(&mut self, grad_out: &Tensor, dx: &mut Tensor) {
        let x = self.cached_input.as_ref().expect("cached by forward");
        let s = x.shape();
        let out_shape = self.output_shape(s);
        let (k, st, pad) = (self.kernel, self.stride, self.pad);
        let rows = self.in_c * k * k;
        let xs = x.as_slice();
        let dxs = dx.as_mut_slice();
        let (xsn, xsc, xsh, _) = Layout::Nchw.strides(s);
        let kw_taps: Vec<_> = (0..out_shape.w)
            .map(|ow| valid_taps(ow, pad, st, s.w, k))
            .collect();
        // The non-zero positions of one gradient row, compacted without a
        // branch; the zero-gradient skip then costs no mispredictions.
        let mut live = vec![0usize; out_shape.w];
        let planes = grad_out.as_slice().chunks_exact(out_shape.h * out_shape.w);
        for (plane, gplane) in planes.enumerate() {
            let (n, oc) = (plane / self.out_c, plane % self.out_c);
            let wrow = &self.weights[oc * rows..][..rows];
            let wgrow = &mut self.w_grads[oc * rows..][..rows];
            let b_grad = &mut self.b_grads[oc];
            for (oh, grow) in gplane.chunks_exact(out_shape.w).enumerate() {
                let kh_taps = valid_taps(oh, pad, st, s.h, k);
                let mut count = 0;
                for (ow, &g) in grow.iter().enumerate() {
                    live[count] = ow;
                    count += usize::from(g != 0.0);
                }
                for &ow in &live[..count] {
                    let (g, kws) = (grow[ow], &kw_taps[ow]);
                    *b_grad += g;
                    if kws.is_empty() {
                        continue;
                    }
                    let iw = ow * st + kws.start - pad;
                    let origin = n * xsn + (oh * st + kh_taps.start - pad) * xsh + iw;
                    // A window that lies wholly inside the input runs
                    // unrolled for the kernels the tiny networks use.
                    match (kh_taps.len() == k && kws.len() == k, k) {
                        (true, 1) => window_taps::<1>(g, wgrow, wrow, dxs, xs, origin, xsc, xsh),
                        (true, 3) => window_taps::<3>(g, wgrow, wrow, dxs, xs, origin, xsc, xsh),
                        _ => {
                            for ic in 0..self.in_c {
                                for kh in kh_taps.clone() {
                                    let xi = origin + ic * xsc + (kh - kh_taps.start) * xsh;
                                    let wi = (ic * k + kh) * k + kws.start;
                                    let taps = wgrow[wi..][..kws.len()].iter_mut().zip(&wrow[wi..]);
                                    let pixels = dxs[xi..][..kws.len()].iter_mut().zip(&xs[xi..]);
                                    for ((wg, &w), (d, &xv)) in taps.zip(pixels) {
                                        *wg += g * xv;
                                        *d += g * w;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Outputs per GEMM block: 32 accumulators, eight independent 4-wide add
/// chains on SSE2, held in registers across the whole row loop.
const GEMM_BLOCK: usize = 32;

/// One output channel's row of the im2col GEMM: `y[col]` is `+0.0` plus
/// `w[r]·m[r][col]` for each `r` in ascending order with `w[r] != 0`, plus
/// `bias`. `m` is `[w.len() × y.len()]`, row-major.
fn gemm_row(w: &[f32], m: &[f32], bias: f32, y: &mut [f32]) {
    let cols = y.len();
    let mut col = 0;
    while col + GEMM_BLOCK <= cols {
        gemm_block::<GEMM_BLOCK>(w, m, cols, col, bias, &mut y[col..col + GEMM_BLOCK]);
        col += GEMM_BLOCK;
    }
    for c in col..cols {
        gemm_block::<1>(w, m, cols, c, bias, &mut y[c..c + 1]);
    }
}

/// [`gemm_row`] for the `B` columns from `col`.
#[inline(always)]
fn gemm_block<const B: usize>(
    w: &[f32],
    m: &[f32],
    cols: usize,
    col: usize,
    bias: f32,
    y: &mut [f32],
) {
    let mut acc = [0f32; B];
    for (r, &wv) in w.iter().enumerate() {
        if wv == 0.0 {
            continue;
        }
        let mrow: &[f32; B] = m[r * cols + col..][..B].try_into().expect("B columns");
        for (a, &mv) in acc.iter_mut().zip(mrow) {
            *a += wv * mv;
        }
    }
    for (out, a) in y.iter_mut().zip(acc) {
        *out = a + bias;
    }
}

/// One output position's taps when its whole `K×K` window reads the input
/// from `origin` (channel 0, top-left): for every `(ic, kh, kw)`,
/// `wg[ic][kh][kw] += g·x[..]` and `dx[..] += g·w[ic][kh][kw]`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn window_taps<const K: usize>(
    g: f32,
    wg: &mut [f32],
    w: &[f32],
    dx: &mut [f32],
    x: &[f32],
    origin: usize,
    plane: usize,
    row: usize,
) {
    let channels = wg.chunks_exact_mut(K * K).zip(w.chunks_exact(K * K));
    for (c, (wg, w)) in channels.enumerate() {
        for kh in 0..K {
            let at = origin + c * plane + kh * row;
            let wg: &mut [f32; K] = (&mut wg[kh * K..][..K]).try_into().expect("K taps");
            let w: &[f32; K] = w[kh * K..][..K].try_into().expect("K taps");
            let d: &mut [f32; K] = (&mut dx[at..][..K]).try_into().expect("K taps");
            let xv: &[f32; K] = x[at..][..K].try_into().expect("K taps");
            for kw in 0..K {
                wg[kw] += g * xv[kw];
                d[kw] += g * w[kw];
            }
        }
    }
}

/// The output positions `o < out_extent` whose tap `t` reads the input:
/// `0 <= o·stride + t − pad < extent`.
fn valid_outputs(
    t: usize,
    pad: usize,
    stride: usize,
    extent: usize,
    out_extent: usize,
) -> Range<usize> {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = (extent + pad)
        .checked_sub(t + 1)
        .map_or(0, |last| last / stride + 1)
        .min(out_extent);
    lo..hi.max(lo)
}

/// The taps `t < kernel` of output position `o` that read the input:
/// `0 <= o·stride + t − pad < extent`.
fn valid_taps(o: usize, pad: usize, stride: usize, extent: usize, kernel: usize) -> Range<usize> {
    let start = o * stride;
    let lo = pad.saturating_sub(start);
    let hi = (extent + pad).saturating_sub(start).min(kernel);
    lo..hi.max(lo)
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
        let y = self.forward_im2col(input);
        self.cached_input = Some(input.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let s = self
            .cached_input
            .as_ref()
            .expect("backward called before forward")
            .shape();
        assert_eq!(
            grad_out.shape(),
            self.output_shape(s),
            "layer {}: gradient shape mismatch",
            self.name
        );
        let mut dx = Tensor::zeros(s, Layout::Nchw);
        self.backward_im2col(grad_out, &mut dx);
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

    /// `Layer::forward` through the reference loops.
    fn forward_direct(conv: &mut Conv2d, x: &Tensor) -> Tensor {
        let y = conv.forward_direct(x);
        conv.cached_input = Some(x.clone());
        y
    }

    /// `Layer::backward` through the reference loops.
    fn backward_direct(conv: &mut Conv2d, grad_out: &Tensor) -> Tensor {
        let s = conv.cached_input.as_ref().expect("forward first").shape();
        let mut dx = Tensor::zeros(s, Layout::Nchw);
        conv.backward_direct(grad_out, &mut dx);
        dx
    }

    #[test]
    fn direct_and_im2col_agree() {
        let x = input(2, 3, 9, 9, 5);
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (3, 2)] {
            let mut a = Conv2d::new("a", 3, 4, 3, stride, pad, 9);
            let mut b = Conv2d::new("b", 3, 4, 3, stride, pad, 9);
            let ya = forward_direct(&mut a, &x);
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

    /// One case of the seeded corpus the im2col path is held to:
    /// `(n, in_c, out_c, kernel, stride, pad, h, w)`.
    type Case = (usize, usize, usize, usize, usize, usize, usize, usize);

    /// A 64-bit LCG step returning 31 fresh bits.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Every kernel ∈ {1, 3, 5} × stride ∈ {1, 2, 3} × pad ∈ {0, 1, 2},
    /// twice, with 1–8 channels each way, 1–3 images and non-square planes
    /// (some no larger than the kernel, so padding-only output rows occur).
    fn corpus() -> Vec<Case> {
        let mut state = 0x5eed_c0de;
        let mut cases = Vec::new();
        for k in [1, 3, 5] {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for _ in 0..2 {
                        let min = (k as isize - 2 * pad as isize).max(1) as usize;
                        let h = min + lcg(&mut state) as usize % 7;
                        let w = min + (h - min + 1 + lcg(&mut state) as usize % 6) % 7;
                        let n = 1 + lcg(&mut state) as usize % 3;
                        let in_c = 1 + lcg(&mut state) as usize % 8;
                        let out_c = 1 + lcg(&mut state) as usize % 8;
                        cases.push((n, in_c, out_c, k, stride, pad, h, w));
                    }
                }
            }
        }
        cases
    }

    /// A tensor whose elements are exact zeros with probability
    /// `zero_pct`% (a fifth of them `-0.0`) and uniform in `[-1, 1)`
    /// otherwise — post-ReLU inputs and ReLU-gated gradients.
    fn sparse(shape: Shape4, zero_pct: u64, state: &mut u64) -> Tensor {
        Tensor::from_fn(shape, Layout::Nchw, |_, _, _, _| {
            let r = lcg(state) % 100;
            if r < zero_pct * 4 / 5 {
                0.0
            } else if r < zero_pct {
                -0.0
            } else {
                (lcg(state) % 2000) as f32 / 1000.0 - 1.0
            }
        })
    }

    /// A layer for `case` whose weights are He-initialised with every
    /// seventh one an exact zero (the forward skips those) and whose biases
    /// are non-zero (added after the sum).
    fn corpus_layer(case: Case, seed: u64) -> Conv2d {
        let (_, in_c, out_c, k, stride, pad, _, _) = case;
        let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, seed);
        for (i, w) in conv.params_mut()[0].values.iter_mut().enumerate() {
            if i % 7 == 3 {
                *w = 0.0;
            }
        }
        for (i, b) in conv.params_mut()[1].values.iter_mut().enumerate() {
            *b = 0.25 - 0.125 * i as f32;
        }
        conv
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The im2col forward's outputs over the corpus, FNV-1a-64 hashed in
    /// bits. Recorded from the one-image-at-a-time, one-chain GEMM this
    /// path replaced; a moved bit anywhere moves the digest.
    #[test]
    fn im2col_forward_is_pinned_over_the_corpus() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut state = 0xf0_4a4d;
        for (i, case) in corpus().into_iter().enumerate() {
            let (n, in_c, _, _, _, _, h, w) = case;
            let mut conv = corpus_layer(case, i as u64);
            let x = sparse(Shape4::new(n, in_c, h, w), 30, &mut state);
            for v in conv.forward(&x, Mode::Train).as_slice() {
                for byte in v.to_bits().to_le_bytes() {
                    hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, IM2COL_FORWARD_FNV64, "got {hash:#018x}");
    }

    const IM2COL_FORWARD_FNV64: u64 = 0x26b4_b6da_fb5a_1a9c;

    /// The im2col backward equals the direct loop in every bit of `dx`,
    /// `w_grads` and `b_grads`, over two accumulating `backward` calls on
    /// ~85%-zero gradients (some `-0.0`); every fourth case has an `inf`
    /// input, so a zero gradient that is not skipped shows as a `NaN`.
    #[test]
    fn im2col_backward_equals_the_direct_loop_bit_for_bit() {
        let mut state = 0xbac4_3a2d;
        for (i, case) in corpus().into_iter().enumerate() {
            let (n, in_c, _, _, _, _, h, w) = case;
            let mut direct = corpus_layer(case, i as u64);
            let mut fast = corpus_layer(case, i as u64);
            for round in 0..2 {
                let mut x = sparse(Shape4::new(n, in_c, h, w), 30, &mut state);
                if i % 4 == 0 && round == 0 {
                    // Only a skipped zero gradient keeps `0·inf` out.
                    let mid = x.len() / 2;
                    x.as_mut_slice()[mid] = f32::INFINITY;
                }
                let out_shape = forward_direct(&mut direct, &x).shape();
                let _ = fast.forward(&x, Mode::Train);
                let g = sparse(out_shape, 85, &mut state);
                let (dx_direct, dx_fast) = (backward_direct(&mut direct, &g), fast.backward(&g));
                assert_eq!(
                    bits(dx_direct.as_slice()),
                    bits(dx_fast.as_slice()),
                    "dx, case {case:?}, round {round}"
                );
            }
            let (pd, pf) = (direct.params_mut(), fast.params_mut());
            assert_eq!(
                bits(pd[0].grads),
                bits(pf[0].grads),
                "w_grads, case {case:?}"
            );
            assert_eq!(
                bits(pd[1].grads),
                bits(pf[1].grads),
                "b_grads, case {case:?}"
            );
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
