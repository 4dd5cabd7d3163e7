use cdma_tensor::{Layout, Shape4, Tensor};

use crate::{Layer, LayerKind, Mode, ParamRef};

/// A layer-wise sequential network — the execution model the paper assumes
/// ("forward propagation is a serialized, layer-wise computation process",
/// Section II-B).
///
/// `Sequential` itself implements [`Layer`], so whole networks compose (an
/// inception branch is a `Sequential` inside a [`Parallel`]).
#[derive(Debug, Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential {
            name: "net".to_owned(),
            layers: Vec::new(),
        }
    }

    /// Creates an empty, named network (used for inception branches).
    pub fn named(name: &str) -> Self {
        Sequential {
            name: name.to_owned(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs forward, invoking `probe(name, kind, output)` after every layer
    /// — the instrumentation hook behind the density traces of Fig. 4.
    pub fn forward_probed<F>(&mut self, input: &Tensor, mode: Mode, probe: &mut F) -> Tensor
    where
        F: FnMut(&str, LayerKind, &Tensor),
    {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
            probe(layer.name(), layer.kind(), &x);
        }
        x
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Composite
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        self.layers
            .iter()
            .fold(input, |s, layer| layer.output_shape(s))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<ParamRef<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }
}

/// Inception-style fan-out: runs every branch on the same input and
/// concatenates the branch outputs along the channel dimension (GoogLeNet's
/// inception module, the structural element of the deepest network in the
/// paper's evaluation).
#[derive(Debug)]
pub struct Parallel {
    name: String,
    branches: Vec<Sequential>,
    branch_channels: Vec<usize>,
    input_shape: Option<Shape4>,
}

impl Parallel {
    /// Creates a fan-out module from branches.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty.
    pub fn new(name: &str, branches: Vec<Sequential>) -> Self {
        assert!(
            !branches.is_empty(),
            "parallel module needs at least one branch"
        );
        Parallel {
            name: name.to_owned(),
            branches,
            branch_channels: Vec::new(),
            input_shape: None,
        }
    }
}

impl Layer for Parallel {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Composite
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        let shapes: Vec<Shape4> = self
            .branches
            .iter()
            .map(|b| b.output_shape(input))
            .collect();
        let first = shapes[0];
        for s in &shapes[1..] {
            assert!(
                s.n == first.n && s.h == first.h && s.w == first.w,
                "module {}: branch output shapes disagree spatially ({} vs {})",
                self.name,
                first,
                s
            );
        }
        Shape4::new(first.n, shapes.iter().map(|s| s.c).sum(), first.h, first.w)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out_shape = self.output_shape(input.shape());
        let mut outputs = Vec::with_capacity(self.branches.len());
        self.branch_channels.clear();
        for branch in &mut self.branches {
            let y = branch.forward(input, mode);
            self.branch_channels.push(y.shape().c);
            outputs.push(y);
        }
        self.input_shape = Some(input.shape());
        concat_channels(&outputs, out_shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input_shape = self.input_shape.expect("backward called before forward");
        let parts = split_channels(grad_out, &self.branch_channels);
        let mut dx = Tensor::zeros(input_shape, Layout::Nchw);
        for (branch, part) in self.branches.iter_mut().zip(parts) {
            let g = branch.backward(&part);
            for (a, b) in dx.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *a += b;
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<ParamRef<'_>> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }

    fn param_count(&self) -> usize {
        self.branches.iter().map(|b| b.param_count()).sum()
    }

    fn zero_grads(&mut self) {
        for b in &mut self.branches {
            b.zero_grads();
        }
    }
}

/// Concatenates NCHW tensors along `C`.
fn concat_channels(parts: &[Tensor], out_shape: Shape4) -> Tensor {
    let mut out = Tensor::zeros(out_shape, Layout::Nchw);
    let per_image_out = out_shape.per_image();
    {
        let os = out.as_mut_slice();
        for n in 0..out_shape.n {
            let mut c_off = 0usize;
            for p in parts {
                let ps = p.shape();
                let chunk = ps.per_image();
                let src = &p.as_slice()[n * chunk..(n + 1) * chunk];
                let dst_base = n * per_image_out + c_off * ps.plane();
                os[dst_base..dst_base + chunk].copy_from_slice(src);
                c_off += ps.c;
            }
        }
    }
    out
}

/// Splits an NCHW tensor along `C` into chunks of the given channel counts.
fn split_channels(t: &Tensor, channels: &[usize]) -> Vec<Tensor> {
    let s = t.shape();
    debug_assert_eq!(channels.iter().sum::<usize>(), s.c);
    let ts = t.as_slice();
    let mut outs = Vec::with_capacity(channels.len());
    let mut c_off = 0usize;
    for &c in channels {
        let shape = Shape4::new(s.n, c, s.h, s.w);
        let mut part = Tensor::zeros(shape, Layout::Nchw);
        {
            let plane = s.plane();
            let per_image_src = s.per_image();
            let chunk = c * plane;
            let ps = part.as_mut_slice();
            for n in 0..s.n {
                let src_base = n * per_image_src + c_off * plane;
                ps[n * chunk..(n + 1) * chunk].copy_from_slice(&ts[src_base..src_base + chunk]);
            }
        }
        outs.push(part);
        c_off += c;
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Relu};

    fn pattern_input() -> Tensor {
        Tensor::from_fn(Shape4::new(2, 3, 4, 4), Layout::Nchw, |n, c, h, w| {
            (n * 100 + c * 10 + h * 4 + w) as f32 * 0.1 - 2.0
        })
    }

    #[test]
    fn sequential_shapes_compose() {
        let mut net = Sequential::new();
        net.push(Conv2d::new("c0", 3, 8, 3, 1, 1, 0));
        net.push(Relu::new("r0"));
        net.push(Conv2d::new("c1", 8, 4, 3, 2, 0, 1));
        assert_eq!(
            net.output_shape(Shape4::new(2, 3, 8, 8)),
            Shape4::new(2, 4, 3, 3)
        );
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn probe_sees_every_layer() {
        let mut net = Sequential::new();
        net.push(Conv2d::new("c0", 3, 4, 3, 1, 1, 0));
        net.push(Relu::new("r0"));
        let mut seen = Vec::new();
        let _ = net.forward_probed(&pattern_input(), Mode::Train, &mut |name, kind, out| {
            seen.push((name.to_owned(), kind, out.shape()));
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, "c0");
        assert_eq!(seen[1].1, LayerKind::Activation);
    }

    #[test]
    fn sequential_backward_runs_in_reverse() {
        let mut net = Sequential::new();
        net.push(Conv2d::new("c0", 3, 4, 3, 1, 1, 3));
        net.push(Relu::new("r0"));
        let x = pattern_input();
        let y = net.forward(&x, Mode::Train);
        let g = Tensor::full(y.shape(), Layout::Nchw, 1.0);
        let dx = net.backward(&g);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn concat_and_split_are_inverse() {
        let a = Tensor::from_fn(Shape4::new(2, 2, 3, 3), Layout::Nchw, |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as f32
        });
        let b = Tensor::from_fn(Shape4::new(2, 3, 3, 3), Layout::Nchw, |n, c, h, w| {
            -((n * 1000 + c * 100 + h * 10 + w) as f32)
        });
        let cat = concat_channels(&[a.clone(), b.clone()], Shape4::new(2, 5, 3, 3));
        assert_eq!(cat.get(0, 0, 1, 2), a.get(0, 0, 1, 2));
        assert_eq!(cat.get(1, 3, 2, 0), b.get(1, 1, 2, 0));
        let parts = split_channels(&cat, &[2, 3]);
        assert_eq!(parts[0].as_slice(), a.as_slice());
        assert_eq!(parts[1].as_slice(), b.as_slice());
    }

    #[test]
    fn parallel_concatenates_branches() {
        let mut b1 = Sequential::named("b1");
        b1.push(Conv2d::new("b1c", 3, 4, 1, 1, 0, 0));
        let mut b2 = Sequential::named("b2");
        b2.push(Conv2d::new("b2c", 3, 6, 3, 1, 1, 1));
        let mut inception = Parallel::new("inc", vec![b1, b2]);
        let x = pattern_input();
        assert_eq!(inception.output_shape(x.shape()), Shape4::new(2, 10, 4, 4));
        let y = inception.forward(&x, Mode::Train);
        assert_eq!(y.shape(), Shape4::new(2, 10, 4, 4));
    }

    #[test]
    fn parallel_backward_sums_branch_gradients() {
        // Two identity 1x1-conv branches: dx must be the sum of both branch
        // gradients = 2x the upstream gradient slice sum.
        let make_identity = |name: &str| {
            let mut s = Sequential::named(name);
            let mut conv = Conv2d::new(&format!("{name}c"), 1, 1, 1, 1, 0, 0);
            conv.params_mut()[0].values[0] = 1.0;
            s.push(conv);
            s
        };
        let mut p = Parallel::new("p", vec![make_identity("a"), make_identity("b")]);
        let x = Tensor::full(Shape4::new(1, 1, 2, 2), Layout::Nchw, 3.0);
        let _ = p.forward(&x, Mode::Train);
        let g = Tensor::full(Shape4::new(1, 2, 2, 2), Layout::Nchw, 1.0);
        let dx = p.backward(&g);
        assert!(dx.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn parallel_param_count_sums_branches() {
        let mut b1 = Sequential::named("b1");
        b1.push(Conv2d::new("c", 2, 2, 1, 1, 0, 0)); // 2*2*1*1 + 2 = 6
        let mut b2 = Sequential::named("b2");
        b2.push(Conv2d::new("c", 2, 3, 1, 1, 0, 0)); // 3*2*1*1 + 3 = 9
        let p = Parallel::new("p", vec![b1, b2]);
        assert_eq!(p.param_count(), 15);
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_parallel_rejected() {
        let _ = Parallel::new("p", vec![]);
    }
}
