use cdma_tensor::Shape4;

/// Pooling flavour in a network specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolFlavor {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// What kind of computation a [`LayerSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// Convolution (`kernel`, `stride`, `pad`). Composite conv blocks
    /// (inception/fire expands) also use this kind.
    Conv {
        /// Square kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Pooling.
    Pool {
        /// Max or average.
        flavor: PoolFlavor,
        /// Window extent.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Fully-connected layer.
    Fc,
    /// Local response normalization.
    Norm,
}

/// One layer of a network at the granularity the paper's evaluation uses.
///
/// `out` is the **per-image** output activation shape (`n = 1`); batch
/// scaling happens in [`NetworkSpec`]. `flops` counts forward
/// multiply-accumulates × 2 per image. `relu` marks outputs that pass
/// through a ReLU and therefore exhibit the sparsity of Section IV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Layer name (e.g. `"conv0"`, `"inception_3a"`).
    pub name: String,
    /// Computation kind.
    pub kind: SpecKind,
    /// Per-image output shape (`n` is always 1).
    pub out: Shape4,
    /// Forward FLOPs per image.
    pub flops: u64,
    /// Whether the output is ReLU-sparse.
    pub relu: bool,
    /// Trainable parameters (weights + biases) of this layer.
    pub params: u64,
}

impl LayerSpec {
    /// Output activation bytes for a batch of `batch` images.
    pub fn activation_bytes(&self, batch: usize) -> u64 {
        (self.out.per_image() * batch * 4) as u64
    }

    /// Output activation element count for a batch.
    pub fn activation_elems(&self, batch: usize) -> u64 {
        (self.out.per_image() * batch) as u64
    }

    /// Whether this is a convolution layer.
    pub fn is_conv(&self) -> bool {
        matches!(self.kind, SpecKind::Conv { .. })
    }

    /// Whether this is a pooling layer.
    pub fn is_pool(&self) -> bool {
        matches!(self.kind, SpecKind::Pool { .. })
    }

    /// Whether this is a fully-connected layer.
    pub fn is_fc(&self) -> bool {
        matches!(self.kind, SpecKind::Fc)
    }
}

/// A complete network specification: the per-image input shape, the layer
/// list, and the minibatch size the paper trains with (Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSpec {
    name: &'static str,
    batch: usize,
    input: Shape4,
    layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Network name as the paper spells it.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Minibatch size from Table I.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Per-image input shape.
    pub fn input(&self) -> Shape4 {
        self.input
    }

    /// The layers, in forward order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Total activation bytes of all layer outputs for one minibatch — the
    /// data vDNN offloads when configured for full memory-scalability
    /// ("vDNN is configured to offload all the layer's activation maps",
    /// Section VI).
    pub fn total_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.activation_bytes(self.batch))
            .sum()
    }

    /// Total trainable parameters of the network.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Bytes of weight storage (`f32` parameters) — batch-independent.
    pub fn weight_bytes(&self) -> u64 {
        self.total_params() * 4
    }

    /// A layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerSpec> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// Builder assembling a [`NetworkSpec`] layer by layer with the dimension
/// arithmetic of the frameworks the paper uses: convolutions round down
/// (cuDNN), pooling rounds up (Caffe's ceil mode) — this matters for
/// matching published activation shapes (e.g. NiN's 54 → 27 pooling).
#[derive(Debug)]
pub struct SpecBuilder {
    name: &'static str,
    batch: usize,
    input: Shape4,
    cur: Shape4,
    layers: Vec<LayerSpec>,
}

impl SpecBuilder {
    /// Starts a network with per-image input `(c, h, w)`.
    pub fn new(name: &'static str, batch: usize, input: (usize, usize, usize)) -> Self {
        let shape = Shape4::new(1, input.0, input.1, input.2);
        SpecBuilder {
            name,
            batch,
            input: shape,
            cur: shape,
            layers: Vec::new(),
        }
    }

    /// Current per-image shape (for assertions while building).
    pub fn current(&self) -> Shape4 {
        self.cur
    }

    /// Adds a convolution (+ optional fused ReLU).
    pub fn conv(
        &mut self,
        name: &str,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        relu: bool,
    ) -> &mut Self {
        let in_c = self.cur.c;
        let oh = conv_out(self.cur.h, kernel, stride, pad);
        let ow = conv_out(self.cur.w, kernel, stride, pad);
        let out = Shape4::new(1, out_c, oh, ow);
        let flops = 2 * (kernel * kernel * in_c * out_c * oh * ow) as u64;
        let params = (kernel * kernel * in_c * out_c + out_c) as u64;
        self.layers.push(LayerSpec {
            name: name.to_owned(),
            kind: SpecKind::Conv {
                kernel,
                stride,
                pad,
            },
            out,
            flops,
            relu,
            params,
        });
        self.cur = out;
        self
    }

    /// Adds a pooling layer (Caffe ceil-mode dimensions).
    pub fn pool(
        &mut self,
        name: &str,
        flavor: PoolFlavor,
        window: usize,
        stride: usize,
    ) -> &mut Self {
        let oh = pool_out(self.cur.h, window, stride);
        let ow = pool_out(self.cur.w, window, stride);
        let out = Shape4::new(1, self.cur.c, oh, ow);
        let flops = (window * window * self.cur.c * oh * ow) as u64;
        self.layers.push(LayerSpec {
            name: name.to_owned(),
            kind: SpecKind::Pool {
                flavor,
                window,
                stride,
            },
            out,
            flops,
            relu: false,
            params: 0,
        });
        self.cur = out;
        self
    }

    /// Adds a fully-connected layer (+ optional fused ReLU).
    pub fn fc(&mut self, name: &str, out_features: usize, relu: bool) -> &mut Self {
        let in_features = self.cur.per_image();
        let out = Shape4::fc(1, out_features);
        self.layers.push(LayerSpec {
            name: name.to_owned(),
            kind: SpecKind::Fc,
            out,
            flops: 2 * (in_features * out_features) as u64,
            relu,
            params: ((in_features + 1) * out_features) as u64,
        });
        self.cur = out;
        self
    }

    /// Adds a local response normalization (shape-preserving, dense).
    pub fn lrn(&mut self, name: &str) -> &mut Self {
        // ~10 ops per element (square, windowed sum, powf approximated).
        let flops = (10 * self.cur.per_image()) as u64;
        self.layers.push(LayerSpec {
            name: name.to_owned(),
            kind: SpecKind::Norm,
            out: self.cur,
            flops,
            relu: false,
            params: 0,
        });
        self
    }

    /// Adds a GoogLeNet inception module as two spec entries: the reduce
    /// stage (1×1 reductions + pool projection) and the expand stage (the
    /// concatenated module output).
    #[allow(clippy::too_many_arguments)]
    pub fn inception(
        &mut self,
        name: &str,
        c1x1: usize,
        c3x3_reduce: usize,
        c3x3: usize,
        c5x5_reduce: usize,
        c5x5: usize,
        pool_proj: usize,
    ) -> &mut Self {
        let (in_c, h, w) = (self.cur.c, self.cur.h, self.cur.w);
        let hw = (h * w) as u64;
        // Stage 1: the 1x1 reductions (3x3 reduce, 5x5 reduce) and the pool
        // projection, all ReLU'd 1x1 convs over the input.
        let reduce_c = c3x3_reduce + c5x5_reduce + pool_proj;
        let reduce_flops = 2 * (in_c * reduce_c) as u64 * hw;
        self.layers.push(LayerSpec {
            name: format!("{name}_red"),
            kind: SpecKind::Conv {
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            out: Shape4::new(1, reduce_c, h, w),
            flops: reduce_flops,
            relu: true,
            params: (in_c * reduce_c + reduce_c) as u64,
        });
        // Stage 2: the module output — concat of 1x1, 3x3, 5x5 and pool
        // projection branches.
        let out_c = c1x1 + c3x3 + c5x5 + pool_proj;
        let expand_flops = 2
            * ((in_c * c1x1) as u64
                + (9 * c3x3_reduce * c3x3) as u64
                + (25 * c5x5_reduce * c5x5) as u64)
            * hw;
        self.layers.push(LayerSpec {
            name: name.to_owned(),
            kind: SpecKind::Conv {
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            out: Shape4::new(1, out_c, h, w),
            flops: expand_flops,
            relu: true,
            params: (in_c * c1x1 + 9 * c3x3_reduce * c3x3 + 25 * c5x5_reduce * c5x5 + out_c) as u64,
        });
        self.cur = Shape4::new(1, out_c, h, w);
        self
    }

    /// Adds a SqueezeNet fire module as two spec entries: squeeze (1×1) and
    /// expand (1×1 + 3×3 concatenated).
    pub fn fire(&mut self, name: &str, squeeze: usize, e1x1: usize, e3x3: usize) -> &mut Self {
        let (in_c, h, w) = (self.cur.c, self.cur.h, self.cur.w);
        let hw = (h * w) as u64;
        self.layers.push(LayerSpec {
            name: format!("{name}_squeeze"),
            kind: SpecKind::Conv {
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            out: Shape4::new(1, squeeze, h, w),
            flops: 2 * (in_c * squeeze) as u64 * hw,
            relu: true,
            params: (in_c * squeeze + squeeze) as u64,
        });
        let out_c = e1x1 + e3x3;
        self.layers.push(LayerSpec {
            name: format!("{name}_expand"),
            kind: SpecKind::Conv {
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            out: Shape4::new(1, out_c, h, w),
            flops: 2 * ((squeeze * e1x1) as u64 + (9 * squeeze * e3x3) as u64) * hw,
            relu: true,
            params: (squeeze * e1x1 + 9 * squeeze * e3x3 + out_c) as u64,
        });
        self.cur = Shape4::new(1, out_c, h, w);
        self
    }

    /// Finishes the specification.
    pub fn build(self) -> NetworkSpec {
        assert!(!self.layers.is_empty(), "network must have layers");
        NetworkSpec {
            name: self.name,
            batch: self.batch,
            input: self.input,
            layers: self.layers,
        }
    }
}

/// Convolution output extent: floor rounding (cuDNN).
fn conv_out(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(
        input + 2 * pad >= kernel,
        "input {input} (+2*{pad}) smaller than kernel {kernel}"
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Pooling output extent: ceil rounding (Caffe's default), which is what
/// produces NiN's 54 → 27 and GoogLeNet's 112 → 56 transitions.
fn pool_out(input: usize, window: usize, stride: usize) -> usize {
    assert!(
        input >= window,
        "input {input} smaller than window {window}"
    );
    (input - window).div_ceil(stride) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_out_floor_and_pool_out_ceil() {
        assert_eq!(conv_out(227, 11, 4, 0), 55);
        assert_eq!(conv_out(224, 11, 4, 0), 54);
        assert_eq!(pool_out(54, 3, 2), 27); // ceil: would be 26 with floor
        assert_eq!(pool_out(55, 3, 2), 27);
        assert_eq!(pool_out(112, 3, 2), 56);
        assert_eq!(pool_out(14, 3, 2), 7);
    }

    #[test]
    fn builder_chains_shapes() {
        let mut b = SpecBuilder::new("toy", 32, (3, 32, 32));
        b.conv("c0", 16, 3, 1, 1, true)
            .pool("p0", PoolFlavor::Max, 2, 2)
            .fc("fc", 10, false);
        let spec = b.build();
        assert_eq!(spec.layers().len(), 3);
        assert_eq!(spec.layers()[0].out, Shape4::new(1, 16, 32, 32));
        assert_eq!(spec.layers()[1].out, Shape4::new(1, 16, 16, 16));
        assert_eq!(spec.layers()[2].out, Shape4::fc(1, 10));
    }

    #[test]
    fn flops_formulas() {
        let mut b = SpecBuilder::new("toy", 1, (3, 8, 8));
        b.conv("c0", 4, 3, 1, 1, true);
        let spec = b.build();
        // 2 * k*k*in*out*oh*ow = 2 * 9*3*4*8*8
        assert_eq!(spec.layers()[0].flops, 2 * 9 * 3 * 4 * 64);
        let minibatch: u64 =
            spec.layers().iter().map(|l| l.flops).sum::<u64>() * spec.batch() as u64;
        assert_eq!(minibatch, 2 * 9 * 3 * 4 * 64);
    }

    #[test]
    fn activation_accounting_scales_with_batch() {
        let mut b = SpecBuilder::new("toy", 8, (1, 4, 4));
        b.conv("c0", 2, 3, 1, 1, true);
        let spec = b.build();
        let l = &spec.layers()[0];
        assert_eq!(l.activation_elems(8), 2 * 4 * 4 * 8);
        assert_eq!(l.activation_bytes(8), 2 * 4 * 4 * 8 * 4);
        assert_eq!(spec.total_activation_bytes(), 2 * 4 * 4 * 8 * 4);
    }

    #[test]
    fn conv_only_accounting_filters() {
        let mut b = SpecBuilder::new("toy", 1, (1, 8, 8));
        b.conv("c0", 2, 3, 1, 1, true)
            .pool("p0", PoolFlavor::Max, 2, 2)
            .fc("fc", 10, false);
        let spec = b.build();
        // The `vDNN-conv` policy of the original vDNN paper: conv outputs only.
        let conv_bytes: u64 = spec
            .layers()
            .iter()
            .filter(|l| l.is_conv())
            .map(|l| l.activation_bytes(spec.batch()))
            .sum();
        assert!(conv_bytes < spec.total_activation_bytes());
        assert_eq!(conv_bytes, 2 * 8 * 8 * 4);
    }

    #[test]
    fn fire_module_shapes() {
        let mut b = SpecBuilder::new("toy", 1, (96, 55, 55));
        b.fire("fire2", 16, 64, 64);
        let spec = b.build();
        assert_eq!(spec.layers()[0].out, Shape4::new(1, 16, 55, 55));
        assert_eq!(spec.layers()[1].out, Shape4::new(1, 128, 55, 55));
    }

    #[test]
    fn inception_module_shapes() {
        let mut b = SpecBuilder::new("toy", 1, (192, 28, 28));
        b.inception("3a", 64, 96, 128, 16, 32, 32);
        let spec = b.build();
        // Reduce stage: 96 + 16 + 32 = 144 channels.
        assert_eq!(spec.layers()[0].out, Shape4::new(1, 144, 28, 28));
        // Output: 64 + 128 + 32 + 32 = 256 channels (GoogLeNet 3a).
        assert_eq!(spec.layers()[1].out, Shape4::new(1, 256, 28, 28));
    }

    #[test]
    fn layer_lookup_by_name() {
        let mut b = SpecBuilder::new("toy", 1, (1, 8, 8));
        b.conv("c0", 2, 3, 1, 1, true);
        let spec = b.build();
        assert!(spec.layer("c0").is_some());
        assert!(spec.layer("nope").is_none());
    }
}

#[cfg(test)]
mod param_tests {
    use crate::zoo;

    #[test]
    fn alexnet_parameter_count_matches_published() {
        // Single-tower AlexNet: ~62M parameters (Krizhevsky 2012 quotes
        // 60M for the two-tower original).
        let p = zoo::alexnet().total_params();
        assert!((58_000_000..66_000_000).contains(&p), "AlexNet params {p}");
    }

    #[test]
    fn vgg16_parameter_count_matches_published() {
        // VGG-16 is famously ~138M parameters.
        let p = zoo::vgg().total_params();
        assert!((135_000_000..141_000_000).contains(&p), "VGG params {p}");
    }

    #[test]
    fn squeezenet_is_tiny() {
        // "AlexNet-level accuracy with 50x fewer parameters": ~1.25M.
        let p = zoo::squeezenet().total_params();
        assert!((1_000_000..1_500_000).contains(&p), "SqueezeNet params {p}");
        assert!(zoo::alexnet().total_params() > 40 * p);
    }

    #[test]
    fn googlenet_parameter_count() {
        // GoogLeNet: ~7M (6.99M) parameters.
        let p = zoo::googlenet().total_params();
        assert!((6_000_000..8_000_000).contains(&p), "GoogLeNet params {p}");
    }

    #[test]
    fn weight_bytes_is_params_times_four() {
        let spec = zoo::nin();
        assert_eq!(spec.weight_bytes(), spec.total_params() * 4);
    }
}
