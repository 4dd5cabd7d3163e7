use cdma_tensor::Tensor;

use crate::{Layer, LayerKind, Mode, Sequential, Sgd, SoftmaxCrossEntropy};

/// One layer's density measurement at one training checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct DensitySample {
    /// Layer name.
    pub layer: String,
    /// Layer taxonomy bucket.
    pub kind: LayerKind,
    /// Output elements.
    pub elements: usize,
    /// Non-zero fraction of the layer output.
    pub density: f64,
}

/// Per-layer activation densities recorded over training — the raw data
/// behind Fig. 4 (and, run on a real net here, the genuine counterpart of
/// the paper's characterization).
#[derive(Debug, Clone, Default)]
pub struct DensityTrace {
    records: Vec<(f64, Vec<DensitySample>)>,
}

impl DensityTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        DensityTrace::default()
    }

    /// Appends a checkpoint at training progress `t` in `[0, 1]`.
    pub fn record(&mut self, progress: f64, samples: Vec<DensitySample>) {
        self.records.push((progress, samples));
    }

    /// Recorded checkpoints, in insertion order.
    pub fn checkpoints(&self) -> impl Iterator<Item = (f64, &[DensitySample])> {
        self.records.iter().map(|(t, s)| (*t, s.as_slice()))
    }

    /// Number of checkpoints.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no checkpoints were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Density history of one layer across checkpoints.
    // pub: ROADMAP item 14
    pub fn layer_history(&self, layer: &str) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .filter_map(|(t, samples)| {
                samples
                    .iter()
                    .find(|s| s.layer == layer)
                    .map(|s| (*t, s.density))
            })
            .collect()
    }

    /// Element-weighted network density at each checkpoint.
    // pub: ROADMAP item 14
    pub fn network_density(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .map(|(t, samples)| {
                let total: usize = samples.iter().map(|s| s.elements).sum();
                let nonzero: f64 = samples.iter().map(|s| s.density * s.elements as f64).sum();
                (
                    *t,
                    if total == 0 {
                        1.0
                    } else {
                        nonzero / total as f64
                    },
                )
            })
            .collect()
    }
}

/// Couples a [`Sequential`] network with its loss and optimizer and runs the
/// paper's three-step training pass (Fig. 1): forward propagation, loss
/// computation, backward propagation.
#[derive(Debug)]
pub struct Trainer {
    /// The network being trained.
    pub net: Sequential,
    /// Softmax cross-entropy loss.
    pub loss: SoftmaxCrossEntropy,
    /// The optimizer.
    pub sgd: Sgd,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(net: Sequential, sgd: Sgd) -> Self {
        Trainer {
            net,
            loss: SoftmaxCrossEntropy::new(),
            sgd,
        }
    }

    /// Runs one minibatch: forward, loss, backward, SGD step. Returns the
    /// minibatch loss.
    pub fn train_step(&mut self, images: &Tensor, labels: &[usize]) -> f64 {
        self.train_step_probed(images, labels, &mut |_, _, _| {})
    }

    /// Like [`Trainer::train_step`], but invokes `probe(name, kind,
    /// output)` on every layer output during the *training* forward pass —
    /// the offload hook: a cDMA engine attached here sees exactly the
    /// activation tensors vDNN would move to host memory during this step,
    /// so real compressed streams (rather than assumed ratios) can drive
    /// the transfer simulation.
    pub fn train_step_probed<F>(&mut self, images: &Tensor, labels: &[usize], probe: &mut F) -> f64
    where
        F: FnMut(&str, LayerKind, &Tensor),
    {
        self.net.zero_grads();
        let logits = self.net.forward_probed(images, Mode::Train, probe);
        let (loss, dlogits) = self.loss.loss_and_grad(&logits, labels);
        let _ = self.net.backward(&dlogits);
        self.sgd.step(self.net.params_mut());
        loss
    }

    /// Evaluates loss and top-1 accuracy without updating weights.
    pub fn evaluate(&mut self, images: &Tensor, labels: &[usize]) -> (f64, f64) {
        let logits = self.net.forward(images, Mode::Eval);
        let (loss, _) = self.loss.loss_and_grad(&logits, labels);
        let acc = self.loss.accuracy(&logits, labels);
        (loss, acc)
    }

    /// Measures per-layer output densities on `images` (eval mode, so
    /// dropout does not distort the measurement) — one Fig. 4 column.
    // pub: ROADMAP item 14
    pub fn measure_densities(&mut self, images: &Tensor) -> Vec<DensitySample> {
        let mut samples = Vec::new();
        let _ = self
            .net
            .forward_probed(images, Mode::Eval, &mut |name, kind, out| {
                samples.push(DensitySample {
                    layer: name.to_owned(),
                    kind,
                    elements: out.len(),
                    density: out.density(),
                });
            });
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, FullyConnected, Pool, PoolKind, Relu};
    use cdma_tensor::{Layout, Shape4};

    fn tiny_net(seed: u64) -> Sequential {
        let mut net = Sequential::new();
        net.push(Conv2d::new("conv0", 1, 4, 3, 1, 1, seed));
        net.push(Relu::new("relu0"));
        net.push(Pool::new("pool0", PoolKind::Max, 2, 2));
        net.push(FullyConnected::new("fc", 4 * 4 * 4, 3, seed + 1));
        net
    }

    #[test]
    fn train_step_reduces_loss_on_fixed_batch() {
        let mut trainer = Trainer::new(tiny_net(5), Sgd::new(0.05, 0.9, 0.0));
        let x = Tensor::from_fn(Shape4::new(6, 1, 8, 8), Layout::Nchw, |n, _, h, w| {
            // Three distinguishable patterns by label n % 3.
            match n % 3 {
                0 => ((h as f32) / 8.0) - 0.5,
                1 => ((w as f32) / 8.0) - 0.5,
                _ => (((h + w) % 2) as f32) - 0.5,
            }
        });
        let labels = vec![0, 1, 2, 0, 1, 2];
        let first = trainer.train_step(&x, &labels);
        let mut last = first;
        for _ in 0..60 {
            last = trainer.train_step(&x, &labels);
        }
        assert!(
            last < first * 0.5,
            "loss should halve on a memorizable batch: {first} -> {last}"
        );
        let (_, acc) = trainer.evaluate(&x, &labels);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn probed_train_step_matches_plain_step() {
        let x = Tensor::from_fn(Shape4::new(4, 1, 8, 8), Layout::Nchw, |n, _, h, w| {
            ((n + h * w) % 5) as f32 / 5.0 - 0.4
        });
        let labels = vec![0, 1, 2, 0];
        let mut plain = Trainer::new(tiny_net(11), Sgd::new(0.05, 0.9, 0.0));
        let mut probed = Trainer::new(tiny_net(11), Sgd::new(0.05, 0.9, 0.0));
        let mut seen = Vec::new();
        for step in 0..5 {
            let a = plain.train_step(&x, &labels);
            seen.clear();
            let b = probed.train_step_probed(&x, &labels, &mut |name, _, out| {
                seen.push((name.to_owned(), out.len()));
            });
            assert_eq!(a, b, "step {step} diverged");
        }
        // The probe saw every layer output of the training forward pass.
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0].0, "conv0");
        assert_eq!(seen[3].0, "fc");
    }

    #[test]
    fn densities_are_recorded_per_layer() {
        let mut trainer = Trainer::new(tiny_net(7), Sgd::new(0.01, 0.9, 0.0));
        let x = Tensor::full(Shape4::new(2, 1, 8, 8), Layout::Nchw, 0.5);
        let samples = trainer.measure_densities(&x);
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[1].layer, "relu0");
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.density)));
    }

    #[test]
    fn density_trace_layer_history() {
        let mut trace = DensityTrace::new();
        for (t, d) in [(0.0, 0.5), (0.5, 0.2), (1.0, 0.4)] {
            trace.record(
                t,
                vec![DensitySample {
                    layer: "relu0".into(),
                    kind: LayerKind::Activation,
                    elements: 100,
                    density: d,
                }],
            );
        }
        let hist = trace.layer_history("relu0");
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[1], (0.5, 0.2));
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert!(trace.layer_history("nope").is_empty());
    }

    #[test]
    fn network_density_is_weighted() {
        let mut trace = DensityTrace::new();
        trace.record(
            0.0,
            vec![
                DensitySample {
                    layer: "big".into(),
                    kind: LayerKind::Activation,
                    elements: 900,
                    density: 1.0,
                },
                DensitySample {
                    layer: "small".into(),
                    kind: LayerKind::Activation,
                    elements: 100,
                    density: 0.0,
                },
            ],
        );
        let nd = trace.network_density();
        assert_eq!(nd.len(), 1);
        assert!((nd[0].1 - 0.9).abs() < 1e-12);
    }
}
