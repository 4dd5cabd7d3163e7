use cdma_tensor::{Shape4, Tensor};

/// Whether the network is training (dropout active, statistics updated) or
/// evaluating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training pass: stochastic layers (dropout) are active.
    Train,
    /// Inference pass: deterministic behaviour.
    Eval,
}

/// Coarse layer taxonomy matching Section II-A of the paper. Used by the
/// offload policies (vDNN can offload only CONV-layer inputs) and the
/// compute-time model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolutional layer.
    Conv,
    /// Activation layer (ReLU here).
    Activation,
    /// Pooling layer.
    Pool,
    /// Fully-connected / classifier layer.
    FullyConnected,
    /// Dropout.
    Dropout,
    /// Structural fan-out (inception module).
    Composite,
}

/// A mutable borrow of one parameter group (weights or biases) and its
/// gradient accumulator, handed to the optimizer.
#[derive(Debug)]
pub struct ParamRef<'a> {
    /// Parameter values, updated in place by the optimizer.
    pub values: &'a mut [f32],
    /// Gradient of the loss w.r.t. `values`, filled by `backward`.
    pub grads: &'a mut [f32],
}

/// A differentiable network layer.
///
/// Layers own their parameters and cache whatever they need from `forward`
/// to compute `backward`. The contract mirrors the layer-wise serialized
/// execution the paper describes (Section II-B): `backward` must be called
/// after `forward` with a gradient matching the forward output shape, and
/// returns the gradient w.r.t. the forward input.
pub trait Layer: std::fmt::Debug {
    /// Layer instance name (e.g. `"conv0"`), unique within a network.
    fn name(&self) -> &str;

    /// The layer taxonomy bucket.
    fn kind(&self) -> LayerKind;

    /// Output shape as a function of input shape.
    ///
    /// # Panics
    ///
    /// Implementations panic if the input shape is incompatible (wrong
    /// channel count, spatial extent smaller than the kernel, ...).
    fn output_shape(&self, input: Shape4) -> Shape4;

    /// Runs the layer forward, caching state for `backward`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates gradients; returns the gradient w.r.t. the last forward
    /// input. Parameter gradients accumulate into [`Layer::params_mut`]
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched gradient
    /// shape.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Parameter groups for the optimizer; empty for stateless layers.
    fn params_mut(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    /// Number of trainable scalars.
    fn param_count(&self) -> usize {
        0
    }

    /// Zeroes all gradient accumulators (called once per minibatch).
    fn zero_grads(&mut self) {}
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Numerical gradient checking shared by the layer test modules.

    use super::*;
    use cdma_tensor::Layout;

    /// Checks `d loss / d input` of `layer` against central differences,
    /// where the pseudo-loss is a fixed random projection of the output.
    pub(crate) fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f64) {
        let out = layer.forward(input, Mode::Train);
        // Pseudo-loss L = sum(w_i * y_i) with deterministic weights.
        let weights: Vec<f32> = (0..out.len())
            .map(|i| (((i * 2654435761) % 1000) as f32 / 1000.0) - 0.5)
            .collect();
        let grad_out = Tensor::from_vec(out.shape(), Layout::Nchw, weights.clone());
        let analytic = layer.backward(&grad_out);

        let eps = 1e-3f32;
        let slice = input.as_slice();
        // Probe a bounded number of coordinates to keep tests fast.
        let stride = (slice.len() / 64).max(1);
        for idx in (0..slice.len()).step_by(stride) {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let lp = loss_of(layer, &plus, &weights);
            let lm = loss_of(layer, &minus, &weights);
            let numeric = (lp - lm) / (2.0 * eps as f64);
            let got = analytic.as_slice()[idx] as f64;
            assert!(
                (numeric - got).abs() <= tol * (1.0 + numeric.abs().max(got.abs())),
                "input grad mismatch at {idx}: numeric {numeric}, analytic {got}"
            );
        }
    }

    /// Checks `d loss / d params` against central differences.
    pub(crate) fn check_param_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f64) {
        let out = layer.forward(input, Mode::Train);
        let weights: Vec<f32> = (0..out.len())
            .map(|i| (((i * 2654435761) % 1000) as f32 / 1000.0) - 0.5)
            .collect();
        let grad_out = Tensor::from_vec(out.shape(), Layout::Nchw, weights.clone());
        layer.zero_grads();
        let _ = layer.backward(&grad_out);
        // Snapshot analytic parameter gradients.
        let analytic: Vec<Vec<f32>> = layer
            .params_mut()
            .iter()
            .map(|p| p.grads.to_vec())
            .collect();

        let eps = 1e-3f32;
        for (gi, grads) in analytic.iter().enumerate() {
            let stride = (grads.len() / 32).max(1);
            for idx in (0..grads.len()).step_by(stride) {
                perturb(layer, gi, idx, eps);
                let lp = loss_of(layer, input, &weights);
                perturb(layer, gi, idx, -2.0 * eps);
                let lm = loss_of(layer, input, &weights);
                perturb(layer, gi, idx, eps);
                let numeric = (lp - lm) / (2.0 * eps as f64);
                let got = grads[idx] as f64;
                assert!(
                    (numeric - got).abs() <= tol * (1.0 + numeric.abs().max(got.abs())),
                    "param grad mismatch group {gi} idx {idx}: numeric {numeric}, analytic {got}"
                );
            }
        }
    }

    fn perturb(layer: &mut dyn Layer, group: usize, idx: usize, delta: f32) {
        let mut params = layer.params_mut();
        params[group].values[idx] += delta;
    }

    fn loss_of(layer: &mut dyn Layer, input: &Tensor, weights: &[f32]) -> f64 {
        let out = layer.forward(input, Mode::Train);
        out.as_slice()
            .iter()
            .zip(weights)
            .map(|(&y, &w)| y as f64 * w as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_and_kind_are_plain_enums() {
        assert_ne!(Mode::Train, Mode::Eval);
        assert_eq!(LayerKind::Conv, LayerKind::Conv);
        assert_ne!(LayerKind::Conv, LayerKind::Pool);
    }
}
