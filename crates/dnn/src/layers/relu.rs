use cdma_tensor::{Shape4, Tensor};

use crate::{Layer, LayerKind, Mode};

/// Rectified linear unit: `y = max(x, 0)`.
///
/// ReLU is the source of the activation sparsity the entire cDMA design
/// exploits (Section III: "such sparsity of activations \[is\] originated by
/// the extensive use of ReLU layers"). Roughly half the pre-activations of a
/// freshly-initialized layer are negative, so a new network starts near 50%
/// density — exactly what Fig. 4 shows for conv0.
#[derive(Debug)]
pub struct Relu {
    name: String,
    /// Mask of positive inputs from the last forward pass; its buffer is
    /// reused by the next.
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: &str) -> Self {
        Relu {
            name: name.to_owned(),
            mask: None,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Activation
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        input
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let xs = input.as_slice();
        let mut mask = self.mask.take().unwrap_or_default();
        mask.clear();
        mask.extend(xs.iter().map(|&v| v > 0.0));
        self.mask = Some(mask);
        let out = xs.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
        Tensor::from_vec(input.shape(), input.layout(), out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(
            mask.len(),
            grad_out.len(),
            "layer {}: gradient length mismatch",
            self.name
        );
        let mut dx = grad_out.clone();
        for (g, &keep) in dx.as_mut_slice().iter_mut().zip(mask) {
            *g = if keep { *g } else { 0.0 };
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_tensor::Layout;

    #[test]
    fn forward_thresholds_negatives() {
        let mut relu = Relu::new("r");
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 1, 4),
            Layout::Nchw,
            vec![-2.0, 0.0, 3.0, -0.5],
        );
        let y = relu.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut relu = Relu::new("r");
        let x = Tensor::from_vec(
            Shape4::new(1, 1, 1, 4),
            Layout::Nchw,
            vec![-2.0, 1.0, 3.0, -0.5],
        );
        let _ = relu.forward(&x, Mode::Train);
        let g = Tensor::from_vec(
            Shape4::new(1, 1, 1, 4),
            Layout::Nchw,
            vec![1.0, 1.0, 1.0, 1.0],
        );
        let dx = relu.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn symmetric_input_yields_half_density() {
        // The statistical root of the paper's "conv0 is always ~50% dense".
        let mut relu = Relu::new("r");
        let x = Tensor::from_fn(Shape4::new(1, 8, 16, 16), Layout::Nchw, |_, c, h, w| {
            // Zero-mean, symmetric pattern.
            (((c * 31 + h * 17 + w * 7) % 101) as f32) - 50.0
        });
        let y = relu.forward(&x, Mode::Train);
        let d = y.density();
        assert!((d - 0.5).abs() < 0.02, "density {d}");
    }

    /// The forward in bits: `-0.0` and `NaN` map to `+0.0`, `+inf` and a
    /// subnormal to themselves; the gradient is gated on `x > 0` and passes
    /// through in bits where it is open.
    #[test]
    fn edge_values_map_in_bits() {
        let sub = f32::from_bits(1);
        let xs = vec![
            -0.0,
            f32::NAN,
            f32::INFINITY,
            sub,
            -sub,
            f32::NEG_INFINITY,
            0.0,
            2.5,
        ];
        let shape = Shape4::new(1, 1, 1, xs.len());
        let mut relu = Relu::new("r");
        let y = relu.forward(&Tensor::from_vec(shape, Layout::Nchw, xs), Mode::Train);
        let want = [0.0, 0.0, f32::INFINITY, sub, 0.0, 0.0, 0.0, 2.5];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(y.as_slice()), bits(&want));
        let g = vec![1.0, 1.0, -0.0, f32::NAN, 1.0, 1.0, 1.0, -3.0];
        let dx = relu.backward(&Tensor::from_vec(shape, Layout::Nchw, g));
        let want = [0.0, 0.0, -0.0, f32::NAN, 0.0, 0.0, 0.0, -3.0];
        assert_eq!(bits(dx.as_slice()), bits(&want));
    }

    #[test]
    fn zero_input_gets_zero_gradient() {
        // Subgradient choice at x == 0 is 0, matching Caffe.
        let mut relu = Relu::new("r");
        let x = Tensor::zeros(Shape4::new(1, 1, 1, 2), Layout::Nchw);
        let _ = relu.forward(&x, Mode::Train);
        let g = Tensor::full(Shape4::new(1, 1, 1, 2), Layout::Nchw, 5.0);
        assert_eq!(relu.backward(&g).as_slice(), &[0.0, 0.0]);
    }
}
