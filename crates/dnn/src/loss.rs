use cdma_tensor::{Layout, Tensor};

/// Fused softmax + cross-entropy loss over class logits.
///
/// This is the paper's "loss function ... defined to calculate the magnitude
/// of \[the\] error between classification and ground truth, deriving the
/// gradients of the loss function with respect to the final layer's output"
/// (Section II-B). The backward pass produces the `dY` that backpropagation
/// then pushes through the network right-to-left.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoftmaxCrossEntropy {
    _private: (),
}

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        SoftmaxCrossEntropy::default()
    }

    /// Computes mean cross-entropy loss and the gradient w.r.t. the logits.
    ///
    /// `logits` must be shaped `(N, classes, 1, 1)`; `labels[n]` is the
    /// ground-truth class of image `n`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a label is out of range.
    pub fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
        let s = logits.shape();
        assert_eq!(s.h * s.w, 1, "logits must be (N, classes, 1, 1), got {s}");
        assert_eq!(s.n, labels.len(), "one label per image required");
        let classes = s.c;
        let xs = logits.as_slice();
        let mut grad = Tensor::zeros(s, Layout::Nchw);
        let gs = grad.as_mut_slice();
        let mut total = 0f64;
        for (n, &label) in labels.iter().enumerate() {
            assert!(label < classes, "label {label} out of range 0..{classes}");
            let row = &xs[n * classes..(n + 1) * classes];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f64> = row.iter().map(|&v| ((v - max) as f64).exp()).collect();
            let sum: f64 = exps.iter().sum();
            let p_label = exps[label] / sum;
            total += -(p_label.max(1e-30)).ln();
            let grow = &mut gs[n * classes..(n + 1) * classes];
            for (c, g) in grow.iter_mut().enumerate() {
                let p = exps[c] / sum;
                *g = ((p - if c == label { 1.0 } else { 0.0 }) / labels.len() as f64) as f32;
            }
        }
        (total / labels.len() as f64, grad)
    }

    /// Fraction of images whose arg-max logit equals the label (top-1
    /// accuracy, the metric of the paper's Table I).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn accuracy(&self, logits: &Tensor, labels: &[usize]) -> f64 {
        let s = logits.shape();
        assert_eq!(s.n, labels.len(), "one label per image required");
        let classes = s.c;
        let xs = logits.as_slice();
        let mut correct = 0usize;
        for (n, &label) in labels.iter().enumerate() {
            let row = &xs[n * classes..(n + 1) * classes];
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty row");
            if argmax == label {
                correct += 1;
            }
        }
        correct as f64 / labels.len() as f64
    }
}

/// Convenience: uniform-logits loss is `ln(classes)`, the paper's Fig. 7
/// starting point (`ln(1000) ≈ 6.9` for ImageNet).
// pub: train_end_to_end.rs measures learning against it
pub fn chance_loss(classes: usize) -> f64 {
    (classes as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_tensor::Shape4;

    fn logits(vals: &[f32], classes: usize) -> Tensor {
        Tensor::from_vec(
            Shape4::fc(vals.len() / classes, classes),
            Layout::Nchw,
            vals.to_vec(),
        )
    }

    #[test]
    fn uniform_logits_give_chance_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let x = logits(&[0.0; 10], 10);
        let (l, _) = loss.loss_and_grad(&x, &[3]);
        assert!((l - chance_loss(10)).abs() < 1e-9);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let x = logits(&[10.0, 0.0, 0.0], 3);
        let (l, _) = loss.loss_and_grad(&x, &[0]);
        assert!(l < 1e-3, "loss {l}");
    }

    #[test]
    fn gradient_is_softmax_minus_onehot() {
        let loss = SoftmaxCrossEntropy::new();
        let x = logits(&[1.0, 2.0, 3.0], 3);
        let (_, g) = loss.loss_and_grad(&x, &[2]);
        let sum: f32 = g.as_slice().iter().sum();
        assert!(sum.abs() < 1e-6, "gradient rows sum to zero");
        // True-class gradient is negative, others positive.
        assert!(g.as_slice()[2] < 0.0);
        assert!(g.as_slice()[0] > 0.0 && g.as_slice()[1] > 0.0);
    }

    #[test]
    fn gradient_matches_numeric() {
        let loss = SoftmaxCrossEntropy::new();
        let vals = [0.3f32, -1.2, 0.7, 2.0, -0.5, 0.1];
        let x = logits(&vals, 3);
        let labels = [1usize, 0];
        let (_, g) = loss.loss_and_grad(&x, &labels);
        let eps = 1e-3f32;
        for i in 0..vals.len() {
            let mut plus = vals;
            plus[i] += eps;
            let mut minus = vals;
            minus[i] -= eps;
            let (lp, _) = loss.loss_and_grad(&logits(&plus, 3), &labels);
            let (lm, _) = loss.loss_and_grad(&logits(&minus, 3), &labels);
            let numeric = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (numeric - g.as_slice()[i] as f64).abs() < 1e-4,
                "idx {i}: numeric {numeric} vs {}",
                g.as_slice()[i]
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax() {
        let loss = SoftmaxCrossEntropy::new();
        let x = logits(&[1.0, 0.0, 0.0, 5.0, 0.0, 9.0], 3);
        assert_eq!(loss.accuracy(&x, &[0, 2]), 1.0);
        assert_eq!(loss.accuracy(&x, &[1, 1]), 0.0);
        assert_eq!(loss.accuracy(&x, &[0, 1]), 0.5);
    }

    #[test]
    fn numerically_stable_for_huge_logits() {
        let loss = SoftmaxCrossEntropy::new();
        let x = logits(&[1e4, -1e4, 0.0], 3);
        let (l, g) = loss.loss_and_grad(&x, &[0]);
        assert!(l.is_finite() && l < 1e-3);
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn bad_label_rejected() {
        let loss = SoftmaxCrossEntropy::new();
        let x = logits(&[0.0; 3], 3);
        let _ = loss.loss_and_grad(&x, &[5]);
    }
}
