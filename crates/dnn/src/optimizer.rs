use crate::ParamRef;

/// Stochastic gradient descent with momentum and weight decay — the paper's
/// training algorithm ("all networks are trained using stochastic gradient
/// descent with an initial learning rate of 0.01", Section VI).
#[derive(Debug)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
    /// Velocity buffers, one per parameter group, allocated lazily on the
    /// first step (parameter group order is stable across steps).
    velocities: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f64, momentum: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocities: Vec::new(),
        }
    }

    /// Applies one update step to the given parameter groups.
    ///
    /// # Panics
    ///
    /// Panics if the group structure changes between steps.
    pub fn step(&mut self, mut params: Vec<ParamRef<'_>>) {
        if self.velocities.is_empty() {
            self.velocities = params.iter().map(|p| vec![0f32; p.values.len()]).collect();
        }
        assert_eq!(
            self.velocities.len(),
            params.len(),
            "parameter group count changed between steps"
        );
        for (group, vel) in params.iter_mut().zip(&mut self.velocities) {
            assert_eq!(
                vel.len(),
                group.values.len(),
                "parameter group size changed between steps"
            );
            for ((w, g), v) in group
                .values
                .iter_mut()
                .zip(group.grads.iter())
                .zip(vel.iter_mut())
            {
                let grad = *g as f64 + self.weight_decay * *w as f64;
                *v = (self.momentum * *v as f64 - self.lr * grad) as f32;
                *w += *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param_group<'a>(w: &'a mut [f32], g: &'a mut [f32]) -> Vec<ParamRef<'a>> {
        vec![ParamRef {
            values: w,
            grads: g,
        }]
    }

    #[test]
    fn plain_sgd_descends_gradient() {
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        let mut w = vec![1.0f32];
        let mut g = vec![2.0f32];
        sgd.step(param_group(&mut w, &mut g));
        assert!((w[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut w = vec![0.0f32];
        let mut g = vec![1.0f32];
        sgd.step(param_group(&mut w, &mut g));
        let w1 = w[0]; // -0.1
        sgd.step(param_group(&mut w, &mut g));
        let delta2 = w[0] - w1; // -0.1 - 0.09 = -0.19
        assert!((w1 + 0.1).abs() < 1e-6);
        assert!((delta2 + 0.19).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut sgd = Sgd::new(0.1, 0.0, 0.5);
        let mut w = vec![1.0f32];
        let mut g = vec![0.0f32];
        sgd.step(param_group(&mut w, &mut g));
        assert!((w[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn converges_on_quadratic() {
        // min (w-3)^2, gradient 2(w-3).
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut w = vec![0.0f32];
        for _ in 0..200 {
            let mut g = vec![2.0 * (w[0] - 3.0)];
            sgd.step(param_group(&mut w, &mut g));
        }
        assert!((w[0] - 3.0).abs() < 1e-3, "w = {}", w[0]);
    }

    #[test]
    #[should_panic(expected = "group count changed")]
    fn changing_groups_rejected() {
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        let mut w = vec![1.0f32];
        let mut g = vec![1.0f32];
        sgd.step(param_group(&mut w, &mut g));
        sgd.step(Vec::new());
    }
}
