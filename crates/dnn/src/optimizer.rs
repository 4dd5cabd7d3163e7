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

    /// Current learning rate.
    fn lr(&self) -> f64 {
        self.lr
    }

    /// Overrides the learning rate (used by the plateau schedule).
    fn set_lr(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        self.lr = lr;
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

/// Reduce-on-plateau learning-rate schedule, as in Section VI: "we manually
/// reduce the learning rate by a factor of 0.1 or 0.5 ... when the
/// validation error plateaus", terminating "when the validation accuracy
/// does not improve further beyond a learning rate smaller than 1e-5".
#[derive(Debug, Clone)]
pub struct PlateauSchedule {
    factor: f64,
    patience: usize,
    min_lr: f64,
    best: f64,
    since_best: usize,
}

impl PlateauSchedule {
    /// Creates a schedule that multiplies the lr by `factor` after
    /// `patience` observations without improvement, stopping below
    /// `min_lr`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is in `(0, 1)` and `patience > 0`.
    pub fn new(factor: f64, patience: usize, min_lr: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&factor) && factor > 0.0,
            "factor must be in (0, 1)"
        );
        assert!(patience > 0, "patience must be positive");
        PlateauSchedule {
            factor,
            patience,
            min_lr,
            best: f64::INFINITY,
            since_best: 0,
        }
    }

    /// Observes a validation loss (lower is better). Reduces the optimizer
    /// lr on plateau. Returns `true` when training should stop (lr has
    /// fallen below `min_lr`).
    pub fn observe(&mut self, validation_loss: f64, sgd: &mut Sgd) -> bool {
        if validation_loss < self.best - 1e-9 {
            self.best = validation_loss;
            self.since_best = 0;
            return false;
        }
        self.since_best += 1;
        if self.since_best >= self.patience {
            self.since_best = 0;
            let new_lr = sgd.lr() * self.factor;
            if new_lr < self.min_lr {
                return true;
            }
            sgd.set_lr(new_lr);
        }
        false
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
    fn plateau_schedule_reduces_then_stops() {
        let mut sgd = Sgd::new(0.01, 0.0, 0.0);
        let mut sched = PlateauSchedule::new(0.1, 2, 1e-5);
        assert!(!sched.observe(1.0, &mut sgd)); // improvement
        assert!(!sched.observe(1.0, &mut sgd)); // plateau 1
        assert!(!sched.observe(1.0, &mut sgd)); // plateau 2 -> reduce
        assert!((sgd.lr() - 1e-3).abs() < 1e-12);
        assert!(!sched.observe(1.0, &mut sgd));
        assert!(!sched.observe(1.0, &mut sgd)); // -> 1e-4
        assert!((sgd.lr() - 1e-4).abs() < 1e-12);
        assert!(!sched.observe(1.0, &mut sgd));
        assert!(!sched.observe(1.0, &mut sgd)); // -> 1e-5
        assert!(!sched.observe(1.0, &mut sgd));
        // Next reduction would go below min_lr: stop.
        assert!(sched.observe(1.0, &mut sgd));
    }

    #[test]
    fn improvement_resets_patience() {
        let mut sgd = Sgd::new(0.01, 0.0, 0.0);
        let mut sched = PlateauSchedule::new(0.5, 2, 1e-5);
        assert!(!sched.observe(1.0, &mut sgd));
        assert!(!sched.observe(1.0, &mut sgd)); // plateau 1
        assert!(!sched.observe(0.5, &mut sgd)); // improvement resets
        assert!(!sched.observe(0.5, &mut sgd)); // plateau 1
        assert!((sgd.lr() - 0.01).abs() < 1e-12, "no reduction yet");
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
