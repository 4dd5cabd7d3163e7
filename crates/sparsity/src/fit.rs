//! Fitting a [`DensityTrajectory`] to measured density samples.
//!
//! The paper's characterization works from measured per-layer densities
//! sampled every 2K iterations (Fig. 4 caption); this module closes the
//! loop in the other direction: given `(progress, density)` samples — e.g.
//! from a real `cdma-dnn` training run — recover the U-curve parameters, so
//! measured traces can drive the same traffic/performance pipeline as the
//! calibrated profiles.

use crate::DensityTrajectory;

/// Result of a trajectory fit.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryFit {
    /// The fitted trajectory.
    pub trajectory: DensityTrajectory,
    /// Root-mean-square error of the fit over the samples.
    pub rmse: f64,
}

/// Fits a U-curve to density samples by seeded grid refinement.
///
/// The seed takes `d_init`/`d_final` from the boundary samples and
/// `(t_min, d_min)` from the sample minimum, then a local grid search
/// refines all four parameters against squared error.
///
/// # Panics
///
/// Panics if fewer than 3 samples are given or any sample is out of range.
// pub: ROADMAP item 14
pub fn fit_trajectory(samples: &[(f64, f64)]) -> TrajectoryFit {
    assert!(
        samples.len() >= 3,
        "need at least 3 samples to fit a U-curve"
    );
    for &(t, d) in samples {
        assert!(
            (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&d),
            "sample ({t}, {d}) out of range"
        );
    }
    let mut sorted: Vec<(f64, f64)> = samples.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite progress"));

    let d_init0 = sorted.first().expect("non-empty").1;
    let d_final0 = sorted.last().expect("non-empty").1;
    let (t_min0, d_min0) = sorted
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite density"))
        .expect("non-empty");

    let mut best: Option<(f64, DensityTrajectory)> = None;
    // Coarse-to-fine grid around the seed.
    for &scale in &[0.3, 0.1, 0.03] {
        let centre = best
            .as_ref()
            .map(|(_, t)| *t)
            .unwrap_or_else(|| seed_trajectory(d_init0, d_min0, d_final0, t_min0));
        for di in grid(centre.initial(), scale) {
            for dm in grid(centre.minimum(), scale) {
                for df in grid(centre.final_density(), scale) {
                    for tm in grid_t(t_min_of(&centre), scale) {
                        let dm_ok = dm.min(di).min(df);
                        let cand = DensityTrajectory::new(di, dm_ok, df, tm);
                        let err = sse(&cand, &sorted);
                        if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                            best = Some((err, cand));
                        }
                    }
                }
            }
        }
    }
    let (err, trajectory) = best.expect("grid searched");
    TrajectoryFit {
        trajectory,
        rmse: (err / sorted.len() as f64).sqrt(),
    }
}

fn seed_trajectory(d_init: f64, d_min: f64, d_final: f64, t_min: f64) -> DensityTrajectory {
    let d_min = d_min.min(d_init).min(d_final);
    DensityTrajectory::new(
        d_init.clamp(0.0, 1.0),
        d_min.clamp(0.0, 1.0),
        d_final.clamp(0.0, 1.0),
        t_min.clamp(0.05, 0.95),
    )
}

fn t_min_of(t: &DensityTrajectory) -> f64 {
    // Recover t_min by scanning (the struct does not expose it directly).
    let mut best = (f64::INFINITY, 0.5);
    for i in 1..100 {
        let x = i as f64 / 100.0;
        let d = t.density_at(x);
        if d < best.0 {
            best = (d, x);
        }
    }
    best.1
}

fn grid(centre: f64, scale: f64) -> Vec<f64> {
    [-1.0, -0.5, 0.0, 0.5, 1.0]
        .iter()
        .map(|k| (centre + k * scale).clamp(0.001, 1.0))
        .collect()
}

fn grid_t(centre: f64, scale: f64) -> Vec<f64> {
    [-1.0, -0.5, 0.0, 0.5, 1.0]
        .iter()
        .map(|k| (centre + k * scale).clamp(0.05, 0.95))
        .collect()
}

fn sse(t: &DensityTrajectory, samples: &[(f64, f64)]) -> f64 {
    samples
        .iter()
        .map(|&(x, d)| (t.density_at(x) - d).powi(2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_synthetic_parameters() {
        let truth = DensityTrajectory::new(0.55, 0.18, 0.38, 0.35);
        let samples: Vec<(f64, f64)> = (0..=20)
            .map(|i| {
                let t = i as f64 / 20.0;
                (t, truth.density_at(t))
            })
            .collect();
        let fit = fit_trajectory(&samples);
        assert!(fit.rmse < 0.01, "rmse {}", fit.rmse);
        assert!((fit.trajectory.initial() - 0.55).abs() < 0.05);
        assert!((fit.trajectory.minimum() - 0.18).abs() < 0.05);
        assert!((fit.trajectory.final_density() - 0.38).abs() < 0.05);
    }

    #[test]
    fn tolerates_measurement_noise() {
        let truth = DensityTrajectory::new(0.5, 0.2, 0.4, 0.3);
        let mut state = 12345u64;
        let samples: Vec<(f64, f64)> = (0..=30)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = ((state >> 33) % 1000) as f64 / 1000.0 * 0.04 - 0.02;
                let t = i as f64 / 30.0;
                (t, (truth.density_at(t) + noise).clamp(0.0, 1.0))
            })
            .collect();
        let fit = fit_trajectory(&samples);
        assert!(fit.rmse < 0.04, "rmse {}", fit.rmse);
        assert!((fit.trajectory.minimum() - 0.2).abs() < 0.08);
    }

    #[test]
    fn flat_series_fits_flat() {
        let samples: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64 / 10.0, 0.5)).collect();
        let fit = fit_trajectory(&samples);
        assert!(fit.rmse < 0.02);
        assert!((fit.trajectory.mean_density() - 0.5).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "at least 3 samples")]
    fn too_few_samples_rejected() {
        let _ = fit_trajectory(&[(0.0, 0.5), (1.0, 0.4)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_sample_rejected() {
        let _ = fit_trajectory(&[(0.0, 0.5), (0.5, 1.2), (1.0, 0.4)]);
    }
}
