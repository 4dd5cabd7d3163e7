//! GEMV-based RNN workloads — Section III's claimed extension domain.
//!
//! "We believe our proposal is equally applicable for some popular
//! recurrent neural networks that extensively employ sparsity-inducing
//! ReLU layers, including the GEMV-based RNNs employed by Baidu for speech
//! recognition ... cDMA is less well-suited for RNNs based on LSTMs or
//! GRUs, as they employ sigmoid and tanh activation functions."
//!
//! The paper cannot evaluate these (no public training data in 2017); we
//! model the workload structure: a Deep-Speech-style stack of ReLU
//! recurrent layers unrolled over `T` timesteps, each producing an
//! `(batch × hidden)` activation that must be stashed for backpropagation
//! through time — exactly the offload traffic pattern vDNN handles, with
//! per-layer trajectories from the fc-layer family.

use cdma_sparsity::DensityTrajectory;

use crate::{NetworkSpec, SpecBuilder};

/// Activation function family of an RNN spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RnnActivation {
    /// ReLU recurrence (Deep Speech 1/2) — sparse, cDMA-friendly.
    Relu,
    /// LSTM/GRU-style saturating gates — dense, cDMA-unfriendly.
    Saturating,
}

/// Builds a Deep-Speech-like unrolled RNN spec: `layers` stacked recurrent
/// layers over `timesteps` steps of `hidden`-wide state.
///
/// Each unrolled step is one GEMV-pair (input + recurrent matrices) modelled
/// as an Fc layer of `2·hidden²` MACs whose output activation is
/// `(batch, hidden, 1, 1)`. With `RnnActivation::Relu` outputs are marked
/// ReLU-sparse; with `RnnActivation::Saturating` they are dense.
pub fn rnn_spec(
    name: &'static str,
    layers: usize,
    timesteps: usize,
    hidden: usize,
    batch: usize,
    activation: RnnActivation,
) -> NetworkSpec {
    assert!(layers > 0 && timesteps > 0, "need at least one cell");
    let mut b = SpecBuilder::new(name, batch, (hidden, 1, 1));
    for l in 0..layers {
        for t in 0..timesteps {
            b.fc(
                &format!("l{l}_t{t}"),
                hidden,
                matches!(activation, RnnActivation::Relu),
            );
        }
    }
    b.build()
}

/// The density trajectory of one RNN activation: ReLU recurrences behave
/// like the paper's fc layers (sparse, U-curve); saturating ones are dense.
pub fn rnn_trajectory(activation: RnnActivation) -> DensityTrajectory {
    match activation {
        // Speech RNN hidden states are moderately sparse (less extreme
        // than CNN classifier layers, which only respond to a few classes).
        RnnActivation::Relu => DensityTrajectory::new(0.5, 0.15, 0.30, 0.3),
        RnnActivation::Saturating => DensityTrajectory::flat(1.0),
    }
}

/// Activation bytes stashed for backpropagation-through-time per training
/// step — the offload traffic of the RNN workload.
pub fn bptt_activation_bytes(spec: &NetworkSpec) -> u64 {
    spec.total_activation_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use cdma_tensor::Shape4;

    fn deep_speech_like(act: RnnActivation) -> NetworkSpec {
        // 5 recurrent layers, 50 timesteps, 1760-wide hidden state,
        // batch 64 — the Deep Speech 2 scale.
        rnn_spec("DeepSpeechRNN", 5, 50, 1760, 64, act)
    }

    #[test]
    fn unrolled_structure() {
        let spec = deep_speech_like(RnnActivation::Relu);
        assert_eq!(spec.layers().len(), 5 * 50);
        assert_eq!(spec.layers()[0].out, Shape4::fc(1, 1760));
        assert!(spec.layers().iter().all(|l| l.is_fc()));
    }

    #[test]
    fn bptt_traffic_is_substantial() {
        // 250 unrolled steps x 64 x 1760 x 4B ≈ 113 MB per training step —
        // worth offloading, worth compressing.
        let spec = deep_speech_like(RnnActivation::Relu);
        let bytes = bptt_activation_bytes(&spec);
        assert!(
            (100 << 20..150 << 20).contains(&(bytes as usize)),
            "{bytes}"
        );
    }

    #[test]
    fn relu_rnn_is_sparse_saturating_is_not() {
        let relu = rnn_trajectory(RnnActivation::Relu);
        let sat = rnn_trajectory(RnnActivation::Saturating);
        assert!(relu.mean_density() < 0.4);
        assert_eq!(sat.mean_density(), 1.0);
    }

    #[test]
    fn relu_rnn_layers_marked_sparse() {
        let relu_spec = deep_speech_like(RnnActivation::Relu);
        let sat_spec = deep_speech_like(RnnActivation::Saturating);
        assert!(relu_spec.layers().iter().all(|l| l.relu));
        assert!(sat_spec.layers().iter().all(|l| !l.relu));
    }

    #[test]
    fn generic_profile_machinery_accepts_rnn_specs() {
        // The CNN-calibrated profile builder also works on RNN specs (all
        // layers are fc-family): useful for reusing the traffic pipeline.
        let spec = deep_speech_like(RnnActivation::Relu);
        let profile = profiles::density_profile(&spec);
        assert_eq!(profile.layers().len(), spec.layers().len());
        let d = profile.mean_network_density();
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn gemv_flops_per_step() {
        let spec = rnn_spec("tiny", 1, 2, 4, 1, RnnActivation::Relu);
        // Each step: 2 * hidden * hidden FLOPs (one GEMV pair folded into
        // the fc model's 2*in*out).
        assert_eq!(spec.layers()[0].flops, 2 * 4 * 4);
    }
}
