//! # Measured transfer streams — real activations into the timeline
//!
//! The highest-fidelity level of the `cdma-vdnn` timeline wants *real*
//! per-window `(uncompressed, compressed)` line sizes, not assumed ratios.
//! This module produces [`MeasuredStream`]s two ways:
//!
//! * [`capture_training_step`] — the genuine article: runs one minibatch of
//!   a real `cdma-dnn` network through the [`Trainer`]'s offload hook,
//!   pushes every layer's actual output tensor through
//!   [`CdmaEngine::compress_lines_into`], and collects the resulting line
//!   tables. This is the software analogue of cDMA sitting on the offload
//!   path during training.
//! * [`synthesized_stream`] — the scalable stand-in for ImageNet-scale
//!   networks that cannot be trained here: per layer, one image's worth of
//!   clustered activations is generated at the layer's profiled density,
//!   compressed for real, and the per-image line table is repeated across
//!   the minibatch (stored once; activations are i.i.d. across images in the
//!   generator, so the replication preserves the line-size distribution;
//!   window boundaries reset per image rather than spanning the batch
//!   buffer).

use cdma_compress::windowed::WindowedStream;
use cdma_dnn::Trainer;
use cdma_models::profiles::NetworkProfile;
use cdma_models::NetworkSpec;
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4, Tensor};
use cdma_vdnn::timeline::MeasuredStream;

use crate::CdmaEngine;

/// The measured record of one real training step.
#[derive(Debug, Clone)]
pub struct StepCapture {
    /// The minibatch loss of the captured step.
    pub loss: f64,
    /// Per-layer line tables (plus the input's), ready for the timeline.
    pub stream: MeasuredStream,
    /// Measured per-layer compression ratios (uncompressed / wire bytes).
    pub layer_ratios: Vec<f64>,
}

/// Runs one real training step of `trainer`, offloading every probed layer
/// output (and the input minibatch) through `engine`, and returns the
/// captured stream. `probe_names[i]` names the `cdma-dnn` layer whose
/// output is spec layer `i`'s activation map (e.g.
/// [`cdma_models::tiny::TINY_ALEXNET_PROBES`]).
///
/// # Panics
///
/// Panics if `probe_names` does not match the spec's layer count, or if a
/// probed layer never fires during the forward pass.
pub fn capture_training_step(
    trainer: &mut Trainer,
    engine: &CdmaEngine,
    images: &Tensor,
    labels: &[usize],
    spec: &NetworkSpec,
    probe_names: &[&str],
) -> StepCapture {
    assert_eq!(
        probe_names.len(),
        spec.layers().len(),
        "one probe layer per spec layer required"
    );
    // One compressed-stream scratch for the whole step; each finished line
    // table is moved out of `lines`.
    let mut scratch = WindowedStream::default();
    let mut lines = Vec::new();
    engine.compress_lines_into(images.as_slice(), &mut scratch, &mut lines);
    let input = std::mem::take(&mut lines);

    let mut per_layer: Vec<Option<Vec<(u32, u32)>>> = vec![None; probe_names.len()];
    let mut ratios: Vec<f64> = vec![0.0; probe_names.len()];
    let loss = trainer.train_step_probed(images, labels, &mut |name, _, out| {
        if let Some(i) = probe_names.iter().position(|p| *p == name) {
            let stats = engine.compress_lines_into(out.as_slice(), &mut scratch, &mut lines);
            ratios[i] = stats.ratio();
            per_layer[i] = Some(std::mem::take(&mut lines));
        }
    });

    let layers = per_layer
        .into_iter()
        .enumerate()
        .map(|(i, lines)| {
            lines.unwrap_or_else(|| panic!("probe layer {} never fired", probe_names[i]))
        })
        .collect();
    StepCapture {
        loss,
        stream: MeasuredStream::new(input, layers),
        layer_ratios: ratios,
    }
}

/// Synthesizes a measured stream for an ImageNet-scale [`NetworkSpec`] at
/// training checkpoint `t`, with activations laid out NCHW (ZVC is
/// layout-insensitive; use [`synthesized_stream_with_layout`] when
/// sweeping layout-sensitive codecs): per layer, one image's clustered
/// activations at the profiled density are compressed through `engine`
/// and the per-image line table is replicated across the minibatch (see
/// the module docs for the fidelity caveat). The input is generated
/// dense.
///
/// # Panics
///
/// Panics if `profile` does not cover every layer of `spec`.
pub fn synthesized_stream(
    engine: &CdmaEngine,
    spec: &NetworkSpec,
    profile: &NetworkProfile,
    t: f64,
    seed: u64,
) -> MeasuredStream {
    synthesized_stream_with_layout(engine, spec, profile, Layout::Nchw, t, seed)
}

/// [`synthesized_stream`] with an explicit activation memory layout — the
/// layout the clustered activations are generated in, which is what
/// layout-sensitive codecs (RLE, zlib) see on the wire.
///
/// # Panics
///
/// Panics if `profile` does not cover every layer of `spec`.
pub fn synthesized_stream_with_layout(
    engine: &CdmaEngine,
    spec: &NetworkSpec,
    profile: &NetworkProfile,
    layout: Layout,
    t: f64,
    seed: u64,
) -> MeasuredStream {
    let mut gen = ActivationGen::seeded(seed);
    // One compressed-stream scratch buffer recycled across every layer of
    // the synthesis loop — the per-layer cost is the word-at-a-time ZVC
    // kernels, nothing else. Each per-image line table is stored once; the
    // stream repeats it across the minibatch.
    let mut scratch = WindowedStream::default();
    let mut per_image = |tensor: &Tensor| -> Vec<(u32, u32)> {
        let mut lines = Vec::new();
        engine.compress_lines_into(tensor.as_slice(), &mut scratch, &mut lines);
        lines
    };

    let input = per_image(&gen.generate(spec.input(), layout, 1.0));
    let layers = spec
        .layers()
        .iter()
        .map(|layer| {
            let density = profile
                .trajectory(&layer.name)
                .unwrap_or_else(|| panic!("profile missing layer {}", layer.name))
                .density_at(t);
            let shape = Shape4::new(1, layer.out.c, layer.out.h, layer.out.w);
            per_image(&gen.generate(shape, layout, density))
        })
        .collect();
    MeasuredStream::replicated(input, layers, spec.batch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_dnn::synthetic::SyntheticImages;
    use cdma_dnn::Sgd;
    use cdma_gpusim::SystemConfig;
    use cdma_models::{profiles, tiny, zoo};

    #[test]
    fn captured_stream_matches_spec_accounting() {
        let batch = 8;
        let spec = tiny::tiny_alexnet_spec(4, batch);
        let mut data = SyntheticImages::new(4, 1, 16, 5);
        let mut trainer = Trainer::new(tiny::tiny_alexnet(4, 9), Sgd::new(0.03, 0.9, 1e-4));
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let (x, y) = data.batch(batch);
        let cap = capture_training_step(
            &mut trainer,
            &engine,
            &x,
            &y,
            &spec,
            &tiny::TINY_ALEXNET_PROBES,
        );
        assert!(cap.loss.is_finite());
        assert_eq!(cap.stream.layer_count(), spec.layers().len());
        // The real net's activation byte counts equal the spec's.
        for (i, layer) in spec.layers().iter().enumerate() {
            let (u, c): (u64, u64) = cap
                .stream
                .layer_lines(i)
                .fold((0, 0), |(u, c), (lu, lc)| (u + lu as u64, c + lc as u64));
            assert_eq!(u, layer.activation_bytes(batch), "{}", layer.name);
            assert!(c > 0);
        }
        // ReLU outputs compress; every ratio is sane.
        assert!(cap.layer_ratios.iter().all(|&r| r > 0.5));
        assert!(
            cap.layer_ratios[..4].iter().any(|&r| r > 1.2),
            "some ReLU/pool layer should compress: {:?}",
            cap.layer_ratios
        );
    }

    #[test]
    fn synthesized_stream_covers_every_layer_and_scales_with_batch() {
        let spec = zoo::alexnet();
        let profile = profiles::density_profile(&spec);
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let stream = synthesized_stream(&engine, &spec, &profile, 0.5, 7);
        assert_eq!(stream.layer_count(), spec.layers().len());
        assert_eq!(
            stream.total_uncompressed(),
            spec.total_activation_bytes() + (spec.input().per_image() * spec.batch() * 4) as u64
        );
        assert!(stream.total_compressed() < stream.total_uncompressed());
    }
}
