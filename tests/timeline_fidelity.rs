//! End-to-end fidelity loop: train a real network, offload its actual
//! per-layer activations through the cDMA engine, and drive the
//! event-driven training-step timeline with the resulting measured line
//! tables — alongside the analytic fidelity levels over the same spec.

use cdma::core::measured::capture_training_step;
use cdma::core::CdmaEngine;
use cdma::dnn::synthetic::SyntheticImages;
use cdma::dnn::{Sgd, Trainer};
use cdma::gpusim::SystemConfig;
use cdma::models::tiny::{tiny_alexnet, tiny_alexnet_spec, TINY_ALEXNET_PROBES};
use cdma::vdnn::timeline::{Resource, TimelineSim, UniformRatio};
use cdma::vdnn::{ComputeModel, CudnnVersion, TransferPolicy};

#[test]
fn real_training_activations_drive_the_measured_timeline() {
    let batch = 16;
    let classes = 4;
    let spec = tiny_alexnet_spec(classes, batch);
    let cfg = SystemConfig::titan_x_pcie3();
    let engine = CdmaEngine::zvc(cfg);
    let mut data = SyntheticImages::new(classes, 1, 16, 41);
    let mut trainer = Trainer::new(tiny_alexnet(classes, 17), Sgd::new(0.03, 0.9, 1e-4));

    // Train a little so the ReLU sparsity dynamics kick in, then capture
    // one genuine training step through the offload hook.
    for _ in 0..40 {
        let (x, y) = data.batch(batch);
        let _ = trainer.train_step(&x, &y);
    }
    let (x, y) = data.batch(batch);
    let cap = capture_training_step(&mut trainer, &engine, &x, &y, &spec, &TINY_ALEXNET_PROBES);
    assert!(cap.loss.is_finite());

    // The captured stream accounts for exactly the bytes vDNN would move.
    for (i, layer) in spec.layers().iter().enumerate() {
        let u: u64 = cap.stream.layer_lines(i).map(|(lu, _)| lu as u64).sum();
        assert_eq!(u, layer.activation_bytes(batch), "{}", layer.name);
    }
    // Real ReLU activations compress (the net is partially trained, so
    // some layer sits well below full density).
    assert!(
        cap.stream.total_compressed() < cap.stream.total_uncompressed(),
        "real activations should compress: {} vs {}",
        cap.stream.total_compressed(),
        cap.stream.total_uncompressed()
    );

    // Drive the timeline at all three conceptual levels over the same spec.
    let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
    let oracle = sim.simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
    let vdnn = sim.simulate(&spec, &UniformRatio::uniform(&spec, 1.0));
    let measured = sim.simulate(&spec, &cap.stream);

    assert_eq!(measured.fidelity(), "measured-stream");
    // The measured run exercises the DMA read path at line granularity.
    assert!(!measured.busy(Resource::DmaRead).is_empty());
    assert!(measured.events_processed() > vdnn.events_processed());

    // Compression ordering: oracle <= measured <= uncompressed vDNN.
    assert!(
        measured.total() <= vdnn.total() + 1e-12,
        "measured {} should not exceed uncompressed vDNN {}",
        measured.total(),
        vdnn.total()
    );
    assert!(measured.total() >= oracle.total() - 1e-12);

    // Stall accounting closes against pure compute.
    let compute = ComputeModel::titan_x(CudnnVersion::V5).step_compute_time(&spec);
    let stalls = measured.breakdown.forward_stall + measured.breakdown.backward_stall;
    assert!(((measured.total() - stalls) - compute).abs() / compute < 1e-9);
}

#[test]
fn measured_timeline_tracks_the_analytic_model_with_matched_ratios() {
    // When the analytic source is given the *measured* per-layer ratios,
    // the two fidelity levels should largely agree — the residual is the
    // DMA pipeline's latency/buffer behaviour that the analytic model
    // cannot see.
    let batch = 16;
    let classes = 4;
    let spec = tiny_alexnet_spec(classes, batch);
    let cfg = SystemConfig::titan_x_pcie3();
    let engine = CdmaEngine::zvc(cfg);
    let mut data = SyntheticImages::new(classes, 1, 16, 43);
    let mut trainer = Trainer::new(tiny_alexnet(classes, 19), Sgd::new(0.03, 0.9, 1e-4));
    for _ in 0..20 {
        let (x, y) = data.batch(batch);
        let _ = trainer.train_step(&x, &y);
    }
    let (x, y) = data.batch(batch);
    let cap = capture_training_step(&mut trainer, &engine, &x, &y, &spec, &TINY_ALEXNET_PROBES);

    let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
    let measured = sim.simulate(&spec, &cap.stream);
    let analytic = sim.simulate(
        &spec,
        &UniformRatio::new(&spec, TransferPolicy::OffloadAll(cap.layer_ratios.clone())),
    );
    let rel = (measured.total() - analytic.total()).abs() / analytic.total();
    assert!(
        rel < 0.25,
        "measured {} vs ratio-matched analytic {} (rel {rel})",
        measured.total(),
        analytic.total()
    );
}
