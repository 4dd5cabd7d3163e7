//! Cross-validation of the event-driven timeline against the legacy
//! closed-form step arithmetic, plus seeded property loops over the
//! timeline's structural invariants.
//!
//! The closed-form per-layer `max(compute, offload)` formula (vDNN's
//! Fig. 2b model) is reproduced *independently* here and compared against
//! the timeline's `UniformRatio` level on every network in the zoo — the
//! acceptance bar is agreement within 1e-9 on every field of the
//! breakdown.

use cdma_gpusim::SystemConfig;
use cdma_models::{zoo, NetworkSpec};
use cdma_vdnn::timeline::{MeasuredStream, Resource, TimelineSim, UniformRatio};
use cdma_vdnn::{ComputeModel, CudnnVersion, StepBreakdown, TransferPolicy};

/// Independent reimplementation of the legacy closed-form step model
/// (verbatim the arithmetic shipped before the timeline refactor).
fn legacy_step_time(
    cfg: &SystemConfig,
    compute: &ComputeModel,
    spec: &NetworkSpec,
    policy: &TransferPolicy,
) -> StepBreakdown {
    let batch = spec.batch();
    let layers = spec.layers();
    let (offload_all, ratios): (bool, Option<&[f64]>) = match policy {
        TransferPolicy::Oracle => (true, None),
        TransferPolicy::OffloadAll(r) => (true, Some(r)),
        TransferPolicy::OffloadConv(r) => (false, Some(r)),
    };

    let transfer_time = |i: usize| -> f64 {
        let Some(r) = ratios else { return 0.0 };
        let layer = &layers[i];
        if !offload_all && !layer.is_conv() {
            return 0.0;
        }
        let bytes = layer.activation_bytes(batch) as f64;
        bytes / cfg.effective_offload_bw(r[i])
    };

    let mut forward = 0.0;
    let mut forward_stall = 0.0;
    for (i, layer) in layers.iter().enumerate() {
        let c = compute.forward_time(layer, batch);
        let offload = if i == 0 {
            if ratios.is_some() {
                let input_bytes = (spec.input().per_image() * batch * 4) as f64;
                input_bytes / cfg.effective_offload_bw(1.0)
            } else {
                0.0
            }
        } else {
            transfer_time(i - 1)
        };
        forward += c.max(offload);
        forward_stall += (offload - c).max(0.0);
    }

    let mut backward = 0.0;
    let mut backward_stall = 0.0;
    if !layers.is_empty() {
        let serial_head = transfer_time(layers.len().saturating_sub(2));
        backward += serial_head;
        backward_stall += serial_head;
        for (i, layer) in layers.iter().enumerate().rev() {
            let c = compute.backward_time(layer, batch);
            let prefetch = if i >= 2 { transfer_time(i - 2) } else { 0.0 };
            backward += c.max(prefetch);
            backward_stall += (prefetch - c).max(0.0);
        }
    }

    StepBreakdown {
        forward,
        backward,
        forward_stall,
        backward_stall,
    }
}

fn assert_matches(a: &StepBreakdown, b: &StepBreakdown, what: &str) {
    for (x, y, field) in [
        (a.forward, b.forward, "forward"),
        (a.backward, b.backward, "backward"),
        (a.forward_stall, b.forward_stall, "forward_stall"),
        (a.backward_stall, b.backward_stall, "backward_stall"),
    ] {
        assert!(
            (x - y).abs() <= 1e-9,
            "{what}: {field} diverged ({x} vs {y})"
        );
    }
}

/// Deterministic LCG for seeded property loops.
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) % 1_000_000) as f64 / 1_000_000.0
}

#[test]
fn uniform_ratio_matches_legacy_on_every_zoo_network() {
    let cfg = SystemConfig::titan_x_pcie3();
    for version in CudnnVersion::ALL {
        let model = ComputeModel::titan_x(version);
        let sim = TimelineSim::new(cfg, model);
        for spec in zoo::all_networks() {
            let policies = [
                TransferPolicy::Oracle,
                TransferPolicy::uniform(&spec, 1.0),
                TransferPolicy::uniform(&spec, 2.6),
                TransferPolicy::uniform(&spec, 1000.0),
                TransferPolicy::OffloadConv(vec![1.0; spec.layers().len()]),
            ];
            for policy in policies {
                let timeline = sim
                    .simulate(&spec, &UniformRatio::new(&spec, policy.clone()))
                    .breakdown;
                let legacy = legacy_step_time(&cfg, &model, &spec, &policy);
                assert_matches(
                    &timeline,
                    &legacy,
                    &format!("{} / {} / {:?}", spec.name(), version.label(), policy),
                );
            }
        }
    }
}

#[test]
fn seeded_per_layer_ratios_match_legacy() {
    let cfg = SystemConfig::titan_x_pcie3();
    let model = ComputeModel::titan_x(CudnnVersion::V5);
    let sim = TimelineSim::new(cfg, model);
    let mut seed = 0x5EED;
    for round in 0..25 {
        for spec in zoo::all_networks() {
            let ratios: Vec<f64> = spec
                .layers()
                .iter()
                .map(|_| 0.5 + 15.5 * lcg(&mut seed))
                .collect();
            for policy in [
                TransferPolicy::OffloadAll(ratios.clone()),
                TransferPolicy::OffloadConv(ratios.clone()),
            ] {
                let timeline = sim
                    .simulate(&spec, &UniformRatio::new(&spec, policy.clone()))
                    .breakdown;
                let legacy = legacy_step_time(&cfg, &model, &spec, &policy);
                assert_matches(
                    &timeline,
                    &legacy,
                    &format!("round {round} / {}", spec.name()),
                );
            }
        }
    }
}

/// Structural invariants of the timeline itself, across fidelity levels
/// and seeds: resources are never double-booked, and the stall accounting
/// closes exactly against pure compute time.
#[test]
fn seeded_timeline_invariants() {
    let cfg = SystemConfig::titan_x_pcie3();
    let model = ComputeModel::titan_x(CudnnVersion::V5);
    let sim = TimelineSim::new(cfg, model);
    let mut seed = 0xCAFE;
    for spec in zoo::all_networks() {
        let compute_total = model.step_compute_time(&spec);
        for round in 0..8 {
            // Alternate analytic per-layer ratios and synthetic measured
            // line tables.
            let tl = if round % 2 == 0 {
                let ratios: Vec<f64> = spec
                    .layers()
                    .iter()
                    .map(|_| 0.5 + 15.5 * lcg(&mut seed))
                    .collect();
                sim.simulate(
                    &spec,
                    &UniformRatio::new(&spec, TransferPolicy::OffloadAll(ratios)),
                )
            } else {
                let mut table_for = |bytes: u64| -> Vec<(u32, u32)> {
                    (0..bytes.div_ceil(4096))
                        .map(|_| (4096u32, 64 + (lcg(&mut seed) * 4032.0) as u32))
                        .collect()
                };
                let input_bytes = (spec.input().per_image() * spec.batch() * 4) as u64;
                // Cap the synthetic tables so the loop stays fast: scale
                // line counts down for the big networks.
                let scale = 64u64;
                let stream = MeasuredStream::new(
                    table_for(input_bytes / scale),
                    spec.layers()
                        .iter()
                        .map(|l| table_for(l.activation_bytes(spec.batch()) / scale))
                        .collect(),
                );
                sim.simulate(&spec, &stream)
            };

            // 1. No resource is ever busy with two things at once.
            for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
                let mut prev_end = f64::NEG_INFINITY;
                for &(s, e) in tl.busy(r) {
                    assert!(e > s, "{}: empty busy interval", spec.name());
                    assert!(
                        s >= prev_end - 1e-12,
                        "{}: {r:?} double-booked ({s} < {prev_end})",
                        spec.name()
                    );
                    prev_end = e;
                }
            }

            // 2. Stalls sum to total minus pure compute.
            let stalls = tl.breakdown.forward_stall + tl.breakdown.backward_stall;
            assert!(
                ((tl.total() - stalls) - compute_total).abs() / compute_total < 1e-9,
                "{}: stall accounting does not close ({} - {} != {})",
                spec.name(),
                tl.total(),
                stalls,
                compute_total
            );

            // 3. The event log is chronological and balanced.
            let mut prev = 0.0;
            for e in tl.events() {
                assert!(e.time >= prev, "{}: event log out of order", spec.name());
                prev = e.time;
            }
            assert_eq!(tl.events().len() % 2, 0, "start/end events pair up");

            // 4. Stage records tile the step.
            let last = tl.stages().last().expect("stages");
            assert!((last.end - tl.total()).abs() / tl.total() < 1e-9);
        }
    }
}
