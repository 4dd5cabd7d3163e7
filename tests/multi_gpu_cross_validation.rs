//! Cross-validation of the event-driven multi-GPU cluster against an
//! independent from-scratch reimplementation of the analytic multi-GPU
//! formula.
//!
//! In the contention-free single-tenant case — `g` identical GPUs in
//! lock-step on one link — the fluid bandwidth-share arbitration must
//! reduce to the paper's static `PCIe / g` split, so the event-driven
//! simulation is pinned to the closed form within 1e-9 at g ∈ {1, 2, 4, 8}
//! for every zoo network and every compression algorithm.

use cdma::compress::Algorithm;
use cdma::gpusim::SystemConfig;
use cdma::models::{profiles, zoo, NetworkSpec};
use cdma::tensor::Layout;
use cdma::vdnn::cluster::{ClusterSim, GradientAllReduce, Tenant};
use cdma::vdnn::timeline::{LinkPolicy, UniformRatio};
use cdma::vdnn::{traffic, ComputeModel, CudnnVersion, RatioTable, StepBreakdown};

const GPU_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Independent reimplementation of the legacy analytic multi-GPU model,
/// written against the paper's arithmetic rather than any simulator API:
/// a per-GPU static link share of `pcie/g`, the effective-bandwidth
/// throttling formula, per-layer `max(compute, transfer)` stages with the
/// serial head prefetch, everything batch-scaled by `1/g`, and a ring
/// all-reduce of `2·(g−1)/g` weight images per GPU over its share.
fn analytic_multi_gpu(
    cfg: &SystemConfig,
    model: &ComputeModel,
    spec: &NetworkSpec,
    ratio: f64,
    gpus: usize,
) -> (StepBreakdown, f64) {
    let batch = spec.batch();
    let layers = spec.layers();
    let link = cfg.pcie_bw / gpus as f64;
    let comp = cfg
        .comp_bw
        .min((cfg.dram_bw - cfg.compute_dram_bw).max(0.0));
    // bytes move at `link × ratio`, capped by the engine read path; a
    // ratio below 1 (expansion) slows the wire proportionally.
    let eff = |r: f64| link * r.min(comp / link).max(1.0f64.min(r));
    let transfer = |i: usize| layers[i].activation_bytes(batch) as f64 / eff(ratio);

    let mut forward = 0.0;
    let mut forward_stall = 0.0;
    for (i, layer) in layers.iter().enumerate() {
        let c = model.forward_time(layer, batch);
        let offload = if i == 0 {
            (spec.input().per_image() * batch * 4) as f64 / eff(1.0)
        } else {
            transfer(i - 1)
        };
        forward += c.max(offload);
        forward_stall += (offload - c).max(0.0);
    }

    let mut backward = 0.0;
    let mut backward_stall = 0.0;
    if !layers.is_empty() {
        let head = transfer(layers.len().saturating_sub(2));
        backward += head;
        backward_stall += head;
        for (i, layer) in layers.iter().enumerate().rev() {
            let c = model.backward_time(layer, batch);
            let prefetch = if i >= 2 { transfer(i - 2) } else { 0.0 };
            backward += c.max(prefetch);
            backward_stall += (prefetch - c).max(0.0);
        }
    }

    let scale = 1.0 / gpus as f64;
    let step = StepBreakdown {
        forward: forward * scale,
        backward: backward * scale,
        forward_stall: forward_stall * scale,
        backward_stall: backward_stall * scale,
    };
    let allreduce = if gpus == 1 {
        0.0
    } else {
        let bytes = spec.weight_bytes() as f64 * 2.0 * (gpus as f64 - 1.0) / gpus as f64;
        bytes / link
    };
    (step, allreduce)
}

fn assert_close(x: f64, y: f64, what: &str) {
    let scale = x.abs().max(y.abs());
    let tol = 1e-9 * scale.max(1.0);
    assert!(
        (x - y).abs() <= tol,
        "{what}: {x} vs {y} (|Δ|={})",
        (x - y).abs()
    );
}

fn assert_matches(a: &StepBreakdown, b: &StepBreakdown, what: &str) {
    assert_close(a.forward, b.forward, &format!("{what} forward"));
    assert_close(a.backward, b.backward, &format!("{what} backward"));
    assert_close(a.forward_stall, b.forward_stall, &format!("{what} fstall"));
    assert_close(
        a.backward_stall,
        b.backward_stall,
        &format!("{what} bstall"),
    );
}

/// Per-algorithm uniform ratios, the way the experiment layer derives
/// them: each network's training-averaged compression under the measured
/// ratio table.
fn ratios_per_algorithm(spec: &NetworkSpec, table: &RatioTable) -> Vec<(Algorithm, f64)> {
    let profile = profiles::density_profile(spec);
    Algorithm::ALL
        .into_iter()
        .map(|alg| {
            let t = traffic::network_traffic(spec, &profile, alg, Layout::Nchw, table);
            (alg, t.avg_ratio())
        })
        .collect()
}

#[test]
fn cluster_matches_the_analytic_formula_for_every_net_and_algorithm() {
    let model = ComputeModel::titan_x(CudnnVersion::V5);
    let table = RatioTable::build_fast(42);
    // Both link generations: the closed form must hold whatever the wire.
    for cfg in [
        SystemConfig::titan_x_pcie3(),
        SystemConfig::titan_x_nvlink(),
    ] {
        for spec in zoo::all_networks() {
            let mut ratios = vec![
                // The uncompressed-vDNN endpoint and the paper's best case.
                ("vdnn".to_owned(), 1.0),
                ("max".to_owned(), 13.8),
            ];
            ratios.extend(
                ratios_per_algorithm(&spec, &table)
                    .into_iter()
                    .map(|(alg, ratio)| (format!("{alg:?}"), ratio)),
            );
            for (label, ratio) in ratios {
                let source = UniformRatio::uniform(&spec, ratio);
                for gpus in GPU_SWEEP {
                    let (step, allreduce) = analytic_multi_gpu(&cfg, &model, &spec, ratio, gpus);
                    let sim = ClusterSim::new(cfg, model, LinkPolicy::BandwidthShare);
                    let tl = sim.simulate(&[Tenant {
                        spec: &spec,
                        source: &source,
                        gpus,
                    }]);
                    let t = &tl.tenants()[0];
                    let what = format!(
                        "{}/{label}/r={ratio:.3}/g={gpus}/{:.0e}B/s",
                        spec.name(),
                        cfg.pcie_bw
                    );
                    assert_matches(&t.step, &step, &what);
                    assert_close(t.allreduce, allreduce, &format!("{what} allreduce"));
                    assert_close(t.total, step.total() + allreduce, &format!("{what} total"));
                    // Every GPU of the symmetric tenant sees the same step.
                    for g in tl.gpus() {
                        assert_matches(&g.breakdown, &step, &format!("{what} per-gpu"));
                    }
                }
            }
        }
    }
}

#[test]
fn allreduce_byte_accounting_is_integer_exact_for_the_whole_zoo() {
    // The checked constructor's unit guarantee: ring bytes are derived
    // from parameter counts at f32 with overflow-checked arithmetic and
    // always agree with NetworkSpec's own byte totals.
    for spec in zoo::all_networks() {
        for gpus in GPU_SWEEP {
            let ar = GradientAllReduce::ring(&spec, gpus);
            assert_eq!(ar.weight_bytes(), spec.weight_bytes());
            assert_eq!(ar.weight_bytes(), spec.total_params() * 4);
            assert_eq!(
                ar.total_wire_bytes(),
                spec.weight_bytes() * 2 * (gpus as u64 - 1)
            );
            let per_gpu = ar.per_gpu_wire_bytes() * gpus as f64;
            assert!((per_gpu - ar.total_wire_bytes() as f64).abs() < 1e-6);
        }
    }
}
