//! Cross-validation of the hierarchical fabric cluster against an
//! independent from-scratch analytic model of the symmetric case.
//!
//! With one tenant training in lock-step across `n` identical nodes of
//! `g` GPUs each, every flow is symmetric, so fluid max-min fair sharing
//! degenerates to a closed form: each GPU's offload/prefetch moves at
//!
//! ```text
//! rate = min(engine_cap, node_bw / g, spine_bw / (g·n))
//! ```
//!
//! — its compression-engine ceiling, its equal share of the node tier
//! (`g` flows per node), or its equal share of the spine (`g·n` flows
//! cross it), whichever binds — and the serialized ring all-reduce runs
//! alone on the spine at full `spine_bw`. The analytic model below is
//! built on that arithmetic only (no simulator APIs), and the event-driven
//! fabric simulation is pinned to it within 1e-9 across the zoo ×
//! algorithms × {1, 2, 4} nodes, on both spine-bound and node-bound
//! fabrics.
//!
//! A second test pins a *single-node* fabric — both tiers at PCIe
//! bandwidth, which the tier composition must collapse to one link —
//! **bit-identical** to the flat (fabric-free) `ClusterSim`, event log
//! included: the hierarchical path is a generalisation, not a
//! reimplementation, of the flat cluster.

use cdma::compress::Algorithm;
use cdma::gpusim::SystemConfig;
use cdma::models::{profiles, zoo, NetworkSpec};
use cdma::tensor::Layout;
use cdma::vdnn::cluster::{ClusterSim, Tenant};
use cdma::vdnn::fabric::FabricSpec;
use cdma::vdnn::timeline::{LinkPolicy, Resource, UniformRatio};
use cdma::vdnn::{traffic, ComputeModel, CudnnVersion, RatioTable, StepBreakdown};

/// Independent reimplementation of the symmetric hierarchical step: the
/// flat analytic multi-GPU model with its static `pcie/g` link share
/// replaced by the two-tier fluid share, and the ring all-reduce moved
/// to the spine. Full-batch times are computed per stage and scaled by
/// `1/(g·n)` exactly like the legacy analytic convention.
#[allow(clippy::too_many_arguments)]
fn analytic_fabric(
    cfg: &SystemConfig,
    model: &ComputeModel,
    spec: &NetworkSpec,
    ratio: f64,
    nodes: usize,
    gpus_per_node: usize,
    node_bw: f64,
    spine_bw: f64,
) -> (StepBreakdown, f64) {
    let gpus = nodes * gpus_per_node;
    let batch = spec.batch();
    let layers = spec.layers();
    // Equal fluid share of the bottleneck tier: g flows per node link,
    // g·n flows across the spine.
    let share = (node_bw / gpus_per_node as f64).min(spine_bw / gpus as f64);
    let comp = cfg
        .comp_bw
        .min((cfg.dram_bw - cfg.compute_dram_bw).max(0.0));
    // A payload compressed `r:1` puts `raw/r` bytes on the wire, moving
    // at the tier share capped by the engine read path (`comp/r` wire
    // bytes per second).
    let transfer_time = |raw: f64, r: f64| (raw / r) / share.min(comp / r);
    let transfer = |i: usize| transfer_time(layers[i].activation_bytes(batch) as f64, ratio);

    let mut forward = 0.0;
    let mut forward_stall = 0.0;
    for (i, layer) in layers.iter().enumerate() {
        let c = model.forward_time(layer, batch);
        let offload = if i == 0 {
            transfer_time((spec.input().per_image() * batch * 4) as f64, 1.0)
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
    // Serialized ring all-reduce: `2·(g−1)` weight images of wire bytes
    // in total, alone on the spine (the gradient stream bypasses the
    // node tiers).
    let allreduce = if gpus == 1 {
        0.0
    } else {
        spec.weight_bytes() as f64 * 2.0 * (gpus as f64 - 1.0) / spine_bw
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
fn fabric_matches_the_analytic_formula_for_every_net_and_algorithm() {
    let cfg = SystemConfig::titan_x_pcie3();
    let model = ComputeModel::titan_x(CudnnVersion::V5);
    let table = RatioTable::build_fast(42);
    let gpus_per_node = 2;
    for spec in zoo::all_networks() {
        for (alg, ratio) in ratios_per_algorithm(&spec, &table) {
            // Also pin the uncompressed-vDNN endpoint (ratio 1).
            for ratio in [1.0, ratio] {
                let source = UniformRatio::uniform(&spec, ratio);
                for nodes in [1usize, 2, 4] {
                    let node_bw = cfg.pcie_bw;
                    // A spine-bound (2:1 oversubscribed) and a
                    // node-bound (2× overprovisioned) fabric exercise
                    // both arms of the min().
                    for spine_bw in [node_bw * nodes as f64 / 2.0, node_bw * nodes as f64 * 2.0] {
                        let (step, allreduce) = analytic_fabric(
                            &cfg,
                            &model,
                            &spec,
                            ratio,
                            nodes,
                            gpus_per_node,
                            node_bw,
                            spine_bw,
                        );
                        let fabric = FabricSpec::new(nodes, gpus_per_node, node_bw, spine_bw);
                        let gpus = nodes * gpus_per_node;
                        let tl = ClusterSim::new(cfg, model, LinkPolicy::BandwidthShare)
                            .with_fabric(fabric)
                            .simulate(&[Tenant {
                                spec: &spec,
                                source: &source,
                                gpus,
                            }]);
                        let t = &tl.tenants()[0];
                        let what = format!(
                            "{}/{:?}/r={ratio:.3}/n={nodes}×{gpus_per_node}/spine={spine_bw:.1}",
                            spec.name(),
                            alg
                        );
                        assert_matches(&t.step, &step, &what);
                        assert_close(t.allreduce, allreduce, &format!("{what} allreduce"));
                        assert_close(t.total, step.total() + allreduce, &format!("{what} total"));
                        // Every GPU of the symmetric tenant sees the
                        // same step.
                        for g in tl.gpus() {
                            assert_matches(&g.breakdown, &step, &format!("{what} per-gpu"));
                        }
                    }
                }
            }
        }
    }
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

#[test]
fn single_node_fabric_is_bit_identical_to_the_flat_cluster() {
    // One node holding every GPU, both tiers at PCIe bandwidth: the tier
    // composition must collapse to exactly the flat shared link —
    // breakdowns, event logs, stage records, busy intervals, aggregate
    // wire accounting, all by bit pattern.
    let cfg = SystemConfig::titan_x_pcie3();
    let model = ComputeModel::titan_x(CudnnVersion::V5);
    for spec in [zoo::alexnet(), zoo::squeezenet()] {
        for ratio in [1.0, 2.6] {
            let source = UniformRatio::uniform(&spec, ratio);
            for gpus in [2usize, 4, 8] {
                let tenants = [Tenant {
                    spec: &spec,
                    source: &source,
                    gpus,
                }];
                let flat =
                    ClusterSim::new(cfg, model, LinkPolicy::BandwidthShare).simulate(&tenants);
                let fabric = FabricSpec::new(1, gpus, cfg.pcie_bw, cfg.pcie_bw);
                let hier = ClusterSim::new(cfg, model, LinkPolicy::BandwidthShare)
                    .with_fabric(fabric)
                    .simulate(&tenants);
                let what = format!("{}/r={ratio}/g={gpus}", spec.name());

                assert_eq!(flat.gpus().len(), hier.gpus().len(), "{what} gpu count");
                for (i, (f, h)) in flat.gpus().iter().zip(hier.gpus()).enumerate() {
                    let what = format!("{what} gpu{i}");
                    for (x, y, name) in [
                        (f.breakdown.forward, h.breakdown.forward, "forward"),
                        (f.breakdown.backward, h.breakdown.backward, "backward"),
                        (
                            f.breakdown.forward_stall,
                            h.breakdown.forward_stall,
                            "fstall",
                        ),
                        (
                            f.breakdown.backward_stall,
                            h.breakdown.backward_stall,
                            "bstall",
                        ),
                    ] {
                        assert_bits(x, y, &format!("{what} {name}"));
                    }
                    // The event log, entry by entry.
                    assert_eq!(f.events().len(), h.events().len(), "{what} event count");
                    for (j, (fe, he)) in f.events().iter().zip(h.events()).enumerate() {
                        assert_bits(fe.time, he.time, &format!("{what} event {j} time"));
                        assert_eq!(fe.kind, he.kind, "{what} event {j} kind");
                    }
                    assert_eq!(f.stages().len(), h.stages().len(), "{what} stages");
                    for (j, (fs, hs)) in f.stages().iter().zip(h.stages()).enumerate() {
                        assert_bits(fs.start, hs.start, &format!("{what} stage {j} start"));
                        assert_bits(fs.end, hs.end, &format!("{what} stage {j} end"));
                    }
                    for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
                        assert_eq!(f.busy(r), h.busy(r), "{what} {r:?} intervals");
                    }
                }

                for (f, h) in flat.tenants().iter().zip(hier.tenants()) {
                    assert_bits(f.step.forward, h.step.forward, &format!("{what} t fwd"));
                    assert_bits(f.allreduce, h.allreduce, &format!("{what} t allreduce"));
                    assert_bits(f.total, h.total, &format!("{what} t total"));
                }
                assert_bits(
                    flat.makespan(),
                    hier.makespan(),
                    &format!("{what} makespan"),
                );
                // The spine's busy profile is the flat link's (every
                // flow crosses it); the one node tier sees everything
                // except the gradient stream, which is spine-only.
                assert_eq!(flat.link_busy(), hier.link_busy(), "{what} spine busy");
                assert_eq!(hier.node_busy().len(), 1, "{what} node tiers");
                let ar = hier.tenants()[0]
                    .allreduce_span
                    .expect("multi-GPU tenants all-reduce");
                let node_expected: Vec<(f64, f64)> = flat
                    .link_busy()
                    .iter()
                    .copied()
                    .filter(|&(s, e)| e <= ar.0 || s >= ar.1)
                    .collect();
                assert_eq!(node_expected, hier.node_busy()[0], "{what} node busy");
            }
        }
    }
}
