//! Cross-crate integration: the paper's headline results, end to end.
//!
//! Abstract of the paper: "The cDMA engine offers an average 2.6×
//! (maximum 13.8×) compression ratio by exploiting the sparsity inherent in
//! offloaded data, improving the performance of virtualized DNNs by an
//! average 32% (maximum 61%)."

mod cells;

use cdma::compress::Algorithm;
use cdma::core::experiment;
use cdma::core::scenario::{Context, ScenarioFilter};
use cdma::gpusim::SystemConfig;
use cdma::vdnn::RatioTable;

fn ctx() -> Context {
    Context::with_table(RatioTable::build_fast(42))
}

#[test]
fn abstract_numbers_reproduce_in_band() {
    let h = experiment::headline(&ctx(), SystemConfig::titan_x_pcie3());
    // Shape, not absolute identity: our substrate is a simulator.
    assert!(
        (2.0..3.2).contains(&h.avg_ratio),
        "avg ZVC ratio {:.2} (paper 2.6)",
        h.avg_ratio
    );
    assert!(
        (8.0..32.0).contains(&h.max_ratio),
        "max per-layer ratio {:.1} (paper 13.8)",
        h.max_ratio
    );
    assert!(
        (0.15..0.50).contains(&h.avg_improvement),
        "avg improvement {:.2} (paper 0.32)",
        h.avg_improvement
    );
    assert!(
        (0.30..1.00).contains(&h.max_improvement),
        "max improvement {:.2} (paper 0.61)",
        h.max_improvement
    );
}

#[test]
fn squeezenet_is_the_most_transfer_bound_network() {
    // Fig. 13's qualitative shape: SqueezeNet suffers most under vDNN and
    // gains most from cDMA; OverFeat (compute-heavy) is barely affected.
    let report = experiment::fig13(&ctx(), &ScenarioFilter::all());
    let rows = cells::records(&report.tables[0]);
    let vdnn_perf = |net: &str| {
        rows.iter()
            .find(|r| r.str("network") == net && r.str("config") == "vDNN")
            .map(|r| r.num("performance"))
            .expect("network present")
    };
    assert!(vdnn_perf("SqueezeNet") < vdnn_perf("GoogLeNet"));
    assert!(vdnn_perf("GoogLeNet") < vdnn_perf("AlexNet"));
    assert!(vdnn_perf("OverFeat") > 0.9);
}

#[test]
fn zlib_adds_almost_nothing_over_zvc() {
    // Section VII-B: "an average 0.7% speedup over ZVC (maximum 2.2%)" —
    // the key argument for choosing simple ZVC hardware.
    let report = experiment::fig13(&ctx(), &ScenarioFilter::all());
    let rows = cells::records(&report.tables[0]);
    let perf = |net: &str, alg: Algorithm| {
        rows.iter()
            .find(|r| r.str("network") == net && r.str("config") == alg.label())
            .map(|r| r.num("performance"))
            .expect("cell present")
    };
    let mut gains = Vec::new();
    for net in [
        "AlexNet",
        "OverFeat",
        "NiN",
        "VGG",
        "SqueezeNet",
        "GoogLeNet",
    ] {
        let zv = perf(net, Algorithm::Zvc);
        let zl = perf(net, Algorithm::Zlib);
        gains.push(zl / zv - 1.0);
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    assert!(
        avg.abs() < 0.03,
        "zlib's average speedup over ZVC should be marginal, got {avg:.3}"
    );
}

#[test]
fn fig12_average_traffic_reduction_matches() {
    // ZV cuts PCIe traffic to ~1/2.6 ≈ 0.38 of vDNN on average; zlib only
    // ~3% better overall (Section VII-A).
    let report = experiment::fig12(&ctx(), &ScenarioFilter::all());
    let rows = cells::records(&report.tables[0]);
    let avg = |alg: Algorithm| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.str("algorithm") == alg.label())
            .map(|r| r.num("normalized_offload"))
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let zv = avg(Algorithm::Zvc);
    let zl = avg(Algorithm::Zlib);
    assert!((0.30..0.50).contains(&zv), "ZV normalized traffic {zv:.3}");
    assert!(
        (zv - zl).abs() < 0.08,
        "zlib should only marginally beat ZVC: ZV {zv:.3} vs ZL {zl:.3}"
    );
}
