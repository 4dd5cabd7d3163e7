//! Golden tests: the scenario-driven experiment runners must reproduce
//! the legacy drivers' numbers **bit for bit**. Each legacy driver is
//! re-implemented here verbatim (the pre-refactor triple loops over
//! `zoo × Layout × Algorithm`), sharing only the `RatioTable`, and every
//! f64 is compared by bit pattern, as the report's cell holds it.

mod cells;

use cdma::compress::Algorithm;
use cdma::core::experiment;
use cdma::core::scenario::{Context, ScenarioFilter};
use cdma::gpusim::SystemConfig;
use cdma::models::{profiles, zoo};
use cdma::tensor::Layout;
use cdma::vdnn::{
    traffic, ComputeModel, CudnnVersion, RatioTable, TimelineSim, TransferPolicy, UniformRatio,
};

fn table() -> RatioTable {
    // Deterministic: two builds with the same seed are identical.
    RatioTable::build_fast(42)
}

fn ctx() -> Context {
    Context::with_table(table())
}

#[test]
fn fig11_matches_the_legacy_triple_loop_bit_for_bit() {
    // The legacy driver, verbatim.
    let t = table();
    let mut legacy = Vec::new();
    for spec in zoo::all_networks() {
        let profile = profiles::density_profile(&spec);
        for layout in Layout::ALL {
            for alg in Algorithm::ALL {
                let nt = traffic::network_traffic(&spec, &profile, alg, layout, &t);
                legacy.push((
                    spec.name().to_owned(),
                    layout,
                    alg,
                    nt.avg_ratio(),
                    nt.max_layer_ratio(),
                ));
            }
        }
    }

    let report = experiment::fig11(&ctx(), &ScenarioFilter::all());
    let rows = cells::records(&report.tables[0]);
    assert_eq!(rows.len(), legacy.len());
    for (row, (net, layout, alg, avg, max)) in rows.iter().zip(&legacy) {
        assert_eq!(row.str("network"), net);
        assert_eq!(row.str("layout"), layout.to_string());
        assert_eq!(row.str("algorithm"), alg.label());
        assert_eq!(
            row.num("avg_ratio").to_bits(),
            avg.to_bits(),
            "{net}/{layout}/{alg:?} avg: {} vs {avg}",
            row.num("avg_ratio")
        );
        assert_eq!(
            row.num("max_ratio").to_bits(),
            max.to_bits(),
            "{net}/{layout}/{alg:?} max: {} vs {max}",
            row.num("max_ratio")
        );
    }
}

#[test]
fn fig12_matches_the_legacy_driver_bit_for_bit() {
    let t = table();
    let mut legacy = Vec::new();
    for spec in zoo::all_networks() {
        let profile = profiles::density_profile(&spec);
        for alg in Algorithm::ALL {
            let nt = traffic::network_traffic(&spec, &profile, alg, Layout::Nchw, &t);
            legacy.push((spec.name().to_owned(), alg, nt.normalized_offload()));
        }
    }

    let report = experiment::fig12(&ctx(), &ScenarioFilter::all());
    let rows = cells::records(&report.tables[0]);
    assert_eq!(rows.len(), legacy.len());
    for (row, (net, alg, norm)) in rows.iter().zip(&legacy) {
        assert_eq!(row.str("network"), net);
        assert_eq!(row.str("algorithm"), alg.label());
        assert_eq!(
            row.num("normalized_offload").to_bits(),
            norm.to_bits(),
            "{net}/{alg:?}"
        );
    }
}

#[test]
fn fig13_matches_the_legacy_driver_bit_for_bit() {
    let cfg = SystemConfig::titan_x_pcie3();
    let t = table();
    let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
    // Each bar's config as Fig. 13 labels it: "vDNN", the algorithm, "orac".
    let mut legacy: Vec<(String, &str, f64)> = Vec::new();
    for spec in zoo::all_networks() {
        let profile = profiles::density_profile(&spec);
        legacy.push((
            spec.name().to_owned(),
            "vDNN",
            sim.normalized_performance(&spec, &UniformRatio::uniform(&spec, 1.0)),
        ));
        for alg in Algorithm::ALL {
            let nt = traffic::network_traffic(&spec, &profile, alg, Layout::Nchw, &t);
            let ratios = traffic::per_layer_ratios(&nt);
            legacy.push((
                spec.name().to_owned(),
                alg.label(),
                sim.normalized_performance(
                    &spec,
                    &UniformRatio::new(&spec, TransferPolicy::OffloadAll(ratios)),
                ),
            ));
        }
        legacy.push((spec.name().to_owned(), "orac", 1.0));
    }

    let report = experiment::fig13(&ctx(), &ScenarioFilter::all());
    let rows = cells::records(&report.tables[0]);
    assert_eq!(rows.len(), legacy.len());
    for (row, (net, config, perf)) in rows.iter().zip(&legacy) {
        assert_eq!(row.str("network"), net);
        assert_eq!(row.str("config"), *config);
        assert_eq!(
            row.num("performance").to_bits(),
            perf.to_bits(),
            "{net}/{config}: {} vs {perf}",
            row.num("performance")
        );
    }
}

#[test]
fn headline_matches_the_legacy_computation_bit_for_bit() {
    // The legacy headline, verbatim.
    let cfg = SystemConfig::titan_x_pcie3();
    let t = table();
    let nets = zoo::all_networks();
    let mut ratios = Vec::new();
    let mut max_ratio = 0f64;
    let mut improvements = Vec::new();
    let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
    for spec in &nets {
        let profile = profiles::density_profile(spec);
        let nt = traffic::network_traffic(spec, &profile, Algorithm::Zvc, Layout::Nchw, &t);
        ratios.push(nt.avg_ratio());
        max_ratio = max_ratio.max(nt.max_layer_ratio());
        let vdnn = sim.normalized_performance(spec, &UniformRatio::uniform(spec, 1.0));
        let cdma = sim.normalized_performance(
            spec,
            &UniformRatio::new(
                spec,
                TransferPolicy::OffloadAll(traffic::per_layer_ratios(&nt)),
            ),
        );
        improvements.push(cdma / vdnn - 1.0);
    }
    let avg_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let avg_improvement = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let max_improvement = improvements.iter().cloned().fold(0.0, f64::max);

    let h = experiment::headline(&ctx(), cfg);
    assert_eq!(h.avg_ratio.to_bits(), avg_ratio.to_bits());
    assert_eq!(h.max_ratio.to_bits(), max_ratio.to_bits());
    assert_eq!(h.avg_improvement.to_bits(), avg_improvement.to_bits());
    assert_eq!(h.max_improvement.to_bits(), max_improvement.to_bits());
}
