//! The paper-grid experiments: compression ratios (Fig. 11), offload
//! traffic (Fig. 12), end-to-end performance (Fig. 13), the cuDNN sweep
//! (Fig. 3), and the headline aggregates — all driven by
//! [`ScenarioSet::paper_grid`] instead of per-driver triple loops.

use cdma_compress::Algorithm;
use cdma_gpusim::SystemConfig;
use cdma_tensor::Layout;
use cdma_vdnn::{traffic, ComputeModel, CudnnVersion, TimelineSim, TransferPolicy, UniformRatio};

use super::compute_model;
use crate::report::{Cell, ReportData, Table};
use crate::scenario::{Context, ScenarioFilter, ScenarioSet};

/// The codecs reported in Fig. 11's companion table but absent from the
/// paper's own grid.
const FIG11_EXTENSION_ALGS: [Algorithm; 2] = [Algorithm::Huff, Algorithm::Adaptive];

/// Generates Fig. 11 over the (possibly filtered) paper grid: per network
/// × layout × algorithm, the byte-weighted average and per-layer maximum
/// compression ratio. The extension-codec rows (HF, AD) over the same
/// network × layout cells go into a separate table, never mixed into the
/// paper grid.
pub fn fig11(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let set = ScenarioSet::paper_grid().filtered(filter);
    let cols = ["network", "layout", "algorithm", "avg_ratio", "max_ratio"];
    let row = |t: &mut Table, network: &str, layout: Layout, algorithm: Algorithm| {
        let traffic = ctx.traffic(network, algorithm, layout);
        let (avg, max) = (traffic.avg_ratio(), traffic.max_layer_ratio());
        t.row([
            network.into(),
            layout.to_string().into(),
            algorithm.label().into(),
            Cell::Num(avg),
            Cell::Num(max),
        ]);
        (avg, max)
    };
    let mut grid = Table::new("compression ratios", &cols);
    let mut zv = Vec::new();
    for s in set.scenarios() {
        let ratios = row(&mut grid, &s.network, s.layout, s.algorithm);
        if s.layout == Layout::Nchw && s.algorithm == Algorithm::Zvc {
            zv.push(ratios);
        }
    }
    // One extension-codec row per distinct (network, layout) cell the
    // filter's non-algorithm axes admit. The cells are derived from the
    // *unfiltered* grid with the algorithm swapped to an extension codec,
    // so `--filter alg=hf,ad` still produces extension rows even though
    // no paper-grid scenario carries those codecs.
    let algs: Vec<Algorithm> = FIG11_EXTENSION_ALGS
        .into_iter()
        .filter(|a| filter.matches_algorithm(*a))
        .collect();
    let mut cells: Vec<(String, Layout)> = Vec::new();
    if let Some(&probe_alg) = algs.first() {
        for s in ScenarioSet::paper_grid().scenarios() {
            let mut probe = s.clone();
            probe.algorithm = probe_alg;
            let cell = (s.network.clone(), s.layout);
            if filter.matches(&probe) && !cells.contains(&cell) {
                cells.push(cell);
            }
        }
    }
    let mut tables = vec![grid];
    if !cells.is_empty() {
        let mut extended = Table::new("extension codecs (HF, AD)", &cols);
        for (network, layout) in &cells {
            for &alg in &algs {
                row(&mut extended, network, *layout, alg);
            }
        }
        tables.push(extended);
    }
    let mut notes = Vec::new();
    if !zv.is_empty() {
        let avg = zv.iter().map(|r| r.0).sum::<f64>() / zv.len() as f64;
        let max = zv.iter().map(|r| r.1).fold(0.0, f64::max);
        notes.push(format!(
            "ZV (NCHW): average network ratio {avg:.2}x (paper 2.6x), max per-layer {max:.1}x (paper 13.8x)"
        ));
    }
    ReportData {
        name: "fig11",
        title: "Figure 11: avg (network) and max (layer) compression ratios".to_owned(),
        tables,
        notes,
        ..ReportData::default()
    }
}

/// Generates Fig. 12 (NCHW layout, as the paper's results section uses):
/// offloaded bytes per network × algorithm, normalized to uncompressed
/// vDNN.
pub fn fig12(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let set = ScenarioSet::paper_grid()
        .filtered(filter)
        .filtered(&ScenarioFilter::all().layout(Layout::Nchw));
    let mut t = Table::new(
        "normalized offload",
        &["network", "algorithm", "normalized_offload"],
    );
    let mut by_alg: Vec<(Algorithm, f64)> = Vec::new();
    for s in set.scenarios() {
        let normalized = ctx
            .traffic(&s.network, s.algorithm, s.layout)
            .normalized_offload();
        t.row([
            s.network.as_str().into(),
            s.algorithm.label().into(),
            Cell::Num(normalized),
        ]);
        by_alg.push((s.algorithm, normalized));
    }
    let avg = |alg: Algorithm| -> Option<f64> {
        let v: Vec<f64> = by_alg.iter().filter(|r| r.0 == alg).map(|r| r.1).collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    let notes = match (
        avg(Algorithm::Rle),
        avg(Algorithm::Zvc),
        avg(Algorithm::Zlib),
    ) {
        (Some(rl), Some(zv), Some(zl)) => vec![
            format!("average normalized offload: RL {rl:.2}, ZV {zv:.2}, ZL {zl:.2}"),
            format!(
                "zlib's extra reduction over ZVC: {:.1}% (paper: ~3% average)",
                (zv - zl) / zv * 100.0
            ),
        ],
        _ => Vec::new(),
    };
    ReportData {
        name: "fig12",
        title: "Figure 12: offload size normalized to vDNN (lower is better)".to_owned(),
        tables: vec![t],
        notes,
        ..ReportData::default()
    }
}

/// Generates Fig. 13 on the paper grid's NCHW cells with cuDNN v5
/// compute: per network, performance normalized to the oracle (1.0 = no
/// overhead) of the vDNN baseline ("vDNN"), one cDMA bar per algorithm
/// cell (its label) and the oracle ("orac").
pub fn fig13(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let set = ScenarioSet::paper_grid()
        .filtered(filter)
        .filtered(&ScenarioFilter::all().layout(Layout::Nchw));
    let mut t = Table::new(
        "normalized performance",
        &["network", "config", "performance"],
    );
    let mut improvements = Vec::new();
    let mut zl_gains = Vec::new();
    for network in set.networks() {
        let spec = ctx.spec(&network);
        let cells: Vec<_> = set
            .scenarios()
            .iter()
            .filter(|s| s.network == network)
            .collect();
        let cfg = cells[0].config;
        let sim = TimelineSim::new(cfg, compute_model());
        let vdnn = sim.normalized_performance(&spec, &UniformRatio::uniform(&spec, 1.0));
        t.row([network.as_str().into(), "vDNN".into(), Cell::Num(vdnn)]);
        let (mut zv, mut zl) = (None, None);
        for s in cells {
            let traffic = ctx.traffic(&s.network, s.algorithm, s.layout);
            let ratios = traffic::per_layer_ratios(&traffic);
            let performance = sim.normalized_performance(
                &spec,
                &UniformRatio::new(&spec, TransferPolicy::OffloadAll(ratios)),
            );
            t.row([
                network.as_str().into(),
                s.algorithm.label().into(),
                Cell::Num(performance),
            ]);
            match s.algorithm {
                Algorithm::Zvc => zv = Some(performance),
                Algorithm::Zlib => zl = Some(performance),
                _ => {}
            }
        }
        t.row([network.as_str().into(), "orac".into(), Cell::Num(1.0)]);
        if let Some(zv) = zv {
            improvements.push(zv / vdnn - 1.0);
            if let Some(zl) = zl {
                zl_gains.push(zl / zv - 1.0);
            }
        }
    }
    let mut notes = Vec::new();
    if !improvements.is_empty() {
        let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
        let max = improvements.iter().cloned().fold(0.0, f64::max);
        notes.push(format!(
            "cDMA-ZV improvement over vDNN: average {:.1}% (paper 32%), maximum {:.1}% (paper 61%)",
            avg * 100.0,
            max * 100.0
        ));
    }
    if !zl_gains.is_empty() {
        let avg = zl_gains.iter().sum::<f64>() / zl_gains.len() as f64;
        let max = zl_gains.iter().cloned().fold(f64::MIN, f64::max);
        notes.push(format!(
            "zlib speedup over ZVC: average {:.1}% (paper 0.7%), max {:.1}% (paper 2.2%)",
            avg * 100.0,
            max * 100.0
        ));
    }
    ReportData {
        name: "fig13",
        title: "Figure 13: performance normalized to oracle (higher is better)".to_owned(),
        tables: vec![t],
        notes,
        ..ReportData::default()
    }
}

/// Generates both panels of Fig. 3: per network and cuDNN version, the
/// compute speedup over v1 (panel a) and vDNN performance normalized to
/// the same-version oracle (panel b).
pub fn fig03(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let cfg = SystemConfig::titan_x_pcie3();
    let mut t = Table::new(
        "per-version compute and vDNN performance",
        &["network", "cudnn", "speedup_vs_v1", "vdnn_performance"],
    );
    let mut v5 = Vec::new();
    for network in ScenarioSet::builder().build().filtered(filter).networks() {
        let spec = ctx.spec(&network);
        let t1 = ComputeModel::titan_x(CudnnVersion::V1).step_compute_time(&spec);
        for v in CudnnVersion::ALL {
            let model = ComputeModel::titan_x(v);
            let sim = TimelineSim::new(cfg, model);
            let speedup = t1 / model.step_compute_time(&spec);
            let performance = sim.normalized_performance(&spec, &UniformRatio::uniform(&spec, 1.0));
            t.row([
                network.as_str().into(),
                format!("{v:?}").into(),
                Cell::Num(speedup),
                Cell::Num(performance),
            ]);
            if v == CudnnVersion::V5 {
                v5.push((speedup, performance));
            }
        }
    }
    let mut notes = Vec::new();
    if !v5.is_empty() {
        let avg_speedup = v5.iter().map(|r| r.0).sum::<f64>() / v5.len() as f64;
        let avg_loss = 1.0 - v5.iter().map(|r| r.1).sum::<f64>() / v5.len() as f64;
        let worst_loss = 1.0 - v5.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        notes = vec![
            format!("average v5 speedup over v1: {avg_speedup:.2}x (paper: 2.2x)"),
            format!(
                "v5 vDNN loss: average {:.1}% (paper 31%), worst {:.1}% (paper 52%)",
                avg_loss * 100.0,
                worst_loss * 100.0
            ),
        ];
    }
    ReportData {
        name: "fig03",
        title: "Figure 3: cuDNN compute speedups (a) and vDNN degradation (b)".to_owned(),
        tables: vec![t],
        notes,
        ..ReportData::default()
    }
}

/// The paper's headline results, computed end-to-end.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Average ZVC compression ratio across networks (paper: 2.6×).
    pub avg_ratio: f64,
    /// Maximum per-layer ratio (paper: 13.8×).
    pub max_ratio: f64,
    /// Average cDMA-ZV performance improvement over vDNN (paper: 32%).
    pub avg_improvement: f64,
    /// Maximum improvement (paper: 61%).
    pub max_improvement: f64,
}

/// Computes the headline numbers (abstract / Section VII) on platform
/// `cfg`. Traffic comes from the context's memoized table, so ablation
/// sweeps that vary only the platform reuse every compression result.
pub fn headline(ctx: &Context, cfg: SystemConfig) -> Headline {
    let mut ratios = Vec::new();
    let mut max_ratio = 0f64;
    let mut improvements = Vec::new();
    let sim = TimelineSim::new(cfg, compute_model());
    for spec in ctx.specs() {
        let t = ctx.traffic(spec.name(), Algorithm::Zvc, Layout::Nchw);
        ratios.push(t.avg_ratio());
        max_ratio = max_ratio.max(t.max_layer_ratio());
        let vdnn = sim.normalized_performance(spec, &UniformRatio::uniform(spec, 1.0));
        let cdma = sim.normalized_performance(
            spec,
            &UniformRatio::new(
                spec,
                TransferPolicy::OffloadAll(traffic::per_layer_ratios(&t)),
            ),
        );
        improvements.push(cdma / vdnn - 1.0);
    }
    Headline {
        avg_ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
        max_ratio,
        avg_improvement: improvements.iter().sum::<f64>() / improvements.len() as f64,
        max_improvement: improvements.iter().cloned().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_vdnn::RatioTable;

    fn ctx() -> Context {
        Context::with_table(RatioTable::build_fast(11))
    }

    #[test]
    fn fig11_has_all_cells() {
        let report = fig11(&ctx(), &ScenarioFilter::all());
        let rows = report.tables[0].records();
        assert_eq!(rows.len(), 6 * 3 * 3);
        assert!(rows
            .iter()
            .all(|r| r.num("avg_ratio") > 0.5 && r.num("max_ratio") >= r.num("avg_ratio")));
    }

    #[test]
    fn fig11_zvc_layout_insensitivity() {
        let report = fig11(&ctx(), &ScenarioFilter::all());
        let rows = report.tables[0].records();
        for net in ["AlexNet", "VGG"] {
            let zv: Vec<_> = rows
                .iter()
                .filter(|r| r.str("network") == net && r.str("algorithm") == "ZV")
                .collect();
            let base = zv[0].num("avg_ratio");
            for r in &zv {
                assert!(
                    (r.num("avg_ratio") - base).abs() / base < 0.05,
                    "{net} {}: {} vs {}",
                    r.str("layout"),
                    r.num("avg_ratio"),
                    base
                );
            }
        }
    }

    #[test]
    fn fig11_extension_rows_cover_every_cell() {
        let report = fig11(&ctx(), &ScenarioFilter::all());
        let rows = report.table("compression ratios").records();
        let extended = report.table("extension codecs (HF, AD)").records();
        // 6 networks x 3 layouts x 2 extension codecs.
        assert_eq!(extended.len(), 6 * 3 * 2);
        for r in &extended {
            let alg = r.str("algorithm");
            assert!(alg == "HF" || alg == "AD", "{alg:?}");
            assert!(r.num("avg_ratio") > 0.5 && r.num("max_ratio") >= r.num("avg_ratio"));
        }
        // The adaptive picker stays competitive with the paper's best
        // single codec on every cell.
        for ext in extended.iter().filter(|r| r.str("algorithm") == "AD") {
            let best = rows
                .iter()
                .filter(|r| {
                    r.str("network") == ext.str("network") && r.str("layout") == ext.str("layout")
                })
                .map(|r| r.num("avg_ratio"))
                .fold(f64::MIN, f64::max);
            assert!(
                ext.num("avg_ratio") > 0.9 * best,
                "{} {}: adaptive {} vs best {}",
                ext.str("network"),
                ext.str("layout"),
                ext.num("avg_ratio"),
                best
            );
        }
        // An algorithm filter that excludes the extensions drops the
        // companion table without touching the paper rows.
        let f = ScenarioFilter::all().algorithm(Algorithm::Zvc);
        let report = fig11(&ctx(), &f);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows().len(), 6 * 3);
        // The converse — extensions only — keeps the companion table even
        // though no paper-grid scenario survives the filter.
        let f = ScenarioFilter::all()
            .network("AlexNet")
            .algorithm(Algorithm::Adaptive);
        let report = fig11(&ctx(), &f);
        assert!(report.table("compression ratios").rows().is_empty());
        let extended = report.table("extension codecs (HF, AD)").records();
        assert_eq!(extended.len(), 3); // 3 layouts x 1 codec
        assert!(extended
            .iter()
            .all(|r| r.str("algorithm") == "AD" && r.str("network") == "AlexNet"));
    }

    #[test]
    fn fig11_respects_the_filter() {
        let filter = ScenarioFilter::all()
            .network("AlexNet")
            .layout(Layout::Nchw);
        let report = fig11(&ctx(), &filter);
        let rows = report.tables[0].records();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.str("network") == "AlexNet"));
    }

    #[test]
    fn fig12_zv_reduces_traffic_everywhere() {
        let report = fig12(&ctx(), &ScenarioFilter::all());
        let rows = report.tables[0].records();
        assert_eq!(rows.len(), 6 * 3);
        for r in rows.iter().filter(|r| r.str("algorithm") == "ZV") {
            assert!(
                r.num("normalized_offload") < 0.75,
                "{}: normalized {}",
                r.str("network"),
                r.num("normalized_offload")
            );
        }
    }

    #[test]
    fn fig13_ordering_vdnn_cdma_oracle() {
        let report = fig13(&ctx(), &ScenarioFilter::all());
        let rows = report.tables[0].records();
        for net in ["AlexNet", "SqueezeNet", "GoogLeNet"] {
            let get = |c: &str| {
                rows.iter()
                    .find(|r| r.str("network") == net && r.str("config") == c)
                    .map(|r| r.num("performance"))
                    .unwrap()
            };
            let vdnn = get("vDNN");
            let zv = get("ZV");
            assert!(vdnn <= zv, "{net}: vDNN {vdnn} vs ZV {zv}");
            assert!(zv <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn fig03_speedups_and_degradation() {
        let report = fig03(&ctx(), &ScenarioFilter::all());
        let rows = report.tables[0].records();
        assert_eq!(rows.len(), 6 * 5);
        for r in &rows {
            assert!(r.num("speedup_vs_v1") >= 1.0 - 1e-9);
            assert!(r.num("vdnn_performance") <= 1.0 + 1e-9);
        }
        // v5 speedup ~2.2x on average.
        let v5: Vec<f64> = rows
            .iter()
            .filter(|r| r.str("cudnn") == "V5")
            .map(|r| r.num("speedup_vs_v1"))
            .collect();
        let avg = v5.iter().sum::<f64>() / v5.len() as f64;
        assert!((1.9..2.6).contains(&avg), "avg {avg}");
    }

    #[test]
    fn headline_matches_paper_bands() {
        // Abstract: "average 2.6x (maximum 13.8x) compression ratio",
        // "average 32% (maximum 61%) performance improvement".
        let h = headline(&ctx(), SystemConfig::titan_x_pcie3());
        assert!(
            (2.0..3.2).contains(&h.avg_ratio),
            "avg ratio {} (paper 2.6)",
            h.avg_ratio
        );
        assert!(
            (8.0..32.0).contains(&h.max_ratio),
            "max ratio {} (paper 13.8)",
            h.max_ratio
        );
        assert!(
            (0.15..0.50).contains(&h.avg_improvement),
            "avg improvement {} (paper 0.32)",
            h.avg_improvement
        );
        assert!(
            (0.30..0.90).contains(&h.max_improvement),
            "max improvement {} (paper 0.61)",
            h.max_improvement
        );
    }
}
