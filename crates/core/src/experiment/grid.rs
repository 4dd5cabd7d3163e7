//! The paper-grid experiments: compression ratios (Fig. 11), offload
//! traffic (Fig. 12), end-to-end performance (Fig. 13), the cuDNN sweep
//! (Fig. 3), and the headline aggregates — all driven by
//! [`ScenarioSet::paper_grid`] instead of per-driver triple loops.

use cdma_compress::Algorithm;
use cdma_gpusim::SystemConfig;
use cdma_tensor::Layout;
use cdma_vdnn::{traffic, ComputeModel, CudnnVersion, TimelineSim, TransferPolicy, UniformRatio};

use super::compute_model;
use crate::report::{Cell, Report, Table};
use crate::scenario::{Context, ScenarioFilter, ScenarioSet};

/// One bar group of Fig. 11: per network × layout × algorithm, the
/// byte-weighted average and per-layer maximum compression ratio.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Network name.
    pub network: String,
    /// Activation memory layout.
    pub layout: Layout,
    /// Compression algorithm.
    pub algorithm: Algorithm,
    /// Average (weighted) network compression ratio.
    pub avg_ratio: f64,
    /// Maximum per-layer ratio.
    pub max_ratio: f64,
}

/// The Fig. 11 report: one row per grid cell, plus the extension-codec
/// rows kept in a separate table so the paper grid stays pinned.
#[derive(Debug, Clone)]
pub struct Fig11Report {
    /// The grid rows, in paper-grid order (the paper's three codecs).
    pub rows: Vec<Fig11Row>,
    /// Extension-codec rows (HF, AD) over the same network × layout
    /// cells — reported alongside but never mixed into the paper grid.
    pub extended: Vec<Fig11Row>,
}

/// The codecs reported in Fig. 11's companion table but absent from the
/// paper's own grid.
const FIG11_EXTENSION_ALGS: [Algorithm; 2] = [Algorithm::Huff, Algorithm::Adaptive];

/// Generates Fig. 11 over the (possibly filtered) paper grid.
pub fn fig11(ctx: &Context, filter: &ScenarioFilter) -> Fig11Report {
    let set = ScenarioSet::paper_grid().filtered(filter);
    let row = |network: &str, layout, algorithm| {
        let t = ctx.traffic(network, algorithm, layout);
        Fig11Row {
            network: network.to_owned(),
            layout,
            algorithm,
            avg_ratio: t.avg_ratio(),
            max_ratio: t.max_layer_ratio(),
        }
    };
    let rows = set
        .scenarios()
        .iter()
        .map(|s| row(&s.network, s.layout, s.algorithm))
        .collect();
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
    let extended = cells
        .iter()
        .flat_map(|(network, layout)| algs.iter().map(|&alg| row(network, *layout, alg)))
        .collect();
    Fig11Report { rows, extended }
}

impl Report for Fig11Report {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> String {
        "Figure 11: avg (network) and max (layer) compression ratios".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let cols = ["network", "layout", "algorithm", "avg_ratio", "max_ratio"];
        let fill = |t: &mut Table, rows: &[Fig11Row]| {
            for r in rows {
                t.row([
                    r.network.as_str().into(),
                    r.layout.to_string().into(),
                    r.algorithm.label().into(),
                    Cell::Num(r.avg_ratio),
                    Cell::Num(r.max_ratio),
                ]);
            }
        };
        let mut t = Table::new("compression ratios", &cols);
        fill(&mut t, &self.rows);
        let mut tables = vec![t];
        if !self.extended.is_empty() {
            let mut t = Table::new("extension codecs (HF, AD)", &cols);
            fill(&mut t, &self.extended);
            tables.push(t);
        }
        tables
    }

    fn notes(&self) -> Vec<String> {
        let zv: Vec<&Fig11Row> = self
            .rows
            .iter()
            .filter(|r| r.layout == Layout::Nchw && r.algorithm == Algorithm::Zvc)
            .collect();
        if zv.is_empty() {
            return Vec::new();
        }
        let avg = zv.iter().map(|r| r.avg_ratio).sum::<f64>() / zv.len() as f64;
        let max = zv.iter().map(|r| r.max_ratio).fold(0.0, f64::max);
        vec![format!(
            "ZV (NCHW): average network ratio {avg:.2}x (paper 2.6x), max per-layer {max:.1}x (paper 13.8x)"
        )]
    }
}

/// One bar of Fig. 12: offloaded bytes normalized to uncompressed vDNN.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Network name.
    pub network: String,
    /// Compression algorithm.
    pub algorithm: Algorithm,
    /// Compressed size over uncompressed size (lower is better).
    pub normalized_offload: f64,
}

/// The Fig. 12 report.
#[derive(Debug, Clone)]
pub struct Fig12Report {
    /// One row per network × algorithm (NCHW layout).
    pub rows: Vec<Fig12Row>,
}

/// Generates Fig. 12 (NCHW layout, as the paper's results section uses).
pub fn fig12(ctx: &Context, filter: &ScenarioFilter) -> Fig12Report {
    let set = ScenarioSet::paper_grid()
        .filtered(filter)
        .filtered(&ScenarioFilter::all().layout(Layout::Nchw));
    let rows = set
        .scenarios()
        .iter()
        .map(|s| {
            let t = ctx.traffic(&s.network, s.algorithm, s.layout);
            Fig12Row {
                network: s.network.clone(),
                algorithm: s.algorithm,
                normalized_offload: t.normalized_offload(),
            }
        })
        .collect();
    Fig12Report { rows }
}

impl Report for Fig12Report {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn title(&self) -> String {
        "Figure 12: offload size normalized to vDNN (lower is better)".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "normalized offload",
            &["network", "algorithm", "normalized_offload"],
        );
        for r in &self.rows {
            t.row([
                r.network.as_str().into(),
                r.algorithm.label().into(),
                Cell::Num(r.normalized_offload),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        let avg = |alg: Algorithm| -> Option<f64> {
            let v: Vec<f64> = self
                .rows
                .iter()
                .filter(|r| r.algorithm == alg)
                .map(|r| r.normalized_offload)
                .collect();
            (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
        };
        match (
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
        }
    }
}

/// Transfer configuration of one Fig. 13 bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfConfig {
    /// Uncompressed vDNN.
    Vdnn,
    /// cDMA with the given algorithm.
    Cdma(Algorithm),
    /// The oracle (PCIe bottleneck removed).
    Oracle,
}

impl PerfConfig {
    /// Label as in Fig. 13 ("vDNN", "RL", "ZV", "ZL", "orac").
    pub fn label(&self) -> &'static str {
        match self {
            PerfConfig::Vdnn => "vDNN",
            PerfConfig::Cdma(a) => a.label(),
            PerfConfig::Oracle => "orac",
        }
    }
}

/// One bar of Fig. 13: performance normalized to the oracle.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Network name.
    pub network: String,
    /// Transfer configuration.
    pub config: PerfConfig,
    /// Performance normalized to the oracle baseline (1.0 = no overhead).
    pub performance: f64,
}

/// The Fig. 13 report.
#[derive(Debug, Clone)]
pub struct Fig13Report {
    /// One row per network × transfer configuration.
    pub rows: Vec<Fig13Row>,
}

/// Generates Fig. 13 on the paper grid's NCHW cells with cuDNN v5
/// compute: per network, the vDNN baseline, one cDMA bar per algorithm
/// cell, and the oracle.
pub fn fig13(ctx: &Context, filter: &ScenarioFilter) -> Fig13Report {
    let set = ScenarioSet::paper_grid()
        .filtered(filter)
        .filtered(&ScenarioFilter::all().layout(Layout::Nchw));
    let mut rows = Vec::new();
    for network in set.networks() {
        let spec = ctx.spec(&network);
        let cells: Vec<_> = set
            .scenarios()
            .iter()
            .filter(|s| s.network == network)
            .collect();
        let cfg = cells[0].config;
        let sim = TimelineSim::new(cfg, compute_model());
        rows.push(Fig13Row {
            network: network.clone(),
            config: PerfConfig::Vdnn,
            performance: sim.normalized_performance(&spec, &UniformRatio::uniform(&spec, 1.0)),
        });
        for s in cells {
            let t = ctx.traffic(&s.network, s.algorithm, s.layout);
            let ratios = traffic::per_layer_ratios(&t);
            rows.push(Fig13Row {
                network: network.clone(),
                config: PerfConfig::Cdma(s.algorithm),
                performance: sim.normalized_performance(
                    &spec,
                    &UniformRatio::new(&spec, TransferPolicy::OffloadAll(ratios)),
                ),
            });
        }
        rows.push(Fig13Row {
            network,
            config: PerfConfig::Oracle,
            performance: 1.0,
        });
    }
    Fig13Report { rows }
}

impl Report for Fig13Report {
    fn name(&self) -> &'static str {
        "fig13"
    }

    fn title(&self) -> String {
        "Figure 13: performance normalized to oracle (higher is better)".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "normalized performance",
            &["network", "config", "performance"],
        );
        for r in &self.rows {
            t.row([
                r.network.as_str().into(),
                r.config.label().into(),
                Cell::Num(r.performance),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        let perf = |net: &str, c: PerfConfig| -> Option<f64> {
            self.rows
                .iter()
                .find(|r| r.network == net && r.config == c)
                .map(|r| r.performance)
        };
        let mut improvements = Vec::new();
        let mut zl_gains = Vec::new();
        for net in self.networks() {
            let (Some(vdnn), Some(zv)) = (
                perf(&net, PerfConfig::Vdnn),
                perf(&net, PerfConfig::Cdma(Algorithm::Zvc)),
            ) else {
                continue;
            };
            improvements.push(zv / vdnn - 1.0);
            if let Some(zl) = perf(&net, PerfConfig::Cdma(Algorithm::Zlib)) {
                zl_gains.push(zl / zv - 1.0);
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
        notes
    }
}

impl Fig13Report {
    fn networks(&self) -> Vec<String> {
        let mut names = Vec::new();
        for r in &self.rows {
            if !names.contains(&r.network) {
                names.push(r.network.clone());
            }
        }
        names
    }
}

/// One point of Fig. 3: per network and cuDNN version, the compute
/// speedup over v1 (panel a) and vDNN performance normalized to the
/// same-version oracle (panel b).
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Network name.
    pub network: String,
    /// cuDNN version.
    pub version: CudnnVersion,
    /// Compute speedup relative to cuDNN v1 (Fig. 3a).
    pub speedup_vs_v1: f64,
    /// vDNN performance normalized to the oracle (Fig. 3b).
    pub vdnn_performance: f64,
}

/// The Fig. 3 report (both panels).
#[derive(Debug, Clone)]
pub struct Fig03Report {
    /// One row per network × cuDNN version.
    pub rows: Vec<Fig3Row>,
}

/// Generates both panels of Fig. 3.
pub fn fig03(ctx: &Context, filter: &ScenarioFilter) -> Fig03Report {
    let cfg = SystemConfig::titan_x_pcie3();
    let mut rows = Vec::new();
    for network in ScenarioSet::builder().build().filtered(filter).networks() {
        let spec = ctx.spec(&network);
        let t1 = ComputeModel::titan_x(CudnnVersion::V1).step_compute_time(&spec);
        for v in CudnnVersion::ALL {
            let model = ComputeModel::titan_x(v);
            let sim = TimelineSim::new(cfg, model);
            rows.push(Fig3Row {
                network: network.clone(),
                version: v,
                speedup_vs_v1: t1 / model.step_compute_time(&spec),
                vdnn_performance: sim
                    .normalized_performance(&spec, &UniformRatio::uniform(&spec, 1.0)),
            });
        }
    }
    Fig03Report { rows }
}

impl Report for Fig03Report {
    fn name(&self) -> &'static str {
        "fig03"
    }

    fn title(&self) -> String {
        "Figure 3: cuDNN compute speedups (a) and vDNN degradation (b)".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "per-version compute and vDNN performance",
            &["network", "cudnn", "speedup_vs_v1", "vdnn_performance"],
        );
        for r in &self.rows {
            t.row([
                r.network.as_str().into(),
                format!("{:?}", r.version).into(),
                Cell::Num(r.speedup_vs_v1),
                Cell::Num(r.vdnn_performance),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        let v5: Vec<&Fig3Row> = self
            .rows
            .iter()
            .filter(|r| r.version == CudnnVersion::V5)
            .collect();
        if v5.is_empty() {
            return Vec::new();
        }
        let avg_speedup = v5.iter().map(|r| r.speedup_vs_v1).sum::<f64>() / v5.len() as f64;
        let avg_loss = 1.0 - v5.iter().map(|r| r.vdnn_performance).sum::<f64>() / v5.len() as f64;
        let worst_loss = 1.0
            - v5.iter()
                .map(|r| r.vdnn_performance)
                .fold(f64::INFINITY, f64::min);
        vec![
            format!("average v5 speedup over v1: {avg_speedup:.2}x (paper: 2.2x)"),
            format!(
                "v5 vDNN loss: average {:.1}% (paper 31%), worst {:.1}% (paper 52%)",
                avg_loss * 100.0,
                worst_loss * 100.0
            ),
        ]
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

    fn all(f: impl Fn(&Context, &ScenarioFilter) -> Vec<Fig11Row>) -> Vec<Fig11Row> {
        f(&ctx(), &ScenarioFilter::all())
    }

    #[test]
    fn fig11_has_all_cells() {
        let rows = all(|c, f| fig11(c, f).rows);
        assert_eq!(rows.len(), 6 * 3 * 3);
        assert!(rows
            .iter()
            .all(|r| r.avg_ratio > 0.5 && r.max_ratio >= r.avg_ratio));
    }

    #[test]
    fn fig11_zvc_layout_insensitivity() {
        let rows = all(|c, f| fig11(c, f).rows);
        for net in ["AlexNet", "VGG"] {
            let zv: Vec<&Fig11Row> = rows
                .iter()
                .filter(|r| r.network == net && r.algorithm == Algorithm::Zvc)
                .collect();
            let base = zv[0].avg_ratio;
            for r in &zv {
                assert!(
                    (r.avg_ratio - base).abs() / base < 0.05,
                    "{net} {}: {} vs {}",
                    r.layout,
                    r.avg_ratio,
                    base
                );
            }
        }
    }

    #[test]
    fn fig11_extension_rows_cover_every_cell() {
        let report = fig11(&ctx(), &ScenarioFilter::all());
        // 6 networks x 3 layouts x 2 extension codecs.
        assert_eq!(report.extended.len(), 6 * 3 * 2);
        for r in &report.extended {
            assert!(
                r.algorithm == Algorithm::Huff || r.algorithm == Algorithm::Adaptive,
                "{:?}",
                r.algorithm
            );
            assert!(r.avg_ratio > 0.5 && r.max_ratio >= r.avg_ratio);
        }
        // The adaptive picker stays competitive with the paper's best
        // single codec on every cell.
        for ext in report
            .extended
            .iter()
            .filter(|r| r.algorithm == Algorithm::Adaptive)
        {
            let best = report
                .rows
                .iter()
                .filter(|r| r.network == ext.network && r.layout == ext.layout)
                .map(|r| r.avg_ratio)
                .fold(f64::MIN, f64::max);
            assert!(
                ext.avg_ratio > 0.9 * best,
                "{} {}: adaptive {} vs best {}",
                ext.network,
                ext.layout,
                ext.avg_ratio,
                best
            );
        }
        // An algorithm filter that excludes the extensions empties the
        // companion table without touching the paper rows.
        let f = ScenarioFilter::all().algorithm(Algorithm::Zvc);
        let report = fig11(&ctx(), &f);
        assert!(report.extended.is_empty());
        assert_eq!(report.rows.len(), 6 * 3);
        assert_eq!(report.tables().len(), 1);
        // The converse — extensions only — keeps the companion table even
        // though no paper-grid scenario survives the filter.
        let f = ScenarioFilter::all()
            .network("AlexNet")
            .algorithm(Algorithm::Adaptive);
        let report = fig11(&ctx(), &f);
        assert!(report.rows.is_empty());
        assert_eq!(report.extended.len(), 3); // 3 layouts x 1 codec
        assert!(report
            .extended
            .iter()
            .all(|r| r.algorithm == Algorithm::Adaptive && r.network == "AlexNet"));
    }

    #[test]
    fn fig11_respects_the_filter() {
        let filter = ScenarioFilter::all()
            .network("AlexNet")
            .layout(Layout::Nchw);
        let rows = fig11(&ctx(), &filter).rows;
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.network == "AlexNet"));
    }

    #[test]
    fn fig12_zv_reduces_traffic_everywhere() {
        let rows = fig12(&ctx(), &ScenarioFilter::all()).rows;
        assert_eq!(rows.len(), 6 * 3);
        for r in rows.iter().filter(|r| r.algorithm == Algorithm::Zvc) {
            assert!(
                r.normalized_offload < 0.75,
                "{}: normalized {}",
                r.network,
                r.normalized_offload
            );
        }
    }

    #[test]
    fn fig13_ordering_vdnn_cdma_oracle() {
        let rows = fig13(&ctx(), &ScenarioFilter::all()).rows;
        for net in ["AlexNet", "SqueezeNet", "GoogLeNet"] {
            let get = |c: PerfConfig| {
                rows.iter()
                    .find(|r| r.network == net && r.config == c)
                    .map(|r| r.performance)
                    .unwrap()
            };
            let vdnn = get(PerfConfig::Vdnn);
            let zv = get(PerfConfig::Cdma(Algorithm::Zvc));
            assert!(vdnn <= zv, "{net}: vDNN {vdnn} vs ZV {zv}");
            assert!(zv <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn fig03_speedups_and_degradation() {
        let rows = fig03(&ctx(), &ScenarioFilter::all()).rows;
        assert_eq!(rows.len(), 6 * 5);
        for r in &rows {
            assert!(r.speedup_vs_v1 >= 1.0 - 1e-9);
            assert!(r.vdnn_performance <= 1.0 + 1e-9);
        }
        // v5 speedup ~2.2x on average.
        let v5: Vec<&Fig3Row> = rows
            .iter()
            .filter(|r| r.version == CudnnVersion::V5)
            .collect();
        let avg = v5.iter().map(|r| r.speedup_vs_v1).sum::<f64>() / v5.len() as f64;
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
