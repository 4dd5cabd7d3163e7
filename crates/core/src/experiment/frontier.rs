//! The ratio-vs-throughput frontier (`fig_frontier`): where each codec
//! sits between "compresses well" and "keeps up with the DMA engine".
//!
//! The paper rejects gzip-class compression not on ratio but on
//! *throughput* (Section V-A: FPGA/ASIC DEFLATE tops out around
//! 2.5 GB/s against the 100s of GB/s a DMA engine needs). This
//! experiment makes that trade-off a first-class figure: for every
//! activation codec and density grid point it reports the measured
//! compression ratio next to a modeled engine throughput, and the
//! effective offload bandwidth the pair implies on the paper's
//! PCIe 3 platform.
//!
//! Throughput is **modeled, not timed** — constants below, derived from
//! the paper's §V discussion — so the report is byte-deterministic and
//! safe to `cmp` across runs (the CI determinism job does exactly that).
//! The adaptive codec's engine rate is the density-weighted harmonic
//! mean of the engines its per-window picker actually selected on the
//! seeded probe tensor, so it degrades smoothly from ZVC-speed on
//! sparse streams toward DEFLATE-speed where dense windows dominate.

use cdma_compress::{Algorithm, Compressor, ADAPTIVE_PICKS, ADAPTIVE_WINDOW_WORDS};
use cdma_gpusim::SystemConfig;
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4};

use crate::report::{Cell, Report, Table};
use crate::scenario::{Context, ScenarioFilter};

/// Modeled engine throughput for one codec, in bytes per second of
/// *uncompressed* input.
///
/// ZVC and RLE run at the cDMA engine's provisioned COMP_BW (the paper
/// sizes the ZVC pipeline to saturate it, and RLE hardware is simpler
/// still). DEFLATE is the paper's §V-A hardware number. The
/// mask+Huffman codec needs only a 256-entry code table — no 32 KB
/// LZ77 window — modeled at a tenth of COMP_BW.
fn engine_bw(alg: Algorithm, cfg: &SystemConfig) -> f64 {
    match alg {
        Algorithm::Rle | Algorithm::Zvc => cfg.comp_bw,
        Algorithm::Zlib => 2.5e9,
        Algorithm::Huff => cfg.comp_bw / 10.0,
        Algorithm::Csc | Algorithm::Adaptive => {
            unreachable!("engine_bw is defined per fixed-function engine")
        }
    }
}

/// One frontier point: codec × density.
#[derive(Debug, Clone)]
pub struct FrontierRow {
    /// Activation codec.
    pub algorithm: Algorithm,
    /// Activation density (non-zero fraction) at this grid point.
    pub density: f64,
    /// Measured compression ratio (from the shared ratio table, NCHW).
    pub ratio: f64,
    /// Modeled engine throughput, uncompressed bytes/s.
    pub engine_gbps: f64,
    /// Effective offload bandwidth on the paper's PCIe 3 platform:
    /// `min(engine_bw, ratio × pcie_bw)`, uncompressed bytes/s.
    pub effective_gbps: f64,
}

/// The `fig_frontier` report.
#[derive(Debug, Clone)]
pub struct FrontierReport {
    /// One row per activation codec × density grid point.
    pub rows: Vec<FrontierRow>,
}

/// Fraction of input words the adaptive picker hands to each of
/// [`ADAPTIVE_PICKS`] at one density, probed by compressing each seeded
/// 4 KB window separately and reading its tag byte.
fn adaptive_pick_fractions(density: f64, seed: u64) -> [f64; ADAPTIVE_PICKS.len()] {
    let mut gen = ActivationGen::seeded(seed);
    let t = gen.generate(Shape4::new(1, 16, 32, 32), Layout::Nchw, density);
    let codec = Algorithm::Adaptive.codec();
    let mut counts = [0usize; ADAPTIVE_PICKS.len()];
    let mut windows = 0usize;
    for chunk in t.as_slice().chunks(ADAPTIVE_WINDOW_WORDS) {
        let stream = codec.compress(chunk);
        counts[stream[0] as usize] += 1;
        windows += 1;
    }
    counts.map(|c| c as f64 / windows as f64)
}

/// Generates the frontier over the ratio table's density grid.
pub fn fig_frontier(ctx: &Context, filter: &ScenarioFilter) -> FrontierReport {
    let cfg = SystemConfig::titan_x_pcie3();
    let table = ctx.ratio_table();
    let algs: Vec<Algorithm> = Algorithm::ACTIVATION
        .into_iter()
        .filter(|a| filter.matches_algorithm(*a))
        .collect();
    let mut rows = Vec::new();
    for &density in table.densities() {
        for &alg in &algs {
            let ratio = table.ratio(alg, Layout::Nchw, density);
            let engine = if alg == Algorithm::Adaptive {
                // Density-weighted harmonic mean over the engines the
                // picker selected (each window's bytes move at its
                // engine's rate, so rates combine harmonically).
                let fracs = adaptive_pick_fractions(density, 42);
                let rates = ADAPTIVE_PICKS.map(|a| engine_bw(a, &cfg));
                1.0 / fracs.iter().zip(rates).map(|(f, r)| f / r).sum::<f64>()
            } else {
                engine_bw(alg, &cfg)
            };
            rows.push(FrontierRow {
                algorithm: alg,
                density,
                ratio,
                engine_gbps: engine / 1e9,
                effective_gbps: engine.min(ratio * cfg.pcie_bw) / 1e9,
            });
        }
    }
    FrontierReport { rows }
}

impl Report for FrontierReport {
    fn name(&self) -> &'static str {
        "fig_frontier"
    }

    fn title(&self) -> String {
        "Ratio-vs-throughput frontier: codec ratio, engine rate, effective offload bandwidth"
            .to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "frontier (NCHW, Titan X / PCIe 3)",
            &[
                "algorithm",
                "density",
                "ratio",
                "engine_gbps",
                "effective_gbps",
            ],
        );
        for r in &self.rows {
            t.row([
                r.algorithm.label().into(),
                Cell::Num(r.density),
                Cell::Num(r.ratio),
                Cell::Num(r.engine_gbps),
                Cell::Num(r.effective_gbps),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        let avg_eff = |alg: Algorithm| -> Option<f64> {
            let v: Vec<f64> = self
                .rows
                .iter()
                .filter(|r| r.algorithm == alg)
                .map(|r| r.effective_gbps)
                .collect();
            (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
        };
        let mut notes = vec![
            "throughputs are modeled (§V-A constants), not timed — deterministic by design"
                .to_owned(),
        ];
        if let (Some(zv), Some(zl), Some(ad)) = (
            avg_eff(Algorithm::Zvc),
            avg_eff(Algorithm::Zlib),
            avg_eff(Algorithm::Adaptive),
        ) {
            notes.push(format!(
                "average effective offload bandwidth: ZV {zv:.1} GB/s, ZL {zl:.1} GB/s, AD {ad:.1} GB/s"
            ));
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_vdnn::RatioTable;

    fn report() -> FrontierReport {
        let ctx = Context::with_table(RatioTable::build_fast(11));
        fig_frontier(&ctx, &ScenarioFilter::all())
    }

    #[test]
    fn covers_every_activation_codec_at_every_density() {
        let r = report();
        let points = 7; // build_fast grid
        assert_eq!(r.rows.len(), points * Algorithm::ACTIVATION.len());
        for row in &r.rows {
            assert!(row.ratio > 0.2, "{row:?}");
            assert!(row.effective_gbps > 0.0 && row.effective_gbps <= row.engine_gbps);
        }
    }

    #[test]
    fn zvc_dominates_zlib_on_effective_bandwidth() {
        // The paper's core claim: DEFLATE's better ratio cannot buy back
        // its 2.5 GB/s engine — ZVC wins on effective offload bandwidth.
        let r = report();
        for d in r.rows.iter().filter(|r| r.algorithm == Algorithm::Zvc) {
            let zl = r
                .rows
                .iter()
                .find(|x| x.algorithm == Algorithm::Zlib && x.density == d.density)
                .unwrap();
            assert!(
                d.effective_gbps > zl.effective_gbps,
                "d={}: ZV {} <= ZL {}",
                d.density,
                d.effective_gbps,
                zl.effective_gbps
            );
        }
    }

    #[test]
    fn adaptive_engine_rate_falls_as_density_grows() {
        // Sparse streams pick ZVC/RLE windows (COMP_BW-speed); dense
        // streams shift windows to DEFLATE, dragging the rate down.
        let r = report();
        let ad: Vec<&FrontierRow> = r
            .rows
            .iter()
            .filter(|x| x.algorithm == Algorithm::Adaptive)
            .collect();
        let sparse = ad.first().unwrap();
        let dense = ad.last().unwrap();
        assert!(sparse.density < dense.density);
        assert!(
            sparse.engine_gbps > dense.engine_gbps,
            "sparse {} vs dense {}",
            sparse.engine_gbps,
            dense.engine_gbps
        );
    }

    #[test]
    fn filter_restricts_codecs() {
        let ctx = Context::with_table(RatioTable::build_fast(11));
        let f = ScenarioFilter::all().algorithm(Algorithm::Zvc);
        let r = fig_frontier(&ctx, &f);
        assert!(r.rows.iter().all(|x| x.algorithm == Algorithm::Zvc));
        assert_eq!(r.rows.len(), 7);
    }
}
