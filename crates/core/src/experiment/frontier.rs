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

use crate::report::{Cell, ReportData, Table};
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

/// Generates the frontier over the ratio table's density grid: per
/// activation codec × density, the measured compression ratio (from the
/// shared ratio table, NCHW), the modeled engine throughput and the
/// effective offload bandwidth on the paper's PCIe 3 platform,
/// `min(engine_bw, ratio × pcie_bw)` — all in uncompressed bytes.
pub fn fig_frontier(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let cfg = SystemConfig::titan_x_pcie3();
    let table = ctx.ratio_table();
    let algs: Vec<Algorithm> = Algorithm::ACTIVATION
        .into_iter()
        .filter(|a| filter.matches_algorithm(*a))
        .collect();
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
    let mut effective: Vec<(Algorithm, f64)> = Vec::new();
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
            let effective_gbps = engine.min(ratio * cfg.pcie_bw) / 1e9;
            t.row([
                alg.label().into(),
                Cell::Num(density),
                Cell::Num(ratio),
                Cell::Num(engine / 1e9),
                Cell::Num(effective_gbps),
            ]);
            effective.push((alg, effective_gbps));
        }
    }
    let avg_eff = |alg: Algorithm| -> Option<f64> {
        let v: Vec<f64> = effective
            .iter()
            .filter(|r| r.0 == alg)
            .map(|r| r.1)
            .collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    let mut notes = vec![
        "throughputs are modeled (§V-A constants), not timed — deterministic by design".to_owned(),
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
    ReportData {
        name: "fig_frontier",
        title:
            "Ratio-vs-throughput frontier: codec ratio, engine rate, effective offload bandwidth"
                .to_owned(),
        tables: vec![t],
        notes,
        ..ReportData::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_vdnn::RatioTable;

    fn report() -> ReportData {
        let ctx = Context::with_table(RatioTable::build_fast(11));
        fig_frontier(&ctx, &ScenarioFilter::all())
    }

    #[test]
    fn covers_every_activation_codec_at_every_density() {
        let r = report();
        let rows = r.tables[0].records();
        let points = 7; // build_fast grid
        assert_eq!(rows.len(), points * Algorithm::ACTIVATION.len());
        for row in &rows {
            assert!(row.num("ratio") > 0.2, "{:?}", r.tables[0]);
            let effective = row.num("effective_gbps");
            assert!(effective > 0.0 && effective <= row.num("engine_gbps"));
        }
    }

    #[test]
    fn zvc_dominates_zlib_on_effective_bandwidth() {
        // The paper's core claim: DEFLATE's better ratio cannot buy back
        // its 2.5 GB/s engine — ZVC wins on effective offload bandwidth.
        let r = report();
        let rows = r.tables[0].records();
        for d in rows.iter().filter(|r| r.str("algorithm") == "ZV") {
            let zl = rows
                .iter()
                .find(|x| x.str("algorithm") == "ZL" && x.num("density") == d.num("density"))
                .unwrap();
            assert!(
                d.num("effective_gbps") > zl.num("effective_gbps"),
                "d={}: ZV {} <= ZL {}",
                d.num("density"),
                d.num("effective_gbps"),
                zl.num("effective_gbps")
            );
        }
    }

    #[test]
    fn adaptive_engine_rate_falls_as_density_grows() {
        // Sparse streams pick ZVC/RLE windows (COMP_BW-speed); dense
        // streams shift windows to DEFLATE, dragging the rate down.
        let r = report();
        let rows = r.tables[0].records();
        let ad: Vec<_> = rows.iter().filter(|x| x.str("algorithm") == "AD").collect();
        let sparse = ad.first().unwrap();
        let dense = ad.last().unwrap();
        assert!(sparse.num("density") < dense.num("density"));
        assert!(
            sparse.num("engine_gbps") > dense.num("engine_gbps"),
            "sparse {} vs dense {}",
            sparse.num("engine_gbps"),
            dense.num("engine_gbps")
        );
    }

    #[test]
    fn filter_restricts_codecs() {
        let ctx = Context::with_table(RatioTable::build_fast(11));
        let f = ScenarioFilter::all().algorithm(Algorithm::Zvc);
        let r = fig_frontier(&ctx, &f);
        let rows = r.tables[0].records();
        assert!(rows.iter().all(|x| x.str("algorithm") == "ZV"));
        assert_eq!(rows.len(), 7);
    }
}
