//! The `fig_inference` experiment: the EIE-style serving story on top of
//! the paper's infrastructure.
//!
//! Four views, all pure functions of the seed:
//!
//! 1. **speedup vs density** — the cycle-level PE array over a pruned FC
//!    layer, swept across weight densities, PE counts and engines
//!    (dense / CSC / CSC + activation skipping), with load-imbalance and
//!    FIFO-stall accounting.
//! 2. **traffic over the zoo** — effective bytes moved per FC layer of
//!    every zoo network at ~10% weight density and ~30% activation
//!    density: dense weights vs CSC weights vs CSC weights + ZVC'd input
//!    activations. The headline is the zoo-wide reduction.
//! 3. **serving** — the [`InferKernel`] on the `cdma-serve` worker pool
//!    next to a compress tenant, batch-1 latency against batched
//!    throughput, through the deterministic virtual-time harness. The
//!    view reads traffic ratios and modeled latencies only, so the twin
//!    asks the kernel for each job's traffic and no matvec runs.
//! 4. **energy** — the Section VII-C transfer-energy model applied to
//!    the zoo traffic totals per engine.
//!
//! The synthetic weight layer of each density is built once, on first
//! use, and shared by the sweep's engines, the serving view and the
//! Gantt.

use std::cell::OnceCell;

use cdma_compress::{Algorithm, Compressor, Csc, Zvc};
use cdma_gpusim::energy::EnergyModel;
use cdma_infer::{
    column_seed, fc_weight_dims, fill_weights, CscMatrix, InferEngine, InferKernel, PeArray,
    PeWorkload,
};
use cdma_models::zoo;
use cdma_serve::{
    fill_activations, run_virtual_with_kernel, ServerConfig, ServiceModel, TenantLoad, TenantSpec,
};

use super::gantt_row;
use crate::report::{Artifact, Cell, ReportData, Table};
use crate::scenario::{Context, ScenarioFilter, ScenarioSet};

/// Master seed (same spirit as the figure seeds: fixed).
const SEED: u64 = 42;
/// Weight density of the pruned layers (EIE evaluates ~10%).
const WEIGHT_DENSITY: f64 = 0.1;
/// Zero fraction of input activations (~30% nonzero, SparseNN's regime).
const ACT_ZERO_DENSITY: f64 = 0.7;
/// Offered inference load, requests per second of virtual time.
const SERVE_RATE: f64 = 20_000.0;

/// The sweep's synthetic layer: rows x cols of the speedup matrix.
fn sweep_dims(ctx: &Context) -> (usize, usize) {
    if ctx.is_fast() {
        (256, 256)
    } else {
        (1024, 1024)
    }
}

fn densities(ctx: &Context) -> &'static [f64] {
    if ctx.is_fast() {
        &[0.1, 0.3]
    } else {
        &[0.05, 0.1, 0.2, 0.3]
    }
}

fn pe_counts(ctx: &Context) -> &'static [usize] {
    if ctx.is_fast() {
        &[16]
    } else {
        &[16, 64]
    }
}

/// The sweep's weight layers, one per density, each synthesized on
/// first use: the dense engine's sweep builds none, and the serving
/// view and the Gantt share the [`WEIGHT_DENSITY`] layer with the CSC
/// engines' sweeps.
struct SweepWeights {
    rows: usize,
    cols: usize,
    built: Vec<(f64, OnceCell<CscMatrix>)>,
}

impl SweepWeights {
    fn new(ctx: &Context) -> Self {
        let (rows, cols) = sweep_dims(ctx);
        SweepWeights {
            rows,
            cols,
            built: densities(ctx)
                .iter()
                .map(|&d| (d, OnceCell::new()))
                .collect(),
        }
    }

    /// The layer at `density`, one of [`densities`].
    fn at(&self, density: f64) -> &CscMatrix {
        let (_, cell) = self
            .built
            .iter()
            .find(|(d, _)| *d == density)
            .expect("a swept density");
        cell.get_or_init(|| CscMatrix::synth(self.rows, self.cols, density, SEED))
    }
}

/// Broadcast activations for the sweep: ~30% nonzero, seeded.
fn sweep_acts(cols: usize) -> Vec<f32> {
    let mut acts = vec![0.0f32; cols];
    fill_activations(SEED ^ 0xA11, ACT_ZERO_DENSITY, &mut acts);
    acts
}

/// Analytic CSC weight bytes for a `rows x cols` layer at
/// [`WEIGHT_DENSITY`], sampling `sample` evenly-strided columns and
/// scaling (columns are independent, so the sample mean is exact in
/// expectation; fast contexts sample fewer).
fn csc_weight_bytes(rows: usize, cols: usize, sample: usize, seed: u64) -> u64 {
    let csc = Csc::new();
    let stride = (cols / sample.min(cols)).max(1);
    let mut col = vec![0.0f32; rows];
    let mut sampled_bytes = 0u64;
    let mut sampled = 0u64;
    let mut c = 0;
    while c < cols {
        fill_weights(column_seed(seed, c), WEIGHT_DENSITY, &mut col);
        sampled_bytes += csc.compressed_size(&col) as u64;
        sampled += 1;
        c += stride;
    }
    // Payload scaled to the full column count, plus the EIE-style
    // column-pointer table.
    sampled_bytes * cols as u64 / sampled + 4 * (cols as u64 + 1)
}

/// Effective traffic per zoo FC layer: the bytes a dense engine moves
/// (weights + acts in + acts out), with CSC weights and raw activations,
/// and with CSC weights and ZVC'd input activations. Also returns the
/// zoo-wide totals of the three, in [`InferEngine::ALL`] order.
fn traffic(ctx: &Context, filter: &ScenarioFilter) -> (Table, [u64; 3]) {
    let zvc = Zvc::new();
    let sample = if ctx.is_fast() { 48 } else { 512 };
    let mut table = Table::new(
        "effective traffic per zoo FC layer (10% weights, 30% acts)",
        &[
            "network",
            "layer",
            "rows",
            "cols",
            "dense_mb",
            "csc_mb",
            "csc_act_mb",
            "reduction",
        ],
    );
    let mut totals = [0u64; 3];
    for net in zoo::all_networks() {
        if !filter.matches_network(net.name()) {
            continue;
        }
        for layer in net.layers() {
            let Some((rows, cols)) = fc_weight_dims(layer) else {
                continue;
            };
            let seed = SEED ^ (table.rows().len() as u64) << 8;
            let weights_csc = csc_weight_bytes(rows, cols, sample, seed);
            let mut acts = vec![0.0f32; cols];
            fill_activations(seed ^ 0xAC7, ACT_ZERO_DENSITY, &mut acts);
            let acts_zvc = zvc.compressed_size(&acts) as u64;
            let (acts_in, acts_out) = ((cols * 4) as u64, (rows * 4) as u64);
            let bytes = [
                (rows * cols * 4) as u64 + acts_in + acts_out,
                weights_csc + acts_in + acts_out,
                weights_csc + acts_zvc + acts_out,
            ];
            table.row([
                net.name().into(),
                layer.name.as_str().into(),
                rows.into(),
                cols.into(),
                Cell::Num(bytes[0] as f64 / 1e6),
                Cell::Num(bytes[1] as f64 / 1e6),
                Cell::Num(bytes[2] as f64 / 1e6),
                Cell::Num(bytes[0] as f64 / bytes[2].max(1) as f64),
            ]);
            for (total, b) in totals.iter_mut().zip(bytes) {
                *total += b;
            }
        }
    }
    (table, totals)
}

/// The [`InferKernel`] on the shared pool next to a compress tenant, per
/// batch size: each tenant's completions, latency, goodput and measured
/// wire ratio. Also returns the inference tenant's p99 per batch.
fn serving(
    ctx: &Context,
    weights: &SweepWeights,
    filter: &ScenarioFilter,
) -> (Table, Vec<(usize, f64)>) {
    let (rows, cols) = (weights.rows, weights.cols);
    let mut kernel = None;
    let horizon = if ctx.is_fast() { 0.002 } else { 0.01 };
    let cfg = ServerConfig {
        algorithm: Algorithm::Csc,
        ..ServerConfig::default()
    };
    let set = ScenarioSet::builder()
        .networks(["AlexNet"])
        .batches([1, 32])
        .build()
        .filtered(filter);
    let mut table = Table::new(
        "serving on the shared pool (virtual time)",
        &[
            "batch",
            "tenant",
            "completed",
            "p50_us",
            "p99_us",
            "goodput_gbps",
            "ratio",
        ],
    );
    let mut infer_p99 = Vec::new();
    for scenario in set.scenarios() {
        let batch = scenario.batch;
        // An inference tenant next to a training-offload compress tenant:
        // one pool, both workload families.
        let loads = vec![
            TenantLoad::new(TenantSpec::new("infer").weight(2.0), SERVE_RATE)
                .size_mix(vec![(cols * batch, 1.0)])
                .zero_density(ACT_ZERO_DENSITY)
                .inference(rows as u32),
            TenantLoad::new(TenantSpec::new("trainer"), SERVE_RATE),
        ];
        let kernel =
            kernel.get_or_insert_with(|| InferKernel::new(weights.at(WEIGHT_DENSITY).clone()));
        let report =
            run_virtual_with_kernel(&cfg, &loads, horizon, SEED, ServiceModel::default(), kernel);
        for t in &report.tenants {
            let c = &t.counters;
            let (p50, p99) = match &t.latency {
                Some(l) => (l.p50_s * 1e6, l.p99_s * 1e6),
                None => (0.0, 0.0),
            };
            table.row([
                batch.into(),
                t.name.as_str().into(),
                c.completed.into(),
                Cell::Num(p50),
                Cell::Num(p99),
                Cell::Num(c.uncompressed_bytes as f64 / report.elapsed_s.max(1e-12) / 1e9),
                Cell::Num(c.uncompressed_bytes as f64 / c.wire_bytes.max(1) as f64),
            ]);
            if t.name == "infer" {
                infer_p99.push((batch, p99));
            }
        }
    }
    (table, infer_p99)
}

fn pe_gantt(ctx: &Context, weights: &SweepWeights) -> String {
    let (rows, cols) = (weights.rows, weights.cols);
    let pes = pe_counts(ctx)[0];
    let arr = PeArray::new(pes);
    let t = arr.run(
        &PeWorkload::from_matrix(weights.at(WEIGHT_DENSITY), pes),
        &sweep_acts(cols),
        true,
    );
    let width = 96;
    let makespan = t.cycles.max(1) as f64;
    let mut lines = vec![
        format!(
            "per-PE occupancy, {rows}x{cols} @ {:.0}% weights, csc+act on {pes} PEs \
             (makespan {} cycles)",
            WEIGHT_DENSITY * 100.0,
            t.cycles
        ),
        format!(
            "{:<22} 0 {:>width$} cycles",
            "",
            t.cycles,
            width = width - 7
        ),
    ];
    for (k, iv) in t.intervals.iter().enumerate() {
        let spans: Vec<(f64, f64)> = iv.iter().map(|&(s, e)| (s as f64, e as f64)).collect();
        lines.push(gantt_row(&format!("pe{k:02}"), &spans, makespan, width));
    }
    lines.push(format!(
        "array utilisation {:.1}%, load imbalance {:.2}x, {} stall cycles, {} acts skipped",
        t.utilization() * 100.0,
        t.load_imbalance(),
        t.stall_cycles,
        t.skipped
    ));
    lines.join("\n")
}

/// The full experiment: PE-array speedups (engine-major, then density,
/// then PE count), zoo traffic, serving (batch-major, then tenant),
/// per-engine transfer energy over the zoo traffic, and a per-PE
/// busy-interval Gantt of one CSC+act run as an artifact.
pub fn fig_inference(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    // The engine axis rides the scenario machinery so `--filter
    // engine=csc` behaves like every other sweep.
    let set = ScenarioSet::builder()
        .networks(["AlexNet"])
        .engines(InferEngine::ALL)
        .build()
        .filtered(filter);
    let weights = SweepWeights::new(ctx);
    let (rows, cols) = (weights.rows, weights.cols);
    let acts = sweep_acts(cols);
    let mut speed = Table::new(
        "PE-array speedup vs weight density",
        &[
            "engine",
            "density",
            "pes",
            "cycles",
            "speedup",
            "imbalance",
            "stalls",
            "skipped",
        ],
    );
    let mut best: Option<(f64, f64, usize, f64, u64)> = None;
    for engine in set.scenarios().iter().map(|s| s.engine) {
        for &density in densities(ctx) {
            // Re-sliced per PE count. The dense engine ignores pruning:
            // its workload is every weight.
            let matrix = engine.compressed_weights().then(|| weights.at(density));
            for &pes in pe_counts(ctx) {
                let arr = PeArray::new(pes);
                let workload = match matrix {
                    Some(m) => PeWorkload::from_matrix(m, pes),
                    None => PeWorkload::dense(rows, cols, pes),
                };
                let t = arr.run(&workload, &acts, engine.skips_zero_activations());
                let speedup = arr.dense_cycles(rows, cols) as f64 / t.cycles.max(1) as f64;
                speed.row([
                    engine.label().into(),
                    Cell::Num(density),
                    pes.into(),
                    t.cycles.into(),
                    Cell::Num(speedup),
                    Cell::Num(t.load_imbalance()),
                    t.stall_cycles.into(),
                    t.skipped.into(),
                ]);
                let beats = |b: (f64, f64, usize, f64, u64)| speedup.total_cmp(&b.0).is_ge();
                if engine == InferEngine::CscAct && best.is_none_or(beats) {
                    best = Some((speedup, density, pes, t.load_imbalance(), t.stall_cycles));
                }
            }
        }
    }

    let (traffic, totals) = traffic(ctx, filter);
    let (serve, infer_p99) = serving(ctx, &weights, filter);
    let mut energy = Table::new(
        "transfer energy over the zoo FC traffic",
        &["engine", "traffic_mb", "joules", "saving"],
    );
    let dense = totals[0];
    if dense > 0 {
        let model = EnergyModel::default();
        for (engine, bytes) in InferEngine::ALL.into_iter().zip(totals) {
            let ratio = dense as f64 / bytes.max(1) as f64;
            energy.row([
                engine.label().into(),
                Cell::Num(bytes as f64 / 1e6),
                Cell::Num(model.round_trip(dense, ratio).total()),
                Cell::Num(model.savings_fraction(dense, ratio)),
            ]);
        }
    }

    let mut notes = Vec::new();
    if !traffic.rows().is_empty() {
        notes.push(format!(
            "zoo FC layers at {:.0}% weights x {:.0}% acts: csc+act moves {:.1}x less \
             traffic than dense",
            WEIGHT_DENSITY * 100.0,
            (1.0 - ACT_ZERO_DENSITY) * 100.0,
            dense as f64 / totals[2].max(1) as f64
        ));
    }
    if let Some((speedup, density, pes, imbalance, stalls)) = best {
        notes.push(format!(
            "best PE-array speedup: {speedup:.1}x at density {density:.2} on {pes} PEs \
             (imbalance {imbalance:.2}x, {stalls} stall cycles)"
        ));
    }
    let p99_of = |batch: usize| infer_p99.iter().find(|r| r.0 == batch).map(|r| r.1);
    if let (Some(b1), Some(b32)) = (p99_of(1), p99_of(32)) {
        notes.push(format!(
            "serving: batch-1 p99 {b1:.1} us vs batch-32 p99 {b32:.1} us \
             on the pool shared with a compress tenant"
        ));
    }
    ReportData {
        name: "fig_inference",
        title: "cdma-infer: CSC inference — speedup vs density, traffic, serving, energy"
            .to_owned(),
        tables: vec![speed, traffic, serve, energy],
        notes,
        artifacts: vec![Artifact {
            name: "pe_occupancy.txt".to_owned(),
            bytes: pe_gantt(ctx, &weights).into_bytes(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ReportData {
        fig_inference(&Context::fast(), &ScenarioFilter::all())
    }

    #[test]
    fn headline_traffic_reduction_is_at_least_4x() {
        let (table, totals) = traffic(&Context::fast(), &ScenarioFilter::all());
        let reduction = totals[0] as f64 / totals[2].max(1) as f64;
        assert!(reduction >= 4.0, "zoo-wide reduction only {reduction:.2}x");
        let r = report();
        assert_eq!(r.tables[1], table);
        for row in r.tables[1].records() {
            let layer = row.str("layer");
            assert!(row.num("csc_mb") < row.num("dense_mb"), "{layer}");
            assert!(row.num("csc_act_mb") < row.num("csc_mb"), "{layer}");
        }
    }

    #[test]
    fn engines_order_on_the_same_cell() {
        let r = report();
        let speedups = r.tables[0].records();
        let cycles = |engine: InferEngine, density: f64, pes: usize| {
            speedups
                .iter()
                .find(|x| {
                    x.str("engine") == engine.label()
                        && x.num("density") == density
                        && x.int("pes") == pes as i64
                })
                .map(|x| x.int("cycles") as u64)
                .expect("cell present")
        };
        let (rows, cols) = sweep_dims(&Context::fast());
        for &d in densities(&Context::fast()) {
            for &pes in pe_counts(&Context::fast()) {
                let dense = cycles(InferEngine::Dense, d, pes);
                let csc = cycles(InferEngine::Csc, d, pes);
                let act = cycles(InferEngine::CscAct, d, pes);
                assert_eq!(dense, PeArray::new(pes).dense_cycles(rows, cols));
                assert!(csc < dense, "CSC must beat dense at density {d}");
                assert!(act < csc, "activation skipping must beat plain CSC");
            }
        }
        // LNZD only ever skips work on the csc+act engine.
        for row in &speedups {
            assert_eq!(
                row.int("skipped") > 0,
                row.str("engine") == InferEngine::CscAct.label(),
                "{}",
                row.str("engine")
            );
        }
    }

    #[test]
    fn serving_and_energy_hold_together() {
        let r = report();
        let serving = r.tables[2].records();
        // 2 batches x 2 tenants.
        assert_eq!(serving.len(), 4);
        for row in &serving {
            assert!(
                row.int("completed") > 0,
                "batch {} {}",
                row.int("batch"),
                row.str("tenant")
            );
            assert!(row.num("p99_us") >= row.num("p50_us") && row.num("p50_us") > 0.0);
            assert!(row.num("ratio") > 1.0, "served traffic must compress");
        }
        let infer_ratio = serving
            .iter()
            .find(|x| x.str("tenant") == "infer")
            .map(|x| x.num("ratio"))
            .unwrap();
        assert!(infer_ratio > 2.0, "infer ratio {infer_ratio:.2}");

        let energy = r.tables[3].records();
        assert_eq!(energy.len(), 3);
        let joules = |e: InferEngine| {
            energy
                .iter()
                .find(|x| x.str("engine") == e.label())
                .unwrap()
                .num("joules")
        };
        assert!(joules(InferEngine::CscAct) < joules(InferEngine::Csc));
        assert!(joules(InferEngine::Csc) < joules(InferEngine::Dense));
        assert!(energy[0].num("saving").abs() < 1e-12, "dense saves nothing");
    }

    #[test]
    fn filters_cut_the_engine_axis() {
        let r = fig_inference(
            &Context::fast(),
            &ScenarioFilter::all().engine(InferEngine::Csc),
        );
        let speedups = r.tables[0].records();
        assert!(!speedups.is_empty());
        assert!(speedups
            .iter()
            .all(|x| x.str("engine") == InferEngine::Csc.label()));
    }

    #[test]
    fn report_renders() {
        let r = report();
        assert_eq!(r.tables.len(), 4);
        assert_eq!(r.artifacts.len(), 1);
        let gantt = String::from_utf8(r.artifacts[0].bytes.clone()).expect("text");
        assert!(gantt.lines().count() >= pe_counts(&Context::fast())[0] + 3);
        assert!(r.notes.iter().any(|n| n.contains("less")));
    }
}
