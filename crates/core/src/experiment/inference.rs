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
//!    throughput, through the deterministic virtual-time harness.
//! 4. **energy** — the Section VII-C transfer-energy model applied to
//!    the zoo traffic totals per engine.

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
use crate::report::{Artifact, Cell, Report, Table};
use crate::scenario::{Context, Runner, ScenarioFilter, ScenarioSet};

/// Master seed (same spirit as the figure seeds: fixed).
const SEED: u64 = 42;
/// Weight density of the pruned layers (EIE evaluates ~10%).
const WEIGHT_DENSITY: f64 = 0.1;
/// Zero fraction of input activations (~30% nonzero, SparseNN's regime).
const ACT_ZERO_DENSITY: f64 = 0.7;
/// Offered inference load, requests per second of virtual time.
const SERVE_RATE: f64 = 20_000.0;

/// One cell of the speedup-vs-density sweep.
#[derive(Debug, Clone)]
pub struct InferSpeedupRow {
    /// Execution engine.
    pub engine: InferEngine,
    /// Weight density of the synthesized layer.
    pub density: f64,
    /// PEs in the array.
    pub pes: usize,
    /// Makespan in cycles.
    pub cycles: u64,
    /// `dense_cycles / cycles`.
    pub speedup: f64,
    /// Max-over-mean per-PE busy cycles.
    pub imbalance: f64,
    /// Broadcast cycles lost to full FIFOs.
    pub stalls: u64,
    /// Zero activations skipped by LNZD.
    pub skipped: u64,
}

/// Effective traffic for one zoo FC layer.
#[derive(Debug, Clone)]
pub struct InferTrafficRow {
    /// Network name.
    pub network: String,
    /// Layer name within the network.
    pub layer: String,
    /// Output neurons (weight-matrix rows).
    pub rows: usize,
    /// Input neurons (weight-matrix columns).
    pub cols: usize,
    /// Bytes a dense engine moves (weights + acts in + acts out).
    pub dense_bytes: u64,
    /// Bytes with CSC weights, raw activations.
    pub csc_bytes: u64,
    /// Bytes with CSC weights and ZVC'd input activations.
    pub csc_act_bytes: u64,
}

/// One tenant of one serving phase.
#[derive(Debug, Clone)]
pub struct InferServeRow {
    /// Inference batch size of the phase.
    pub batch: usize,
    /// Tenant label.
    pub tenant: String,
    /// Completed requests.
    pub completed: u64,
    /// Median latency, microseconds of virtual time.
    pub p50_us: f64,
    /// Tail latency, microseconds of virtual time.
    pub p99_us: f64,
    /// Served uncompressed bytes per second.
    pub goodput_gbps: f64,
    /// Measured uncompressed/wire ratio over the tenant's completions.
    pub ratio: f64,
}

/// Transfer energy per engine over the zoo FC traffic.
#[derive(Debug, Clone)]
pub struct InferEnergyRow {
    /// Execution engine.
    pub engine: InferEngine,
    /// Effective bytes the engine moves across the zoo FC layers.
    pub traffic_bytes: u64,
    /// Round-trip transfer energy, joules.
    pub joules: f64,
    /// Energy saving vs the dense engine, fraction.
    pub saving: f64,
}

/// The fig_inference report.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// Speedup sweep (engine-major, then density, then PE count).
    pub speedups: Vec<InferSpeedupRow>,
    /// Per-layer traffic rows over the zoo.
    pub traffic: Vec<InferTrafficRow>,
    /// Serving rows (batch-major, then tenant).
    pub serving: Vec<InferServeRow>,
    /// Per-engine energy rows.
    pub energy: Vec<InferEnergyRow>,
    /// Zoo-wide `dense / (csc + act)` traffic reduction.
    pub headline_reduction: f64,
    /// Per-PE busy-interval Gantt of one CSC+act run (report artifact).
    pub gantt: String,
}

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

/// Broadcast activations for the sweep: ~30% nonzero, seeded.
fn sweep_acts(cols: usize) -> Vec<f32> {
    let mut acts = vec![0.0f32; cols];
    fill_activations(SEED ^ 0xA11, ACT_ZERO_DENSITY, &mut acts);
    acts
}

fn speedup_rows(ctx: &Context, engine: InferEngine) -> Vec<InferSpeedupRow> {
    let (rows, cols) = sweep_dims(ctx);
    let acts = sweep_acts(cols);
    let mut out = Vec::new();
    for &density in densities(ctx) {
        // Synthesized once per density, re-sliced per PE count. The dense
        // engine ignores pruning: its workload is every weight.
        let matrix = engine
            .compressed_weights()
            .then(|| CscMatrix::synth(rows, cols, density, SEED));
        for &pes in pe_counts(ctx) {
            let arr = PeArray::new(pes);
            let workload = match &matrix {
                Some(m) => PeWorkload::from_matrix(m, pes),
                None => PeWorkload::dense(rows, cols, pes),
            };
            let t = arr.run(&workload, &acts, engine.skips_zero_activations());
            out.push(InferSpeedupRow {
                engine,
                density,
                pes,
                cycles: t.cycles,
                speedup: arr.dense_cycles(rows, cols) as f64 / t.cycles.max(1) as f64,
                imbalance: t.load_imbalance(),
                stalls: t.stall_cycles,
                skipped: t.skipped,
            });
        }
    }
    out
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

fn traffic_rows(ctx: &Context, filter: &ScenarioFilter) -> Vec<InferTrafficRow> {
    let zvc = Zvc::new();
    let sample = if ctx.is_fast() { 48 } else { 512 };
    let mut out = Vec::new();
    for net in zoo::all_networks() {
        if !filter.matches_network(net.name()) {
            continue;
        }
        for layer in net.layers() {
            let Some((rows, cols)) = fc_weight_dims(layer) else {
                continue;
            };
            let seed = SEED ^ (out.len() as u64) << 8;
            let weights_csc = csc_weight_bytes(rows, cols, sample, seed);
            let mut acts = vec![0.0f32; cols];
            fill_activations(seed ^ 0xAC7, ACT_ZERO_DENSITY, &mut acts);
            let acts_zvc = zvc.compressed_size(&acts) as u64;
            let (acts_in, acts_out) = ((cols * 4) as u64, (rows * 4) as u64);
            out.push(InferTrafficRow {
                network: net.name().to_owned(),
                layer: layer.name.clone(),
                rows,
                cols,
                dense_bytes: (rows * cols * 4) as u64 + acts_in + acts_out,
                csc_bytes: weights_csc + acts_in + acts_out,
                csc_act_bytes: weights_csc + acts_zvc + acts_out,
            });
        }
    }
    out
}

fn serving_rows(ctx: &Context, filter: &ScenarioFilter) -> Vec<InferServeRow> {
    let (rows, cols) = sweep_dims(ctx);
    let kernel = InferKernel::new(CscMatrix::synth(rows, cols, WEIGHT_DENSITY, SEED));
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
    let mut out = Vec::new();
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
        let report = run_virtual_with_kernel(
            &cfg,
            &loads,
            horizon,
            SEED,
            ServiceModel::default(),
            &kernel,
        );
        for t in &report.tenants {
            let c = &t.counters;
            let (p50, p99) = match &t.latency {
                Some(l) => (l.p50_s * 1e6, l.p99_s * 1e6),
                None => (0.0, 0.0),
            };
            out.push(InferServeRow {
                batch,
                tenant: t.name.clone(),
                completed: c.completed,
                p50_us: p50,
                p99_us: p99,
                goodput_gbps: c.uncompressed_bytes as f64 / report.elapsed_s.max(1e-12) / 1e9,
                ratio: c.uncompressed_bytes as f64 / c.wire_bytes.max(1) as f64,
            });
        }
    }
    out
}

fn energy_rows(traffic: &[InferTrafficRow]) -> Vec<InferEnergyRow> {
    let dense: u64 = traffic.iter().map(|r| r.dense_bytes).sum();
    if dense == 0 {
        return Vec::new();
    }
    let model = EnergyModel::default();
    InferEngine::ALL
        .into_iter()
        .map(|engine| {
            let bytes: u64 = traffic
                .iter()
                .map(|r| match engine {
                    InferEngine::Dense => r.dense_bytes,
                    InferEngine::Csc => r.csc_bytes,
                    InferEngine::CscAct => r.csc_act_bytes,
                })
                .sum();
            let ratio = dense as f64 / bytes.max(1) as f64;
            InferEnergyRow {
                engine,
                traffic_bytes: bytes,
                joules: model.round_trip(dense, ratio).total(),
                saving: model.savings_fraction(dense, ratio),
            }
        })
        .collect()
}

fn pe_gantt(ctx: &Context) -> String {
    let (rows, cols) = sweep_dims(ctx);
    let pes = pe_counts(ctx)[0];
    let matrix = CscMatrix::synth(rows, cols, WEIGHT_DENSITY, SEED);
    let arr = PeArray::new(pes);
    let t = arr.run(
        &PeWorkload::from_matrix(&matrix, pes),
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

/// The full experiment: PE-array speedups, zoo traffic, serving, energy.
pub fn fig_inference(ctx: &Context, runner: &Runner, filter: &ScenarioFilter) -> InferenceReport {
    // The engine axis rides the scenario machinery so `--filter
    // engine=csc` and `--jobs N` behave like every other sweep.
    let set = ScenarioSet::builder()
        .networks(["AlexNet"])
        .engines(InferEngine::ALL)
        .build()
        .filtered(filter);
    let speedups: Vec<InferSpeedupRow> = runner
        .run(&set, |s| speedup_rows(ctx, s.engine))
        .into_iter()
        .flatten()
        .collect();
    let traffic = traffic_rows(ctx, filter);
    let serving = serving_rows(ctx, filter);
    let energy = energy_rows(&traffic);
    let dense: u64 = traffic.iter().map(|r| r.dense_bytes).sum();
    let csc_act: u64 = traffic.iter().map(|r| r.csc_act_bytes).sum();
    InferenceReport {
        speedups,
        traffic,
        serving,
        energy,
        headline_reduction: dense as f64 / csc_act.max(1) as f64,
        gantt: pe_gantt(ctx),
    }
}

impl Report for InferenceReport {
    fn name(&self) -> &'static str {
        "fig_inference"
    }

    fn title(&self) -> String {
        "cdma-infer: CSC inference — speedup vs density, traffic, serving, energy".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
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
        for r in &self.speedups {
            speed.row([
                r.engine.label().into(),
                Cell::Num(r.density),
                r.pes.into(),
                r.cycles.into(),
                Cell::Num(r.speedup),
                Cell::Num(r.imbalance),
                r.stalls.into(),
                r.skipped.into(),
            ]);
        }
        let mut traffic = Table::new(
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
        for r in &self.traffic {
            traffic.row([
                r.network.as_str().into(),
                r.layer.as_str().into(),
                r.rows.into(),
                r.cols.into(),
                Cell::Num(r.dense_bytes as f64 / 1e6),
                Cell::Num(r.csc_bytes as f64 / 1e6),
                Cell::Num(r.csc_act_bytes as f64 / 1e6),
                Cell::Num(r.dense_bytes as f64 / r.csc_act_bytes.max(1) as f64),
            ]);
        }
        let mut serve = Table::new(
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
        for r in &self.serving {
            serve.row([
                r.batch.into(),
                r.tenant.as_str().into(),
                r.completed.into(),
                Cell::Num(r.p50_us),
                Cell::Num(r.p99_us),
                Cell::Num(r.goodput_gbps),
                Cell::Num(r.ratio),
            ]);
        }
        let mut energy = Table::new(
            "transfer energy over the zoo FC traffic",
            &["engine", "traffic_mb", "joules", "saving"],
        );
        for r in &self.energy {
            energy.row([
                r.engine.label().into(),
                Cell::Num(r.traffic_bytes as f64 / 1e6),
                Cell::Num(r.joules),
                Cell::Num(r.saving),
            ]);
        }
        vec![speed, traffic, serve, energy]
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        if !self.traffic.is_empty() {
            notes.push(format!(
                "zoo FC layers at {:.0}% weights x {:.0}% acts: csc+act moves {:.1}x less \
                 traffic than dense",
                WEIGHT_DENSITY * 100.0,
                (1.0 - ACT_ZERO_DENSITY) * 100.0,
                self.headline_reduction
            ));
        }
        if let Some(best) = self
            .speedups
            .iter()
            .filter(|r| r.engine == InferEngine::CscAct)
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        {
            notes.push(format!(
                "best PE-array speedup: {:.1}x at density {:.2} on {} PEs \
                 (imbalance {:.2}x, {} stall cycles)",
                best.speedup, best.density, best.pes, best.imbalance, best.stalls
            ));
        }
        let p99_of = |batch: usize| {
            self.serving
                .iter()
                .find(|r| r.batch == batch && r.tenant == "infer")
                .map(|r| r.p99_us)
        };
        if let (Some(b1), Some(b32)) = (p99_of(1), p99_of(32)) {
            notes.push(format!(
                "serving: batch-1 p99 {b1:.1} us vs batch-32 p99 {b32:.1} us \
                 on the pool shared with a compress tenant"
            ));
        }
        notes
    }

    fn artifacts(&self) -> Vec<Artifact> {
        vec![Artifact {
            name: "pe_occupancy.txt".to_owned(),
            bytes: self.gantt.clone().into_bytes(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> InferenceReport {
        fig_inference(
            &Context::fast(),
            &Runner::sequential(),
            &ScenarioFilter::all(),
        )
    }

    #[test]
    fn headline_traffic_reduction_is_at_least_4x() {
        let r = report();
        assert!(
            r.headline_reduction >= 4.0,
            "zoo-wide reduction only {:.2}x",
            r.headline_reduction
        );
        for row in &r.traffic {
            assert!(row.csc_bytes < row.dense_bytes, "{}", row.layer);
            assert!(row.csc_act_bytes < row.csc_bytes, "{}", row.layer);
        }
    }

    #[test]
    fn engines_order_on_the_same_cell() {
        let r = report();
        let cycles = |engine: InferEngine, density: f64, pes: usize| {
            r.speedups
                .iter()
                .find(|x| x.engine == engine && x.density == density && x.pes == pes)
                .map(|x| x.cycles)
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
        for row in &r.speedups {
            assert_eq!(
                row.skipped > 0,
                row.engine == InferEngine::CscAct,
                "{:?}",
                row.engine
            );
        }
    }

    #[test]
    fn serving_and_energy_hold_together() {
        let r = report();
        // 2 batches x 2 tenants.
        assert_eq!(r.serving.len(), 4);
        for row in &r.serving {
            assert!(row.completed > 0, "batch {} {}", row.batch, row.tenant);
            assert!(row.p99_us >= row.p50_us && row.p50_us > 0.0);
            assert!(row.ratio > 1.0, "served traffic must compress");
        }
        let infer_ratio = r
            .serving
            .iter()
            .find(|x| x.tenant == "infer")
            .map(|x| x.ratio)
            .unwrap();
        assert!(infer_ratio > 2.0, "infer ratio {infer_ratio:.2}");

        assert_eq!(r.energy.len(), 3);
        let joules = |e: InferEngine| r.energy.iter().find(|x| x.engine == e).unwrap().joules;
        assert!(joules(InferEngine::CscAct) < joules(InferEngine::Csc));
        assert!(joules(InferEngine::Csc) < joules(InferEngine::Dense));
        assert!((r.energy[0].saving).abs() < 1e-12, "dense saves nothing");
    }

    #[test]
    fn filters_cut_the_engine_axis() {
        let r = fig_inference(
            &Context::fast(),
            &Runner::sequential(),
            &ScenarioFilter::all().engine(InferEngine::Csc),
        );
        assert!(!r.speedups.is_empty());
        assert!(r.speedups.iter().all(|x| x.engine == InferEngine::Csc));
    }

    #[test]
    fn report_renders() {
        let r = report();
        assert_eq!(r.tables().len(), 4);
        assert_eq!(r.artifacts().len(), 1);
        let gantt = &r.gantt;
        assert!(gantt.lines().count() >= pe_counts(&Context::fast())[0] + 3);
        assert!(r.notes().iter().any(|n| n.contains("less")));
    }
}
