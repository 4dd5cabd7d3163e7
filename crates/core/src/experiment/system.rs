//! The system-level experiments: design overheads (Section V-C), energy
//! (Section VII-C), memory footprint (Section III), compressed DRAM
//! storage (Section IX) and the design-choice ablations.

use cdma_compress::{windowed, Algorithm};
use cdma_gpusim::area::AreaModel;
use cdma_gpusim::dram_store::CompressedDramStore;
use cdma_gpusim::energy::EnergyModel;
use cdma_gpusim::{OffloadSim, SystemConfig, ZvcEngine};
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4};
use cdma_vdnn::{
    memory, traffic, ComputeModel, CudnnVersion, TimelineSim, TransferPolicy, UniformRatio,
};

use super::grid::headline;
use crate::report::{Cell, Report, Table};
use crate::scenario::{Context, Runner, ScenarioFilter, ScenarioSet};

/// One buffer-size point of the measured-stream validation sweep.
#[derive(Debug, Clone)]
pub struct BufferPoint {
    /// DMA staging-buffer size, bytes.
    pub buffer_bytes: usize,
    /// Peak staging-buffer occupancy, bytes.
    pub peak_occupancy: f64,
    /// Effective offload bandwidth, bytes/second.
    pub effective_bw: f64,
    /// PCIe link utilization.
    pub link_utilization: f64,
}

/// The Section V-C overheads report.
#[derive(Debug, Clone)]
pub struct OverheadsReport {
    /// The platform.
    pub cfg: SystemConfig,
    /// The area model.
    pub area: AreaModel,
    /// The measured buffer-sizing sweep (SqueezeNet at the sparsity dip).
    pub buffer_sweep: Vec<BufferPoint>,
}

/// Generates the Section V-C design-overheads report.
pub fn overheads(ctx: &Context) -> OverheadsReport {
    let set = ScenarioSet::builder()
        .networks(["SqueezeNet"])
        .checkpoints([0.35])
        .seed(7)
        .build();
    let base = &set.scenarios()[0];
    let cfg = base.config;
    // Real ZVC line sizes (SqueezeNet at the sparsity dip) through the
    // event-stepped pipeline, at several staging-buffer sizes.
    let stream = ctx.measured_stream(base);
    let mut buffer_sweep = Vec::new();
    for buffer_kb in [8usize, 32, 70, 256] {
        let sized = SystemConfig {
            dma_buffer: buffer_kb * 1024,
            ..cfg
        };
        let r = OffloadSim::new(sized)
            .run_lines((0..stream.layer_count()).flat_map(|i| stream.layer_lines(i)));
        buffer_sweep.push(BufferPoint {
            buffer_bytes: buffer_kb * 1024,
            peak_occupancy: r.max_buffer_occupancy,
            effective_bw: r.effective_bw(),
            link_utilization: r.link_utilization(),
        });
    }
    OverheadsReport {
        cfg,
        area: AreaModel::default(),
        buffer_sweep,
    }
}

impl Report for OverheadsReport {
    fn name(&self) -> &'static str {
        "overheads"
    }

    fn title(&self) -> String {
        "Section V-C: cDMA design overheads".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let engines = self.cfg.mem_controllers;
        let buffer_kb = self.cfg.dma_buffer as f64 / 1024.0;
        let mut area = Table::new(
            "die area",
            &["component", "sizing", "measured_mm2", "paper"],
        );
        area.row([
            "(de)compression units".into(),
            format!("{engines} x {:.4} mm2", self.area.engines_mm2(1)).into(),
            Cell::Num(self.area.engines_mm2(engines)),
            "0.31 mm2".into(),
        ]);
        area.row([
            "DMA staging buffer".into(),
            format!("{buffer_kb:.0} KB SRAM").into(),
            Cell::Num(self.area.buffer_mm2(buffer_kb)),
            "0.21 mm2".into(),
        ]);
        area.row([
            "total".into(),
            "".into(),
            Cell::Num(self.area.total_mm2(engines, buffer_kb)),
            "~0.52 mm2".into(),
        ]);
        area.row([
            "die fraction (%)".into(),
            format!("vs {:.0} mm2", self.area.die_area).into(),
            Cell::Num(self.area.die_fraction(engines, buffer_kb) * 100.0),
            "negligible".into(),
        ]);

        let mut sweep = Table::new(
            "buffer sizing validated against a measured stream",
            &[
                "buffer_kb",
                "peak_occupancy_kb",
                "effective_gbps",
                "link_utilization",
            ],
        );
        for p in &self.buffer_sweep {
            sweep.row([
                Cell::Num(p.buffer_bytes as f64 / 1024.0),
                Cell::Num(p.peak_occupancy / 1024.0),
                Cell::Num(p.effective_bw / 1e9),
                Cell::Num(p.link_utilization),
            ]);
        }
        vec![area, sweep]
    }

    fn notes(&self) -> Vec<String> {
        let engine = ZvcEngine::new(self.cfg.engine_clock);
        let engines = self.cfg.mem_controllers;
        vec![
            format!(
                "buffer sizing: usable COMP_BW {:.0} GB/s x memory latency {:.0} ns = {:.1} KB (buffer: {:.0} KB)",
                self.cfg.usable_comp_bw() / 1e9,
                self.cfg.mem_latency * 1e9,
                self.cfg.bandwidth_delay_bytes() / 1024.0,
                self.cfg.dma_buffer as f64 / 1024.0
            ),
            format!(
                "engine pipeline (Fig. 10): compress 128 B in {} cycles, decompress in {}",
                engine.compress_cycles(128),
                engine.decompress_cycles(128)
            ),
            format!(
                "per-engine throughput {:.1} GB/s; {engines} engines aggregate {:.1} GB/s (provisioned COMP_BW: {:.0} GB/s)",
                engine.throughput() / 1e9,
                engine.aggregate_throughput(engines) / 1e9,
                self.cfg.comp_bw / 1e9
            ),
            "the paper's 70 KB design point is the knee: smaller buffers throttle the read stream under compression, larger ones buy nothing".to_owned(),
        ]
    }
}

/// One network's transfer-energy comparison.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Network name.
    pub network: String,
    /// ZVC compression ratio.
    pub ratio: f64,
    /// vDNN round-trip energy per step, joules.
    pub vdnn_joules: f64,
    /// cDMA round-trip energy per step, joules.
    pub cdma_joules: f64,
    /// Fractional transfer-energy saving.
    pub saving: f64,
}

/// The Section VII-C energy report.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// One row per network.
    pub rows: Vec<EnergyRow>,
}

/// Generates the Section VII-C energy comparison (ZVC, NCHW).
pub fn energy(ctx: &Context, runner: &Runner, filter: &ScenarioFilter) -> EnergyReport {
    let set = ScenarioSet::paper_grid().filtered(filter).filtered(
        &ScenarioFilter::all()
            .layout(Layout::Nchw)
            .algorithm(Algorithm::Zvc),
    );
    let model = EnergyModel::default();
    let rows = runner.run(&set, |s| {
        let t = ctx.traffic(&s.network, s.algorithm, s.layout);
        let bytes = t.stats.uncompressed_bytes;
        EnergyRow {
            network: s.network.clone(),
            ratio: t.avg_ratio(),
            vdnn_joules: model.round_trip(bytes, 1.0).total(),
            cdma_joules: model.round_trip(bytes, t.avg_ratio()).total(),
            saving: model.savings_fraction(bytes, t.avg_ratio()),
        }
    });
    EnergyReport { rows }
}

impl Report for EnergyReport {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn title(&self) -> String {
        "Section VII-C: offload+prefetch round-trip energy, vDNN vs cDMA-ZV".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "transfer energy per step",
            &[
                "network",
                "zv_ratio",
                "vdnn_joules",
                "cdma_joules",
                "saving",
            ],
        );
        for r in &self.rows {
            t.row([
                r.network.as_str().into(),
                Cell::Num(r.ratio),
                Cell::Num(r.vdnn_joules),
                Cell::Num(r.cdma_joules),
                Cell::Num(r.saving),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        if self.rows.is_empty() {
            return Vec::new();
        }
        let avg = self.rows.iter().map(|r| r.saving).sum::<f64>() / self.rows.len() as f64;
        vec![format!(
            "average transfer-energy saving: {:.1}% (plus the 32% average runtime reduction lowers static energy further)",
            avg * 100.0
        )]
    }
}

/// One network's GPU memory footprint.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Network name.
    pub network: String,
    /// Baseline footprint, bytes.
    pub baseline_bytes: u64,
    /// Activation share of the baseline.
    pub activation_fraction: f64,
    /// vDNN footprint, bytes.
    pub vdnn_bytes: u64,
    /// Fractional saving from vDNN offloading.
    pub saving: f64,
}

/// The Section III memory-footprint report.
#[derive(Debug, Clone)]
pub struct MemoryUsageReport {
    /// One row per network.
    pub rows: Vec<MemoryRow>,
}

/// Generates the Section III memory-footprint accounting.
pub fn memory_usage(ctx: &Context, filter: &ScenarioFilter) -> MemoryUsageReport {
    let rows = ctx
        .specs()
        .iter()
        .filter(|s| filter.matches_network(s.name()))
        .map(|spec| {
            let base = memory::baseline_footprint(spec);
            let vdnn = memory::vdnn_footprint(spec);
            MemoryRow {
                network: spec.name().to_owned(),
                baseline_bytes: base.total(),
                activation_fraction: base.activation_fraction(),
                vdnn_bytes: vdnn.total(),
                saving: memory::vdnn_savings(spec),
            }
        })
        .collect();
    MemoryUsageReport { rows }
}

impl Report for MemoryUsageReport {
    fn name(&self) -> &'static str {
        "memory_usage"
    }

    fn title(&self) -> String {
        "GPU memory footprint per training step (weights + optimizer + activations)".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "footprints",
            &[
                "network",
                "baseline_gb",
                "activation_fraction",
                "vdnn_gb",
                "saving",
            ],
        );
        for r in &self.rows {
            t.row([
                r.network.as_str().into(),
                Cell::Num(r.baseline_bytes as f64 / 1e9),
                Cell::Num(r.activation_fraction),
                Cell::Num(r.vdnn_bytes as f64 / 1e9),
                Cell::Num(r.saving),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        vec![
            "Section III: activations dominate; vDNN offloading reclaims them".to_owned(),
            "note: workspace buffers (cuDNN scratch) are not modelled; real footprints are larger"
                .to_owned(),
        ]
    }
}

/// One network's compressed-DRAM-storage summary.
#[derive(Debug, Clone)]
pub struct FootprintRow {
    /// Network name.
    pub network: String,
    /// Mid-training network density.
    pub density: f64,
    /// Capacity saving of the compressed store.
    pub capacity_saving: f64,
    /// Line-table overhead relative to logical bytes.
    pub table_overhead: f64,
    /// Sectors touched by a dense line-0 read.
    pub line0_sectors: usize,
}

/// The Section IX compressed-DRAM report.
#[derive(Debug, Clone)]
pub struct FootprintReport {
    /// One row per network.
    pub rows: Vec<FootprintRow>,
}

/// Generates the Section IX compressed in-DRAM storage sketch.
pub fn footprint(ctx: &Context, filter: &ScenarioFilter) -> FootprintReport {
    let rows = ctx
        .specs()
        .iter()
        .filter(|s| filter.matches_network(s.name()))
        .map(|spec| {
            let profile = ctx.profile(spec.name());
            // Representative mid-training density, on a scaled-down tensor
            // with the network's own statistics.
            let density = profile.network_density_at(0.5);
            let mut gen = ActivationGen::seeded(31);
            let t = gen.generate(Shape4::new(2, 32, 27, 27), Layout::Nchw, density);
            let store = CompressedDramStore::store(t.as_slice());
            let stats = store.stats();
            assert_eq!(store.load(), t.as_slice(), "lossless store");
            FootprintRow {
                network: spec.name().to_owned(),
                density,
                capacity_saving: stats.savings(),
                table_overhead: stats.table_bytes as f64 / stats.logical_bytes as f64,
                line0_sectors: store.line_read_sectors(0),
            }
        })
        .collect();
    FootprintReport { rows }
}

impl Report for FootprintReport {
    fn name(&self) -> &'static str {
        "footprint"
    }

    fn title(&self) -> String {
        "Section IX: storing activations ZVC-compressed inside GPU DRAM".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "compressed-store accounting",
            &[
                "network",
                "density_at_50pct",
                "capacity_saving",
                "table_overhead",
                "line0_read_sectors",
            ],
        );
        for r in &self.rows {
            t.row([
                r.network.as_str().into(),
                Cell::Num(r.density),
                Cell::Num(r.capacity_saving),
                Cell::Num(r.table_overhead),
                r.line0_sectors.into(),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        vec![
            "future-work sketch in the paper; line table = 8 B per 128 B line (6.25% overhead)"
                .to_owned(),
            "a random 128 B line read costs 1 table sector + popcount(mask) data sectors"
                .to_owned(),
        ]
    }
}

/// The design-ablations report (five sweeps).
#[derive(Debug, Clone)]
pub struct AblationsReport {
    window: Table,
    comp_bw: Table,
    buffer: Table,
    link: Table,
    policy: Table,
}

/// Generates the five design-choice ablations of DESIGN.md §5.
pub fn ablations(ctx: &Context, runner: &Runner) -> AblationsReport {
    AblationsReport {
        window: ablation_window(),
        comp_bw: ablation_comp_bw(ctx, runner),
        buffer: ablation_buffer(runner),
        link: ablation_link(ctx),
        policy: ablation_policy(ctx, runner),
    }
}

/// Window size: the paper reports results "did not change much" from 4 KB
/// up to 64 KB.
fn ablation_window() -> Table {
    let mut gen = ActivationGen::seeded(5);
    let t = gen.generate(Shape4::new(4, 64, 27, 27), Layout::Nchw, 0.35);
    let mut table = Table::new(
        "compression window size (ratios per algorithm)",
        &["window_kb", "rl", "zv", "zl"],
    );
    for kb in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut row: Vec<Cell> = vec![kb.into()];
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let stats = windowed::compress_stats(&codec, t.as_slice(), kb * 1024);
            row.push(Cell::Num(stats.ratio()));
        }
        table.row(row);
    }
    table
}

/// COMP_BW sweep: how much DRAM read bandwidth must cDMA provision?
fn ablation_comp_bw(ctx: &Context, runner: &Runner) -> Table {
    let points = [25.0, 50.0, 100.0, 150.0, 200.0, 236.0];
    let rows = runner.map(&points, |&comp_gb| {
        let cfg = SystemConfig {
            comp_bw: comp_gb * 1e9,
            ..SystemConfig::titan_x_pcie3()
        };
        let h = headline(ctx, cfg);
        (comp_gb, h.avg_improvement, h.max_improvement)
    });
    let mut table = Table::new(
        "provisioned compression read bandwidth (COMP_BW)",
        &["comp_bw_gbps", "avg_improvement", "max_improvement"],
    );
    for (comp_gb, avg, max) in rows {
        table.row([Cell::Num(comp_gb), Cell::Num(avg), Cell::Num(max)]);
    }
    table
}

/// Buffer sweep through the discrete-event pipeline at the maximum
/// observed ratio.
fn ablation_buffer(runner: &Runner) -> Table {
    let sizes = [8usize, 16, 32, 48, 70, 128];
    let rows = runner.map(&sizes, |&kb| {
        let cfg = SystemConfig {
            dma_buffer: kb * 1024,
            ..SystemConfig::titan_x_pcie3()
        };
        let r = OffloadSim::new(cfg).run_uniform(32 << 20, 13.8);
        (kb, r.effective_bw(), r.link_utilization())
    });
    let mut table = Table::new(
        "DMA staging-buffer size (13.8x data)",
        &["buffer_kb", "effective_gbps", "link_utilization"],
    );
    for (kb, bw, util) in rows {
        table.row([kb.into(), Cell::Num(bw / 1e9), Cell::Num(util)]);
    }
    table
}

/// Interconnect generations and multi-GPU sharing (Section IX).
fn ablation_link(ctx: &Context) -> Table {
    let mut table = Table::new(
        "interconnect (Section IX)",
        &[
            "link",
            "bw_gbps",
            "vdnn_perf_squeezenet",
            "cdma_avg_improvement",
        ],
    );
    for (name, cfg) in [
        ("PCIe gen3", SystemConfig::titan_x_pcie3()),
        ("NVLink x1", SystemConfig::titan_x_nvlink()),
        (
            "NVLink / 4 GPUs",
            SystemConfig::titan_x_nvlink().shared_link(4),
        ),
        (
            "NVLink / 8 GPUs",
            SystemConfig::titan_x_nvlink().shared_link(8),
        ),
    ] {
        let h = headline(ctx, cfg);
        let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
        let spec = ctx.spec("SqueezeNet");
        let vdnn_perf = sim.normalized_performance(&spec, &UniformRatio::uniform(&spec, 1.0));
        table.row([
            name.into(),
            Cell::Num(cfg.pcie_bw / 1e9),
            Cell::Num(vdnn_perf),
            Cell::Num(h.avg_improvement),
        ]);
    }
    table
}

/// Offload-all vs conv-only policy.
fn ablation_policy(ctx: &Context, runner: &Runner) -> Table {
    let cfg = SystemConfig::titan_x_pcie3();
    let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
    let rows = runner.map(ctx.specs(), |spec| {
        let t = ctx.traffic(spec.name(), Algorithm::Zvc, Layout::Nchw);
        let ratios = traffic::per_layer_ratios(&t);
        let conv_only = |ratios| UniformRatio::new(spec, TransferPolicy::OffloadConv(ratios));
        let all_plain = sim.normalized_performance(spec, &UniformRatio::uniform(spec, 1.0));
        let conv_plain =
            sim.normalized_performance(spec, &conv_only(vec![1.0; spec.layers().len()]));
        let all_zv = sim.normalized_performance(
            spec,
            &UniformRatio::new(spec, TransferPolicy::OffloadAll(ratios.clone())),
        );
        let conv_zv = sim.normalized_performance(spec, &conv_only(ratios));
        (
            spec.name().to_owned(),
            all_plain,
            conv_plain,
            all_zv,
            conv_zv,
        )
    });
    let mut table = Table::new(
        "offload policy: all layers vs conv-only",
        &[
            "network",
            "all_vdnn",
            "conv_vdnn",
            "all_cdma_zv",
            "conv_cdma_zv",
        ],
    );
    for (net, a, b, c, d) in rows {
        table.row([
            net.into(),
            Cell::Num(a),
            Cell::Num(b),
            Cell::Num(c),
            Cell::Num(d),
        ]);
    }
    table
}

impl Report for AblationsReport {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn title(&self) -> String {
        "Ablations: window size, COMP_BW, buffer, interconnect, offload policy".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        vec![
            self.window.clone(),
            self.comp_bw.clone(),
            self.buffer.clone(),
            self.link.clone(),
            self.policy.clone(),
        ]
    }

    fn notes(&self) -> Vec<String> {
        vec![
            "window: Section VII-A — 4 KB default; up to 64 KB results did not change much"
                .to_owned(),
            "COMP_BW: Section V-C — 200 GB/s reaps most of the benefit of sparse compression"
                .to_owned(),
            "buffer: Section V-C — 70 KB (the 200 GB/s x 350 ns bandwidth-delay product) avoids stalls"
                .to_owned(),
            "link: NVLink relieves the bottleneck, but 4-8 GPUs sharing it land back at 10-20 GB/s"
                .to_owned(),
            "policy: offload-all maximizes memory savings but moves more bytes; conv-only stalls less"
                .to_owned(),
        ]
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
    fn overheads_buffer_sweep_shows_the_knee() {
        let report = overheads(&ctx());
        assert_eq!(report.buffer_sweep.len(), 4);
        // Bigger buffers never hurt; the smallest buffer throttles.
        let small = &report.buffer_sweep[0];
        let design = &report.buffer_sweep[2];
        assert!(design.effective_bw >= small.effective_bw);
        assert!(design.link_utilization > 0.5);
        assert_eq!(report.tables().len(), 2);
    }

    #[test]
    fn energy_savings_track_compression() {
        let report = energy(&ctx(), &Runner::sequential(), &ScenarioFilter::all());
        assert_eq!(report.rows.len(), 6);
        for r in &report.rows {
            assert!(r.cdma_joules < r.vdnn_joules, "{}", r.network);
            assert!(r.saving > 0.0 && r.saving < 1.0);
        }
    }

    #[test]
    fn memory_usage_shows_activation_dominance() {
        let report = memory_usage(&ctx(), &ScenarioFilter::all());
        assert_eq!(report.rows.len(), 6);
        for r in &report.rows {
            assert!(
                r.activation_fraction > 0.0 && r.activation_fraction < 1.0,
                "{}",
                r.network
            );
            assert!(r.vdnn_bytes < r.baseline_bytes);
        }
        // Section III: activations dominate on the mostly-convolutional
        // networks (weight-heavy fc stacks like AlexNet sit lower).
        let dominated = report
            .rows
            .iter()
            .filter(|r| r.activation_fraction > 0.5)
            .count();
        assert!(
            dominated >= 4,
            "only {dominated} networks activation-dominated"
        );
    }

    #[test]
    fn footprint_store_is_lossless_and_saves_capacity() {
        let report = footprint(&ctx(), &ScenarioFilter::all().network("SqueezeNet"));
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert!(r.capacity_saving > 0.0);
        assert!(r.table_overhead > 0.0 && r.table_overhead < 0.1);
    }

    #[test]
    fn ablations_produce_all_five_tables() {
        let report = ablations(&ctx(), &Runner::sequential());
        let tables = report.tables();
        assert_eq!(tables.len(), 5);
        assert!(tables.iter().all(|t| !t.rows().is_empty()));
    }
}
