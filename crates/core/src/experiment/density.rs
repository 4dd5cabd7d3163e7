//! The activation-density experiments: per-layer density over training
//! (Fig. 4 and Fig. 6), the spatial sparsity images with their measured
//! offload (Fig. 5), and the loss-vs-density figure (Fig. 7).

use cdma_compress::windowed::WindowedStream;
use cdma_gpusim::DmaPipeline;
use cdma_models::NetworkSpec;
use cdma_sparsity::visual::{ascii_grid, density_bar, pgm_grid};
use cdma_sparsity::{ActivationGen, LossCurve, TRAINING_CHECKPOINTS};
use cdma_tensor::{Layout, Shape4};

use crate::report::{Artifact, Cell, Report, Table};
use crate::scenario::{Context, ScenarioFilter, ScenarioSet};
use crate::CdmaEngine;

/// Per-layer density samples across training for one network (Fig. 4 is
/// AlexNet; Fig. 6 covers the other five).
#[derive(Debug, Clone)]
pub struct DensityFigure {
    /// Network name.
    pub network: String,
    /// Training checkpoints (fractions of total training).
    pub checkpoints: Vec<f64>,
    /// `(layer, densities-at-checkpoints)` for ReLU/pool/fc layers.
    pub layers: Vec<(String, Vec<f64>)>,
}

/// Generates the per-layer density-over-training figure for a network.
fn density_figure(spec: &NetworkSpec, ctx: &Context) -> DensityFigure {
    let profile = ctx.profile(spec.name());
    let checkpoints: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let mut layers = Vec::new();
    for layer in spec.layers() {
        // The paper's figures show only sparsity-relevant layers.
        if !(layer.relu || layer.is_pool()) {
            continue;
        }
        let traj = profile
            .trajectory(&layer.name)
            .expect("profile covers spec");
        let ds: Vec<f64> = checkpoints.iter().map(|&t| traj.density_at(t)).collect();
        layers.push((layer.name.clone(), ds));
    }
    DensityFigure {
        network: spec.name().to_owned(),
        checkpoints,
        layers,
    }
}

fn density_table(fig: &DensityFigure) -> Table {
    let mut columns = vec!["layer".to_owned()];
    columns.extend(
        fig.checkpoints
            .iter()
            .map(|t| format!("d@{:.0}%", t * 100.0)),
    );
    let mut table = Table::with_columns(&format!("{} per-layer density", fig.network), columns);
    for (name, ds) in &fig.layers {
        let mut row: Vec<Cell> = vec![name.as_str().into()];
        row.extend(ds.iter().map(|&d| Cell::Num(d)));
        table.row(row);
    }
    table
}

/// The Fig. 4 report: AlexNet's per-layer density over training.
#[derive(Debug, Clone)]
pub struct Fig04Report {
    /// The density figure.
    pub figure: DensityFigure,
    /// AlexNet's element-weighted mean density over training.
    pub mean_density: f64,
}

/// Generates Fig. 4.
pub fn fig04(ctx: &Context) -> Fig04Report {
    let spec = ctx.spec("AlexNet");
    Fig04Report {
        figure: density_figure(&spec, ctx),
        mean_density: ctx.profile("AlexNet").mean_network_density(),
    }
}

impl Report for Fig04Report {
    fn name(&self) -> &'static str {
        "fig04"
    }

    fn title(&self) -> String {
        "Figure 4: AlexNet per-layer activation density over training".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        vec![density_table(&self.figure)]
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = vec!["final (100% trained) density per layer:".to_owned()];
        for (name, ds) in &self.figure.layers {
            let d = *ds.last().expect("non-empty");
            notes.push(format!("  {name:<8} {d:>5.2} {}", density_bar(d, 40)));
        }
        notes.push(format!(
            "network-wide mean density over training: {:.3} (paper: 0.506, i.e. 49.4% sparsity)",
            self.mean_density
        ));
        notes
    }
}

/// The Fig. 6 report: the other five networks' density figures.
#[derive(Debug, Clone)]
pub struct Fig06Report {
    /// One `(figure, mean density)` pair per network.
    pub figures: Vec<(DensityFigure, f64)>,
    /// Average network-wide sparsity across all six zoo networks
    /// (`None` when a filter hides part of the zoo).
    pub zoo_sparsity: Option<f64>,
}

/// Generates Fig. 6 (OverFeat, NiN, VGG, SqueezeNet, GoogLeNet).
pub fn fig06(ctx: &Context, filter: &ScenarioFilter) -> Fig06Report {
    let figures = ["OverFeat", "NiN", "VGG", "SqueezeNet", "GoogLeNet"]
        .into_iter()
        .filter(|n| filter.matches_network(n))
        .map(|network| {
            let spec = ctx.spec(network);
            (
                density_figure(&spec, ctx),
                ctx.profile(network).mean_network_density(),
            )
        })
        .collect();
    let zoo_sparsity = filter.is_empty().then(|| {
        let mean: f64 = ctx
            .specs()
            .iter()
            .map(|s| ctx.profile(s.name()).mean_network_density())
            .sum::<f64>()
            / ctx.specs().len() as f64;
        1.0 - mean
    });
    Fig06Report {
        figures,
        zoo_sparsity,
    }
}

impl Report for Fig06Report {
    fn name(&self) -> &'static str {
        "fig06"
    }

    fn title(&self) -> String {
        "Figure 6: per-layer density over training (the other five networks)".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        self.figures.iter().map(|(f, _)| density_table(f)).collect()
    }

    fn notes(&self) -> Vec<String> {
        let mut notes: Vec<String> = self
            .figures
            .iter()
            .map(|(f, mean)| {
                format!(
                    "{}: mean density over training {:.3} (sparsity {:.1}%)",
                    f.network,
                    mean,
                    (1.0 - mean) * 100.0
                )
            })
            .collect();
        if let Some(sparsity) = self.zoo_sparsity {
            notes.push(format!(
                "average network-wide sparsity across all six networks: {:.1}% (paper: 62%)",
                sparsity * 100.0
            ));
        }
        notes
    }
}

/// Fig. 7 data: loss curve plus the AlexNet conv-layer densities.
#[derive(Debug, Clone)]
pub struct Fig7Data {
    /// Training checkpoints.
    pub checkpoints: Vec<f64>,
    /// Loss value at each checkpoint.
    pub loss: Vec<f64>,
    /// `(layer, densities)` for conv1..conv4.
    pub conv_densities: Vec<(String, Vec<f64>)>,
}

/// The Fig. 7 report.
#[derive(Debug, Clone)]
pub struct Fig07Report {
    /// The figure's series.
    pub data: Fig7Data,
}

/// Generates Fig. 7.
pub fn fig07(ctx: &Context) -> Fig07Report {
    let profile = ctx.profile("AlexNet");
    let loss_curve = LossCurve::alexnet();
    let checkpoints: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let loss = checkpoints.iter().map(|&t| loss_curve.loss_at(t)).collect();
    let conv_densities = ["conv1", "conv2", "conv3", "conv4"]
        .iter()
        .map(|name| {
            let traj = profile.trajectory(name).expect("alexnet layer");
            (
                (*name).to_owned(),
                checkpoints.iter().map(|&t| traj.density_at(t)).collect(),
            )
        })
        .collect();
    Fig07Report {
        data: Fig7Data {
            checkpoints,
            loss,
            conv_densities,
        },
    }
}

impl Report for Fig07Report {
    fn name(&self) -> &'static str {
        "fig07"
    }

    fn title(&self) -> String {
        "Figure 7: training loss (left axis) and conv densities (right axis)".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut columns = vec!["t".to_owned(), "loss".to_owned()];
        columns.extend(self.data.conv_densities.iter().map(|(n, _)| n.clone()));
        let mut table = Table::with_columns("loss and conv densities", columns);
        for (i, &t) in self.data.checkpoints.iter().enumerate() {
            let mut row: Vec<Cell> = vec![Cell::Num(t), Cell::Num(self.data.loss[i])];
            row.extend(
                self.data
                    .conv_densities
                    .iter()
                    .map(|(_, ds)| Cell::Num(ds[i])),
            );
            table.row(row);
        }
        vec![table]
    }

    fn notes(&self) -> Vec<String> {
        // ASCII chart: loss '*' on a 2..7 axis, conv2 density '#' on 0..1.
        let mut notes = vec!["loss (*) scaled 2..7  |  conv2 density (#) scaled 0..1".to_owned()];
        let conv2 = &self.data.conv_densities[1].1;
        for (i, t) in self.data.checkpoints.iter().enumerate() {
            let loss_col = (((self.data.loss[i] - 2.0) / 5.0) * 50.0).round() as usize;
            let dens_col = (conv2[i] * 50.0).round() as usize;
            let mut line = vec![b' '; 52];
            line[loss_col.min(51)] = b'*';
            line[dens_col.min(51)] = if dens_col == loss_col { b'@' } else { b'#' };
            notes.push(format!(
                "{:>4.0}% |{}",
                t * 100.0,
                String::from_utf8(line).expect("ascii")
            ));
        }
        notes
    }
}

/// One row of Fig. 5's measured-offload table: the displayed layers'
/// activation data pushed through the real engine + DMA pipeline at one
/// training checkpoint.
#[derive(Debug, Clone)]
pub struct Fig05Row {
    /// Training progress.
    pub trained: f64,
    /// Measured ZVC compression ratio of the displayed tensors.
    pub ratio: f64,
    /// cDMA offload time of the displayed data, seconds.
    pub cdma_seconds: f64,
    /// Uncompressed vDNN offload time, seconds.
    pub vdnn_seconds: f64,
}

/// The Fig. 5 report: PGM images of AlexNet activation maps across
/// training (as artifacts) plus the measured offload of the same data.
#[derive(Debug, Clone)]
pub struct Fig05Report {
    /// Per-checkpoint offload measurements.
    pub rows: Vec<Fig05Row>,
    /// The rendered PGM images.
    pub images: Vec<Artifact>,
    /// ASCII previews of conv4 across training.
    pub previews: Vec<String>,
}

/// Generates Fig. 5: renders each displayed layer's activation maps at
/// every checkpoint of [`TRAINING_CHECKPOINTS`], and offloads the same
/// tensors through the cDMA engine and one incremental DMA pipeline.
pub fn fig05(ctx: &Context) -> Fig05Report {
    let spec = ctx.spec("AlexNet");
    let profile = ctx.profile("AlexNet");
    let set = ScenarioSet::builder().networks(["AlexNet"]).build();
    let cfg = set.scenarios()[0].config;
    let engine = CdmaEngine::zvc(cfg);

    // The layers Fig. 5 displays, with their grid arrangements (conv0 is
    // the paper's (8 x 12) grid of 55x55 maps).
    let display: [(&str, usize); 8] = [
        ("conv0", 12),
        ("pool0", 12),
        ("conv1", 16),
        ("pool1", 16),
        ("conv2", 24),
        ("conv3", 24),
        ("conv4", 16),
        ("pool2", 16),
    ];

    let mut rows = Vec::new();
    let mut images = Vec::new();
    // One compressed-stream buffer and one line table, recycled across
    // every tensor.
    let mut stream = WindowedStream::default();
    let mut lines = Vec::new();
    for &t in TRAINING_CHECKPOINTS.iter() {
        let mut pipe = DmaPipeline::new(cfg);
        // One generator per checkpoint, drawn across the layer loop, so
        // each layer's image is an independent sample (re-seeding inside
        // the loop would replay the same random stream for every layer).
        let mut gen = ActivationGen::seeded(0xF1605 + (t * 100.0) as u64);
        for (layer_name, grid_cols) in display {
            let layer = spec.layer(layer_name).expect("alexnet layer");
            let density = profile
                .trajectory(layer_name)
                .expect("profiled layer")
                .density_at(t);
            // One image's worth of channel planes, like the paper's single
            // boy image.
            let shape = Shape4::new(1, layer.out.c, layer.out.h, layer.out.w);
            let tensor = gen.generate(shape, Layout::Nchw, density);
            images.push(Artifact {
                name: format!("{}_trained{:03.0}.pgm", layer_name, t * 100.0),
                bytes: pgm_grid(&tensor, 0, grid_cols),
            });

            engine.compress_lines_into(tensor.as_slice(), &mut stream, &mut lines);
            for &(u, c) in &lines {
                pipe.push_line(0.0, u, c);
            }
        }
        let r = pipe.result();
        rows.push(Fig05Row {
            trained: t,
            ratio: r.uncompressed_bytes as f64 / r.compressed_bytes as f64,
            cdma_seconds: r.total_time,
            vdnn_seconds: r.uncompressed_bytes as f64 / cfg.pcie_bw,
        });
    }

    // Terminal preview: conv4 (13x13 planes are small enough for ASCII) at
    // 0%, 40% and 100% training — the dip-and-recover pattern is visible
    // as the images darken then lighten.
    let mut previews = Vec::new();
    for &t in &[0.0, 0.4, 1.0] {
        let layer = spec.layer("conv4").expect("alexnet conv4");
        let density = profile.trajectory("conv4").expect("conv4").density_at(t);
        let shape = Shape4::new(1, 8, layer.out.h, layer.out.w);
        let mut gen = ActivationGen::seeded(77);
        let tensor = gen.generate(shape, Layout::Nchw, density);
        previews.push(format!(
            "conv4 @ {:.0}% trained (density {:.2}), 8 of 256 channels:\n{}",
            t * 100.0,
            density,
            ascii_grid(&tensor, 0, 8)
        ));
    }

    Fig05Report {
        rows,
        images,
        previews,
    }
}

impl Report for Fig05Report {
    fn name(&self) -> &'static str {
        "fig05"
    }

    fn title(&self) -> String {
        "Figure 5: AlexNet activation maps (black = zero) + measured offload".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "measured offload of the displayed activations (1 image, ZVC)",
            &[
                "trained",
                "ratio",
                "cdma_offload_us",
                "vdnn_offload_us",
                "speedup",
            ],
        );
        for r in &self.rows {
            t.row([
                Cell::Num(r.trained),
                Cell::Num(r.ratio),
                Cell::Num(r.cdma_seconds * 1e6),
                Cell::Num(r.vdnn_seconds * 1e6),
                Cell::Num(r.vdnn_seconds / r.cdma_seconds),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = vec![format!(
            "{} PGM images rendered (written by --out; the U-curve in time: offloads are fastest at the sparsity dip)",
            self.images.len()
        )];
        notes.extend(self.previews.iter().cloned());
        notes
    }

    fn artifacts(&self) -> Vec<Artifact> {
        self.images.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_figures_cover_fig4_layers() {
        let ctx = Context::fast();
        let fig = fig04(&ctx).figure;
        let names: Vec<&str> = fig.layers.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "conv0", "pool0", "conv1", "pool1", "conv2", "conv3", "conv4", "pool2", "fc1", "fc2",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // Dense layers are filtered out.
        assert!(!names.contains(&"norm0"));
        assert!(!names.contains(&"fc3"));
    }

    #[test]
    fn fig07_loss_falls_densities_u_shape() {
        let f = fig07(&Context::fast()).data;
        assert!(f.loss[0] > 6.5 && *f.loss.last().unwrap() < 2.2);
        for (name, ds) in &f.conv_densities {
            let start = ds[0];
            let min = ds.iter().cloned().fold(f64::INFINITY, f64::min);
            let end = *ds.last().unwrap();
            assert!(min < start && min < end, "{name} not U-shaped");
        }
    }

    #[test]
    fn fig05_renders_images_and_measures_the_u_curve() {
        let report = fig05(&Context::fast());
        assert_eq!(report.rows.len(), TRAINING_CHECKPOINTS.len());
        assert_eq!(report.images.len(), TRAINING_CHECKPOINTS.len() * 8);
        assert!(report.images.iter().all(|a| a.bytes.starts_with(b"P5")));
        // Offloads are fastest at the sparsity dip (compression peaks).
        let dip = report.rows.iter().map(|r| r.ratio).fold(0.0f64, f64::max);
        assert!(dip > report.rows[0].ratio, "no dip: {dip}");
        assert!(report.rows.iter().all(|r| r.cdma_seconds < r.vdnn_seconds));
    }
}
