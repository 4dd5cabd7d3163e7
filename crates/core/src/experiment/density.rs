//! The activation-density experiments: per-layer density over training
//! (Fig. 4 and Fig. 6), the spatial sparsity images with their measured
//! offload (Fig. 5), and the loss-vs-density figure (Fig. 7).

use cdma_compress::windowed::WindowedStream;
use cdma_gpusim::DmaPipeline;
use cdma_models::NetworkSpec;
use cdma_sparsity::visual::{ascii_grid, density_bar, pgm_grid};
use cdma_sparsity::{ActivationGen, LossCurve, TRAINING_CHECKPOINTS};
use cdma_tensor::{Layout, Shape4};

use crate::report::{Artifact, Cell, ReportData, Table};
use crate::scenario::{Context, ScenarioFilter, ScenarioSet};
use crate::CdmaEngine;

/// The per-layer density-over-training table of a network (Fig. 4 is
/// AlexNet; Fig. 6 covers the other five): one row per ReLU/pool/fc
/// layer, one column per tenth of training. Also returns each row's
/// final (100% trained) density.
fn density_table(spec: &NetworkSpec, ctx: &Context) -> (Table, Vec<(String, f64)>) {
    let profile = ctx.profile(spec.name());
    let checkpoints: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let mut columns = vec!["layer".to_owned()];
    columns.extend(checkpoints.iter().map(|t| format!("d@{:.0}%", t * 100.0)));
    let mut table = Table::with_columns(&format!("{} per-layer density", spec.name()), columns);
    let mut finals = Vec::new();
    for layer in spec.layers() {
        // The paper's figures show only sparsity-relevant layers.
        if !(layer.relu || layer.is_pool()) {
            continue;
        }
        let traj = profile
            .trajectory(&layer.name)
            .expect("profile covers spec");
        let mut row: Vec<Cell> = vec![layer.name.as_str().into()];
        row.extend(checkpoints.iter().map(|&t| Cell::Num(traj.density_at(t))));
        table.row(row);
        finals.push((layer.name.clone(), traj.density_at(1.0)));
    }
    (table, finals)
}

/// Generates Fig. 4: AlexNet's per-layer density over training.
pub fn fig04(ctx: &Context) -> ReportData {
    let spec = ctx.spec("AlexNet");
    let (table, finals) = density_table(&spec, ctx);
    let mut notes = vec!["final (100% trained) density per layer:".to_owned()];
    for (name, d) in finals {
        notes.push(format!("  {name:<8} {d:>5.2} {}", density_bar(d, 40)));
    }
    notes.push(format!(
        "network-wide mean density over training: {:.3} (paper: 0.506, i.e. 49.4% sparsity)",
        ctx.profile("AlexNet").mean_network_density()
    ));
    ReportData {
        name: "fig04",
        title: "Figure 4: AlexNet per-layer activation density over training".to_owned(),
        tables: vec![table],
        notes,
        ..ReportData::default()
    }
}

/// Generates Fig. 6 (OverFeat, NiN, VGG, SqueezeNet, GoogLeNet), plus the
/// average network-wide sparsity across all six zoo networks when no
/// filter hides part of the zoo.
pub fn fig06(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for network in ["OverFeat", "NiN", "VGG", "SqueezeNet", "GoogLeNet"]
        .into_iter()
        .filter(|n| filter.matches_network(n))
    {
        let spec = ctx.spec(network);
        tables.push(density_table(&spec, ctx).0);
        let mean = ctx.profile(network).mean_network_density();
        notes.push(format!(
            "{}: mean density over training {:.3} (sparsity {:.1}%)",
            spec.name(),
            mean,
            (1.0 - mean) * 100.0
        ));
    }
    if filter.is_empty() {
        let mean: f64 = ctx
            .specs()
            .iter()
            .map(|s| ctx.profile(s.name()).mean_network_density())
            .sum::<f64>()
            / ctx.specs().len() as f64;
        notes.push(format!(
            "average network-wide sparsity across all six networks: {:.1}% (paper: 62%)",
            (1.0 - mean) * 100.0
        ));
    }
    ReportData {
        name: "fig06",
        title: "Figure 6: per-layer density over training (the other five networks)".to_owned(),
        tables,
        notes,
        ..ReportData::default()
    }
}

/// Generates Fig. 7: the training loss curve beside the AlexNet
/// conv1..conv4 densities, plus an ASCII chart of loss and conv2.
pub fn fig07(ctx: &Context) -> ReportData {
    let profile = ctx.profile("AlexNet");
    let loss_curve = LossCurve::alexnet();
    let checkpoints: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let convs = ["conv1", "conv2", "conv3", "conv4"];
    let trajectories: Vec<_> = convs
        .iter()
        .map(|name| profile.trajectory(name).expect("alexnet layer"))
        .collect();
    let mut columns = vec!["t".to_owned(), "loss".to_owned()];
    columns.extend(convs.iter().map(|n| (*n).to_owned()));
    let mut table = Table::with_columns("loss and conv densities", columns);
    // ASCII chart: loss '*' on a 2..7 axis, conv2 density '#' on 0..1.
    let mut notes = vec!["loss (*) scaled 2..7  |  conv2 density (#) scaled 0..1".to_owned()];
    for &t in &checkpoints {
        let loss = loss_curve.loss_at(t);
        let densities: Vec<f64> = trajectories.iter().map(|traj| traj.density_at(t)).collect();
        let mut row: Vec<Cell> = vec![Cell::Num(t), Cell::Num(loss)];
        row.extend(densities.iter().map(|&d| Cell::Num(d)));
        table.row(row);

        let loss_col = (((loss - 2.0) / 5.0) * 50.0).round() as usize;
        let dens_col = (densities[1] * 50.0).round() as usize;
        let mut line = vec![b' '; 52];
        line[loss_col.min(51)] = b'*';
        line[dens_col.min(51)] = if dens_col == loss_col { b'@' } else { b'#' };
        notes.push(format!(
            "{:>4.0}% |{}",
            t * 100.0,
            String::from_utf8(line).expect("ascii")
        ));
    }
    ReportData {
        name: "fig07",
        title: "Figure 7: training loss (left axis) and conv densities (right axis)".to_owned(),
        tables: vec![table],
        notes,
        ..ReportData::default()
    }
}

/// Generates Fig. 5: renders each displayed AlexNet layer's activation
/// maps at every checkpoint of [`TRAINING_CHECKPOINTS`] as PGM artifacts,
/// and offloads the same tensors through the cDMA engine and one
/// incremental DMA pipeline per checkpoint.
pub fn fig05(ctx: &Context) -> ReportData {
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

    let mut table = Table::new(
        "measured offload of the displayed activations (1 image, ZVC)",
        &[
            "trained",
            "ratio",
            "cdma_offload_us",
            "vdnn_offload_us",
            "speedup",
        ],
    );
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
        let cdma_seconds = r.total_time;
        let vdnn_seconds = r.uncompressed_bytes as f64 / cfg.pcie_bw;
        table.row([
            Cell::Num(t),
            Cell::Num(r.uncompressed_bytes as f64 / r.compressed_bytes as f64),
            Cell::Num(cdma_seconds * 1e6),
            Cell::Num(vdnn_seconds * 1e6),
            Cell::Num(vdnn_seconds / cdma_seconds),
        ]);
    }

    let mut notes = vec![format!(
        "{} PGM images rendered (written by --out; the U-curve in time: offloads are fastest at the sparsity dip)",
        images.len()
    )];
    // Terminal preview: conv4 (13x13 planes are small enough for ASCII) at
    // 0%, 40% and 100% training — the dip-and-recover pattern is visible
    // as the images darken then lighten.
    for &t in &[0.0, 0.4, 1.0] {
        let layer = spec.layer("conv4").expect("alexnet conv4");
        let density = profile.trajectory("conv4").expect("conv4").density_at(t);
        let shape = Shape4::new(1, 8, layer.out.h, layer.out.w);
        let mut gen = ActivationGen::seeded(77);
        let tensor = gen.generate(shape, Layout::Nchw, density);
        notes.push(format!(
            "conv4 @ {:.0}% trained (density {:.2}), 8 of 256 channels:\n{}",
            t * 100.0,
            density,
            ascii_grid(&tensor, 0, 8)
        ));
    }

    ReportData {
        name: "fig05",
        title: "Figure 5: AlexNet activation maps (black = zero) + measured offload".to_owned(),
        tables: vec![table],
        notes,
        artifacts: images,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_figures_cover_fig4_layers() {
        let report = fig04(&Context::fast());
        let rows = report.tables[0].records();
        let names: Vec<&str> = rows.iter().map(|r| r.str("layer")).collect();
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
        let report = fig07(&Context::fast());
        let rows = report.tables[0].records();
        let loss: Vec<f64> = rows.iter().map(|r| r.num("loss")).collect();
        assert!(loss[0] > 6.5 && *loss.last().unwrap() < 2.2);
        for name in ["conv1", "conv2", "conv3", "conv4"] {
            let ds: Vec<f64> = rows.iter().map(|r| r.num(name)).collect();
            let start = ds[0];
            let min = ds.iter().cloned().fold(f64::INFINITY, f64::min);
            let end = *ds.last().unwrap();
            assert!(min < start && min < end, "{name} not U-shaped");
        }
    }

    #[test]
    fn fig05_renders_images_and_measures_the_u_curve() {
        let report = fig05(&Context::fast());
        let rows = report.tables[0].records();
        assert_eq!(rows.len(), TRAINING_CHECKPOINTS.len());
        assert_eq!(report.artifacts.len(), TRAINING_CHECKPOINTS.len() * 8);
        assert!(report.artifacts.iter().all(|a| a.bytes.starts_with(b"P5")));
        // Offloads are fastest at the sparsity dip (compression peaks).
        let dip = rows.iter().map(|r| r.num("ratio")).fold(0.0f64, f64::max);
        assert!(dip > rows[0].num("ratio"), "no dip: {dip}");
        assert!(rows
            .iter()
            .all(|r| r.num("cdma_offload_us") < r.num("vdnn_offload_us")));
    }
}
