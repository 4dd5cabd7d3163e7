//! The training-centric experiments: Table I (plus real training of the
//! tiny counterpart networks), the whole-run projection over the sparsity
//! U-curve, and the RNN boundary claim.

use cdma_compress::Algorithm;
use cdma_dnn::synthetic::SyntheticImages;
use cdma_dnn::{Sgd, Trainer};
use cdma_models::rnn::{self, RnnActivation};
use cdma_models::{tiny, zoo};
use cdma_sparsity::TRAINING_CHECKPOINTS;
use cdma_tensor::Layout;
use cdma_vdnn::{
    ComputeModel, CudnnVersion, ProfiledDensity, TimelineSim, TransferPolicy, UniformRatio,
};

use crate::report::{Cell, Report, Table};
use crate::scenario::{Context, Runner, ScenarioFilter};

/// The standard training checkpoints of Fig. 5 (0%, 20%, …, 100%).
pub fn fig5_checkpoints() -> Vec<f64> {
    TRAINING_CHECKPOINTS.to_vec()
}

/// One trained tiny-counterpart result.
#[derive(Debug, Clone)]
pub struct TinyResult {
    /// Tiny network name.
    pub network: String,
    /// Top-1 accuracy on the held-out synthetic batch.
    pub accuracy: f64,
    /// Final evaluation loss.
    pub loss: f64,
    /// Training steps taken.
    pub steps: usize,
}

/// The Table I report: the paper's constants plus measured tiny-network
/// training through the `cdma-dnn` substrate.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// `(paper row, layer count, activation bytes/step)` per network.
    pub networks: Vec<(zoo::TableOneRow, usize, u64)>,
    /// Measured tiny-counterpart results.
    pub tiny: Vec<TinyResult>,
}

/// Generates Table I and trains the tiny counterparts on the synthetic
/// 4-class task (this repository cannot train ImageNet; see DESIGN.md).
pub fn table1(ctx: &Context, filter: &ScenarioFilter) -> Table1Report {
    let networks = ctx
        .specs()
        .iter()
        .zip(zoo::TABLE_ONE.iter())
        .filter(|(spec, _)| filter.matches_network(spec.name()))
        .map(|(spec, row)| (*row, spec.layers().len(), spec.total_activation_bytes()))
        .collect();

    let mut tiny_results = Vec::new();
    for (name, net) in [
        ("tiny-alexnet", tiny::tiny_alexnet(4, 7)),
        ("tiny-googlenet", tiny::tiny_googlenet(4, 7)),
    ] {
        let mut data = SyntheticImages::new(4, 1, 16, 21);
        let mut trainer = Trainer::new(net, Sgd::new(0.03, 0.9, 1e-4));
        let steps = 300;
        for _ in 0..steps {
            let (x, y) = data.batch(16);
            let _ = trainer.train_step(&x, &y);
        }
        let (test_x, test_y) = data.batch(128);
        let (loss, acc) = trainer.evaluate(&test_x, &test_y);
        tiny_results.push(TinyResult {
            network: name.to_owned(),
            accuracy: acc,
            loss,
            steps,
        });
    }
    Table1Report {
        networks,
        tiny: tiny_results,
    }
}

impl Report for Table1Report {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> String {
        "Table I: networks and trained model accuracy".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut paper = Table::new(
            "networks (published accuracy, our spec facts)",
            &[
                "network",
                "top1",
                "top5",
                "batch",
                "kiters",
                "layers",
                "activation_gb_per_step",
            ],
        );
        for (row, layers, act_bytes) in &self.networks {
            paper.row([
                row.network.into(),
                Cell::Num(row.top1),
                Cell::Num(row.top5),
                Cell::Int(row.batch as i64),
                Cell::Int(row.trained_kiter as i64),
                (*layers).into(),
                Cell::Num(*act_bytes as f64 / 1e9),
            ]);
        }
        let mut tiny = Table::new(
            "trainable counterparts (synthetic 4-class task, CPU)",
            &["network", "top1", "loss", "steps"],
        );
        for r in &self.tiny {
            tiny.row([
                r.network.as_str().into(),
                Cell::Num(r.accuracy),
                Cell::Num(r.loss),
                r.steps.into(),
            ]);
        }
        vec![paper, tiny]
    }

    fn notes(&self) -> Vec<String> {
        vec![
            "accuracy/batch/iterations as published; spec columns are architecture facts"
                .to_owned(),
            "tiny counterparts demonstrate real training through the cdma-dnn substrate".to_owned(),
        ]
    }
}

/// End-to-end training-run projection: Table I's iteration counts priced
/// with per-checkpoint step times, so the *evolving* sparsity (U-curve) is
/// integrated over the whole run rather than averaged.
#[derive(Debug, Clone)]
pub struct TrainingRunSummary {
    /// Network name.
    pub network: String,
    /// Training iterations (from Table I).
    pub iterations: u64,
    /// Wall-clock hours under the oracle (no PCIe bottleneck).
    pub oracle_hours: f64,
    /// Wall-clock hours under uncompressed vDNN.
    pub vdnn_hours: f64,
    /// Wall-clock hours under cDMA-ZV.
    pub cdma_hours: f64,
}

impl TrainingRunSummary {
    /// Whole-run speedup of cDMA over vDNN.
    fn cdma_speedup(&self) -> f64 {
        self.vdnn_hours / self.cdma_hours
    }

    /// Training days saved by cDMA vs vDNN.
    fn days_saved(&self) -> f64 {
        (self.vdnn_hours - self.cdma_hours) / 24.0
    }
}

/// The whole-training-run report.
#[derive(Debug, Clone)]
pub struct TrainingRunReport {
    /// One summary per network.
    pub runs: Vec<TrainingRunSummary>,
}

/// Projects the full training runs of the (filtered) networks. The run is
/// split into checkpoint buckets; each bucket's step time uses that
/// checkpoint's per-layer densities (early training is sparser, so cDMA
/// steps are faster then — averaging would hide that).
pub fn training_runs(ctx: &Context, runner: &Runner, filter: &ScenarioFilter) -> TrainingRunReport {
    let cfg = cdma_gpusim::SystemConfig::titan_x_pcie3();
    let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
    let buckets = 10usize;
    let table = ctx.ratio_table();
    let pairs: Vec<(&cdma_models::NetworkSpec, zoo::TableOneRow)> = ctx
        .specs()
        .iter()
        .map(|s| &**s)
        .zip(zoo::TABLE_ONE.iter().copied())
        .filter(|(spec, _)| filter.matches_network(spec.name()))
        .collect();
    let runs = runner.map(&pairs, |&(spec, row)| {
        let profile = ctx.profile(spec.name());
        let iterations = row.trained_kiter as u64 * 1000;
        let per_bucket = iterations as f64 / buckets as f64;
        let oracle_step = sim
            .simulate(spec, &UniformRatio::new(spec, TransferPolicy::Oracle))
            .total();
        let vdnn_step = sim
            .simulate(spec, &UniformRatio::uniform(spec, 1.0))
            .total();
        let mut cdma_secs = 0.0;
        for k in 0..buckets {
            let t = (k as f64 + 0.5) / buckets as f64;
            let source = ProfiledDensity::at_checkpoint(
                spec,
                &profile,
                t,
                Algorithm::Zvc,
                Layout::Nchw,
                &table,
            );
            cdma_secs += sim.simulate(spec, &source).total() * per_bucket;
        }
        TrainingRunSummary {
            network: spec.name().to_owned(),
            iterations,
            oracle_hours: oracle_step * iterations as f64 / 3600.0,
            vdnn_hours: vdnn_step * iterations as f64 / 3600.0,
            cdma_hours: cdma_secs / 3600.0,
        }
    });
    TrainingRunReport { runs }
}

impl Report for TrainingRunReport {
    fn name(&self) -> &'static str {
        "training_run"
    }

    fn title(&self) -> String {
        "Projected end-to-end training time (Table I iterations, cuDNN v5)".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "whole-run projection",
            &[
                "network",
                "kiters",
                "oracle_hours",
                "vdnn_hours",
                "cdma_hours",
                "speedup",
                "days_saved",
            ],
        );
        for r in &self.runs {
            t.row([
                r.network.as_str().into(),
                (r.iterations / 1000).into(),
                Cell::Num(r.oracle_hours),
                Cell::Num(r.vdnn_hours),
                Cell::Num(r.cdma_hours),
                Cell::Num(r.cdma_speedup()),
                Cell::Num(r.days_saved()),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        let total: f64 = self.runs.iter().map(|r| r.days_saved()).sum();
        vec![
            "derived projection; the paper reports per-iteration results only".to_owned(),
            format!("total GPU-days saved across the training runs: {total:.1}"),
        ]
    }
}

/// One recurrence family's traffic summary.
#[derive(Debug, Clone)]
pub struct RnnRow {
    /// Recurrence activation family.
    pub activation: RnnActivation,
    /// BPTT activation bytes per step.
    pub bptt_bytes: u64,
    /// Mean density over training.
    pub mean_density: f64,
    /// Training-averaged ZVC ratio.
    pub zvc_ratio: f64,
}

/// The RNN boundary-claim report.
#[derive(Debug, Clone)]
pub struct RnnTrafficReport {
    /// One row per recurrence family.
    pub rows: Vec<RnnRow>,
}

/// Generates the RNN offload-traffic comparison: ReLU recurrences (Deep
/// Speech-style GEMV stacks) compress; saturating (LSTM/GRU-like) gates
/// do not.
pub fn rnn_traffic(ctx: &Context) -> RnnTrafficReport {
    let table = ctx.ratio_table();
    let rows = [RnnActivation::Relu, RnnActivation::Saturating]
        .into_iter()
        .map(|act| {
            let spec = rnn::rnn_spec("DeepSpeechRNN", 5, 50, 1760, 64, act);
            let traj = rnn::rnn_trajectory(act);
            let bytes = rnn::bptt_activation_bytes(&spec);
            // Average ZVC ratio over training for this activation family.
            let mut inv = 0.0;
            let n = 9;
            for k in 0..n {
                let t = (k as f64 + 0.5) / n as f64;
                inv += 1.0 / table.ratio(Algorithm::Zvc, Layout::Nchw, traj.density_at(t));
            }
            RnnRow {
                activation: act,
                bptt_bytes: bytes,
                mean_density: traj.mean_density(),
                zvc_ratio: n as f64 / inv,
            }
        })
        .collect();
    RnnTrafficReport { rows }
}

impl Report for RnnTrafficReport {
    fn name(&self) -> &'static str {
        "rnn_traffic"
    }

    fn title(&self) -> String {
        "RNN offload traffic: ReLU recurrence vs saturating (LSTM/GRU-like) gates".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "per-recurrence traffic",
            &[
                "recurrence",
                "bptt_mb_per_step",
                "mean_density",
                "zvc_ratio",
                "on_wire_mb",
            ],
        );
        for r in &self.rows {
            t.row([
                format!("{:?}", r.activation).into(),
                Cell::Num(r.bptt_bytes as f64 / 1e6),
                Cell::Num(r.mean_density),
                Cell::Num(r.zvc_ratio),
                Cell::Num(r.bptt_bytes as f64 / r.zvc_ratio / 1e6),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        vec![
            "\"equally applicable for ... GEMV-based RNNs\"; \"less well-suited for RNNs based on LSTMs or GRUs\"".to_owned(),
            "ReLU recurrences compress ~3x; saturating gates gain nothing (ZVC mask pure overhead)".to_owned(),
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
    fn training_runs_integrate_the_u_curve() {
        let runs = training_runs(&ctx(), &Runner::sequential(), &ScenarioFilter::all()).runs;
        assert_eq!(runs.len(), 6);
        for r in &runs {
            assert!(r.oracle_hours <= r.cdma_hours + 1e-9, "{}", r.network);
            assert!(r.cdma_hours <= r.vdnn_hours + 1e-9, "{}", r.network);
            assert!(r.cdma_speedup() >= 1.0);
            assert!(r.iterations >= 82_000);
        }
        // SqueezeNet's run shrinks by days.
        let squeeze = runs.iter().find(|r| r.network == "SqueezeNet").unwrap();
        assert!(
            squeeze.days_saved() > 0.3,
            "SqueezeNet saves {} days",
            squeeze.days_saved()
        );
        // The U-curve integration beats the flat-average model slightly:
        // cDMA hours < vdnn_hours / avg-ratio-derived bound sanity.
        assert!(squeeze.cdma_speedup() > 1.3);
    }

    #[test]
    fn rnn_relu_compresses_saturating_does_not() {
        let rows = rnn_traffic(&ctx()).rows;
        assert_eq!(rows.len(), 2);
        let relu = &rows[0];
        let sat = &rows[1];
        assert!(relu.zvc_ratio > 2.0, "ReLU ratio {}", relu.zvc_ratio);
        assert!(sat.zvc_ratio < 1.1, "saturating ratio {}", sat.zvc_ratio);
    }

    #[test]
    fn fig5_checkpoints_span_training() {
        let cps = fig5_checkpoints();
        assert_eq!(cps.first(), Some(&0.0));
        assert_eq!(cps.last(), Some(&1.0));
    }
}
