//! The training-centric experiments: Table I (plus real training of the
//! tiny counterpart networks), the whole-run projection over the sparsity
//! U-curve, and the RNN boundary claim.

use cdma_compress::Algorithm;
use cdma_dnn::synthetic::SyntheticImages;
use cdma_dnn::{Sgd, Trainer};
use cdma_models::rnn::{self, RnnActivation};
use cdma_models::{tiny, zoo};
use cdma_tensor::Layout;
use cdma_vdnn::{TimelineSim, TransferPolicy, UniformRatio};

use super::compute_model;
use crate::report::{Cell, ReportData, Table};
use crate::scenario::{Context, ScenarioFilter};

/// Generates Table I — the paper's constants beside our spec facts — and
/// trains the tiny counterparts on the synthetic 4-class task through the
/// `cdma-dnn` substrate (this repository cannot train ImageNet; see
/// DESIGN.md).
pub fn table1(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
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
    for (spec, row) in ctx
        .specs()
        .iter()
        .zip(zoo::TABLE_ONE.iter())
        .filter(|(spec, _)| filter.matches_network(spec.name()))
    {
        paper.row([
            row.network.into(),
            Cell::Num(row.top1),
            Cell::Num(row.top5),
            Cell::Int(row.batch as i64),
            Cell::Int(row.trained_kiter as i64),
            spec.layers().len().into(),
            Cell::Num(spec.total_activation_bytes() as f64 / 1e9),
        ]);
    }

    let mut tiny = Table::new(
        "trainable counterparts (synthetic 4-class task, CPU)",
        &["network", "top1", "loss", "steps"],
    );
    for (name, net) in [
        ("tiny-alexnet", tiny::tiny_alexnet(4, 7)),
        ("tiny-googlenet", tiny::tiny_googlenet(4, 7)),
    ] {
        let mut data = SyntheticImages::new(4, 1, 16, 21);
        let mut trainer = Trainer::new(net, Sgd::new(0.03, 0.9, 1e-4));
        let steps = 300usize;
        for _ in 0..steps {
            let (x, y) = data.batch(16);
            let _ = trainer.train_step(&x, &y);
        }
        let (test_x, test_y) = data.batch(128);
        let (loss, acc) = trainer.evaluate(&test_x, &test_y);
        tiny.row([name.into(), Cell::Num(acc), Cell::Num(loss), steps.into()]);
    }
    ReportData {
        name: "table1",
        title: "Table I: networks and trained model accuracy".to_owned(),
        tables: vec![paper, tiny],
        notes: vec![
            "accuracy/batch/iterations as published; spec columns are architecture facts"
                .to_owned(),
            "tiny counterparts demonstrate real training through the cdma-dnn substrate".to_owned(),
        ],
        ..ReportData::default()
    }
}

/// Projects the full training runs of the (filtered) networks: Table I's
/// iteration counts priced with per-checkpoint step times, so the
/// *evolving* sparsity (U-curve) is integrated over the whole run rather
/// than averaged. The run is split into checkpoint buckets; each bucket's
/// step time uses that checkpoint's per-layer densities (early training
/// is sparser, so cDMA steps are faster then — averaging would hide
/// that).
pub fn training_runs(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let cfg = cdma_gpusim::SystemConfig::titan_x_pcie3();
    let sim = TimelineSim::new(cfg, compute_model());
    let buckets = 10usize;
    let table = ctx.ratio_table();
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
    let mut days_saved_per_run = Vec::new();
    for (spec, row) in ctx
        .specs()
        .iter()
        .zip(zoo::TABLE_ONE)
        .filter(|(spec, _)| filter.matches_network(spec.name()))
    {
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
            let source = UniformRatio::at_checkpoint(
                spec,
                &profile,
                t,
                Algorithm::Zvc,
                Layout::Nchw,
                &table,
            );
            cdma_secs += sim.simulate(spec, &source).total() * per_bucket;
        }
        let vdnn_hours = vdnn_step * iterations as f64 / 3600.0;
        let cdma_hours = cdma_secs / 3600.0;
        let days_saved = (vdnn_hours - cdma_hours) / 24.0;
        t.row([
            spec.name().into(),
            (iterations / 1000).into(),
            Cell::Num(oracle_step * iterations as f64 / 3600.0),
            Cell::Num(vdnn_hours),
            Cell::Num(cdma_hours),
            Cell::Num(vdnn_hours / cdma_hours),
            Cell::Num(days_saved),
        ]);
        days_saved_per_run.push(days_saved);
    }
    let total: f64 = days_saved_per_run.iter().sum();
    ReportData {
        name: "training_run",
        title: "Projected end-to-end training time (Table I iterations, cuDNN v5)".to_owned(),
        tables: vec![t],
        notes: vec![
            "derived projection; the paper reports per-iteration results only".to_owned(),
            format!("total GPU-days saved across the training runs: {total:.1}"),
        ],
        ..ReportData::default()
    }
}

/// Generates the RNN offload-traffic comparison: ReLU recurrences (Deep
/// Speech-style GEMV stacks) compress; saturating (LSTM/GRU-like) gates
/// do not. Per recurrence family: the BPTT activation bytes per step, the
/// mean density over training and the training-averaged ZVC ratio.
pub fn rnn_traffic(ctx: &Context) -> ReportData {
    let table = ctx.ratio_table();
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
    for act in [RnnActivation::Relu, RnnActivation::Saturating] {
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
        let zvc_ratio = n as f64 / inv;
        t.row([
            format!("{act:?}").into(),
            Cell::Num(bytes as f64 / 1e6),
            Cell::Num(traj.mean_density()),
            Cell::Num(zvc_ratio),
            Cell::Num(bytes as f64 / zvc_ratio / 1e6),
        ]);
    }
    ReportData {
        name: "rnn_traffic",
        title: "RNN offload traffic: ReLU recurrence vs saturating (LSTM/GRU-like) gates"
            .to_owned(),
        tables: vec![t],
        notes: vec![
            "\"equally applicable for ... GEMV-based RNNs\"; \"less well-suited for RNNs based on LSTMs or GRUs\"".to_owned(),
            "ReLU recurrences compress ~3x; saturating gates gain nothing (ZVC mask pure overhead)".to_owned(),
        ],
        ..ReportData::default()
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
        let report = training_runs(&ctx(), &ScenarioFilter::all());
        let runs = report.tables[0].records();
        assert_eq!(runs.len(), 6);
        for r in &runs {
            let network = r.str("network");
            assert!(
                r.num("oracle_hours") <= r.num("cdma_hours") + 1e-9,
                "{network}"
            );
            assert!(
                r.num("cdma_hours") <= r.num("vdnn_hours") + 1e-9,
                "{network}"
            );
            assert!(r.num("speedup") >= 1.0);
            assert!(r.int("kiters") >= 82);
        }
        // SqueezeNet's run shrinks by days.
        let squeeze = runs
            .iter()
            .find(|r| r.str("network") == "SqueezeNet")
            .unwrap();
        assert!(
            squeeze.num("days_saved") > 0.3,
            "SqueezeNet saves {} days",
            squeeze.num("days_saved")
        );
        // The U-curve integration beats the flat-average model slightly:
        // cDMA hours < vdnn_hours / avg-ratio-derived bound sanity.
        assert!(squeeze.num("speedup") > 1.3);
    }

    #[test]
    fn rnn_relu_compresses_saturating_does_not() {
        let report = rnn_traffic(&ctx());
        let rows = report.tables[0].records();
        assert_eq!(rows.len(), 2);
        let relu = rows[0].num("zvc_ratio");
        let sat = rows[1].num("zvc_ratio");
        assert!(relu > 2.0, "ReLU ratio {relu}");
        assert!(sat < 1.1, "saturating ratio {sat}");
    }
}
