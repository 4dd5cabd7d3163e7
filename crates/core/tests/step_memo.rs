//! The step memo against what it replaced.
//!
//! [`Context::step`] hands three experiments one simulation of a
//! scenario's single-GPU step, kept as a [`StepSummary`]. Differential:
//! the summary equals a fresh [`TimelineSim::simulate`] field by field in
//! bits, and the `g = 1` rows `fig_multi_gpu` now reads from it equal the
//! rows built the old way, through `cluster_timeline` / [`ClusterSim`]
//! (kept here). Accounting: across `fig02_timeline` → `fidelity_sweep` →
//! `fig_multi_gpu` on one context each step is simulated once.
//!
//! The compute model is spelled out here on purpose: the memo does not
//! key it, so these tests are what says it is Titan X on cuDNN v5.

use std::sync::Arc;

use cdma_core::experiment::{
    cluster_timeline, fidelity_sweep, fig02_timeline, fig_multi_gpu, FidelityRow, MultiGpuRow,
};
use cdma_core::scenario::{Context, Runner, Scenario, ScenarioFilter, ScenarioSet};
use cdma_gpusim::SystemConfig;
use cdma_vdnn::cluster::{ClusterSim, Tenant};
use cdma_vdnn::timeline::{Resource, StageRecord};
use cdma_vdnn::{
    ComputeModel, CudnnVersion, Fidelity, RatioTable, StepBreakdown, TimelineSim, UniformRatio,
};

fn model() -> ComputeModel {
    ComputeModel::titan_x(CudnnVersion::V5)
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

fn breakdown_bits(b: StepBreakdown) -> [u64; 4] {
    [b.forward, b.backward, b.forward_stall, b.backward_stall].map(f64::to_bits)
}

/// Every network × fidelity of the catalogue's sweeps, single-GPU.
fn sweep() -> ScenarioSet {
    ScenarioSet::builder().fidelities(Fidelity::ALL).build()
}

#[test]
fn a_memoised_step_equals_a_fresh_simulation_in_bits() {
    let ctx = Context::with_table(RatioTable::build_fast(7));
    let sweep = sweep();
    assert_eq!(sweep.len(), 6 * 3);
    let mut order_shows = false;
    for s in &sweep {
        let what = format!("{}/{}", s.network, s.fidelity);
        let spec = ctx.spec(&s.network);
        let fresh = TimelineSim::new(s.config, model()).simulate(&spec, &ctx.transfer_source(s));
        let step = ctx.step(s);

        assert_eq!(
            breakdown_bits(step.breakdown),
            breakdown_bits(fresh.breakdown),
            "{what} breakdown"
        );
        assert_eq!(step.fidelity(), fresh.fidelity(), "{what}");
        assert_eq!(step.fidelity(), s.fidelity.label(), "{what}");
        assert_eq!(step.events_processed(), fresh.events_processed(), "{what}");

        assert_eq!(step.events().len(), fresh.events().len(), "{what} events");
        for (i, (a, b)) in step.events().iter().zip(fresh.events()).enumerate() {
            assert_bits(a.time, b.time, &format!("{what} event {i} time"));
            assert_eq!(a.kind, b.kind, "{what} event {i} kind");
        }

        assert_eq!(step.stages().len(), fresh.stages().len(), "{what} stages");
        for (i, (a, b)) in step.stages().iter().zip(fresh.stages()).enumerate() {
            assert_eq!((a.phase, a.layer), (b.phase, b.layer), "{what} stage {i}");
            let bits = |s: &StageRecord| [s.start, s.compute, s.transfer, s.end].map(f64::to_bits);
            assert_eq!(bits(a), bits(b), "{what} stage {i}");
        }

        // Busy seconds: the in-order sum of the intervals the summary
        // dropped. Addition order is part of the contract — the link
        // column of `fig_multi_gpu` is this number over the step time.
        for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
            let in_order: f64 = fresh.busy(r).iter().map(|&(s, e)| e - s).sum();
            assert_bits(
                step.busy_seconds(r),
                in_order,
                &format!("{what} {r:?} busy"),
            );
        }
        let link = fresh.busy(Resource::Link);
        let reversed: f64 = link.iter().rev().map(|&(s, e)| e - s).sum();
        order_shows |= reversed.to_bits() != step.busy_seconds(Resource::Link).to_bits();
    }
    // The corpus can tell the orders apart (7 of the 18 steps do): a
    // summary that added the link's intervals back to front fails above.
    assert!(order_shows, "no step's link sum depends on addition order");
}

/// `fig_multi_gpu`'s row as it was built before the memo: the scenario's
/// cluster against the uncompressed-vDNN cluster on the same platform.
fn cluster_row(ctx: &Context, s: &Scenario) -> MultiGpuRow {
    let spec = ctx.spec(&s.network);
    let vdnn = ClusterSim::new(s.config, model(), s.link_policy).simulate(&[Tenant {
        spec: &spec,
        source: &UniformRatio::uniform(&spec, 1.0),
        gpus: s.gpus,
    }]);
    let vdnn_step = vdnn.tenants()[0].total;
    let cdma = cluster_timeline(ctx, s);
    let tc = &cdma.tenants()[0];
    MultiGpuRow {
        network: s.network.clone(),
        fidelity: cdma.gpu(0).fidelity(),
        gpus: s.gpus,
        link_share_gbps: s.config.pcie_bw / s.gpus as f64 / 1e9,
        vdnn_step,
        cdma_step: tc.total,
        allreduce: tc.allreduce,
        speedup: vdnn_step / tc.total,
        link_utilisation: cdma.link_utilisation(),
    }
}

#[test]
fn g1_rows_equal_the_cluster_path_in_all_nine_columns() {
    let ctx = Context::with_table(RatioTable::build_fast(7));
    let report = fig_multi_gpu(&ctx, &Runner::sequential(), &ScenarioFilter::all());
    let g1: Vec<&MultiGpuRow> = report.rows.iter().filter(|r| r.gpus == 1).collect();
    let sweep = sweep();
    assert_eq!(g1.len(), sweep.len());
    for (row, s) in g1.iter().zip(&sweep) {
        let what = format!("{}/{}", s.network, s.fidelity);
        let old = cluster_row(&ctx, s);
        assert_eq!(row.network, old.network, "{what}");
        assert_eq!(row.fidelity, old.fidelity, "{what}");
        assert_eq!(row.fidelity, s.fidelity.label(), "{what}");
        assert_eq!(row.gpus, old.gpus, "{what}");
        for (a, b, f) in [
            (row.link_share_gbps, old.link_share_gbps, "link_share_gbps"),
            (row.vdnn_step, old.vdnn_step, "vdnn_step"),
            (row.cdma_step, old.cdma_step, "cdma_step"),
            (row.allreduce, old.allreduce, "allreduce"),
            (row.speedup, old.speedup, "speedup"),
            (row.link_utilisation, old.link_utilisation, "link_util"),
        ] {
            assert_bits(a, b, &format!("{what} {f}"));
        }
    }
}

/// The one scenario of `network` at `fidelity` on the default platform.
fn scenario(network: &str, fidelity: Fidelity) -> Scenario {
    ScenarioSet::builder()
        .networks([network])
        .fidelities([fidelity])
        .build()
        .scenarios()[0]
        .clone()
}

#[test]
fn three_experiments_simulate_each_step_once() {
    let ctx = Context::with_table(RatioTable::build_fast(7));
    let runner = Runner::sequential();
    let filter = ScenarioFilter::all()
        .network("AlexNet")
        .network("GoogLeNet");
    let googlenet = scenario("GoogLeNet", Fidelity::MeasuredStream);
    let alexnet = scenario("AlexNet", Fidelity::MeasuredStream);

    // Fig. 2 charts GoogLeNet: its three steps enter the memo here.
    let fig02 = fig02_timeline(&ctx, &filter);
    assert_eq!(fig02.network, "GoogLeNet");
    let before = ctx.stats();
    let first = ctx.step(&googlenet);
    assert_eq!(ctx.stats().misses, before.misses, "fig02 left the step");
    assert_eq!(ctx.stats().hits, before.hits + 1);

    // The sweep adds AlexNet's three and finds GoogLeNet's.
    let sweep = fidelity_sweep(&ctx, &runner, &filter);
    assert_eq!(sweep.rows.len(), 6);
    let alexnet_step = ctx.step(&alexnet);

    // The cluster experiment's six g = 1 rows are all in the memo, and so
    // is every input of its g >= 2 rows and of the tenant mix: it computes
    // nothing the context holds.
    let before = ctx.stats();
    let multi = fig_multi_gpu(&ctx, &runner, &filter);
    let after = ctx.stats();
    assert_eq!(multi.rows.iter().filter(|r| r.gpus == 1).count(), 6);
    assert_eq!(after.misses, before.misses, "fig_multi_gpu re-simulated");
    assert!(after.hits >= before.hits + 6);

    // Same scenario, same `Arc`, before and after: no entry was replaced.
    assert!(Arc::ptr_eq(&first, &ctx.step(&googlenet)));
    assert!(Arc::ptr_eq(&alexnet_step, &ctx.step(&alexnet)));
    // The row the reports print is that step.
    let row = |rows: &[FidelityRow]| {
        rows.iter()
            .find(|r| r.network == "GoogLeNet" && r.fidelity == "measured-stream")
            .expect("GoogLeNet measured row")
            .step_time
    };
    assert_bits(row(&fig02.totals), first.total(), "fig02 total");
    assert_bits(row(&sweep.rows), first.total(), "sweep row");

    // `gpus` and the link policy are not part of a single-GPU step...
    let mut wide = alexnet.clone();
    wide.gpus = 8;
    assert!(Arc::ptr_eq(&alexnet_step, &ctx.step(&wide)));
    // ...the platform is, field by field.
    let before = ctx.stats();
    let mut small = alexnet.clone();
    small.config = SystemConfig {
        dma_buffer: alexnet.config.dma_buffer / 2,
        ..alexnet.config
    };
    let small_step = ctx.step(&small);
    assert!(!Arc::ptr_eq(&alexnet_step, &small_step));
    assert_eq!(ctx.stats().misses, before.misses + 1, "one new step");
    assert!(Arc::ptr_eq(&small_step, &ctx.step(&small)));
}
