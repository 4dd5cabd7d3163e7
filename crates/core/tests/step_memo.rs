//! The step memo against what it replaced.
//!
//! [`Context::step`] hands three experiments one simulation of a
//! scenario's single-GPU step, a shared [`StepTimeline`]. Differential:
//! the memoised step equals a fresh [`TimelineSim::simulate`] field by
//! field in bits, and the `g = 1` rows `fig_multi_gpu` now reads from it
//! equal the rows built the old way, through `cluster_timeline` /
//! [`ClusterSim`] (kept here). Accounting: across `fig02_timeline` → `fidelity_sweep` →
//! `fig_multi_gpu` on one context each step is simulated once.
//!
//! The compute model is spelled out here on purpose: the memo does not
//! key it, so these tests are what says it is Titan X on cuDNN v5.

use std::sync::Arc;

use cdma_core::experiment::{cluster_timeline, fidelity_sweep, fig02_timeline, fig_multi_gpu};
use cdma_core::report::{Cell, Table};
use cdma_core::scenario::{Context, Scenario, ScenarioFilter, ScenarioSet};
use cdma_gpusim::{fs_to_seconds, SystemConfig};
use cdma_models::NetworkSpec;
use cdma_vdnn::cluster::{ClusterSim, Tenant};
use cdma_vdnn::timeline::{
    Event, EventKind, LinkPolicy, Payload, Resource, StageRecord, TransferSource,
};
use cdma_vdnn::{
    ComputeModel, CudnnVersion, Fidelity, RatioTable, StepBreakdown, StepTimeline, TimelineSim,
    UniformRatio,
};

fn model() -> ComputeModel {
    ComputeModel::titan_x(CudnnVersion::V5)
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

/// The cells under `column`, one per row of `table`.
fn column<'a>(table: &'a Table, column: &str) -> Vec<&'a Cell> {
    let i = table
        .columns()
        .iter()
        .position(|c| c == column)
        .unwrap_or_else(|| panic!("{}: no column {column:?}", table.title()));
    table.rows().iter().map(|row| &row[i]).collect()
}

fn num(cell: &Cell) -> f64 {
    match cell {
        Cell::Num(v) => *v,
        other => panic!("{other:?} is not a float"),
    }
}

fn text(cell: &Cell) -> &str {
    match cell {
        Cell::Str(s) => s,
        other => panic!("{other:?} is not text"),
    }
}

fn int(cell: &Cell) -> i64 {
    match cell {
        Cell::Int(v) => *v,
        other => panic!("{other:?} is not an integer"),
    }
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
        let source = ctx.transfer_source(s);
        let fresh = TimelineSim::new(s.config, model()).simulate(&spec, &source);
        let step = ctx.step(s);

        assert_eq!(
            breakdown_bits(step.breakdown),
            breakdown_bits(fresh.breakdown),
            "{what} breakdown"
        );
        assert_eq!(step.fidelity(), fresh.fidelity(), "{what}");
        assert_eq!(step.fidelity(), s.fidelity.label(), "{what}");
        assert_eq!(step.events_processed(), fresh.events_processed(), "{what}");
        assert_eq!(step.lines_stepped(), fresh.lines_stepped(), "{what}");

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

        // Busy seconds: the in-order sum of the intervals, plus the
        // offloaded lines' exact total. Addition order is part of the
        // contract — the link column of `fig_multi_gpu` is this number
        // over the step time.
        let lines = line_seconds(s, &spec, &source, fresh.events());
        for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
            let bits = |tl: &StepTimeline| -> Vec<[u64; 2]> {
                tl.busy(r)
                    .iter()
                    .map(|&(s, e)| [s.to_bits(), e.to_bits()])
                    .collect()
            };
            assert_eq!(bits(&step), bits(&fresh), "{what} {r:?} intervals");
            let in_order: f64 = fresh.busy(r).iter().map(|&(s, e)| e - s).sum();
            let want = in_order + lines[r as usize];
            assert_bits(fresh.busy_seconds(r), want, &format!("{what} {r:?} fresh"));
            assert_bits(step.busy_seconds(r), want, &format!("{what} {r:?} memo"));
        }
        let link = fresh.busy(Resource::Link);
        let lines = lines[Resource::Link as usize];
        let in_order = link.iter().map(|&(s, e)| e - s).sum::<f64>() + lines;
        let reversed = link.iter().rev().map(|&(s, e)| e - s).sum::<f64>() + lines;
        order_shows |= reversed.to_bits() != in_order.to_bits();
    }
    // The corpus can tell the orders apart: a timeline that added the
    // link's intervals back to front fails above.
    assert!(order_shows, "no step's link sum depends on addition order");
}

/// Seconds the DMA pipeline's offload lines keep each resource busy over
/// a step, worked out from the offloads its log starts: every line's read
/// time at the platform's compression bandwidth and its drain time at the
/// link's, each a whole number of femtoseconds per byte on PCIe.
fn line_seconds(
    s: &Scenario,
    spec: &NetworkSpec,
    source: &dyn TransferSource,
    events: &[Event],
) -> [f64; 3] {
    let fs_per_byte = |bw: f64| {
        let fs = 1e15 / bw;
        assert_eq!(fs, fs.trunc(), "{bw} B/s is not whole femtoseconds a byte");
        fs as u64
    };
    let (read, drain) = (
        fs_per_byte(s.config.usable_comp_bw()),
        fs_per_byte(s.config.pcie_bw),
    );
    let mut fs = [0u64; 3];
    for e in events {
        let EventKind::OffloadStart { layer } = e.kind else {
            continue;
        };
        let payload = match layer {
            None => source.input_payload(spec),
            Some(l) => source.layer_payload(spec, l),
        };
        if let Payload::Lines { lines, repeat } = payload {
            for &(u, c) in lines {
                fs[Resource::DmaRead as usize] += u64::from(u) * read * repeat as u64;
                fs[Resource::Link as usize] += u64::from(c) * drain * repeat as u64;
            }
        }
    }
    fs.map(fs_to_seconds)
}

/// `fig_multi_gpu`'s row as it was built before the memo: the scenario's
/// cluster against the uncompressed-vDNN cluster on the same platform.
struct ClusterRow {
    fidelity: &'static str,
    link_share_gbps: f64,
    vdnn_step: f64,
    cdma_step: f64,
    allreduce: f64,
    speedup: f64,
    link_utilisation: f64,
}

fn cluster_row(ctx: &Context, s: &Scenario) -> ClusterRow {
    let spec = ctx.spec(&s.network);
    let vdnn = ClusterSim::new(s.config, model(), LinkPolicy::BandwidthShare).simulate(&[Tenant {
        spec: &spec,
        source: &UniformRatio::uniform(&spec, 1.0),
        gpus: s.gpus,
    }]);
    let vdnn_step = vdnn.tenants()[0].total;
    let cdma = cluster_timeline(ctx, s);
    let tc = &cdma.tenants()[0];
    ClusterRow {
        fidelity: cdma.gpu(0).fidelity(),
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
    let report = fig_multi_gpu(&ctx, &ScenarioFilter::all());
    let table = &report.tables[0];
    let g1: Vec<usize> = column(table, "gpus")
        .iter()
        .enumerate()
        .filter(|(_, g)| int(g) == 1)
        .map(|(i, _)| i)
        .collect();
    let sweep = sweep();
    assert_eq!(g1.len(), sweep.len());
    let cell = |name: &str, i: usize| column(table, name)[i];
    for (&i, s) in g1.iter().zip(&sweep) {
        let what = format!("{}/{}", s.network, s.fidelity);
        let old = cluster_row(&ctx, s);
        assert_eq!(text(cell("network", i)), s.network, "{what}");
        assert_eq!(text(cell("fidelity", i)), old.fidelity, "{what}");
        assert_eq!(text(cell("fidelity", i)), s.fidelity.label(), "{what}");
        assert_eq!(int(cell("gpus", i)), s.gpus as i64, "{what}");
        for (column, b) in [
            ("link_share_gbps", old.link_share_gbps),
            ("vdnn_step_s", old.vdnn_step),
            ("cdma_step_s", old.cdma_step),
            ("allreduce_s", old.allreduce),
            ("speedup", old.speedup),
            ("link_util", old.link_utilisation),
        ] {
            assert_bits(num(cell(column, i)), b, &format!("{what} {column}"));
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
    let filter = ScenarioFilter::all()
        .network("AlexNet")
        .network("GoogLeNet");
    let googlenet = scenario("GoogLeNet", Fidelity::MeasuredStream);
    let alexnet = scenario("AlexNet", Fidelity::MeasuredStream);

    // Fig. 2 charts GoogLeNet: its three steps enter the memo here.
    let fig02 = fig02_timeline(&ctx, &filter);
    assert!(fig02.title.ends_with("(GoogLeNet)"), "{}", fig02.title);
    let before = ctx.stats();
    let first = ctx.step(&googlenet);
    assert_eq!(ctx.stats().misses, before.misses, "fig02 left the step");
    assert_eq!(ctx.stats().hits, before.hits + 1);

    // The sweep adds AlexNet's three and finds GoogLeNet's.
    let sweep = fidelity_sweep(&ctx, &filter);
    assert_eq!(sweep.tables[0].rows().len(), 6);
    let alexnet_step = ctx.step(&alexnet);

    // The cluster experiment's six g = 1 rows are all in the memo, and so
    // is every input of its g >= 2 rows and of the tenant mix: it computes
    // nothing the context holds.
    let before = ctx.stats();
    let multi = fig_multi_gpu(&ctx, &filter);
    let after = ctx.stats();
    let gpus = column(&multi.tables[0], "gpus");
    assert_eq!(gpus.iter().filter(|g| int(g) == 1).count(), 6);
    assert_eq!(after.misses, before.misses, "fig_multi_gpu re-simulated");
    assert!(after.hits >= before.hits + 6);

    // Same scenario, same `Arc`, before and after: no entry was replaced.
    assert!(Arc::ptr_eq(&first, &ctx.step(&googlenet)));
    assert!(Arc::ptr_eq(&alexnet_step, &ctx.step(&alexnet)));
    // The row the reports print is that step: Fig. 2 charts GoogLeNet
    // alone and prints milliseconds, the sweep seconds.
    let measured = |table: &Table, network: Option<&str>, step: &str| {
        let fidelity = column(table, "fidelity");
        let i = (0..fidelity.len())
            .find(|&i| {
                text(fidelity[i]) == "measured-stream"
                    && network.is_none_or(|n| text(column(table, "network")[i]) == n)
            })
            .expect("GoogLeNet measured row");
        num(column(table, step)[i])
    };
    let totals = &fig02.tables[1];
    assert_eq!(totals.title(), "step totals across fidelity levels");
    let fig02_total = measured(totals, None, "step_ms");
    assert_bits(fig02_total, first.total() * 1e3, "fig02 total");
    assert_bits(
        measured(&sweep.tables[0], Some("GoogLeNet"), "step_seconds"),
        first.total(),
        "sweep row",
    );

    // `gpus` is not part of a single-GPU step...
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
