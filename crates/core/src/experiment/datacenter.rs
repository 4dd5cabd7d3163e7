//! The datacenter-scale experiment (`fig_datacenter`): the hierarchical
//! fabric sweep — step time and link utilisation vs GPU count, per
//! algorithm and fabric shape — plus a trace-driven tenant-churn run on
//! a node8 fabric, with the spine's occupancy rendered as the report's
//! Gantt artifact.
//!
//! Where [`fig_multi_gpu`](super::fig_multi_gpu) stops at eight GPUs on
//! one PCIe switch, this experiment stacks the link ([`FabricShape`]):
//! every node's GPUs share a node tier, the nodes feed a 2:1
//! oversubscribed spine, and the sweep shows when the spine (not the
//! node link) becomes the bottleneck. Large steps run with event
//! recording off, so a 1024-GPU cell stays in bounded memory — the
//! `cluster` bench pins the events/s and peak-RSS claims.

use std::sync::Arc;

use cdma_compress::Algorithm;
use cdma_gpusim::SystemConfig;
use cdma_models::NetworkSpec;
use cdma_vdnn::cluster::{ClusterSim, Tenant};
use cdma_vdnn::fabric::{churn_trace, FabricRun, FabricShape, FabricSim, FabricSpec, Job};
use cdma_vdnn::{FidelitySource, LinkPolicy};

use super::{compute_model, gantt_row};
use crate::report::{Artifact, Cell, ReportData, Table};
use crate::scenario::{Context, Scenario, ScenarioFilter, ScenarioSet};

/// The GPU counts of the datacenter sweep (fast contexts stop at 64).
const DATACENTER_GPU_SWEEP: [usize; 4] = [8, 64, 256, 1024];

/// The churn trace's tenant population (the heavy-traffic mix of
/// `fig_multi_gpu`).
const CHURN_MIX: [&str; 4] = ["AlexNet", "VGG", "GoogLeNet", "SqueezeNet"];

/// Density-evolution checkpoints each churn job walks through (§IV:
/// early training is dense, mid-training sparse, late dense again).
const CHURN_CHECKPOINTS: [f64; 3] = [0.1, 0.5, 0.9];

/// Churn-trace parameters: seeded open-loop arrivals over a 2-second
/// horizon on a 4-node × 8-GPU fabric.
const CHURN_SEED: u64 = 42;
const CHURN_HORIZON_S: f64 = 2.0;
const CHURN_MEAN_INTERARRIVAL_S: f64 = 0.25;
const CHURN_GPUS: usize = 32;
const CHURN_MAX_JOB_GPUS: usize = 16;

/// One cell of the sweep: a single tenant data-parallel across
/// `scenario.gpus` GPUs on the scenario's fabric shape, event recording
/// off (the aggregates are identical; only per-GPU logs are skipped).
/// Appends the cell's row to `sweep` and returns its step seconds, node
/// count and spine utilisation.
fn datacenter_row(ctx: &Context, scenario: &Scenario, sweep: &mut Table) -> (f64, usize, f64) {
    let spec = ctx.spec(&scenario.network);
    let source = ctx.transfer_source(scenario);
    let fabric =
        scenario
            .fabric
            .spec_for(&scenario.config, scenario.gpus, LinkPolicy::BandwidthShare);
    let mut sim = ClusterSim::new(scenario.config, compute_model(), LinkPolicy::BandwidthShare)
        .record_events(false);
    if let Some(f) = fabric {
        sim = sim.with_fabric(f);
    }
    let tl = sim.simulate(&[Tenant {
        spec: &spec,
        source: &source,
        gpus: scenario.gpus,
    }]);
    let t = &tl.tenants()[0];
    let makespan = tl.makespan();
    // Mean node-tier busy fraction (0 on the flat fabric, which has no
    // node tiers); the shared tier is the link (flat) or the spine.
    let node_utilisation = if tl.node_busy().is_empty() || makespan <= 0.0 {
        0.0
    } else {
        let busy: f64 = tl
            .node_busy()
            .iter()
            .map(|tier| tier.iter().map(|&(s, e)| e - s).sum::<f64>())
            .sum();
        busy / makespan / tl.node_busy().len() as f64
    };
    let nodes = fabric.map_or(1, |f| f.nodes);
    sweep.row([
        scenario.network.as_str().into(),
        scenario.algorithm.label().into(),
        scenario.fabric.label().into(),
        scenario.gpus.into(),
        nodes.into(),
        Cell::Num(t.total),
        Cell::Num(t.allreduce),
        Cell::Num(tl.link_utilisation()),
        Cell::Num(node_utilisation),
        tl.events_processed().into(),
    ]);
    (t.total, nodes, tl.link_utilisation())
}

/// Builds the sweep's scenario set: AlexNet (the paper's reference
/// network) across every algorithm, fabric shape and GPU count — or the
/// filter's own networks when it excludes AlexNet.
fn sweep_set(ctx: &Context, filter: &ScenarioFilter) -> ScenarioSet {
    let gpu_counts = if ctx.is_fast() {
        &DATACENTER_GPU_SWEEP[..2]
    } else {
        &DATACENTER_GPU_SWEEP[..]
    };
    let build = |networks: Option<&str>| {
        let mut b = ScenarioSet::builder()
            .algorithms(Algorithm::ALL)
            .fabrics(FabricShape::ALL)
            .gpu_counts(gpu_counts.iter().copied());
        if let Some(n) = networks {
            b = b.networks([n]);
        }
        b.build().filtered(filter)
    };
    let set = build(Some("AlexNet"));
    if set.scenarios().is_empty() {
        build(None)
    } else {
        set
    }
}

/// Runs the seeded churn trace on a 4-node × 8-GPU fabric: jobs from
/// [`churn_trace`] over the four-network mix, each walking the §IV
/// density checkpoints as its steps complete. Returns the run and its
/// fabric.
fn churn_run(ctx: &Context) -> (FabricRun, FabricSpec) {
    let cfg = SystemConfig::titan_x_pcie3();
    let shape = FabricShape::Hierarchical { gpus_per_node: 8 };
    let fabric = shape
        .spec_for(&cfg, CHURN_GPUS, LinkPolicy::BandwidthShare)
        .expect("hierarchical shapes always concretize");
    let cluster = ClusterSim::new(cfg, compute_model(), LinkPolicy::BandwidthShare)
        .with_fabric(fabric)
        .record_events(false);

    // Per-network density checkpoints at the default (profiled) fidelity.
    let members: Vec<(Arc<NetworkSpec>, Vec<FidelitySource>)> = CHURN_MIX
        .iter()
        .map(|name| {
            let set = ScenarioSet::builder()
                .networks([*name])
                .checkpoints(CHURN_CHECKPOINTS)
                .build();
            let sources = set
                .scenarios()
                .iter()
                .map(|s| ctx.transfer_source(s))
                .collect();
            (ctx.spec(name), sources)
        })
        .collect();
    let trace = churn_trace(
        CHURN_SEED,
        CHURN_HORIZON_S,
        CHURN_MEAN_INTERARRIVAL_S,
        CHURN_MIX.len(),
        CHURN_MAX_JOB_GPUS,
    );
    let jobs: Vec<Job<'_>> = trace
        .iter()
        .map(|t| Job {
            spec: &members[t.network].0,
            gpus: t.gpus,
            arrival: t.arrival,
            steps: t.steps,
            departure: t.departure,
            checkpoints: &members[t.network].1,
        })
        .collect();
    (FabricSim::new(cluster).run(&jobs), fabric)
}

/// An optional time as a cell (`NaN` renders as JSON `null` / empty
/// CSV, the writers' explicit missing-value policy).
fn opt(t: Option<f64>) -> Cell {
    Cell::Num(t.unwrap_or(f64::NAN))
}

/// The full datacenter experiment: the fabric sweep (gpus-major, then
/// algorithm, then fabric), the seeded tenant-churn trace's per-job
/// outcomes, and the churn run's spine-occupancy Gantt as an artifact.
pub fn fig_datacenter(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let set = sweep_set(ctx, filter);
    let mut sweep = Table::new(
        "step time and link utilisation by fabric shape",
        &[
            "network",
            "algorithm",
            "fabric",
            "gpus",
            "nodes",
            "step_s",
            "allreduce_s",
            "spine_util",
            "node_util",
            "events",
        ],
    );
    let mut zv_cells = Vec::new();
    for s in set.scenarios() {
        let (step_s, nodes, spine) = datacenter_row(ctx, s, &mut sweep);
        if s.algorithm == Algorithm::Zvc {
            zv_cells.push((s.gpus, s.fabric.label(), step_s, nodes, spine));
        }
    }

    let (run, fabric) = churn_run(ctx);
    let mut churn = Table::new(
        "tenant churn timeline (node8 fabric, 32 GPU slots)",
        &[
            "job",
            "network",
            "gpus",
            "arrival_s",
            "admitted_s",
            "requested",
            "completed",
            "cancelled",
            "finished_s",
            "departed_s",
        ],
    );
    for (i, j) in run.jobs.iter().enumerate() {
        churn.row([
            i.into(),
            j.network.as_str().into(),
            j.gpus.into(),
            Cell::Num(j.arrival),
            opt(j.admitted),
            j.steps_requested.into(),
            j.steps_completed.into(),
            j.steps_cancelled.into(),
            opt(j.finished),
            opt(j.departed),
        ]);
    }

    let mut notes = Vec::new();
    // Headline: at the widest swept cluster, what stacking node
    // tiers buys over a single flat link, with the 2:1 oversubscribed
    // spine as the remaining bottleneck.
    if let Some(g) = set.scenarios().iter().map(|s| s.gpus).max() {
        let pick = |fabric: &str| zv_cells.iter().find(|c| c.0 == g && c.1 == fabric);
        if let (Some(flat), Some(node)) = (pick("flat"), pick("node8")) {
            notes.push(format!(
                "at g={g} ZVC steps in {:.1} ms on the node8 fabric vs {:.1} ms on one \
                 flat link ({} node tiers; 2:1 oversubscribed spine at {:.0}% utilisation)",
                node.2 * 1e3,
                flat.2 * 1e3,
                node.3,
                node.4 * 100.0
            ));
        }
    }
    notes.push(format!(
        "churn: {} jobs ({} admitted, {} departed early), {} steps over {:.0} ms; \
         mean per-GPU step {:.1} ms across {} GPU-steps; spine {:.0}% busy",
        run.jobs.len(),
        run.jobs.iter().filter(|j| j.admitted.is_some()).count(),
        run.jobs.iter().filter(|j| j.departed.is_some()).count(),
        run.steps.len(),
        run.makespan * 1e3,
        run.stats.mean_step * 1e3,
        run.stats.gpu_steps,
        run.spine_utilisation() * 100.0
    ));

    // The spine-occupancy Gantt: one row per synchronized step (the
    // resident set is fixed within a row), then the spine's coalesced
    // busy profile across the whole trace.
    let cols = 96;
    let makespan = run.makespan.max(f64::MIN_POSITIVE);
    let mut gantt = vec![
        format!(
            "spine occupancy across the churn trace ({} jobs on {} GPU slots over {} nodes; makespan {:.0} ms)",
            run.jobs.len(),
            fabric.capacity(),
            fabric.nodes,
            run.makespan * 1e3
        ),
        format!(
            "{:<22} 0 ms {:>width$.0} ms",
            "",
            run.makespan * 1e3,
            width = cols - 3
        ),
    ];
    for (i, s) in run.steps.iter().enumerate() {
        let label = format!("step{i:<3} {}t x{:>2}g", s.tenants, s.gpus);
        gantt.push(gantt_row(
            &label,
            &[(s.start, s.start + s.makespan)],
            makespan,
            cols,
        ));
    }
    gantt.push(gantt_row("spine (busy)", &run.spine_busy, makespan, cols));
    gantt.push(format!(
        "spine utilisation: {:.1}%",
        run.spine_utilisation() * 100.0
    ));

    ReportData {
        name: "fig_datacenter",
        title: "Datacenter scale: hierarchical fabric sweep and tenant churn".to_owned(),
        tables: vec![sweep, churn],
        notes,
        artifacts: vec![Artifact {
            name: "spine_utilisation.txt".to_owned(),
            bytes: gantt.join("\n").into_bytes(),
        }],
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
    fn sweep_covers_gpu_counts_algorithms_and_fabrics() {
        let report = fig_datacenter(&ctx(), &ScenarioFilter::all().network("AlexNet"));
        let rows = report.tables[0].records();
        // Fast context: 2 gpu counts x 3 algorithms x 2 fabric shapes.
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.str("network") == "AlexNet"));
        for g in &DATACENTER_GPU_SWEEP[..2] {
            assert!(
                rows.iter().any(|r| r.int("gpus") == *g as i64),
                "missing g={g}"
            );
        }
        for r in &rows {
            let (fabric, gpus) = (r.str("fabric"), r.int("gpus"));
            assert!(r.num("step_s") > 0.0, "{fabric}/{gpus}: empty step");
            let spine = r.num("spine_util");
            assert!(
                spine > 0.0 && spine <= 1.0 + 1e-12,
                "{fabric}/{gpus}: spine utilisation {spine}"
            );
            assert!(r.int("events") > 0);
            let node_util = r.num("node_util");
            match fabric {
                "flat" => {
                    assert_eq!(r.int("nodes"), 1);
                    assert_eq!(node_util, 0.0, "flat fabrics have no node tiers");
                }
                "node8" => {
                    assert_eq!(r.int("nodes"), (gpus as usize).div_ceil(8) as i64);
                    assert!(node_util > 0.0 && node_util <= 1.0 + 1e-12);
                }
                other => panic!("unexpected fabric {other}"),
            }
        }
        // Every (algorithm, gpus) cell exists on both fabric shapes.
        // Past one node the hierarchy adds aggregate bandwidth (g/8 node
        // links plus a wider spine), so node8 must beat the single flat
        // link there — that is the experiment's scaling argument.
        for alg in ["RL", "ZV", "ZL"] {
            for g in &DATACENTER_GPU_SWEEP[..2] {
                let cell = |fabric: &str| {
                    rows.iter()
                        .find(|r| {
                            r.str("algorithm") == alg
                                && r.int("gpus") == *g as i64
                                && r.str("fabric") == fabric
                        })
                        .unwrap_or_else(|| panic!("missing {fabric} {alg}/g{g}"))
                        .num("step_s")
                };
                let (flat, node) = (cell("flat"), cell("node8"));
                if *g > 8 {
                    assert!(
                        node <= flat + 1e-9,
                        "{alg}/g{g}: node8 {node} slower than one flat link {flat}"
                    );
                }
            }
        }
    }

    #[test]
    fn churn_timeline_accounts_for_every_job() {
        let ctx = ctx();
        let report = fig_datacenter(
            &ctx,
            // NiN is not the sweep network: the sweep falls back to the
            // filter's own networks while churn always runs the mix.
            &ScenarioFilter::all().network("NiN"),
        );
        assert!(report.tables[0]
            .records()
            .iter()
            .all(|r| r.str("network") == "NiN"));
        let jobs = report.tables[1].records();
        assert!(!jobs.is_empty());
        for j in &jobs {
            assert_eq!(
                j.int("completed") + j.int("cancelled"),
                j.int("requested"),
                "{}: steps leaked",
                j.str("network")
            );
            if j.num("admitted_s").is_nan() {
                assert_eq!(
                    j.int("completed"),
                    0,
                    "{}: ran without admission",
                    j.str("network")
                );
            }
        }
        // The aggregates of the notes' churn line, from the run itself.
        let (run, _) = churn_run(&ctx);
        assert_eq!(run.jobs.len(), jobs.len());
        assert!(run.jobs.iter().any(|j| j.admitted.is_some()));
        assert!(run.stats.gpu_steps > 0);
        assert!(run.makespan > 0.0);
        let spine = run.spine_utilisation();
        assert!(spine > 0.0 && spine <= 1.0 + 1e-12);
        let gantt = String::from_utf8(report.artifacts[0].bytes.clone()).expect("text");
        assert!(gantt.contains("spine (busy)"));
        assert_eq!(report.artifacts.len(), 1);
        assert!(!report.notes.is_empty());
        assert_eq!(report.tables.len(), 2);
    }
}
