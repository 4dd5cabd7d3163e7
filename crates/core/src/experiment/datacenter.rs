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
use cdma_vdnn::fabric::{churn_trace, FabricShape, FabricSim, Job, JobOutcome};
use cdma_vdnn::{FidelitySource, LinkPolicy};

use super::{compute_model, gantt_row};
use crate::report::{Artifact, Cell, Report, Table};
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

/// One cell of the fabric sweep.
#[derive(Debug, Clone)]
pub struct DatacenterRow {
    /// Network name.
    pub network: String,
    /// Compression algorithm label.
    pub algorithm: &'static str,
    /// Fabric shape label (`flat`, `node8`).
    pub fabric: String,
    /// Data-parallel GPU count.
    pub gpus: usize,
    /// Node count (1 on the flat fabric).
    pub nodes: usize,
    /// End-to-end step seconds (incl. exposed all-reduce) of the slowest
    /// tenant GPU.
    pub step_s: f64,
    /// Gradient all-reduce seconds exposed past the step barrier.
    pub allreduce_s: f64,
    /// Shared-tier busy fraction: the link (flat) or the spine.
    pub spine_utilisation: f64,
    /// Mean node-tier busy fraction (0 on the flat fabric, which has no
    /// node tiers).
    pub node_utilisation: f64,
    /// Events the step simulation processed.
    pub events: u64,
}

/// Aggregates of the tenant-churn run (the bounded-memory
/// [`RunStats`](cdma_vdnn::RunStats) fold, not retained timelines).
#[derive(Debug, Clone, Copy)]
pub struct ChurnSummary {
    /// Jobs in the trace.
    pub jobs: usize,
    /// Jobs that were admitted before the run drained.
    pub admitted: usize,
    /// Jobs that departed early (queued or mid-run).
    pub departed: usize,
    /// Synchronized cluster steps the run simulated.
    pub steps: usize,
    /// Per-GPU steps folded into the streaming aggregate.
    pub gpu_steps: u64,
    /// Mean per-GPU step seconds across the run.
    pub mean_step_s: f64,
    /// Slowest per-GPU step seconds.
    pub max_step_s: f64,
    /// When the last admitted work drained.
    pub makespan_s: f64,
    /// Fraction of the makespan the spine spent busy.
    pub spine_utilisation: f64,
    /// Events across every step simulation.
    pub events: u64,
}

/// The fig_datacenter report.
#[derive(Debug, Clone)]
pub struct DatacenterReport {
    /// Fabric-sweep cells (gpus-major, then algorithm, then fabric).
    pub rows: Vec<DatacenterRow>,
    /// Per-job outcomes of the churn run, in trace order.
    pub jobs: Vec<JobOutcome>,
    /// Churn-run aggregates.
    pub churn: ChurnSummary,
    /// Spine-occupancy Gantt of the churn run (the report artifact).
    pub gantt: String,
}

/// One cell of the sweep: a single tenant data-parallel across
/// `scenario.gpus` GPUs on the scenario's fabric shape, event recording
/// off (the aggregates are identical; only per-GPU logs are skipped).
fn datacenter_row(ctx: &Context, scenario: &Scenario) -> DatacenterRow {
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
    DatacenterRow {
        network: scenario.network.clone(),
        algorithm: scenario.algorithm.label(),
        fabric: scenario.fabric.label(),
        gpus: scenario.gpus,
        nodes: fabric.map_or(1, |f| f.nodes),
        step_s: t.total,
        allreduce_s: t.allreduce,
        spine_utilisation: tl.link_utilisation(),
        node_utilisation,
        events: tl.events_processed(),
    }
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
/// density checkpoints as its steps complete.
fn churn_run(ctx: &Context) -> (Vec<JobOutcome>, ChurnSummary, String) {
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
    let run = FabricSim::new(cluster).run(&jobs);

    let summary = ChurnSummary {
        jobs: run.jobs.len(),
        admitted: run.jobs.iter().filter(|j| j.admitted.is_some()).count(),
        departed: run.jobs.iter().filter(|j| j.departed.is_some()).count(),
        steps: run.steps.len(),
        gpu_steps: run.stats.gpu_steps,
        mean_step_s: run.stats.mean_step,
        max_step_s: run.stats.max_step,
        makespan_s: run.makespan,
        spine_utilisation: run.spine_utilisation(),
        events: run.events_processed,
    };

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
    (run.jobs, summary, gantt.join("\n"))
}

/// The full datacenter experiment: the fabric sweep plus the seeded
/// tenant-churn trace.
pub fn fig_datacenter(ctx: &Context, filter: &ScenarioFilter) -> DatacenterReport {
    let set = sweep_set(ctx, filter);
    let rows = set
        .scenarios()
        .iter()
        .map(|s| datacenter_row(ctx, s))
        .collect();
    let (jobs, churn, gantt) = churn_run(ctx);
    DatacenterReport {
        rows,
        jobs,
        churn,
        gantt,
    }
}

/// An optional time as a cell (`NaN` renders as JSON `null` / empty
/// CSV, the writers' explicit missing-value policy).
fn opt(t: Option<f64>) -> Cell {
    Cell::Num(t.unwrap_or(f64::NAN))
}

impl Report for DatacenterReport {
    fn name(&self) -> &'static str {
        "fig_datacenter"
    }

    fn title(&self) -> String {
        "Datacenter scale: hierarchical fabric sweep and tenant churn".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
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
        for r in &self.rows {
            sweep.row([
                r.network.as_str().into(),
                r.algorithm.into(),
                r.fabric.as_str().into(),
                r.gpus.into(),
                r.nodes.into(),
                Cell::Num(r.step_s),
                Cell::Num(r.allreduce_s),
                Cell::Num(r.spine_utilisation),
                Cell::Num(r.node_utilisation),
                r.events.into(),
            ]);
        }
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
        for (i, j) in self.jobs.iter().enumerate() {
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
        vec![sweep, churn]
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        // Headline: at the widest swept cluster, what stacking node
        // tiers buys over a single flat link, with the 2:1 oversubscribed
        // spine as the remaining bottleneck.
        let widest = self.rows.iter().map(|r| r.gpus).max();
        if let Some(g) = widest {
            let pick = |fabric: &str| {
                self.rows
                    .iter()
                    .find(|r| r.gpus == g && r.fabric == fabric && r.algorithm == "ZV")
            };
            if let (Some(flat), Some(node)) = (pick("flat"), pick("node8")) {
                notes.push(format!(
                    "at g={g} ZVC steps in {:.1} ms on the node8 fabric vs {:.1} ms on one \
                     flat link ({} node tiers; 2:1 oversubscribed spine at {:.0}% utilisation)",
                    node.step_s * 1e3,
                    flat.step_s * 1e3,
                    node.nodes,
                    node.spine_utilisation * 100.0
                ));
            }
        }
        notes.push(format!(
            "churn: {} jobs ({} admitted, {} departed early), {} steps over {:.0} ms; \
             mean per-GPU step {:.1} ms across {} GPU-steps; spine {:.0}% busy",
            self.churn.jobs,
            self.churn.admitted,
            self.churn.departed,
            self.churn.steps,
            self.churn.makespan_s * 1e3,
            self.churn.mean_step_s * 1e3,
            self.churn.gpu_steps,
            self.churn.spine_utilisation * 100.0
        ));
        notes
    }

    fn artifacts(&self) -> Vec<Artifact> {
        vec![Artifact {
            name: "spine_utilisation.txt".to_owned(),
            bytes: self.gantt.clone().into_bytes(),
        }]
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
        // Fast context: 2 gpu counts x 3 algorithms x 2 fabric shapes.
        assert_eq!(report.rows.len(), 12);
        assert!(report.rows.iter().all(|r| r.network == "AlexNet"));
        for g in &DATACENTER_GPU_SWEEP[..2] {
            assert!(report.rows.iter().any(|r| r.gpus == *g), "missing g={g}");
        }
        for r in &report.rows {
            assert!(r.step_s > 0.0, "{}/{}: empty step", r.fabric, r.gpus);
            assert!(
                r.spine_utilisation > 0.0 && r.spine_utilisation <= 1.0 + 1e-12,
                "{}/{}: spine utilisation {}",
                r.fabric,
                r.gpus,
                r.spine_utilisation
            );
            assert!(r.events > 0);
            match r.fabric.as_str() {
                "flat" => {
                    assert_eq!(r.nodes, 1);
                    assert_eq!(r.node_utilisation, 0.0, "flat fabrics have no node tiers");
                }
                "node8" => {
                    assert_eq!(r.nodes, r.gpus.div_ceil(8));
                    assert!(r.node_utilisation > 0.0 && r.node_utilisation <= 1.0 + 1e-12);
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
                let flat = report
                    .rows
                    .iter()
                    .find(|r| r.algorithm == alg && r.gpus == *g && r.fabric == "flat")
                    .unwrap_or_else(|| panic!("missing flat {alg}/g{g}"));
                let node = report
                    .rows
                    .iter()
                    .find(|r| r.algorithm == alg && r.gpus == *g && r.fabric == "node8")
                    .unwrap_or_else(|| panic!("missing node8 {alg}/g{g}"));
                if *g > 8 {
                    assert!(
                        node.step_s <= flat.step_s + 1e-9,
                        "{alg}/g{g}: node8 {} slower than one flat link {}",
                        node.step_s,
                        flat.step_s
                    );
                }
            }
        }
    }

    #[test]
    fn churn_timeline_accounts_for_every_job() {
        let report = fig_datacenter(
            &ctx(),
            // NiN is not the sweep network: the sweep falls back to the
            // filter's own networks while churn always runs the mix.
            &ScenarioFilter::all().network("NiN"),
        );
        assert!(report.rows.iter().all(|r| r.network == "NiN"));
        assert!(!report.jobs.is_empty());
        for j in &report.jobs {
            assert_eq!(
                j.steps_completed + j.steps_cancelled,
                j.steps_requested,
                "{}: steps leaked",
                j.network
            );
            if j.admitted.is_none() {
                assert_eq!(j.steps_completed, 0, "{}: ran without admission", j.network);
            }
        }
        assert_eq!(report.churn.jobs, report.jobs.len());
        assert!(report.churn.admitted > 0);
        assert!(report.churn.gpu_steps > 0);
        assert!(report.churn.makespan_s > 0.0);
        assert!(
            report.churn.spine_utilisation > 0.0 && report.churn.spine_utilisation <= 1.0 + 1e-12
        );
        assert!(report.gantt.contains("spine (busy)"));
        assert_eq!(report.artifacts().len(), 1);
        assert!(!report.notes().is_empty());
        assert_eq!(report.tables().len(), 2);
    }
}
