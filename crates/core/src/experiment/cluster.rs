//! The Section IX multi-GPU experiment: the event-driven cluster
//! simulator swept over g ∈ {1, 2, 4, 8} GPUs sharing one host link, at
//! every timeline fidelity level, plus the heavy-traffic tenant mix
//! (independent networks contending for the same wire) and a
//! link-utilisation Gantt artifact.

use std::sync::Arc;

use cdma_gpusim::SystemConfig;
use cdma_models::NetworkSpec;
use cdma_vdnn::cluster::{ClusterSim, ClusterTimeline, Tenant};
use cdma_vdnn::timeline::Resource;
use cdma_vdnn::{Fidelity, FidelitySource, LinkPolicy, UniformRatio};

use super::{compute_model, gantt_row};
use crate::report::{Artifact, Cell, Report, Table};
use crate::scenario::{Context, Scenario, ScenarioFilter, ScenarioSet};

/// The GPU counts of the Section IX sweep.
// pub: multi_gpu_cross_validation.rs sweeps the figure's GPU counts
pub const GPU_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The canonical heavy-traffic tenant mix: four networks, two GPUs each,
/// eight DMA paths plus four gradient streams on one wire.
const TENANT_MIX: [&str; 4] = ["AlexNet", "VGG", "GoogLeNet", "SqueezeNet"];

/// One row of the per-g speedup table.
#[derive(Debug, Clone)]
pub struct MultiGpuRow {
    /// Network name.
    pub network: String,
    /// Fidelity label of the transfer source.
    pub fidelity: &'static str,
    /// Data-parallel GPU count.
    pub gpus: usize,
    /// Static per-GPU share of the scenario's host link, GB/s.
    pub link_share_gbps: f64,
    /// Uncompressed-vDNN end-to-end step (incl. all-reduce), seconds.
    pub vdnn_step: f64,
    /// cDMA end-to-end step at the scenario's fidelity, seconds.
    pub cdma_step: f64,
    /// Gradient all-reduce seconds exposed past the step barrier.
    pub allreduce: f64,
    /// `vdnn_step / cdma_step`.
    pub speedup: f64,
    /// Shared-link busy fraction of the cDMA run.
    pub link_utilisation: f64,
}

/// One row of the heavy-traffic tenant table.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant network.
    pub network: String,
    /// The tenant's GPU count.
    pub gpus: usize,
    /// End-to-end seconds with the link to itself.
    pub isolated: f64,
    /// End-to-end seconds sharing the link with the whole mix.
    pub shared: f64,
    /// `shared / isolated`.
    pub slowdown: f64,
}

fn cluster_sim(scenario: &Scenario) -> ClusterSim {
    ClusterSim::new(scenario.config, compute_model(), LinkPolicy::BandwidthShare)
}

/// Simulates one scenario's cluster (its network, data-parallel across
/// `scenario.gpus` GPUs, transfers at the scenario's fidelity level).
// pub: step_memo.rs holds the memoised steps to it
pub fn cluster_timeline(ctx: &Context, scenario: &Scenario) -> ClusterTimeline {
    let spec = ctx.spec(&scenario.network);
    let source = ctx.transfer_source(scenario);
    cluster_sim(scenario).simulate(&[Tenant {
        spec: &spec,
        source: &source,
        gpus: scenario.gpus,
    }])
}

/// End-to-end seconds of the uncompressed-vDNN baseline on the
/// scenario's platform — fidelity-independent, so the sweep computes it
/// once per (network, gpus) cell.
fn vdnn_total(ctx: &Context, scenario: &Scenario) -> f64 {
    let spec = ctx.spec(&scenario.network);
    let source = UniformRatio::uniform(&spec, 1.0);
    let vdnn = cluster_sim(scenario).simulate(&[Tenant {
        spec: &spec,
        source: &source,
        gpus: scenario.gpus,
    }]);
    vdnn.tenants()[0].total
}

fn row_with_baseline(ctx: &Context, scenario: &Scenario, vdnn_step: f64) -> MultiGpuRow {
    // g = 1 *is* the single-GPU step — `ClusterSim` hands a lone GPU on a
    // flat link to `TimelineSim` bit for bit — so it comes from the step
    // memo; the cluster starts at g = 2.
    let (fidelity, cdma_step, allreduce, link_utilisation) = if scenario.gpus == 1 {
        let step = ctx.step(scenario);
        let link = step.busy_seconds(Resource::Link);
        (step.fidelity(), step.total(), 0.0, link / step.total())
    } else {
        let cdma = cluster_timeline(ctx, scenario);
        let tc = &cdma.tenants()[0];
        let fidelity = cdma.gpu(0).fidelity();
        (fidelity, tc.total, tc.allreduce, cdma.link_utilisation())
    };
    MultiGpuRow {
        network: scenario.network.clone(),
        fidelity,
        gpus: scenario.gpus,
        link_share_gbps: scenario.config.pcie_bw / scenario.gpus as f64 / 1e9,
        vdnn_step,
        cdma_step,
        allreduce,
        speedup: vdnn_step / cdma_step,
        link_utilisation,
    }
}

/// The fig_multi_gpu report.
#[derive(Debug, Clone)]
pub struct MultiGpuReport {
    /// Per-g speedup rows (network-major, then fidelity, then g).
    pub rows: Vec<MultiGpuRow>,
    /// Heavy-traffic tenant mix rows.
    pub tenants: Vec<TenantRow>,
    /// Makespan of the shared tenant mix, seconds.
    pub mix_makespan: f64,
    /// Makespan with the gradient all-reduce overlapped into backward.
    pub mix_makespan_overlapped: f64,
    /// Link-utilisation Gantt of the tenant mix (the report artifact).
    pub gantt: String,
}

/// Builds the heavy-traffic mix: every mix network the filter admits
/// (all four when the filter would empty the mix), two GPUs each, at the
/// profiled fidelity.
fn mix_members(ctx: &Context, filter: &ScenarioFilter) -> Vec<(Arc<NetworkSpec>, FidelitySource)> {
    let mut names: Vec<&str> = TENANT_MIX
        .iter()
        .copied()
        .filter(|n| filter.matches_network(n))
        .collect();
    if names.is_empty() {
        names = TENANT_MIX.to_vec();
    }
    names
        .into_iter()
        .map(|name| {
            let scenario = ScenarioSet::builder()
                .networks([name])
                .gpu_counts([2])
                .build()
                .scenarios()[0]
                .clone();
            (ctx.spec(name), ctx.transfer_source(&scenario))
        })
        .collect()
}

/// The full Section IX experiment: the per-g sweep across all three
/// fidelity levels plus the shared-link tenant mix.
pub fn fig_multi_gpu(ctx: &Context, filter: &ScenarioFilter) -> MultiGpuReport {
    let set = ScenarioSet::builder()
        .fidelities(Fidelity::ALL)
        .gpu_counts(GPU_SWEEP)
        .build()
        .filtered(filter);
    // The uncompressed baseline is fidelity-independent: compute it once
    // per (network, gpus) cell and share it across the three fidelities.
    let mut reps: Vec<Scenario> = Vec::new();
    for s in set.scenarios() {
        if !reps
            .iter()
            .any(|r| r.network == s.network && r.gpus == s.gpus)
        {
            reps.push(s.clone());
        }
    }
    let baselines: Vec<f64> = reps.iter().map(|s| vdnn_total(ctx, s)).collect();
    let baseline_of = |s: &Scenario| {
        let i = reps
            .iter()
            .position(|r| r.network == s.network && r.gpus == s.gpus)
            .expect("every scenario has a baseline representative");
        baselines[i]
    };
    let rows = set
        .scenarios()
        .iter()
        .map(|s| row_with_baseline(ctx, s, baseline_of(s)))
        .collect();

    // The heavy-traffic mix: independent tenants on the paper's default
    // platform, one wire.
    let sim = ClusterSim::new(
        SystemConfig::titan_x_pcie3(),
        compute_model(),
        LinkPolicy::BandwidthShare,
    );
    let members = mix_members(ctx, filter);
    let tenants: Vec<Tenant<'_>> = members
        .iter()
        .map(|(spec, source)| Tenant {
            spec,
            source,
            gpus: 2,
        })
        .collect();
    let shared = sim.simulate(&tenants);
    let overlapped = sim.overlap_allreduce(true).simulate(&tenants);
    let isolated: Vec<ClusterTimeline> = tenants.iter().map(|t| sim.simulate(&[*t])).collect();
    let tenant_rows: Vec<TenantRow> = shared
        .tenants()
        .iter()
        .zip(&isolated)
        .map(|(sh, iso)| TenantRow {
            network: sh.network.clone(),
            gpus: sh.gpus,
            isolated: iso.tenants()[0].total,
            shared: sh.total,
            slowdown: sh.total / iso.tenants()[0].total,
        })
        .collect();

    // Link-utilisation Gantt of the shared run.
    let cols = 96;
    let makespan = shared.makespan();
    let mut gantt = vec![
        format!(
            "link occupancy over one shared step ({} tenants x 2 GPUs, {}; makespan {:.1} ms)",
            tenant_rows.len(),
            LinkPolicy::BandwidthShare,
            makespan * 1e3
        ),
        format!(
            "{:<22} 0 ms {:>width$.1} ms",
            "",
            makespan * 1e3,
            width = cols - 3
        ),
    ];
    for (i, tl) in shared.gpus().iter().enumerate() {
        let label = format!("{}.gpu{}", shared.tenants()[shared.tenant_of(i)].network, i);
        gantt.push(gantt_row(&label, tl.busy(Resource::Link), makespan, cols));
    }
    for t in shared.tenants() {
        if let Some(span) = t.allreduce_span {
            gantt.push(gantt_row(
                &format!("{}.allreduce", t.network),
                &[span],
                makespan,
                cols,
            ));
        }
    }
    gantt.push(gantt_row(
        "link (aggregate)",
        shared.link_busy(),
        makespan,
        cols,
    ));
    gantt.push(format!(
        "aggregate link utilisation: {:.1}%",
        shared.link_utilisation() * 100.0
    ));

    MultiGpuReport {
        rows,
        tenants: tenant_rows,
        mix_makespan: shared.makespan(),
        mix_makespan_overlapped: overlapped.makespan(),
        gantt: gantt.join("\n"),
    }
}

impl Report for MultiGpuReport {
    fn name(&self) -> &'static str {
        "fig_multi_gpu"
    }

    fn title(&self) -> String {
        "Section IX: multi-GPU shared-link contention — per-g speedup and tenant mix".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
        let mut sweep = Table::new(
            "cDMA speedup per GPU count (shared host link)",
            &[
                "network",
                "fidelity",
                "gpus",
                "link_share_gbps",
                "vdnn_step_s",
                "cdma_step_s",
                "allreduce_s",
                "speedup",
                "link_util",
            ],
        );
        for r in &self.rows {
            sweep.row([
                r.network.as_str().into(),
                r.fidelity.into(),
                r.gpus.into(),
                Cell::Num(r.link_share_gbps),
                Cell::Num(r.vdnn_step),
                Cell::Num(r.cdma_step),
                Cell::Num(r.allreduce),
                Cell::Num(r.speedup),
                Cell::Num(r.link_utilisation),
            ]);
        }
        let mut mix = Table::new(
            "heavy-traffic tenant mix (independent jobs, one link)",
            &["tenant", "gpus", "isolated_s", "shared_s", "slowdown"],
        );
        for t in &self.tenants {
            mix.row([
                t.network.as_str().into(),
                t.gpus.into(),
                Cell::Num(t.isolated),
                Cell::Num(t.shared),
                Cell::Num(t.slowdown),
            ]);
        }
        vec![sweep, mix]
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        // Headline: the largest-g uniform-fidelity speedup, the paper's
        // Section IX argument in one line.
        if let Some(best) = self
            .rows
            .iter()
            .filter(|r| r.fidelity == Fidelity::UniformRatio.label())
            .max_by(|a, b| a.gpus.cmp(&b.gpus).then(a.speedup.total_cmp(&b.speedup)))
        {
            notes.push(format!(
                "at g={} cDMA speeds the {} step by {:.0}% (link share {:.1} GB/s per GPU)",
                best.gpus,
                best.network,
                (best.speedup - 1.0) * 100.0,
                best.link_share_gbps
            ));
        }
        notes.push(format!(
            "tenant mix: serialized all-reduce makespan {:.1} ms, overlapped with backward {:.1} ms ({:.1}% shorter)",
            self.mix_makespan * 1e3,
            self.mix_makespan_overlapped * 1e3,
            (1.0 - self.mix_makespan_overlapped / self.mix_makespan) * 100.0
        ));
        notes
    }

    fn artifacts(&self) -> Vec<Artifact> {
        vec![Artifact {
            name: "link_utilisation.txt".to_owned(),
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
    fn sweep_covers_g_and_fidelity_for_filtered_networks() {
        let report = fig_multi_gpu(&ctx(), &ScenarioFilter::all().network("SqueezeNet"));
        // 1 network x 3 fidelities x 4 gpu counts.
        assert_eq!(report.rows.len(), 12);
        assert!(report.rows.iter().all(|r| r.network == "SqueezeNet"));
        for g in GPU_SWEEP {
            assert!(report.rows.iter().any(|r| r.gpus == g), "missing g={g}");
        }
        // Speedups never below 1 (compression cannot hurt) and grow
        // with g at the uniform level.
        let uniform: Vec<&MultiGpuRow> = report
            .rows
            .iter()
            .filter(|r| r.fidelity == "uniform-ratio")
            .collect();
        for w in uniform.windows(2) {
            assert!(
                w[1].speedup >= w[0].speedup - 1e-9,
                "speedup not monotone in g"
            );
        }
        for r in &report.rows {
            assert!(
                r.speedup >= 1.0 - 1e-9,
                "{}: speedup {}",
                r.fidelity,
                r.speedup
            );
            assert!(r.cdma_step > 0.0 && r.vdnn_step > 0.0);
            assert!(r.link_utilisation > 0.0 && r.link_utilisation <= 1.0 + 1e-12);
        }
        // g=1 has no all-reduce.
        assert!(report
            .rows
            .iter()
            .filter(|r| r.gpus == 1)
            .all(|r| r.allreduce == 0.0));
    }

    #[test]
    fn tenant_mix_reports_contention() {
        // NiN is not in the canonical mix: the mix must fall back to all
        // four tenants while the sweep covers only the filtered network.
        let report = fig_multi_gpu(&ctx(), &ScenarioFilter::all().network("NiN"));
        assert!(report.rows.iter().all(|r| r.network == "NiN"));
        assert_eq!(report.tenants.len(), 4);
        for t in &report.tenants {
            assert!(
                t.slowdown >= 1.0 - 1e-9,
                "{}: sharing a link cannot speed a tenant up ({})",
                t.network,
                t.slowdown
            );
        }
        assert!(report.mix_makespan_overlapped <= report.mix_makespan + 1e-9);
        assert!(report.gantt.contains("link (aggregate)"));
        assert_eq!(report.artifacts().len(), 1);
        assert!(!report.notes().is_empty());
    }
}
