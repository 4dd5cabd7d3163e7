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
use crate::report::{Artifact, Cell, ReportData, Table};
use crate::scenario::{Context, Scenario, ScenarioFilter, ScenarioSet};

/// The GPU counts of the Section IX sweep.
// pub: multi_gpu_cross_validation.rs sweeps the figure's GPU counts
pub const GPU_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The canonical heavy-traffic tenant mix: four networks, two GPUs each,
/// eight DMA paths plus four gradient streams on one wire.
const TENANT_MIX: [&str; 4] = ["AlexNet", "VGG", "GoogLeNet", "SqueezeNet"];

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

/// A scenario's cDMA step: its fidelity label, end-to-end seconds,
/// exposed all-reduce seconds and shared-link busy fraction.
fn cdma_step(ctx: &Context, scenario: &Scenario) -> (&'static str, f64, f64, f64) {
    // g = 1 *is* the single-GPU step — `ClusterSim` hands a lone GPU on a
    // flat link to `TimelineSim` bit for bit — so it comes from the step
    // memo; the cluster starts at g = 2.
    if scenario.gpus == 1 {
        let step = ctx.step(scenario);
        let link = step.busy_seconds(Resource::Link);
        (step.fidelity(), step.total(), 0.0, link / step.total())
    } else {
        let cdma = cluster_timeline(ctx, scenario);
        let tc = &cdma.tenants()[0];
        let fidelity = cdma.gpu(0).fidelity();
        (fidelity, tc.total, tc.allreduce, cdma.link_utilisation())
    }
}

/// The simulator of the heavy-traffic mix: independent tenants on the
/// paper's default platform, one wire.
fn mix_sim() -> ClusterSim {
    ClusterSim::new(
        SystemConfig::titan_x_pcie3(),
        compute_model(),
        LinkPolicy::BandwidthShare,
    )
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
/// fidelity levels (network-major, then fidelity, then g), the shared-link
/// tenant mix, and the mix's link-utilisation Gantt as an artifact.
pub fn fig_multi_gpu(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
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
    // Headline: the largest-g uniform-fidelity speedup, the paper's
    // Section IX argument in one line.
    let mut best: Option<(&Scenario, f64, f64)> = None;
    for s in set.scenarios() {
        let vdnn_step = baseline_of(s);
        let (fidelity, cdma_step, allreduce, link_utilisation) = cdma_step(ctx, s);
        let link_share_gbps = s.config.pcie_bw / s.gpus as f64 / 1e9;
        let speedup = vdnn_step / cdma_step;
        sweep.row([
            s.network.as_str().into(),
            fidelity.into(),
            s.gpus.into(),
            Cell::Num(link_share_gbps),
            Cell::Num(vdnn_step),
            Cell::Num(cdma_step),
            Cell::Num(allreduce),
            Cell::Num(speedup),
            Cell::Num(link_utilisation),
        ]);
        let beats = |(b, sp, _): (&Scenario, f64, f64)| {
            s.gpus.cmp(&b.gpus).then(speedup.total_cmp(&sp)).is_ge()
        };
        if fidelity == Fidelity::UniformRatio.label() && best.is_none_or(beats) {
            best = Some((s, speedup, link_share_gbps));
        }
    }

    let sim = mix_sim();
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
    let mut mix = Table::new(
        "heavy-traffic tenant mix (independent jobs, one link)",
        &["tenant", "gpus", "isolated_s", "shared_s", "slowdown"],
    );
    for (sh, t) in shared.tenants().iter().zip(&tenants) {
        let isolated = sim.simulate(&[*t]).tenants()[0].total;
        mix.row([
            sh.network.as_str().into(),
            sh.gpus.into(),
            Cell::Num(isolated),
            Cell::Num(sh.total),
            Cell::Num(sh.total / isolated),
        ]);
    }

    // Link-utilisation Gantt of the shared run.
    let cols = 96;
    let makespan = shared.makespan();
    let mut gantt = vec![
        format!(
            "link occupancy over one shared step ({} tenants x 2 GPUs, {}; makespan {:.1} ms)",
            shared.tenants().len(),
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

    let mut notes = Vec::new();
    if let Some((s, speedup, link_share_gbps)) = best {
        notes.push(format!(
            "at g={} cDMA speeds the {} step by {:.0}% (link share {:.1} GB/s per GPU)",
            s.gpus,
            s.network,
            (speedup - 1.0) * 100.0,
            link_share_gbps
        ));
    }
    let (serial, overlapped) = (shared.makespan(), overlapped.makespan());
    notes.push(format!(
        "tenant mix: serialized all-reduce makespan {:.1} ms, overlapped with backward {:.1} ms ({:.1}% shorter)",
        serial * 1e3,
        overlapped * 1e3,
        (1.0 - overlapped / serial) * 100.0
    ));
    ReportData {
        name: "fig_multi_gpu",
        title: "Section IX: multi-GPU shared-link contention — per-g speedup and tenant mix"
            .to_owned(),
        tables: vec![sweep, mix],
        notes,
        artifacts: vec![Artifact {
            name: "link_utilisation.txt".to_owned(),
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
    fn sweep_covers_g_and_fidelity_for_filtered_networks() {
        let report = fig_multi_gpu(&ctx(), &ScenarioFilter::all().network("SqueezeNet"));
        let rows = report.tables[0].records();
        // 1 network x 3 fidelities x 4 gpu counts.
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.str("network") == "SqueezeNet"));
        for g in GPU_SWEEP {
            assert!(
                rows.iter().any(|r| r.int("gpus") == g as i64),
                "missing g={g}"
            );
        }
        // Speedups never below 1 (compression cannot hurt) and grow
        // with g at the uniform level.
        let uniform: Vec<f64> = rows
            .iter()
            .filter(|r| r.str("fidelity") == "uniform-ratio")
            .map(|r| r.num("speedup"))
            .collect();
        for w in uniform.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "speedup not monotone in g");
        }
        for r in &rows {
            assert!(
                r.num("speedup") >= 1.0 - 1e-9,
                "{}: speedup {}",
                r.str("fidelity"),
                r.num("speedup")
            );
            assert!(r.num("cdma_step_s") > 0.0 && r.num("vdnn_step_s") > 0.0);
            let util = r.num("link_util");
            assert!(util > 0.0 && util <= 1.0 + 1e-12);
        }
        // g=1 has no all-reduce.
        assert!(rows
            .iter()
            .filter(|r| r.int("gpus") == 1)
            .all(|r| r.num("allreduce_s") == 0.0));
    }

    #[test]
    fn tenant_mix_reports_contention() {
        // NiN is not in the canonical mix: the mix must fall back to all
        // four tenants while the sweep covers only the filtered network.
        let ctx = ctx();
        let filter = ScenarioFilter::all().network("NiN");
        let report = fig_multi_gpu(&ctx, &filter);
        assert!(report.tables[0]
            .records()
            .iter()
            .all(|r| r.str("network") == "NiN"));
        let mix = report.tables[1].records();
        assert_eq!(mix.len(), 4);
        for t in &mix {
            assert!(
                t.num("slowdown") >= 1.0 - 1e-9,
                "{}: sharing a link cannot speed a tenant up ({})",
                t.str("tenant"),
                t.num("slowdown")
            );
        }
        // The makespans of the notes' overlap line, from the simulator.
        let members = mix_members(&ctx, &filter);
        let tenants: Vec<Tenant<'_>> = members
            .iter()
            .map(|(spec, source)| Tenant {
                spec,
                source,
                gpus: 2,
            })
            .collect();
        let serial = mix_sim().simulate(&tenants).makespan();
        let overlapped = mix_sim()
            .overlap_allreduce(true)
            .simulate(&tenants)
            .makespan();
        assert!(overlapped <= serial + 1e-9);
        assert_eq!(report.artifacts.len(), 1);
        let gantt = String::from_utf8(report.artifacts[0].bytes.clone()).expect("text");
        assert!(gantt.contains("link (aggregate)"));
        assert!(!report.notes.is_empty());
    }
}
