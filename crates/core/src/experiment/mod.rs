//! # Experiment drivers — every table and figure as a typed report
//!
//! Each entry of the paper's evaluation (Section VII) is one function
//! that consumes [`Scenario`](crate::scenario::Scenario) values through a
//! shared [`Context`] (memoized profiles, ratio table, measured streams)
//! and a [`Runner`] (parallel sweep fan-out), and returns a typed value
//! implementing [`Report`] — renderable as text,
//! CSV or JSON.
//!
//! The [`CATALOGUE`] lists every experiment by its stable name; [`run`]
//! dispatches a name to its driver. The `cdma-bench` CLI is a thin shell
//! over exactly these two items:
//!
//! ```
//! use cdma_core::experiment;
//! use cdma_core::report::{render, Format};
//! use cdma_core::scenario::{Context, Runner, ScenarioFilter};
//!
//! let ctx = Context::fast();
//! let filter = ScenarioFilter::all().network("AlexNet");
//! let report = experiment::run("fig12", &ctx, &Runner::sequential(), &filter)
//!     .expect("fig12 is in the catalogue");
//! let json = render(report.as_ref(), Format::Json);
//! assert!(json.starts_with("{\"experiment\":\"fig12\""));
//! ```

mod cluster;
mod datacenter;
mod density;
mod frontier;
mod grid;
mod inference;
mod serving;
mod system;
mod timeline;
mod training;

pub use cluster::{
    cluster_timeline, fig_multi_gpu, multi_gpu_row, MultiGpuReport, MultiGpuRow, TenantRow,
    GPU_SWEEP,
};
pub use datacenter::{
    fig_datacenter, ChurnSummary, DatacenterReport, DatacenterRow, DATACENTER_GPU_SWEEP,
};
pub use density::{
    density_figure, density_figure_from_profile, fig04, fig05, fig06, fig07, DensityFigure,
    Fig04Report, Fig05Report, Fig06Report, Fig07Report, Fig7Data,
};
pub use frontier::{fig_frontier, FrontierReport, FrontierRow};
pub use grid::{
    fig03, fig11, fig12, fig13, headline, Fig03Report, Fig11Report, Fig11Row, Fig12Report,
    Fig12Row, Fig13Report, Fig13Row, Fig3Row, Headline, PerfConfig,
};
pub use inference::{
    fig_inference, InferEnergyRow, InferServeRow, InferSpeedupRow, InferTrafficRow, InferenceReport,
};
pub use serving::{serve_load, ServeLoadReport, ServePhase};
pub use system::{
    ablations, energy, footprint, memory_usage, overheads, AblationsReport, EnergyReport,
    FootprintReport, MemoryUsageReport, OverheadsReport,
};
pub use timeline::{
    fidelity_row, fidelity_sweep, fig02_timeline, FidelityRow, FidelitySweepReport, Fig02Report,
};
pub use training::{
    fig5_checkpoints, rnn_traffic, table1, training_runs, RnnTrafficReport, Table1Report,
    TrainingRunReport, TrainingRunSummary,
};

use cdma_vdnn::{ComputeModel, CudnnVersion};

use crate::report::Report;
use crate::scenario::{Context, Runner, ScenarioFilter};

/// The compute model of every step the catalogue shares between
/// experiments: Titan X on cuDNN v5. [`Context::step`] memoises on it
/// without keying it, so whoever compares against a memoised step — the
/// cluster sweep, Fig. 2's baselines — must build its simulator from this
/// function too.
pub(crate) fn compute_model() -> ComputeModel {
    ComputeModel::titan_x(CudnnVersion::V5)
}

/// Renders one row of a Gantt artifact: '#' columns where any of `spans`
/// overlaps the bucket.
fn gantt_row(label: &str, spans: &[(f64, f64)], makespan: f64, cols: usize) -> String {
    let mut chars = vec![' '; cols];
    for &(s, e) in spans {
        let lo = ((s / makespan) * cols as f64).floor() as usize;
        let hi = (((e / makespan) * cols as f64).ceil() as usize).clamp(lo + 1, cols);
        for c in chars.iter_mut().take(hi).skip(lo.min(cols - 1)) {
            *c = '#';
        }
    }
    format!("{label:<22} |{}|", chars.into_iter().collect::<String>())
}

/// One catalogue entry: the stable experiment name plus what it
/// regenerates.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// Stable machine name (CLI argument, report name, output file stem).
    pub name: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
}

/// Every experiment, in the order `experiments all` runs them.
pub const CATALOGUE: &[ExperimentInfo] = &[
    ExperimentInfo {
        name: "table1",
        title: "Table I: networks, accuracy and trainable tiny counterparts",
    },
    ExperimentInfo {
        name: "fig02_timeline",
        title: "Fig. 2(b): forward-pass timeline, vDNN stalls vs cDMA",
    },
    ExperimentInfo {
        name: "fig03",
        title: "Fig. 3: cuDNN speedups and vDNN degradation per version",
    },
    ExperimentInfo {
        name: "fig04",
        title: "Fig. 4: AlexNet per-layer density over training",
    },
    ExperimentInfo {
        name: "fig05",
        title: "Fig. 5: activation-map images + measured offload of their data",
    },
    ExperimentInfo {
        name: "fig06",
        title: "Fig. 6: per-layer density over training, other five networks",
    },
    ExperimentInfo {
        name: "fig07",
        title: "Fig. 7: training loss vs conv-layer density",
    },
    ExperimentInfo {
        name: "fig11",
        title: "Fig. 11: average and maximum compression ratios",
    },
    ExperimentInfo {
        name: "fig12",
        title: "Fig. 12: offloaded bytes normalized to vDNN",
    },
    ExperimentInfo {
        name: "fig13",
        title: "Fig. 13: performance normalized to the oracle",
    },
    ExperimentInfo {
        name: "fidelity_sweep",
        title: "Timeline fidelity sweep: uniform vs profiled vs measured",
    },
    ExperimentInfo {
        name: "overheads",
        title: "Section V-C: area, buffer sizing and engine pipeline overheads",
    },
    ExperimentInfo {
        name: "energy",
        title: "Section VII-C: transfer-energy comparison, vDNN vs cDMA",
    },
    ExperimentInfo {
        name: "memory_usage",
        title: "Section III: GPU memory footprint and vDNN savings",
    },
    ExperimentInfo {
        name: "footprint",
        title: "Section IX: ZVC-compressed activation storage in GPU DRAM",
    },
    ExperimentInfo {
        name: "fig_multi_gpu",
        title: "Section IX: multi-GPU shared-link contention, per-g speedup",
    },
    ExperimentInfo {
        name: "rnn_traffic",
        title: "RNN boundary claim: ReLU vs saturating recurrences",
    },
    ExperimentInfo {
        name: "training_run",
        title: "Whole-training-run projection over the sparsity U-curve",
    },
    ExperimentInfo {
        name: "ablations",
        title: "Design ablations: window, COMP_BW, buffer, link, policy",
    },
    ExperimentInfo {
        name: "serve_load",
        title: "cdma-serve: multi-tenant load harness — latency, sheds, fairness",
    },
    ExperimentInfo {
        name: "fig_inference",
        title: "cdma-infer: CSC inference — speedup vs density, traffic, serving, energy",
    },
    ExperimentInfo {
        name: "fig_datacenter",
        title: "Datacenter scale: hierarchical fabric sweep and tenant churn",
    },
    ExperimentInfo {
        name: "fig_frontier",
        title: "Ratio-vs-throughput frontier across the codec family",
    },
];

/// The catalogue's experiment names, in run order.
pub fn names() -> Vec<&'static str> {
    CATALOGUE.iter().map(|e| e.name).collect()
}

/// Runs one experiment by catalogue name. Returns `None` for unknown
/// names.
pub fn run(
    name: &str,
    ctx: &Context,
    runner: &Runner,
    filter: &ScenarioFilter,
) -> Option<Box<dyn Report>> {
    Some(match name {
        "table1" => Box::new(training::table1(ctx, filter)),
        "fig02_timeline" => Box::new(timeline::fig02_timeline(ctx, filter)),
        "fig03" => Box::new(grid::fig03(ctx, runner, filter)),
        "fig04" => Box::new(density::fig04(ctx)),
        "fig05" => Box::new(density::fig05(ctx)),
        "fig06" => Box::new(density::fig06(ctx, runner, filter)),
        "fig07" => Box::new(density::fig07(ctx)),
        "fig11" => Box::new(grid::fig11(ctx, runner, filter)),
        "fig12" => Box::new(grid::fig12(ctx, runner, filter)),
        "fig13" => Box::new(grid::fig13(ctx, runner, filter)),
        "fidelity_sweep" => Box::new(timeline::fidelity_sweep(ctx, runner, filter)),
        "overheads" => Box::new(system::overheads(ctx)),
        "energy" => Box::new(system::energy(ctx, runner, filter)),
        "memory_usage" => Box::new(system::memory_usage(ctx, filter)),
        "footprint" => Box::new(system::footprint(ctx, filter)),
        "fig_multi_gpu" => Box::new(cluster::fig_multi_gpu(ctx, runner, filter)),
        "rnn_traffic" => Box::new(training::rnn_traffic(ctx)),
        "training_run" => Box::new(training::training_runs(ctx, runner, filter)),
        "ablations" => Box::new(system::ablations(ctx, runner)),
        "serve_load" => Box::new(serving::serve_load(ctx)),
        "fig_inference" => Box::new(inference::fig_inference(ctx, runner, filter)),
        "fig_datacenter" => Box::new(datacenter::fig_datacenter(ctx, runner, filter)),
        "fig_frontier" => Box::new(frontier::fig_frontier(ctx, runner, filter)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_json;

    #[test]
    fn catalogue_names_are_unique_and_dispatchable() {
        let names = names();
        assert_eq!(names.len(), 23);
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate {n}");
        }
        assert!(run(
            "nonexistent",
            &Context::fast(),
            &Runner::sequential(),
            &ScenarioFilter::all()
        )
        .is_none());
    }

    #[test]
    fn report_names_match_catalogue_names() {
        // Cheap spot checks (running all 19 here would be slow; the CLI
        // smoke test covers the full catalogue).
        let ctx = Context::fast();
        let runner = Runner::sequential();
        let filter = ScenarioFilter::all().network("AlexNet");
        for name in ["fig04", "fig07", "fig12", "memory_usage"] {
            let report = run(name, &ctx, &runner, &filter).expect(name);
            assert_eq!(report.name(), name);
            let json = render_json(report.as_ref());
            assert!(json.contains(&format!("\"experiment\":\"{name}\"")));
        }
    }
}
