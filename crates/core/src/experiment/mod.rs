//! # Experiment drivers — every table and figure as a report
//!
//! Each entry of the paper's evaluation (Section VII) is one function
//! that consumes [`Scenario`](crate::scenario::Scenario) values through a
//! shared [`Context`] (memoized profiles, ratio table, measured streams),
//! sweeps them on the caller's thread, and fills a
//! [`ReportData`](crate::report::ReportData)'s tables, notes and
//! artifacts as it computes — renderable as text, CSV or JSON.
//!
//! The [`CATALOGUE`] lists every experiment by its stable name beside its
//! driver; [`run`] looks a name up there. The `cdma-bench` CLI is a thin shell
//! over exactly these two items:
//!
//! ```
//! use cdma_core::experiment;
//! use cdma_core::report::{render, Format};
//! use cdma_core::scenario::{Context, Runner, ScenarioFilter};
//!
//! let ctx = Context::fast();
//! let filter = ScenarioFilter::all().network("AlexNet");
//! let report = experiment::run("fig12", &ctx, &Runner, &filter)
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

pub use cluster::{cluster_timeline, fig_multi_gpu, GPU_SWEEP};
pub use datacenter::fig_datacenter;
pub use density::{fig04, fig05, fig06, fig07};
pub use frontier::fig_frontier;
pub use grid::{fig03, fig11, fig12, fig13, headline, Headline};
pub use inference::fig_inference;
pub use serving::serve_load;
pub use system::{ablations, energy, footprint, memory_usage, overheads};
pub use timeline::{fidelity_sweep, fig02_timeline};
pub use training::{rnn_traffic, table1, training_runs};

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

/// One catalogue entry: the stable experiment name, what it regenerates,
/// and its driver.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// Stable machine name (CLI argument, report name, output file stem).
    pub name: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Runs the experiment; the report's [`Report::name`] is `name`.
    pub run: fn(&Context, &ScenarioFilter) -> Box<dyn Report>,
}

/// Every experiment, in the order `experiments all` runs them.
pub const CATALOGUE: &[ExperimentInfo] = &[
    ExperimentInfo {
        name: "table1",
        title: "Table I: networks, accuracy and trainable tiny counterparts",
        run: |ctx, f| Box::new(training::table1(ctx, f)),
    },
    ExperimentInfo {
        name: "fig02_timeline",
        title: "Fig. 2(b): forward-pass timeline, vDNN stalls vs cDMA",
        run: |ctx, f| Box::new(timeline::fig02_timeline(ctx, f)),
    },
    ExperimentInfo {
        name: "fig03",
        title: "Fig. 3: cuDNN speedups and vDNN degradation per version",
        run: |ctx, f| Box::new(grid::fig03(ctx, f)),
    },
    ExperimentInfo {
        name: "fig04",
        title: "Fig. 4: AlexNet per-layer density over training",
        run: |ctx, _| Box::new(density::fig04(ctx)),
    },
    ExperimentInfo {
        name: "fig05",
        title: "Fig. 5: activation-map images + measured offload of their data",
        run: |ctx, _| Box::new(density::fig05(ctx)),
    },
    ExperimentInfo {
        name: "fig06",
        title: "Fig. 6: per-layer density over training, other five networks",
        run: |ctx, f| Box::new(density::fig06(ctx, f)),
    },
    ExperimentInfo {
        name: "fig07",
        title: "Fig. 7: training loss vs conv-layer density",
        run: |ctx, _| Box::new(density::fig07(ctx)),
    },
    ExperimentInfo {
        name: "fig11",
        title: "Fig. 11: average and maximum compression ratios",
        run: |ctx, f| Box::new(grid::fig11(ctx, f)),
    },
    ExperimentInfo {
        name: "fig12",
        title: "Fig. 12: offloaded bytes normalized to vDNN",
        run: |ctx, f| Box::new(grid::fig12(ctx, f)),
    },
    ExperimentInfo {
        name: "fig13",
        title: "Fig. 13: performance normalized to the oracle",
        run: |ctx, f| Box::new(grid::fig13(ctx, f)),
    },
    ExperimentInfo {
        name: "fidelity_sweep",
        title: "Timeline fidelity sweep: uniform vs profiled vs measured",
        run: |ctx, f| Box::new(timeline::fidelity_sweep(ctx, f)),
    },
    ExperimentInfo {
        name: "overheads",
        title: "Section V-C: area, buffer sizing and engine pipeline overheads",
        run: |ctx, _| Box::new(system::overheads(ctx)),
    },
    ExperimentInfo {
        name: "energy",
        title: "Section VII-C: transfer-energy comparison, vDNN vs cDMA",
        run: |ctx, f| Box::new(system::energy(ctx, f)),
    },
    ExperimentInfo {
        name: "memory_usage",
        title: "Section III: GPU memory footprint and vDNN savings",
        run: |ctx, f| Box::new(system::memory_usage(ctx, f)),
    },
    ExperimentInfo {
        name: "footprint",
        title: "Section IX: ZVC-compressed activation storage in GPU DRAM",
        run: |ctx, f| Box::new(system::footprint(ctx, f)),
    },
    ExperimentInfo {
        name: "fig_multi_gpu",
        title: "Section IX: multi-GPU shared-link contention, per-g speedup",
        run: |ctx, f| Box::new(cluster::fig_multi_gpu(ctx, f)),
    },
    ExperimentInfo {
        name: "rnn_traffic",
        title: "RNN boundary claim: ReLU vs saturating recurrences",
        run: |ctx, _| Box::new(training::rnn_traffic(ctx)),
    },
    ExperimentInfo {
        name: "training_run",
        title: "Whole-training-run projection over the sparsity U-curve",
        run: |ctx, f| Box::new(training::training_runs(ctx, f)),
    },
    ExperimentInfo {
        name: "ablations",
        title: "Design ablations: window, COMP_BW, buffer, link, policy",
        run: |ctx, _| Box::new(system::ablations(ctx)),
    },
    ExperimentInfo {
        name: "serve_load",
        title: "cdma-serve: multi-tenant load harness — latency, sheds, fairness",
        run: |ctx, _| Box::new(serving::serve_load(ctx)),
    },
    ExperimentInfo {
        name: "fig_inference",
        title: "cdma-infer: CSC inference — speedup vs density, traffic, serving, energy",
        run: |ctx, f| Box::new(inference::fig_inference(ctx, f)),
    },
    ExperimentInfo {
        name: "fig_datacenter",
        title: "Datacenter scale: hierarchical fabric sweep and tenant churn",
        run: |ctx, f| Box::new(datacenter::fig_datacenter(ctx, f)),
    },
    ExperimentInfo {
        name: "fig_frontier",
        title: "Ratio-vs-throughput frontier across the codec family",
        run: |ctx, f| Box::new(frontier::fig_frontier(ctx, f)),
    },
];

/// The catalogue's experiment names, in run order.
pub fn names() -> Vec<&'static str> {
    CATALOGUE.iter().map(|e| e.name).collect()
}

/// Runs one experiment by catalogue name. Returns `None` for unknown
/// names. The [`Runner`] is ignored: it stays in the signature only for
/// callers that still pass one.
pub fn run(
    name: &str,
    ctx: &Context,
    _runner: &Runner,
    filter: &ScenarioFilter,
) -> Option<Box<dyn Report>> {
    let entry = CATALOGUE.iter().find(|e| e.name == name)?;
    Some((entry.run)(ctx, filter))
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
            &Runner,
            &ScenarioFilter::all()
        )
        .is_none());
    }

    #[test]
    fn report_names_match_catalogue_names() {
        // Cheap spot checks; tests/catalogue_json.rs covers the full
        // catalogue.
        let ctx = Context::fast();
        let filter = ScenarioFilter::all().network("AlexNet");
        for name in ["fig04", "fig07", "fig12", "memory_usage"] {
            let report = run(name, &ctx, &Runner, &filter).expect(name);
            assert_eq!(report.name(), name);
            let json = render_json(report.as_ref());
            assert!(json.contains(&format!("\"experiment\":\"{name}\"")));
        }
    }
}
