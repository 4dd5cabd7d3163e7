//! The event-driven-timeline experiments: the Fig. 2(b) step Gantt chart
//! and the fidelity sweep cross-validating the timeline's three transfer
//! sources. Fidelity is selected *by value* — each scenario names a
//! [`Fidelity`] level and [`Context::transfer_source`] builds the source
//! at a single call site, inside [`Context::step`], which simulates each
//! scenario's step once however many experiments report it.

use cdma_vdnn::timeline::{Phase, StageRecord};
use cdma_vdnn::{Fidelity, TimelineSim, TransferPolicy, UniformRatio};

use super::compute_model;
use crate::report::{Cell, Report, Table};
use crate::scenario::{Context, Runner, Scenario, ScenarioFilter, ScenarioSet};

/// One row of the fidelity sweep: the same training step simulated
/// through the event-driven timeline at one of its three fidelity levels.
#[derive(Debug, Clone)]
pub struct FidelityRow {
    /// Network name.
    pub network: String,
    /// Transfer-source label (`uniform-ratio`, `profiled-density`,
    /// `measured-stream`).
    pub fidelity: &'static str,
    /// Step latency, seconds.
    pub step_time: f64,
    /// Fraction of the step spent stalled on transfers.
    pub stall_fraction: f64,
    /// Events processed by the timeline (line-granularity at the measured
    /// level).
    pub events: u64,
}

/// One scenario's training step through the timeline at the scenario's
/// fidelity level — [`Context::step`], which simulates it the first time
/// any experiment asks.
pub fn fidelity_row(ctx: &Context, scenario: &Scenario) -> FidelityRow {
    let step = ctx.step(scenario);
    FidelityRow {
        network: ctx.spec(&scenario.network).name().to_owned(),
        fidelity: step.fidelity(),
        step_time: step.total(),
        stall_fraction: step.breakdown.stall_fraction(),
        events: step.events_processed(),
    }
}

/// The fidelity-sweep report.
#[derive(Debug, Clone)]
pub struct FidelitySweepReport {
    /// One row per network × fidelity level.
    pub rows: Vec<FidelityRow>,
    /// The training checkpoint the sweep ran at.
    pub checkpoint: f64,
}

/// The full fidelity sweep: every (filtered) zoo network × the three
/// fidelity levels at training checkpoint 0.5 — the cross-validation
/// behind the timeline's claim that analytic ratios approximate real
/// compressed streams.
pub fn fidelity_sweep(
    ctx: &Context,
    runner: &Runner,
    filter: &ScenarioFilter,
) -> FidelitySweepReport {
    let checkpoint = 0.5;
    let set = ScenarioSet::builder()
        .fidelities(Fidelity::ALL)
        .checkpoints([checkpoint])
        .build()
        .filtered(filter);
    let rows = runner.run(&set, |s| fidelity_row(ctx, s));
    FidelitySweepReport { rows, checkpoint }
}

impl Report for FidelitySweepReport {
    fn name(&self) -> &'static str {
        "fidelity_sweep"
    }

    fn title(&self) -> String {
        format!(
            "Timeline fidelity sweep at checkpoint {:.1}: analytic vs measured transfers",
            self.checkpoint
        )
    }

    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "per-network step time by fidelity",
            &[
                "network",
                "fidelity",
                "step_seconds",
                "stall_fraction",
                "events",
            ],
        );
        for r in &self.rows {
            t.row([
                r.network.as_str().into(),
                r.fidelity.into(),
                Cell::Num(r.step_time),
                Cell::Num(r.stall_fraction),
                r.events.into(),
            ]);
        }
        vec![t]
    }

    fn notes(&self) -> Vec<String> {
        // Largest relative disagreement between the coarsest and finest
        // level — the sweep's cross-validation headline.
        let mut worst: Option<(String, f64)> = None;
        for r in &self.rows {
            if r.fidelity != Fidelity::MeasuredStream.label() {
                continue;
            }
            let Some(base) = self
                .rows
                .iter()
                .find(|b| b.network == r.network && b.fidelity == Fidelity::UniformRatio.label())
            else {
                continue;
            };
            let rel = (r.step_time - base.step_time).abs() / base.step_time;
            if worst.as_ref().is_none_or(|(_, w)| rel > *w) {
                worst = Some((r.network.clone(), rel));
            }
        }
        match worst {
            Some((net, rel)) => vec![format!(
                "largest measured-vs-uniform step-time disagreement: {:.1}% ({net})",
                rel * 100.0
            )],
            None => Vec::new(),
        }
    }
}

/// One forward stage of the Fig. 2 chart: vDNN vs cDMA transfer overlap.
#[derive(Debug, Clone)]
pub struct Fig02Stage {
    /// Layer name.
    pub layer: String,
    /// Layer compute seconds.
    pub compute: f64,
    /// Uncompressed-vDNN transfer seconds overlapping this stage.
    pub vdnn_transfer: f64,
    /// Seconds the GPU stalls under vDNN.
    pub vdnn_stall: f64,
    /// The same transfer as real compressed lines through the pipeline.
    pub cdma_transfer: f64,
}

/// The Fig. 2(b) report.
#[derive(Debug, Clone)]
pub struct Fig02Report {
    /// The charted network.
    pub network: String,
    /// The first forward stages (the figure shows the head of the pass).
    pub stages: Vec<Fig02Stage>,
    /// Step totals: the vDNN analytic baseline, the three fidelity
    /// levels, and the oracle.
    pub totals: Vec<FidelityRow>,
    /// ASCII Gantt chart lines.
    pub gantt: Vec<String>,
    /// First events of the measured run's log.
    pub event_log: Vec<String>,
}

/// Generates the Fig. 2(b) timeline chart for GoogLeNet (or the first
/// network the filter admits).
pub fn fig02_timeline(ctx: &Context, filter: &ScenarioFilter) -> Fig02Report {
    let network = if filter.matches_network("GoogLeNet") {
        "GoogLeNet".to_owned()
    } else {
        ScenarioSet::builder()
            .build()
            .filtered(filter)
            .networks()
            .first()
            .cloned()
            .unwrap_or_else(|| "GoogLeNet".to_owned())
    };
    let base_set = ScenarioSet::builder()
        .networks([network.clone()])
        .fidelities(Fidelity::ALL)
        .build();
    let spec = ctx.spec(&network);
    let cfg = base_set.scenarios()[0].config;
    let sim = TimelineSim::new(cfg, compute_model());

    // Uncompressed vDNN at the analytic level; cDMA at the measured level
    // (real ZVC line sizes of profiled activations, mid-training) — the
    // step `fidelity_sweep` and `fig_multi_gpu` report too.
    let vdnn = sim.simulate(&spec, &UniformRatio::uniform(&spec, 1.0));
    let measured_scenario = base_set
        .scenarios()
        .iter()
        .find(|s| s.fidelity == Fidelity::MeasuredStream)
        .expect("all fidelities built");
    let cdma = ctx.step(measured_scenario);

    let forward = |stages: &[StageRecord], i: usize| {
        *stages
            .iter()
            .find(|s| s.phase == Phase::Forward && s.layer == i)
            .expect("forward stage")
    };
    let mut stages = Vec::new();
    let mut gantt = Vec::new();
    let ms_per_col = 2.0e-3; // one column = 2 ms
    let cols = |t: f64| (t / ms_per_col).round() as usize;
    for (i, layer) in spec.layers().iter().enumerate().take(14) {
        let sv = forward(vdnn.stages(), i);
        let sc = forward(cdma.stages(), i);
        stages.push(Fig02Stage {
            layer: layer.name.clone(),
            compute: sv.compute,
            vdnn_transfer: sv.transfer,
            vdnn_stall: sv.stall(),
            cdma_transfer: sc.transfer,
        });
        let c = cols(sv.compute);
        let mut line = "#".repeat(c.max(1));
        if sv.stall() > 0.0 {
            line.push_str(&"!".repeat(cols(sv.transfer).saturating_sub(c).max(1)));
        }
        gantt.push(format!(
            "{:<18} {:>5.1}ms  {}",
            layer.name,
            sv.compute * 1e3,
            line
        ));
        gantt.push(format!(
            "{:<18} {:>7}  {}",
            "",
            "cDMA:",
            "~".repeat(cols(sc.transfer).max(1))
        ));
    }

    let mut totals = vec![FidelityRow {
        network: network.clone(),
        fidelity: "vdnn-analytic",
        step_time: vdnn.total(),
        stall_fraction: vdnn.breakdown.stall_fraction(),
        events: vdnn.events_processed(),
    }];
    totals.extend(base_set.scenarios().iter().map(|s| fidelity_row(ctx, s)));
    let oracle = sim.simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
    totals.push(FidelityRow {
        network: network.clone(),
        fidelity: "oracle",
        step_time: oracle.total(),
        stall_fraction: 0.0,
        events: oracle.events_processed(),
    });

    let event_log = cdma
        .events()
        .iter()
        .take(16)
        .map(|e| format!("{:>10.3} ms  {:?}", e.time * 1e3, e.kind))
        .chain(std::iter::once(format!(
            "... {} log events, {} processed (line-granularity DMA pipeline events included)",
            cdma.events().len(),
            cdma.events_processed()
        )))
        .collect();

    Fig02Report {
        network,
        stages,
        totals,
        gantt,
        event_log,
    }
}

impl Report for Fig02Report {
    fn name(&self) -> &'static str {
        "fig02_timeline"
    }

    fn title(&self) -> String {
        format!(
            "Figure 2(b): forward-pass timeline — compute vs offload per layer ({})",
            self.network
        )
    }

    fn tables(&self) -> Vec<Table> {
        let mut stages = Table::new(
            "forward stages (head of the pass)",
            &[
                "layer",
                "compute_ms",
                "vdnn_transfer_ms",
                "vdnn_stall_ms",
                "cdma_transfer_ms",
            ],
        );
        for s in &self.stages {
            stages.row([
                s.layer.as_str().into(),
                Cell::Num(s.compute * 1e3),
                Cell::Num(s.vdnn_transfer * 1e3),
                Cell::Num(s.vdnn_stall * 1e3),
                Cell::Num(s.cdma_transfer * 1e3),
            ]);
        }
        let mut totals = Table::new(
            "step totals across fidelity levels",
            &["fidelity", "step_ms", "stall_pct", "events"],
        );
        for r in &self.totals {
            totals.row([
                r.fidelity.into(),
                Cell::Num(r.step_time * 1e3),
                Cell::Num(r.stall_fraction * 100.0),
                r.events.into(),
            ]);
        }
        vec![stages, totals]
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = self.gantt.clone();
        notes.push(
            "'#' compute, '!' stall where the uncompressed offload outlasts compute, \
             '~' the same transfer as real compressed lines through the DMA pipeline"
                .to_owned(),
        );
        notes.extend(self.event_log.iter().cloned());
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_gpusim::SystemConfig;
    use cdma_vdnn::RatioTable;

    fn ctx() -> Context {
        Context::with_table(RatioTable::build_fast(11))
    }

    #[test]
    fn fidelity_levels_agree_on_alexnet() {
        let ctx = ctx();
        let set = ScenarioSet::builder()
            .networks(["AlexNet"])
            .fidelities(Fidelity::ALL)
            .seed(11)
            .build();
        let rows: Vec<FidelityRow> = set
            .scenarios()
            .iter()
            .map(|s| fidelity_row(&ctx, s))
            .collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].fidelity, "uniform-ratio");
        assert_eq!(rows[1].fidelity, "profiled-density");
        assert_eq!(rows[2].fidelity, "measured-stream");
        // All three levels model the same step: the times must agree to
        // well within the vDNN-vs-oracle spread.
        let base = rows[0].step_time;
        for r in &rows {
            assert!(r.step_time > 0.0 && r.stall_fraction < 1.0);
            assert!(
                (r.step_time - base).abs() / base < 0.30,
                "{} step {} vs uniform {}",
                r.fidelity,
                r.step_time,
                base
            );
        }
        // The measured level simulates at line granularity.
        assert!(rows[2].events > 100 * rows[0].events);
    }

    #[test]
    fn fidelity_sweep_covers_filtered_networks() {
        let report = fidelity_sweep(
            &ctx(),
            &Runner::sequential(),
            &ScenarioFilter::all().network("SqueezeNet"),
        );
        assert_eq!(report.rows.len(), 3);
        assert!(report.rows.iter().all(|r| r.network == "SqueezeNet"));
        assert!(!report.notes().is_empty());
    }

    #[test]
    fn fig02_charts_the_head_of_the_network() {
        let report = fig02_timeline(&ctx(), &ScenarioFilter::all().network("AlexNet"));
        assert_eq!(report.network, "AlexNet");
        assert!(!report.stages.is_empty());
        assert_eq!(report.totals.len(), 5); // vdnn + 3 fidelities + oracle
        assert_eq!(report.totals[0].fidelity, "vdnn-analytic");
        assert_eq!(report.totals[4].fidelity, "oracle");
        // The oracle is the floor, vDNN the ceiling.
        let oracle = report.totals[4].step_time;
        let vdnn = report.totals[0].step_time;
        assert!(oracle <= vdnn);
        for r in &report.totals {
            assert!(
                r.step_time >= oracle - 1e-12 && r.step_time <= vdnn + 1e-12,
                "{}",
                r.fidelity
            );
        }
        let _ = SystemConfig::titan_x_pcie3();
    }
}
