//! The event-driven-timeline experiments: the Fig. 2(b) step Gantt chart
//! and the fidelity sweep cross-validating the timeline's three transfer
//! sources. Fidelity is selected *by value* — each scenario names a
//! [`Fidelity`] level and [`Context::transfer_source`] builds the source
//! at a single call site, inside [`Context::step`], which simulates each
//! scenario's step once however many experiments report it.

use cdma_vdnn::timeline::{Phase, StageRecord};
use cdma_vdnn::{Fidelity, TimelineSim, TransferPolicy, UniformRatio};

use super::compute_model;
use crate::report::{Cell, ReportData, Table};
use crate::scenario::{Context, ScenarioFilter, ScenarioSet};

/// The full fidelity sweep: every (filtered) zoo network × the three
/// fidelity levels at training checkpoint 0.5 — the cross-validation
/// behind the timeline's claim that analytic ratios approximate real
/// compressed streams. Each row is [`Context::step`], which simulates a
/// scenario's step the first time any experiment asks.
pub fn fidelity_sweep(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
    let checkpoint = 0.5;
    let set = ScenarioSet::builder()
        .fidelities(Fidelity::ALL)
        .checkpoints([checkpoint])
        .build()
        .filtered(filter);
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
    let mut steps = Vec::new();
    for s in set.scenarios() {
        let step = ctx.step(s);
        let network = ctx.spec(&s.network).name().to_owned();
        t.row([
            network.as_str().into(),
            step.fidelity().into(),
            Cell::Num(step.total()),
            Cell::Num(step.breakdown.stall_fraction()),
            step.events_processed().into(),
        ]);
        steps.push((network, step.fidelity(), step.total()));
    }
    // Largest relative disagreement between the coarsest and finest
    // level — the sweep's cross-validation headline.
    let mut worst: Option<(&str, f64)> = None;
    for (network, fidelity, total) in &steps {
        if *fidelity != Fidelity::MeasuredStream.label() {
            continue;
        }
        let Some((_, _, base)) = steps
            .iter()
            .find(|b| b.0 == *network && b.1 == Fidelity::UniformRatio.label())
        else {
            continue;
        };
        let rel = (total - base).abs() / base;
        if worst.is_none_or(|(_, w)| rel > w) {
            worst = Some((network.as_str(), rel));
        }
    }
    let notes = match worst {
        Some((net, rel)) => vec![format!(
            "largest measured-vs-uniform step-time disagreement: {:.1}% ({net})",
            rel * 100.0
        )],
        None => Vec::new(),
    };
    ReportData {
        name: "fidelity_sweep",
        title: format!(
            "Timeline fidelity sweep at checkpoint {checkpoint:.1}: analytic vs measured transfers"
        ),
        tables: vec![t],
        notes,
        ..ReportData::default()
    }
}

/// Generates the Fig. 2(b) timeline chart for GoogLeNet (or the first
/// network the filter admits): the head of the forward pass, vDNN vs
/// cDMA transfer overlap per stage; the step totals of the vDNN analytic
/// baseline, the three fidelity levels and the oracle; an ASCII Gantt
/// chart and the first events of the measured run's log.
pub fn fig02_timeline(ctx: &Context, filter: &ScenarioFilter) -> ReportData {
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
    let mut notes = Vec::new();
    let ms_per_col = 2.0e-3; // one column = 2 ms
    let cols = |t: f64| (t / ms_per_col).round() as usize;
    for (i, layer) in spec.layers().iter().enumerate().take(14) {
        let sv = forward(vdnn.stages(), i);
        let sc = forward(cdma.stages(), i);
        stages.row([
            layer.name.as_str().into(),
            Cell::Num(sv.compute * 1e3),
            Cell::Num(sv.transfer * 1e3),
            Cell::Num(sv.stall() * 1e3),
            Cell::Num(sc.transfer * 1e3),
        ]);
        let c = cols(sv.compute);
        let mut line = "#".repeat(c.max(1));
        if sv.stall() > 0.0 {
            line.push_str(&"!".repeat(cols(sv.transfer).saturating_sub(c).max(1)));
        }
        notes.push(format!(
            "{:<18} {:>5.1}ms  {}",
            layer.name,
            sv.compute * 1e3,
            line
        ));
        notes.push(format!(
            "{:<18} {:>7}  {}",
            "",
            "cDMA:",
            "~".repeat(cols(sc.transfer).max(1))
        ));
    }
    notes.push(
        "'#' compute, '!' stall where the uncompressed offload outlasts compute, \
         '~' the same transfer as real compressed lines through the DMA pipeline"
            .to_owned(),
    );

    let mut totals = Table::new(
        "step totals across fidelity levels",
        &["fidelity", "step_ms", "stall_pct", "events"],
    );
    let mut total = |fidelity: &str, step: f64, stall_fraction: f64, events: u64| {
        totals.row([
            fidelity.into(),
            Cell::Num(step * 1e3),
            Cell::Num(stall_fraction * 100.0),
            events.into(),
        ]);
    };
    total(
        "vdnn-analytic",
        vdnn.total(),
        vdnn.breakdown.stall_fraction(),
        vdnn.events_processed(),
    );
    for s in base_set.scenarios() {
        let step = ctx.step(s);
        total(
            step.fidelity(),
            step.total(),
            step.breakdown.stall_fraction(),
            step.events_processed(),
        );
    }
    let oracle = sim.simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
    total("oracle", oracle.total(), 0.0, oracle.events_processed());

    notes.extend(
        cdma.events()
            .iter()
            .take(16)
            .map(|e| format!("{:>10.3} ms  {:?}", e.time * 1e3, e.kind)),
    );
    notes.push(format!(
        "... {} log events, {} processed (line-granularity DMA pipeline events included)",
        cdma.events().len(),
        cdma.events_processed()
    ));

    ReportData {
        name: "fig02_timeline",
        title: format!(
            "Figure 2(b): forward-pass timeline — compute vs offload per layer ({network})"
        ),
        tables: vec![stages, totals],
        notes,
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
    fn fidelity_levels_agree_on_alexnet() {
        let ctx = ctx();
        let set = ScenarioSet::builder()
            .networks(["AlexNet"])
            .fidelities(Fidelity::ALL)
            .seed(11)
            .build();
        let steps: Vec<_> = set.scenarios().iter().map(|s| ctx.step(s)).collect();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].fidelity(), "uniform-ratio");
        assert_eq!(steps[1].fidelity(), "profiled-density");
        assert_eq!(steps[2].fidelity(), "measured-stream");
        // All three levels model the same step: the times must agree to
        // well within the vDNN-vs-oracle spread.
        let base = steps[0].total();
        for step in &steps {
            assert!(step.total() > 0.0 && step.breakdown.stall_fraction() < 1.0);
            assert!(
                (step.total() - base).abs() / base < 0.30,
                "{} step {} vs uniform {}",
                step.fidelity(),
                step.total(),
                base
            );
        }
        // The measured level simulates at line granularity.
        assert!(steps[2].events_processed() > 100 * steps[0].events_processed());
    }

    #[test]
    fn fidelity_sweep_covers_filtered_networks() {
        let report = fidelity_sweep(&ctx(), &ScenarioFilter::all().network("SqueezeNet"));
        let rows = report.tables[0].records();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.str("network") == "SqueezeNet"));
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn fig02_charts_the_head_of_the_network() {
        let report = fig02_timeline(&ctx(), &ScenarioFilter::all().network("AlexNet"));
        assert!(report.title.ends_with("(AlexNet)"), "{}", report.title);
        assert!(!report
            .table("forward stages (head of the pass)")
            .rows()
            .is_empty());
        let totals = report.table("step totals across fidelity levels").records();
        assert_eq!(totals.len(), 5); // vdnn + 3 fidelities + oracle
        assert_eq!(totals[0].str("fidelity"), "vdnn-analytic");
        assert_eq!(totals[4].str("fidelity"), "oracle");
        // The oracle is the floor, vDNN the ceiling.
        let oracle = totals[4].num("step_ms");
        let vdnn = totals[0].num("step_ms");
        assert!(oracle <= vdnn);
        for r in &totals {
            assert!(
                r.num("step_ms") >= oracle - 1e-9 && r.num("step_ms") <= vdnn + 1e-9,
                "{}",
                r.str("fidelity")
            );
        }
    }
}
