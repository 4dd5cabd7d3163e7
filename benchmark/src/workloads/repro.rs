//! `repro_all`: the in-process equivalent of
//! `cdma-bench experiments all --format json --jobs 1` — one
//! `Context::new()`, `Runner::with_jobs(1)`, all catalogue entries in
//! order, each rendered with `report::render_json`. It is what a reader
//! of the paper runs, and it crosses every crate.
//!
//! The catalogue pins its own seeds (the goldens are tied to seed 42), so
//! this workload has no generated inputs and `--seed` changes nothing.

use std::time::Instant;

use cdma_core::experiment::{self, CATALOGUE};
use cdma_core::report::render_json;
use cdma_core::scenario::{Context, Runner, ScenarioFilter};

use super::{finish_steps, timed_setup, RunArgs};
use crate::metrics::Outcome;
use crate::stats::{self, Sections};
use crate::trace::{Recorder, Tracer};

const SPAN_SUITE: &str = "core.experiment.suite";

/// Warm-up: one grid experiment on a fast context — builds the coarse
/// ratio table and touches codecs, profiles and the traffic model, so
/// the timed suite does not pay first-touch costs.
fn warm_up() -> usize {
    let ctx = Context::fast();
    let report = experiment::run("fig11", &ctx, &Runner::with_jobs(1), &ScenarioFilter::all())
        .expect("fig11 is in the catalogue");
    render_json(report.as_ref()).len()
}

/// One full suite. Returns its sections in wall seconds — one per
/// catalogue entry (run + render) and a last one for everything between
/// them (context construction, joining the JSON), so that they add up to
/// the suite's wall time — the rendered JSON array, and the context's
/// cache counters. After the clock stops every report is rendered a
/// second time and must come out byte-identical.
///
/// Wall seconds, not reference-clock seconds: the suite is a mix of
/// core-bound and memory-bound work in sections up to 3.5 s long, and
/// reading the clock between experiments took its run-to-run spread from
/// 13% to 11% — not worth reporting something other than what a reader
/// of the paper waits for.
fn suite(outcome: &mut Outcome, id: u64, tracer: &mut Tracer) -> (Vec<f64>, String, (u64, u64)) {
    let mut sections = Vec::with_capacity(CATALOGUE.len() + 1);
    let t0 = Instant::now();
    let open = tracer.begin(SPAN_SUITE, id);
    let ctx = Context::new();
    let runner = Runner::with_jobs(1);
    let filter = ScenarioFilter::all();
    let mut reports = Vec::with_capacity(CATALOGUE.len());
    let mut objects = Vec::with_capacity(CATALOGUE.len());
    for e in CATALOGUE {
        let started = Instant::now();
        let span = tracer.begin(e.name, id);
        let report = experiment::run(e.name, &ctx, &runner, &filter);
        objects.push(report.as_deref().map(render_json).unwrap_or_default());
        tracer.end(span);
        sections.push(started.elapsed().as_secs_f64());
        reports.push(report);
    }
    let json = format!("[{}]", objects.join(",\n"));
    tracer.end(open);
    let between = t0.elapsed().as_secs_f64() - sections.iter().sum::<f64>();
    sections.push(between);

    for ((e, report), first) in CATALOGUE.iter().zip(&reports).zip(&objects) {
        match report {
            None => outcome.check(false, || format!("{}: not in the dispatch table", e.name)),
            Some(r) => outcome.check(&render_json(r.as_ref()) == first, || {
                format!("{}: two renders of one report differ", e.name)
            }),
        }
    }
    let stats = ctx.stats();
    (sections, json, (stats.hits, stats.misses))
}

/// Runs the workload.
pub fn run(args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let warm = timed_setup(&mut outcome, |_| warm_up());
    outcome.check(warm > 0, || "warm-up rendered nothing".into());

    // As many whole suites as fit, at least one.
    let t0 = Instant::now();
    let mut sections = Sections::new(CATALOGUE.len() + 1);
    let mut secs: Vec<f64> = Vec::new();
    let mut first: Option<(String, (u64, u64))> = None;
    while secs.is_empty() || t0.elapsed().as_secs_f64() + stats::median(&secs) <= args.seconds {
        let (s, json, cache) = suite(&mut outcome, secs.len() as u64, tracer);
        secs.push(s.iter().sum());
        sections.push_step(&s);
        match &first {
            None => first = Some((json, cache)),
            // Two runs of the suite render byte-identical JSON.
            Some((reference, _)) => outcome.check(&json == reference, || {
                "suite JSON differs between runs".into()
            }),
        }
    }
    let (json, (hits, misses)) = first.expect("at least one suite ran");
    outcome.exact("core.report.json_bytes", json.len());
    outcome.exact(
        "core.report.json_fnv64",
        format!("{:016x}", stats::fnv64(json.as_bytes())),
    );
    outcome.exact("core.scenario.cache_hits", hits);
    outcome.exact("core.scenario.cache_misses", misses);

    if let Some(rec) = tracer.recorder() {
        let n = secs.len();
        for e in CATALOGUE {
            let d = rec.durations_s(e.name);
            outcome.layer(
                format!("core.experiment.{}_s", e.name),
                stats::median(&d),
                d.len(),
            );
        }
        outcome.layer("core.scenario.cache_hits", hits as f64, 1);
        outcome.layer("core.scenario.cache_misses", misses as f64, 1);
        outcome.layer("core.report.json_bytes", json.len() as f64, 1);
        // A second, untraced suite does not fit the run, so the overhead
        // here is the recorder's own cost: spans times the calibrated
        // cost of one begin/end pair, over the suite's time.
        let spans = rec.spans().len() as f64;
        outcome.layer(
            "bench.trace.overhead_share",
            spans * span_cost_s() / secs.iter().sum::<f64>(),
            n,
        );
    } else {
        let n = secs.len();
        let suite_s = stats::median(&secs);
        outcome.native("repro_all_s", suite_s, n);
        // Step: one suite. A run of the default length fits one, and the
        // quiet time of one sample is the sample: the step is the suite's
        // wall time. A longer run reads each experiment at its quiet time
        // over the suites.
        finish_steps(
            &mut outcome,
            sections.quiet_step_s() * 1e3,
            &sections.step_ms(),
            None,
        );
    }
    outcome
}

/// Seconds one `begin`/`end` pair costs, measured on a scratch recorder.
fn span_cost_s() -> f64 {
    const PAIRS: usize = 100_000;
    let mut rec = Recorder::new(PAIRS);
    let t0 = Instant::now();
    for i in 0..PAIRS {
        let o = rec.begin("calibration", i as u64);
        rec.end(o);
    }
    t0.elapsed().as_secs_f64() / PAIRS as f64
}
