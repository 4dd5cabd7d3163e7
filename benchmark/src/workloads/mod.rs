//! The five workloads. Each takes the run arguments and a [`Tracer`] and
//! returns an [`Outcome`]; one process runs one workload, so
//! `peak_rss_mb` is per workload.

use std::time::Instant;

use crate::metrics::Outcome;
use crate::stats;
use crate::trace::Tracer;

pub mod offload;
pub mod repro;
pub mod serve;
pub mod sim;

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
}

/// Set-ups per run: at least three, and more — up to twelve — while they
/// have taken less than four seconds together. `setup_s` is the quickest of
/// them. A set-up is a few hundred milliseconds of first-touch page
/// faults and allocation, which the host's other tenants only ever make
/// slower — ten runs' medians of three to six set-ups spread 24-32% and
/// their middle moved 20-29% between two sets of ten runs an hour apart —
/// so the quickest is the one that says most about the code, as with the
/// quiet time of a call (`stats::Sections`). Work moved into set-up is in
/// every repeat and shows in the quickest as in the median.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=12;
const SETUP_BUDGET_S: f64 = 4.0;

/// Builds the workload's inputs several times (dropping each before the
/// next, so peak memory is one copy), keeps the last, and records the
/// quickest build as `setup_s`; the note lists them all.
pub fn timed_setup<T>(outcome: &mut Outcome, mut build: impl FnMut(&mut Outcome) -> T) -> T {
    let mut times = Vec::with_capacity(*SETUP_REPEATS.end());
    let mut built = None;
    while times.len() < *SETUP_REPEATS.start()
        || (times.len() < *SETUP_REPEATS.end() && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(outcome));
        times.push(t0.elapsed().as_secs_f64());
    }
    outcome.notes.push(format!("set-ups, seconds: {times:.3?}"));
    let quickest = times.iter().copied().fold(f64::INFINITY, f64::min);
    outcome.e2e("setup_s", quickest, times.len());
    built.expect("at least three set-ups ran")
}

/// Fills in `step_ms`, the plain statistics printed beside it and
/// `peak_rss_mb`. `step_ms` is the workload's own robust reading of one
/// step (README, "The step"); `samples_ms` are the host milliseconds of
/// every step as they came, whose median — and `tail_p`-th percentile,
/// where the workload has one — are printed for what they say about the
/// host. When fewer than ten samples lie beyond `tail_p` the run says so
/// and falls back to the highest percentile that has them.
pub fn finish_steps(outcome: &mut Outcome, step_ms: f64, samples_ms: &[f64], tail_p: Option<f64>) {
    let sorted = stats::sorted(samples_ms.to_vec());
    let n = sorted.len();
    outcome.e2e("step_ms", step_ms, n);
    outcome.native("step_ms_p50", stats::percentile(&sorted, 50.0), n);
    if let Some(tail_p) = tail_p {
        let supported = stats::supported_tail(n);
        let p = if supported < tail_p {
            outcome.notes.push(format!(
                "step_ms_p90: {n} samples support p{supported} at most; reporting that, not p{tail_p}"
            ));
            supported
        } else {
            tail_p
        };
        outcome.native("step_ms_p90", stats::percentile(&sorted, p), n);
    }
    outcome.e2e("peak_rss_mb", stats::peak_rss_mb(), 1);
}

/// Dispatches a workload by name.
pub fn run(name: &str, args: RunArgs, tracer: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "offload_zvc" => offload::run(&offload::ZVC, args, tracer),
        "offload_entropy" => offload::run(&offload::ENTROPY, args, tracer),
        "serve_4k" => serve::run(args, tracer),
        "sim_step" => sim::run(args, tracer),
        "repro_all" => repro::run(args, tracer),
        _ => return None,
    })
}
