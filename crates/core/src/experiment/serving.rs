//! The `serve_load` experiment: the engine as a multi-tenant service
//! under open-loop load, driven through `cdma-serve`'s deterministic
//! virtual-time harness.
//!
//! Three phases, all pure functions of the seed:
//!
//! 1. **nominal** — the target operating point (well under provisioned
//!    capacity): zero sheds required, latency percentiles reported.
//! 2. **overload** — 2× provisioned capacity against a bounded staging
//!    pool: admission control must shed, and shed *identically* on a
//!    rerun (the experiment runs the phase twice and checks).
//! 3. **saturation** — every tenant backlogged: served bytes must split
//!    by `BandwidthShare` weight, the paper's PCIe-arbiter fairness
//!    lifted to engine time.

use cdma_serve::{run_virtual, LoadReport, ServerConfig, ServiceModel, TenantLoad, TenantSpec};

use crate::report::{Artifact, Cell, ReportData, Table};
use crate::scenario::Context;

/// Workers the harness models (the ISSUE's target configuration).
const WORKERS: usize = 4;
/// Activation words per request: one 4 KB window.
const REQ_ELEMS: usize = 1024;
/// Arrival-schedule seed (same spirit as the figure seeds: fixed).
const SEED: u64 = 42;

/// One phase of the experiment: its label, server and tenant mix.
struct Phase {
    label: &'static str,
    cfg: ServerConfig,
    loads: Vec<TenantLoad>,
}

fn capacity_req_per_s(model: ServiceModel) -> f64 {
    WORKERS as f64 / model.service_s((REQ_ELEMS * 4) as u64)
}

/// The three phases, in run order.
fn phases() -> [Phase; 3] {
    let capacity = capacity_req_per_s(ServiceModel::default());
    // Phase 1: nominal — an aggregate offered load safely under
    // capacity, split across a weighted tenant mix.
    let nominal = Phase {
        label: "nominal",
        cfg: ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
        loads: vec![
            TenantLoad::new(TenantSpec::new("trainer").weight(3.0), 0.25 * capacity),
            TenantLoad::new(TenantSpec::new("batch"), 0.15 * capacity),
        ],
    };
    // Phase 2: overload — 2x capacity against a deliberately small pool
    // (one paper-sized 70 KB staging buffer).
    let overload = Phase {
        label: "overload",
        cfg: ServerConfig {
            workers: WORKERS,
            staging_bytes: 70 * 1024,
            ..ServerConfig::default()
        },
        loads: vec![
            TenantLoad::new(TenantSpec::new("trainer").weight(3.0), 1.2 * capacity),
            TenantLoad::new(TenantSpec::new("batch"), 0.8 * capacity),
        ],
    };
    // Phase 3: saturation — three tenants at 3:2:1 weights, each offered
    // most of a machine on its own; deep queues and a pool sized for them
    // keep every tenant backlogged so the arbiter's split is visible.
    let depth = 64usize;
    let tenant = |name, weight| {
        TenantLoad::new(
            TenantSpec::new(name).weight(weight).queue_depth(depth),
            0.8 * capacity,
        )
    };
    let saturation = Phase {
        label: "saturation",
        cfg: ServerConfig {
            workers: WORKERS,
            staging_bytes: (3 * depth + WORKERS) as u64 * (REQ_ELEMS * 4) as u64,
            ..ServerConfig::default()
        },
        loads: vec![
            tenant("gold", 3.0),
            tenant("silver", 2.0),
            tenant("bronze", 1.0),
        ],
    };
    [nominal, overload, saturation]
}

/// Runs one phase on the virtual-time harness. `ctx` only decides the
/// horizon: fast contexts replay a shorter schedule.
fn run(ctx: &Context, phase: &Phase) -> LoadReport {
    let horizon = if ctx.is_fast() { 0.01 } else { 0.05 };
    run_virtual(
        &phase.cfg,
        &phase.loads,
        horizon,
        SEED,
        ServiceModel::default(),
    )
}

/// Worst per-tenant deviation between goodput share and weight share
/// (fraction, e.g. 0.02 = 2 points).
fn fairness_deviation(phase: &Phase, report: &LoadReport) -> f64 {
    let total_weight: f64 = phase.loads.iter().map(|l| l.spec.weight).sum();
    let total_bytes: u64 = report
        .tenants
        .iter()
        .map(|t| t.counters.uncompressed_bytes)
        .sum();
    report
        .tenants
        .iter()
        .map(|t| {
            let got = t.counters.uncompressed_bytes as f64 / total_bytes.max(1) as f64;
            let want = t.weight / total_weight;
            (got - want).abs()
        })
        .fold(0.0, f64::max)
}

/// Runs the full experiment: per-tenant latency and admission, per-phase
/// throughput and staging pressure, the overload phase run twice to
/// check that it sheds identically, and the virtual-time latency reports
/// as a JSON artifact.
pub fn serve_load(ctx: &Context) -> ReportData {
    let phases = phases();
    let reports: Vec<LoadReport> = phases.iter().map(|p| run(ctx, p)).collect();
    let overload = &reports[1];
    let overload_again = run(ctx, &phases[1]);
    let overload_deterministic = overload.deterministic_summary_json()
        == overload_again.deterministic_summary_json()
        && overload.latency_json() == overload_again.latency_json();

    let mut lat = Table::new(
        "per-tenant latency and admission (virtual time)",
        &[
            "phase",
            "tenant",
            "weight",
            "submitted",
            "completed",
            "shed",
            "p50_us",
            "p95_us",
            "p99_us",
            "max_us",
        ],
    );
    let mut thru = Table::new(
        "phase throughput and staging pressure",
        &[
            "phase",
            "offered_req",
            "completed_req",
            "req_per_s",
            "goodput_gbps",
            "shed_total",
            "staging_high_water",
            "staging_capacity",
        ],
    );
    for (phase, r) in phases.iter().zip(&reports) {
        for t in &r.tenants {
            let c = &t.counters;
            let shed = c.shed_queue + c.shed_staging + c.quota_rejected;
            let (p50, p95, p99, max) = match &t.latency {
                Some(l) => (l.p50_s * 1e6, l.p95_s * 1e6, l.p99_s * 1e6, l.max_s * 1e6),
                None => (0.0, 0.0, 0.0, 0.0),
            };
            lat.row([
                phase.label.into(),
                t.name.as_str().into(),
                Cell::Num(t.weight),
                c.submitted.into(),
                c.completed.into(),
                shed.into(),
                Cell::Num(p50),
                Cell::Num(p95),
                Cell::Num(p99),
                Cell::Num(max),
            ]);
        }
        let offered: u64 = r.tenants.iter().map(|t| t.counters.submitted).sum();
        thru.row([
            phase.label.into(),
            offered.into(),
            r.total_completed().into(),
            Cell::Num(r.throughput_req_per_s()),
            Cell::Num(r.goodput_bytes_per_s() / 1e9),
            r.total_shed().into(),
            r.staging_high_water.into(),
            r.staging_capacity.into(),
        ]);
    }

    let nominal = &reports[0];
    let notes = vec![
        format!(
            "nominal: {:.0} req/s of 4 KB ZVC compress jobs on {} workers, p99 {:.1} us, 0 sheds required",
            nominal.throughput_req_per_s(),
            nominal.workers,
            nominal
                .tenants
                .iter()
                .filter_map(|t| t.latency.as_ref())
                .map(|l| l.p99_s * 1e6)
                .fold(0.0, f64::max),
        ),
        format!(
            "overload (2x capacity, 70 KB pool): {} sheds, rerun bit-identical: {}",
            overload.total_shed(),
            overload_deterministic
        ),
        format!(
            "saturation: goodput shares track 3:2:1 BandwidthShare weights within {:.2} points",
            fairness_deviation(&phases[2], &reports[2]) * 100.0
        ),
    ];

    // The full virtual-time latency reports, one JSON document per
    // phase. (Wall-clock latency of the threaded server: `bash
    // benchmark/run.sh --workload serve_4k`, `serve.server.p99_us_at_40k`.)
    let mut body = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        body.push_str(&r.latency_json());
        if i + 1 < reports.len() {
            body.push_str(",\n");
        }
    }
    body.push_str("]\n");

    ReportData {
        name: "serve_load",
        title: "cdma-serve: multi-tenant load harness — latency, sheds, fairness".to_owned(),
        tables: vec![lat, thru],
        notes,
        artifacts: vec![Artifact {
            name: "serve_load_latency.json".to_owned(),
            bytes: body.into_bytes(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_load_meets_its_acceptance_bars() {
        let ctx = Context::fast();
        let report = serve_load(&ctx);
        let lat = report.tables[0].records();
        let thru = report.tables[1].records();
        assert_eq!(thru.len(), 3);

        // Nominal: no sheds, a real percentile table, >= 10k req/s.
        let nominal = &thru[0];
        assert_eq!(nominal.int("shed_total"), 0, "nominal load must not shed");
        assert!(nominal.num("req_per_s") >= 10_000.0);
        for t in lat.iter().filter(|t| t.str("phase") == "nominal") {
            // A tenant that completed no work renders 0 us.
            assert!(t.num("p99_us") >= t.num("p50_us") && t.num("p99_us") > 0.0);
        }

        // Overload: sheds happen and the rerun matched bit-for-bit.
        let overload = &thru[1];
        assert!(overload.int("shed_total") > 0, "2x overload must shed");
        assert!(report
            .notes
            .iter()
            .any(|n| n.ends_with("rerun bit-identical: true")));
        // 70 KiB is not a multiple of the 4 KiB request footprint, so the
        // pool tops out within one request of capacity, never exactly at it.
        assert!(
            overload.int("staging_capacity") - overload.int("staging_high_water")
                < (REQ_ELEMS * 4) as i64
        );

        // Saturation: goodput within 5 points of the weight split.
        let phases = phases();
        let runs: Vec<LoadReport> = phases.iter().map(|p| run(&ctx, p)).collect();
        let deviation = fairness_deviation(&phases[2], &runs[2]);
        assert!(deviation < 0.05, "weighted shares off by {deviation:.3}");

        // Accepted work is never dropped, in every phase.
        for r in &runs {
            for t in &r.tenants {
                assert_eq!(t.counters.accepted, t.counters.completed, "{}", t.name);
            }
        }
    }

    #[test]
    fn report_renders() {
        let report = serve_load(&Context::fast());
        assert_eq!(report.tables.len(), 2);
        // 2 + 2 + 3 tenant rows.
        assert_eq!(report.tables[0].rows().len(), 7);
        assert_eq!(report.tables[1].rows().len(), 3);
        assert_eq!(report.artifacts.len(), 1);
        assert!(report.notes.iter().any(|n| n.contains("bit-identical")));
    }
}
