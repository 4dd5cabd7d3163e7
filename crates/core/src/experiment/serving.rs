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

use crate::report::{Artifact, Cell, Report, Table};
use crate::scenario::Context;

/// Workers the harness models (the ISSUE's target configuration).
const WORKERS: usize = 4;
/// Activation words per request: one 4 KB window.
const REQ_ELEMS: usize = 1024;
/// Arrival-schedule seed (same spirit as the figure seeds: fixed).
const SEED: u64 = 42;

/// One phase of the experiment.
#[derive(Debug, Clone)]
pub struct ServePhase {
    /// Phase label (`nominal`, `overload`, `saturation`).
    pub label: &'static str,
    /// The virtual harness's full report for the phase.
    pub report: LoadReport,
}

/// The serve_load report: three phases plus the determinism check.
#[derive(Debug, Clone)]
pub struct ServeLoadReport {
    /// The three phases in run order.
    pub phases: Vec<ServePhase>,
    /// Whether the overload phase reran bit-identically.
    pub overload_deterministic: bool,
    /// Sheds observed in the overload phase.
    pub overload_sheds: u64,
    /// Worst per-tenant deviation between goodput share and weight share
    /// in the saturation phase (fraction, e.g. 0.02 = 2 points).
    pub fairness_deviation: f64,
}

fn capacity_req_per_s(model: ServiceModel) -> f64 {
    WORKERS as f64 / model.service_s((REQ_ELEMS * 4) as u64)
}

/// Runs the full experiment. `ctx` only decides the horizon: fast
/// contexts replay a shorter schedule.
pub fn serve_load(ctx: &Context) -> ServeLoadReport {
    let model = ServiceModel::default();
    let horizon = if ctx.is_fast() { 0.01 } else { 0.05 };
    let capacity = capacity_req_per_s(model);

    // Phase 1: nominal — an aggregate offered load safely under
    // capacity, split across a weighted tenant mix.
    let nominal_loads = vec![
        TenantLoad::new(TenantSpec::new("trainer").weight(3.0), 0.25 * capacity),
        TenantLoad::new(TenantSpec::new("batch"), 0.15 * capacity),
    ];
    let nominal_cfg = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let nominal = run_virtual(&nominal_cfg, &nominal_loads, horizon, SEED, model);

    // Phase 2: overload — 2x capacity against a deliberately small pool
    // (one paper-sized 70 KB staging buffer); run twice, compare.
    let overload_loads = vec![
        TenantLoad::new(TenantSpec::new("trainer").weight(3.0), 1.2 * capacity),
        TenantLoad::new(TenantSpec::new("batch"), 0.8 * capacity),
    ];
    let overload_cfg = ServerConfig {
        workers: WORKERS,
        staging_bytes: 70 * 1024,
        ..ServerConfig::default()
    };
    let overload = run_virtual(&overload_cfg, &overload_loads, horizon, SEED, model);
    let overload_again = run_virtual(&overload_cfg, &overload_loads, horizon, SEED, model);
    let overload_deterministic = overload.deterministic_summary_json()
        == overload_again.deterministic_summary_json()
        && overload.latency_json() == overload_again.latency_json();
    let overload_sheds = overload.total_shed();

    // Phase 3: saturation — three tenants at 3:2:1 weights, each offered
    // most of a machine on its own; deep queues and a pool sized for them
    // keep every tenant backlogged so the arbiter's split is visible.
    let depth = 64usize;
    let sat_loads = vec![
        TenantLoad::new(
            TenantSpec::new("gold").weight(3.0).queue_depth(depth),
            0.8 * capacity,
        ),
        TenantLoad::new(
            TenantSpec::new("silver").weight(2.0).queue_depth(depth),
            0.8 * capacity,
        ),
        TenantLoad::new(
            TenantSpec::new("bronze").weight(1.0).queue_depth(depth),
            0.8 * capacity,
        ),
    ];
    let sat_cfg = ServerConfig {
        workers: WORKERS,
        staging_bytes: (3 * depth + WORKERS) as u64 * (REQ_ELEMS * 4) as u64,
        ..ServerConfig::default()
    };
    let saturation = run_virtual(&sat_cfg, &sat_loads, horizon, SEED, model);
    let total_weight: f64 = sat_loads.iter().map(|l| l.spec.weight).sum();
    let total_bytes: u64 = saturation
        .tenants
        .iter()
        .map(|t| t.counters.uncompressed_bytes)
        .sum();
    let fairness_deviation = saturation
        .tenants
        .iter()
        .map(|t| {
            let got = t.counters.uncompressed_bytes as f64 / total_bytes.max(1) as f64;
            let want = t.weight / total_weight;
            (got - want).abs()
        })
        .fold(0.0, f64::max);

    ServeLoadReport {
        phases: vec![
            ServePhase {
                label: "nominal",
                report: nominal,
            },
            ServePhase {
                label: "overload",
                report: overload,
            },
            ServePhase {
                label: "saturation",
                report: saturation,
            },
        ],
        overload_deterministic,
        overload_sheds,
        fairness_deviation,
    }
}

impl Report for ServeLoadReport {
    fn name(&self) -> &'static str {
        "serve_load"
    }

    fn title(&self) -> String {
        "cdma-serve: multi-tenant load harness — latency, sheds, fairness".to_owned()
    }

    fn tables(&self) -> Vec<Table> {
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
        for phase in &self.phases {
            for t in &phase.report.tenants {
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
        }
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
        for phase in &self.phases {
            let r = &phase.report;
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
        vec![lat, thru]
    }

    fn notes(&self) -> Vec<String> {
        let nominal = &self.phases[0].report;
        let mut notes = vec![format!(
            "nominal: {:.0} req/s of 4 KB ZVC compress jobs on {} workers, p99 {:.1} us, 0 sheds required",
            nominal.throughput_req_per_s(),
            nominal.workers,
            nominal
                .tenants
                .iter()
                .filter_map(|t| t.latency.as_ref())
                .map(|l| l.p99_s * 1e6)
                .fold(0.0, f64::max),
        )];
        notes.push(format!(
            "overload (2x capacity, 70 KB pool): {} sheds, rerun bit-identical: {}",
            self.overload_sheds, self.overload_deterministic
        ));
        notes.push(format!(
            "saturation: goodput shares track 3:2:1 BandwidthShare weights within {:.2} points",
            self.fairness_deviation * 100.0
        ));
        notes
    }

    fn artifacts(&self) -> Vec<Artifact> {
        // The full virtual-time latency reports, one JSON document per
        // phase. (Wall-clock latency of the threaded server: `bash
        // benchmark/run.sh --workload serve_4k`, `serve.server.p99_us_at_40k`.)
        let mut body = String::from("[\n");
        for (i, p) in self.phases.iter().enumerate() {
            body.push_str(&p.report.latency_json());
            if i + 1 < self.phases.len() {
                body.push_str(",\n");
            }
        }
        body.push_str("]\n");
        vec![Artifact {
            name: "serve_load_latency.json".to_owned(),
            bytes: body.into_bytes(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_load_meets_its_acceptance_bars() {
        let report = serve_load(&Context::fast());
        assert_eq!(report.phases.len(), 3);

        // Nominal: no sheds, a real percentile table, >= 10k req/s.
        let nominal = &report.phases[0].report;
        assert_eq!(nominal.total_shed(), 0, "nominal load must not shed");
        assert!(nominal.throughput_req_per_s() >= 10_000.0);
        for t in &nominal.tenants {
            let l = t.latency.as_ref().expect("every tenant completed work");
            assert!(l.p99_s >= l.p50_s && l.p99_s > 0.0);
        }

        // Overload: sheds happen and the rerun matched bit-for-bit.
        assert!(report.overload_sheds > 0, "2x overload must shed");
        assert!(report.overload_deterministic);
        // 70 KiB is not a multiple of the 4 KiB request footprint, so the
        // pool tops out within one request of capacity, never exactly at it.
        let overload = &report.phases[1].report;
        assert!(overload.staging_capacity - overload.staging_high_water < (REQ_ELEMS * 4) as u64);

        // Saturation: goodput within 5 points of the weight split.
        assert!(
            report.fairness_deviation < 0.05,
            "weighted shares off by {:.3}",
            report.fairness_deviation
        );

        // Accepted work is never dropped, in every phase.
        for p in &report.phases {
            for t in &p.report.tenants {
                assert_eq!(t.counters.accepted, t.counters.completed, "{}", t.name);
            }
        }
    }

    #[test]
    fn report_renders() {
        let report = serve_load(&Context::fast());
        let tables = report.tables();
        assert_eq!(tables.len(), 2);
        // 2 + 2 + 3 tenant rows.
        assert_eq!(tables[0].rows().len(), 7);
        assert_eq!(tables[1].rows().len(), 3);
        assert_eq!(report.artifacts().len(), 1);
        assert!(report.notes().iter().any(|n| n.contains("bit-identical")));
    }
}
