//! Conservation invariants of the tenant-churn driver and the two-tier
//! fabric, over ~1000 seeded random traces:
//!
//! 1. **step conservation** — every job's requested steps are either
//!    completed or cleanly cancelled at departure (none leak, none run
//!    twice); a job that was never admitted completes nothing; an
//!    admitted job without a departure finishes everything it asked for;
//! 2. **busy-interval discipline** — each tier's busy profile is a
//!    sorted, coalesced, non-overlapping interval list within the
//!    makespan, and the streaming [`RunStats`] fold agrees with the
//!    per-step records it folded;
//! 3. **wire-byte conservation across tiers** — every byte the spine
//!    carries entered through exactly one node tier or belongs to a
//!    gradient stream: `spine = Σ node + Σ allreduce` per step.
//!
//! The traces reuse [`churn_trace`]'s seed discipline (the
//! `loadgen::Schedule` per-index splitting), so failures reproduce from
//! the trace seed alone.

use cdma_gpusim::SystemConfig;
use cdma_models::tiny::tiny_alexnet_spec;
use cdma_models::NetworkSpec;
use cdma_vdnn::cluster::{ClusterSim, Tenant};
use cdma_vdnn::fabric::{churn_trace, FabricSim, FabricSpec, Job};
use cdma_vdnn::timeline::{FidelitySource, LinkPolicy, UniformRatio};
use cdma_vdnn::{ComputeModel, CudnnVersion};

/// Asserts `intervals` is sorted, positive-length-or-empty, pairwise
/// disjoint, and inside `[0, makespan]`.
fn assert_disjoint(intervals: &[(f64, f64)], makespan: f64, what: &str) {
    let mut prev_end = 0.0f64;
    for (i, &(s, e)) in intervals.iter().enumerate() {
        assert!(s <= e, "{what}: interval {i} inverted ({s} > {e})");
        assert!(
            s >= prev_end - 1e-12,
            "{what}: interval {i} overlaps its predecessor ({s} < {prev_end})"
        );
        assert!(
            e <= makespan + 1e-9 * makespan.abs().max(1.0),
            "{what}: interval {i} ends past the makespan ({e} > {makespan})"
        );
        prev_end = e;
    }
}

fn cluster(nodes: usize, gpus_per_node: usize) -> ClusterSim {
    let cfg = SystemConfig::titan_x_pcie3();
    ClusterSim::new(
        cfg,
        ComputeModel::titan_x(CudnnVersion::V5),
        LinkPolicy::BandwidthShare,
    )
    .with_fabric(FabricSpec::new(
        nodes,
        gpus_per_node,
        cfg.pcie_bw,
        cfg.pcie_bw * (nodes as f64 / 2.0).max(1.0),
    ))
}

#[test]
fn seeded_churn_traces_conserve_steps_and_spine_discipline() {
    // 700 random traces on a 2×2 fabric: small trainable specs keep each
    // trace to a handful of steps, so the suite stays fast while the
    // admission, departure and cancellation paths all get exercised.
    let specs = [tiny_alexnet_spec(8, 4), tiny_alexnet_spec(4, 8)];
    let checkpoints: Vec<Vec<FidelitySource>> = specs
        .iter()
        .map(|s| {
            vec![
                FidelitySource::Uniform(UniformRatio::uniform(s, 1.4)),
                FidelitySource::Uniform(UniformRatio::uniform(s, 3.0)),
            ]
        })
        .collect();
    let sim = FabricSim::new(cluster(2, 2));
    let (mut jobs_seen, mut departures_seen, mut queued_rejections) = (0u64, 0u64, 0u64);
    for seed in 0..700u64 {
        // Horizon on the scale of a simulated step (tens of µs for the
        // tiny specs), so departures actually land mid-run.
        let trace = churn_trace(seed, 2e-4, 5e-5, specs.len(), 4);
        if trace.is_empty() {
            continue;
        }
        let jobs: Vec<Job<'_>> = trace
            .iter()
            .map(|t| Job {
                spec: &specs[t.network],
                gpus: t.gpus,
                arrival: t.arrival,
                steps: t.steps,
                departure: t.departure,
                checkpoints: &checkpoints[t.network],
            })
            .collect();
        let run = sim.run(&jobs);

        assert_eq!(run.jobs.len(), jobs.len(), "seed {seed}: outcome per job");
        for (o, j) in run.jobs.iter().zip(&jobs) {
            jobs_seen += 1;
            let what = format!("seed {seed} job {}×{}g", o.network, o.gpus);
            assert_eq!(o.steps_requested, j.steps, "{what}: requested");
            assert_eq!(
                o.steps_completed + o.steps_cancelled,
                o.steps_requested,
                "{what}: steps leaked"
            );
            match o.admitted {
                None => {
                    queued_rejections += 1;
                    assert_eq!(o.steps_completed, 0, "{what}: ran while queued");
                    assert!(o.finished.is_none(), "{what}: finished unadmitted");
                }
                Some(at) => {
                    assert!(at >= o.arrival, "{what}: admitted before arriving");
                    if o.departed.is_none() {
                        assert_eq!(
                            o.steps_completed, o.steps_requested,
                            "{what}: cancelled without departing"
                        );
                        assert!(o.finished.is_some(), "{what}: no finish time");
                    }
                }
            }
            if let Some(dep) = o.departed {
                departures_seen += 1;
                assert!(
                    j.departure.is_some(),
                    "{what}: departed without a departure time"
                );
                assert!(
                    dep >= j.departure.unwrap_or(0.0) - 1e-12,
                    "{what}: left before its departure time"
                );
            }
        }

        assert_disjoint(&run.spine_busy, run.makespan, &format!("seed {seed} spine"));
        assert!(
            run.spine_utilisation() <= 1.0 + 1e-12,
            "seed {seed}: spine over-utilised"
        );
        let folded: u64 = run.steps.iter().map(|s| s.gpus as u64).sum();
        assert_eq!(
            run.stats.gpu_steps, folded,
            "seed {seed}: streaming fold diverged from the step records"
        );
    }
    // The trace distribution must actually exercise the interesting
    // paths, or the invariants above prove nothing.
    assert!(jobs_seen > 1000, "only {jobs_seen} jobs across all traces");
    assert!(departures_seen > 50, "only {departures_seen} departures");
    assert!(
        queued_rejections > 20,
        "only {queued_rejections} rejections"
    );
}

#[test]
fn random_steps_conserve_wire_bytes_across_tiers() {
    // 300 seeded random multi-tenant single steps on random fabric
    // shapes: every spine byte is a node byte or a gradient byte.
    let specs: Vec<NetworkSpec> = vec![tiny_alexnet_spec(8, 4), tiny_alexnet_spec(4, 8)];
    let sources: Vec<UniformRatio> = specs
        .iter()
        .map(|s| UniformRatio::uniform(s, 2.2))
        .collect();
    let mut state = 0x00D1_5EEDu64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for trial in 0..300 {
        let nodes = [1usize, 2, 4][lcg() % 3];
        let gpus_per_node = [2usize, 4][lcg() % 2];
        let capacity = nodes * gpus_per_node;
        let mut free = capacity;
        let mut tenants: Vec<Tenant<'_>> = Vec::new();
        for _ in 0..1 + lcg() % 3 {
            let width = 1 << (lcg() % 3); // 1, 2 or 4 GPUs
            if width > free {
                continue;
            }
            free -= width;
            let which = lcg() % specs.len();
            tenants.push(Tenant {
                spec: &specs[which],
                source: &sources[which],
                gpus: width,
            });
        }
        if tenants.is_empty() {
            continue;
        }
        let tl = cluster(nodes, gpus_per_node).simulate(&tenants);
        let what = format!("trial {trial} ({nodes}×{gpus_per_node})");

        assert_disjoint(tl.link_busy(), tl.makespan(), &format!("{what} spine"));
        assert_eq!(tl.node_busy().len(), nodes, "{what}: tier count");
        for (k, busy) in tl.node_busy().iter().enumerate() {
            assert_disjoint(busy, tl.makespan(), &format!("{what} node {k}"));
        }

        let node_total: f64 = tl.node_wire_bytes().iter().sum();
        let allreduce_total: f64 = tenants
            .iter()
            .filter(|t| t.gpus > 1)
            .map(|t| t.spec.weight_bytes() as f64 * 2.0 * (t.gpus as f64 - 1.0))
            .sum();
        let spine = tl.spine_wire_bytes();
        let expected = node_total + allreduce_total;
        assert!(
            (spine - expected).abs() <= 1e-6 * expected.max(1.0),
            "{what}: spine carried {spine} bytes, node tiers + gradients account for {expected}"
        );
        assert!(
            node_total > 0.0,
            "{what}: offload traffic never reached the node tiers"
        );
    }
}
