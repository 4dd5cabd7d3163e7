//! `ClusterSim::record_events(false)` keeps its promise: each GPU's event
//! log, stage records and busy intervals come back empty, and every
//! aggregate — each GPU's breakdown and event count, the tenant results,
//! the link's busy profile, the makespan and the run's event total — is
//! the recording run's, bit for bit. Checked on a two-tenant flat run and
//! on a `Hierarchical { gpus_per_node: 8 }` run with the all-reduce
//! overlapped with backward.

use cdma_gpusim::SystemConfig;
use cdma_models::zoo;
use cdma_vdnn::cluster::{ClusterSim, ClusterTimeline, Tenant, TenantResult};
use cdma_vdnn::fabric::FabricShape;
use cdma_vdnn::timeline::{LinkPolicy, Resource, UniformRatio};
use cdma_vdnn::{ComputeModel, CudnnVersion, StepBreakdown};

const RESOURCES: [Resource; 3] = [Resource::Compute, Resource::DmaRead, Resource::Link];

fn flat() -> ClusterSim {
    ClusterSim::new(
        SystemConfig::titan_x_pcie3(),
        ComputeModel::titan_x(CudnnVersion::V5),
        LinkPolicy::BandwidthShare,
    )
}

fn breakdown_bits(b: StepBreakdown) -> [u64; 4] {
    [b.forward, b.backward, b.forward_stall, b.backward_stall].map(f64::to_bits)
}

fn interval_bits(v: &[(f64, f64)]) -> Vec<[u64; 2]> {
    v.iter().map(|&(s, e)| [s.to_bits(), e.to_bits()]).collect()
}

fn tenant_bits(t: &TenantResult) -> (String, usize, [u64; 4], [u64; 3], Option<[u64; 2]>) {
    (
        t.network.clone(),
        t.gpus,
        breakdown_bits(t.step),
        [t.step_end, t.allreduce, t.total].map(f64::to_bits),
        t.allreduce_span.map(|(s, e)| [s.to_bits(), e.to_bits()]),
    )
}

/// Runs `tenants` on `sim` recording and not, holds the two runs to the
/// promise, and returns the recording run.
fn assert_recording_changes_only_the_logs(
    sim: ClusterSim,
    tenants: &[Tenant<'_>],
) -> ClusterTimeline {
    let on = sim.record_events(true).simulate(tenants);
    let off = sim.record_events(false).simulate(tenants);

    assert_eq!(on.gpus().len(), off.gpus().len());
    for (i, (a, b)) in on.gpus().iter().zip(off.gpus()).enumerate() {
        assert_eq!(
            breakdown_bits(a.breakdown),
            breakdown_bits(b.breakdown),
            "GPU {i} breakdown"
        );
        assert_eq!(a.events_processed(), b.events_processed(), "GPU {i} events");
        // A shared run steps no DMA lines: every event it counts, the
        // recording run logged.
        assert_eq!(a.events_processed(), a.events().len() as u64, "GPU {i}");
        assert!(!a.stages().is_empty(), "GPU {i} recorded no stages");
        assert!(
            !a.busy(Resource::Compute).is_empty(),
            "GPU {i} recorded no compute"
        );
        assert!(b.events().is_empty(), "GPU {i} logged events");
        assert!(b.stages().is_empty(), "GPU {i} kept stage records");
        for r in RESOURCES {
            assert!(b.busy(r).is_empty(), "GPU {i} kept {r:?} intervals");
        }
    }
    let tenants_on: Vec<_> = on.tenants().iter().map(tenant_bits).collect();
    let tenants_off: Vec<_> = off.tenants().iter().map(tenant_bits).collect();
    assert_eq!(tenants_on, tenants_off, "tenant results");
    assert_eq!(
        interval_bits(on.link_busy()),
        interval_bits(off.link_busy()),
        "link busy"
    );
    assert_eq!(on.node_busy().len(), off.node_busy().len());
    for (n, (a, b)) in on.node_busy().iter().zip(off.node_busy()).enumerate() {
        assert_eq!(interval_bits(a), interval_bits(b), "node {n} busy");
    }
    assert_eq!(
        on.makespan().to_bits(),
        off.makespan().to_bits(),
        "makespan"
    );
    assert_eq!(on.events_processed(), off.events_processed(), "events");
    on
}

#[test]
fn two_tenants_on_the_flat_link() {
    let (a, b) = (zoo::alexnet(), zoo::googlenet());
    let (sa, sb) = (
        UniformRatio::uniform(&a, 2.6),
        UniformRatio::uniform(&b, 1.3),
    );
    let run = assert_recording_changes_only_the_logs(
        flat(),
        &[
            Tenant {
                spec: &a,
                source: &sa,
                gpus: 2,
            },
            Tenant {
                spec: &b,
                source: &sb,
                gpus: 3,
            },
        ],
    );
    assert_eq!(run.gpus().len(), 5);
}

#[test]
fn node8_with_the_allreduce_overlapped() {
    let cfg = SystemConfig::titan_x_pcie3();
    let gpus = 16;
    let fabric = FabricShape::Hierarchical { gpus_per_node: 8 }
        .spec_for(&cfg, gpus, LinkPolicy::BandwidthShare)
        .expect("hierarchical shapes always concretize");
    let (a, b) = (zoo::alexnet(), zoo::squeezenet());
    let (sa, sb) = (
        UniformRatio::uniform(&a, 2.0),
        UniformRatio::uniform(&b, 3.0),
    );
    let run = assert_recording_changes_only_the_logs(
        flat().with_fabric(fabric).overlap_allreduce(true),
        &[
            Tenant {
                spec: &a,
                source: &sa,
                gpus: 12,
            },
            Tenant {
                spec: &b,
                source: &sb,
                gpus: 4,
            },
        ],
    );
    assert_eq!(run.node_busy().len(), 2);
    assert!(run.node_busy().iter().all(|n| !n.is_empty()));
    // Overlapped: gradients flow before the step barrier.
    let t = &run.tenants()[0];
    assert!(t.allreduce_span.expect("gradients flowed").0 < t.step_end);
}
