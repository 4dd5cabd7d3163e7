//! Pins the simulated statistics of the `sim_step` benchmark workload
//! at seed 41, bit for bit, so a change to the shared-link event loop
//! that moves any of them fails here rather than only in a benchmark
//! run.
//!
//! The inputs are rebuilt exactly as `build` in
//! `benchmark/src/workloads/sim.rs` builds them: one AlexNet step on
//! 1024 GPUs at a uniform ratio of 2.6, on the flat link and on
//! `Hierarchical { gpus_per_node: 8 }`, and the churn run (AlexNet, VGG,
//! GoogLeNet, SqueezeNet at the 0.1 / 0.5 / 0.9 density checkpoints, a
//! 32 s trace at 0.25 s mean interarrival, jobs of at most 16 GPUs on
//! 32). The measured timeline step is pinned by `cdma-core`'s
//! `tests/measured_step.rs`.

use cdma_compress::Algorithm;
use cdma_gpusim::SystemConfig;
use cdma_models::{profiles, zoo, NetworkSpec};
use cdma_tensor::Layout;
use cdma_vdnn::cluster::{ClusterSim, Tenant};
use cdma_vdnn::fabric::{churn_trace, FabricShape, FabricSim, Job};
use cdma_vdnn::timeline::{FidelitySource, LinkPolicy, UniformRatio};
use cdma_vdnn::{ComputeModel, CudnnVersion, RatioTable};

const SEED: u64 = 41;
const CLUSTER_GPUS: usize = 1024;
const CLUSTER_RATIO: f64 = 2.6;
const CHURN_MIX: [fn() -> NetworkSpec; 4] =
    [zoo::alexnet, zoo::vgg, zoo::googlenet, zoo::squeezenet];
const CHURN_CHECKPOINTS: [f64; 3] = [0.1, 0.5, 0.9];
const CHURN_HORIZON_S: f64 = 32.0;
const CHURN_MEAN_INTERARRIVAL_S: f64 = 0.25;
const CHURN_GPUS: usize = 32;
const CHURN_MAX_JOB_GPUS: usize = 16;
const NODE8: FabricShape = FabricShape::Hierarchical { gpus_per_node: 8 };

fn cluster() -> ClusterSim {
    ClusterSim::new(
        SystemConfig::titan_x_pcie3(),
        ComputeModel::titan_x(CudnnVersion::V5),
        LinkPolicy::BandwidthShare,
    )
    .record_events(false)
}

fn node8(gpus: usize) -> ClusterSim {
    let cfg = SystemConfig::titan_x_pcie3();
    cluster().with_fabric(
        NODE8
            .spec_for(&cfg, gpus, LinkPolicy::BandwidthShare)
            .expect("hierarchical shapes always concretize"),
    )
}

/// `(label, value)` pairs compared by bit pattern, so a failure names
/// every pin that moved at once.
fn assert_bits(pins: &[(&str, f64, f64)]) {
    let moved: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got.to_bits() != want.to_bits())
        .map(|(what, got, want)| format!("{what}: {got:?} (pinned {want:?})"))
        .collect();
    assert!(moved.is_empty(), "pins moved: {moved:#?}");
}

#[test]
fn the_g1024_cluster_step_is_pinned() {
    let alexnet = zoo::alexnet();
    let uniform = UniformRatio::uniform(&alexnet, CLUSTER_RATIO);
    let tenants = [Tenant {
        spec: &alexnet,
        source: &uniform,
        gpus: CLUSTER_GPUS,
    }];
    let flat = cluster().simulate(&tenants);
    let node8 = node8(CLUSTER_GPUS).simulate(&tenants);
    assert_eq!(
        (flat.events_processed(), node8.events_processed()),
        (104_478, 130_051),
        "(flat, node8) events"
    );
    assert_bits(&[
        ("flat makespan", flat.makespan(), 39.95056207166078),
        ("node8 makespan", node8.makespan(), 0.6244265766947823),
    ]);
}

#[test]
fn the_churn_run_is_pinned() {
    let table = RatioTable::build_fast(SEED);
    let specs: Vec<NetworkSpec> = CHURN_MIX.iter().map(|net| net()).collect();
    let sources: Vec<Vec<FidelitySource>> = specs
        .iter()
        .map(|spec| {
            let profile = profiles::density_profile(spec);
            CHURN_CHECKPOINTS
                .iter()
                .map(|&t| {
                    UniformRatio::at_checkpoint(
                        spec,
                        &profile,
                        t,
                        Algorithm::Zvc,
                        Layout::Nchw,
                        &table,
                    )
                    .into()
                })
                .collect()
        })
        .collect();
    let trace = churn_trace(
        SEED,
        CHURN_HORIZON_S,
        CHURN_MEAN_INTERARRIVAL_S,
        CHURN_MIX.len(),
        CHURN_MAX_JOB_GPUS,
    );
    let jobs: Vec<Job<'_>> = trace
        .iter()
        .map(|t| Job {
            spec: &specs[t.network],
            gpus: t.gpus,
            arrival: t.arrival,
            steps: t.steps,
            departure: t.departure,
            checkpoints: &sources[t.network],
        })
        .collect();
    let run = FabricSim::new(node8(CHURN_GPUS)).run(&jobs);
    assert_eq!(
        (jobs.len(), run.steps.len(), run.events_processed),
        (137, 51, 477_200),
        "(jobs, steps, events)"
    );
    assert_bits(&[
        ("churn makespan", run.makespan, 95.76752383134144),
        (
            "churn spine utilisation",
            run.spine_utilisation(),
            0.7314952619155238,
        ),
    ]);
}
