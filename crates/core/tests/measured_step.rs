//! Pins `sim_step`'s measured training step: AlexNet's synthesized ZVC
//! line tables (its density profile at checkpoint 0.5, seed 41) on the
//! Titan X PCIe platform, each layer's per-image table pushed 128 times
//! through `DmaPipeline` by `TimelineSim::simulate`. The event count, the
//! step total and each resource's busy seconds are compared by bit pattern
//! with the values recorded when the pipeline moved to its integer
//! femtosecond clock (the `f64` clock's, before it: total
//! 0.512298238201553, busy `0x3FDD_C17A_3212_FE89`,
//! `0x3FA6_29EC_80D1_7AB9`, `0x3FB6_AE0C_983E_EDD8`); the benchmark reports
//! the same counts, this holds them in the test suite. So does the number
//! of lines the pipeline actually steps: if a repeated table stopped being
//! extrapolated, the step would still come out the same, only slower.

use cdma_core::{measured, CdmaEngine};
use cdma_gpusim::SystemConfig;
use cdma_models::{profiles, zoo};
use cdma_vdnn::timeline::Resource;
use cdma_vdnn::{ComputeModel, CudnnVersion, TimelineSim};

const EVENTS: u64 = 791_142;
/// Of the step's 263 680 offloaded lines.
const LINES_STEPPED: u64 = 4_269;
const STEP_TOTAL_S: f64 = 0.512298238201518;
/// `(resource, bits of its busy seconds)`.
const BUSY_BITS: [(Resource, u64); 3] = [
    (Resource::Compute, 0x3FDD_C17A_3212_FE88),
    (Resource::DmaRead, 0x3FA6_29EC_80D0_D9A0),
    (Resource::Link, 0x3FB6_AE0C_983E_D09E),
];

#[test]
fn the_measured_alexnet_step_is_pinned_in_bits() {
    let cfg = SystemConfig::titan_x_pcie3();
    let spec = zoo::alexnet();
    let stream = measured::synthesized_stream(
        &CdmaEngine::zvc(cfg),
        &spec,
        &profiles::density_profile(&spec),
        0.5,
        41,
    );
    let step =
        TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5)).simulate(&spec, &stream);

    assert_eq!(step.events_processed(), EVENTS);
    assert_eq!(step.lines_stepped(), LINES_STEPPED);
    assert_eq!(
        step.total().to_bits(),
        STEP_TOTAL_S.to_bits(),
        "step total {}",
        step.total()
    );
    for (r, bits) in BUSY_BITS {
        let busy = step.busy_seconds(r);
        assert_eq!(
            busy.to_bits(),
            bits,
            "{r:?} busy {busy} = {:#018x}",
            busy.to_bits()
        );
    }
}
