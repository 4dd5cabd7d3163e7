//! Micro-benches of the hardware models: the discrete-event offload
//! pipeline and the end-to-end `memcpy_compressed` path.
//!
//! Run with `cargo bench -p cdma-bench --bench engine`.

use cdma_bench::micro::{group, Harness};
use cdma_core::CdmaEngine;
use cdma_gpusim::{OffloadSim, SystemConfig};
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4};

fn bench_offload_sim(h: &mut Harness) {
    group("offload_sim (discrete-event pipeline)");
    let cfg = SystemConfig::titan_x_pcie3();
    for ratio in [1.0, 2.6, 13.8] {
        h.bench(&format!("offload_sim/r{ratio}"), 0, || {
            OffloadSim::new(cfg).run_uniform(16 << 20, ratio)
        });
    }
}

fn bench_memcpy_compressed(h: &mut Harness) {
    group("memcpy_compressed (end to end)");
    let mut gen = ActivationGen::seeded(3);
    let data = gen
        .generate(Shape4::new(4, 32, 27, 27), Layout::Nchw, 0.35)
        .into_vec();
    let bytes = (data.len() * 4) as u64;
    let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
    h.bench("memcpy_compressed/zvc", bytes, || {
        engine.memcpy_compressed(&data)
    });
}

fn main() {
    let mut h = Harness::new();
    bench_offload_sim(&mut h);
    bench_memcpy_compressed(&mut h);
}
