//! Simulates one training step of each paper network under vDNN and
//! cDMA-ZV, printing the per-phase timeline — a per-network view of Fig. 13.
//!
//! ```bash
//! cargo run --release --example vdnn_timeline
//! ```

use cdma::compress::Algorithm;
use cdma::gpusim::SystemConfig;
use cdma::models::{profiles, zoo};
use cdma::tensor::Layout;
use cdma::vdnn::traffic;
use cdma::vdnn::{
    ComputeModel, CudnnVersion, RatioTable, TimelineSim, TransferPolicy, UniformRatio,
};

fn main() {
    let cfg = SystemConfig::titan_x_pcie3();
    let sim = TimelineSim::new(cfg, ComputeModel::titan_x(CudnnVersion::V5));
    let table = RatioTable::build_fast(42);

    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>8} {:>8} {:>7}",
        "network", "oracle", "vDNN", "cDMA-ZV", "stall-v", "stall-c", "gain"
    );
    for spec in zoo::all_networks() {
        let profile = profiles::density_profile(&spec);
        let t = traffic::network_traffic(&spec, &profile, Algorithm::Zvc, Layout::Nchw, &table);
        let ratios = traffic::per_layer_ratios(&t);

        let step = |policy| {
            sim.simulate(&spec, &UniformRatio::new(&spec, policy))
                .breakdown
        };
        let oracle = step(TransferPolicy::Oracle);
        let vdnn = step(TransferPolicy::uniform(&spec, 1.0));
        let cdma = step(TransferPolicy::OffloadAll(ratios));

        println!(
            "{:<11} {:>7.0}ms {:>7.0}ms {:>7.0}ms {:>7.0}% {:>7.0}% {:>6.0}%",
            spec.name(),
            oracle.total() * 1e3,
            vdnn.total() * 1e3,
            cdma.total() * 1e3,
            vdnn.stall_fraction() * 100.0,
            cdma.stall_fraction() * 100.0,
            (vdnn.total() / cdma.total() - 1.0) * 100.0,
        );
    }
    println!("\nstall-v / stall-c: fraction of the step spent waiting on PCIe under vDNN / cDMA.");
    println!("gain: cDMA-ZV speedup over vDNN (paper: 32% average, 61% max).");
}
