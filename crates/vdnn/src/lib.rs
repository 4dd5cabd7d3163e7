//! # cdma-vdnn — virtualized-DNN memory management simulation
//!
//! vDNN (Rhu et al., MICRO 2016) virtualizes GPU memory by offloading each
//! layer's activation maps to CPU memory during forward propagation and
//! prefetching them back during backward propagation (Fig. 2 of the cDMA
//! paper). When a transfer outlasts the computation it overlaps with, the
//! GPU stalls — the performance problem cDMA attacks.
//!
//! This crate reproduces the paper's hybrid evaluation methodology
//! (Section VI) as a simulation:
//!
//! * [`ComputeModel`] — per-layer compute times from FLOP counts and
//!   cuDNN-version-dependent efficiencies ([`CudnnVersion`], Fig. 3a);
//! * [`RatioTable`] — measured compression ratios (algorithm × layout ×
//!   density) obtained by running the real codecs from `cdma-compress` on
//!   clustered activations from `cdma-sparsity`;
//! * [`traffic`] — offloaded-byte accounting per network (Fig. 11/12);
//! * [`timeline`] — the event-driven training-step simulator: one event
//!   log over the GPU compute stream, the cDMA read path and the
//!   PCIe link, fed by a [`TransferSource`] at one of three fidelity levels
//!   ([`UniformRatio`] analytic ratios, given or read from density
//!   trajectories by [`UniformRatio::at_checkpoint`]; [`MeasuredStream`]
//!   real compressed line sizes);
//! * [`cluster`] — the multi-GPU shared-link layer (Section IX): per-GPU
//!   step timelines and per-tenant gradient all-reduce streams contending
//!   for one bandwidth-shared [`FluidFabric`] ([`ClusterSim`]);
//! * [`fabric`] — that one link arbiter, over a flat topology (the
//!   paper's single shared link) or node tiers under a spine, plus
//!   trace-driven tenant churn ([`FabricSim`]).
//!
//! ```
//! use cdma_models::zoo;
//! use cdma_gpusim::SystemConfig;
//! use cdma_vdnn::{ComputeModel, CudnnVersion, TimelineSim, TransferPolicy, UniformRatio};
//!
//! let spec = zoo::alexnet();
//! let sim = TimelineSim::new(
//!     SystemConfig::titan_x_pcie3(),
//!     ComputeModel::titan_x(CudnnVersion::V5),
//! );
//! let oracle = sim.simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
//! let vdnn = sim.simulate(&spec, &UniformRatio::uniform(&spec, 1.0));
//! assert!(vdnn.total() >= oracle.total());
//! ```

#![deny(missing_docs)]

pub mod calendar;
pub mod cluster;
mod compute;
pub mod fabric;
pub mod memory;
mod ratio;
pub mod timeline;
pub mod traffic;

pub use calendar::CalendarQueue;
pub use cluster::{ClusterSim, ClusterTimeline, GradientAllReduce, Tenant, TenantResult};
pub use compute::{ComputeModel, CudnnVersion};
pub use fabric::{
    churn_trace, FabricRun, FabricShape, FabricSim, FabricSpec, FluidFabric, Job, JobOutcome,
    JobTemplate, RunStats, StepStat,
};
pub use ratio::RatioTable;
pub use timeline::{
    Fidelity, FidelitySource, LinkPolicy, MeasuredStream, Payload, StepBreakdown, StepTimeline,
    TimelineSim, TransferPolicy, TransferSource, UniformRatio,
};
