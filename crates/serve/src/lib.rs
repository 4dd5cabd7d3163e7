//! # cdma-serve — the cDMA engine as a multi-tenant service
//!
//! The rest of the workspace studies the compressing DMA engine (Rhu et
//! al., HPCA 2018) as a simulation subject; this crate runs it as a
//! long-lived **service**: a thread-per-core worker pool serving
//! compress/decompress jobs for many tenants at once, with the paper's
//! hardware resource-management ideas mapped onto real queues:
//!
//! | paper (DMA engine)                  | cdma-serve                                   |
//! |-------------------------------------|----------------------------------------------|
//! | staging buffer sized for worst case | [`StagingPool`] admission control            |
//! | read stream stalls when full        | typed [`ServeError::Overloaded`] shed        |
//! | PCIe arbiter across DMA flows       | [`TenantScheduler`] across tenant queues     |
//! | `BandwidthShare` link fairness      | start-time-fair virtual-time dispatch        |
//! | fixed staging storage, no mallocs   | [`pool::Pool`]-recycled buffers, zero-alloc  |
//!
//! [`StagingPool`]: cdma_gpusim::staging::StagingPool
//! [`pool::Pool`]: cdma_compress::pool::Pool
//!
//! ## Layers
//!
//! * [`proto`] — the in-process [`Request`]/[`Response`] types (owned
//!   buffers moved, never serialized).
//! * [`sched`] — per-tenant bounded queues, byte quotas, and the
//!   weighted-fairness dispatch policy.
//! * [`server`] — the real threaded worker pool with work stealing.
//! * [`sim`] — the same admission control and execution kernel on a
//!   deterministic virtual clock (CI and property tests drive this).
//! * [`loadgen`] — seeded open-loop arrival schedules.
//! * [`metrics`] — latency percentile reporting over the virtual driver.
//!
//! The threaded server's wall-clock numbers come from the benchmark's
//! open-loop driver: `bash benchmark/run.sh --workload serve_4k`
//! (`serve_capacity_rps`, `serve.server.p99_us_at_40k`).
//!
//! ## Quick start
//!
//! ```
//! use cdma_serve::{
//!     run_virtual, ServerConfig, ServiceModel, TenantLoad, TenantSpec,
//! };
//!
//! let loads = vec![
//!     TenantLoad::new(TenantSpec::new("trainer").weight(3.0), 8_000.0),
//!     TenantLoad::new(TenantSpec::new("batch"), 4_000.0),
//! ];
//! let report = run_virtual(
//!     &ServerConfig::default(),
//!     &loads,
//!     0.02,
//!     42,
//!     ServiceModel::default(),
//! );
//! assert_eq!(report.total_shed(), 0);
//! println!("{}", report.table());
//! ```

#![deny(missing_docs)]

pub mod error;
mod exec;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod sched;
pub mod server;
pub mod sim;

pub use error::ServeError;
pub use exec::{DefaultKernel, JobKernel, OutputBufs, Traffic};
pub use loadgen::{fill_activations, Arrival, Schedule, TenantLoad};
pub use metrics::{LatencyStats, LoadReport, TenantLoadReport};
pub use proto::{JobKind, Request, Response, TenantId, KERNEL_PANICKED};
pub use sched::{TenantCounters, TenantScheduler, TenantSpec};
pub use server::{Completion, Server, ServerConfig, ServerStats};
pub use sim::{run_virtual, run_virtual_with_kernel, ServiceModel};
