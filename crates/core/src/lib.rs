//! # cdma-core — the compressing DMA engine
//!
//! The paper's primary contribution as a library: a DMA engine that
//! compresses activation maps on their way out of GPU memory so that the
//! CPU–GPU interconnect carries 2–3× fewer bytes, turning vDNN's
//! PCIe-bound stalls back into fully-overlapped transfers.
//!
//! * [`CdmaEngine`] — the engine: pick an algorithm (ZVC is the hardware
//!   design point), call [`CdmaEngine::memcpy_compressed`] — the analogue
//!   of the proposed `cudaMemcpyCompressed()` CUDA API (Section V-D). The
//!   call compresses in 4 KB windows with the real codec, simulates the
//!   transfer through the discrete-event offload pipeline, and returns both
//!   the payload and the timing.
//! * [`measured`] — bridges real `cdma-dnn` training to the event-driven
//!   timeline: captures a training step's actual layer outputs through the
//!   engine (or synthesizes profiled activations at ImageNet scale) into a
//!   [`cdma_vdnn::timeline::MeasuredStream`].
//! * [`experiment`] — drivers that regenerate every table and figure of
//!   the paper's evaluation (dispatched by the `cdma-bench` CLI's
//!   `experiments` subcommand and exercised by the integration tests),
//!   including the fidelity sweep comparing the timeline's three transfer
//!   sources.
//!
//! ```
//! use cdma_core::CdmaEngine;
//! use cdma_gpusim::SystemConfig;
//!
//! let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
//! // 60%-sparse activations, as a ReLU layer would produce.
//! let data: Vec<f32> = (0..65536)
//!     .map(|i| if i % 5 < 3 { 0.0 } else { i as f32 })
//!     .collect();
//! let copy = engine.memcpy_compressed(&data);
//! assert!(copy.stats.ratio() > 2.0);
//! let back = engine.memcpy_decompressed(&copy).unwrap();
//! assert_eq!(back, data);
//! ```

#![deny(missing_docs)]

mod engine;
pub mod experiment;
pub mod measured;
pub mod report;
pub mod scenario;

pub use engine::{CdmaEngine, CompressedCopy, OffloadScratch};
pub use report::Report;
pub use scenario::{Context, Scenario, ScenarioFilter, ScenarioSet};
