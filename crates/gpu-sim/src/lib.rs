//! # cdma-gpusim — GPU memory-subsystem and cDMA hardware models
//!
//! Section V of the paper embeds (de)compression units next to the GPU's
//! memory controllers and provisions the DMA engine with a buffer sized to
//! the bandwidth-delay product of the memory system. This crate models that
//! hardware:
//!
//! * [`SystemConfig`] — the evaluated platform (Titan X Maxwell: 336 GB/s
//!   GDDR5, PCIe gen3 at 16 GB/s, 350 ns memory latency, 200 GB/s
//!   provisioned compression read bandwidth);
//! * [`ZvcEngine`] — the cycle model of Fig. 10's 3-stage, 32 B/cycle
//!   compression pipeline (6 cycles per 128 B line) and its 2-cycle-latency
//!   decompression counterpart;
//! * [`DmaPipeline`] — an incremental, event-stepped simulation of the
//!   offload path (DRAM fetch → per-MC compression → crossbar → DMA buffer
//!   → PCIe) on an integer femtosecond clock: lines are pushed with a
//!   release time, so the `cdma-vdnn` training-step timeline can
//!   interleave DMA traffic with compute events, and a minibatch's
//!   repeated line table is stepped only until one repeat starts as the
//!   one before it did
//!   ([`DmaPipeline::push_table`]). Reproduces the buffer-sizing and
//!   bandwidth-provisioning analysis of Sections V-B/V-C;
//! * [`area`] — the FreePDK45-scaled engine area and CACTI-style buffer
//!   area estimates (0.31 mm² + 0.21 mm² vs a 600 mm² die);
//! * [`energy`] — the per-bit transfer-energy comparison of Section VII-C;
//! * [`staging`] — the staging-buffer backpressure rule factored out of
//!   [`DmaPipeline`] into a reusable form: the same worst-case
//!   uncompressed-reservation policy, applied either to the simulated
//!   clock (stall) or to real queue depths (`cdma-serve` sheds with a
//!   typed overload error when the pool is exhausted).
//!
//! ```
//! use cdma_gpusim::{DmaPipeline, SystemConfig, LINE_BYTES};
//!
//! let cfg = SystemConfig::titan_x_pcie3();
//! // Offload 64 MB of 2.6x-compressible activations: one 4 KB line,
//! // compressed to 1576 bytes, 16 384 times.
//! let mut pipeline = DmaPipeline::new(cfg);
//! let run = pipeline.push_table(0.0, &[(LINE_BYTES as u32, 1576)], 16_384);
//! // The pipeline settles into a steady state after a few repeats and
//! // skips the rest.
//! assert!(run.stepped < 16_384);
//! let result = pipeline.result();
//! // The PCIe link, not DRAM, is the bottleneck: the transfer completes
//! // ~2.6x faster than an uncompressed copy would.
//! let uncompressed = (64u64 << 20) as f64 / cfg.pcie_bw;
//! assert!(result.total_time < uncompressed / 2.0);
//! ```

#![deny(missing_docs)]

pub mod area;
mod config;
mod dma;
pub mod dram_store;
pub mod energy;
mod engine;
#[cfg(test)]
mod pipeline;
pub mod staging;

pub use config::{LinkKind, SystemConfig};
pub use dma::{fs_to_seconds, DmaPipeline, LineSchedule, OffloadSimResult, TableRun, LINE_BYTES};
pub use dram_store::CompressedDramStore;
pub use engine::ZvcEngine;
