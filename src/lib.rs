//! # cdma — reproduction of "Compressing DMA Engine: Leveraging Activation
//! Sparsity for Training Deep Neural Networks" (Rhu et al., HPCA 2018)
//!
//! This facade re-exports every subsystem of the reproduction:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `cdma-tensor` | 4-D activation tensors, NCHW/NHWC/CHWN layouts |
//! | [`compress`] | `cdma-compress` | RLE, ZVC and DEFLATE-style codecs |
//! | [`sparsity`] | `cdma-sparsity` | density stats, U-curve model, activation synthesis |
//! | [`dnn`] | `cdma-dnn` | from-scratch CPU training framework |
//! | [`models`] | `cdma-models` | the six evaluated networks + density profiles |
//! | [`gpusim`] | `cdma-gpusim` | memory-subsystem / engine / area / energy models |
//! | [`vdnn`] | `cdma-vdnn` | event-driven training-step timeline, multi-GPU shared-link cluster ([`vdnn::cluster`]) on one link arbiter over flat or tiered topologies ([`vdnn::FluidFabric`]), offload/prefetch scheduling, compute model |
//! | [`core`] | `cdma-core` | the cDMA engine + the declarative scenario/experiment API |
//!
//! # The declarative scenario API
//!
//! The paper's evaluation is a grid — network × layout × algorithm ×
//! timeline fidelity × platform. One cell of that grid is a
//! [`core::scenario::Scenario`] value; [`core::scenario::ScenarioSet`]
//! builds cartesian sweeps (with [`core::scenario::ScenarioSet::paper_grid`]
//! as the canonical Fig. 11 grid); and a [`core::scenario::Context`]
//! memoizes the expensive shared inputs (density profiles, the measured
//! `RatioTable`, synthesized measured streams) while a sweep maps over
//! the set on the caller's thread.
//!
//! Every experiment driver in [`core::experiment`] consumes scenarios and
//! returns a typed value implementing [`core::report::Report`], renderable
//! as aligned text, CSV, or hand-rolled escape-correct JSON:
//!
//! ```
//! use cdma::core::experiment;
//! use cdma::core::report::{render, Format};
//! use cdma::core::scenario::{Context, Runner, ScenarioFilter};
//!
//! let ctx = Context::fast(); // coarse ratio table; Context::new() for full
//! let filter = ScenarioFilter::all().network("AlexNet");
//! let report = experiment::run("fig11", &ctx, &Runner, &filter)
//!     .expect("fig11 is in the catalogue");
//! let json = render(report.as_ref(), Format::Json);
//! assert!(json.starts_with("{\"experiment\":\"fig11\""));
//! ```
//!
//! The `cdma-bench` CLI is a thin shell over this API — one binary
//! regenerates every paper table/figure:
//!
//! ```bash
//! cargo run -p cdma-bench --release -- experiments all --format json
//! ```
//!
//! # The training-step timeline
//!
//! One event-driven simulator ([`vdnn::timeline::TimelineSim`]) models the
//! paper's training step at three fidelity levels. The level is a value —
//! [`vdnn::timeline::Fidelity`] — and
//! [`core::scenario::Context::transfer_source`] turns it into the matching
//! [`vdnn::timeline::TransferSource`]: [`vdnn::timeline::UniformRatio`]
//! (the analytic model, its ratios given or read from density
//! trajectories by [`vdnn::timeline::UniformRatio::at_checkpoint`]) and
//! [`vdnn::timeline::MeasuredStream`] (real per-window line sizes —
//! capture one from a live training step with
//! [`core::measured::capture_training_step`]).
//!
//! # The streaming compression API
//!
//! The hot path mirrors the hardware's no-allocation design. Codecs are
//! selected through the statically-dispatched [`compress::Codec`] enum
//! (`Algorithm::codec()` — no `Box` per call), and the primitive operations
//! write into caller-owned buffers:
//!
//! * [`compress::Compressor::compress_into`] /
//!   [`compress::Compressor::decompress_into`] — clear-and-reuse a `Vec`,
//!   so repeated calls perform no allocation after the first. Use these in
//!   any per-window / per-layer / per-step loop.
//! * [`compress::Compressor::compress`] / `decompress` — one-shot
//!   conveniences that allocate, implemented on the streaming primitives.
//! * [`compress::windowed::WindowedStream`] — a whole activation map
//!   compressed in independent 4 KB windows, stored as **one contiguous
//!   byte buffer** plus an O(1) offset table (`window_sizes()` borrows; it
//!   does not allocate), with an opt-in multi-threaded path
//!   (`recompress_parallel`) for multi-megabyte maps.
//! * [`core::CdmaEngine`] — `offload_into` recycles an `OffloadScratch`'s
//!   stream storage and DMA pipeline and `memcpy_decompressed_into`
//!   prefetches into a reusable buffer, so a steady-state training loop's
//!   offload path is allocation-free.
//!
//! ```
//! use cdma::compress::{Algorithm, Compressor};
//!
//! let codec = Algorithm::Zvc.codec(); // static dispatch
//! let data = vec![0.0f32; 1024];
//! let mut wire = Vec::new();
//! let mut back = Vec::new();
//! for _layer in 0..3 {
//!     codec.compress_into(&data, &mut wire); // buffers reused every pass
//!     codec.decompress_into(&wire, data.len(), &mut back).unwrap();
//!     assert_eq!(back, data);
//! }
//! ```
//!
//! Start with the `quickstart` example:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

pub use cdma_compress as compress;
pub use cdma_core as core;
pub use cdma_dnn as dnn;
pub use cdma_gpusim as gpusim;
pub use cdma_models as models;
pub use cdma_sparsity as sparsity;
pub use cdma_tensor as tensor;
pub use cdma_vdnn as vdnn;
