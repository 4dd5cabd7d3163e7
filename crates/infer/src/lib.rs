//! # cdma-infer — compressed-sparse inference over the cDMA stack
//!
//! The rest of the workspace studies the compressing DMA engine on the
//! *training* path (offloading ReLU-sparse activations). This crate
//! opens the serving workload family: pruned fully-connected layers
//! whose **weights** are sparse too, following EIE (Han et al., ISCA
//! 2016) and SparseNN (Zhu et al., 2018):
//!
//! | EIE / SparseNN structure            | here                                     |
//! |-------------------------------------|------------------------------------------|
//! | CSC weights, 4-bit relative indices | [`cdma_compress::Csc`] + [`CscMatrix`]   |
//! | weight sharing / codebook           | [`CscMatrix::quantized`]                 |
//! | PE array, row-interleaved slices    | [`PeWorkload`] + [`PeArray`]             |
//! | activation broadcast FIFOs          | [`PeArray::fifo_depth`] backpressure     |
//! | leading-nonzero detection           | `skip_zeros` in [`PeArray::run`]         |
//! | column fetched once, consumers share| [`CscMatrix::matvec_batch_into`]         |
//! | load-imbalance-limited speedup      | [`PeTimeline::load_imbalance`]           |
//! | accelerator as a service            | [`InferKernel`] on the `cdma-serve` pool |
//!
//! Three layers:
//!
//! * [`CscMatrix`] ([`weights`]) — per-column CSC weight storage over
//!   the codec layer's [`cdma_compress::Csc`] streams, with a streaming
//!   column builder for zoo-sized layers, a bit-exact dense round-trip,
//!   a sparse matvec that walks each column once per batch, and
//!   deep-compression codebook quantization.
//! * [`PeArray`] ([`pe`]) — the cycle-level processing-element model:
//!   broadcast/FIFO/imbalance timing with per-PE busy intervals that
//!   feed the same Gantt-style reports as the link and pipeline models.
//! * [`InferKernel`] ([`kernel`]) — a `cdma_serve::JobKernel` that runs
//!   a request's whole batch as one matvec call on the shared worker
//!   pool, so serving scenarios reuse admission control, fairness, and
//!   the zero-alloc buffer loop.
//!
//! The `fig_inference` experiment in `cdma-core` sweeps
//! [`InferEngine`]s (dense / CSC / CSC+activation-skipping) over the
//! model zoo's FC layers to reproduce the EIE-style speedup-vs-density
//! and traffic-reduction story on top of the paper's infrastructure.
//!
//! ```
//! use cdma_infer::{CscMatrix, InferEngine, PeArray, PeWorkload};
//!
//! // A 10%-dense pruned layer on a 16-PE array.
//! let w = CscMatrix::synth(256, 256, 0.1, 42);
//! let workload = PeWorkload::from_matrix(&w, 16);
//! let acts = vec![1.0f32; 256];
//! let arr = PeArray::new(16);
//! let t = arr.run(&workload, &acts, InferEngine::Csc.skips_zero_activations());
//! let speedup = arr.dense_cycles(256, 256) as f64 / t.cycles as f64;
//! assert!(speedup > 3.0, "sparsity wins, imbalance taxes: {speedup:.1}x");
//! assert!(w.ratio() > 6.0, "and the weights shrink {:.1}x", w.ratio());
//! ```

#![deny(missing_docs)]

mod engine;
pub mod kernel;
pub mod pe;
pub mod weights;

pub use engine::InferEngine;
pub use kernel::InferKernel;
pub use pe::{BusyIntervals, PeArray, PeTimeline, PeWorkload};
pub use weights::{column_seed, fc_weight_dims, fill_weights, CscMatrix};
