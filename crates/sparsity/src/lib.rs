//! # cdma-sparsity — activation-sparsity measurement, modelling and synthesis
//!
//! Section IV of the cDMA paper is a data-driven characterization of DNN
//! activation sparsity during training. This crate reproduces that study's
//! machinery:
//!
//! * [`DensityTrajectory`] — the **U-shaped density curve** over training
//!   time (Fig. 4/6/7): density drops sharply while the network prunes
//!   unimportant features, then partially recovers as accuracy improves;
//! * [`LossCurve`] — the companion loss-vs-training-time model for Fig. 7;
//! * [`ActivationGen`] — synthesis of activation maps with a target density
//!   and realistic **spatial clustering** (Gaussian activity blobs plus dead
//!   channels). Clustering is what makes RLE and zlib layout-sensitive, so
//!   the generator is the substrate for the Fig. 11 layout study — see
//!   DESIGN.md for the substitution argument (we cannot train ImageNet
//!   models here; the compression results depend only on the zero-pattern
//!   statistics this generator reproduces);
//! * [`visual`] — the black/white per-channel rendering of Fig. 5 (ASCII and
//!   PGM).
//!
//! ```
//! use cdma_sparsity::{ActivationGen, DensityTrajectory};
//! use cdma_tensor::{Layout, Shape4};
//!
//! // AlexNet conv2-like layer at 60% of training: ~25% density.
//! let traj = DensityTrajectory::new(0.55, 0.18, 0.32, 0.35);
//! let d = traj.density_at(0.6);
//! let mut gen = ActivationGen::seeded(42);
//! let t = gen.generate(Shape4::new(4, 64, 13, 13), Layout::Nchw, d);
//! assert!((t.density() - d).abs() < 0.02);
//! ```

#![deny(missing_docs)]

pub mod fit;
mod gen;
mod trajectory;
pub mod visual;

pub use gen::{ActivationGen, SpatialClustering};
pub use trajectory::{DensityTrajectory, LossCurve, TRAINING_CHECKPOINTS};
