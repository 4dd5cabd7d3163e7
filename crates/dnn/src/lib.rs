//! # cdma-dnn — a from-scratch CPU DNN training framework
//!
//! The cDMA paper's characterization (Section IV) rests on *real* training
//! dynamics: activation density falls sharply at the start of training and
//! recovers in a U-shape as accuracy improves. To reproduce that genuinely —
//! not just assert it — this crate implements the full training stack the
//! paper's workloads use, on the CPU:
//!
//! * layers: [`Conv2d`] (direct and im2col-GEMM paths, cross-checked),
//!   [`Relu`], [`Pool`] (max/avg), [`FullyConnected`], [`Dropout`],
//!   [`Parallel`] (inception-style fan-out + channel concat);
//! * [`SoftmaxCrossEntropy`] loss;
//! * [`Sgd`] with momentum and weight decay (Section VI);
//! * [`Sequential`] networks with density probes after every layer;
//! * a [`synthetic`] procedurally-generated image-classification dataset, so
//!   small networks can actually be trained end-to-end in tests and
//!   examples.
//!
//! Backward passes are verified against numerical gradients in the test
//! suite. Compute uses the NCHW layout throughout (Caffe's layout, which the
//! paper also adopts for its evaluation).
//!
//! ```
//! use cdma_dnn::{Conv2d, Layer, Mode, Relu, Sequential};
//! use cdma_tensor::{Layout, Shape4, Tensor};
//!
//! let mut net = Sequential::new();
//! net.push(Conv2d::new("conv0", 1, 4, 3, 1, 1, 7));
//! net.push(Relu::new("relu0"));
//! let x = Tensor::full(Shape4::new(2, 1, 8, 8), Layout::Nchw, 1.0);
//! let y = net.forward(&x, Mode::Train);
//! assert_eq!(y.shape(), Shape4::new(2, 4, 8, 8));
//! ```

#![deny(missing_docs)]

mod graph;
mod init;
mod layer;
mod layers;
mod loss;
mod optimizer;
pub mod synthetic;
mod train;

pub use graph::{Parallel, Sequential};
pub use init::WeightInit;
pub use layer::{Layer, LayerKind, Mode, ParamRef};
pub use layers::conv::Conv2d;
pub use layers::dropout::Dropout;
pub use layers::fc::FullyConnected;
pub use layers::pool::{Pool, PoolKind};
pub use layers::relu::Relu;
pub use loss::{chance_loss, SoftmaxCrossEntropy};
pub use optimizer::Sgd;
pub use train::{DensityTrace, Trainer};
