//! # cdma-tensor — 4-D activation-map tensors for the cDMA reproduction
//!
//! The cDMA paper (Rhu et al., HPCA 2018) studies the compressibility of DNN
//! *activation maps*: 4-dimensional arrays indexed by minibatch image `N`,
//! feature-map channel `C`, and the spatial height `H` and width `W` of each
//! map. The way this 4-D array is linearized in memory (the *layout*) has a
//! first-order effect on the behaviour of run-length and dictionary
//! compressors, so this crate makes the layout an explicit, typed property of
//! every tensor:
//!
//! * [`Layout::Nchw`] — Caffe/cuDNN default (`W` innermost),
//! * [`Layout::Nhwc`] — cuDNN alternative (`C` innermost),
//! * [`Layout::Chwn`] — Neon / cuda-convnet (`N` innermost).
//!
//! [`Tensor`] owns `f32` data in one of those layouts and supports byte-exact
//! relayout ([`Tensor::to_layout`]), element access in logical `(n, c, h, w)`
//! coordinates, and the density/sparsity accounting that the rest of the
//! reproduction is built on.
//!
//! ```
//! use cdma_tensor::{Layout, Shape4, Tensor};
//!
//! let shape = Shape4::new(2, 3, 4, 4);
//! let mut t = Tensor::zeros(shape, Layout::Nchw);
//! t.set(0, 1, 2, 3, 7.5);
//! assert_eq!(t.get(0, 1, 2, 3), 7.5);
//! assert!((t.density() - 1.0 / 96.0).abs() < 1e-9);
//!
//! let u = t.to_layout(Layout::Chwn);
//! assert_eq!(u.get(0, 1, 2, 3), 7.5);
//! ```

#![deny(missing_docs)]

mod layout;
mod shape;
mod tensor;

pub use layout::Layout;
pub use shape::Shape4;
pub use tensor::Tensor;
