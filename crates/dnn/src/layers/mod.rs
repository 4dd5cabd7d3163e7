//! Layer implementations (one module per layer type, Section II-A).

pub(crate) mod conv;
pub(crate) mod dropout;
pub(crate) mod fc;
pub(crate) mod pool;
pub(crate) mod relu;
