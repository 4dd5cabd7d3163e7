//! The inference [`JobKernel`] for the `cdma-serve` worker pool.

use cdma_compress::{Compressor, DecodeError, Zvc};
use cdma_serve::{DefaultKernel, JobKernel, JobKind, OutputBufs, Request, Response, Traffic};

use crate::weights::CscMatrix;

/// Serves [`JobKind::Infer`] requests as CSC matvecs over one resident
/// weight matrix, delegating compress/decompress jobs to the stock
/// kernel — so one server (or virtual-time replay) carries both the
/// training-offload and inference workload families through the same
/// admission control and buffer recycling.
///
/// An infer request's `words` hold `batch` input vectors of
/// [`CscMatrix::cols`] activations packed back to back, and its
/// `elements` field must equal [`CscMatrix::rows`] (outputs per
/// vector). The batch is one [`CscMatrix::matvec_batch_into`] call
/// straight into the recycled output buffer: each weight column is
/// walked once per request and shared by every vector whose activation
/// there is non-zero, and a warm worker allocates nothing per request
/// (`tests/zero_alloc.rs`).
///
/// Traffic accounting models a weight-and-activation transfer per
/// request: `uncompressed_bytes` is what a dense engine would move
/// (dense weights + raw activations in and out), `wire_bytes` what this
/// engine moves (CSC weights + ZVC-compressed input activations + raw
/// outputs), making per-tenant compression ratios directly comparable
/// with the compress/decompress jobs sharing the pool. Both counts
/// follow from the request's shape and its input words, never from the
/// result, so [`JobKernel::traffic`] — the virtual-time twin's one
/// call — answers an infer job from the same accounting without running
/// the matvec (`tests/traffic.rs` holds it equal to `execute`).
///
/// ```
/// use std::sync::Arc;
/// use cdma_compress::Algorithm;
/// use cdma_infer::{CscMatrix, InferKernel};
/// use cdma_serve::{JobKernel, OutputBufs, Request, TenantId};
///
/// let kernel = InferKernel::new(CscMatrix::synth(64, 128, 0.1, 7));
/// let x = vec![1.0f32; 128];
/// let resp = kernel.execute(
///     Request::infer(TenantId(0), 1, Algorithm::Csc, x, 64),
///     1024,
///     OutputBufs::default(),
/// );
/// assert!(resp.error.is_none());
/// assert_eq!(resp.words.len(), 64);
/// assert!(resp.wire_bytes < resp.uncompressed_bytes / 4);
/// ```
#[derive(Debug)]
pub struct InferKernel {
    matrix: CscMatrix,
}

impl InferKernel {
    /// Wraps a compressed weight matrix for serving.
    pub fn new(matrix: CscMatrix) -> Self {
        InferKernel { matrix }
    }

    /// The resident weight matrix.
    pub fn matrix(&self) -> &CscMatrix {
        &self.matrix
    }

    /// The one statement of an infer job's traffic: `(uncompressed,
    /// wire)` bytes, and the shape error that rejects the job, if any.
    /// A rejected job puts nothing on the wire.
    fn account(&self, req: &Request) -> (u64, u64, Option<DecodeError>) {
        let (rows, cols) = (self.matrix.rows(), self.matrix.cols());
        let batch = req.words.len() / cols;
        let uncompressed =
            self.matrix.dense_bytes() + (req.words.len() * 4) as u64 + (batch * rows * 4) as u64;
        let error = if req.elements as usize != rows {
            Some(DecodeError::Corrupt(
                "inference output size does not match the resident matrix",
            ))
        } else if !req.words.len().is_multiple_of(cols) {
            Some(DecodeError::Corrupt(
                "inference input is not a whole number of activation vectors",
            ))
        } else {
            None
        };
        let wire = match error {
            Some(_) => 0,
            // Weights travel compressed, input activations under ZVC,
            // outputs raw.
            None => {
                self.matrix.compressed_bytes()
                    + Zvc::new().compressed_size(&req.words) as u64
                    + (batch * rows * 4) as u64
            }
        };
        (uncompressed, wire, error)
    }
}

impl JobKernel for InferKernel {
    fn execute(&self, mut req: Request, window_elems: usize, bufs: OutputBufs) -> Response {
        if req.kind != JobKind::Infer {
            return DefaultKernel.execute(req, window_elems, bufs);
        }
        let OutputBufs {
            bytes,
            offsets,
            mut words,
        } = bufs;
        words.clear();
        let (uncompressed_bytes, wire_bytes, error) = self.account(&req);
        if error.is_none() {
            self.matrix.matvec_batch_into(&req.words, &mut words);
        }
        Response {
            tenant: req.tenant,
            id: req.id,
            kind: req.kind,
            bytes,
            offsets,
            words,
            uncompressed_bytes,
            wire_bytes,
            error,
            input_words: std::mem::take(&mut req.words),
            input_bytes: std::mem::take(&mut req.bytes),
        }
    }

    fn traffic(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Traffic {
        if req.kind != JobKind::Infer {
            return DefaultKernel.traffic(req, window_elems, bufs);
        }
        let (uncompressed_bytes, wire_bytes, _) = self.account(&req);
        Traffic {
            uncompressed_bytes,
            wire_bytes,
            input_words: req.words,
            bufs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_compress::Algorithm;
    use cdma_serve::TenantId;

    fn kernel() -> InferKernel {
        InferKernel::new(CscMatrix::synth(32, 48, 0.25, 3))
    }

    #[test]
    fn batched_matvec_matches_store() {
        let k = kernel();
        let dense = k.matrix().to_dense();
        let mut x = vec![0.0f32; 48 * 3];
        crate::weights::fill_weights(8, 0.4, &mut x);
        let resp = k.execute(
            Request::infer(TenantId(1), 5, Algorithm::Csc, x.clone(), 32),
            1024,
            OutputBufs::default(),
        );
        assert!(resp.error.is_none());
        assert_eq!(resp.words.len(), 32 * 3);
        for b in 0..3 {
            for r in 0..32 {
                let want: f32 = (0..48).map(|c| dense[r * 48 + c] * x[b * 48 + c]).sum();
                let got = resp.words[b * 32 + r];
                assert!((got - want).abs() <= 1e-6 * want.abs().max(1.0));
            }
        }
        // Input comes back for recycling; accounting covers both sides.
        assert_eq!(resp.input_words, x);
        assert_eq!(
            resp.uncompressed_bytes,
            k.matrix().dense_bytes() + (48 * 3 + 32 * 3) * 4
        );
        assert!(resp.wire_bytes > 0 && resp.wire_bytes < resp.uncompressed_bytes);
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let k = kernel();
        let bad_out = k.execute(
            Request::infer(TenantId(0), 1, Algorithm::Csc, vec![1.0; 48], 31),
            1024,
            OutputBufs::default(),
        );
        assert!(bad_out.error.is_some());
        assert!(bad_out.words.is_empty());
        let ragged = k.execute(
            Request::infer(TenantId(0), 2, Algorithm::Csc, vec![1.0; 47], 32),
            1024,
            OutputBufs::default(),
        );
        assert!(ragged.error.is_some());
    }

    #[test]
    fn delegates_stock_kinds_to_default_kernel() {
        let k = kernel();
        let data: Vec<f32> = (0..1024)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let resp = k.execute(
            Request::compress(TenantId(0), 9, Algorithm::Zvc, data.clone()),
            1024,
            OutputBufs::default(),
        );
        assert!(resp.error.is_none());
        let want = DefaultKernel.execute(
            Request::compress(TenantId(0), 9, Algorithm::Zvc, data),
            1024,
            OutputBufs::default(),
        );
        assert_eq!(
            resp.bytes, want.bytes,
            "byte-identical with the default path"
        );
    }
}
