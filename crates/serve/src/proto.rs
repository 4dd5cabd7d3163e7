//! The in-process channel protocol: `Request` / `Response` frames.
//!
//! A frame carries a tensor window (or a batch of windows packed as one
//! contiguous activation slice), the algorithm choice, and the tenant id.
//! Callers move the owned buffers directly — no copy, no serialization;
//! there is no wire form (network transport is parked).
//!
//! Buffers inside frames are deliberately plain `Vec`s: responses hand
//! the request's input buffers back to the client
//! ([`Response::input_words`] / [`Response::input_bytes`]) and the server
//! recycles output buffers through [`cdma_compress::pool::Pool`], so a
//! steady-state client↔server loop allocates nothing per request.

use cdma_compress::{Algorithm, DecodeError};

/// Identifies one tenant of the service (an index into the tenant table
/// the server was started with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u16);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// What the service should do with the frame's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Compress raw activation words (the offload direction). The server
    /// windows the slice at its configured window size and returns the
    /// packed compressed stream plus a window offset table.
    Compress,
    /// Decompress a previously compressed stream back into activation
    /// words (the prefetch direction).
    Decompress,
    /// Run an inference kernel over the frame's activation words (an
    /// input-activation vector, or a batch packed back to back) and
    /// return the output activations. The default kernel rejects this
    /// kind; servers started with an inference-capable
    /// [`JobKernel`](crate::JobKernel) (e.g. `cdma-infer`'s CSC matvec)
    /// execute it on the same worker pool as compress/decompress jobs.
    Infer,
}

/// One job submitted to the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Caller-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    /// Codec to use.
    pub algorithm: Algorithm,
    /// Compress or decompress.
    pub kind: JobKind,
    /// Raw activation words ([`JobKind::Compress`] and [`JobKind::Infer`]
    /// input; empty for decompress requests).
    pub words: Vec<f32>,
    /// Compressed stream of one window ([`JobKind::Decompress`] input;
    /// empty for compress and infer requests).
    pub bytes: Vec<u8>,
    /// Element count of the *output* ([`JobKind::Decompress`]: the
    /// decoded word count; [`JobKind::Infer`]: output activations per
    /// input vector). Travels outside the payload, like the transfer
    /// length in a DMA descriptor.
    pub elements: u32,
}

impl Request {
    /// A compress (offload-direction) request.
    pub fn compress(tenant: TenantId, id: u64, algorithm: Algorithm, words: Vec<f32>) -> Self {
        Request {
            tenant,
            id,
            algorithm,
            kind: JobKind::Compress,
            words,
            bytes: Vec::new(),
            elements: 0,
        }
    }

    /// A decompress (prefetch-direction) request over one compressed
    /// window of `elements` activation words.
    pub fn decompress(
        tenant: TenantId,
        id: u64,
        algorithm: Algorithm,
        bytes: Vec<u8>,
        elements: u32,
    ) -> Self {
        Request {
            tenant,
            id,
            algorithm,
            kind: JobKind::Decompress,
            words: Vec::new(),
            bytes,
            elements,
        }
    }

    /// An inference request: run the installed kernel over `words` (one
    /// input-activation vector, or a whole batch packed contiguously)
    /// and return `out_elements` output activations per input vector.
    /// `algorithm` names the weight-stream codec the kernel reads from,
    /// so per-tenant wire accounting stays comparable with
    /// compress/decompress traffic.
    pub fn infer(
        tenant: TenantId,
        id: u64,
        algorithm: Algorithm,
        words: Vec<f32>,
        out_elements: u32,
    ) -> Self {
        Request {
            tenant,
            id,
            algorithm,
            kind: JobKind::Infer,
            words,
            bytes: Vec::new(),
            elements: out_elements,
        }
    }

    /// The request's *uncompressed* footprint in bytes — what admission
    /// control reserves in the staging pool, exactly as the DMA engine
    /// reserves the worst case because it "does not know a priori which
    /// responses will be compressed or not". Inference jobs reserve
    /// input plus output activations.
    pub fn footprint_bytes(&self) -> u64 {
        match self.kind {
            JobKind::Compress => (self.words.len() * 4) as u64,
            JobKind::Decompress => u64::from(self.elements) * 4,
            JobKind::Infer => (self.words.len() * 4) as u64 + u64::from(self.elements) * 4,
        }
    }
}

/// The outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// The request's correlation id.
    pub id: u64,
    /// The request's kind.
    pub kind: JobKind,
    /// Compressed windows, back to back (compress responses).
    pub bytes: Vec<u8>,
    /// Window offset table over [`Response::bytes`]: `windows + 1`
    /// entries, starting at 0 (compress responses).
    pub offsets: Vec<u32>,
    /// Recovered activation words (decompress responses).
    pub words: Vec<f32>,
    /// Uncompressed bytes the job covered.
    pub uncompressed_bytes: u64,
    /// Compressed bytes (what a socket/link transport would carry).
    pub wire_bytes: u64,
    /// Why the job produced no output: a decode fault (corrupt
    /// decompress payload), or [`KERNEL_PANICKED`].
    pub error: Option<DecodeError>,
    /// The request's input word buffer, handed back for recycling.
    pub input_words: Vec<f32>,
    /// The request's input byte buffer, handed back for recycling.
    pub input_bytes: Vec<u8>,
}

/// The [`Response::error`] of a request whose [`JobKernel`](crate::JobKernel)
/// panicked: the server caught the unwind, failed that one request and
/// kept the worker.
// pub: the error a client matches a panicked kernel's response by
pub const KERNEL_PANICKED: DecodeError = DecodeError::Corrupt("job kernel panicked");

impl Response {
    /// The response of a request the kernel panicked on. Only what was
    /// copied out before the call survives — the request, its input
    /// buffers and the output buffers unwound with the kernel — so the
    /// response is empty and accounts for no bytes served.
    pub(crate) fn kernel_panicked(tenant: TenantId, id: u64, kind: JobKind) -> Self {
        Response {
            tenant,
            id,
            kind,
            bytes: Vec::new(),
            offsets: Vec::new(),
            words: Vec::new(),
            uncompressed_bytes: 0,
            wire_bytes: 0,
            error: Some(KERNEL_PANICKED),
            input_words: Vec::new(),
            input_bytes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_uncompressed_size() {
        let c = Request::compress(TenantId(0), 0, Algorithm::Zvc, vec![0.0; 1024]);
        assert_eq!(c.footprint_bytes(), 4096);
        let d = Request::decompress(TenantId(0), 0, Algorithm::Zvc, vec![0; 8], 1024);
        assert_eq!(d.footprint_bytes(), 4096);
        // Inference reserves input + output activations.
        let i = Request::infer(TenantId(0), 0, Algorithm::Csc, vec![0.0; 1024], 256);
        assert_eq!(i.footprint_bytes(), 4096 + 1024);
    }
}
