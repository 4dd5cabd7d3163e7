//! The shared job-execution kernel: one [`Request`] in, one [`Response`]
//! out, using only caller-supplied (recycled) output buffers.
//!
//! Both drivers — the threaded server's workers and the virtual-time
//! simulator — call the same [`JobKernel`], so the traffic a job reports
//! is identical whichever driver ran it. [`DefaultKernel`] handles the
//! compress/decompress kinds; crates that add new job kinds (e.g.
//! `cdma-infer`'s CSC matvec for [`JobKind::Infer`]) implement
//! [`JobKernel`] themselves, typically delegating the stock kinds back
//! to [`DefaultKernel`], and install it with
//! [`Server::start_with_kernel`](crate::Server::start_with_kernel) or
//! [`run_virtual_with_kernel`](crate::sim::run_virtual_with_kernel) —
//! inference then shares the worker pool, admission control, and
//! zero-alloc buffer recycling instead of needing a second server.
//!
//! The virtual-time twin asks a kernel one question,
//! [`JobKernel::traffic`]: what a job moved, not what it computed. A
//! kernel whose output nobody on the twin reads can answer that without
//! producing it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cdma_compress::{windowed, Compressor, DecodeError};

use crate::proto::{JobKind, Request, Response};

/// Recycled output buffers for one job execution. The executing kernel
/// takes ownership, fills whichever buffers its job kind produces, and
/// moves all three into the [`Response`]; the driver recycles them from
/// completed responses, so steady state allocates nothing per request.
#[derive(Debug, Default)]
pub struct OutputBufs {
    /// Compressed output stream (compress jobs).
    pub bytes: Vec<u8>,
    /// Window offset table over `bytes` (compress jobs).
    pub offsets: Vec<u32>,
    /// Recovered or computed activation words (decompress / infer jobs).
    pub words: Vec<f32>,
}

impl cdma_compress::pool::Reusable for OutputBufs {
    fn reset(&mut self) {
        self.bytes.clear();
        self.offsets.clear();
        self.words.clear();
    }
}

/// One job-execution strategy, shared by the threaded server's workers
/// and the virtual-time simulator.
///
/// Implementations must be pure functions of the request (given the same
/// `window_elems`): both drivers rely on that for byte-determinism, and
/// the simulator replays the same requests the server would see. The
/// kernel owns codec selection — requests carry an
/// [`Algorithm`](cdma_compress::Algorithm), and what it means (which
/// stream the bytes decode as, which weight store an infer job reads) is
/// the kernel's business.
///
/// The threaded server calls [`JobKernel::execute`]; the virtual-time
/// twin calls [`JobKernel::traffic`] and nothing else. Its default runs
/// `execute` and reads the two byte counts off the response, so a
/// compress or decompress job still runs its codec and its wire bytes
/// stay measured. A kernel may override it only with the counts
/// `execute` would report for the same arguments.
pub trait JobKernel: Send + Sync {
    /// Runs `req` to completion, producing output in the recycled
    /// buffers of `bufs` and handing the request's input buffers back
    /// inside the [`Response`].
    fn execute(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Response;

    /// The traffic `req` moves: the [`Response::uncompressed_bytes`] and
    /// [`Response::wire_bytes`] that [`JobKernel::execute`] reports, with
    /// the request's input words and the output buffers handed back for
    /// recycling. The output itself is not part of the answer.
    fn traffic(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Traffic {
        let resp = self.execute(req, window_elems, bufs);
        Traffic {
            uncompressed_bytes: resp.uncompressed_bytes,
            wire_bytes: resp.wire_bytes,
            input_words: resp.input_words,
            bufs: OutputBufs {
                bytes: resp.bytes,
                offsets: resp.offsets,
                words: resp.words,
            },
        }
    }
}

/// What [`JobKernel::traffic`] reports of one job: its two byte counts,
/// and the buffers the driver recycles.
#[derive(Debug)]
pub struct Traffic {
    /// Uncompressed bytes the job covered.
    pub uncompressed_bytes: u64,
    /// Bytes the job put on the wire.
    pub wire_bytes: u64,
    /// The request's input word buffer, handed back for recycling.
    pub input_words: Vec<f32>,
    /// The output buffers, handed back for recycling.
    pub bufs: OutputBufs,
}

/// The stock kernel: windowed compress and decompress via the request's
/// algorithm, exactly the execution path `cdma-serve` always had.
/// [`JobKind::Infer`] requests complete with a decode-fault response
/// (`error` set, no output) — inference needs an installed kernel, not a
/// protocol error, so the frame still round-trips.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultKernel;

impl JobKernel for DefaultKernel {
    fn execute(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Response {
        execute(req, window_elems, bufs)
    }
}

/// Runs `kernel` on `req` with the unwind caught: a panicking kernel
/// fails this one request ([`KERNEL_PANICKED`](crate::proto::KERNEL_PANICKED),
/// id, tenant and kind preserved) instead of the thread that ran it.
/// `AssertUnwindSafe` holds because everything the closure touches is
/// moved into it and dropped by the unwind, and a [`JobKernel`] is shared
/// (`&self`) state its implementor already keeps valid across threads.
pub(crate) fn execute_caught(
    kernel: &dyn JobKernel,
    req: Request,
    window_elems: usize,
    bufs: OutputBufs,
) -> Response {
    let (tenant, id, kind) = (req.tenant, req.id, req.kind);
    catch_unwind(AssertUnwindSafe(|| kernel.execute(req, window_elems, bufs)))
        .unwrap_or_else(|_| Response::kernel_panicked(tenant, id, kind))
}

/// Runs `req` to completion. Compress requests are windowed at
/// `window_elems` activation words per window (the paper's 4 KB windows
/// at the default config) and packed back to back with an offset table;
/// decompress requests recover the original words. Output travels in the
/// buffers of `bufs`; the request's own input buffers are moved into the
/// response for recycling by the caller.
pub(crate) fn execute(mut req: Request, window_elems: usize, bufs: OutputBufs) -> Response {
    debug_assert!(window_elems > 0);
    let codec = req.algorithm.codec();
    let OutputBufs {
        mut bytes,
        mut offsets,
        mut words,
    } = bufs;
    bytes.clear();
    offsets.clear();
    words.clear();
    let mut error = None;
    let (uncompressed_bytes, wire_bytes) = match req.kind {
        JobKind::Compress => {
            // The shared windowed append path: one implementation of the
            // offset-table layout for the server and the engine, and ZVC
            // windows land in the SIMD kernel tiers.
            windowed::append_windows(&codec, &req.words, window_elems, &mut bytes, &mut offsets);
            ((req.words.len() * 4) as u64, bytes.len() as u64)
        }
        JobKind::Decompress => {
            if let Err(e) = codec.decompress_append(&req.bytes, req.elements as usize, &mut words) {
                words.clear();
                error = Some(e);
            }
            (u64::from(req.elements) * 4, req.bytes.len() as u64)
        }
        JobKind::Infer => {
            error = Some(DecodeError::Corrupt("no inference kernel installed"));
            (req.footprint_bytes(), 0)
        }
    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::TenantId;
    use cdma_compress::Algorithm;

    #[test]
    fn compress_then_decompress_roundtrips_per_window() {
        let data: Vec<f32> = (0..3000)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 })
            .collect();
        let req = Request::compress(TenantId(0), 1, Algorithm::Zvc, data.clone());
        let resp = execute(req, 1024, OutputBufs::default());
        assert!(resp.error.is_none());
        assert_eq!(resp.uncompressed_bytes, 12_000);
        assert_eq!(resp.wire_bytes, resp.bytes.len() as u64);
        // 3000 words at 1024/window => 3 windows, 4 offsets.
        assert_eq!(resp.offsets.len(), 4);
        assert_eq!(resp.offsets[0], 0);
        assert_eq!(*resp.offsets.last().unwrap() as usize, resp.bytes.len());
        // Input buffer came back for recycling.
        assert_eq!(resp.input_words, data);
        // Each window decompresses back.
        let mut recovered = Vec::new();
        for (w, pair) in resp.offsets.windows(2).enumerate() {
            let slice = &resp.bytes[pair[0] as usize..pair[1] as usize];
            let n = (data.len() - w * 1024).min(1024);
            let dreq =
                Request::decompress(TenantId(0), 2, Algorithm::Zvc, slice.to_vec(), n as u32);
            let dresp = execute(dreq, 1024, OutputBufs::default());
            assert!(dresp.error.is_none());
            recovered.extend_from_slice(&dresp.words);
        }
        assert_eq!(recovered, data);
    }

    #[test]
    fn default_kernel_rejects_infer_with_fault_response() {
        let req = Request::infer(TenantId(2), 7, Algorithm::Csc, vec![1.0; 64], 32);
        let resp = DefaultKernel.execute(req, 1024, OutputBufs::default());
        assert!(resp.error.is_some());
        assert_eq!(resp.kind, JobKind::Infer);
        assert_eq!(resp.uncompressed_bytes, 64 * 4 + 32 * 4);
        assert_eq!(resp.wire_bytes, 0);
        assert!(resp.words.is_empty());
        // Input buffer still comes back for recycling.
        assert_eq!(resp.input_words.len(), 64);
    }

    #[test]
    fn corrupt_stream_reports_error_not_panic() {
        let req = Request::decompress(TenantId(0), 1, Algorithm::Zvc, vec![0xFF; 3], 1024);
        let resp = execute(req, 1024, OutputBufs::default());
        assert!(resp.error.is_some());
        assert!(resp.words.is_empty());
    }

    #[test]
    fn reuses_buffer_capacity() {
        let data = vec![1.0f32; 2048];
        let r1 = execute(
            Request::compress(TenantId(0), 1, Algorithm::Zvc, data.clone()),
            1024,
            OutputBufs::default(),
        );
        let caps = (r1.bytes.capacity(), r1.offsets.capacity());
        let bufs = OutputBufs {
            bytes: r1.bytes,
            offsets: r1.offsets,
            words: r1.words,
        };
        let r2 = execute(
            Request::compress(TenantId(0), 2, Algorithm::Zvc, data),
            1024,
            bufs,
        );
        assert!(r2.bytes.capacity() >= caps.0 && r2.offsets.capacity() >= caps.1);
    }
}
