//! The in-process channel protocol: `Request` / `Response` frames.
//!
//! A frame carries a tensor window (or a batch of windows packed as one
//! contiguous activation slice), the algorithm choice, and the tenant id.
//! In-process callers move the owned buffers directly — no copy, no
//! serialization — but every frame also has a defined wire form
//! ([`encode_request`] / [`decode_request`] and the response
//! counterparts), so a socket transport can be layered on later without
//! touching the server: read a length-prefixed frame, decode, submit.
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

impl JobKind {
    fn code(self) -> u8 {
        match self {
            JobKind::Compress => 0,
            JobKind::Decompress => 1,
            JobKind::Infer => 2,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(JobKind::Compress),
            1 => Some(JobKind::Decompress),
            2 => Some(JobKind::Infer),
            _ => None,
        }
    }
}

fn algorithm_code(a: Algorithm) -> u8 {
    match a {
        Algorithm::Rle => 0,
        Algorithm::Zvc => 1,
        Algorithm::Zlib => 2,
        Algorithm::Csc => 3,
        Algorithm::Huff => 4,
        Algorithm::Adaptive => 5,
    }
}

fn algorithm_from_code(c: u8) -> Option<Algorithm> {
    match c {
        0 => Some(Algorithm::Rle),
        1 => Some(Algorithm::Zvc),
        2 => Some(Algorithm::Zlib),
        3 => Some(Algorithm::Csc),
        4 => Some(Algorithm::Huff),
        5 => Some(Algorithm::Adaptive),
        _ => None,
    }
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

/// Why a wire frame could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the frame did.
    Truncated,
    /// The magic word did not match.
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown [`JobKind`] code.
    BadKind(u8),
    /// Unknown [`Algorithm`] code.
    BadAlgorithm(u8),
    /// Bytes left over after the frame.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown job kind code {k}"),
            FrameError::BadAlgorithm(a) => write!(f, "unknown algorithm code {a}"),
            FrameError::TrailingBytes => write!(f, "bytes beyond end of frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frame magic: `0xCDMA` truncated to 16 bits.
const MAGIC: u16 = 0xCD3A;
/// Wire protocol version.
const VERSION: u8 = 1;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn push_words(out: &mut Vec<u8>, words: &[f32]) {
    for w in words {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
}

fn read_words(c: &mut Cursor<'_>, n: usize, out: &mut Vec<f32>) -> Result<(), FrameError> {
    out.reserve(n);
    for _ in 0..n {
        out.push(f32::from_bits(u32::from_le_bytes(
            c.take(4)?.try_into().unwrap(),
        )));
    }
    Ok(())
}

/// Appends the wire form of `req` to `out` (little-endian, bit-exact
/// `f32` words — `-0.0`, NaN payloads and subnormals survive).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(req.kind.code());
    out.push(algorithm_code(req.algorithm));
    out.extend_from_slice(&req.tenant.0.to_le_bytes());
    out.extend_from_slice(&req.id.to_le_bytes());
    out.extend_from_slice(&req.elements.to_le_bytes());
    out.extend_from_slice(&(req.words.len() as u32).to_le_bytes());
    out.extend_from_slice(&(req.bytes.len() as u32).to_le_bytes());
    push_words(out, &req.words);
    out.extend_from_slice(&req.bytes);
}

/// Decodes a request frame produced by [`encode_request`]. The whole
/// buffer must be one frame.
///
/// # Errors
///
/// Returns a [`FrameError`] on truncation, bad magic/version/codes, or
/// trailing bytes.
pub fn decode_request(buf: &[u8]) -> Result<Request, FrameError> {
    let mut c = Cursor { buf, pos: 0 };
    if c.u16()? != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind_code = c.u8()?;
    let kind = JobKind::from_code(kind_code).ok_or(FrameError::BadKind(kind_code))?;
    let alg_code = c.u8()?;
    let algorithm = algorithm_from_code(alg_code).ok_or(FrameError::BadAlgorithm(alg_code))?;
    let tenant = TenantId(c.u16()?);
    let id = c.u64()?;
    let elements = c.u32()?;
    let n_words = c.u32()? as usize;
    let n_bytes = c.u32()? as usize;
    let mut words = Vec::new();
    read_words(&mut c, n_words, &mut words)?;
    let bytes = c.take(n_bytes)?.to_vec();
    if c.pos != buf.len() {
        return Err(FrameError::TrailingBytes);
    }
    Ok(Request {
        tenant,
        id,
        algorithm,
        kind,
        words,
        bytes,
        elements,
    })
}

/// Appends the wire form of `resp` to `out`. Input-buffer fields (which
/// only exist for in-process recycling) are not part of the wire form.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(resp.kind.code());
    out.push(match &resp.error {
        None => 0,
        Some(_) => 1,
    });
    out.extend_from_slice(&resp.tenant.0.to_le_bytes());
    out.extend_from_slice(&resp.id.to_le_bytes());
    out.extend_from_slice(&resp.uncompressed_bytes.to_le_bytes());
    out.extend_from_slice(&resp.wire_bytes.to_le_bytes());
    out.extend_from_slice(&(resp.bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(resp.offsets.len() as u32).to_le_bytes());
    out.extend_from_slice(&(resp.words.len() as u32).to_le_bytes());
    out.extend_from_slice(&resp.bytes);
    for o in &resp.offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    push_words(out, &resp.words);
}

/// Decodes a response frame produced by [`encode_response`]. A decode
/// fault in the original response round-trips as a generic corrupt-stream
/// marker (the wire form carries a status bit, not the full error).
///
/// # Errors
///
/// Returns a [`FrameError`] on truncation, bad magic/version/codes, or
/// trailing bytes.
pub fn decode_response(buf: &[u8]) -> Result<Response, FrameError> {
    let mut c = Cursor { buf, pos: 0 };
    if c.u16()? != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind_code = c.u8()?;
    let kind = JobKind::from_code(kind_code).ok_or(FrameError::BadKind(kind_code))?;
    let status = c.u8()?;
    let tenant = TenantId(c.u16()?);
    let id = c.u64()?;
    let uncompressed_bytes = c.u64()?;
    let wire_bytes = c.u64()?;
    let n_bytes = c.u32()? as usize;
    let n_offsets = c.u32()? as usize;
    let n_words = c.u32()? as usize;
    let bytes = c.take(n_bytes)?.to_vec();
    let mut offsets = Vec::with_capacity(n_offsets);
    for _ in 0..n_offsets {
        offsets.push(c.u32()?);
    }
    let mut words = Vec::new();
    read_words(&mut c, n_words, &mut words)?;
    if c.pos != buf.len() {
        return Err(FrameError::TrailingBytes);
    }
    Ok(Response {
        tenant,
        id,
        kind,
        bytes,
        offsets,
        words,
        uncompressed_bytes,
        wire_bytes,
        error: (status != 0).then_some(DecodeError::Corrupt("remote decode fault")),
        input_words: Vec::new(),
        input_bytes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire codes are a cross-version protocol surface: a recorded
    /// frame must decode identically forever, so every code is pinned by
    /// value and the mapping must be collision-free and total over
    /// [`Algorithm::EXTENDED`]. Extending the enum may only append codes.
    #[test]
    fn algorithm_wire_codes_are_pinned_and_collision_free() {
        let pinned = [
            (Algorithm::Rle, 0u8),
            (Algorithm::Zvc, 1),
            (Algorithm::Zlib, 2),
            (Algorithm::Csc, 3),
            (Algorithm::Huff, 4),
            (Algorithm::Adaptive, 5),
        ];
        assert_eq!(
            pinned.len(),
            Algorithm::EXTENDED.len(),
            "every algorithm must have a pinned wire code"
        );
        let mut seen = std::collections::BTreeSet::new();
        for (alg, code) in pinned {
            assert!(Algorithm::EXTENDED.contains(&alg));
            assert_eq!(algorithm_code(alg), code, "{alg} wire code moved");
            assert_eq!(algorithm_from_code(code), Some(alg));
            assert!(seen.insert(code), "wire code {code} assigned twice");
        }
        assert_eq!(algorithm_from_code(pinned.len() as u8), None);
        assert_eq!(algorithm_from_code(u8::MAX), None);
    }

    #[test]
    fn request_frames_roundtrip() {
        let reqs = [
            Request::compress(
                TenantId(3),
                42,
                Algorithm::Zvc,
                vec![0.0, -0.0, 1.5, f32::NAN, f32::MIN_POSITIVE / 8.0],
            ),
            Request::decompress(TenantId(0), u64::MAX, Algorithm::Zlib, vec![1, 2, 3], 77),
            Request::compress(TenantId(u16::MAX), 0, Algorithm::Rle, Vec::new()),
        ];
        let mut wire = Vec::new();
        for req in reqs {
            wire.clear();
            encode_request(&req, &mut wire);
            let back = decode_request(&wire).unwrap();
            assert_eq!(back.tenant, req.tenant);
            assert_eq!(back.id, req.id);
            assert_eq!(back.kind, req.kind);
            assert_eq!(back.algorithm, req.algorithm);
            assert_eq!(back.bytes, req.bytes);
            assert_eq!(back.elements, req.elements);
            // Bit-exact word round-trip (NaN payloads included).
            assert_eq!(back.words.len(), req.words.len());
            for (a, b) in back.words.iter().zip(&req.words) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        let resp = Response {
            tenant: TenantId(9),
            id: 1234,
            kind: JobKind::Compress,
            bytes: vec![1, 2, 3, 4, 5],
            offsets: vec![0, 2, 5],
            words: vec![],
            uncompressed_bytes: 4096,
            wire_bytes: 5,
            error: None,
            input_words: vec![1.0; 8], // not on the wire
            input_bytes: vec![7; 3],   // not on the wire
        };
        let mut wire = Vec::new();
        encode_response(&resp, &mut wire);
        let back = decode_response(&wire).unwrap();
        assert_eq!(back.bytes, resp.bytes);
        assert_eq!(back.offsets, resp.offsets);
        assert_eq!(back.wire_bytes, 5);
        assert!(back.error.is_none());
        assert!(back.input_words.is_empty() && back.input_bytes.is_empty());
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let req = Request::compress(TenantId(1), 7, Algorithm::Zvc, vec![1.0, 0.0]);
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        // Truncation at every cut.
        for cut in 0..wire.len() {
            assert_eq!(decode_request(&wire[..cut]), Err(FrameError::Truncated));
        }
        // Trailing garbage.
        let mut long = wire.clone();
        long.push(0);
        assert_eq!(decode_request(&long), Err(FrameError::TrailingBytes));
        // Bad magic / version / kind / algorithm.
        let mut bad = wire.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_request(&bad), Err(FrameError::BadMagic));
        let mut bad = wire.clone();
        bad[2] = 9;
        assert_eq!(decode_request(&bad), Err(FrameError::BadVersion(9)));
        let mut bad = wire.clone();
        bad[3] = 7;
        assert_eq!(decode_request(&bad), Err(FrameError::BadKind(7)));
        let mut bad = wire;
        bad[4] = 6;
        assert_eq!(decode_request(&bad), Err(FrameError::BadAlgorithm(6)));
    }

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

    #[test]
    fn infer_frames_roundtrip() {
        let req = Request::infer(
            TenantId(5),
            99,
            Algorithm::Csc,
            vec![0.0, 2.5, -0.0, 1.0],
            1000,
        );
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        let back = decode_request(&wire).unwrap();
        assert_eq!(back.kind, JobKind::Infer);
        assert_eq!(back.algorithm, Algorithm::Csc);
        assert_eq!(back.elements, 1000);
        assert_eq!(back.words.len(), 4);
        for (a, b) in back.words.iter().zip(&req.words) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
