use std::fmt;

use crate::{Adaptive, Csc, DecodeError, Huff, Rle, Zlib, Zvc};

/// A lossless activation-map compressor, as evaluated in Section V of the
/// cDMA paper.
///
/// Implementations operate on 32-bit activation words (`f32`) because that is
/// the data type of the offloaded activation maps; losslessness is bit-exact
/// (`-0.0`, denormals and NaN payloads survive).
///
/// # Streaming vs convenience API
///
/// Three tiers, fastest first:
///
/// 1. [`compress_append`](Compressor::compress_append) /
///    [`decompress_append`](Compressor::decompress_append) — append to a
///    caller-owned buffer without clearing it, so the windowed packer lays
///    thousands of 4 KB windows back to back with zero copies.
/// 2. [`compress_into`](Compressor::compress_into) /
///    [`decompress_into`](Compressor::decompress_into) — clear-and-reuse a
///    buffer; the right call in any hot loop (per window, per layer, per
///    training step): one allocation total instead of one per call.
/// 3. [`compress`](Compressor::compress) /
///    [`decompress`](Compressor::decompress) — one-shot conveniences that
///    allocate a fresh buffer per call.
///
/// # The decoder contract
///
/// Every stream is self-delimiting: given the element count, a decoder
/// knows where its stream ends. [`decompress_prefix`](Compressor::decompress_prefix)
/// is the one decode primitive a codec writes — it decodes from the front
/// of its input and reports how many bytes the stream used — and every
/// other decode method is built on it here, so the rule that a whole-input
/// decode rejects bytes after the stream is stated once, in
/// [`decompress_append`](Compressor::decompress_append). Framings that lay
/// streams back to back ([`Adaptive`]) find each stream's end by decoding
/// it.
pub trait Compressor {
    /// Two-letter name used in the paper's figures: `RL`, `ZV`, `ZL`, `CS`,
    /// `HF` or `AD`.
    fn name(&self) -> &'static str;

    /// Compresses `data` and appends the self-contained byte stream to
    /// `out` **without clearing it** — the innermost primitive, which lets
    /// the windowed packer lay many windows back to back in one contiguous
    /// buffer with no intermediate copy.
    ///
    /// Most callers want [`compress_into`](Compressor::compress_into)
    /// (clears first, so a dirty buffer is safe to reuse).
    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>);

    /// Decodes the stream of `element_count` words at the front of
    /// `bytes`, appending the words to `out` **without clearing it**, and
    /// returns how many bytes of `bytes` the stream used. Bytes after the
    /// stream are neither read as words nor an error here.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is truncated, corrupt, or
    /// disagrees with `element_count`; `out` may hold a partial decode on
    /// error.
    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize, DecodeError>;

    /// Decompresses a stream produced by
    /// [`compress_append`](Compressor::compress_append) that fills all of
    /// `bytes`, appending the recovered words to `out` **without clearing
    /// it**.
    ///
    /// `element_count` is the number of `f32` words originally compressed;
    /// like a real DMA descriptor, the transfer length is metadata carried
    /// outside the compressed payload. Most callers want
    /// [`decompress_into`](Compressor::decompress_into).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is truncated, corrupt, or
    /// disagrees with `element_count`, and
    /// [`DecodeError::TrailingData`] if bytes follow the stream; `out` may
    /// hold a partial decode on error.
    fn decompress_append(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        let consumed = self.decompress_prefix(bytes, element_count, out)?;
        if consumed != bytes.len() {
            return Err(DecodeError::TrailingData {
                expected: element_count,
            });
        }
        Ok(())
    }

    /// Compresses `data` into `out` after clearing it.
    ///
    /// `out`'s previous contents are irrelevant — a dirty buffer is safe to
    /// reuse — but its capacity is kept, so repeated calls on same-sized
    /// inputs perform no allocation after the first.
    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) {
        out.clear();
        self.compress_append(data, out);
    }

    /// Decompresses a stream into `out` after clearing it, reusing `out`'s
    /// capacity like [`compress_into`](Compressor::compress_into); on error
    /// `out`'s contents are unspecified.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is truncated, corrupt, or
    /// disagrees with `element_count`.
    fn decompress_into(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        out.clear();
        self.decompress_append(bytes, element_count, out)
    }

    /// Compresses `data` into a freshly-allocated byte stream.
    ///
    /// Convenience wrapper over
    /// [`compress_into`](Compressor::compress_into).
    fn compress(&self, data: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }

    /// Decompresses a stream into a freshly-allocated vector.
    ///
    /// Convenience wrapper over
    /// [`decompress_into`](Compressor::decompress_into).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is truncated, corrupt, or
    /// disagrees with `element_count`.
    fn decompress(&self, bytes: &[u8], element_count: usize) -> Result<Vec<f32>, DecodeError> {
        let mut out = Vec::new();
        self.decompress_into(bytes, element_count, &mut out)?;
        Ok(out)
    }

    /// Compressed size in bytes without keeping the stream. The default
    /// materializes the compressed buffer; codecs with an analytic size
    /// (RLE, ZVC, CSC) override this.
    fn compressed_size(&self, data: &[f32]) -> usize {
        self.compress(data).len()
    }

    /// Achieved compression ratio on `data` (uncompressed / compressed).
    /// An incompressible input yields a ratio below 1.0 (format overhead).
    fn ratio(&self, data: &[f32]) -> f64 {
        if data.is_empty() {
            return 1.0;
        }
        (data.len() * 4) as f64 / self.compressed_size(data) as f64
    }
}

/// Statically-dispatched codec: the six algorithms behind one concrete
/// type, so selecting an algorithm at runtime does not force a heap
/// allocation or vtable indirection per call site.
///
/// `Codec` implements [`Compressor`] by delegation; use
/// [`Algorithm::codec`] to obtain one.
///
/// ```
/// use cdma_compress::{Algorithm, Codec, Compressor};
///
/// // Pick the codec at runtime, dispatch statically per call.
/// let codec: Codec = Algorithm::Zvc.codec();
/// assert_eq!(codec.algorithm(), Algorithm::Zvc);
///
/// let activations = [0.0f32, 0.0, 1.5, 0.0, -2.5, 0.0, 0.0, 0.0];
/// let mut wire = Vec::new();
/// codec.compress_into(&activations, &mut wire);
/// assert_eq!(wire.len(), 4 + 2 * 4); // one mask + two non-zero words
///
/// let mut back = Vec::new();
/// codec.decompress_into(&wire, activations.len(), &mut back).unwrap();
/// assert_eq!(back, activations);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Run-length encoding.
    Rle(Rle),
    /// Zero-value compression.
    Zvc(Zvc),
    /// DEFLATE-style coder.
    Zlib(Zlib),
    /// Compressed-sparse-column weight streams (the EIE-style inference
    /// extension; not part of the paper's three candidates).
    Csc(Csc),
    /// ZVC masks + Huffman-coded non-zero payload.
    Huff(Huff),
    /// Per-window adaptive RLE/ZVC/DEFLATE picker.
    Adaptive(Adaptive),
}

impl Codec {
    /// The algorithm this codec implements.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Codec::Rle(_) => Algorithm::Rle,
            Codec::Zvc(_) => Algorithm::Zvc,
            Codec::Zlib(_) => Algorithm::Zlib,
            Codec::Csc(_) => Algorithm::Csc,
            Codec::Huff(_) => Algorithm::Huff,
            Codec::Adaptive(_) => Algorithm::Adaptive,
        }
    }
}

impl Compressor for Codec {
    fn name(&self) -> &'static str {
        match self {
            Codec::Rle(c) => c.name(),
            Codec::Zvc(c) => c.name(),
            Codec::Zlib(c) => c.name(),
            Codec::Csc(c) => c.name(),
            Codec::Huff(c) => c.name(),
            Codec::Adaptive(c) => c.name(),
        }
    }

    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        match self {
            Codec::Rle(c) => c.compress_append(data, out),
            Codec::Zvc(c) => c.compress_append(data, out),
            Codec::Zlib(c) => c.compress_append(data, out),
            Codec::Csc(c) => c.compress_append(data, out),
            Codec::Huff(c) => c.compress_append(data, out),
            Codec::Adaptive(c) => c.compress_append(data, out),
        }
    }

    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        match self {
            Codec::Rle(c) => c.decompress_prefix(bytes, element_count, out),
            Codec::Zvc(c) => c.decompress_prefix(bytes, element_count, out),
            Codec::Zlib(c) => c.decompress_prefix(bytes, element_count, out),
            Codec::Csc(c) => c.decompress_prefix(bytes, element_count, out),
            Codec::Huff(c) => c.decompress_prefix(bytes, element_count, out),
            Codec::Adaptive(c) => c.decompress_prefix(bytes, element_count, out),
        }
    }

    fn compressed_size(&self, data: &[f32]) -> usize {
        match self {
            Codec::Rle(c) => c.compressed_size(data),
            Codec::Zvc(c) => c.compressed_size(data),
            Codec::Zlib(c) => c.compressed_size(data),
            Codec::Csc(c) => c.compressed_size(data),
            Codec::Huff(c) => c.compressed_size(data),
            Codec::Adaptive(c) => c.compressed_size(data),
        }
    }
}

/// Algorithm selector covering the paper's three candidates
/// ([`Algorithm::ALL`]) and the three extension codecs
/// ([`Algorithm::EXTENDED`]).
///
/// ```
/// use cdma_compress::{Algorithm, Compressor};
/// let data = vec![0.0f32; 64];
/// let mut bytes = Vec::new();
/// let mut back = Vec::new();
/// for alg in Algorithm::ALL {
///     let codec = alg.codec(); // static dispatch, no allocation
///     codec.compress_into(&data, &mut bytes);
///     codec.decompress_into(&bytes, 64, &mut back).unwrap();
///     assert_eq!(back, data);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// Run-length encoding of zero runs.
    Rle,
    /// Zero-value compression (the paper's hardware choice).
    Zvc,
    /// DEFLATE-style LZ77 + Huffman (software upper bound).
    Zlib,
    /// Compressed-sparse-column weight streams with 4-bit relative
    /// indices and an automatic codebook mode (EIE-style; added by the
    /// inference extension, not one of the paper's three candidates).
    Csc,
    /// ZVC presence masks with a Huffman-coded non-zero payload
    /// (Georgiadis 2018) — entropy coding without an LZ77 window.
    Huff,
    /// Per-4 KB-window adaptive picker: a density probe chooses RLE, ZVC
    /// or DEFLATE for each window, at one tag byte per window.
    Adaptive,
}

impl Algorithm {
    /// The three algorithms in the order the paper's figures show them.
    /// [`Algorithm::Csc`] is deliberately *not* here: the paper-grid
    /// sweeps, ratio table and golden figures stay pinned to the paper's
    /// candidates, and inference experiments opt into CSC via
    /// [`Algorithm::EXTENDED`].
    pub const ALL: [Algorithm; 3] = [Algorithm::Rle, Algorithm::Zvc, Algorithm::Zlib];

    /// Every algorithm including the extension codecs — for ratio
    /// comparisons that want the full family next to the paper's three.
    /// The prefix order is pinned: the paper's three first, then CSC, then
    /// the entropy/adaptive extensions.
    pub const EXTENDED: [Algorithm; 6] = [
        Algorithm::Rle,
        Algorithm::Zvc,
        Algorithm::Zlib,
        Algorithm::Csc,
        Algorithm::Huff,
        Algorithm::Adaptive,
    ];

    /// The activation-map codecs: the paper's three plus the entropy-coded
    /// and adaptive extensions, excluding the weight-only CSC format.
    pub const ACTIVATION: [Algorithm; 5] = [
        Algorithm::Rle,
        Algorithm::Zvc,
        Algorithm::Zlib,
        Algorithm::Huff,
        Algorithm::Adaptive,
    ];

    /// Instantiates the statically-dispatched codec for this algorithm.
    pub fn codec(&self) -> Codec {
        match self {
            Algorithm::Rle => Codec::Rle(Rle::new()),
            Algorithm::Zvc => Codec::Zvc(Zvc::new()),
            Algorithm::Zlib => Codec::Zlib(Zlib::new()),
            Algorithm::Csc => Codec::Csc(Csc::new()),
            Algorithm::Huff => Codec::Huff(Huff::new()),
            Algorithm::Adaptive => Codec::Adaptive(Adaptive::new()),
        }
    }

    /// Two-letter figure label (`RL`, `ZV`, `ZL`, `CS`, `HF`, `AD`).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Rle => "RL",
            Algorithm::Zvc => "ZV",
            Algorithm::Zlib => "ZL",
            Algorithm::Csc => "CS",
            Algorithm::Huff => "HF",
            Algorithm::Adaptive => "AD",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_adds_csc_behind_the_paper_grid() {
        assert_eq!(Algorithm::EXTENDED[..3], Algorithm::ALL);
        assert_eq!(Algorithm::EXTENDED[3], Algorithm::Csc);
        assert_eq!(Algorithm::EXTENDED[4], Algorithm::Huff);
        assert_eq!(Algorithm::EXTENDED[5], Algorithm::Adaptive);
        assert!(!Algorithm::ALL.contains(&Algorithm::Csc));
        assert!(!Algorithm::ACTIVATION.contains(&Algorithm::Csc));
        assert_eq!(Algorithm::ACTIVATION[..3], Algorithm::ALL);
        let data: Vec<f32> = (0..512)
            .map(|i| if i % 8 == 0 { i as f32 + 0.5 } else { 0.0 })
            .collect();
        for alg in Algorithm::EXTENDED {
            let codec = alg.codec();
            assert_eq!(codec.algorithm(), alg);
            let bytes = codec.compress(&data);
            assert_eq!(codec.decompress(&bytes, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn labels_match_codec_names() {
        for alg in Algorithm::EXTENDED {
            assert_eq!(alg.label(), alg.codec().name());
            assert_eq!(alg.to_string(), alg.label());
            assert_eq!(alg.codec().algorithm(), alg);
        }
    }

    #[test]
    fn ratio_of_empty_input_is_one() {
        for alg in Algorithm::ALL {
            assert_eq!(alg.codec().ratio(&[]), 1.0);
        }
    }

    #[test]
    fn all_algorithms_roundtrip_sparse_data() {
        let data: Vec<f32> = (0..512)
            .map(|i| if i % 3 == 0 { (i as f32) * 0.25 } else { 0.0 })
            .collect();
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let bytes = codec.compress(&data);
            assert_eq!(
                codec.decompress(&bytes, data.len()).unwrap(),
                data,
                "{alg} failed roundtrip"
            );
            assert!(codec.ratio(&data) > 1.0, "{alg} should compress 66% zeros");
        }
    }

    #[test]
    fn default_compressed_size_matches_compress() {
        // Zero and literal runs on either side of RLE's 128-word record,
        // back to back and alone (the fuzz suite runs its corpus too).
        let mut shapes = vec![vec![1.0f32; 100]];
        for run in [1usize, 127, 128, 129, 256, 257] {
            shapes.push(vec![0.0; run]);
            shapes.push(vec![2.5; run]);
            let mut mixed = vec![0.0; run];
            mixed.extend(std::iter::repeat_n(-0.0, run + 1));
            mixed.extend(std::iter::repeat_n(0.0, 3));
            shapes.push(mixed);
        }
        for alg in Algorithm::EXTENDED {
            let codec = alg.codec();
            for data in &shapes {
                let size = codec.compressed_size(data);
                assert_eq!(
                    size,
                    codec.compress(data).len(),
                    "{alg}, {} words",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn into_variants_clear_dirty_buffers() {
        let data = vec![0.0f32, 1.0, 0.0, 2.0];
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let mut bytes = vec![0xAB; 37]; // dirty
            codec.compress_into(&data, &mut bytes);
            assert_eq!(bytes, codec.compress(&data), "{alg}");
            let mut back = vec![9.0f32; 5]; // dirty
            codec
                .decompress_into(&bytes, data.len(), &mut back)
                .unwrap();
            assert_eq!(back, data, "{alg}");
        }
    }
}
