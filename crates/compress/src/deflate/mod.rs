//! Interoperable RFC 1950/1951 DEFLATE — the paper's software upper bound.
//!
//! The paper uses gzip's DEFLATE (Section V-A) as a *software upper
//! bound*: it compresses non-zero data too, but FPGA/ASIC implementations
//! top out around 2.5 GB/s, far below the 100s of GB/s a DMA engine
//! needs, so the paper's conclusion is that its extra ratio is not worth
//! the hardware. This module speaks the real wire format: [`Zlib`] emits
//! and parses RFC 1950 zlib containers (CMF/FLG header, Adler-32 trailer)
//! around RFC 1951 DEFLATE blocks — stored, fixed-Huffman and
//! dynamic-Huffman with the code-length alphabet — so streams round-trip
//! byte-for-byte against standard tooling in both directions.
//!
//! Module layout: [`bits`] is the LSB-first bit I/O layer (RFC 1951's
//! bit order, §3.1.1), [`huffman`] the shared code-length construction
//! (Huffman, package-merge under a binding limit), canonical codes and
//! the two-level decode tables, `lz77` the hash-chained match stage,
//! `encode`/`decode` the block encoder and the inflate state machine,
//! `adler` the container checksum.
//!
//! The engine compresses and decompresses in 4 KB DMA windows, so the
//! fixed cost per call is what throughput there comes down to. On the
//! way out, code construction works in stack arrays and the match tables
//! and token list are reused per thread (`encode`'s scratch); a block is
//! priced to the bit before it is written, so the output grows once and
//! the bit writer only stores; a run of one byte — every stretch of zero
//! words — enters the match tables without being hashed. On the way
//! back, decode tables and the inflated payload are per-thread too and a
//! coded block runs a check-free fast loop between its margins
//! (`decode`'s module docs). A warm call allocates nothing in either
//! direction. What a window costs on the way out (development container,
//! the benchmark's AlexNet activations): 27–29 µs, of which the match search
//! is 16, the token bits 3.3, the dynamic header's plan 2.2, the two
//! code-length constructions 2.0, the token histogram 1.7, canonical
//! codes 0.8 and Adler-32 0.6.

mod adler;
pub(crate) mod bits;
mod decode;
mod encode;
pub(crate) mod huffman;
mod lz77;
#[cfg(test)]
pub(crate) mod oracle;

use crate::{extend_f32_le, Compressor, DecodeError};

/// The order code-length-code lengths appear in a dynamic block header
/// (RFC 1951 §3.2.7).
pub(crate) const CLCODE_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// An RFC 1950/1951 zlib coder: 32 KB-window LZ77 feeding canonical
/// Huffman block coding, wrapped in the zlib container.
///
/// Unlike the self-contained codecs, the streams this coder produces are
/// plain zlib: any conforming implementation decodes them, and
/// [`Zlib::decompress_bytes`] decodes streams produced elsewhere (the
/// interop tests pin both directions against vendored fixtures).
///
/// ```
/// use cdma_compress::{Compressor, Zlib};
/// let zl = Zlib::new();
/// let data: Vec<f32> = (0..2048).map(|i| (i % 7) as f32).collect();
/// let bytes = zl.compress(&data);
/// assert!(bytes.len() < data.len() * 4, "repetitive data compresses well");
/// assert_eq!(zl.decompress(&bytes, data.len()).unwrap(), data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zlib {
    /// Maximum hash-chain positions inspected per match attempt. Higher
    /// values find better matches but compress slower (zlib's `level` knob).
    max_chain: usize,
}

impl Default for Zlib {
    fn default() -> Self {
        Zlib { max_chain: 64 }
    }
}

impl Zlib {
    /// Creates a coder with the default match effort (chain depth 64).
    pub fn new() -> Self {
        Zlib::default()
    }

    /// Creates a coder with a custom hash-chain search depth.
    ///
    /// # Panics
    ///
    /// Panics if `max_chain` is zero.
    pub fn with_chain_depth(max_chain: usize) -> Self {
        assert!(max_chain > 0, "chain depth must be at least 1");
        Zlib { max_chain }
    }

    /// Compresses raw bytes into a complete zlib (RFC 1950) stream.
    ///
    /// ```
    /// let zl = cdma_compress::Zlib::new();
    /// let stream = zl.compress_bytes(b"hello hello hello");
    /// assert_eq!(stream[0], 0x78, "standard zlib header");
    /// assert_eq!(zl.decompress_bytes(&stream).unwrap(), b"hello hello hello");
    /// ```
    pub fn compress_bytes(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode::compress(data, self.max_chain, &mut out);
        out
    }

    /// Decompresses one complete zlib stream — from this coder or any
    /// other RFC 1950/1951 implementation. Rejects trailing bytes after
    /// the Adler-32 trailer.
    pub fn decompress_bytes(&self, stream: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut out = Vec::new();
        let consumed = decode::inflate_into(stream, usize::MAX, &mut out)?;
        if consumed != stream.len() {
            return Err(DecodeError::Corrupt("trailing bytes after zlib stream"));
        }
        Ok(out)
    }
}

impl Compressor for Zlib {
    fn name(&self) -> &'static str {
        "ZL"
    }

    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        encode::compress_words(data, self.max_chain, out);
    }

    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        vals: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        let target = element_count * 4;
        decode::inflate_with(bytes, target, |payload, consumed| {
            if payload.len() != target {
                return Err(DecodeError::Truncated {
                    expected: element_count,
                    decoded: payload.len() / 4,
                });
            }
            extend_f32_le(vals, payload);
            Ok(consumed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32]) -> usize {
        let zl = Zlib::new();
        let bytes = zl.compress(data);
        let back = zl.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        bytes.len()
    }

    #[test]
    fn roundtrip_small_inputs() {
        roundtrip(&[]);
        roundtrip(&[1.0]);
        roundtrip(&[0.0, 0.0]);
        roundtrip(&[1.0, 2.0, 3.0]);
        roundtrip(&[-0.0, f32::MIN_POSITIVE, 3.4e38]);
    }

    #[test]
    fn streams_carry_the_zlib_container() {
        let zl = Zlib::new();
        for data in [&[][..], &[1.0f32; 7][..], &[0.0f32; 4096][..]] {
            let bytes = zl.compress(data);
            assert_eq!(bytes[0], 0x78, "CMF: deflate, 32K window");
            assert_eq!(
                (bytes[0] as u16 * 256 + bytes[1] as u16) % 31,
                0,
                "FCHECK holds"
            );
            assert!(bytes.len() >= 2 + 1 + 4, "header + data + adler trailer");
        }
    }

    #[test]
    fn zeros_compress_extremely_well() {
        let size = roundtrip(&vec![0.0f32; 4096]);
        // 16 KB of zeros should collapse to well under 1 KB.
        assert!(size < 512, "got {size}");
    }

    #[test]
    fn repetitive_nonzero_data_also_compresses() {
        let data: Vec<f32> = (0..4096).map(|i| ((i % 16) as f32) * 0.5).collect();
        let size = roundtrip(&data);
        assert!(
            size < data.len() * 4,
            "LZ should exploit the period-16 repetition, got {size}"
        );
    }

    #[test]
    fn incompressible_data_grows_only_modestly() {
        // Pseudo-random bits: Huffman/LZ can't win, but the stored-block
        // fallback caps the expansion at 5 bytes per 64 KB plus the
        // 6-byte container.
        let mut state = 0x12345678u64;
        let data: Vec<f32> = (0..2048)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                f32::from_bits((state >> 16) as u32 | 1)
            })
            .collect();
        let zl = Zlib::new();
        let bytes = zl.compress(&data);
        assert!(bytes.len() <= data.len() * 4 + 5 * (data.len() * 4 / 65535 + 1) + 6);
        // Compare bit patterns: random bits can form NaN, which is != NaN.
        let back = zl.decompress(&bytes, data.len()).unwrap();
        for (a, b) in back.iter().zip(&data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sparse_activations_beat_zvc_slightly() {
        // 70% zeros with structured non-zeros: zlib should reach at least
        // the ZVC ratio (it compresses the non-zero side too).
        let data: Vec<f32> = (0..8192)
            .map(|i| {
                if (i * 2654435761usize) % 10 < 7 {
                    0.0
                } else {
                    ((i % 32) as f32) + 1.0
                }
            })
            .collect();
        let zl_size = Zlib::new().compress(&data).len();
        let zv_size = crate::Zvc::new().compress(&data).len();
        assert!(
            zl_size <= zv_size,
            "zlib {zl_size} should be <= zvc {zv_size} on structured data"
        );
    }

    #[test]
    fn mixed_match_lengths_roundtrip() {
        // Exercises every length bin including the 258 special case.
        let mut data = Vec::new();
        for run in [3usize, 4, 10, 11, 18, 35, 70, 130, 250, 258, 300] {
            for k in 0..run {
                data.push((run + k % 3) as f32);
            }
            data.push(-(run as f32));
        }
        roundtrip(&data);
    }

    #[test]
    fn multi_block_stored_streams_roundtrip() {
        // > 65535 bytes of incompressible data forces several stored
        // blocks in one stream.
        let mut state = 0x9E3779B97F4A7C15u64;
        let data: Vec<f32> = (0..20_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f32::from_bits((state >> 32) as u32 | 1)
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn byte_api_roundtrips_arbitrary_lengths() {
        let zl = Zlib::new();
        for n in [0usize, 1, 2, 3, 7, 255, 256, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 131) as u8).collect();
            let stream = zl.compress_bytes(&data);
            assert_eq!(zl.decompress_bytes(&stream).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let zl = Zlib::new();
        let good = zl.compress(&[1.0f32; 64]);
        // Truncations at various points must return Err, never panic.
        for cut in [0, 10, good.len() / 2, good.len().saturating_sub(1)] {
            assert!(zl.decompress(&good[..cut], 64).is_err());
        }
        // Bit flips likewise (the adler trailer catches what the block
        // structure does not).
        for flip in 0..good.len().min(32) {
            let mut bad = good.clone();
            bad[flip] ^= 0x55;
            let _ = zl.decompress(&bad, 64);
        }
    }

    #[test]
    fn wrong_trailer_is_a_checksum_error() {
        let zl = Zlib::new();
        let mut bytes = zl.compress(&[1.0f32, 2.0, 3.0, 4.0]);
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            zl.decompress(&bytes, 4),
            Err(DecodeError::Corrupt("adler-32 checksum mismatch"))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let zl = Zlib::new();
        let mut bytes = zl.compress(&[1.0f32; 16]);
        bytes.extend_from_slice(&[0xDE, 0xAD]);
        assert!(matches!(
            zl.decompress(&bytes, 16),
            Err(DecodeError::TrailingData { expected: 16 })
        ));
        let stream = zl.compress_bytes(b"abc");
        let mut with_junk = stream.clone();
        with_junk.push(0);
        assert!(zl.decompress_bytes(&with_junk).is_err());
    }

    #[test]
    fn preset_dictionary_is_rejected() {
        // CMF 0x78 with FDICT set; FCHECK adjusted so the header passes.
        let mut stream = vec![0x78u8, 0x20];
        let check = (0x78u16 * 256 + stream[1] as u16) % 31;
        stream[1] += (31 - check as u8) % 31;
        stream.extend_from_slice(&[0; 8]);
        assert!(matches!(
            Zlib::new().decompress_bytes(&stream),
            Err(DecodeError::Corrupt("preset dictionary unsupported"))
        ));
    }

    #[test]
    fn chain_depth_trades_ratio() {
        let data: Vec<f32> = (0..8192).map(|i| ((i * i) % 97) as f32).collect();
        let shallow = Zlib::with_chain_depth(1).compress(&data).len();
        let deep = Zlib::with_chain_depth(256).compress(&data).len();
        assert!(deep <= shallow);
        // Both must still round-trip.
        let zl = Zlib::with_chain_depth(1);
        assert_eq!(
            zl.decompress(&zl.compress(&data), data.len()).unwrap(),
            data
        );
    }
}
