//! # cdma-compress — the codec family evaluated by the cDMA paper
//!
//! Section V of Rhu et al. (HPCA 2018) evaluates three candidate algorithms
//! for the compressing DMA engine:
//!
//! * [`Rle`] — **run-length encoding** of zero runs. Cheap hardware, but its
//!   effectiveness depends on zeros being *spatially clustered* in the byte
//!   stream, which makes it sensitive to the activation memory layout.
//! * [`Zvc`] — **zero-value compression** (the paper's choice, Fig. 8): every
//!   32 consecutive activation words become a 32-bit presence mask followed
//!   by the packed non-zero words. Compression is a pure function of the
//!   zero count, so it is completely layout-insensitive.
//! * [`Zlib`] — the paper's zlib upper bound, implemented as a fully
//!   RFC 1950/1951-interoperable DEFLATE coder: its streams decode with any
//!   standard zlib, and its inflater decodes any conforming producer's
//!   streams (stored, fixed- and dynamic-Huffman blocks). Too slow/complex
//!   for a 100 GB/s hardware engine; included to quantify what ZVC leaves
//!   on the table.
//!
//! Three more codecs extend the family beyond the paper's core three:
//!
//! * [`Csc`] — EIE-style compressed-sparse-column weight streams with
//!   4-bit relative indices and an automatic codebook mode — serves the
//!   inference extension (`cdma-infer`).
//! * [`Huff`] — ZVC presence masks with a canonical-Huffman-coded non-zero
//!   payload (Georgiadis 2018): entropy coding without an LZ77 window,
//!   recovering much of DEFLATE's ratio at a fraction of its hardware cost.
//! * [`Adaptive`] — a per-4 KB-window picker that probes each window's
//!   density and chooses RLE, ZVC or DEFLATE for it, at one tag byte per
//!   window ([`ADAPTIVE_PICKS`] maps tags to codecs).
//!
//! All six are wired through [`Algorithm::EXTENDED`], but only the paper's
//! three live in [`Algorithm::ALL`], so the paper-grid figures stay pinned
//! to the paper's candidates.
//!
//! All compressors implement [`Compressor`], operate on `f32` activation
//! words (the paper's data type), and are **lossless**: decode(encode(x))
//! == x bit-for-bit, which the test suite and property tests enforce.
//!
//! # The streaming API: `compress_into` / `decompress_into`
//!
//! The hardware engine sustains ~100 GB/s by never allocating: windows flow
//! through fixed staging buffers. The software mirror of that is the pair of
//! primitive trait methods [`Compressor::compress_into`] and
//! [`Compressor::decompress_into`], which write into a caller-owned `Vec`
//! (cleared, capacity kept). Use them whenever compression runs in a loop —
//! per-window, per-layer, per-training-step — so the allocator drops out of
//! the hot path. The allocating [`Compressor::compress`] /
//! [`Compressor::decompress`] remain as one-shot conveniences implemented on
//! top of the streaming primitives.
//!
//! Algorithm selection is statically dispatched through the [`Codec`] enum
//! ([`Algorithm::codec`]).
//!
//! # SIMD ZVC kernel tiers
//!
//! ZVC's mask+payload format exists because it maps to wide, branch-free
//! hardware (Fig. 8), and the software kernels exploit the same property
//! in explicit `std::arch` SIMD: vector compares fold a window's zero
//! tests into its presence mask one move-mask at a time, and payloads move
//! by lane compaction/expansion shuffles (AVX2/AVX-512/NEON) or bulk
//! contiguous-run copies (the portable word-at-a-time tier, which every
//! platform can run). The widest tier the CPU supports is selected once
//! per process — [`kernel_info`] reports which, [`Kernel`] and
//! [`KernelTier`] expose the dispatch table, and the `CDMA_ZVC_KERNEL`
//! environment variable forces a tier (the CI matrix runs the whole test
//! suite under each one). A scalar reference implementation is kept as a
//! test oracle; seeded property loops and the per-tier differential suite
//! pin every tier byte-identical to it, including on `-0.0`, NaN-payload,
//! and subnormal inputs. See [`Zvc`] for the format and kernel details,
//! and `bash benchmark/run.sh --workload offload_zvc --trace 1` for the
//! dispatched kernel's GB/s (`compress.zvc.*`) beside a plain copy of the
//! same buffers (`bench.memcpy_gbps`).
//!
//! The engine compresses data in fixed-size *windows* (4 KB in the paper's
//! evaluation, Section VII-A); [`windowed::WindowedStream`] reproduces that
//! accounting with all windows packed into one contiguous buffer, an O(1)
//! borrowed per-window size table, and an opt-in multi-threaded compression
//! path ([`windowed::WindowedStream::recompress_parallel`]) for multi-megabyte
//! activation maps.
//!
//! For callers that keep *many* buffers in flight at once (the
//! `cdma-serve` worker pool), [`pool::Pool`] provides the free-list that
//! extends the zero-allocation property from one reused buffer to a whole
//! serving steady state.
//!
//! ```
//! use cdma_compress::{Compressor, Zvc};
//!
//! // 60% zero-valued activations compress by ~2.4x under ZVC.
//! let data: Vec<f32> = (0..3200)
//!     .map(|i| if i % 5 < 3 { 0.0 } else { 1.0 + i as f32 })
//!     .collect();
//! let zvc = Zvc::new();
//!
//! // Streaming form: `bytes` and `back` are reused across iterations.
//! let mut bytes = Vec::new();
//! let mut back = Vec::new();
//! for _step in 0..3 {
//!     zvc.compress_into(&data, &mut bytes);
//!     assert!(bytes.len() < data.len() * 4 / 2);
//!     zvc.decompress_into(&bytes, data.len(), &mut back).unwrap();
//!     assert_eq!(back, data);
//! }
//! ```

#![deny(missing_docs)]

mod adaptive;
mod algorithm;
mod csc;
mod deflate;
mod error;
mod huff;
pub mod pool;
mod rle;
mod stats;
pub mod windowed;
mod zvc;

pub use adaptive::{Adaptive, PICKS as ADAPTIVE_PICKS, WINDOW_WORDS as ADAPTIVE_WINDOW_WORDS};
pub use algorithm::{Algorithm, Codec, Compressor};
pub use csc::{Csc, CscNonzeros};
pub use deflate::Zlib;
pub use error::DecodeError;
pub use huff::Huff;
pub use rle::Rle;
pub use stats::CompressionStats;
pub use zvc::{kernel_info, sector_mask, Kernel, KernelInfo, KernelTier, Zvc, ZVC_WINDOW_ELEMS};

#[doc(hidden)]
pub use zvc::scalar_reference;

/// Appends the little-endian `f32` words of `bytes` (a whole number of
/// words) to `vals`: one reservation, then straight writes. Where every
/// decoder that ends up with raw word bytes turns them into words.
pub(crate) fn extend_f32_le(vals: &mut Vec<f32>, bytes: &[u8]) {
    debug_assert_eq!(bytes.len() % 4, 0);
    vals.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
    );
}
