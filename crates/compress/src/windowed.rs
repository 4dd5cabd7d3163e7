//! Fixed-size compression windows, matching the paper's evaluation setup.
//!
//! Section VII-A: *"the results presented in this section assume a 4 KB
//! compression window; we also studied window sizes of up to 64 KB and found
//! that our results did not change much."* A hardware engine cannot buffer an
//! entire multi-megabyte activation map before emitting output, so each
//! window is compressed independently: RLE runs and LZ77 matches cannot span
//! a window boundary. ZVC (32-element granularity) is unaffected as long as
//! the window is a multiple of 128 bytes.
//!
//! # Storage layout
//!
//! A [`WindowedStream`] stores all window payloads back-to-back in **one
//! contiguous byte buffer** plus a window-offset table — the software analogue
//! of the DMA staging buffer, and one allocation per offload instead of one
//! per 4 KB window. Per-window views ([`WindowedStream::window`],
//! [`WindowedStream::window_sizes`]) borrow from that buffer; nothing is
//! cloned on query.
//!
//! Window payloads are produced by [`Compressor::compress_append`]
//! straight into the contiguous buffer, so ZVC windows go through the
//! SIMD kernel tiers (see [`crate::Zvc`]) with no per-window
//! allocation — sequentially, or split over scoped threads by
//! [`WindowedStream::recompress_parallel`] with bit-identical output
//! (windows are compressed independently either way).

use std::panic::resume_unwind;

use crate::{CompressionStats, Compressor, DecodeError};

/// The paper's default window: 4 KB = 1024 activation words.
pub const DEFAULT_WINDOW_BYTES: usize = 4 * 1024;

/// Inputs below this size are not worth spreading across threads:
/// spawning and joining them rivals the compression time itself.
const PARALLEL_MIN_BYTES: usize = 1 << 20;

fn assert_window(window_bytes: usize) {
    assert!(
        window_bytes >= 4 && window_bytes.is_multiple_of(4),
        "window must be a positive multiple of 4 bytes, got {window_bytes}"
    );
}

/// Compresses `data` in independent windows of `window_bytes` and returns
/// the aggregate byte accounting.
///
/// Uses [`Compressor::compressed_size`], so codecs with an analytic size
/// (ZVC) never materialize a stream.
///
/// # Panics
///
/// Panics if `window_bytes` is not a positive multiple of 4 (whole `f32`
/// words).
pub fn compress_stats<C: Compressor + ?Sized>(
    codec: &C,
    data: &[f32],
    window_bytes: usize,
) -> CompressionStats {
    assert_window(window_bytes);
    let window_elems = window_bytes / 4;
    let mut compressed = 0u64;
    for chunk in data.chunks(window_elems) {
        compressed += codec.compressed_size(chunk) as u64;
    }
    CompressionStats::new((data.len() * 4) as u64, compressed)
}

/// Compresses `data` in `window_elems`-word windows appended straight to
/// `bytes`, pushing the stream position after each window (and once up
/// front) onto `offsets` — the `u32` offset-table convention of a
/// `cdma-serve` response, whose exec path is the main caller. Windows
/// go through [`Compressor::compress_append`], so ZVC lands in the SIMD
/// kernel tiers with no per-window allocation.
///
/// # Panics
///
/// Panics if `window_elems` is zero.
pub fn append_windows<C: Compressor + ?Sized>(
    codec: &C,
    data: &[f32],
    window_elems: usize,
    bytes: &mut Vec<u8>,
    offsets: &mut Vec<u32>,
) {
    assert!(window_elems > 0, "window_elems must be positive");
    offsets.push(bytes.len() as u32);
    for chunk in data.chunks(window_elems) {
        codec.compress_append(chunk, bytes);
        offsets.push(bytes.len() as u32);
    }
}

/// A windowed compressed stream that can be decompressed again (the
/// offload/prefetch round-trip of the DMA engine).
///
/// All window payloads live in one contiguous buffer; `offsets[i]` is the
/// byte position where window `i` starts (with a final sentinel entry at the
/// total length), so window slicing and size queries are O(1) borrows.
#[derive(Debug, Clone)]
pub struct WindowedStream {
    /// All compressed payloads, back to back.
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i + 1]` is window `i`; length `window_count + 1`.
    offsets: Vec<usize>,
    /// Elements per full window.
    window_elems: usize,
    /// Total elements across all windows.
    element_count: usize,
}

impl Default for WindowedStream {
    /// An empty stream (zero windows, zero elements) — typically a seed for
    /// [`WindowedStream::recompress`]. The offset table keeps its
    /// `window_count + 1` sentinel invariant even when empty.
    fn default() -> Self {
        WindowedStream {
            bytes: Vec::new(),
            offsets: vec![0],
            window_elems: 0,
            element_count: 0,
        }
    }
}

impl WindowedStream {
    /// Compresses `data` into independent windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_bytes` is not a positive multiple of 4.
    pub fn compress<C: Compressor + ?Sized>(codec: &C, data: &[f32], window_bytes: usize) -> Self {
        let mut stream = WindowedStream::default();
        stream.recompress(codec, data, window_bytes);
        stream
    }

    /// Compresses `data` into this stream, reusing its byte buffer and
    /// offset table — zero allocation when recycled across equally-sized
    /// offloads (e.g. successive training steps of one layer).
    ///
    /// # Panics
    ///
    /// Panics if `window_bytes` is not a positive multiple of 4.
    pub fn recompress<C: Compressor + ?Sized>(
        &mut self,
        codec: &C,
        data: &[f32],
        window_bytes: usize,
    ) {
        assert_window(window_bytes);
        let window_elems = window_bytes / 4;
        self.window_elems = window_elems;
        self.element_count = data.len();
        self.bytes.clear();
        self.offsets.clear();
        self.offsets.push(0);
        // One up-front worst-case reservation (9/8 zlib expansion plus a
        // per-window header constant) so the contiguous buffer never
        // reallocates mid-stream — the software analogue of the engine's
        // worst-case-sized staging buffer. Untouched reserve is cheap
        // (lazily-committed pages), and a recycled stream skips it.
        let window_count = data.len().div_ceil(window_elems.max(1));
        self.bytes
            .reserve(data.len() * 4 + data.len() / 2 + window_count * 160);
        for chunk in data.chunks(window_elems) {
            // Appending straight into the contiguous buffer: no per-window
            // allocation and no intermediate copy.
            codec.compress_append(chunk, &mut self.bytes);
            self.offsets.push(self.bytes.len());
        }
    }

    /// Parallel counterpart of [`WindowedStream::recompress`] — the
    /// opt-in path for multi-megabyte activation maps. `data` is split
    /// into at most `threads` contiguous runs of whole windows (`0` means
    /// one per available core); this thread compresses the first run in
    /// place while scoped threads compress the others, and their bytes
    /// and rebased offsets are appended in order, reusing this stream's
    /// buffers. No thread outlives the call.
    ///
    /// Falls back to [`WindowedStream::recompress`] when that leaves one
    /// thread, when the input is too small to amortize the spawns
    /// (< 1 MB), or when it spans a single window. The stream is
    /// bit-identical either way; only wall-clock time changes.
    ///
    /// # Panics
    ///
    /// Panics if `window_bytes` is not a positive multiple of 4, or to
    /// re-raise a codec panic from one of the threads.
    pub fn recompress_parallel<C: Compressor + Sync + ?Sized>(
        &mut self,
        codec: &C,
        data: &[f32],
        window_bytes: usize,
        threads: usize,
    ) {
        assert_window(window_bytes);
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let window_elems = window_bytes / 4;
        let window_count = data.len().div_ceil(window_elems);
        if threads <= 1 || data.len() * 4 < PARALLEL_MIN_BYTES || window_count <= 1 {
            self.recompress(codec, data, window_bytes);
            return;
        }
        let (head, tail) = data.split_at(window_count.div_ceil(threads) * window_elems);
        let shards: Vec<WindowedStream> = std::thread::scope(|scope| {
            let spawned: Vec<_> = tail
                .chunks(head.len())
                .map(|run| scope.spawn(move || WindowedStream::compress(codec, run, window_bytes)))
                .collect();
            self.recompress(codec, head, window_bytes);
            spawned
                .into_iter()
                .map(|shard| shard.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        });
        self.element_count = data.len();
        for shard in &shards {
            let base = self.bytes.len();
            self.bytes.extend_from_slice(&shard.bytes);
            self.offsets
                .extend(shard.offsets[1..].iter().map(|end| base + end));
        }
    }

    /// Total compressed payload bytes (what crosses PCIe).
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The whole compressed stream as one contiguous byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of windows.
    // pub: the window count proptest_compress.rs holds to the stream length
    pub fn window_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The compressed payload of window `index`, borrowed from the stream.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn window(&self, index: usize) -> &[u8] {
        &self.bytes[self.offsets[index]..self.offsets[index + 1]]
    }

    /// Iterates over the compressed windows, borrowed from the stream.
    pub fn windows(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0]..w[1]])
    }

    /// Per-window compressed sizes, for burst-level bandwidth modelling.
    /// A borrowed iterator — nothing is allocated or cloned per query.
    pub fn window_sizes(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Number of `f32` words in window `index` before compression (the final
    /// window may be partial).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn window_elements(&self, index: usize) -> usize {
        assert!(index < self.window_count(), "window {index} out of range");
        (self.element_count - index * self.window_elems).min(self.window_elems)
    }

    /// Total elements across all windows.
    pub fn element_count(&self) -> usize {
        self.element_count
    }

    /// Aggregate accounting for this stream.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::new(
            (self.element_count * 4) as u64,
            self.compressed_bytes() as u64,
        )
    }

    /// Decompresses the full stream into a freshly-allocated vector.
    ///
    /// # Errors
    ///
    /// Propagates any window's [`DecodeError`].
    pub fn decompress<C: Compressor + ?Sized>(&self, codec: &C) -> Result<Vec<f32>, DecodeError> {
        let mut out = Vec::new();
        self.decompress_into(codec, &mut out)?;
        Ok(out)
    }

    /// Decompresses the full stream into a caller-owned buffer (cleared
    /// first), so prefetches across layers reuse one allocation.
    ///
    /// # Errors
    ///
    /// Propagates any window's [`DecodeError`]; `out` is left in an
    /// unspecified state on error.
    pub fn decompress_into<C: Compressor + ?Sized>(
        &self,
        codec: &C,
        out: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        out.clear();
        out.reserve(self.element_count);
        for (i, window) in self.windows().enumerate() {
            codec.decompress_append(window, self.window_elements(i), out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Zvc};

    fn sparse_data(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if (i * 2654435761usize) % 10 < 6 {
                    0.0
                } else {
                    (i % 251) as f32 + 0.5
                }
            })
            .collect()
    }

    fn parallel<C: Compressor + Sync>(codec: &C, data: &[f32], threads: usize) -> WindowedStream {
        let mut stream = WindowedStream::default();
        stream.recompress_parallel(codec, data, 4096, threads);
        stream
    }

    #[test]
    fn windowed_roundtrip_all_algorithms() {
        let data = sparse_data(5000); // not a multiple of the window
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let stream = WindowedStream::compress(&codec, &data, DEFAULT_WINDOW_BYTES);
            assert_eq!(stream.window_count(), 5); // ceil(5000/1024)
            let back = stream.decompress(&codec).unwrap();
            assert_eq!(back, data, "{alg}");
        }
    }

    #[test]
    fn stream_is_contiguous_and_offsets_cover_it() {
        let data = sparse_data(3000);
        let zvc = Zvc::new();
        let stream = WindowedStream::compress(&zvc, &data, 4096);
        assert_eq!(
            stream.window_sizes().sum::<usize>(),
            stream.compressed_bytes()
        );
        assert_eq!(
            stream.windows().map(<[u8]>::len).sum::<usize>(),
            stream.as_bytes().len()
        );
        // Each window slice is the matching segment of the full stream.
        let mut pos = 0;
        for w in stream.windows() {
            assert_eq!(w, &stream.as_bytes()[pos..pos + w.len()]);
            pos += w.len();
        }
    }

    #[test]
    fn windows_match_independent_compression() {
        let data = sparse_data(4096 + 100);
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let stream = WindowedStream::compress(&codec, &data, 4096);
            for (i, w) in stream.windows().enumerate() {
                let start = i * 1024;
                let end = (start + 1024).min(data.len());
                assert_eq!(w, codec.compress(&data[start..end]), "{alg} window {i}");
            }
        }
    }

    #[test]
    fn recompress_reuses_buffers() {
        let zvc = Zvc::new();
        let mut stream = WindowedStream::compress(&zvc, &sparse_data(8192), 4096);
        let cap_bytes = stream.bytes.capacity();
        let cap_offsets = stream.offsets.capacity();
        stream.recompress(&zvc, &sparse_data(8192), 4096);
        assert_eq!(stream.bytes.capacity(), cap_bytes);
        assert_eq!(stream.offsets.capacity(), cap_offsets);
        assert_eq!(stream.decompress(&zvc).unwrap(), sparse_data(8192));
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // Above the 1 MB threshold so the parallel path actually engages.
        let data = sparse_data(300_000);
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let seq = WindowedStream::compress(&codec, &data, 4096);
            for threads in [2, 3, 8] {
                let par = parallel(&codec, &data, threads);
                assert_eq!(par.as_bytes(), seq.as_bytes(), "{alg} x{threads}");
                assert_eq!(
                    par.offsets, seq.offsets,
                    "{alg} x{threads} offset tables differ"
                );
                assert_eq!(par.decompress(&codec).unwrap(), data);
            }
        }
    }

    #[test]
    fn parallel_small_input_falls_back_to_sequential() {
        let data = sparse_data(2000); // < 1 MB
        let zvc = Zvc::new();
        let par = parallel(&zvc, &data, 8);
        let seq = WindowedStream::compress(&zvc, &data, 4096);
        assert_eq!(par.as_bytes(), seq.as_bytes());
    }

    #[test]
    fn zero_threads_means_auto_and_matches_sequential() {
        // 0 = one thread per available core; whatever that resolves to,
        // the stream must be bit-identical to the sequential path.
        let data = sparse_data(300_000);
        let zvc = Zvc::new();
        let auto = parallel(&zvc, &data, 0);
        let seq = WindowedStream::compress(&zvc, &data, 4096);
        assert_eq!(auto.as_bytes(), seq.as_bytes());
        assert_eq!(auto.offsets, seq.offsets);
    }

    #[test]
    fn append_windows_matches_stream_layout() {
        let data = sparse_data(5000);
        let zvc = Zvc::new();
        let stream = WindowedStream::compress(&zvc, &data, 4096);
        let mut bytes = Vec::new();
        let mut offsets = Vec::new();
        append_windows(&zvc, &data, 1024, &mut bytes, &mut offsets);
        assert_eq!(bytes, stream.as_bytes());
        assert_eq!(
            offsets,
            stream.offsets.iter().map(|&o| o as u32).collect::<Vec<_>>()
        );
        // Appending continues from the current positions.
        append_windows(&zvc, &data[..1024], 1024, &mut bytes, &mut offsets);
        assert_eq!(*offsets.last().unwrap() as usize, bytes.len());
    }

    #[test]
    fn stats_match_stream() {
        let data = sparse_data(4096);
        let zvc = Zvc::new();
        let stream = WindowedStream::compress(&zvc, &data, DEFAULT_WINDOW_BYTES);
        let stats = compress_stats(&zvc, &data, DEFAULT_WINDOW_BYTES);
        assert_eq!(stats, stream.stats());
        assert_eq!(stats.uncompressed_bytes, 4096 * 4);
    }

    #[test]
    fn zvc_is_window_size_insensitive() {
        // ZVC masks are 32-element local, so any window that is a multiple
        // of 128 bytes yields the identical compressed size.
        let data = sparse_data(64 * 1024);
        let zvc = Zvc::new();
        let s4k = compress_stats(&zvc, &data, 4 * 1024).compressed_bytes;
        let s16k = compress_stats(&zvc, &data, 16 * 1024).compressed_bytes;
        let s64k = compress_stats(&zvc, &data, 64 * 1024).compressed_bytes;
        assert_eq!(s4k, s16k);
        assert_eq!(s16k, s64k);
    }

    #[test]
    fn zlib_improves_with_window_size() {
        // Bigger windows give LZ77 a deeper dictionary; ratio must be
        // monotonically non-decreasing (modulo header amortization).
        let data = sparse_data(64 * 1024);
        let zl = Algorithm::Zlib.codec();
        let s1k = compress_stats(&zl, &data, 1024).compressed_bytes;
        let s64k = compress_stats(&zl, &data, 64 * 1024).compressed_bytes;
        assert!(s64k < s1k, "64K window {s64k} should beat 1K window {s1k}");
    }

    #[test]
    fn decompress_into_reuses_dirty_buffer() {
        let data = sparse_data(5000);
        let zvc = Zvc::new();
        let stream = WindowedStream::compress(&zvc, &data, 4096);
        let mut out = vec![123.0f32; 17]; // dirty, wrong size
        stream.decompress_into(&zvc, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn default_stream_is_well_formed() {
        let stream = WindowedStream::default();
        assert_eq!(stream.window_count(), 0);
        assert_eq!(stream.compressed_bytes(), 0);
        assert_eq!(stream.element_count(), 0);
        assert_eq!(stream.window_sizes().count(), 0);
        assert_eq!(stream.decompress(&Zvc::new()).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn recompress_parallel_reuses_buffers_and_matches() {
        let data = sparse_data(300_000); // above the parallel floor
        let zvc = Zvc::new();
        let seq = WindowedStream::compress(&zvc, &data, 4096);
        let mut stream = parallel(&zvc, &data, 4);
        assert_eq!(stream.as_bytes(), seq.as_bytes());
        let cap_bytes = stream.bytes.capacity();
        let cap_offsets = stream.offsets.capacity();
        stream.recompress_parallel(&zvc, &data, 4096, 4);
        assert_eq!(stream.bytes.capacity(), cap_bytes, "byte buffer recycled");
        assert_eq!(stream.offsets.capacity(), cap_offsets, "offsets recycled");
        assert_eq!(stream.as_bytes(), seq.as_bytes());
    }

    #[test]
    fn codec_panic_reaches_the_caller_and_the_stream_stays_usable() {
        /// ZVC, except that a window opening with the marker word panics.
        struct Tripwire;
        const MARKER: f32 = -12345.0;
        impl Compressor for Tripwire {
            fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
                assert!(data.first() != Some(&MARKER), "tripwire window");
                Zvc::new().compress_append(data, out);
            }
            fn decompress_prefix(
                &self,
                bytes: &[u8],
                element_count: usize,
                out: &mut Vec<f32>,
            ) -> Result<usize, DecodeError> {
                Zvc::new().decompress_prefix(bytes, element_count, out)
            }
        }

        let clean = sparse_data(300_000);
        let seq = WindowedStream::compress(&Zvc::new(), &clean, 4096);
        let mut stream = WindowedStream::default();
        // Two threads: window 3 is the caller's own run, window 196 a
        // spawned thread's.
        for window in [3, 196] {
            let mut data = clean.clone();
            data[window * 1024] = MARKER;
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stream.recompress_parallel(&Tripwire, &data, 4096, 2);
            }));
            let payload = caught.expect_err("the codec's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"tripwire window"),
                "window {window}: the panic keeps its own message"
            );
            stream.recompress_parallel(&Tripwire, &clean, 4096, 2);
            assert_eq!(stream.as_bytes(), seq.as_bytes());
            assert_eq!(stream.offsets, seq.offsets);
            assert_eq!(stream.decompress(&Tripwire).unwrap(), clean);
        }
    }

    #[test]
    fn empty_stream_is_well_formed() {
        let zvc = Zvc::new();
        let stream = WindowedStream::compress(&zvc, &[], 4096);
        assert_eq!(stream.window_count(), 0);
        assert_eq!(stream.compressed_bytes(), 0);
        assert_eq!(stream.window_sizes().count(), 0);
        assert_eq!(stream.decompress(&zvc).unwrap(), Vec::<f32>::new());
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn invalid_window_rejected() {
        let _ = compress_stats(&Zvc::new(), &[0.0], 6);
    }
}
