use crate::{Compressor, DecodeError};

mod kernel;
#[cfg(all(target_arch = "aarch64", target_endian = "little"))]
mod neon;
mod portable;
#[cfg(all(
    any(target_arch = "x86", target_arch = "x86_64"),
    target_endian = "little"
))]
mod x86;

pub use kernel::{kernel_info, Kernel, KernelInfo, KernelTier};

/// Number of activation words covered by one ZVC mask (Fig. 8 of the paper).
pub const ZVC_WINDOW_ELEMS: usize = 32;

/// **Zero-value compression** — the algorithm the cDMA engine implements in
/// hardware.
///
/// For every [`ZVC_WINDOW_ELEMS`] (= 32) consecutive activation words a
/// 32-bit mask is emitted with bit *i* set iff word *i* is non-zero, followed
/// by the non-zero words packed densely. Thirty-two consecutive zeros thus
/// collapse to a single all-zero mask (32× ratio); 32 non-zeros cost the mask
/// as pure overhead (3.1%, 1 bit per word).
///
/// The expected compression ratio is a *pure function of density* `d`:
/// `ratio(d) = 32 / (1 + 32·d)` — see [`Zvc::analytic_ratio`] — which is why
/// ZVC, unlike RLE and zlib, is insensitive to how the zeros are laid out in
/// memory (Section VII-A).
///
/// The final window of a stream may cover fewer than 32 words; its mask is
/// still 4 bytes with the unused high bits zero.
///
/// # Kernel tiers
///
/// The mask+payload format was chosen by the paper precisely because it maps
/// to wide, branch-free hardware (Fig. 8), and the software kernels mirror
/// that in explicit SIMD: vector zero tests fold a window's comparisons into
/// its presence mask with one move-mask per 4–16 lanes, and payloads move by
/// lane compaction/expansion shuffles (AVX2/AVX-512/NEON) or bulk run copies
/// (portable word-at-a-time tier, SSE2). The tier is selected **once per
/// process** by runtime CPU detection — see [`Kernel`] and [`kernel_info`] —
/// and every tier produces byte-identical streams and identical errors,
/// pinned against the scalar reference oracle by the differential test
/// suite. Set `CDMA_ZVC_KERNEL=portable|sse2|avx2|avx512|neon` to force a
/// tier.
///
/// ```
/// use cdma_compress::{Compressor, Zvc};
/// let zvc = Zvc::new();
/// // 32 zeros compress to just the 4-byte mask.
/// assert_eq!(zvc.compress(&[0.0; 32]).len(), 4);
/// // 32 non-zeros cost mask + payload.
/// assert_eq!(zvc.compress(&[1.0; 32]).len(), 4 + 32 * 4);
/// ```
///
/// The streaming entry points append to caller-owned buffers, so a training
/// loop compresses every layer with zero steady-state allocation:
///
/// ```
/// use cdma_compress::{Compressor, Zvc};
/// let zvc = Zvc::new();
/// let layer: Vec<f32> = (0..96).map(|i| if i % 3 == 0 { i as f32 } else { 0.0 }).collect();
///
/// let mut stream = Vec::new();
/// zvc.compress_append(&layer, &mut stream); // window 0..: appended in place
/// let mut back = Vec::new();
/// zvc.decompress_append(&stream, layer.len(), &mut back).unwrap();
/// assert_eq!(back, layer);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Zvc {
    _private: (),
}

/// The presence mask of one 8-word sector: bit *i* set iff word *i* has a
/// non-zero bit pattern (so `-0.0`, denormals and NaNs all count).
///
/// This is the unit the paper's hardware pipeline computes per cycle with
/// eight parallel comparators (Fig. 10a); `cdma-gpu-sim`'s test-only
/// `ZvcCompressPipeline` models exactly this function per stage, and uses
/// this export so the model and the codec share one definition.
#[inline]
// pub: gpu-sim's test-only Fig. 10 datapath shares it with the codec
pub fn sector_mask(sector: &[f32; 8]) -> u8 {
    (portable::window_mask(sector) & 0xff) as u8
}

impl Zvc {
    /// Creates a ZVC codec.
    pub fn new() -> Self {
        Zvc::default()
    }

    /// Expected compression ratio at activation density `d` (fraction of
    /// non-zero words): `32 / (1 + 32·d)`.
    ///
    /// At the paper's network-average density of ~38% this gives the quoted
    /// average ratio of ~2.6×.
    pub fn analytic_ratio(density: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be in [0, 1], got {density}"
        );
        ZVC_WINDOW_ELEMS as f64 / (1.0 + ZVC_WINDOW_ELEMS as f64 * density)
    }

    /// Exact compressed size in bytes without materializing the stream —
    /// used by the bandwidth model on multi-gigabyte traces. The non-zero
    /// count is a branch-free fold over the raw bit patterns, which the
    /// compiler vectorizes.
    pub fn compressed_size(data: &[f32]) -> usize {
        let full_windows = data.len() / ZVC_WINDOW_ELEMS;
        let tail = data.len() % ZVC_WINDOW_ELEMS;
        let masks = (full_windows + usize::from(tail > 0)) * 4;
        let nonzeros: usize = portable::window_bits(data)
            .iter()
            .map(|w| usize::from(*w != 0))
            .sum();
        masks + nonzeros * 4
    }
}

impl Compressor for Zvc {
    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        Kernel::active().compress_append(data, out);
    }

    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        Kernel::active().decompress_prefix(bytes, element_count, out)
    }

    fn compressed_size(&self, data: &[f32]) -> usize {
        Zvc::compressed_size(data)
    }

    fn compress(&self, data: &[f32]) -> Vec<u8> {
        // One-shot form: exact-size allocation from the analytic size.
        let mut out = Vec::with_capacity(Zvc::compressed_size(data));
        self.compress_append(data, &mut out);
        out
    }
}

/// The pre-vectorization per-element ZVC codec, kept verbatim as the
/// reference oracle: every kernel tier must produce byte-identical
/// streams and identical error behaviour (the differential suite in
/// `tests/kernel_tiers.rs` asserts exactly that, per tier). Not part of
/// the public API — hidden from docs and exempt from semver expectations.
#[doc(hidden)]
pub mod scalar_reference {
    use super::{DecodeError, ZVC_WINDOW_ELEMS};

    /// Scalar (branch-per-element) counterpart of
    /// [`Compressor::compress_append`](crate::Compressor::compress_append)
    /// for [`Zvc`](super::Zvc).
    pub fn compress_append(data: &[f32], out: &mut Vec<u8>) {
        out.reserve(data.len() * 4 + data.len().div_ceil(ZVC_WINDOW_ELEMS) * 4);
        for chunk in data.chunks(ZVC_WINDOW_ELEMS) {
            let mut mask: u32 = 0;
            for (i, v) in chunk.iter().enumerate() {
                if v.to_bits() != 0 {
                    mask |= 1 << i;
                }
            }
            out.extend_from_slice(&mask.to_le_bytes());
            for v in chunk {
                if v.to_bits() != 0 {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Scalar (bit-at-a-time) counterpart of
    /// [`Compressor::decompress_append`](crate::Compressor::decompress_append)
    /// for [`Zvc`](super::Zvc).
    ///
    /// # Errors
    ///
    /// Returns the same [`DecodeError`]s, with the same fields and partial
    /// output, as [`Zvc`](super::Zvc)'s decoder on every kernel tier.
    pub fn decompress_append(
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        // Every window spends a 4-byte mask: reserve for what the stream
        // can encode, not for a bare count.
        out.reserve(element_count.min(super::kernel::max_decoded_words(bytes.len())));
        let base = out.len();
        let mut pos = 0usize;
        while out.len() - base < element_count {
            if pos + 4 > bytes.len() {
                return Err(DecodeError::Truncated {
                    expected: element_count,
                    decoded: out.len() - base,
                });
            }
            let mask =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            pos += 4;
            let window = (element_count - (out.len() - base)).min(ZVC_WINDOW_ELEMS);
            if window < ZVC_WINDOW_ELEMS && (mask >> window) != 0 {
                return Err(DecodeError::Corrupt("mask bits set beyond final window"));
            }
            for i in 0..window {
                if mask & (1 << i) != 0 {
                    if pos + 4 > bytes.len() {
                        return Err(DecodeError::Truncated {
                            expected: element_count,
                            decoded: out.len() - base,
                        });
                    }
                    let v = f32::from_le_bytes([
                        bytes[pos],
                        bytes[pos + 1],
                        bytes[pos + 2],
                        bytes[pos + 3],
                    ]);
                    pos += 4;
                    out.push(v);
                } else {
                    out.push(0.0);
                }
            }
        }
        if pos != bytes.len() {
            return Err(DecodeError::TrailingData {
                expected: element_count,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::scalar_reference as scalar;
    use super::*;

    fn roundtrip(data: &[f32]) {
        let zvc = Zvc::new();
        let bytes = zvc.compress(data);
        assert_eq!(bytes.len(), Zvc::compressed_size(data));
        let back = zvc.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Asserts the active kernel agrees with the scalar oracle on `data`:
    /// byte-identical stream, identical decode, identical size accounting.
    /// (The per-tier sweep lives in `tests/kernel_tiers.rs`.)
    fn assert_matches_scalar(data: &[f32]) {
        let zvc = Zvc::new();
        let fast = zvc.compress(data);
        let mut reference = Vec::new();
        scalar::compress_append(data, &mut reference);
        assert_eq!(fast, reference, "stream mismatch on {} elems", data.len());
        assert_eq!(fast.len(), Zvc::compressed_size(data));

        let mut fast_back = Vec::new();
        zvc.decompress_append(&fast, data.len(), &mut fast_back)
            .unwrap();
        let mut scalar_back = Vec::new();
        scalar::decompress_append(&reference, data.len(), &mut scalar_back).unwrap();
        assert_eq!(fast_back.len(), data.len());
        for (i, (a, b)) in fast_back.iter().zip(&scalar_back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "word {i}");
        }
        for (i, (a, b)) in fast_back.iter().zip(data).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "word {i}");
        }
    }

    /// Deterministic 64-bit LCG (Knuth's MMIX constants) — the workspace's
    /// stand-in for a property-test RNG.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    /// Adversarial payload words: values a naive `!= 0.0` or arithmetic
    /// codec would mangle. `-0.0` must survive as a *non-zero* word.
    const ADVERSARIAL_WORDS: [f32; 8] = [
        f32::NAN,
        -0.0,
        1.0e-40, // subnormal
        -1.0e-42,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -3.25,
    ];

    #[test]
    fn all_zero_window_is_only_mask() {
        let zvc = Zvc::new();
        assert_eq!(zvc.compress(&[0.0; 32]).len(), 4);
        assert_eq!(zvc.compress(&[0.0; 64]).len(), 8);
    }

    #[test]
    fn dense_window_pays_mask_overhead() {
        let zvc = Zvc::new();
        // 3.1% metadata overhead: 1 bit per 32-bit word.
        let compressed = zvc.compress(&[2.5; 320]);
        assert_eq!(compressed.len(), 320 * 4 + 320 / 32 * 4);
    }

    #[test]
    fn roundtrip_mixed_patterns() {
        roundtrip(&[]);
        roundtrip(&[0.0]);
        roundtrip(&[1.5]);
        roundtrip(&[0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.5]);
        let alternating: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { i as f32 })
            .collect();
        roundtrip(&alternating);
    }

    #[test]
    fn partial_final_window() {
        // 33 elements: one full window + 1-element tail (mask still 4 bytes).
        let mut data = vec![1.0f32; 33];
        data[32] = 0.0;
        let zvc = Zvc::new();
        let bytes = zvc.compress(&data);
        assert_eq!(bytes.len(), 4 + 32 * 4 + 4);
        roundtrip(&data);
    }

    #[test]
    fn negative_zero_is_preserved() {
        // -0.0 has non-zero bits and must survive the round-trip exactly.
        roundtrip(&[-0.0, 0.0, -0.0]);
    }

    #[test]
    fn sector_mask_counts_bit_patterns_not_values() {
        assert_eq!(sector_mask(&[0.0; 8]), 0);
        assert_eq!(sector_mask(&[1.0; 8]), 0xFF);
        assert_eq!(
            sector_mask(&[-0.0, 0.0, f32::NAN, 0.0, 1.0e-40, 0.0, 0.0, 2.0]),
            0b1001_0101
        );
    }

    #[test]
    fn kernel_info_names_a_supported_tier() {
        let info = kernel_info();
        assert!(Kernel::supported().iter().any(|k| k.tier() == info.tier));
        // Display carries the provenance either way.
        let shown = info.to_string();
        assert!(shown.contains(info.tier.name()));
        assert!(shown.contains("detected") || shown.contains("forced"));
    }

    #[test]
    fn analytic_ratio_matches_paper_examples() {
        // Section V-A: "If 60% of the total activations are zero-valued, we
        // would expect an overall compression ratio of 2.5x".
        assert!((Zvc::analytic_ratio(0.4) - 32.0 / 13.8).abs() < 1e-12);
        assert!((Zvc::analytic_ratio(0.4) - 2.32).abs() < 0.01);
        // All-zero: 32x. All-dense: ~0.97x (3.1% overhead).
        assert_eq!(Zvc::analytic_ratio(0.0), 32.0);
        assert!((Zvc::analytic_ratio(1.0) - 32.0 / 33.0).abs() < 1e-12);
    }

    #[test]
    fn analytic_size_matches_actual_on_random_density() {
        for &density in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let data: Vec<f32> = (0..4096)
                .map(|i| {
                    let r = (i * 2654435761usize) % 1000;
                    if (r as f64) < density * 1000.0 {
                        (i + 1) as f32
                    } else {
                        0.0
                    }
                })
                .collect();
            let zvc = Zvc::new();
            assert_eq!(zvc.compress(&data).len(), Zvc::compressed_size(&data));
        }
    }

    #[test]
    fn truncated_stream_detected() {
        let zvc = Zvc::new();
        let bytes = zvc.compress(&[1.0; 32]);
        let err = zvc.decompress(&bytes[..8], 32).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn trailing_data_detected() {
        let zvc = Zvc::new();
        let mut bytes = zvc.compress(&[1.0; 8]);
        bytes.extend_from_slice(&[0u8; 4]);
        let err = zvc.decompress(&bytes, 8).unwrap_err();
        assert!(matches!(err, DecodeError::TrailingData { .. }));
    }

    #[test]
    fn bad_tail_mask_detected() {
        // Tail window of 1 element but mask claims bit 1 set.
        let bytes = 0b10u32.to_le_bytes().to_vec();
        let err = Zvc::new().decompress(&bytes, 1).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)));
    }

    #[test]
    fn adversarial_windows_match_scalar() {
        // All-zero and all-dense windows, alone and stacked.
        assert_matches_scalar(&[0.0; 32]);
        assert_matches_scalar(&[7.5; 32]);
        assert_matches_scalar(&[0.0; 96]);
        assert_matches_scalar(&[7.5; 96]);

        // Single-bit masks: exactly one non-zero word at every position,
        // with -0.0 as the survivor (it must register as non-zero).
        for bit in 0..ZVC_WINDOW_ELEMS {
            let mut window = [0.0f32; ZVC_WINDOW_ELEMS];
            window[bit] = -0.0;
            assert_matches_scalar(&window);
            window[bit] = f32::NAN;
            assert_matches_scalar(&window);
        }

        // NaN / ±0.0 / subnormal payloads, tiled across several windows.
        let adversarial: Vec<f32> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    ADVERSARIAL_WORDS[i % ADVERSARIAL_WORDS.len()]
                }
            })
            .collect();
        assert_matches_scalar(&adversarial);
    }

    #[test]
    fn every_tail_length_matches_scalar() {
        // Tail windows of every length 1..32, in sparse, dense, and
        // adversarial fills, with and without preceding full windows.
        for tail in 1..=ZVC_WINDOW_ELEMS {
            for prefix_windows in [0usize, 2] {
                let n = prefix_windows * ZVC_WINDOW_ELEMS + tail;
                let sparse: Vec<f32> = (0..n)
                    .map(|i| if i % 4 == 1 { i as f32 + 0.5 } else { 0.0 })
                    .collect();
                assert_matches_scalar(&sparse);
                let dense: Vec<f32> = (0..n).map(|i| i as f32 - 7.25).collect();
                assert_matches_scalar(&dense);
                let adv: Vec<f32> = (0..n)
                    .map(|i| ADVERSARIAL_WORDS[i % ADVERSARIAL_WORDS.len()])
                    .collect();
                assert_matches_scalar(&adv);
            }
        }
    }

    #[test]
    fn seeded_streams_match_scalar() {
        // Seeded property loop: random lengths, densities, and payload
        // values (including the adversarial pool) through both kernels.
        let mut state = 0xC0FFEE_u64;
        for _ in 0..300 {
            let len = (lcg(&mut state) % 400) as usize;
            let density = (lcg(&mut state) % 101) as f64 / 100.0;
            let data: Vec<f32> = (0..len)
                .map(|_| {
                    if ((lcg(&mut state) % 1000) as f64) < density * 1000.0 {
                        let pick = lcg(&mut state);
                        if pick.is_multiple_of(5) {
                            ADVERSARIAL_WORDS[(pick / 5) as usize % ADVERSARIAL_WORDS.len()]
                        } else {
                            f32::from_bits((pick >> 16) as u32 | 1) // non-zero bits
                        }
                    } else {
                        0.0
                    }
                })
                .collect();
            assert_matches_scalar(&data);
        }
    }

    #[test]
    fn truncation_behaviour_matches_scalar_at_every_cut() {
        // Cut a valid stream at every byte boundary: both decoders must
        // produce the same error variant, fields, and partial output.
        let data: Vec<f32> = (0..70)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 + 0.25 })
            .collect();
        let zvc = Zvc::new();
        let bytes = zvc.compress(&data);
        for cut in 0..bytes.len() {
            let mut fast_out = Vec::new();
            let fast = zvc.decompress_append(&bytes[..cut], data.len(), &mut fast_out);
            let mut scalar_out = Vec::new();
            let scalar = scalar::decompress_append(&bytes[..cut], data.len(), &mut scalar_out);
            assert_eq!(fast, scalar, "cut at {cut}");
            assert_eq!(
                fast_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "partial output at cut {cut}"
            );
        }
    }
}
