//! Per-window adaptive codec selection: a density probe picks RLE, ZVC or
//! DEFLATE for each 4 KB window, at one header byte per window.
//!
//! No single codec wins everywhere (§VII-A): RLE is smallest on
//! clustered near-zero windows, ZVC on scattered-sparse ones, and DEFLATE
//! is the only one that compresses *dense* windows at all. [`Adaptive`]
//! slices the input into [`WINDOW_WORDS`]-word windows and probes each
//! one: the exact RLE and ZVC sizes are the codecs' own closed-form
//! [`Compressor::compressed_size`]s, and only when the window is dense
//! (non-zero density ≥ ½ — where neither sparse codec can win big) does
//! the probe pay for a real DEFLATE pass, keeping it when it beats both.
//!
//! What the probe costs: a sparse window is three counting passes and one
//! RLE or ZVC call; a dense window is one DEFLATE call written straight
//! into the output (and truncated away if it loses), ~28 µs for 4 KB on
//! the development container — 16 µs of it the LZ77 search, the rest
//! counting, two Huffman codes, the block header and the token bits (see
//! `deflate`). On the benchmark's AlexNet activations the picker averages
//! 16.5 µs a window, 0.25 GB/s, between `Huff` (6.3 µs) and `Zlib`
//! (28 µs). The probe is not worth second-guessing there: it runs on 382
//! of 880 windows and DEFLATE wins 366 of them (seed 41), so a bound
//! that skipped every losing probe would save 4% of the picker's time.
//! Should that change, the exact size of the block is known before a bit
//! of it is written (`deflate::encode` prices stored, fixed and dynamic
//! from the token histogram), so a losing probe could stop there.
//!
//! Wire format: per window, one tag byte — an index into [`PICKS`] —
//! followed by that codec's complete stream for the window's words. Every
//! codec's stream is self-delimiting ([`Compressor::decompress_prefix`]),
//! so no per-window length field is stored and nothing here knows another
//! codec's format: decoding a window is what finds where it ends.

use crate::{Algorithm, Compressor, DecodeError, Rle, Zvc};

/// Words per adaptive window (4 KB of f32 — the paper's DMA window size).
pub const WINDOW_WORDS: usize = 1024;

/// The codec behind each window tag: a window's tag byte is its codec's
/// index here.
pub const PICKS: [Algorithm; 3] = [Algorithm::Rle, Algorithm::Zvc, Algorithm::Zlib];

const TAG_RLE: u8 = 0;
const TAG_ZVC: u8 = 1;
const TAG_DEFLATE: u8 = 2;

/// Appends `chunk` as one window: `tag`, then `PICKS[tag]`'s stream.
fn push_window(tag: u8, chunk: &[f32], out: &mut Vec<u8>) {
    out.push(tag);
    PICKS[tag as usize].codec().compress_append(chunk, out);
}

/// The per-window adaptive picker codec.
///
/// ```
/// use cdma_compress::{Adaptive, Compressor};
/// let ad = Adaptive::new();
/// // A sparse window followed by a dense one: different picks per window.
/// let mut data = vec![0.0f32; 1024];
/// data.extend((0..1024).map(|i| (i % 251) as f32 + 0.5));
/// let bytes = ad.compress(&data);
/// assert_eq!(ad.decompress(&bytes, data.len()).unwrap(), data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Adaptive;

impl Adaptive {
    /// Creates the codec (stateless).
    pub fn new() -> Self {
        Adaptive
    }
}

impl Compressor for Adaptive {
    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        for chunk in data.chunks(WINDOW_WORDS) {
            let nz = chunk.iter().filter(|w| w.to_bits() != 0).count();
            let rle_size = Rle::new().compressed_size(chunk);
            let zvc_size = Zvc::compressed_size(chunk);
            if nz * 2 >= chunk.len() {
                // Dense window: the sparse codecs are near their floor, so
                // a DEFLATE probe is the only path to real compression.
                // It is written in place and taken back if it loses.
                let start = out.len();
                push_window(TAG_DEFLATE, chunk, out);
                if out.len() - (start + 1) < rle_size.min(zvc_size) {
                    continue;
                }
                out.truncate(start);
            }
            let tag = if rle_size <= zvc_size {
                TAG_RLE
            } else {
                TAG_ZVC
            };
            push_window(tag, chunk, out);
        }
    }

    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        vals: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        let mut pos = 0usize;
        let mut done = 0usize;
        while done < element_count {
            let w = (element_count - done).min(WINDOW_WORDS);
            let tag = *bytes
                .get(pos)
                .ok_or(DecodeError::Corrupt("truncated adaptive stream"))?;
            let pick = PICKS
                .get(tag as usize)
                .ok_or(DecodeError::Corrupt("unknown adaptive window tag"))?;
            pos += 1;
            pos += pick.codec().decompress_prefix(&bytes[pos..], w, vals)?;
            done += w;
        }
        Ok(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Zlib;

    fn roundtrip(data: &[f32]) -> usize {
        let ad = Adaptive::new();
        let bytes = ad.compress(data);
        let back = ad.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        bytes.len()
    }

    /// A deterministic mixed-density stream: near-zero, mid-density
    /// random-valued, and dense repetitive windows interleaved.
    fn mixed_stream() -> Vec<f32> {
        let mut state = 0xDEADBEEFCAFEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut data = Vec::new();
        for rep in 0..4 {
            // Near-zero window: a handful of scattered non-zeros.
            data.extend((0..WINDOW_WORDS).map(
                |i| {
                    if i % 400 == 7 {
                        (rep + 1) as f32
                    } else {
                        0.0
                    }
                },
            ));
            // Mid-density window: ~70% random-valued non-zeros.
            for _ in 0..WINDOW_WORDS {
                let r = next();
                if r % 10 < 3 {
                    data.push(0.0);
                } else {
                    data.push(f32::from_bits((r >> 32) as u32 | 1));
                }
            }
            // Dense repetitive window: DEFLATE territory.
            data.extend((0..WINDOW_WORDS).map(|i| ((i % 16) as f32) + 0.5));
        }
        data
    }

    #[test]
    fn roundtrip_small_inputs() {
        roundtrip(&[]);
        roundtrip(&[0.0]);
        roundtrip(&[1.0]);
        roundtrip(&[-0.0, f32::NAN, 1.0e-40]);
        roundtrip(&vec![0.0; WINDOW_WORDS + 1]);
        roundtrip(&vec![3.25; WINDOW_WORDS * 2 + 17]);
    }

    #[test]
    fn every_window_boundary_roundtrips() {
        for n in [
            WINDOW_WORDS - 1,
            WINDOW_WORDS,
            WINDOW_WORDS + 1,
            2 * WINDOW_WORDS,
        ] {
            let data: Vec<f32> = (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { (i % 100) as f32 })
                .collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn picks_beat_or_match_every_single_codec() {
        // The acceptance bar: on a mixed-density stream the adaptive
        // picker must match or beat the best single codec's ratio.
        let data = mixed_stream();
        let ad_size = roundtrip(&data);
        let rl_size = Rle::new().compress(&data).len();
        let zv_size = Zvc::new().compress(&data).len();
        let zl_size = Zlib::new().compress(&data).len();
        let hf_size = crate::Huff::new().compress(&data).len();
        let best = rl_size.min(zv_size).min(zl_size).min(hf_size);
        assert!(
            ad_size <= best,
            "adaptive {ad_size} vs best single {best} (rl {rl_size} zv {zv_size} zl {zl_size} hf {hf_size})"
        );
    }

    #[test]
    fn all_three_tags_appear_on_mixed_data() {
        assert_eq!(
            [TAG_RLE, TAG_ZVC, TAG_DEFLATE].map(|t| PICKS[t as usize]),
            [Algorithm::Rle, Algorithm::Zvc, Algorithm::Zlib]
        );
        let data = mixed_stream();
        let bytes = Adaptive::new().compress(&data);
        // Walk the stream, collecting tags; each window is the stream its
        // codec wrote for exactly that window's words.
        let mut tags = std::collections::BTreeSet::new();
        let mut pos = 0usize;
        for chunk in data.chunks(WINDOW_WORDS) {
            let tag = bytes[pos];
            tags.insert(tag);
            let codec = PICKS[tag as usize].codec();
            let mut words = Vec::new();
            let len = codec
                .decompress_prefix(&bytes[pos + 1..], chunk.len(), &mut words)
                .unwrap();
            assert_eq!(bytes[pos + 1..pos + 1 + len], codec.compress(chunk));
            pos += 1 + len;
        }
        assert_eq!(pos, bytes.len());
        assert!(
            tags.contains(&TAG_RLE) && tags.contains(&TAG_ZVC) && tags.contains(&TAG_DEFLATE),
            "expected all three picks on mixed data, got {tags:?}"
        );
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let ad = Adaptive::new();
        let data = mixed_stream();
        let good = ad.compress(&data);
        for cut in [0, 1, 2, 100, good.len() / 2, good.len() - 1] {
            assert!(ad.decompress(&good[..cut], data.len()).is_err());
        }
        // Every tag byte corrupted to an unknown value.
        let mut bad = good.clone();
        bad[0] = 0xFF;
        assert!(matches!(
            ad.decompress(&bad, data.len()),
            Err(DecodeError::Corrupt("unknown adaptive window tag"))
        ));
        let mut padded = good.clone();
        padded.push(0);
        assert!(ad.decompress(&padded, data.len()).is_err());
    }
}
