//! Property tests: every codec is lossless on arbitrary activation data,
//! and the structural invariants the paper relies on hold.
//!
//! The proptest crate is unavailable offline, so these are deterministic
//! property loops: each test draws `CASES` random inputs from a seeded
//! generator (every failure is reproducible from the case index) and checks
//! the invariant on each.

use cdma_compress::{windowed, Algorithm, Compressor, Zvc, ZVC_WINDOW_ELEMS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Activation-like data: a mix of exact zeros and arbitrary finite floats,
/// with the zero fraction itself randomized per case.
fn activations(rng: &mut StdRng) -> Vec<f32> {
    let zero_frac = rng.gen_range(0.0..1.0);
    let len = rng.gen_range(0usize..2000);
    (0..len)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < zero_frac {
                0.0
            } else {
                // Keep finite but allow negatives and denormals.
                let bits = rng.gen_range(0u64..=u32::MAX as u64) as u32;
                let v = f32::from_bits(bits);
                if v.is_finite() {
                    v
                } else {
                    (bits % 1000) as f32 - 500.0
                }
            }
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

fn for_each_case(seed: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ (case.wrapping_mul(0x9E3779B97F4A7C15)));
        check(case, &mut rng);
    }
}

/// decode(encode(x)) == x bit-exactly, for all three algorithms — through
/// both the allocating wrappers and the streaming `_into` primitives with
/// reused (dirty) buffers.
#[test]
fn lossless_roundtrip() {
    let mut bytes = vec![0xFFu8; 64]; // deliberately dirty, reused throughout
    let mut back = vec![f32::NAN; 64];
    for_each_case(0xC0DEC, |case, rng| {
        let data = activations(rng);
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            codec.compress_into(&data, &mut bytes);
            assert_eq!(bytes, codec.compress(&data), "case {case} {alg}");
            codec
                .decompress_into(&bytes, data.len(), &mut back)
                .unwrap_or_else(|e| panic!("case {case} {alg}: {e}"));
            assert_bits_eq(&back, &data);
        }
    });
}

/// Windowed compression round-trips for any window size, including windows
/// that are **not** multiples of ZVC's 128-byte mask granularity and final
/// partial windows.
#[test]
fn windowed_roundtrip() {
    for_each_case(0x817D0, |case, rng| {
        let data = activations(rng);
        // Window sizes: multiples of 4 bytes only, deliberately spanning
        // non-multiples of 128 B (e.g. 36 B, 500 B) and sizes that leave a
        // partial final window.
        let window_bytes = 4 * rng.gen_range(1usize..1024);
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let stream = windowed::WindowedStream::compress(&codec, &data, window_bytes);
            assert_eq!(
                stream.window_count(),
                data.len().div_ceil(window_bytes / 4),
                "case {case} {alg} w={window_bytes}"
            );
            let back = stream.decompress(&codec).unwrap();
            assert_bits_eq(&back, &data);
        }
    });
}

/// A `WindowedStream` is one contiguous buffer: per-window sizes and slices
/// tile it exactly, and each window equals the independent compression of
/// its chunk.
#[test]
fn windowed_stream_is_contiguous_and_window_exact() {
    for_each_case(0x0FF5E7, |case, rng| {
        let data = activations(rng);
        let window_bytes = 4 * rng.gen_range(1usize..600);
        let window_elems = window_bytes / 4;
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let stream = windowed::WindowedStream::compress(&codec, &data, window_bytes);
            assert_eq!(
                stream.window_sizes().sum::<usize>(),
                stream.as_bytes().len(),
                "case {case} {alg}"
            );
            for (i, w) in stream.windows().enumerate() {
                let chunk = &data[i * window_elems..((i + 1) * window_elems).min(data.len())];
                assert_eq!(w, codec.compress(chunk), "case {case} {alg} window {i}");
                assert_eq!(stream.window_elements(i), chunk.len());
            }
        }
    });
}

/// The parallel compression path produces a bit-identical stream to the
/// sequential path for every codec and thread count.
#[test]
fn parallel_compression_is_equivalent() {
    // Fewer cases: each runs all three codecs over ≥ 1 MB of data.
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x9A7A11E1 ^ case);
        let zero_frac = rng.gen_range(0.0..1.0);
        let len = rng.gen_range((1 << 18) + 1..(1 << 18) + 5000);
        let data: Vec<f32> = (0..len)
            .map(|i| {
                if rng.gen_range(0.0..1.0) < zero_frac {
                    0.0
                } else {
                    (i % 509) as f32 - 254.0
                }
            })
            .collect();
        let threads = rng.gen_range(2usize..=8);
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let seq = windowed::WindowedStream::compress(&codec, &data, 4096);
            let mut par = windowed::WindowedStream::default();
            par.recompress_parallel(&codec, &data, 4096, threads);
            assert_eq!(
                seq.as_bytes(),
                par.as_bytes(),
                "case {case} {alg} x{threads}"
            );
            assert_eq!(
                seq.window_sizes().collect::<Vec<_>>(),
                par.window_sizes().collect::<Vec<_>>()
            );
        }
    }
}

/// ZVC's compressed size matches its closed-form size exactly.
#[test]
fn zvc_size_is_analytic() {
    for_each_case(0x2C512E, |case, rng| {
        let data = activations(rng);
        let zvc = Zvc::new();
        assert_eq!(
            Compressor::compress(&zvc, &data).len(),
            Zvc::compressed_size(&data),
            "case {case}"
        );
    });
}

/// ZVC size depends only on the zero count and element count, not on
/// where the zeros sit — the layout-insensitivity claim of Fig. 11.
#[test]
fn zvc_is_permutation_invariant() {
    for_each_case(0x5EED, |case, rng| {
        let data = activations(rng);
        let mut shuffled = data.clone();
        // Fisher-Yates.
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0usize..=i);
            shuffled.swap(i, j);
        }
        assert_eq!(
            Zvc::compressed_size(&data),
            Zvc::compressed_size(&shuffled),
            "case {case}"
        );
    });
}

/// ZVC windowing at any multiple of 128 B gives identical total size; at a
/// window that is **not** a multiple of 128 B, the only growth is the extra
/// partial-mask overhead (≤ 4 bytes per window).
#[test]
fn zvc_non_multiple_of_128_windows_cost_only_mask_padding() {
    for_each_case(0xA5C, |case, rng| {
        let len = rng.gen_range(1usize..5000);
        let data: Vec<f32> = (0..len)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.5 {
                    0.0
                } else {
                    1.5
                }
            })
            .collect();
        let zvc = Zvc::new();
        let aligned = windowed::compress_stats(&zvc, &data, 4096).compressed_bytes;
        // 36 B = 9 words: every window ends in a 9-word partial mask group.
        let window_bytes = 4 * rng.gen_range(1usize..32);
        let unaligned = windowed::compress_stats(&zvc, &data, window_bytes).compressed_bytes;
        let windows = len.div_ceil(window_bytes / 4) as u64;
        assert!(
            unaligned >= aligned && unaligned <= aligned + 4 * windows,
            "case {case}: aligned {aligned}, unaligned {unaligned}, windows {windows}"
        );
        // And it still round-trips exactly.
        let stream = windowed::WindowedStream::compress(&zvc, &data, window_bytes);
        assert_bits_eq(&stream.decompress(&zvc).unwrap(), &data);
    });
}

/// Truncating a compressed stream must yield an error, never a panic or
/// silently wrong data of full length.
#[test]
fn truncation_is_detected() {
    for_each_case(0x7 - 1, |_case, rng| {
        let data = activations(rng);
        if data.is_empty() {
            return;
        }
        let cut_frac = rng.gen_range(0.0..0.95);
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let bytes = codec.compress(&data);
            if bytes.is_empty() {
                continue;
            }
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            if cut == bytes.len() {
                continue;
            }
            if let Ok(decoded) = codec.decompress(&bytes[..cut], data.len()) {
                // Only acceptable if the prefix happens to still decode
                // to exactly the right data (possible when cut lands on
                // a record boundary covering everything — then it's not
                // actually truncated content). ZVC/RLE formats make this
                // impossible unless cut == len, so require equality.
                assert_bits_eq(&decoded, &data);
            }
        }
    });
}

/// Compressed output of ZVC is never larger than 33/32 of the input
/// (+4 bytes rounding): the paper's 3.1% worst-case metadata overhead.
#[test]
fn zvc_worst_case_overhead() {
    for_each_case(0x33 * 0x20, |case, rng| {
        let data = activations(rng);
        let size = Zvc::compressed_size(&data);
        let bound = data.len() * 4 + (data.len() * 4) / ZVC_WINDOW_ELEMS + 4;
        assert!(size <= bound, "case {case}: {size} > {bound}");
    });
}
