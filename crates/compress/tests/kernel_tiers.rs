//! Forced-dispatch differential suite: every ZVC kernel tier this CPU
//! supports, driven explicitly through [`Kernel::for_tier`]-style handles
//! (no `CDMA_ZVC_KERNEL` environment games), pinned byte-identical to the
//! scalar reference oracle — streams, decodes, *and* error behaviour.
//!
//! The corpus is the adversarial set the unit tests grew over PRs 4–7:
//! all-zero / all-dense / single-bit masks, NaN / ±0.0 / subnormal
//! payloads, every tail length below a window, misaligned sub-slices, and
//! truncation at every byte cut. Each case runs under **each** supported
//! tier, so a lane-ordering bug in one shuffle LUT cannot hide behind the
//! tier the test machine happens to auto-select.
//!
//! One test does read the variable: in CI's forced-tier lanes it checks
//! that dispatch landed on the tier the lane names.

use cdma_compress::scalar_reference as scalar;
use cdma_compress::{kernel_info, Compressor, Kernel, Zvc, ZVC_WINDOW_ELEMS};

/// Adversarial payload words: values a naive `!= 0.0` or arithmetic codec
/// would mangle. `-0.0` must survive as a *non-zero* word.
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

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Asserts `kernel` agrees with the scalar oracle on `data`: byte-identical
/// compressed stream and bit-identical decompressed words.
fn assert_tier_matches_scalar(kernel: &Kernel, data: &[f32], what: &str) {
    let tier = kernel.tier();
    let mut fast = Vec::new();
    kernel.compress_append(data, &mut fast);
    let mut reference = Vec::new();
    scalar::compress_append(data, &mut reference);
    assert_eq!(fast, reference, "{tier}: stream mismatch on {what}");

    let mut fast_back = Vec::new();
    let consumed = kernel
        .decompress_prefix(&fast, data.len(), &mut fast_back)
        .unwrap_or_else(|e| panic!("{tier}: decode failed on {what}: {e:?}"));
    assert_eq!(consumed, fast.len(), "{tier}: stream length on {what}");
    assert_eq!(fast_back.len(), data.len(), "{tier}: length on {what}");
    for (i, (a, b)) in fast_back.iter().zip(data).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{tier}: word {i} of {what}");
    }
}

fn for_every_tier(f: impl Fn(&Kernel)) {
    let tiers = Kernel::supported();
    assert!(!tiers.is_empty(), "portable tier must always be present");
    for kernel in tiers {
        f(kernel);
    }
}

#[test]
fn supported_always_ends_with_portable() {
    let tiers = Kernel::supported();
    use cdma_compress::KernelTier;
    assert_eq!(tiers.last().unwrap().tier(), KernelTier::Portable);
    // On x86_64, SSE2 is baseline, so at least two tiers must appear.
    #[cfg(target_arch = "x86_64")]
    assert!(tiers.len() >= 2, "x86_64 guarantees SSE2");
}

/// With `CDMA_ZVC_KERNEL` set, everything dispatched runs the named tier
/// and [`kernel_info`] says so — a forced lane that quietly fell back to
/// auto-detection would re-test the default tier under another name.
/// Nothing to check when the variable is unset.
#[test]
fn a_forced_tier_is_the_active_tier() {
    let Ok(name) = std::env::var("CDMA_ZVC_KERNEL") else {
        return;
    };
    let info = kernel_info();
    assert!(info.forced, "{info}");
    assert_eq!(info.tier.name(), name);
    assert_eq!(Kernel::active().tier(), info.tier);
}

#[test]
fn extreme_masks_match_scalar_on_every_tier() {
    for_every_tier(|kernel| {
        // All-zero and all-dense windows, alone and stacked.
        assert_tier_matches_scalar(kernel, &[0.0; 32], "zeros x32");
        assert_tier_matches_scalar(kernel, &[7.5; 32], "dense x32");
        assert_tier_matches_scalar(kernel, &[0.0; 96], "zeros x96");
        assert_tier_matches_scalar(kernel, &[7.5; 96], "dense x96");
        // Alternating sector extremes inside one window: dense sector,
        // zero sector — exercises every per-sector shuffle LUT edge.
        let striped: Vec<f32> = (0..128)
            .map(|i| if (i / 8) % 2 == 0 { 0.0 } else { 1.5 })
            .collect();
        assert_tier_matches_scalar(kernel, &striped, "sector stripes");
    });
}

#[test]
fn single_bit_masks_match_scalar_on_every_tier() {
    for_every_tier(|kernel| {
        for bit in 0..ZVC_WINDOW_ELEMS {
            let mut window = [0.0f32; ZVC_WINDOW_ELEMS];
            window[bit] = -0.0;
            assert_tier_matches_scalar(kernel, &window, "single -0.0 bit");
            window[bit] = f32::NAN;
            assert_tier_matches_scalar(kernel, &window, "single NaN bit");
            // And the complement: exactly one zero in a dense window.
            let mut dense = [2.5f32; ZVC_WINDOW_ELEMS];
            dense[bit] = 0.0;
            assert_tier_matches_scalar(kernel, &dense, "single hole");
        }
    });
}

#[test]
fn adversarial_payloads_match_scalar_on_every_tier() {
    for_every_tier(|kernel| {
        let adversarial: Vec<f32> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    ADVERSARIAL_WORDS[i % ADVERSARIAL_WORDS.len()]
                }
            })
            .collect();
        assert_tier_matches_scalar(kernel, &adversarial, "adversarial tile");
    });
}

#[test]
fn every_tail_length_matches_scalar_on_every_tier() {
    for_every_tier(|kernel| {
        // 0..=32 covers every partial-window length plus empty input and
        // one full window; with and without preceding full windows.
        for tail in 0..=ZVC_WINDOW_ELEMS {
            for prefix_windows in [0usize, 2] {
                let n = prefix_windows * ZVC_WINDOW_ELEMS + tail;
                let sparse: Vec<f32> = (0..n)
                    .map(|i| if i % 4 == 1 { i as f32 + 0.5 } else { 0.0 })
                    .collect();
                assert_tier_matches_scalar(kernel, &sparse, "sparse tail");
                let dense: Vec<f32> = (0..n).map(|i| i as f32 - 7.25).collect();
                assert_tier_matches_scalar(kernel, &dense, "dense tail");
                let adv: Vec<f32> = (0..n)
                    .map(|i| ADVERSARIAL_WORDS[i % ADVERSARIAL_WORDS.len()])
                    .collect();
                assert_tier_matches_scalar(kernel, &adv, "adversarial tail");
            }
        }
    });
}

#[test]
fn misaligned_subslices_match_scalar_on_every_tier() {
    // SIMD loads are unaligned by construction, but prove it: compress
    // sub-slices at every word offset inside a larger buffer, so the data
    // pointer takes every alignment class mod 64 bytes.
    let mut state = 0xA11A_u64;
    let backing: Vec<f32> = (0..ZVC_WINDOW_ELEMS * 4 + 17)
        .map(|_| {
            let r = lcg(&mut state);
            if r.is_multiple_of(3) {
                0.0
            } else {
                f32::from_bits((r >> 13) as u32 | 1)
            }
        })
        .collect();
    for_every_tier(|kernel| {
        for start in 0..16 {
            for len in [0, 1, 31, 32, 33, 64, ZVC_WINDOW_ELEMS * 3 + 5] {
                let slice = &backing[start..start + len];
                assert_tier_matches_scalar(kernel, slice, "misaligned sub-slice");
            }
        }
    });
}

#[test]
fn seeded_streams_match_scalar_on_every_tier() {
    for_every_tier(|kernel| {
        let mut state = 0xC0FFEE_u64 ^ kernel.tier().name().len() as u64;
        for _ in 0..120 {
            let len = (lcg(&mut state) % 500) as usize;
            let density = (lcg(&mut state) % 101) as f64 / 100.0;
            let data: Vec<f32> = (0..len)
                .map(|_| {
                    if ((lcg(&mut state) % 1000) as f64) < density * 1000.0 {
                        let pick = lcg(&mut state);
                        if pick.is_multiple_of(5) {
                            ADVERSARIAL_WORDS[(pick / 5) as usize % ADVERSARIAL_WORDS.len()]
                        } else {
                            f32::from_bits((pick >> 16) as u32 | 1)
                        }
                    } else {
                        0.0
                    }
                })
                .collect();
            assert_tier_matches_scalar(kernel, &data, "seeded stream");
        }
    });
}

#[test]
fn truncation_at_every_cut_matches_scalar_on_every_tier() {
    // Cut a valid stream at every byte boundary: every tier must produce
    // the same error variant, fields, and partial output as the oracle.
    // (Truncated windows take the tier-independent driver cold path; this
    // pins that the SIMD fast paths never engage early on short input.)
    let data: Vec<f32> = (0..70)
        .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 + 0.25 })
        .collect();
    let mut bytes = Vec::new();
    scalar::compress_append(&data, &mut bytes);
    for_every_tier(|kernel| {
        for cut in 0..bytes.len() {
            let what = format!("cut at {cut}");
            assert_decode_matches_scalar(kernel, &bytes[..cut], data.len(), &[], &what);
        }
    });
}

#[test]
fn corrupt_tail_mask_rejected_identically_on_every_tier() {
    // Tail window of 1 element but the mask claims bit 1: Corrupt on every
    // tier, with the same partial output (none).
    let bytes = 0b10u32.to_le_bytes().to_vec();
    let mut expected_out = Vec::new();
    let expected = scalar::decompress_append(&bytes, 1, &mut expected_out);
    for_every_tier(|kernel| {
        let mut out = Vec::new();
        let got = kernel.decompress_prefix(&bytes, 1, &mut out).map(drop);
        assert_eq!(got, expected, "{}", kernel.tier());
        assert_eq!(out.len(), expected_out.len(), "{}", kernel.tier());
    });
}

#[test]
fn trailing_data_rejected_identically_on_every_tier() {
    // Every tier stops at the stream's end and decodes what the oracle
    // decodes; the rejection itself is the codec's (`Compressor`'s
    // trailing-data rule), the same error with the same partial output.
    let mut bytes = Vec::new();
    scalar::compress_append(&[1.0; 8], &mut bytes);
    let stream_len = bytes.len();
    bytes.extend_from_slice(&[0u8; 4]);
    let mut expected_out = Vec::new();
    let expected = scalar::decompress_append(&bytes, 8, &mut expected_out);
    for_every_tier(|kernel| {
        let mut out = Vec::new();
        let got = kernel.decompress_prefix(&bytes, 8, &mut out);
        assert_eq!(got, Ok(stream_len), "{}", kernel.tier());
        assert_eq!(out, expected_out, "{}", kernel.tier());
    });
    let mut out = Vec::new();
    assert_eq!(Zvc::new().decompress_append(&bytes, 8, &mut out), expected);
    assert_eq!(out, expected_out);
}

#[test]
fn tiers_append_after_existing_content() {
    // compress_append/decompress_append must append, never clobber.
    for_every_tier(|kernel| {
        let data: Vec<f32> = (0..67)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let mut bytes = vec![0xAB, 0xCD];
        kernel.compress_append(&data, &mut bytes);
        assert_eq!(&bytes[..2], &[0xAB, 0xCD], "{}", kernel.tier());
        let mut words = vec![9.0f32];
        kernel
            .decompress_prefix(&bytes[2..], data.len(), &mut words)
            .unwrap();
        assert_eq!(words[0], 9.0, "{}", kernel.tier());
        assert_eq!(words.len(), 1 + data.len(), "{}", kernel.tier());
    });
}

/// Decodes `bytes` as `count` words appended after `existing` on `kernel`
/// and on the scalar oracle, and asserts the same result and the same
/// output bits, `existing` included. `bytes` must end where the stream
/// does (or before): the oracle's whole-input decode is the reference.
fn assert_decode_matches_scalar(
    kernel: &Kernel,
    bytes: &[u8],
    count: usize,
    existing: &[f32],
    what: &str,
) {
    let tier = kernel.tier();
    let mut fast_out = existing.to_vec();
    let fast = kernel
        .decompress_prefix(bytes, count, &mut fast_out)
        .map(drop);
    let mut scalar_out = existing.to_vec();
    let reference = scalar::decompress_append(bytes, count, &mut scalar_out);
    assert_eq!(fast, reference, "{tier}: {what}");
    assert_eq!(
        fast_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        scalar_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{tier}: output of {what}"
    );
}

/// One full window with exactly `nonzeros` non-zero words, spread over
/// its sectors (the gaps differ, so the SIMD moves' per-sector offsets
/// do).
fn window_with(nonzeros: usize, salt: usize) -> Vec<f32> {
    let mut window = vec![0.0f32; ZVC_WINDOW_ELEMS];
    for k in 0..nonzeros {
        window[(k * 7 + salt) % ZVC_WINDOW_ELEMS] = ADVERSARIAL_WORDS[(k + salt) % 8];
    }
    assert_eq!(window.iter().filter(|v| v.to_bits() != 0).count(), nonzeros);
    window
}

/// The hand-over from unchecked window moves to the checked path, at the
/// stream's end: the last full window's payload ends exactly at
/// `bytes.len()`, and one byte short of it. The final window's size sweeps
/// the bytes left past the window before it through every tier's declared
/// over-read (0, 16 and 32 bytes), on both sides of each boundary.
#[test]
fn the_last_full_window_ending_at_the_stream_end_matches_scalar_on_every_tier() {
    for_every_tier(|kernel| {
        for lead in [0usize, 1, 9, 31, 32] {
            for last in 0..=12 {
                let mut data = Vec::new();
                for (w, nz) in [32, lead, 5].into_iter().enumerate() {
                    data.extend(window_with(nz, w));
                }
                data.extend(window_with(last, 3));
                let mut bytes = Vec::new();
                scalar::compress_append(&data, &mut bytes);
                let what = format!("lead {lead}, last window {last} non-zeros");
                let mut out = Vec::new();
                assert_eq!(
                    kernel.decompress_prefix(&bytes, data.len(), &mut out),
                    Ok(bytes.len()),
                    "{}: {what}",
                    kernel.tier()
                );
                assert_decode_matches_scalar(kernel, &bytes, data.len(), &[], &what);
                let short = &bytes[..bytes.len() - 1];
                assert_decode_matches_scalar(kernel, short, data.len(), &[], &what);
            }
        }
    });
}

/// A partial final window whose mask claims words beyond it, right after
/// windows the unchecked move took: `Corrupt`, with those windows' words
/// as the partial output, on every tier.
#[test]
fn a_corrupt_partial_window_after_unchecked_windows_matches_scalar_on_every_tier() {
    let mut head = Vec::new();
    for (w, nz) in [32usize, 0, 11, 3].into_iter().enumerate() {
        head.extend(window_with(nz, w));
    }
    for_every_tier(|kernel| {
        for tail in 1..ZVC_WINDOW_ELEMS {
            let mut data = head.clone();
            data.extend((0..tail).map(|i| if i % 2 == 0 { 1.25 } else { 0.0 }));
            let mut bytes = Vec::new();
            scalar::compress_append(&data, &mut bytes);
            let mut head_bytes = Vec::new();
            scalar::compress_append(&head, &mut head_bytes);
            for bad_bit in [tail, ZVC_WINDOW_ELEMS - 1] {
                let mut bad = bytes.clone();
                bad[head_bytes.len() + bad_bit / 8] |= 1 << (bad_bit % 8);
                let what = format!("tail {tail}, bit {bad_bit}");
                assert_decode_matches_scalar(kernel, &bad, data.len(), &[], &what);
                let mut out = Vec::new();
                let got = kernel.decompress_prefix(&bad, data.len(), &mut out);
                assert!(
                    matches!(got, Err(cdma_compress::DecodeError::Corrupt(_))),
                    "{}: {what}: {got:?}",
                    kernel.tier()
                );
                assert_eq!(out.len(), head.len(), "{}: {what}", kernel.tier());
            }
        }
    });
}

/// A stream cut at every byte of each of its last four windows — where
/// the unchecked run ends on every tier with an over-read — decodes to
/// the oracle's error and partial output.
#[test]
fn cuts_in_the_last_four_windows_match_scalar_on_every_tier() {
    for layout in [
        [32usize, 32, 32, 32],
        [0, 1, 0, 2],
        [7, 32, 0, 9],
        [3, 4, 5, 6],
    ] {
        let mut data = Vec::new();
        for w in 0..6 {
            data.extend(window_with((w * 5) % 33, w));
        }
        let mut starts = Vec::new();
        for (w, nz) in layout.into_iter().enumerate() {
            let mut head = Vec::new();
            scalar::compress_append(&data, &mut head);
            starts.push(head.len());
            data.extend(window_with(nz, w));
        }
        data.extend([0.0, -0.0, 4.5]);
        let mut bytes = Vec::new();
        scalar::compress_append(&data, &mut bytes);
        for_every_tier(|kernel| {
            for cut in starts[0]..bytes.len() {
                let what = format!("layout {layout:?}, cut at {cut} of {}", bytes.len());
                assert_decode_matches_scalar(kernel, &bytes[..cut], data.len(), &[], &what);
            }
        });
    }
}

/// Decoding after existing words whose count is not a multiple of 32:
/// the unchecked cursor starts mid-allocation, and the words before it
/// stay untouched — whole streams and truncated ones.
#[test]
fn decoding_after_a_ragged_prefix_matches_scalar_on_every_tier() {
    let mut data = Vec::new();
    for (w, nz) in [32usize, 17, 0, 1, 32, 6].into_iter().enumerate() {
        data.extend(window_with(nz, w));
    }
    data.extend([2.0, 0.0, 0.0, -7.5, 0.0]);
    let mut bytes = Vec::new();
    scalar::compress_append(&data, &mut bytes);
    for_every_tier(|kernel| {
        for existing_len in [1usize, 5, 31, 33, 37, 100] {
            let existing: Vec<f32> = (0..existing_len).map(|i| i as f32 - 0.5).collect();
            for cut in [bytes.len(), bytes.len() - 1, bytes.len() / 2, 3] {
                let what = format!("{existing_len} existing words, cut at {cut}");
                assert_decode_matches_scalar(kernel, &bytes[..cut], data.len(), &existing, &what);
            }
        }
    });
}
