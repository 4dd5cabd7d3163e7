//! Seeded corrupt-stream fuzzing for every codec's decoder.
//!
//! A decoder that panics (or balloons memory) on hostile bytes takes the
//! whole serving worker down with it, so the contract is strict: any
//! byte sequence either decodes or returns a [`DecodeError`]. This suite
//! drives each decoder with systematic truncations (every prefix length),
//! single-bit flips at every bit of real streams, byte corruption at
//! every position, and seeded random garbage — including garbage wrapped
//! in a *valid* zlib header, which reaches the block-parsing state
//! machine rather than bouncing off the header checks.

use cdma_compress::{Algorithm, Compressor, DecodeError};

/// xorshift64* — deterministic, seeded, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn byte(&mut self) -> u8 {
        (self.next() >> 32) as u8
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Activation-like fuzz corpus: mixed densities and value distributions
/// so every codec emits all of its stream constructs.
fn corpus() -> Vec<Vec<f32>> {
    let mut rng = Rng(0x5EED_CAFE_0001);
    let mut corpus = vec![
        vec![],
        vec![0.0],
        vec![1.5; 37],
        vec![0.0; 4096],
        (0..1500)
            .map(|i| if i % 3 == 0 { 0.0 } else { (i % 11) as f32 })
            .collect(),
    ];
    // A couple of multi-window random-density streams.
    for _ in 0..2 {
        let n = 2048 + rng.below(2048);
        let density = 1 + rng.below(9);
        corpus.push(
            (0..n)
                .map(|_| {
                    if rng.below(10) < density {
                        f32::from_bits((rng.next() >> 32) as u32 | 1)
                    } else {
                        0.0
                    }
                })
                .collect(),
        );
    }
    corpus
}

/// Every prefix of a valid stream must decode or error — never panic —
/// and an over-long stream must be rejected. Every stream is also
/// self-delimiting: with bytes after it, the prefix decode stops at its
/// end, and the whole-input decode names the caller's element count.
#[test]
fn truncation_at_every_byte_never_panics() {
    let mut rng = Rng(0x5EED_0005);
    for alg in Algorithm::EXTENDED {
        let codec = alg.codec();
        for data in corpus() {
            let good = codec.compress(&data);
            for cut in 0..good.len() {
                let _ = codec.decompress(&good[..cut], data.len());
            }
            let mut padded = good.clone();
            padded.push(0);
            assert_eq!(
                codec.decompress(&padded, data.len()),
                Err(DecodeError::TrailingData {
                    expected: data.len()
                }),
                "{alg}: trailing byte"
            );
            padded.extend((0..8).map(|_| rng.byte()));
            let want = codec.decompress(&good, data.len()).unwrap();
            let mut got = Vec::new();
            assert_eq!(
                codec.decompress_prefix(&padded, data.len(), &mut got),
                Ok(good.len()),
                "{alg}: {} words",
                data.len()
            );
            let bits = |words: &[f32]| words.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{alg}: {} words", data.len());
        }
    }
}

/// Every codec's size without the stream — closed form or not — is the
/// stream's length.
#[test]
fn compressed_size_is_the_stream_length() {
    for alg in Algorithm::EXTENDED {
        let codec = alg.codec();
        for data in corpus() {
            assert_eq!(
                codec.compressed_size(&data),
                codec.compress(&data).len(),
                "{alg}: {} words",
                data.len()
            );
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    for alg in Algorithm::EXTENDED {
        let codec = alg.codec();
        for data in corpus() {
            let good = codec.compress(&data);
            // Cap the sweep on large streams: every bit of the first and
            // last 256 bytes plus a seeded sample of the middle.
            let mut positions: Vec<usize> = (0..good.len().min(256)).collect();
            if good.len() > 256 {
                positions.extend(good.len() - 256..good.len());
                let mut rng = Rng(0x5EED_0002 ^ good.len() as u64);
                positions.extend((0..512).map(|_| rng.below(good.len())));
            }
            for pos in positions {
                for bit in 0..8 {
                    let mut bad = good.clone();
                    bad[pos] ^= 1 << bit;
                    if let Ok(back) = codec.decompress(&bad, data.len()) {
                        // A flip may survive (e.g. payload bits); the
                        // decode must still honour the element count.
                        assert_eq!(back.len(), data.len(), "{alg}");
                    }
                }
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Rng(0x5EED_0003);
    for alg in Algorithm::EXTENDED {
        let codec = alg.codec();
        for _ in 0..200 {
            let n = rng.below(400);
            let garbage: Vec<u8> = (0..n).map(|_| rng.byte()).collect();
            let count = rng.below(2000);
            if let Ok(back) = codec.decompress(&garbage, count) {
                assert_eq!(back.len(), count, "{alg}");
            }
        }
    }
}

/// Garbage wrapped in a valid zlib header reaches the DEFLATE block
/// state machine instead of bouncing off the header checks.
#[test]
fn garbage_behind_a_valid_zlib_header_never_panics() {
    let mut rng = Rng(0x5EED_0004);
    let zl = cdma_compress::Zlib::new();
    for _ in 0..500 {
        let n = rng.below(600);
        let mut stream = vec![0x78, 0x9C];
        stream.extend((0..n).map(|_| rng.byte()));
        let _ = zl.decompress_bytes(&stream);
        let _ = zl.decompress(&stream, rng.below(4000));
    }
}

/// A hostile stream must not be able to force allocation past what the
/// caller's element count implies: stored-block headers claiming 64 KB
/// per block against a tiny expected output are rejected, not buffered.
#[test]
fn length_claims_in_headers_cannot_balloon_output() {
    let zl = cdma_compress::Zlib::new();
    // Non-final stored blocks, each claiming 0xFFFF bytes of payload.
    let mut stream = vec![0x78, 0x9C];
    for _ in 0..64 {
        stream.push(0x00); // BFINAL=0, BTYPE=00, align padding
        stream.extend_from_slice(&0xFFFFu16.to_le_bytes());
        stream.extend_from_slice(&0x0000u16.to_le_bytes());
        stream.extend(std::iter::repeat_n(0xAA, 0xFFFF));
    }
    // Expected output: 8 words = 32 bytes. The decoder must abort as soon
    // as production exceeds that, regardless of the 4 MB the headers claim.
    let err = zl.decompress(&stream, 8).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("exceeds expected length"), "got: {msg}");
}

/// A caller's count is a claim, not a budget: a short valid stream
/// decoded as `u32::MAX` words returns an error, and what the decoder
/// reserved on the way stays within what the stream could encode (RLE's
/// one header byte per 128 words is the loosest bound here) — instead of
/// a 16 GB reservation that aborts the process.
///
/// CSC is the one codec whose stream cannot disown a count: its trailing
/// zeros are implicit, so any count at least the entries' reach is a
/// valid decode and `u32::MAX` words is a real 16 GB output. Its stream
/// cut by one byte stands in: the header is checked before any
/// reservation.
#[test]
fn a_huge_count_on_a_short_stream_is_an_error_not_an_allocation() {
    let data = vec![1.5f32; 37];
    for alg in Algorithm::EXTENDED {
        let codec = alg.codec();
        let good = codec.compress(&data);
        let bytes = if alg == Algorithm::Csc {
            &good[..good.len() - 1]
        } else {
            &good[..]
        };
        let mut out = Vec::new();
        let got = codec.decompress_prefix(bytes, u32::MAX as usize, &mut out);
        assert!(got.is_err(), "{alg}: {got:?}");
        assert!(
            out.capacity() <= good.len() * 128,
            "{alg}: {} words reserved for a {}-byte stream",
            out.capacity(),
            good.len()
        );
    }
}
