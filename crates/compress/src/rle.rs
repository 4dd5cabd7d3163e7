use crate::{extend_f32_le, Compressor, DecodeError};

/// Maximum run length one RLE record can express.
const MAX_RUN: usize = 128;

/// **Run-length encoding** of zero runs (Section V-A).
///
/// The paper investigates RLE because early inspection of the activation maps
/// (Fig. 5) showed zero values clustering spatially. The variant implemented
/// here — matching the paper's description, where "compression is only
/// effective for consecutive zeros" — encodes the word stream as alternating
/// records:
///
/// * **zero-run record** — one header byte `0b1LLL_LLLL` encoding a run of
///   `L+1` (1–128) zero words with no payload;
/// * **literal record** — one header byte `0b0LLL_LLLL` followed by `L+1`
///   raw 4-byte words.
///
/// A 128-word all-zero run (512 bytes) thus costs one byte, but an isolated
/// zero inside dense data costs a full byte, and zeros that are *present but
/// scattered* (as the NHWC and CHWN layouts produce) compress poorly — the
/// layout sensitivity shown in Fig. 11.
///
/// ```
/// use cdma_compress::{Compressor, Rle};
/// let rle = Rle::new();
/// // A long zero run costs one header byte per 128 words.
/// assert_eq!(rle.compress(&[0.0; 256]).len(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rle {
    _private: (),
}

impl Rle {
    /// Creates an RLE codec.
    pub fn new() -> Self {
        Rle::default()
    }
}

const ZERO_RUN_FLAG: u8 = 0x80;

impl Compressor for Rle {
    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        // O(1) worst-case bound: all-literal data costs 4 bytes per word
        // plus one header per 128 words; every other pattern is smaller.
        out.reserve(data.len() * 4 + data.len().div_ceil(MAX_RUN));
        let mut i = 0usize;
        while i < data.len() {
            if data[i].to_bits() == 0 {
                let mut run = 0usize;
                while i + run < data.len() && data[i + run].to_bits() == 0 {
                    run += 1;
                }
                i += run;
                while run > 0 {
                    let chunk = run.min(MAX_RUN);
                    out.push(ZERO_RUN_FLAG | (chunk - 1) as u8);
                    run -= chunk;
                }
            } else {
                let mut run = 0usize;
                while i + run < data.len() && data[i + run].to_bits() != 0 {
                    run += 1;
                }
                let mut emitted = 0usize;
                while emitted < run {
                    let chunk = (run - emitted).min(MAX_RUN);
                    out.push((chunk - 1) as u8);
                    for v in &data[i + emitted..i + emitted + chunk] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    emitted += chunk;
                }
                i += run;
            }
        }
    }

    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        // One header byte expands to at most `MAX_RUN` words, so a count
        // past that is a claim the stream cannot back: reserve for what
        // it can encode.
        out.reserve(element_count.min(bytes.len().saturating_mul(MAX_RUN)));
        let base = out.len();
        let mut pos = 0usize;
        while out.len() - base < element_count {
            if pos >= bytes.len() {
                return Err(DecodeError::Truncated {
                    expected: element_count,
                    decoded: out.len() - base,
                });
            }
            let header = bytes[pos];
            pos += 1;
            let len = (header & 0x7f) as usize + 1;
            if out.len() - base + len > element_count {
                return Err(DecodeError::Corrupt("run extends past element count"));
            }
            if header & ZERO_RUN_FLAG != 0 {
                out.resize(out.len() + len, 0.0);
            } else {
                if pos + len * 4 > bytes.len() {
                    return Err(DecodeError::Truncated {
                        expected: element_count,
                        decoded: out.len() - base,
                    });
                }
                extend_f32_le(out, &bytes[pos..pos + len * 4]);
                pos += len * 4;
            }
        }
        Ok(pos)
    }

    /// Closed form of the stream `compress_append` writes: one header per
    /// record of at most 128 words, zero run or literal, and four bytes per
    /// literal word.
    fn compressed_size(&self, data: &[f32]) -> usize {
        let mut size = 0usize;
        let mut i = 0usize;
        while i < data.len() {
            let zero = data[i].to_bits() == 0;
            let run = data[i..]
                .iter()
                .take_while(|w| (w.to_bits() == 0) == zero)
                .count();
            size += run.div_ceil(MAX_RUN) + if zero { 0 } else { 4 * run };
            i += run;
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32]) {
        let rle = Rle::new();
        let bytes = rle.compress(data);
        let back = rle.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn long_zero_run_is_one_byte_per_128() {
        let rle = Rle::new();
        assert_eq!(rle.compress(&[0.0; 128]).len(), 1);
        assert_eq!(rle.compress(&[0.0; 129]).len(), 2);
        assert_eq!(rle.compress(&[0.0; 1280]).len(), 10);
    }

    #[test]
    fn dense_data_costs_one_byte_per_128_words() {
        let rle = Rle::new();
        let data = vec![1.0f32; 256];
        assert_eq!(rle.compress(&data).len(), 2 + 256 * 4);
    }

    #[test]
    fn scattered_zeros_compress_poorly() {
        // Alternating zero/non-zero: every element needs a record boundary,
        // so the "compressed" stream is bigger than ZVC would produce.
        let data: Vec<f32> = (0..128)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let rle = Rle::new();
        let compressed = rle.compress(&data).len();
        // 64 zero records (1B) + 64 literal records (1B + 4B payload).
        assert_eq!(compressed, 64 + 64 * 5);
        // Barely below the raw 512 bytes: poor ratio on scattered zeros.
        assert!(compressed > 128 * 4 / 2);
        roundtrip(&data);
    }

    #[test]
    fn clustered_zeros_compress_well() {
        let mut data = vec![0.0f32; 512];
        for v in data.iter_mut().take(64) {
            *v = 3.0;
        }
        let rle = Rle::new();
        // 64 literals + 448 zeros => 1 + 256 + 4 headers.
        let compressed = rle.compress(&data).len();
        assert!(compressed < 300, "got {compressed}");
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(&[]);
        roundtrip(&[0.0]);
        roundtrip(&[7.0]);
        roundtrip(&[-0.0, 0.0]);
        let data: Vec<f32> = (0..1000)
            .map(|i| if (i / 37) % 2 == 0 { 0.0 } else { i as f32 })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_detected() {
        let rle = Rle::new();
        let bytes = rle.compress(&[1.0; 10]);
        assert!(matches!(
            rle.decompress(&bytes[..3], 10),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            rle.decompress(&[], 1),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn overlong_run_detected() {
        // Header says 128 zeros but caller expects 5 elements.
        let bytes = vec![ZERO_RUN_FLAG | 127];
        assert!(matches!(
            Rle::new().decompress(&bytes, 5),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_data_detected() {
        let rle = Rle::new();
        let mut bytes = rle.compress(&[0.0; 4]);
        bytes.push(0);
        assert!(matches!(
            rle.decompress(&bytes, 4),
            Err(DecodeError::TrailingData { .. })
        ));
    }
}
