//! Entropy-coded sparse activations: ZVC presence masks + Huffman-coded
//! non-zero payload bytes.
//!
//! Following Georgiadis ("Accelerating CNNs via Activation Map
//! Compression", 2018), the format keeps ZVC's layout-insensitive
//! mask+payload split but entropy-codes the payload: activation values
//! cluster heavily in a few exponent/mantissa byte patterns, so a
//! canonical Huffman code over the non-zero words' bytes recovers much of
//! DEFLATE's ratio at a fraction of its hardware cost (a 256-entry table
//! versus an LZ77 window).
//!
//! Wire format, for `n` activation words:
//!
//! * `ceil(n/32)` little-endian `u32` presence masks (bit `i` of mask `g`
//!   set iff word `32g+i` is non-zero by bit pattern; padding bits of the
//!   final mask must be zero);
//! * if any word is non-zero: 128 bytes of 4-bit code lengths for the
//!   256-symbol byte alphabet (symbol `2i` in the low nibble), then the
//!   `4·popcount` little-endian payload bytes as LSB-first Huffman codes,
//!   zero-padded to a byte boundary.
//!
//! The payload symbol count comes from the masks, so no end marker is
//! needed and truncation/trailing bytes are detected exactly.

use crate::deflate::bits::{LsbReader, LsbWriter};
use crate::deflate::huffman::{code_lengths, lsb_codes, DecodeTable, MAX_CODE_LEN};
use crate::{Compressor, DecodeError};

// The 4-bit length table holds code lengths up to 15.
const _: () = assert!(MAX_CODE_LEN <= 0x0F);

/// The mask + Huffman-coded-payload sparse codec.
///
/// ```
/// use cdma_compress::{Compressor, Huff};
/// let hf = Huff::new();
/// // 75% zeros with clustered non-zero values.
/// let data: Vec<f32> = (0..4096)
///     .map(|i| if i % 4 == 0 { (i % 13) as f32 } else { 0.0 })
///     .collect();
/// let bytes = hf.compress(&data);
/// assert!(bytes.len() < data.len() * 4, "sparse data compresses");
/// assert_eq!(hf.decompress(&bytes, data.len()).unwrap(), data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Huff;

impl Huff {
    /// Creates the codec (stateless).
    pub fn new() -> Self {
        Huff
    }
}

impl Compressor for Huff {
    fn name(&self) -> &'static str {
        "HF"
    }

    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        out.reserve(data.len().div_ceil(32) * 4);
        let mut freq = [0u64; 256];
        let mut nz = 0usize;
        for chunk in data.chunks(32) {
            let mut mask = 0u32;
            for (i, w) in chunk.iter().enumerate() {
                if w.to_bits() != 0 {
                    mask |= 1 << i;
                    nz += 1;
                    for b in w.to_le_bytes() {
                        freq[b as usize] += 1;
                    }
                }
            }
            out.extend_from_slice(&mask.to_le_bytes());
        }
        if nz == 0 {
            return;
        }
        let mut lens = [0u8; 256];
        code_lengths(&freq, MAX_CODE_LEN, &mut lens);
        let mut codes = [0u16; 256];
        lsb_codes(&lens, &mut codes);
        out.extend(lens.chunks_exact(2).map(|pair| pair[0] | (pair[1] << 4)));
        let mut w = LsbWriter::new(out);
        for v in data {
            if v.to_bits() != 0 {
                // Two codes of at most 15 bits fit one 32-bit write.
                let [b0, b1, b2, b3] = v.to_le_bytes().map(usize::from);
                for (lo, hi) in [(b0, b1), (b2, b3)] {
                    w.write_bits(
                        codes[lo] as u32 | (codes[hi] as u32) << lens[lo],
                        (lens[lo] + lens[hi]) as u32,
                    );
                }
            }
        }
        w.finish();
    }

    fn decompress_append(
        &self,
        bytes: &[u8],
        element_count: usize,
        vals: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        let groups = element_count.div_ceil(32);
        let mask_bytes = groups * 4;
        if bytes.len() < mask_bytes {
            return Err(DecodeError::Corrupt("truncated mask section"));
        }
        let mut masks = Vec::with_capacity(groups);
        let mut nz = 0usize;
        for g in 0..groups {
            let m = u32::from_le_bytes(bytes[g * 4..g * 4 + 4].try_into().unwrap());
            let valid = element_count - g * 32;
            if valid < 32 && (m >> valid) != 0 {
                return Err(DecodeError::Corrupt("mask padding bits set"));
            }
            nz += m.count_ones() as usize;
            masks.push(m);
        }
        if nz == 0 {
            if bytes.len() != mask_bytes {
                return Err(DecodeError::TrailingData {
                    expected: element_count,
                });
            }
            vals.resize(vals.len() + element_count, 0.0);
            return Ok(());
        }
        let rest = &bytes[mask_bytes..];
        if rest.len() < 128 {
            return Err(DecodeError::Corrupt("truncated code-length table"));
        }
        let mut lens = [0u8; 256];
        for (i, &b) in rest[..128].iter().enumerate() {
            lens[2 * i] = b & 0x0F;
            lens[2 * i + 1] = b >> 4;
        }
        let table = DecodeTable::from_lengths(&lens)?
            .ok_or(DecodeError::Corrupt("empty payload alphabet"))?;
        let payload_bytes = &rest[128..];
        let mut r = LsbReader::new(payload_bytes);
        // `nz` is bounded by `element_count` (one mask bit per word), so
        // this reservation is caller-sized, never stream-sized.
        let mut payload = Vec::with_capacity(nz * 4);
        for _ in 0..nz * 4 {
            payload.push(table.decode(&mut r)? as u8);
        }
        if r.bytes_consumed() < payload_bytes.len() {
            return Err(DecodeError::TrailingData {
                expected: element_count,
            });
        }
        vals.reserve(element_count);
        let mut p = 0usize;
        for (g, &m) in masks.iter().enumerate() {
            let valid = (element_count - g * 32).min(32);
            for i in 0..valid {
                if m & (1 << i) != 0 {
                    vals.push(f32::from_le_bytes([
                        payload[p],
                        payload[p + 1],
                        payload[p + 2],
                        payload[p + 3],
                    ]));
                    p += 4;
                } else {
                    vals.push(0.0);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32]) -> usize {
        let hf = Huff::new();
        let bytes = hf.compress(data);
        let back = hf.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        bytes.len()
    }

    #[test]
    fn roundtrip_small_inputs() {
        roundtrip(&[]);
        roundtrip(&[0.0]);
        roundtrip(&[1.0]);
        roundtrip(&[0.0; 33]);
        roundtrip(&[-0.0, f32::MIN_POSITIVE, f32::NAN, 3.4e38]);
    }

    #[test]
    fn all_zero_input_is_masks_only() {
        let hf = Huff::new();
        let bytes = hf.compress(&[0.0f32; 100]);
        assert_eq!(bytes.len(), 100usize.div_ceil(32) * 4);
    }

    #[test]
    fn every_tail_length_roundtrips() {
        for n in 0..=67usize {
            let data: Vec<f32> = (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { (i % 9) as f32 })
                .collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn single_distinct_value_roundtrips() {
        // One payload symbol -> a length-1 (incomplete) code.
        roundtrip(&[2.0f32; 256]);
    }

    #[test]
    fn clustered_values_beat_plain_zvc() {
        // Activation-like data: 60% zeros, non-zeros drawn from few
        // distinct values, so payload bytes are highly skewed.
        let data: Vec<f32> = (0..8192)
            .map(|i| {
                if (i * 2654435761usize) % 10 < 6 {
                    0.0
                } else {
                    ((i % 8) as f32) + 1.0
                }
            })
            .collect();
        let hf_size = Huff::new().compress(&data).len();
        let zv_size = crate::Zvc::new().compress(&data).len();
        assert!(
            hf_size < zv_size,
            "huffman payload {hf_size} should beat raw zvc payload {zv_size}"
        );
    }

    #[test]
    fn mask_padding_bits_are_validated() {
        let hf = Huff::new();
        let mut bytes = hf.compress(&[1.0f32; 40]);
        // Set a padding bit in the second (tail) mask: words 32..40 use
        // bits 0..8, so bit 31 is padding.
        bytes[7] |= 0x80;
        assert!(matches!(
            hf.decompress(&bytes, 40),
            Err(DecodeError::Corrupt("mask padding bits set"))
        ));
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let hf = Huff::new();
        let data: Vec<f32> = (0..512)
            .map(|i| if i % 2 == 0 { (i % 7) as f32 } else { 0.0 })
            .collect();
        let good = hf.compress(&data);
        for cut in 0..good.len() {
            assert!(hf.decompress(&good[..cut], data.len()).is_err());
        }
        for flip in 0..good.len() {
            let mut bad = good.clone();
            bad[flip] ^= 0xA5;
            let _ = hf.decompress(&bad, data.len());
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(hf.decompress(&padded, data.len()).is_err());
    }
}
