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
//! needed: the stream ends with the byte that holds its last code's last
//! bit, and truncation is detected exactly.
//!
//! Encoding is mask ∘ huffman in that order: the dispatched ZVC kernel
//! ([`crate::Kernel`]) splits a chunk of words into masks and packed
//! non-zero words — the vector compare and compaction it does anyway,
//! where a scalar loop would branch on every word, wrongly half the time
//! at the densities that matter — and the Huffman stage counts and codes
//! the packed bytes without looking at a zero again. The counts price the
//! stream to the byte, so the output grows once and the bit writer only
//! stores.
//!
//! Decoding walks the set bits of each mask and decodes four symbols
//! straight into that word of a zero-filled window. While the code is
//! complete and at least [`FAST_INPUT`] payload bytes have not been
//! loaded yet — the fast loop — a word is decoded with no check at all:
//! every lookup finds a code, and every refill is one word load of real
//! input. The last words of the payload, and every word under an
//! incomplete code, go through the table's checked `decode` — the
//! careful loop — which is where every error comes from. Nothing is
//! allocated: the table is this thread's, the masks are read in place.

use std::cell::RefCell;

use crate::deflate::bits::{LsbReader, LsbWriter, WRITER_SLACK};
use crate::deflate::huffman::{
    code_lengths, entry, lsb_codes, with_tables, Coverage, LitlenTable, MAX_CODE_LEN, PLAIN_SYMBOLS,
};
use crate::zvc::Kernel;
use crate::{Compressor, DecodeError};

// The 4-bit length table holds code lengths up to 15.
const _: () = assert!(MAX_CODE_LEN <= 0x0F);

/// Unloaded payload bytes that let one word be decoded unchecked: each
/// of its three refills at most loads up to seven bytes and must find
/// eight.
const FAST_INPUT: usize = 2 * 7 + 8;

/// Words handed to the ZVC kernel at a time. A DMA window is one chunk
/// and is packed once; a whole tensor is packed chunk by chunk, once to
/// count its bytes and once to code them, so the thread never holds more
/// than a chunk of it (17 KB, a quarter of what the DEFLATE scratch may
/// keep).
const CHUNK_WORDS: usize = 4096;

thread_local! {
    /// The ZVC stream of the chunk in hand.
    static PACKED: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Calls `f` with the mask and the packed non-zero words of every
/// 32-word group of a ZVC stream.
#[inline(always)]
fn for_each_group(mut zvc: &[u8], mut f: impl FnMut([u8; 4], &[u8])) {
    while let Some((&mask, rest)) = zvc.split_first_chunk::<4>() {
        let (words, rest) = rest.split_at(u32::from_le_bytes(mask).count_ones() as usize * 4);
        f(mask, words);
        zvc = rest;
    }
}

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
        let kernel = Kernel::active();
        PACKED.with_borrow_mut(|packed| {
            // Byte `k` of every word has a histogram of its own: the
            // exponent byte is the same word after word, and one counter
            // bumped by every word waits on itself.
            let mut freq = [0u64; 256];
            for chunk in data.chunks(CHUNK_WORDS) {
                packed.clear();
                kernel.compress_append(chunk, packed);
                let mut lanes = [[0u32; 256]; 4];
                for_each_group(packed, |_, words| {
                    for word in words.chunks_exact(4) {
                        for (lane, &b) in lanes.iter_mut().zip(word) {
                            lane[b as usize] += 1;
                        }
                    }
                });
                for (s, f) in freq.iter_mut().enumerate() {
                    *f += lanes.iter().map(|lane| lane[s] as u64).sum::<u64>();
                }
            }
            let mask_bytes = data.len().div_ceil(32) * 4;
            let start = out.len();
            if freq.iter().all(|&f| f == 0) {
                out.resize(start + mask_bytes, 0);
                return;
            }
            let mut lens = [0u8; 256];
            code_lengths(&freq, MAX_CODE_LEN, &mut lens);
            let mut codes = [0u32; 256];
            lsb_codes(&lens, &mut codes);
            let payload_bits: u64 = freq.iter().zip(&lens).map(|(&f, &l)| f * l as u64).sum();
            let payload_bytes = payload_bits.div_ceil(8) as usize;

            // The stream's size is known to the byte: grow `out` once.
            let end = start + mask_bytes + 128 + payload_bytes;
            out.resize(end + WRITER_SLACK, 0);
            let (masks, rest) = out[start..].split_at_mut(mask_bytes);
            let (packed_lens, payload) = rest.split_at_mut(128);
            for (b, pair) in packed_lens.iter_mut().zip(lens.chunks_exact(2)) {
                *b = pair[0] | (pair[1] << 4);
            }
            let mut masks = masks.chunks_exact_mut(4);
            let mut w = LsbWriter::new(payload);
            for chunk in data.chunks(CHUNK_WORDS) {
                if data.len() > CHUNK_WORDS {
                    packed.clear();
                    kernel.compress_append(chunk, packed);
                }
                for_each_group(packed, |mask, words| {
                    masks
                        .next()
                        .expect("one mask per group")
                        .copy_from_slice(&mask);
                    for word in words.chunks_exact(4) {
                        // Four 15-bit codes on top of the seven bits a
                        // flush may leave do not fit the accumulator.
                        w.push_code(codes[word[0] as usize]);
                        w.push_code(codes[word[1] as usize]);
                        w.push_code(codes[word[2] as usize]);
                        w.flush();
                        w.push_code(codes[word[3] as usize]);
                        w.flush();
                    }
                });
            }
            let written = w.finish();
            debug_assert_eq!(written, payload_bytes, "payload priced wrongly");
            out.truncate(end);
        });
    }

    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        vals: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        let mask_bytes = element_count.div_ceil(32) * 4;
        if bytes.len() < mask_bytes {
            return Err(DecodeError::Corrupt("truncated mask section"));
        }
        let (masks, rest) = bytes.split_at(mask_bytes);
        let masks = masks
            .chunks_exact(4)
            .map(|m| u32::from_le_bytes(m.try_into().expect("4-byte chunk")));
        let mut nz = 0usize;
        for (g, m) in masks.clone().enumerate() {
            let valid = element_count - g * 32;
            if valid < 32 && (m >> valid) != 0 {
                return Err(DecodeError::Corrupt("mask padding bits set"));
            }
            nz += m.count_ones() as usize;
        }
        let base = vals.len();
        if nz == 0 {
            vals.resize(base + element_count, 0.0);
            return Ok(mask_bytes);
        }
        if rest.len() < 128 {
            return Err(DecodeError::Corrupt("truncated code-length table"));
        }
        let (packed_lens, payload) = rest.split_at(128);
        let mut lens = [0u8; 256];
        for (pair, &b) in lens.chunks_exact_mut(2).zip(packed_lens) {
            pair[0] = b & 0x0F;
            pair[1] = b >> 4;
        }
        with_tables(|tables| {
            let table = &mut tables.litlen;
            let complete = match table.build(&lens, &PLAIN_SYMBOLS)? {
                Coverage::Empty => return Err(DecodeError::Corrupt("empty payload alphabet")),
                Coverage::Partial => false,
                Coverage::Complete => true,
            };
            // One mask bit per word bounds this by `element_count`:
            // caller-sized, never stream-sized.
            vals.resize(base + element_count, 0.0);
            let window = &mut vals[base..];
            let mut positions = nonzero_positions(masks);
            let mut r = LsbReader::new(payload);
            if complete {
                // The fast loop, on a copy of the reader that never
                // leaves registers.
                let mut fast = r;
                while fast.unread() >= FAST_INPUT {
                    let Some(at) = positions.next() else { break };
                    window[at] = f32::from_bits(word_unchecked(table, &mut fast));
                }
                r = fast;
            }
            // The careful loop: what is left of the payload.
            for at in positions {
                window[at] = f32::from_bits(word_checked(table, &mut r)?);
            }
            Ok(mask_bytes + packed_lens.len() + r.bytes_consumed())
        })
    }
}

/// Word positions of the set bits of consecutive presence masks.
fn nonzero_positions(masks: impl Iterator<Item = u32>) -> impl Iterator<Item = usize> {
    masks.enumerate().flat_map(|(g, mut m)| {
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                g * 32 + bit
            })
        })
    })
}

/// The next four payload bytes as a little-endian word, every code
/// checked.
fn word_checked(table: &LitlenTable, r: &mut LsbReader<'_>) -> Result<u32, DecodeError> {
    let mut word = 0u32;
    for shift in [0, 8, 16, 24] {
        word |= entry::value(table.decode(r)?) << shift;
    }
    Ok(word)
}

/// [`word_checked`] without the checks, for a complete code and a reader
/// with [`FAST_INPUT`] bytes unloaded: each of its refills is a word load
/// of real input, and together they cover the word's 60 bits at most.
#[inline(always)]
fn word_unchecked(table: &LitlenTable, r: &mut LsbReader<'_>) -> u32 {
    if r.available() < MAX_CODE_LEN as u32 {
        r.refill_word();
    }
    // The first code is looked up in the bits as they were: a refill
    // only adds above them, so the two need not wait for each other.
    let front = r.bits();
    r.refill_word();
    let e0 = table.lookup(front);
    r.consume_code(e0);
    let b0 = entry::value(e0);
    let b1 = table.decode_unchecked(r);
    let b2 = table.decode_unchecked(r);
    if r.available() < MAX_CODE_LEN as u32 {
        r.refill_word();
    }
    let b3 = table.decode_unchecked(r);
    b0 | b1 << 8 | b2 << 16 | b3 << 24
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::oracle::{self, FlatTable, GrowingWriter};
    use crate::windowed::{WindowedStream, DEFAULT_WINDOW_BYTES};

    /// The decoder this codec shipped with, kept as the oracle of the
    /// differential test: masks and payload collected into vectors, one
    /// checked symbol at a time through the flat table, then a branch
    /// per word position.
    fn decompress_oracle(bytes: &[u8], element_count: usize) -> Result<Vec<f32>, DecodeError> {
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
            return Ok(vec![0.0; element_count]);
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
        let table = FlatTable::from_lengths(&lens)?
            .ok_or(DecodeError::Corrupt("empty payload alphabet"))?;
        let payload_bytes = &rest[128..];
        let mut r = LsbReader::new(payload_bytes);
        let mut payload = Vec::with_capacity(nz * 4);
        for _ in 0..nz * 4 {
            payload.push(table.decode(&mut r)? as u8);
        }
        if r.bytes_consumed() < payload_bytes.len() {
            return Err(DecodeError::TrailingData {
                expected: element_count,
            });
        }
        let mut vals = Vec::with_capacity(element_count);
        let mut p = 0usize;
        for (g, &m) in masks.iter().enumerate() {
            let valid = (element_count - g * 32).min(32);
            for i in 0..valid {
                if m & (1 << i) != 0 {
                    vals.push(f32::from_le_bytes(payload[p..p + 4].try_into().unwrap()));
                    p += 4;
                } else {
                    vals.push(0.0);
                }
            }
        }
        Ok(vals)
    }

    /// The encoder this codec shipped with, kept as the oracle of the
    /// one that runs on the ZVC kernel: a branch per word to build masks
    /// and histogram, a branch per word again to code, into a vector that
    /// grows as it goes.
    fn compress_oracle(data: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut freq = [0u64; 256];
        for chunk in data.chunks(32) {
            let mut mask = 0u32;
            for (i, w) in chunk.iter().enumerate() {
                if w.to_bits() != 0 {
                    mask |= 1 << i;
                    for b in w.to_le_bytes() {
                        freq[b as usize] += 1;
                    }
                }
            }
            out.extend_from_slice(&mask.to_le_bytes());
        }
        if freq.iter().all(|&f| f == 0) {
            return out;
        }
        let mut lens = [0u8; 256];
        code_lengths(&freq, MAX_CODE_LEN, &mut lens);
        let mut codes = [0u32; 256];
        lsb_codes(&lens, &mut codes);
        out.extend(lens.chunks_exact(2).map(|pair| pair[0] | (pair[1] << 4)));
        let mut w = GrowingWriter::new(&mut out);
        for v in data.iter().filter(|v| v.to_bits() != 0) {
            for b in v.to_le_bytes() {
                w.write_bits(codes[b as usize] & 0xFFFF, lens[b as usize] as u32);
            }
        }
        w.finish();
        out
    }

    #[test]
    fn streams_equal_the_word_loop_encoder() {
        let hf = Huff::new();
        let mut out = vec![0xEE; 3];
        let mut check = |data: &[f32], what: &str| {
            // Appended after what is there already, as the engine does.
            out.truncate(3);
            hf.compress_append(data, &mut out);
            assert!(
                out[3..] == compress_oracle(data),
                "{what}: {} words",
                data.len()
            );
            assert_eq!(out[..3], [0xEE; 3]);
        };
        for density in oracle::DENSITIES {
            let data = oracle::tensor(density);
            // Whole (nine chunks for the kernel), as DMA windows, and cut
            // to a partial last group on either side of a chunk's end.
            check(&data, "whole tensor");
            for window in data.chunks(DEFAULT_WINDOW_BYTES / 4) {
                check(window, "window");
            }
            for n in [
                1usize,
                31,
                33,
                1000,
                CHUNK_WORDS - 1,
                CHUNK_WORDS + 1,
                2 * CHUNK_WORDS + 45,
            ] {
                check(&data[data.len() - n..], "partial last group");
            }
        }
        for n in [0usize, 1, 32, 1024, CHUNK_WORDS + 7] {
            check(&vec![0.0; n], "all zero");
            check(&vec![-0.0; n], "all dense, one value");
            let dense: Vec<f32> = (0..n).map(|i| (i * 37 % 1013) as f32 + 0.25).collect();
            check(&dense, "all dense");
        }
    }

    /// Decoder and oracle on one stream: the same words bit for bit, or
    /// the same error.
    fn assert_same(stream: &[u8], element_count: usize) {
        let bits = |r: Result<Vec<f32>, DecodeError>| {
            r.map(|vals| vals.iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
        };
        let want = bits(decompress_oracle(stream, element_count));
        let got = bits(Huff::new().decompress(stream, element_count));
        assert!(
            got == want,
            "{} stream bytes, {element_count} words: oracle {:?}, decoder {:?}",
            stream.len(),
            want.as_ref().map(Vec::len),
            got.as_ref().map(Vec::len),
        );
    }

    #[test]
    fn activation_streams_decode_like_the_oracle_under_damage() {
        let hf = Huff::new();
        for density in oracle::DENSITIES {
            let data = oracle::tensor(density);
            // Whole: the edges and a spread of a stream of tens of KB.
            let whole = hf.compress(&data);
            let (edge, pieces) = if oracle::THOROUGH { (24, 48) } else { (4, 6) };
            let spread = oracle::positions(whole.len(), edge, whole.len() / pieces);
            oracle::for_each_damage(&whole, spread, |s| assert_same(s, data.len()));
            // As the engine's 4 KB windows: every position of two of
            // them, a sample of the rest.
            let windowed = WindowedStream::compress(&hf, &data, DEFAULT_WINDOW_BYTES);
            for (w, window) in data.chunks(DEFAULT_WINDOW_BYTES / 4).enumerate() {
                let stream = windowed.window(w);
                assert_eq!(stream, hf.compress(window));
                let sample = oracle::window_positions(w, stream.len());
                oracle::for_each_damage(stream, sample, |s| assert_same(s, window.len()));
            }
        }
    }

    #[test]
    fn every_payload_length_hands_over_to_the_checked_tail() {
        // 0..=70 non-zero words of skewed bytes: the payload ends at
        // every phase of the 16-byte input margin, so the switch from
        // unchecked to checked words lands everywhere, and the stream's
        // last code ends anywhere in its last byte.
        let mut state = 0x4F1D_0C0DE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for nz in 0..=70usize {
            let data: Vec<f32> = (0..96)
                .map(|i| {
                    if (i * 7) % 96 < nz {
                        let r = next();
                        f32::from_bits(0x3F00_0000 | (r % 7) as u32 | (((r >> 8) % 3) << 12) as u32)
                    } else {
                        0.0
                    }
                })
                .collect();
            let stream = Huff::new().compress(&data);
            assert_same(&stream, data.len());
            assert_eq!(roundtrip(&data), stream.len());
            for cut in 1..=20.min(stream.len()) {
                assert_same(&stream[..stream.len() - cut], data.len());
            }
        }
    }

    #[test]
    fn fifteen_bit_codes_decode_in_both_loops() {
        // Payload bytes whose Huffman tree is one long spine: sixteen
        // bytes seen once each at its foot, then counts that grow like
        // Fibonacci's. The code is as deep as the 4-bit length table
        // allows and its long codes sit in subtables. The sixteen are 15
        // bits each and come four to a word: 60 bits, more than one
        // refill holds. Those words are first, last and in the middle,
        // so both the unchecked and the checked word decode meet them,
        // and a stream cut inside one has to read as the end of input,
        // not as zeros.
        let rare = |lo: u8| f32::from_le_bytes([lo, lo + 1, lo + 2, lo + 3]);
        let (mut a, mut b) = (16usize, 26usize);
        let mut common = Vec::new();
        for value in 17..28u8 {
            common.extend(std::iter::repeat_n(value, a));
            (a, b) = (b, a + b);
        }
        let n = common.len() / 4 * 4;
        // From both ends at once, so no stretch is all short codes.
        let mut words: Vec<f32> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    common[i / 2]
                } else {
                    common[n - 1 - i / 2]
                }
            })
            .collect::<Vec<u8>>()
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let middle = words.len() / 2;
        words.splice(middle..middle, [rare(5), rare(9)]);
        words.insert(0, rare(1));
        words.push(rare(13));
        let data: Vec<f32> = words.into_iter().flat_map(|v| [v, 0.0]).collect();
        let stream = Huff::new().compress(&data);
        let lens = &stream[data.len().div_ceil(32) * 4..][..128];
        for byte in 1..=16usize {
            assert_eq!((lens[byte / 2] >> (byte % 2 * 4)) & 0x0F, 15, "byte {byte}");
        }
        assert_same(&stream, data.len());
        assert_eq!(roundtrip(&data), stream.len());
        let sample = oracle::positions(stream.len(), 400, 97);
        oracle::for_each_damage(&stream, sample, |s| assert_same(s, data.len()));
    }

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
