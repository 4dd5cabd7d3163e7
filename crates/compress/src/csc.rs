//! Compressed-sparse-column weight compression, EIE-style.
//!
//! EIE (Han et al., ISCA 2016) stores a pruned weight matrix column by
//! column as a stream of `(4-bit zero-run, value)` entries: each entry
//! says how many zeros precede the next retained weight, so the row index
//! is *relative* and fits in a nibble. Runs longer than 15 insert a
//! padding entry (run 15, value 0) that consumes 16 zeros, exactly as the
//! paper's "padding zero" rule. Deep-compression weight sharing is the
//! second half of the format: when the distinct values of a stream fit a
//! small table, the payload stores one-byte *codebook indices* instead of
//! raw 32-bit words.
//!
//! [`Csc`] packages both as a lossless [`Compressor`]: one call compresses
//! one column (or any 1-D slice); the codebook kicks in automatically
//! whenever it is strictly smaller, which is precisely the case for
//! weights quantized to ≤ 256 shared values. Trailing zeros are implicit —
//! like every codec here, the element count travels outside the payload,
//! DMA-descriptor style.
//!
//! # Stream layout
//!
//! ```text
//! [u32 entry_count][u8 mode]                   mode 0 = raw, 1 = codebook
//! mode 1 only: [u16 len][len x u32 value bits] first-appearance order
//! [ceil(entry_count / 2) nibble bytes]         entry i -> byte i/2,
//!                                              low nibble first
//! payload: entry_count x u32 value bits (raw)
//!          entry_count x u8 codebook index (codebook)
//! ```
//!
//! "Zero" means bit pattern `0x0000_0000` exactly: `-0.0`, subnormals and
//! NaN payloads are retained values and survive bit-for-bit.
//!
//! ```
//! use cdma_compress::{Compressor, Csc};
//!
//! // A 10%-dense weight column compresses ~8x under CSC.
//! let col: Vec<f32> = (0..640)
//!     .map(|i| if i % 10 == 0 { 1.0 + i as f32 } else { 0.0 })
//!     .collect();
//! let csc = Csc::new();
//! let bytes = csc.compress(&col);
//! assert!(csc.ratio(&col) > 5.0);
//! assert_eq!(csc.decompress(&bytes, col.len()).unwrap(), col);
//!
//! // Quantized weights (few distinct values) switch to codebook indices.
//! let quant: Vec<f32> = (0..640)
//!     .map(|i| if i % 10 == 0 { [0.5f32, -0.5, 2.0][i % 3] } else { 0.0 })
//!     .collect();
//! assert!(csc.compressed_size(&quant) < csc.compressed_size(&col));
//! ```

use crate::algorithm::Compressor;
use crate::error::DecodeError;

/// Longest zero run one nibble encodes; longer runs use padding entries.
const MAX_RUN: u32 = 15;
/// Fixed header: `u32` entry count + `u8` mode.
const HEADER: usize = 5;
/// Largest codebook the one-byte index payload can address.
const MAX_CODEBOOK: usize = 256;

/// Compressed-sparse-column weight codec (see the module docs for the
/// stream layout). Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Csc;

impl Csc {
    /// Creates the codec.
    pub fn new() -> Self {
        Csc
    }

    /// Iterates the retained `(element index, value)` pairs of a CSC
    /// stream without materializing the dense column — the walk the
    /// inference engine's per-PE matvec does. Padding entries advance the
    /// index but yield nothing.
    ///
    /// The constructor validates the stream's structure (header, lengths,
    /// codebook indices), so iteration itself is infallible; indices past
    /// the caller's element count mean the stream and the descriptor
    /// disagree, exactly as [`Compressor::decompress_append`] would
    /// report.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is truncated or
    /// structurally invalid.
    ///
    /// ```
    /// use cdma_compress::{Compressor, Csc};
    ///
    /// let col = [0.0f32, 0.0, 3.5, 0.0, -1.25, 0.0];
    /// let bytes = Csc::new().compress(&col);
    /// let nz: Vec<(usize, f32)> = Csc::nonzeros(&bytes).unwrap().collect();
    /// assert_eq!(nz, vec![(2, 3.5), (4, -1.25)]);
    /// ```
    pub fn nonzeros(bytes: &[u8]) -> Result<CscNonzeros<'_>, DecodeError> {
        let (parts, len) = Parts::parse(bytes)?;
        if len != bytes.len() {
            // No element count travels with this call: the field carries
            // the stream's entry count, the only count it has.
            return Err(DecodeError::TrailingData {
                expected: parts.entries,
            });
        }
        Ok(CscNonzeros {
            parts,
            entry: 0,
            index: 0,
        })
    }
}

/// The borrowed sections of a validated CSC stream.
#[derive(Debug, Clone, Copy)]
struct Parts<'a> {
    entries: usize,
    /// `None` = raw payload, `Some` = codebook value-bits table.
    codebook: Option<&'a [u8]>,
    nibbles: &'a [u8],
    payload: &'a [u8],
}

impl<'a> Parts<'a> {
    /// Splits and structurally validates the stream at the front of
    /// `bytes`, returning it with the byte length its header describes;
    /// `decompress_prefix` and [`Csc::nonzeros`] share this so they accept
    /// exactly the same streams.
    fn parse(bytes: &'a [u8]) -> Result<(Self, usize), DecodeError> {
        if bytes.len() < HEADER {
            return Err(DecodeError::Corrupt("CSC header truncated"));
        }
        let entries = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let mode = bytes[4];
        let mut pos = HEADER;
        let codebook = match mode {
            0 => None,
            1 => {
                if bytes.len() < pos + 2 {
                    return Err(DecodeError::Corrupt("CSC codebook length truncated"));
                }
                let len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize + 1;
                pos += 2;
                if bytes.len() < pos + 4 * len {
                    return Err(DecodeError::Corrupt("CSC codebook truncated"));
                }
                let table = &bytes[pos..pos + 4 * len];
                pos += 4 * len;
                Some(table)
            }
            _ => return Err(DecodeError::Corrupt("unknown CSC mode byte")),
        };
        let nib_bytes = entries.div_ceil(2);
        let payload_bytes = entries * if codebook.is_some() { 1 } else { 4 };
        let len = pos + nib_bytes + payload_bytes;
        if bytes.len() < len {
            return Err(DecodeError::Corrupt("CSC stream truncated"));
        }
        let nibbles = &bytes[pos..pos + nib_bytes];
        let payload = &bytes[pos + nib_bytes..len];
        // Canonical form: an odd entry count leaves the last high nibble
        // unused, and encoders write it as zero.
        if entries % 2 == 1 && nibbles[nib_bytes - 1] >> 4 != 0 {
            return Err(DecodeError::Corrupt("nonzero CSC nibble padding"));
        }
        if let Some(table) = codebook {
            let len = table.len() / 4;
            if payload.iter().any(|&c| c as usize >= len) {
                return Err(DecodeError::Corrupt("CSC codebook index out of range"));
            }
        }
        let parts = Parts {
            entries,
            codebook,
            nibbles,
            payload,
        };
        Ok((parts, len))
    }

    fn run(&self, i: usize) -> u32 {
        u32::from(self.nibbles[i / 2] >> (4 * (i % 2)) & 0xF)
    }

    fn value_bits(&self, i: usize) -> u32 {
        match self.codebook {
            Some(table) => {
                let c = self.payload[i] as usize;
                u32::from_le_bytes(table[4 * c..4 * c + 4].try_into().unwrap())
            }
            None => u32::from_le_bytes(self.payload[4 * i..4 * i + 4].try_into().unwrap()),
        }
    }
}

/// Iterator over the retained values of a CSC stream (see
/// [`Csc::nonzeros`]).
#[derive(Debug, Clone)]
pub struct CscNonzeros<'a> {
    parts: Parts<'a>,
    entry: usize,
    index: usize,
}

impl Iterator for CscNonzeros<'_> {
    type Item = (usize, f32);

    fn next(&mut self) -> Option<(usize, f32)> {
        while self.entry < self.parts.entries {
            let run = self.parts.run(self.entry) as usize;
            let bits = self.parts.value_bits(self.entry);
            self.entry += 1;
            let at = self.index + run;
            self.index = at + 1;
            if bits != 0 {
                return Some((at, f32::from_bits(bits)));
            }
        }
        None
    }

    /// The whole-stream walk behind `for_each`: the same sequence as
    /// [`Iterator::next`] from wherever the iterator stands, with the
    /// payload mode matched once and the nibble and payload cursors
    /// advanced in step instead of re-indexed per entry.
    fn fold<B, F>(self, init: B, f: F) -> B
    where
        F: FnMut(B, (usize, f32)) -> B,
    {
        let Parts {
            codebook,
            nibbles,
            payload,
            ..
        } = self.parts;
        let (entry, index) = (self.entry, self.index);
        let nibbles = &nibbles[entry / 2..];
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("four-byte chunk"));
        match codebook {
            None => {
                let values = payload[4 * entry..].chunks_exact(4).map(word);
                fold_entries(nibbles, entry % 2 == 1, index, values, init, f)
            }
            Some(table) => {
                let values = payload[entry..].iter().map(|&c| {
                    let c = usize::from(c);
                    word(&table[4 * c..4 * c + 4])
                });
                fold_entries(nibbles, entry % 2 == 1, index, values, init, f)
            }
        }
    }
}

/// Folds the entries whose value bits `values` yields, one per nibble of
/// `nibbles` — starting at the first byte's high nibble when `skip_low` —
/// over the element index `index`. `values` decides where the walk ends:
/// an odd entry count leaves the last high nibble unread.
fn fold_entries<B>(
    nibbles: &[u8],
    skip_low: bool,
    mut index: usize,
    mut values: impl Iterator<Item = u32>,
    init: B,
    mut f: impl FnMut(B, (usize, f32)) -> B,
) -> B {
    let mut step = |acc: B, run: u8, bits: u32| {
        let at = index + usize::from(run);
        index = at + 1;
        if bits != 0 {
            f(acc, (at, f32::from_bits(bits)))
        } else {
            acc
        }
    };
    let mut acc = init;
    let mut nibbles = nibbles.iter();
    if skip_low {
        if let (Some(&b), Some(bits)) = (nibbles.next(), values.next()) {
            acc = step(acc, b >> 4, bits);
        }
    }
    for &b in nibbles {
        let Some(bits) = values.next() else { break };
        acc = step(acc, b & 0xF, bits);
        let Some(bits) = values.next() else { break };
        acc = step(acc, b >> 4, bits);
    }
    acc
}

/// Fixed-capacity open-addressing set of value bit patterns: tracks the
/// first [`MAX_CODEBOOK`] distinct values (in appearance order) and gives
/// each a code, with no heap allocation. Past the cap it just reports
/// overflow — the encoder falls back to the raw payload.
struct ValueSet {
    /// Open-addressed slots: `u64::MAX` = empty, else `code << 32 | bits`.
    slots: [u64; 1024],
    order: [u32; MAX_CODEBOOK],
    len: usize,
    overflow: bool,
}

impl ValueSet {
    fn new() -> Self {
        ValueSet {
            slots: [u64::MAX; 1024],
            order: [0; MAX_CODEBOOK],
            len: 0,
            overflow: false,
        }
    }

    /// Records `bits`, assigning a fresh code on first sight. Returns the
    /// code, or `None` once the set has overflowed.
    fn insert(&mut self, bits: u32) -> Option<u8> {
        if self.overflow {
            return None;
        }
        let mut slot = (bits.wrapping_mul(0x9E37_79B9) >> 22) as usize; // top 10 bits
        loop {
            let s = self.slots[slot];
            if s == u64::MAX {
                if self.len == MAX_CODEBOOK {
                    self.overflow = true;
                    return None;
                }
                let code = self.len as u8;
                self.slots[slot] = (u64::from(code) << 32) | u64::from(bits);
                self.order[self.len] = bits;
                self.len += 1;
                return Some(code);
            }
            if s as u32 == bits {
                return Some((s >> 32) as u8);
            }
            slot = (slot + 1) % self.slots.len();
        }
    }
}

/// One scan's summary: entry count plus the codebook decision.
struct Scan {
    entries: usize,
    /// Distinct value count when a codebook payload is strictly smaller.
    codebook: Option<usize>,
}

/// Walks `data` once, counting entries (padding included) and distinct
/// retained bit patterns.
fn scan(data: &[f32]) -> Scan {
    let mut set = ValueSet::new();
    let mut entries = 0usize;
    let mut run = 0u32;
    for w in data {
        let bits = w.to_bits();
        if bits == 0 {
            run += 1;
            continue;
        }
        while run > MAX_RUN {
            entries += 1;
            set.insert(0);
            run -= MAX_RUN + 1;
        }
        entries += 1;
        set.insert(bits);
        run = 0;
    }
    // Codebook payload (2 + 4·distinct + entries bytes) vs raw
    // (4·entries); pick the strictly smaller one so the choice — and the
    // byte stream — is a pure function of the data.
    let codebook = (!set.overflow && 2 + 4 * set.len + entries < 4 * entries).then_some(set.len);
    Scan { entries, codebook }
}

impl Compressor for Csc {
    fn name(&self) -> &'static str {
        "CS"
    }

    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        let plan = scan(data);
        assert!(
            u32::try_from(plan.entries).is_ok(),
            "CSC stream exceeds u32 entry count"
        );
        out.reserve(HEADER + plan.entries * 5);
        out.extend_from_slice(&(plan.entries as u32).to_le_bytes());

        // Second pass: emit entries through a closure so the nibble and
        // payload sections build in one traversal each.
        let emit = |sink: &mut dyn FnMut(u8, u32)| {
            let mut run = 0u32;
            for w in data {
                let bits = w.to_bits();
                if bits == 0 {
                    run += 1;
                    continue;
                }
                while run > MAX_RUN {
                    sink(MAX_RUN as u8, 0);
                    run -= MAX_RUN + 1;
                }
                sink(run as u8, bits);
                run = 0;
            }
        };

        match plan.codebook {
            Some(distinct) => {
                out.push(1);
                out.extend_from_slice(&((distinct - 1) as u16).to_le_bytes());
                let mut set = ValueSet::new();
                let table_at = out.len();
                out.resize(table_at + 4 * distinct, 0);
                let nib_at = out.len();
                out.resize(nib_at + plan.entries.div_ceil(2), 0);
                let mut i = 0usize;
                emit(&mut |run, bits| {
                    let code = set.insert(bits).expect("scan bounded the codebook");
                    out[table_at + 4 * code as usize..table_at + 4 * code as usize + 4]
                        .copy_from_slice(&bits.to_le_bytes());
                    out[nib_at + i / 2] |= run << (4 * (i % 2));
                    out.push(code);
                    i += 1;
                });
            }
            None => {
                out.push(0);
                let nib_at = out.len();
                out.resize(nib_at + plan.entries.div_ceil(2), 0);
                let mut i = 0usize;
                emit(&mut |run, bits| {
                    out[nib_at + i / 2] |= run << (4 * (i % 2));
                    out.extend_from_slice(&bits.to_le_bytes());
                    i += 1;
                });
            }
        }
    }

    fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        let (parts, len) = Parts::parse(bytes)?;
        out.reserve(element_count);
        let mut emitted = 0usize;
        for i in 0..parts.entries {
            let run = parts.run(i) as usize;
            if emitted + run + 1 > element_count {
                // Partial decode up to the overflow, then report it.
                for _ in 0..run.min(element_count - emitted) {
                    out.push(0.0);
                }
                return Err(DecodeError::TrailingData {
                    expected: element_count,
                });
            }
            for _ in 0..run {
                out.push(0.0);
            }
            out.push(f32::from_bits(parts.value_bits(i)));
            emitted += run + 1;
        }
        // Trailing zeros are implicit: the descriptor's element count,
        // not the stream, says how many.
        out.resize(out.len() + (element_count - emitted), 0.0);
        Ok(len)
    }

    /// Analytic size: one scan, no allocation — the traffic sweeps call
    /// this across hundreds of megabytes of generated weight columns.
    fn compressed_size(&self, data: &[f32]) -> usize {
        let plan = scan(data);
        let nib = plan.entries.div_ceil(2);
        match plan.codebook {
            Some(distinct) => HEADER + 2 + 4 * distinct + nib + plan.entries,
            None => HEADER + nib + 4 * plan.entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32]) -> Vec<u8> {
        let csc = Csc::new();
        let bytes = csc.compress(data);
        let back = csc.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(bytes.len(), csc.compressed_size(data), "analytic size");
        bytes
    }

    #[test]
    fn roundtrips_basic_patterns() {
        roundtrip(&[]);
        roundtrip(&[0.0; 100]);
        roundtrip(&[1.0; 100]);
        roundtrip(&[0.0, 0.0, 3.5, 0.0, -1.25]);
        let sparse: Vec<f32> = (0..1000)
            .map(|i| if i % 7 == 0 { i as f32 * 0.5 } else { 0.0 })
            .collect();
        roundtrip(&sparse);
    }

    #[test]
    fn roundtrips_bit_exact_specials() {
        // -0.0 is a *retained* value (bits != 0), NaN payloads and
        // subnormals survive.
        let data = [
            0.0f32,
            -0.0,
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::MIN_POSITIVE / 64.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let bytes = roundtrip(&data);
        let back = Csc::new().decompress(&bytes, data.len()).unwrap();
        assert_eq!(back[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(back[3].to_bits(), 0x7FC0_1234);
    }

    #[test]
    fn long_zero_runs_use_padding_entries() {
        // 40 zeros then a value: 2 padding entries (16 zeros each) + the
        // real entry with run 8.
        let mut data = vec![0.0f32; 40];
        data.push(9.0);
        let bytes = roundtrip(&data);
        let entries = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        assert_eq!(entries, 3);
        // Padding yields nothing from the nonzero iterator.
        let nz: Vec<_> = Csc::nonzeros(&bytes).unwrap().collect();
        assert_eq!(nz, vec![(40, 9.0)]);
    }

    #[test]
    fn trailing_zeros_are_implicit() {
        let data = [1.0f32, 0.0, 0.0, 0.0, 0.0];
        let csc = Csc::new();
        let bytes = csc.compress(&data);
        // Same stream serves any element count >= the last entry.
        assert_eq!(csc.decompress(&bytes, 5).unwrap(), data);
        assert_eq!(csc.decompress(&bytes, 2).unwrap(), [1.0, 0.0]);
        assert_eq!(
            csc.decompress(&bytes, 0),
            Err(DecodeError::TrailingData { expected: 0 })
        );
    }

    #[test]
    fn codebook_mode_kicks_in_for_quantized_values() {
        // 16 distinct values over 512 retained weights: codebook wins.
        let quant: Vec<f32> = (0..1024)
            .map(|i| {
                if i % 2 == 0 {
                    (i % 16) as f32 - 7.5
                } else {
                    0.0
                }
            })
            .collect();
        let bytes = roundtrip(&quant);
        assert_eq!(bytes[4], 1, "codebook mode");
        // Same density, all-distinct values: raw mode.
        let distinct: Vec<f32> = (0..1024)
            .map(|i| if i % 2 == 0 { 1.0 + i as f32 } else { 0.0 })
            .collect();
        let raw = roundtrip(&distinct);
        assert_eq!(raw[4], 0, "raw mode");
        assert!(bytes.len() < raw.len());
    }

    #[test]
    fn ratio_hits_the_eie_ballpark_at_fc_density() {
        // 10% density, distinct values: ~4.5 bytes/nonzero vs 40 dense.
        let data: Vec<f32> = (0..10_000)
            .map(|i| if i % 10 == 3 { 1.0 + i as f32 } else { 0.0 })
            .collect();
        let r = Csc::new().ratio(&data);
        assert!(r > 8.0 && r < 10.0, "ratio {r}");
    }

    #[test]
    fn rejects_corrupt_streams() {
        let csc = Csc::new();
        let data: Vec<f32> = (0..64).map(|i| (i % 3) as f32).collect();
        let bytes = csc.compress(&data);
        let mut out = Vec::new();
        // Truncation at every cut is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(csc.decompress_append(&bytes[..cut], 64, &mut out).is_err());
            out.clear();
        }
        // Trailing garbage: the caller's element count in the error, and
        // the iterator, which has none, still refuses it.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            csc.decompress(&long, 64),
            Err(DecodeError::TrailingData { expected: 64 })
        );
        assert!(Csc::nonzeros(&long).is_err());
        // Unknown mode byte.
        let mut bad = bytes.clone();
        bad[4] = 7;
        assert_eq!(
            csc.decompress(&bad, 64),
            Err(DecodeError::Corrupt("unknown CSC mode byte"))
        );
        // Element count smaller than the stream's reach.
        assert!(matches!(
            csc.decompress(&bytes, 3),
            Err(DecodeError::TrailingData { expected: 3 })
        ));
        assert!(Csc::nonzeros(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn rejects_out_of_range_codebook_index() {
        let csc = Csc::new();
        let quant: Vec<f32> = (0..256).map(|i| ((i % 4) + 1) as f32).collect();
        let mut bytes = csc.compress(&quant);
        assert_eq!(bytes[4], 1, "codebook mode");
        *bytes.last_mut().unwrap() = 200; // only 4 codebook slots exist
        assert_eq!(
            csc.decompress(&bytes, 256),
            Err(DecodeError::Corrupt("CSC codebook index out of range"))
        );
    }

    #[test]
    fn nonzeros_matches_dense_scan() {
        let data: Vec<f32> = (0..500)
            .map(|i| if i % 9 < 2 { -(i as f32) - 1.0 } else { 0.0 })
            .collect();
        let bytes = Csc::new().compress(&data);
        let expect: Vec<(usize, f32)> = data
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(i, &v)| (i, v))
            .collect();
        let got: Vec<_> = Csc::nonzeros(&bytes).unwrap().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn fold_yields_the_next_sequence_from_any_position() {
        // `from_fn` drains by `next()` alone; `for_each` goes through the
        // `fold` override.
        fn by_next(mut it: CscNonzeros<'_>) -> Vec<(usize, u32)> {
            std::iter::from_fn(|| it.next())
                .map(|(i, v)| (i, v.to_bits()))
                .collect()
        }
        fn by_fold(it: CscNonzeros<'_>) -> Vec<(usize, u32)> {
            let mut out = Vec::new();
            it.for_each(|(i, v)| out.push((i, v.to_bits())));
            out
        }
        // Gaps of 0..=49 zeros: runs past 15 insert padding entries, in
        // both payload modes, at even and odd entry counts.
        let column = |retained: usize, value: fn(usize) -> f32| -> Vec<f32> {
            let mut col = Vec::new();
            for k in 0..retained {
                col.resize(col.len() + (k * 7) % 50, 0.0);
                col.push(value(k));
            }
            col.resize(col.len() + 20, 0.0);
            col
        };
        let raw: fn(usize) -> f32 = |k| -1.5 - k as f32;
        let shared: fn(usize) -> f32 = |k| [0.5f32, -0.5, 2.0, -0.0][k % 4];
        let mut streams = vec![
            (Csc::new().compress(&[]), 0),
            (Csc::new().compress(&[0.0; 64]), 0),
        ];
        // Past 256 distinct values the payload stays raw.
        for retained in [1, 2, 299, 300] {
            streams.push((Csc::new().compress(&column(retained, raw)), 0));
        }
        for retained in [39, 40] {
            streams.push((Csc::new().compress(&column(retained, shared)), 1));
        }
        let mut odd_counts = 0;
        let mut padded = 0;
        for (bytes, mode) in &streams {
            assert_eq!(bytes[4], *mode, "payload mode");
            let entries = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            let all = by_next(Csc::nonzeros(bytes).unwrap());
            odd_counts += entries % 2;
            padded += usize::from(entries > all.len());
            for k in 0..=all.len() + 1 {
                let mut it = Csc::nonzeros(bytes).unwrap();
                for _ in 0..k {
                    it.next();
                }
                assert_eq!(
                    by_fold(it),
                    all[k.min(all.len())..],
                    "mode {mode}, {entries} entries, advanced {k}"
                );
            }
        }
        assert!(odd_counts >= 2 && padded >= 4, "the cases above exist");
    }

    #[test]
    fn value_set_handles_collisions_and_overflow() {
        let mut set = ValueSet::new();
        for i in 0..MAX_CODEBOOK as u32 {
            assert_eq!(set.insert(i * 1024), Some(i as u8));
        }
        // Re-inserting returns the existing codes.
        assert_eq!(set.insert(0), Some(0));
        assert_eq!(set.insert(255 * 1024), Some(255));
        // The 257th distinct value overflows — from then on, raw mode.
        assert_eq!(set.insert(0xDEAD_BEEF), None);
        assert_eq!(set.insert(0), None);
    }
}
