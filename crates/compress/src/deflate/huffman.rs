//! Length-limited canonical Huffman coding shared by the DEFLATE
//! encoder/decoder and the [`crate::Huff`] sparse codec.
//!
//! Code lengths come from the package-merge construction (optimal under a
//! length limit); code values are the canonical assignment of RFC 1951
//! §3.2.2. Decoding is table-driven: one peek of `max_len` LSB-first bits
//! indexes a flat lookup table whose entries carry `(symbol, length)`, so
//! a symbol costs one load instead of a bit-by-bit tree walk.

use super::bits::{reverse_bits, LsbReader};
use crate::DecodeError;

/// Largest alphabet any caller codes: DEFLATE's 288 fixed literal/length
/// symbols. It sizes the stack scratch of [`code_lengths`] and
/// [`lsb_codes`], so neither allocates.
pub(crate) const MAX_SYMBOLS: usize = 288;

/// Longest code length any caller asks for (DEFLATE's and `Huff`'s limit).
pub(crate) const MAX_CODE_LEN: u8 = 15;

/// Computes length-limited code lengths for `freqs` into `lens` using the
/// package-merge algorithm. Symbols with zero frequency get length 0
/// (absent from the code); a single used symbol gets length 1. For two or
/// more used symbols the construction yields a complete code (Kraft sum
/// exactly 1).
///
/// Package-merge builds `max_len` sorted lists: the first is the leaves by
/// ascending frequency, each next one merges the leaves with the
/// *packages* (adjacent pairs) of the list before it, and a symbol's code
/// length is how often it occurs under the first `2n - 2` nodes of the
/// last list. Within one list the leaves appear in sorted order, so "the
/// leaves under the first `t` nodes" is always a prefix of the sorted
/// leaves plus the packages' share one list down. Each list therefore
/// only has to remember, per node, whether it is a leaf — one byte — and
/// the lengths fall out of one walk back down the lists. No node carries
/// its leaf set, and nothing is allocated.
///
/// Ties are part of the wire format (they decide which of two equally
/// frequent symbols gets the shorter code): leaves sort by `(frequency,
/// symbol)`, and a leaf goes before a package of equal weight.
pub(crate) fn code_lengths(freqs: &[u64], max_len: u8, lens: &mut [u8]) {
    assert!(freqs.len() <= MAX_SYMBOLS && max_len <= MAX_CODE_LEN);
    assert_eq!(freqs.len(), lens.len());
    lens.fill(0);
    // The used symbols, packed as `frequency << 16 | symbol` so that one
    // integer sort orders them by (frequency, symbol). Frequencies are
    // symbol counts of an input in memory, far below 2^48.
    const SYMBOL_BITS: u32 = 16;
    let weight = |leaf: u64| leaf >> SYMBOL_BITS;
    let symbol = |leaf: u64| (leaf & ((1 << SYMBOL_BITS) - 1)) as usize;
    let mut leaves = [0u64; MAX_SYMBOLS];
    let mut n = 0usize;
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            assert!(f < 1 << (64 - SYMBOL_BITS), "frequency out of range");
            leaves[n] = f << SYMBOL_BITS | s as u64;
            n += 1;
        }
    }
    let leaves = &mut leaves[..n];
    match n {
        0 => return,
        1 => {
            lens[symbol(leaves[0])] = 1;
            return;
        }
        _ => {}
    }
    assert!(
        (1usize << max_len) >= n,
        "alphabet too large for max code length"
    );
    leaves.sort_unstable();

    // Only the first 2n - 2 nodes of a list are ever counted, and they
    // come from the first 2n - 2 nodes below, so lists stop there.
    const MAX_NODES: usize = 2 * MAX_SYMBOLS;
    let mut is_leaf = [[false; MAX_NODES]; MAX_CODE_LEN as usize];
    let mut sizes = [0usize; MAX_CODE_LEN as usize];
    let (mut below, mut weights) = (&mut [0u64; MAX_NODES], &mut [0u64; MAX_NODES]);
    for (w, &leaf) in below.iter_mut().zip(leaves.iter()) {
        *w = weight(leaf);
    }
    is_leaf[0][..n].fill(true);
    sizes[0] = n;

    // Most of a list repeats the list below it: light nodes pair up the
    // same way at every level, and only the heavy end keeps changing. A
    // merge makes the same choices as the one before for as long as it
    // draws on packages of nodes that repeat, so each list is started as
    // a copy of that part of the list below and merged from there on.
    // `package_at[j]` is where package `j` landed in the list below,
    // `placed` how many landed, `stable` how many leading weights the
    // list below shares with the one under it.
    let mut package_at = [0u16; MAX_SYMBOLS];
    let (mut placed, mut stable) = (0usize, 0usize);
    // The last list built; the lists above it would all repeat it.
    let mut top = 0usize;
    for level in 1..max_len as usize {
        let packages = sizes[level - 1] / 2;
        let size = (n + packages).min(2 * n - 2);
        let mut b = (stable / 2).min(placed);
        let kept = if b > 0 {
            package_at[b - 1] as usize + 1
        } else {
            0
        };
        let mut a = kept - b;
        let (flags_below, flags) = is_leaf.split_at_mut(level);
        let (flags_below, flags) = (&flags_below[level - 1], &mut flags[0]);
        weights[..kept].copy_from_slice(&below[..kept]);
        flags[..kept].copy_from_slice(&flags_below[..kept]);
        // A branch, not a select: leaves and packages come in runs, and a
        // select would chain every node's loads behind the one before.
        for node in kept..size {
            let leaf =
                b >= packages || (a < n && weight(leaves[a]) <= below[2 * b] + below[2 * b + 1]);
            if leaf {
                weights[node] = weight(leaves[a]);
                a += 1;
            } else {
                weights[node] = below[2 * b] + below[2 * b + 1];
                package_at[b] = node as u16;
                b += 1;
            }
            flags[node] = leaf;
        }
        placed = b;
        stable = kept
            + weights[kept..sizes[level - 1]]
                .iter()
                .zip(&below[kept..])
                .take_while(|(x, y)| x == y)
                .count();
        sizes[level] = size;
        top = level;
        if stable == size {
            break;
        }
        std::mem::swap(&mut below, &mut weights);
    }
    // Walk back down: the first `take` nodes of a list hold a prefix of
    // the sorted leaves (each one level deeper) and the first packages,
    // which are the first `2 * packages` nodes of the list below.
    // `ends[c]` counts the lists whose prefix stopped after `c` leaves.
    let mut ends = [0u8; MAX_SYMBOLS + 1];
    let mut take = 2 * n - 2;
    for level in (0..max_len as usize).rev() {
        let level = level.min(top);
        take = take.min(sizes[level]);
        let leaf_count = is_leaf[level][..take].iter().filter(|&&l| l).count();
        ends[leaf_count] += 1;
        take = 2 * (take - leaf_count);
    }
    let mut len = 0u8;
    for (rank, &leaf) in leaves.iter().enumerate().rev() {
        len += ends[rank + 1];
        lens[symbol(leaf)] = len;
    }
    debug_assert!(kraft_ok(lens));
}

fn kraft_ok(lens: &[u8]) -> bool {
    let sum: f64 = lens
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 2f64.powi(-(l as i32)))
        .sum();
    sum <= 1.0 + 1e-9
}

/// Assigns canonical code values (RFC 1951 §3.2.2) given code lengths,
/// already bit-reversed for the LSB-first stream: `codes[s]` goes straight
/// into [`super::bits::LsbWriter::write_bits`] and is the first index of
/// symbol `s` in a [`DecodeTable`].
pub(crate) fn lsb_codes(lens: &[u8], codes: &mut [u16]) {
    assert_eq!(lens.len(), codes.len());
    let mut count = [0u16; MAX_CODE_LEN as usize + 1];
    for &l in lens {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; MAX_CODE_LEN as usize + 1];
    let mut code = 0u32;
    for l in 1..=MAX_CODE_LEN as usize {
        code = (code + count[l - 1] as u32) << 1;
        next[l] = code;
    }
    for (c, &l) in codes.iter_mut().zip(lens) {
        *c = 0;
        if l > 0 {
            *c = reverse_bits(next[l as usize], l) as u16;
            next[l as usize] += 1;
        }
    }
}

/// Flat-table canonical Huffman decoder for LSB-first streams.
///
/// The table has `1 << max_len` entries; entry `i` answers "if the next
/// `max_len` bits (LSB first) were `i`, which symbol starts here and how
/// long is its code". Each code of length `l` is replicated at every
/// index sharing its `l` low bits. Unassigned entries (possible when the
/// code is *incomplete*, e.g. the single-distance-code streams zlib
/// emits) stay 0 and are rejected at decode time — never at build time,
/// because RFC-valid streams rely on them being merely unused.
pub(crate) struct DecodeTable {
    /// `(len << 12) | symbol`; 0 means "no code starts with these bits".
    table: Vec<u16>,
    max_len: u32,
}

impl DecodeTable {
    /// Builds a decode table. Returns `Ok(None)` for an empty alphabet
    /// (no symbol has a code) and `Err` for an oversubscribed one (Kraft
    /// sum above 1 — no prefix code exists).
    pub(crate) fn from_lengths(lens: &[u8]) -> Result<Option<Self>, DecodeError> {
        let max_len = lens.iter().copied().max().unwrap_or(0) as u32;
        if max_len == 0 {
            return Ok(None);
        }
        assert!(max_len <= MAX_CODE_LEN as u32 && lens.len() <= MAX_SYMBOLS);
        // Kraft sum in units of 2^-max_len: over 1 << max_len means two
        // codes would need the same bits.
        let mut total = 0u64;
        for &l in lens {
            if l > 0 {
                total += 1u64 << (max_len - l as u32);
            }
        }
        if total > 1u64 << max_len {
            return Err(DecodeError::Corrupt("oversubscribed huffman code"));
        }
        let mut codes = [0u16; MAX_SYMBOLS];
        lsb_codes(lens, &mut codes[..lens.len()]);
        let mut table = vec![0u16; 1usize << max_len];
        for (sym, &l) in lens.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let entry = ((l as u16) << 12) | sym as u16;
            let first = codes[sym] as usize;
            let step = 1usize << l;
            let mut i = first;
            while i < table.len() {
                table[i] = entry;
                i += step;
            }
        }
        Ok(Some(DecodeTable { table, max_len }))
    }

    /// Decodes one symbol. Errors on bit patterns no code starts with and
    /// on codes cut off by the end of input.
    #[inline]
    pub(crate) fn decode(&self, r: &mut LsbReader<'_>) -> Result<usize, DecodeError> {
        let (bits, avail) = r.peek(self.max_len);
        let entry = self.table[bits as usize];
        if entry == 0 {
            return Err(DecodeError::Corrupt("invalid huffman code"));
        }
        let len = (entry >> 12) as u32;
        if len > avail {
            return Err(DecodeError::Corrupt("unexpected end of stream"));
        }
        r.consume(len);
        Ok((entry & 0x0FFF) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::bits::LsbWriter;

    /// The construction this module shipped with, kept as the oracle of
    /// the differential test: package-merge over nodes that each own a
    /// clone of their leaf multiset. Quadratic in bytes and thousands of
    /// allocations per code, but every tie-break is in plain sight.
    fn code_lengths_oracle(freqs: &[u64], max_len: u8) -> Vec<u8> {
        let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        let mut lens = vec![0u8; freqs.len()];
        match used.len() {
            0 => return lens,
            1 => {
                lens[used[0]] = 1;
                return lens;
            }
            _ => {}
        }
        #[derive(Clone)]
        struct Node {
            freq: u64,
            leaves: Vec<u32>,
        }
        let mut items: Vec<Node> = used
            .iter()
            .map(|&s| Node {
                freq: freqs[s],
                leaves: vec![s as u32],
            })
            .collect();
        items.sort_by_key(|n| n.freq);
        let mut list = items.clone();
        for _ in 1..max_len {
            let mut packaged = Vec::with_capacity(list.len() / 2);
            for pair in list.chunks_exact(2) {
                let mut leaves = pair[0].leaves.clone();
                leaves.extend_from_slice(&pair[1].leaves);
                packaged.push(Node {
                    freq: pair[0].freq + pair[1].freq,
                    leaves,
                });
            }
            let mut merged = Vec::with_capacity(items.len() + packaged.len());
            let (mut a, mut b) = (0usize, 0usize);
            while a < items.len() || b < packaged.len() {
                let take_item =
                    b >= packaged.len() || (a < items.len() && items[a].freq <= packaged[b].freq);
                if take_item {
                    merged.push(items[a].clone());
                    a += 1;
                } else {
                    merged.push(packaged[b].clone());
                    b += 1;
                }
            }
            list = merged;
        }
        for node in list.iter().take(2 * used.len() - 2) {
            for &leaf in &node.leaves {
                lens[leaf as usize] += 1;
            }
        }
        lens
    }

    fn lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
        let mut lens = vec![0xAA; freqs.len()];
        code_lengths(freqs, max_len, &mut lens);
        lens
    }

    /// xorshift64 — seeded, no external crates.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Frequency shapes that force ties (which symbol of an equal pair
    /// gets the short code is wire format) and the length limit.
    fn shapes(n: usize, seed: &mut u64) -> Vec<Vec<u64>> {
        let mut fib = vec![1u64; n];
        for i in 2..n {
            fib[i] = (fib[i - 1] + fib[i - 2]).min(1 << 40);
        }
        let mut dominant = vec![1u64; n];
        dominant[n / 2] = 1 << 40;
        let mut shapes = vec![
            vec![7u64; n],
            (0..n).map(|i| if i % 3 == 0 { 2 } else { 5 }).collect(),
            fib,
            (0..n).map(|i| 1u64 << (i % 40)).collect(),
            dominant,
            (0..n as u64).rev().map(|i| i / 4 + 1).collect(),
        ];
        // Seeded random shapes: small values (many ties), with holes.
        for modulus in [3u64, 17, 1 << 20] {
            shapes.push((0..n).map(|_| next(seed) % modulus).collect());
        }
        shapes
    }

    #[test]
    fn lengths_equal_the_clone_per_node_oracle() {
        let mut seed = 0x0DD5_EED5_0012u64;
        for n in 2..=286usize {
            for max_len in [7u8, 15] {
                for freqs in shapes(n, &mut seed) {
                    let used = freqs.iter().filter(|&&f| f > 0).count();
                    if used > 1 << max_len {
                        continue;
                    }
                    let lens = lengths(&freqs, max_len);
                    assert_eq!(
                        lens,
                        code_lengths_oracle(&freqs, max_len),
                        "n={n} max_len={max_len} freqs={freqs:?}"
                    );
                    assert!(lens.iter().all(|&l| l <= max_len));
                    if used >= 2 {
                        let kraft: u64 = lens
                            .iter()
                            .filter(|&&l| l > 0)
                            .map(|&l| 1u64 << (15 - l))
                            .sum();
                        assert_eq!(kraft, 1 << 15, "n={n} max_len={max_len}");
                    }
                }
            }
        }
    }

    #[test]
    fn lengths_equal_the_oracle_on_sparse_activation_histograms() {
        // The histograms `Huff` really codes: payload bytes of the non-zero
        // words of activation-like windows (few distinct exponents, noisy
        // low mantissa bytes), at several densities and window sizes.
        let mut seed = 0xAC71_7A71_0005u64;
        for words in [64usize, 1024, 16 * 1024] {
            for nonzero_in_10 in [1u64, 4, 8, 10] {
                let mut freq = [0u64; 256];
                for _ in 0..words {
                    let r = next(&mut seed);
                    if r % 10 < nonzero_in_10 {
                        let v = ((r >> 16) % 4096) as f32 / 512.0 + 0.01;
                        for b in v.to_le_bytes() {
                            freq[b as usize] += 1;
                        }
                    }
                }
                for max_len in [7u8, 15] {
                    if freq.iter().filter(|&&f| f > 0).count() > 1 << max_len {
                        continue;
                    }
                    assert_eq!(
                        lengths(&freq, max_len),
                        code_lengths_oracle(&freq, max_len),
                        "words={words} nonzero={nonzero_in_10}/10 max_len={max_len}"
                    );
                }
            }
        }
    }

    #[test]
    fn lengths_obey_kraft_and_limit() {
        let freqs: Vec<u64> = (0..50).map(|i| (i * i + 1) as u64).collect();
        let lens = lengths(&freqs, 7);
        assert!(lens.iter().all(|&l| l <= 7));
        assert!(kraft_ok(&lens));
        assert!(lens.iter().any(|&l| l > 0));
    }

    #[test]
    fn single_symbol_gets_length_one() {
        let mut freqs = vec![0u64; 10];
        freqs[3] = 42;
        let lens = lengths(&freqs, 15);
        assert_eq!(lens[3], 1);
        assert_eq!(lens.iter().map(|&l| l as u32).sum::<u32>(), 1);
    }

    #[test]
    fn two_or_more_symbols_give_a_complete_code() {
        for n in 2..20u64 {
            let freqs: Vec<u64> = (0..n).map(|i| i * 31 + 1).collect();
            let lens = lengths(&freqs, 15);
            let kraft: u64 = lens.iter().map(|&l| 1u64 << (15 - l as u32)).sum();
            assert_eq!(kraft, 1 << 15, "incomplete code for n={n}");
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = vec![1000u64, 1, 1, 1, 1, 1, 1, 1];
        let lens = lengths(&freqs, 15);
        assert!(lens[0] < lens[7]);
    }

    #[test]
    fn table_roundtrip_all_symbols() {
        let freqs: Vec<u64> = vec![90, 5, 5, 20, 1, 0, 64, 3];
        let lens = lengths(&freqs, 15);
        let mut codes = [0u16; 8];
        lsb_codes(&lens, &mut codes);
        let dec = DecodeTable::from_lengths(&lens).unwrap().unwrap();
        for s in 0..freqs.len() {
            if lens[s] == 0 {
                continue;
            }
            let mut bytes = Vec::new();
            let mut w = LsbWriter::new(&mut bytes);
            w.write_bits(codes[s] as u32, lens[s] as u32);
            w.finish();
            let mut r = LsbReader::new(&bytes);
            assert_eq!(dec.decode(&mut r).unwrap(), s, "symbol {s}");
        }
    }

    #[test]
    fn fixed_litlen_codes_match_rfc_values() {
        // RFC 1951 §3.2.6 spells out the fixed literal/length code
        // (most significant code bit first); the canonical assignment,
        // un-reversed, must reproduce it exactly.
        let mut lens = [0u8; 288];
        lens[..144].fill(8);
        lens[144..256].fill(9);
        lens[256..280].fill(7);
        lens[280..].fill(8);
        let mut lsb = [0u16; 288];
        lsb_codes(&lens, &mut lsb);
        let code = |s: usize| reverse_bits(lsb[s] as u32, lens[s]);
        assert_eq!(code(0), 0b0011_0000);
        assert_eq!(code(143), 0b1011_1111);
        assert_eq!(code(144), 0b1_1001_0000);
        assert_eq!(code(255), 0b1_1111_1111);
        assert_eq!(code(256), 0);
        assert_eq!(code(279), 0b001_0111);
        assert_eq!(code(280), 0b1100_0000);
        assert_eq!(code(287), 0b1100_0111);
    }

    #[test]
    fn oversubscribed_lengths_are_rejected() {
        // Three codes of length 1 cannot coexist.
        assert!(DecodeTable::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn incomplete_code_builds_but_rejects_unused_patterns() {
        // One length-1 code: bit 0 decodes, bit 1 must error (not panic).
        let dec = DecodeTable::from_lengths(&[1]).unwrap().unwrap();
        let mut r = LsbReader::new(&[0b0000_0000]);
        assert_eq!(dec.decode(&mut r).unwrap(), 0);
        let mut r = LsbReader::new(&[0b0000_0001]);
        assert!(dec.decode(&mut r).is_err());
    }

    #[test]
    fn empty_alphabet_has_no_table() {
        assert!(DecodeTable::from_lengths(&[0, 0, 0]).unwrap().is_none());
    }

    #[test]
    fn truncated_code_is_an_error() {
        // A 9-bit code with only 8 bits in the stream.
        let mut lens = vec![9u8; 256];
        lens.extend_from_slice(&[7; 24]);
        lens[..144].fill(8);
        let dec = DecodeTable::from_lengths(&lens).unwrap().unwrap();
        // 0xFF.. selects a 9-bit code (literal >= 144 region).
        let mut r = LsbReader::new(&[0xFF]);
        assert!(dec.decode(&mut r).is_err());
    }
}
