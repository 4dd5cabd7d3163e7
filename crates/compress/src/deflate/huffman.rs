//! Length-limited canonical Huffman coding shared by the DEFLATE
//! encoder/decoder and the [`crate::Huff`] sparse codec.
//!
//! Code lengths are optimal under a length limit: Huffman's construction
//! where the limit leaves it alone (every 4 KB window so far), the
//! package-merge construction where it binds ([`code_lengths`] says why
//! the two agree symbol for symbol); code values are the canonical
//! assignment of RFC 1951 §3.2.2.
//!
//! Decoding is table-driven and sized to the 4 KB window a call decodes,
//! where building the table costs as much as a few hundred lookups. A
//! [`DecodeTable`] is two-level: the next 10 (8 for distances) LSB-first
//! bits index a primary table, and only the codes longer than that go
//! through a link to a subtable — so a build writes about a thousand
//! entries where a flat table over the longest code wrote up to 32 768.
//! Its capacity is a compile-time constant ([`table_entries`], pinned by
//! a worst-case search in the tests), so tables are plain arrays that live
//! with the thread ([`with_tables`]) and building one allocates nothing and
//! zeroes nothing. An [`entry`] says everything about its symbol — code
//! length, what kind of symbol it is, its literal byte or its match base
//! and extra-bit count — so decoding consults no second table.
//!
//! An entry carries one literal, not two. Measured on 4 KB `Huff` windows
//! at d = 0.38, literal pairs that fit the 10-bit index would save 5.5% of
//! the lookups, the pass that folds them into the table costs 1.7 µs on
//! top of a 0.9 µs build, and a word that takes three lookups or four by
//! the data decodes slower than four every time: 8.2 µs a window against
//! 4.5.
//!
//! A table is read at two speeds: [`DecodeTable::decode`] checks each
//! symbol for a missing code and for the end of input,
//! [`DecodeTable::lookup`] checks nothing and is for loops that have
//! established once, for a stretch of symbols, that neither can happen
//! (see `decode`'s module docs and [`crate::Huff`]).

use std::cell::RefCell;

use super::bits::{reverse_bits, LsbReader};
use crate::DecodeError;

/// Largest alphabet any caller codes: DEFLATE's 288 fixed literal/length
/// symbols. It sizes the stack scratch of [`code_lengths`] and
/// [`lsb_codes`], so neither allocates.
pub(crate) const MAX_SYMBOLS: usize = 288;

/// Longest code length any caller asks for (DEFLATE's and `Huff`'s limit).
pub(crate) const MAX_CODE_LEN: u8 = 15;

/// Computes length-limited code lengths for `freqs` into `lens`: optimal
/// under the limit `max_len`. Symbols with zero frequency get length 0
/// (absent from the code); a single used symbol gets length 1. For two or
/// more used symbols the result is a complete code (Kraft sum exactly 1).
///
/// Two constructions share the sorted leaves. Plain Huffman
/// ([`huffman_depths`]) runs first and is the answer whenever its deepest
/// leaf is within the limit — on a 4 KB window, always. Only when the
/// limit binds does [`package_merge`] run, as it used to for every code.
///
/// Ties are part of the wire format (they decide which of two equally
/// frequent symbols gets the shorter code), so the two must break them
/// alike: leaves sort by `(frequency, symbol)`, a leaf goes before a
/// package of equal weight, and lengths are handed out along the sorted
/// leaves, longest to the lightest. Under a slack limit package-merge's
/// lists are the levels of the Huffman tree built that way, so the two
/// agree symbol for symbol (the differential test holds them to it, and
/// fails within a few vectors if the tie rule is turned around).
pub(crate) fn code_lengths(freqs: &[u64], max_len: u8, lens: &mut [u8]) {
    assert!(freqs.len() <= MAX_SYMBOLS && max_len <= MAX_CODE_LEN);
    assert_eq!(freqs.len(), lens.len());
    lens.fill(0);
    // The used symbols, packed as `frequency << 16 | symbol` so that
    // integer order is (frequency, symbol) order. Frequencies are symbol
    // counts of an input in memory, far below 2^48.
    let mut leaves = [0u64; MAX_SYMBOLS];
    let mut n = 0usize;
    let mut all = 0u64;
    for (s, &f) in freqs.iter().enumerate() {
        // Branch-free: unused symbols are overwritten by the next one.
        leaves[n.min(MAX_SYMBOLS - 1)] = f << SYMBOL_BITS | s as u64;
        n += usize::from(f > 0);
        all |= f;
    }
    assert!(all < 1 << (64 - SYMBOL_BITS), "frequency out of range");
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
    sort_leaves(leaves);

    // `ends[c]`: how many code-length steps end after the `c` lightest
    // leaves — the length of a leaf is the number of steps it is under.
    let mut ends = [0u8; MAX_SYMBOLS + 1];
    if !huffman_depths(leaves, max_len, &mut ends) {
        ends.fill(0);
        package_merge(leaves, max_len, &mut ends);
    }
    let mut len = 0u8;
    for (rank, &leaf) in leaves.iter().enumerate().rev() {
        len += ends[rank + 1];
        lens[symbol(leaf)] = len;
    }
    debug_assert!(kraft_ok(lens));
}

/// Bits of a packed leaf (`frequency << 16 | symbol`) that hold the symbol.
const SYMBOL_BITS: u32 = 16;

fn weight(leaf: u64) -> u64 {
    leaf >> SYMBOL_BITS
}

fn symbol(leaf: u64) -> usize {
    (leaf & ((1 << SYMBOL_BITS) - 1)) as usize
}

/// Sorts packed leaves, gathered in symbol order, by `(frequency,
/// symbol)`. Nearly every count of a 4 KB window is below 256: those
/// leaves are bucketed by frequency in one stable pass, which keeps equal
/// frequencies in symbol order, and only the few heavier ones, which
/// share the last bucket, are left to a comparison sort.
fn sort_leaves(leaves: &mut [u64]) {
    /// Frequencies from here on share a bucket.
    const HEAVY: usize = 256;
    /// Below this many leaves the buckets cost more than comparing.
    const BUCKETS_MIN: usize = 48;
    if leaves.len() < BUCKETS_MIN {
        leaves.sort_unstable();
        return;
    }
    let bucket = |leaf: u64| (weight(leaf) as usize).min(HEAVY);
    let mut at = [0u16; HEAVY + 1];
    for &leaf in leaves.iter() {
        at[bucket(leaf)] += 1;
    }
    let mut start = 0u16;
    for slot in &mut at {
        (*slot, start) = (start, start + *slot);
    }
    let heavy = at[HEAVY] as usize;
    let mut sorted = [0u64; MAX_SYMBOLS];
    for &leaf in leaves.iter() {
        let slot = &mut at[bucket(leaf)];
        sorted[*slot as usize] = leaf;
        *slot += 1;
    }
    leaves.copy_from_slice(&sorted[..leaves.len()]);
    leaves[heavy..].sort_unstable();
}

/// Huffman's construction over `leaves` (sorted) by the two-queue method:
/// the two lightest of the unmerged leaves and the packages made so far
/// (which come out in ascending order, so a FIFO holds them) make the
/// next package, a leaf going first on equal weight. Counts into `ends`
/// the depth steps of the resulting tree (see [`code_lengths`]) and
/// returns `true`, or returns `false` if a leaf lies deeper than `max_len`.
fn huffman_depths(leaves: &[u64], max_len: u8, ends: &mut [u8; MAX_SYMBOLS + 1]) -> bool {
    let n = leaves.len();
    // A package not made yet is heavier than any leaf.
    let mut package = [u64::MAX; MAX_SYMBOLS];
    // The package each package went into.
    let mut parent = [0u16; MAX_SYMBOLS];
    let (mut a, mut b) = (0usize, 0usize);
    for made in 0..n - 1 {
        let mut sum = 0u64;
        for _ in 0..2 {
            if a < n && weight(leaves[a]) <= package[b] {
                sum += weight(leaves[a]);
                a += 1;
            } else {
                sum += package[b];
                parent[b] = made as u16;
                b += 1;
            }
        }
        package[made] = sum;
    }
    // Level by level down from the root, the last package. Packages are
    // used up in the order they were made, so an earlier one never lies
    // higher than a later one and a level's packages are adjacent: those
    // from `next` on are placed, `inner` of them one level up. Whatever
    // they do not parent on this level is a leaf, and the leaves of a
    // tree, deepest first, are the sorted leaves, lightest first.
    let depth = &mut package;
    depth[n - 2] = 0;
    let (mut next, mut inner, mut above) = (n - 2, 1usize, 0usize);
    for d in 1..=max_len as u64 {
        let placed = next;
        while next > 0 && depth[parent[next - 1] as usize] == d - 1 {
            next -= 1;
            depth[next] = d;
        }
        ends[n - above] += 1;
        above += 2 * inner - (placed - next);
        if above == n {
            return true;
        }
        inner = placed - next;
    }
    false
}

/// Package-merge over `leaves` (sorted), the construction that is optimal
/// under a binding length limit. Counts into `ends` the steps of the code
/// lengths (see [`code_lengths`]).
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
fn package_merge(leaves: &[u64], max_len: u8, ends: &mut [u8; MAX_SYMBOLS + 1]) {
    let n = leaves.len();
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
    let mut take = 2 * n - 2;
    for level in (0..max_len as usize).rev() {
        let level = level.min(top);
        take = take.min(sizes[level]);
        let leaf_count = is_leaf[level][..take].iter().filter(|&&l| l).count();
        ends[leaf_count] += 1;
        take = 2 * (take - leaf_count);
    }
}

fn kraft_ok(lens: &[u8]) -> bool {
    let sum: f64 = lens
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 2f64.powi(-(l as i32)))
        .sum();
    sum <= 1.0 + 1e-9
}

/// Assigns canonical code values (RFC 1951 §3.2.2) given code lengths.
/// `codes[s]` is symbol `s`'s `code | len << 16`, the code already
/// bit-reversed for the LSB-first stream: the entry goes straight into
/// [`super::bits::LsbWriter::push_code`], and its low half is the first
/// index of the symbol in a [`DecodeTable`]. Unused symbols get 0.
pub(crate) fn lsb_codes(lens: &[u8], codes: &mut [u32]) {
    assert_eq!(lens.len(), codes.len());
    const MAX: usize = MAX_CODE_LEN as usize;
    // The two halves of the alphabet side by side, as in
    // [`DecodeTable::build`]: neighbouring symbols tend to share a length,
    // and one counter bumped twice in a row waits on itself.
    let (low, high) = lens.split_at(lens.len() / 2);
    let (mut next_low, mut next_high) = ([0u32; MAX + 1], [0u32; MAX + 1]);
    for (&a, &b) in low.iter().zip(high) {
        next_low[a as usize] += 1;
        next_high[b as usize] += 1;
    }
    if let Some(&b) = high.get(low.len()) {
        next_high[b as usize] += 1;
    }
    // From counts to the first code of each length, by half. Length 0
    // keeps a slot that counts up like the others and reverses to
    // nothing, so unused symbols, which come and go without pattern,
    // take no branch.
    let mut code = 0u32;
    for (low, high) in next_low.iter_mut().zip(&mut next_high).skip(1) {
        let (in_low, in_high) = (*low, *high);
        (*low, *high) = (code, code + in_low);
        code = (code + in_low + in_high) << 1;
    }
    let assign = |next: &mut [u32; MAX + 1], l: u8| {
        let code = reverse_bits(next[l as usize], l) | (l as u32) << 16;
        next[l as usize] += 1;
        code
    };
    let (codes_low, codes_high) = codes.split_at_mut(low.len());
    for ((c, &a), (d, &b)) in codes_low
        .iter_mut()
        .zip(low)
        .zip(codes_high.iter_mut().zip(high))
    {
        *c = assign(&mut next_low, a);
        *d = assign(&mut next_high, b);
    }
    if let (Some(d), Some(&b)) = (codes_high.last_mut(), high.get(low.len())) {
        *d = assign(&mut next_high, b);
    }
}

/// One [`DecodeTable`] entry, a `u32`:
///
/// | bits   | field                                                        |
/// |--------|--------------------------------------------------------------|
/// | 0..8   | length of the whole code, 1–15                               |
/// | 8..12  | extra bits that follow the code; of a link, its index width  |
/// | 12..16 | what the symbol is: one of the flags below                   |
/// | 16..32 | literal byte or plain symbol, length or distance base, or a link's first entry |
///
/// The all-zero entry means "no code starts with these bits". The length
/// has the low byte to itself so that the bit buffer can be shifted by
/// the entry as it was loaded (a 64-bit shift reads six bits of its
/// count) while the bit count is kept elsewhere from the same byte: one
/// step less between one lookup and the next
/// ([`LsbReader::consume_code`]).
///
/// An alphabet hands [`DecodeTable::build`] its symbols as entries with
/// the length field zero, so what a symbol *means* — its base value, how
/// many extra bits follow — is read from the entry that found it and no
/// second table is consulted while decoding.
pub(crate) mod entry {
    /// A symbol that stands for itself: a literal byte, a code length.
    pub(crate) const LITERAL: u32 = 1 << 12;
    /// A match length or distance symbol: base value plus extra bits.
    pub(crate) const MATCH: u32 = 1 << 13;
    /// Neither of the two: [`END`] or [`RESERVED`], told apart by value.
    const SPECIAL: u32 = 1 << 14;
    /// Primary entry of the codes too long for the primary table: they
    /// continue in a subtable.
    pub(super) const LINK: u32 = 1 << 15;
    /// DEFLATE's end-of-block symbol.
    pub(crate) const END: u32 = SPECIAL;
    /// A symbol that has a code but no meaning (RFC 1951 §3.2.6: 286,
    /// 287, distance 30 and 31 of the fixed codes).
    pub(crate) const RESERVED: u32 = SPECIAL | 1 << 16;

    /// Bits the code occupies in the stream.
    #[inline(always)]
    pub(crate) fn code_len(e: u32) -> u32 {
        e & 0xFF
    }

    /// Extra bits after the code.
    #[inline(always)]
    pub(crate) fn extra_bits(e: u32) -> u32 {
        (e >> 8) & 0xF
    }

    /// The literal, plain symbol, or base value.
    #[inline(always)]
    pub(crate) fn value(e: u32) -> u32 {
        e >> 16
    }

    /// Whether `e` is the end-of-block symbol under some code.
    #[inline(always)]
    pub(crate) fn is_end(e: u32) -> bool {
        e & !0xFF == END
    }

    /// The entry of a symbol before it has a code.
    pub(crate) const fn symbol(kind: u32, value: u16, extra_bits: u8) -> u32 {
        kind | (value as u32) << 16 | (extra_bits as u32) << 8
    }
}

/// Entries of an alphabet whose symbols stand for themselves: `Huff`'s
/// payload bytes and, in its first 19, DEFLATE's code-length alphabet.
pub(crate) const PLAIN_SYMBOLS: [u32; 256] = {
    let mut symbols = [0u32; 256];
    let mut s = 0;
    while s < 256 {
        symbols[s] = entry::symbol(entry::LITERAL, s as u16, 0);
        s += 1;
    }
    symbols
};

/// Entries a two-level table over `symbols` codes of at most
/// [`MAX_CODE_LEN`] bits can need, `primary_bits` of them indexing the
/// primary table.
///
/// Canonical codes are packed from the all-zeros code upwards without
/// gaps, so every subtable but the last is full. A full subtable indexed
/// by `k` bits holds a complete prefix code of depth `k`, which has at
/// least `k + 1` codes; at `2^k / (k + 1)` entries per code the widest
/// subtables (`w = MAX_CODE_LEN - primary_bits` bits) are the costliest,
/// and the one that may be part empty adds `2^w` more. Real codes stay
/// far below this (code lengths only grow along the canonical order, so
/// one cheap wide subtable forces every later one to be dense); the
/// bound is what a proof this short gives.
pub(crate) const fn table_entries(symbols: usize, primary_bits: u32) -> usize {
    let w = MAX_CODE_LEN as usize - primary_bits as usize;
    (1 << primary_bits) + (symbols << w) / (w + 1) + (1 << w)
}

/// Primary index width of the literal/length and byte-alphabet tables.
pub(crate) const LITLEN_BITS: u32 = 10;
/// Primary index width of the distance tables.
pub(crate) const DIST_BITS: u32 = 8;
/// The code-length alphabet's codes are at most 7 bits: no subtables.
pub(crate) const CL_BITS: u32 = 7;

/// Table of DEFLATE's literal/length alphabet and of `Huff`'s bytes.
pub(crate) type LitlenTable = DecodeTable<LITLEN_BITS, { table_entries(MAX_SYMBOLS, LITLEN_BITS) }>;
/// Table of DEFLATE's distance alphabet (32 codes in the fixed code).
pub(crate) type DistTable = DecodeTable<DIST_BITS, { table_entries(32, DIST_BITS) }>;
/// Table of a dynamic block header's code-length alphabet.
pub(crate) type ClTable = DecodeTable<CL_BITS, { 1 << CL_BITS }>;

/// How much of the code space the lengths given to
/// [`DecodeTable::build`] use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Coverage {
    /// No symbol has a code; the table was left alone.
    Empty,
    /// Kraft sum below 1: some bit patterns start no code (the
    /// single-distance-code blocks zlib emits, a `Huff` window of one
    /// distinct byte). They are rejected when met, never at build time,
    /// because RFC-valid streams rely on them being merely unused.
    Partial,
    /// Kraft sum exactly 1: every bit pattern starts a code.
    Complete,
}

/// Two-level canonical Huffman decode table for LSB-first streams, of a
/// capacity fixed at compile time.
///
/// The next `BITS` bits of the stream index the primary table. A code of
/// at most `BITS` bits is replicated at every index that shares its low
/// bits; the longer codes behind one `BITS`-bit prefix share a *link*
/// entry there, which names a subtable indexed by as many further bits as
/// the longest of them needs. [`table_entries`] bounds what all of that
/// can take, so a table is a plain array: one per thread serves every
/// block ([`with_tables`]), and building one allocates nothing.
pub(crate) struct DecodeTable<const BITS: u32, const N: usize> {
    entries: [u32; N],
}

impl<const BITS: u32, const N: usize> DecodeTable<BITS, N> {
    pub(crate) const fn new() -> Self {
        DecodeTable { entries: [0; N] }
    }

    /// Builds the table of the canonical code with lengths `lens`
    /// (RFC 1951 §3.2.2), entering symbol `s` as `symbols[s]` plus its
    /// code length. `Err` for an oversubscribed code (Kraft sum above 1 —
    /// no prefix code exists).
    ///
    /// Symbols are taken in canonical order — by length, then by symbol —
    /// so that the primary table can grow with the code length: a table
    /// indexed by `l` bits is two copies of the one indexed by `l - 1`
    /// bits with the `l`-bit codes written over it, one store each.
    /// Nothing is zeroed first: an index no code covers is a copy, of a
    /// copy, of entry 0 as it was before any code was written, and that
    /// is set to "no code" here.
    pub(crate) fn build(&mut self, lens: &[u8], symbols: &[u32]) -> Result<Coverage, DecodeError> {
        assert!(lens.len() <= MAX_SYMBOLS && lens.len() <= symbols.len());
        const MAX: usize = MAX_CODE_LEN as usize;
        // Histogram and counting sort run over the two halves of the
        // alphabet side by side: neighbouring symbols tend to share a
        // length, and one counter bumped twice in a row waits on itself.
        let (low, high) = lens.split_at(lens.len() / 2);
        let mut halves = [[0u16; MAX + 1]; 2];
        for (&a, &b) in low.iter().zip(high) {
            halves[0][a as usize] += 1;
            halves[1][b as usize] += 1;
        }
        if let Some(&b) = high.get(low.len()) {
            halves[1][b as usize] += 1;
        }
        let mut count = [0u16; MAX + 1];
        for (l, count) in count.iter_mut().enumerate() {
            *count = halves[0][l] + halves[1][l];
        }
        let Some(max_len) = (1..=MAX).rev().find(|&l| count[l] > 0) else {
            return Ok(Coverage::Empty);
        };
        // Code space in units of 2^-MAX_CODE_LEN.
        let space: u32 = (1..=max_len).map(|l| (count[l] as u32) << (MAX - l)).sum();
        if space > 1 << MAX {
            return Err(DecodeError::Corrupt("oversubscribed huffman code"));
        }
        let complete = space == 1 << MAX;

        // Symbols in canonical order: by length, then by symbol. The
        // unused ones (length 0) sort to the front and are skipped.
        let mut sorted = [0u16; MAX_SYMBOLS];
        let mut next = [[0u16; MAX + 1]; 2];
        let mut start = 0u16;
        for l in 0..=MAX {
            next[0][l] = start;
            next[1][l] = start + halves[0][l];
            start += count[l];
        }
        let mut place = |half: usize, s: usize, l: u8| {
            let slot = &mut next[half][l as usize];
            sorted[*slot as usize] = s as u16;
            *slot += 1;
        };
        for (s, (&a, &b)) in low.iter().zip(high).enumerate() {
            place(0, s, a);
            place(1, low.len() + s, b);
        }
        if let Some(&b) = high.get(low.len()) {
            place(1, lens.len() - 1, b);
        }
        let mut at = count[0] as usize;
        let coded = lens.len();
        count[0] = 0;

        // Codes count up along the canonical order, with a zero appended
        // whenever the length grows; the table is indexed by the code as
        // the stream carries it, first bit lowest.
        let reversed = |code: u32, len: usize| (code as u16).reverse_bits() as usize >> (16 - len);
        let mut code = 0u32;
        let mut size = 1usize;
        self.entries[0] = 0;
        for (len, &codes) in count.iter().enumerate().take(BITS as usize + 1).skip(1) {
            self.entries.copy_within(..size, size);
            size *= 2;
            for _ in 0..codes {
                self.entries[reversed(code, len)] = symbols[sorted[at] as usize] | len as u32;
                code += 1;
                at += 1;
            }
            code <<= 1;
        }

        // The longer codes, one subtable per `BITS`-bit prefix. `count`
        // is from here on what is left of each length.
        let primary_mask = (1usize << BITS) - 1;
        let mut next_free = 1usize << BITS;
        let mut len = BITS as usize + 1;
        while at < coded {
            while count[len] == 0 {
                len += 1;
                code <<= 1;
            }
            // A new prefix: its subtable is as wide as it takes for the
            // codes left to fill it, or as the longest code if they
            // cannot (then this is the last subtable).
            let prefix = reversed(code, len) & primary_mask;
            let mut width = len - BITS as usize;
            let mut filled = count[len] as usize;
            while filled < 1 << width && BITS as usize + width < max_len {
                width += 1;
                filled = 2 * filled + count[BITS as usize + width] as usize;
            }
            self.entries[prefix] = entry::LINK | (next_free as u32) << 16 | (width as u32) << 8;
            let sub = &mut self.entries[next_free..next_free + (1 << width)];
            next_free += 1 << width;
            if !complete {
                sub.fill(0);
            }
            while at < coded {
                while count[len] == 0 {
                    len += 1;
                    code <<= 1;
                }
                let index = reversed(code, len);
                if index & primary_mask != prefix {
                    break;
                }
                let e = symbols[sorted[at] as usize] | len as u32;
                for slot in sub[index >> BITS..]
                    .iter_mut()
                    .step_by(1 << (len - BITS as usize))
                {
                    *slot = e;
                }
                count[len] -= 1;
                code += 1;
                at += 1;
            }
        }
        Ok(if complete {
            Coverage::Complete
        } else {
            Coverage::Partial
        })
    }

    /// The entry of the code at the front of `bits` (next stream bit
    /// lowest), or 0 if no code starts that way. Bits beyond the code are
    /// ignored, so zero padding past the end of input is harmless here;
    /// whether the code was all there is the caller's check.
    #[inline(always)]
    pub(crate) fn lookup(&self, bits: u64) -> u32 {
        let e = self.entries[bits as usize & ((1 << BITS) - 1)];
        if e & entry::LINK == 0 {
            return e;
        }
        let sub = (bits >> BITS) as usize & ((1 << entry::extra_bits(e)) - 1);
        self.entries[entry::value(e) as usize + sub]
    }

    /// Decodes one symbol with every check, returning its entry. Errors
    /// on bit patterns no code starts with and on codes cut off by the
    /// end of input.
    #[inline]
    pub(crate) fn decode(&self, r: &mut LsbReader<'_>) -> Result<u32, DecodeError> {
        r.refill();
        let e = self.lookup(r.bits());
        if e == 0 {
            return Err(DecodeError::Corrupt("invalid huffman code"));
        }
        if entry::code_len(e) > r.available() {
            return Err(DecodeError::Corrupt("unexpected end of stream"));
        }
        r.consume_code(e);
        Ok(e)
    }

    /// Decodes one symbol with no check at all and returns its value.
    /// Only for a [`Coverage::Complete`] table (every lookup finds a
    /// code) and a reader holding at least [`MAX_CODE_LEN`] real bits.
    #[inline(always)]
    pub(crate) fn decode_unchecked(&self, r: &mut LsbReader<'_>) -> u32 {
        let e = self.lookup(r.bits());
        r.consume_code(e);
        entry::value(e)
    }

    /// Entries in use after the last [`DecodeTable::build`]: the primary
    /// table and every subtable it links.
    #[cfg(test)]
    pub(crate) fn entries_used(&self) -> usize {
        let primary = &self.entries[..1 << BITS];
        primary
            .iter()
            .filter(|&&e| e & entry::LINK != 0)
            .map(|&e| entry::value(e) as usize + (1 << entry::extra_bits(e)))
            .max()
            .unwrap_or(primary.len())
    }
}

/// The two tables a DEFLATE block decodes with; `Huff` borrows the
/// literal/length one for its byte alphabet.
pub(crate) struct BlockTables {
    pub(crate) litlen: LitlenTable,
    pub(crate) dist: DistTable,
}

thread_local! {
    // Boxed on first use: inline, 14 KB of tables sit between the other
    // thread-locals of every thread, decoder or not (`serve_4k`, which
    // never decodes with them, lost 3-8% of its capacity to that).
    static TABLES: RefCell<Option<Box<BlockTables>>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's decode tables. They hold whatever the
/// last block left in them; `f` builds before it decodes.
pub(crate) fn with_tables<R>(f: impl FnOnce(&mut BlockTables) -> R) -> R {
    TABLES.with_borrow_mut(|tables| {
        f(tables.get_or_insert_with(|| {
            Box::new(BlockTables {
                litlen: DecodeTable::new(),
                dist: DecodeTable::new(),
            })
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::bits::{LsbWriter, WRITER_SLACK};

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

    /// Package-merge alone, which is how every code was built before
    /// Huffman's construction went in front of it; also sorts the plain
    /// way, so [`sort_leaves`] is held to `(frequency, symbol)` order.
    /// `None` for fewer than two used symbols (neither construction runs).
    fn package_merge_lengths(freqs: &[u64], max_len: u8) -> Option<(Vec<u8>, bool)> {
        let mut leaves: Vec<u64> = (0..freqs.len())
            .filter(|&s| freqs[s] > 0)
            .map(|s| freqs[s] << SYMBOL_BITS | s as u64)
            .collect();
        if leaves.len() < 2 {
            return None;
        }
        leaves.sort_unstable();
        let mut ends = [0u8; MAX_SYMBOLS + 1];
        let slack = huffman_depths(&leaves, max_len, &mut ends);
        ends.fill(0);
        package_merge(&leaves, max_len, &mut ends);
        let mut lens = vec![0u8; freqs.len()];
        let mut len = 0u8;
        for (rank, &leaf) in leaves.iter().enumerate().rev() {
            len += ends[rank + 1];
            lens[symbol(leaf)] = len;
        }
        Some((lens, slack))
    }

    #[test]
    fn huffman_when_the_limit_is_slack_equals_package_merge() {
        // Seeded vectors of every alphabet size in tie-rich shapes: which
        // of two equally frequent symbols gets the shorter code is wire
        // format, and the two constructions agree on it only because they
        // break ties alike (with `<` for `<=` in `huffman_depths`, 142 369
        // of the 194 688 codes Huffman then decides come out different).
        let vectors = if crate::deflate::oracle::THOROUGH {
            300_000
        } else {
            4_000
        };
        let mut seed = 0x51AC_C0DE_0017u64;
        let (mut slack, mut bound) = (0u32, 0u32);
        for round in 0..vectors {
            let n = 2 + (next(&mut seed) % 287) as usize;
            let freqs: Vec<u64> = (0..n)
                .map(|i| {
                    let r = next(&mut seed);
                    match round % 5 {
                        0 => r % 4,
                        1 => 1 + r % 17,
                        2 => 1 << (r % 14),
                        // A window's bytes: a few heavy, the rest light.
                        3 if r.is_multiple_of(16) => (r >> 8) % 4096,
                        3 => (r >> 8) % 8,
                        // A Fibonacci-like spine under a light crowd.
                        _ if i < 24 => (1u64 << i) / (1 + (r >> 8) % 3),
                        _ => r % 3,
                    }
                })
                .collect();
            let used = freqs.iter().filter(|&&f| f > 0).count();
            for max_len in [15u8, 7] {
                if max_len == 7 && n > 19 {
                    continue;
                }
                let Some((want, fits)) = package_merge_lengths(&freqs, max_len) else {
                    continue;
                };
                assert_eq!(lengths(&freqs, max_len), want, "limit {max_len}: {freqs:?}");
                *(if fits { &mut slack } else { &mut bound }) += 1;
                assert!(fits || want.contains(&max_len), "{used} used: {freqs:?}");
            }
        }
        // Both constructions have to have had their share.
        assert!(
            slack > vectors / 2 && bound > vectors / 10,
            "{slack} {bound}"
        );
    }

    #[test]
    fn a_binding_limit_falls_back_to_package_merge() {
        // Fibonacci frequencies make the deepest tree there is: one more
        // level per symbol.
        let mut fib = vec![1u64, 1];
        while fib.len() < 40 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        for (n, max_len) in [(17, 15u8), (40, 15), (9, 7), (19, 7)] {
            let (want, fits) = package_merge_lengths(&fib[..n], max_len).unwrap();
            assert!(!fits, "{n} symbols fit {max_len} bits");
            assert_eq!(lengths(&fib[..n], max_len), want);
            assert_eq!(want, code_lengths_oracle(&fib[..n], max_len));
            assert_eq!(want.iter().max(), Some(&max_len));
        }
        // One symbol fewer and the tree is exactly as deep as allowed.
        for (n, max_len) in [(16, 15u8), (8, 7)] {
            let (want, fits) = package_merge_lengths(&fib[..n], max_len).unwrap();
            assert!(fits);
            assert_eq!(lengths(&fib[..n], max_len), want);
            assert_eq!(want.iter().max(), Some(&max_len));
        }
    }

    #[test]
    fn degenerate_alphabets_get_the_codes_they_always_got() {
        for n in [2usize, 3, 4, 5, 47, 48, 49, 64, 255, 256, 286, 288] {
            // All equal: ties everywhere, on both sides of the size at
            // which `sort_leaves` starts bucketing.
            for f in [1u64, 7, 255, 256, 1 << 20] {
                let freqs = vec![f; n];
                let want = package_merge_lengths(&freqs, 15).unwrap().0;
                assert_eq!(lengths(&freqs, 15), want, "{n} x {f}");
                assert_eq!(want, code_lengths_oracle(&freqs, 15), "{n} x {f}");
            }
            // Two used symbols, wherever they are: one bit each.
            let mut freqs = vec![0u64; n];
            (freqs[0], freqs[n - 1]) = (1, 1 << 40);
            let lens = lengths(&freqs, 15);
            assert_eq!((lens[0], lens[n - 1]), (1, 1));
            assert_eq!(lens.iter().map(|&l| l as usize).sum::<usize>(), 2);
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

    /// A table of plain symbols over `lens`, and what `build` said.
    fn plain_table(lens: &[u8]) -> (Box<LitlenTable>, Result<Coverage, DecodeError>) {
        let mut table = Box::new(LitlenTable::new());
        let built = table.build(lens, &[PLAIN_SYMBOLS, PLAIN_SYMBOLS].concat());
        (table, built)
    }

    #[test]
    fn table_roundtrip_all_symbols() {
        let freqs: Vec<u64> = vec![90, 5, 5, 20, 1, 0, 64, 3];
        let lens = lengths(&freqs, 15);
        let mut codes = [0u32; 8];
        lsb_codes(&lens, &mut codes);
        let (dec, built) = plain_table(&lens);
        assert_eq!(built, Ok(Coverage::Complete));
        for s in 0..freqs.len() {
            if lens[s] == 0 {
                continue;
            }
            assert_eq!(codes[s] >> 16, lens[s] as u32);
            let mut bytes = [0u8; 2 + WRITER_SLACK];
            let mut w = LsbWriter::new(&mut bytes);
            w.push_code(codes[s]);
            let n = w.finish();
            let mut r = LsbReader::new(&bytes[..n]);
            let e = dec.decode(&mut r).unwrap();
            assert_eq!(entry::value(e) as usize, s, "symbol {s}");
            assert_eq!(entry::code_len(e), lens[s] as u32, "symbol {s}");
        }
    }

    /// Every bit pattern, looked up in the two-level table and in the
    /// flat table the decoder used to build, names the same code — or
    /// neither names one.
    fn assert_matches_flat_table<const BITS: u32, const N: usize>(
        table: &mut DecodeTable<BITS, N>,
        lens: &[u8],
    ) {
        use crate::deflate::oracle::FlatTable;
        let symbols: Vec<u32> = (0..lens.len() as u16)
            .map(|s| entry::symbol(entry::LITERAL, s, 0))
            .collect();
        let built = table.build(lens, &symbols);
        let flat = match FlatTable::from_lengths(lens) {
            Err(e) => return assert_eq!(built, Err(e), "{lens:?}"),
            Ok(None) => return assert_eq!(built, Ok(Coverage::Empty), "{lens:?}"),
            Ok(Some(flat)) => flat,
        };
        let kraft: u32 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1 << (15 - l))
            .sum();
        let coverage = if kraft == 1 << 15 {
            Coverage::Complete
        } else {
            Coverage::Partial
        };
        assert_eq!(built, Ok(coverage), "{lens:?}");
        assert!(table.entries_used() <= N);
        let max_len = *lens.iter().max().unwrap() as u32;
        for pattern in 0..1u32 << max_len {
            let bytes = pattern.to_le_bytes();
            let want = flat.decode(&mut LsbReader::new(&bytes));
            let mut r = LsbReader::new(&bytes);
            let got = table.decode(&mut r);
            match (want, got) {
                (Ok(sym), Ok(e)) => {
                    assert_eq!(entry::value(e) as usize, sym, "{lens:?} at {pattern:#b}");
                    assert_eq!(entry::code_len(e), lens[sym] as u32);
                    assert_eq!(r.available(), 32 - lens[sym] as u32);
                    assert_eq!(table.lookup(pattern as u64), e);
                }
                (Err(want), Err(got)) => assert_eq!(got, want),
                (want, got) => panic!("{lens:?} at {pattern:#b}: {want:?} vs {got:?}"),
            }
        }
    }

    #[test]
    fn two_level_tables_equal_the_flat_table_on_every_bit_pattern() {
        let mut seed = 0x7AB1_E5EE_D001u64;
        let mut litlen = Box::new(LitlenTable::new());
        let mut dist = Box::new(DistTable::new());
        let mut cl = ClTable::new();
        // Optimal codes of every shape, at limits that do and do not
        // reach past the primary tables.
        for n in [2usize, 3, 19, 30, 32, 100, 256, 286, 288] {
            for max_len in [7u8, 9, 11, 15] {
                for freqs in shapes(n, &mut seed) {
                    let used = freqs.iter().filter(|&&f| f > 0).count();
                    if used > 1 << max_len {
                        continue;
                    }
                    let lens = lengths(&freqs, max_len);
                    assert_matches_flat_table(&mut *litlen, &lens);
                    if n <= 32 {
                        assert_matches_flat_table(&mut *dist, &lens);
                    }
                    if n <= 19 && max_len <= 7 {
                        assert_matches_flat_table(&mut cl, &lens);
                    }
                }
            }
        }
        // Arbitrary length lists, as a damaged header spells them:
        // incomplete, oversubscribed, empty.
        for round in 0..600 {
            let n = 1 + (next(&mut seed) % 288) as usize;
            let top = 1 + next(&mut seed) % 15;
            let zeros = next(&mut seed) % 4;
            let lens: Vec<u8> = (0..n)
                .map(|_| {
                    let r = next(&mut seed);
                    if r % 4 < zeros {
                        0
                    } else if round % 2 == 0 {
                        (1 + (r >> 8) % top) as u8
                    } else {
                        // Mostly long codes, so that the list is often
                        // a valid incomplete code with subtables.
                        (top.max(8) - (r >> 8) % 3) as u8
                    }
                })
                .collect();
            assert_matches_flat_table(&mut *litlen, &lens);
            if n <= 32 {
                assert_matches_flat_table(&mut *dist, &lens);
            }
        }
    }

    /// The costliest length list `symbols` codes can spell for a table
    /// with `bits`-bit primary index, found by exhaustive search over how
    /// the subtables can follow one another: the canonical order packs
    /// codes without gaps and lengths only grow along it, so a subtable
    /// whose shortest code has `lo` bits and longest `hi` is full with
    /// no fewer than `2^(lo - bits) + hi - lo` codes (all `lo`-bit, the
    /// last one split down to a pair of `hi`-bit ones), and the next
    /// subtable starts at `hi`. The very last may hold a single code.
    fn costliest_lengths(symbols: usize, bits: usize) -> Vec<u8> {
        const MAX: usize = MAX_CODE_LEN as usize;
        // best[n][lo]: most entries `n` codes buy when the next subtable's
        // codes are at least `lo` bits, and the (hi, codes) that starts it.
        let mut best = vec![[(0usize, 0usize, 0usize); MAX + 2]; symbols + 1];
        for n in 1..=symbols {
            for lo in (bits + 1..=MAX).rev() {
                // A last subtable of one `MAX`-bit code.
                let mut top = (1 << (MAX - bits), MAX, 1);
                for hi in lo..=MAX {
                    let codes = (1usize << (lo - bits)) + hi - lo;
                    if codes <= n {
                        let after = best[n - codes];
                        let entries = (1 << (hi - bits)) + after[hi].0;
                        if entries > top.0 {
                            top = (entries, hi, codes);
                        }
                    }
                }
                best[n][lo] = top;
            }
        }
        // One short code ("0") keeps the rest long; what is left of the
        // alphabet follows the best chain, then pads with `MAX`-bit codes.
        let mut lens = vec![1u8];
        let (mut n, mut lo) = (symbols - 1, bits + 1);
        while n > 0 {
            let (_, hi, codes) = best[n][lo];
            if codes == 1 {
                lens.push(hi as u8);
            } else {
                lens.extend(std::iter::repeat_n(lo as u8, (1 << (lo - bits)) - 1));
                lens.extend((lo + 1..=hi).map(|l| l as u8));
                lens.push(hi as u8);
            }
            n -= codes;
            lo = hi;
        }
        lens
    }

    #[test]
    fn worst_case_codes_fit_the_table_capacity() {
        fn check<const BITS: u32, const N: usize>(symbols: usize) {
            let mut table = Box::new(DecodeTable::<BITS, N>::new());
            let mut worst = 0usize;
            let mut try_lens = |lens: &[u8]| {
                let symbols = vec![entry::LITERAL; lens.len()];
                if let Ok(Coverage::Partial | Coverage::Complete) = table.build(lens, &symbols) {
                    worst = worst.max(table.entries_used());
                }
            };
            // The searched worst case, as spelled and with its lengths
            // in every rotation (the order of symbols must not matter).
            let lens = costliest_lengths(symbols, BITS as usize);
            assert!(lens.len() <= symbols);
            for shift in 0..lens.len() {
                let mut rotated = lens.clone();
                rotated.rotate_left(shift);
                try_lens(&rotated);
            }
            // Hand-made extremes: everything at one length; a staircase
            // one code per length, closed at each possible depth.
            for len in 1..=MAX_CODE_LEN {
                try_lens(&vec![len; symbols]);
                let mut stairs: Vec<u8> = (1..=len).collect();
                stairs.push(len);
                stairs.resize(symbols.max(stairs.len()), 0);
                try_lens(&stairs[..symbols.max(len as usize + 1).min(stairs.len())]);
            }
            let bound = table_entries(symbols, BITS);
            assert!(
                bound <= N,
                "{symbols} symbols: table of {N} below bound {bound}"
            );
            assert!(
                worst <= bound,
                "{symbols} symbols: {worst} entries, bound {bound}"
            );
            assert!(
                worst > 1 << BITS || BITS >= MAX_CODE_LEN as u32 || symbols < 3,
                "{symbols} symbols: the search found no subtable"
            );
        }
        check::<LITLEN_BITS, { table_entries(MAX_SYMBOLS, LITLEN_BITS) }>(288);
        check::<LITLEN_BITS, { table_entries(MAX_SYMBOLS, LITLEN_BITS) }>(256);
        check::<DIST_BITS, { table_entries(32, DIST_BITS) }>(30);
        check::<DIST_BITS, { table_entries(32, DIST_BITS) }>(32);
        // The code-length alphabet's lengths are 3-bit fields: at most 7,
        // the whole primary index, so its table has no subtables at all.
        let mut cl = ClTable::new();
        for len in 1..=7u8 {
            let built = cl.build(&[len; 19], &PLAIN_SYMBOLS);
            assert_eq!(built.is_ok(), 19 <= 1 << len);
            assert_eq!(cl.entries_used(), 1 << CL_BITS);
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
        let mut lsb = [0u32; 288];
        lsb_codes(&lens, &mut lsb);
        let code = |s: usize| reverse_bits(lsb[s] & 0xFFFF, lens[s]);
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
        assert!(plain_table(&[1, 1, 1]).1.is_err());
    }

    #[test]
    fn incomplete_code_builds_but_rejects_unused_patterns() {
        // One length-1 code: bit 0 decodes, bit 1 must error (not panic).
        let (dec, built) = plain_table(&[1]);
        assert_eq!(built, Ok(Coverage::Partial));
        let mut r = LsbReader::new(&[0b0000_0000]);
        assert_eq!(dec.decode(&mut r).map(entry::value), Ok(0));
        let mut r = LsbReader::new(&[0b0000_0001]);
        assert!(dec.decode(&mut r).is_err());
    }

    #[test]
    fn empty_alphabet_leaves_the_table_alone() {
        let (mut dec, built) = plain_table(&[2, 1, 2]);
        assert_eq!(built, Ok(Coverage::Complete));
        let before = dec.lookup(0b01);
        assert_eq!(dec.build(&[0, 0, 0], &PLAIN_SYMBOLS), Ok(Coverage::Empty));
        assert_eq!(dec.lookup(0b01), before);
    }

    #[test]
    fn truncated_code_is_an_error() {
        // A 9-bit code with only 8 bits in the stream.
        let mut lens = vec![9u8; 256];
        lens.extend_from_slice(&[7; 24]);
        lens.extend_from_slice(&[8; 8]);
        lens[..144].fill(8);
        let (dec, _) = plain_table(&lens);
        // 0xFF.. selects a 9-bit code (literal >= 144 region).
        let mut r = LsbReader::new(&[0xFF]);
        assert_eq!(
            dec.decode(&mut r),
            Err(DecodeError::Corrupt("unexpected end of stream"))
        );
    }

    #[test]
    fn a_rebuilt_table_forgets_the_code_before() {
        // A complete code, then an incomplete one whose long codes leave
        // most of a subtable unused: nothing of the first may show through.
        let mut seed = 9u64;
        let full = lengths(&shapes(286, &mut seed)[2], 15);
        let (mut dec, built) = plain_table(&full);
        assert_eq!(built, Ok(Coverage::Complete));
        let sparse = [15u8, 0, 15, 0, 0, 14];
        assert_eq!(dec.build(&sparse, &PLAIN_SYMBOLS), Ok(Coverage::Partial));
        let flat = crate::deflate::oracle::FlatTable::from_lengths(&sparse)
            .unwrap()
            .unwrap();
        for pattern in 0..1u32 << 15 {
            let bytes = pattern.to_le_bytes();
            let want = flat.decode(&mut LsbReader::new(&bytes)).ok();
            let got = dec.decode(&mut LsbReader::new(&bytes)).ok();
            assert_eq!(got.map(|e| entry::value(e) as usize), want, "{pattern:#b}");
        }
    }
}
