//! The LZ77 match stage and the RFC 1951 length/distance code tables.
//!
//! Tokenization uses hash-chained match search over a 32 KB sliding
//! window — zlib's structure, with the chain depth as the effort knob.
//! The search tables live in a reusable [`Matcher`], so a 4 KB DMA window
//! pays for the bytes it holds, not for a 32 KB-window set-up.

pub(crate) const MIN_MATCH: usize = 3;
pub(crate) const MAX_MATCH: usize = 258;
pub(crate) const WINDOW: usize = 32 * 1024;
/// Literal/length alphabet: 256 literals + end-of-block + 29 length codes.
pub(crate) const NUM_LITLEN: usize = 286;
pub(crate) const EOB: usize = 256;
pub(crate) const NUM_DIST: usize = 30;

/// DEFLATE length-code table: `(base_length, extra_bits)` for codes 257..286.
pub(crate) const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// DEFLATE distance-code table: `(base_distance, extra_bits)` for codes 0..30.
pub(crate) const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Index into [`LEN_TABLE`] of every match length, at `len - MIN_MATCH`.
const LEN_CODE: [u8; MAX_MATCH - MIN_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH - MIN_MATCH + 1];
    let mut code = 0;
    while code < LEN_TABLE.len() {
        let (base, extra) = LEN_TABLE[code];
        // Ascending codes: code 285's single length 258 overwrites the
        // last slot of code 284's 32-length span.
        let mut len = base as usize;
        while len < base as usize + (1 << extra) && len <= MAX_MATCH {
            table[len - MIN_MATCH] = code as u8;
            len += 1;
        }
        code += 1;
    }
    table
};

/// Index into [`DIST_TABLE`] of every match distance, in zlib's two
/// ranges: at `dist - 1` for distances up to 256, where codes are
/// narrower than 128, and at `256 + (dist - 1) / 128` beyond, where every
/// code spans a multiple of 128.
const DIST_CODE: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    while code < DIST_TABLE.len() {
        let (base, extra) = DIST_TABLE[code];
        let first = base as usize - 1;
        let mut k = 0;
        while k < 1 << extra {
            if first < 256 {
                table[first + k] = code as u8;
            } else {
                table[256 + ((first + k) >> 7)] = code as u8;
            }
            k += if first < 256 { 1 } else { 128 };
        }
        code += 1;
    }
    table
};

/// Maps a match length to `(litlen code, extra value, extra bits)`.
#[inline]
pub(crate) fn length_to_code(len: usize) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let idx = LEN_CODE[len - MIN_MATCH] as usize;
    let (base, extra) = LEN_TABLE[idx];
    (257 + idx, len as u16 - base, extra)
}

/// Maps a match distance to `(distance code, extra value, extra bits)`.
#[inline]
pub(crate) fn distance_to_code(dist: usize) -> (usize, u16, u8) {
    debug_assert!((1..=WINDOW).contains(&dist));
    let d = dist - 1;
    let idx = DIST_CODE[if d < 256 { d } else { 256 + (d >> 7) }] as usize;
    let (base, extra) = DIST_TABLE[idx];
    (idx, dist as u16 - base, extra)
}

/// [`Token::dist_code`] of the end token: one past the 32 distance
/// codes a code table can hold, a slot whose code is empty.
pub(crate) const NO_DIST: u8 = 32;

/// One match of the LZ77 stage and the literals that come before it, or
/// the literals that end the input: what a block writes between two
/// matches, in the style of libdeflate's sequences.
///
/// The literals are the input bytes themselves, so only their count is
/// kept. The match keeps the symbols it is coded as — its length symbol
/// and distance code with both extra values — worked out once, when it
/// is found, so that neither counting nor writing looks anything up
/// again (zlib's `sym_buf`, with the codes kept rather than the length
/// and distance). The end token's symbol is end-of-block, and its
/// distance code [`NO_DIST`]: a writer treats it as any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token {
    /// Input bytes written as literals before the symbol: from where the
    /// token before ended.
    pub(crate) literals: usize,
    /// Literal/length symbol: a length code `257..=285`, or [`EOB`].
    pub(crate) sym: u16,
    /// Bytes the match covers; 0 for the end token.
    pub(crate) len: u16,
    /// Value of the extra bits after the distance code.
    pub(crate) dist_extra: u16,
    /// Distance code, `0..30`, or [`NO_DIST`] for the end token.
    pub(crate) dist_code: u8,
    /// Value of the extra bits after the length symbol.
    pub(crate) len_extra: u8,
    /// How many extra bits follow the length symbol (0–5).
    pub(crate) len_extra_bits: u8,
    /// How many extra bits follow the distance code (0–13).
    pub(crate) dist_extra_bits: u8,
}

impl Token {
    /// `literals` bytes, then a match of `len` (`MIN_MATCH..=MAX_MATCH`)
    /// bytes `dist` (`1..=WINDOW`) back.
    #[inline]
    fn from_match(literals: usize, len: usize, dist: usize) -> Self {
        let (sym, len_extra, len_extra_bits) = length_to_code(len);
        let (dist_code, dist_extra, dist_extra_bits) = distance_to_code(dist);
        Token {
            literals,
            sym: sym as u16,
            len: len as u16,
            dist_extra,
            dist_code: dist_code as u8,
            len_extra: len_extra as u8,
            len_extra_bits,
            dist_extra_bits,
        }
    }

    /// `literals` bytes, then the end of the block.
    fn end(literals: usize) -> Self {
        Token {
            literals,
            sym: EOB as u16,
            len: 0,
            dist_extra: 0,
            dist_code: NO_DIST,
            len_extra: 0,
            len_extra_bits: 0,
            dist_extra_bits: 0,
        }
    }

    /// The match's length and distance, read back from its codes; `None`
    /// for the end token.
    #[cfg(test)]
    pub(crate) fn len_dist(self) -> Option<(usize, usize)> {
        let sym = (self.sym as usize).checked_sub(257)?;
        let len = LEN_TABLE[sym].0 as usize + self.len_extra as usize;
        let dist = DIST_TABLE[self.dist_code as usize].0 as usize + self.dist_extra as usize;
        Some((len, dist))
    }
}

/// What [`Matcher::tokenize`] produces: the tokens, the last of them the
/// end token, and what a block coder counts over them, counted as they
/// were pushed.
pub(crate) struct Tokens {
    pub(crate) list: Vec<Token>,
    /// Uses of each literal/length symbol, end-of-block (once) included.
    pub(crate) lit_freq: [u64; NUM_LITLEN],
    /// Uses of each distance code.
    pub(crate) dist_freq: [u64; NUM_DIST],
    /// Length and distance extra bits over all matches: they cost the
    /// same under every code.
    pub(crate) extra_bits: usize,
    /// Where the input past the last match starts: a token's literal
    /// count is taken from positions, not kept by a counter bumped at
    /// every literal (which would make each literal wait on the one
    /// before).
    literals_from: usize,
}

impl Tokens {
    pub(crate) fn new() -> Self {
        let mut tokens = Tokens {
            list: Vec::new(),
            lit_freq: [0; NUM_LITLEN],
            dist_freq: [0; NUM_DIST],
            extra_bits: 0,
            literals_from: 0,
        };
        tokens.clear();
        tokens
    }

    /// Empties the list and resets the counts to the end-of-block symbol
    /// alone.
    fn clear(&mut self) {
        self.list.clear();
        self.lit_freq = [0; NUM_LITLEN];
        self.lit_freq[EOB] = 1;
        self.dist_freq = [0; NUM_DIST];
        self.extra_bits = 0;
        self.literals_from = 0;
    }

    /// Counts `byte`, which goes out as a literal.
    #[inline(always)]
    pub(crate) fn count_literal(&mut self, byte: u8) {
        self.lit_freq[byte as usize] += 1;
    }

    /// Pushes a match of `len` bytes `dist` back at input position `at`,
    /// after the literals since the last one.
    #[inline(always)]
    pub(crate) fn push_match(&mut self, at: usize, len: usize, dist: usize) {
        let t = Token::from_match(at - self.literals_from, len, dist);
        self.literals_from = at + len;
        self.list.push(t);
        self.lit_freq[t.sym as usize] += 1;
        self.dist_freq[t.dist_code as usize] += 1;
        self.extra_bits += (t.len_extra_bits + t.dist_extra_bits) as usize;
    }

    /// Ends the list of an input `len` bytes long with the literals since
    /// the last match.
    pub(crate) fn finish(&mut self, len: usize) {
        self.list.push(Token::end(len - self.literals_from));
    }
}

const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash(d: &[u8], i: usize) -> usize {
    let h = (d[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((d[i + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((d[i + 2] as u32).wrapping_mul(0x1E35));
    (h as usize) & (HASH_SIZE - 1)
}

/// Length of the common prefix of `a` and `b`, at most `max_len` (both
/// hold at least `max_len` bytes), compared eight bytes at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8], max_len: usize) -> usize {
    let (a, b) = (&a[..max_len], &b[..max_len]);
    let mut l = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && a[l] == b[l] {
        l += 1;
    }
    l
}

/// The hash-chain tables of the match search, reusable across calls.
///
/// A 4 KB window touches at most 4 K of the 32 K chain heads, so clearing
/// (or allocating) the tables per call would cost more than the search.
/// Instead every call continues one *virtual position* count where the
/// last call stopped: the tables hold virtual positions, and whatever
/// lies below the current call's first position is left over from an
/// earlier input and reads as "no occurrence". Nothing is ever cleared.
pub(crate) struct Matcher {
    /// Virtual position of the latest occurrence of each 3-byte hash.
    head: Box<[u32; HASH_SIZE]>,
    /// Virtual position of the previous occurrence with the same hash, in
    /// a ring indexed by data position modulo [`WINDOW`]: a slot is
    /// rewritten only once its position is out of reach.
    prev: Box<[u32; WINDOW]>,
    /// Virtual position the next call's first byte gets; at least 1, so
    /// the zeroed tables start out empty.
    next: u32,
}

/// Virtual position at which [`Matcher::tokenize`] slides the tables
/// down; leaves room for one more match past it.
const SLIDE_AT: u32 = u32::MAX - WINDOW as u32;

impl Matcher {
    pub(crate) fn new() -> Self {
        let table = |n: usize| vec![0u32; n].into_boxed_slice();
        Matcher {
            head: table(HASH_SIZE).try_into().expect("sized above"),
            prev: table(WINDOW).try_into().expect("sized above"),
            next: 1,
        }
    }

    /// Tokenizes `data` with hash-chained LZ77 into `tokens` (cleared
    /// first), inspecting at most `max_chain` candidate positions per
    /// match attempt, and counts the symbols as it goes. The tokens depend
    /// on `data` and `max_chain` only, never on what the matcher saw
    /// before.
    pub(crate) fn tokenize(&mut self, data: &[u8], max_chain: usize, tokens: &mut Tokens) {
        tokens.clear();
        // Virtual position of `data[i]` is `i + origin` (wrapping: after a
        // slide `origin` is negative); positions below `floor` are stale.
        let mut origin = self.next;
        let mut floor = self.next;
        // Positions from here on have no 3 bytes left to hash.
        let hash_end = data.len().saturating_sub(MIN_MATCH - 1);
        let mut i = 0usize;
        while i < data.len() {
            let mut at = (i as u32).wrapping_add(origin);
            if at >= SLIDE_AT {
                // Keep everything a match can still reach (WINDOW back).
                let delta = at - (WINDOW as u32 + 1);
                for e in self.head.iter_mut().chain(self.prev.iter_mut()) {
                    *e = e.saturating_sub(delta);
                }
                origin = origin.wrapping_sub(delta);
                floor = floor.saturating_sub(delta).max(1);
                at -= delta;
            }
            if i >= hash_end {
                tokens.count_literal(data[i]);
                i += 1;
                continue;
            }
            // One hash and one chain head a position: the search walks
            // on from them and the insert puts the position in front.
            let h = hash(data, i);
            let head = self.head[h];
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let max_len = (data.len() - i).min(MAX_MATCH);
            let mut cand = head;
            let mut chain = max_chain;
            while cand >= floor && chain > 0 {
                let dist = (at - cand) as usize;
                if dist > WINDOW {
                    break;
                }
                let c = i - dist;
                // Only a longer match replaces the best one, and a
                // longer match agrees with the input at `best_len`.
                if data[c + best_len] == data[i + best_len] {
                    let l = common_prefix(&data[c..], &data[i..], max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == max_len {
                            break;
                        }
                    }
                }
                cand = self.prev[c % WINDOW];
                chain -= 1;
            }
            self.prev[i % WINDOW] = head;
            self.head[h] = at;
            if best_len < MIN_MATCH {
                tokens.count_literal(data[i]);
                i += 1;
                continue;
            }
            tokens.push_match(i, best_len, best_dist);
            // A match enters every position it covers so later data can
            // refer back inside it.
            let end = i + best_len;
            let mut j = i + 1;
            if best_dist == 1 {
                // A run of one byte (every stretch of zero words is one):
                // up to where three bytes reach past the match they hash
                // like `i`, so each position's predecessor is the one
                // before it and the chain head is the last of them.
                let same = end - (MIN_MATCH - 1);
                while j < same {
                    self.prev[j % WINDOW] = ((j - 1) as u32).wrapping_add(origin);
                    j += 1;
                }
                self.head[h] = ((same - 1) as u32).wrapping_add(origin);
            }
            for j in j..end.min(hash_end) {
                let h = hash(data, j);
                self.prev[j % WINDOW] = self.head[h];
                self.head[h] = (j as u32).wrapping_add(origin);
            }
            i = end;
        }
        tokens.finish(data.len());
        self.next = (data.len() as u32).wrapping_add(origin);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::oracle::{self, Step};
    use super::*;

    #[test]
    fn length_code_bins_are_consistent() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (code, extra_val, extra_bits) = length_to_code(len);
            assert!((257..257 + 29).contains(&code));
            let (base, eb) = LEN_TABLE[code - 257];
            assert_eq!(eb, extra_bits);
            assert_eq!(base as usize + extra_val as usize, len);
            assert!(extra_val < (1 << extra_bits) || extra_bits == 0 && extra_val == 0);
        }
    }

    #[test]
    fn distance_code_bins_are_consistent() {
        for dist in 1..=WINDOW {
            let (code, extra_val, extra_bits) = distance_to_code(dist);
            assert!(code < 30);
            let (base, eb) = DIST_TABLE[code];
            assert_eq!(eb, extra_bits);
            assert_eq!(base as usize + extra_val as usize, dist);
        }
    }

    fn tokenize(data: &[u8], max_chain: usize) -> Vec<Step> {
        let mut tokens = Tokens::new();
        Matcher::new().tokenize(data, max_chain, &mut tokens);
        oracle::steps(&tokens, data)
    }

    /// `tokens` are what the oracle tokenizer makes of `data`, counted
    /// as the histogram pass over them counts.
    fn assert_oracle_tokens(tokens: &Tokens, data: &[u8], max_chain: usize, what: &str) {
        assert!(
            oracle::steps(tokens, data) == tokenize_oracle(data, max_chain),
            "{what}: len={} max_chain={max_chain}",
            data.len()
        );
        oracle::assert_counted(tokens, data, what);
    }

    /// The tokenizer this module shipped with — fresh `usize` tables per
    /// call, a full-length `prev`, byte-at-a-time compares — kept as the
    /// oracle the reusable [`Matcher`] must agree with token for token.
    fn tokenize_oracle(data: &[u8], max_chain: usize) -> Vec<Step> {
        let mut tokens = Vec::new();
        if data.len() < MIN_MATCH {
            tokens.extend(data.iter().map(|&b| Step::Lit(b)));
            return tokens;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; data.len()];
        let mut i = 0usize;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let mut cand = head[hash(data, i)];
                let mut chain = max_chain;
                while cand != usize::MAX && chain > 0 {
                    let dist = i - cand;
                    if dist > WINDOW {
                        break;
                    }
                    let max_len = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < max_len && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == max_len {
                            break;
                        }
                    }
                    cand = prev[cand];
                    chain -= 1;
                }
            }
            if best_len >= MIN_MATCH {
                tokens.push(Step::Copy {
                    len: best_len,
                    dist: best_dist,
                });
                let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
                #[allow(clippy::needless_range_loop)] // j indexes data, prev and head together
                for j in i..end {
                    let h = hash(data, j);
                    prev[j] = head[h];
                    head[h] = j;
                }
                i += best_len;
            } else {
                tokens.push(Step::Lit(data[i]));
                if i + MIN_MATCH <= data.len() {
                    let h = hash(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        tokens
    }

    /// Seeded inputs with matches at every range: short periods, repeats
    /// farther back than the 32 KB window, long runs, and noise.
    fn corpus() -> Vec<Vec<u8>> {
        let mut state = 0x1277_C0DE_0003u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut corpus: Vec<Vec<u8>> = (0..6usize).map(|n| vec![7u8; n]).collect();
        corpus.push((0..4096u32).map(|i| (i % 37) as u8).collect());
        corpus.push(vec![0u8; 70_000]);
        // Sparse-activation bytes: zero words and few-valued non-zeros.
        corpus.push(
            (0..20_000)
                .flat_map(|_| {
                    let r = next();
                    let v = if r % 10 < 6 {
                        0.0
                    } else {
                        (r >> 8) as u8 as f32 / 8.0
                    };
                    f32::to_le_bytes(v)
                })
                .collect(),
        );
        // A 3 KB phrase book sampled over 100 KB: repeats straddle WINDOW.
        let book: Vec<u8> = (0..3000).map(|_| (next() >> 24) as u8).collect();
        let mut far = Vec::new();
        while far.len() < 100_000 {
            let at = next() as usize % (book.len() - 40);
            far.extend_from_slice(&book[at..at + 8 + next() as usize % 32]);
            if next() % 4 == 0 {
                far.extend((0..40_000 * (next() % 2) as usize).map(|_| (next() >> 24) as u8));
            }
        }
        corpus.push(far);
        corpus
    }

    #[test]
    fn reused_matcher_equals_the_fresh_table_oracle() {
        // One matcher for the whole corpus, at every effort: what an
        // earlier input left in the tables must never show.
        let mut matcher = Matcher::new();
        let mut tokens = Tokens::new();
        for max_chain in [1usize, 4, 64, 256] {
            for data in corpus() {
                matcher.tokenize(&data, max_chain, &mut tokens);
                assert_oracle_tokens(&tokens, &data, max_chain, "corpus");
            }
        }
    }

    #[test]
    fn sliding_the_tables_changes_no_token() {
        // Start the virtual position count so that the slide lands
        // mid-input, or on the first byte with only stale entries around.
        for data in corpus().into_iter().filter(|d| d.len() > WINDOW) {
            let want = tokenize_oracle(&data, 16);
            let mut matcher = Matcher::new();
            let mut tokens = Tokens::new();
            for start in [SLIDE_AT - data.len() as u32 / 2, SLIDE_AT + 5] {
                matcher.tokenize(&data, 16, &mut tokens);
                matcher.next = start;
                matcher.tokenize(&data, 16, &mut tokens);
                assert!(
                    oracle::steps(&tokens, &data) == want,
                    "len={} start={start}",
                    data.len()
                );
                assert!(matcher.next < start, "the tables slid down");
            }
        }
    }

    /// Runs of one byte — `dist == 1` matches, whose insert is filled in
    /// rather than hashed — of every length around the match limits,
    /// between stretches of noise, with `tail` more bytes after the last.
    pub(crate) fn runs(tail: usize) -> Vec<u8> {
        let mut state = 0x0D15_7A1Du64;
        let mut data = Vec::new();
        for (k, len) in (1..=12)
            .chain([257, 258, 259, 260, 261, 516, 517, 900])
            .enumerate()
        {
            data.extend((0..1 + k % 5).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8 | 1
            }));
            data.extend(std::iter::repeat_n([0u8, 0, 0x80, 7][k % 4], len));
        }
        data.extend((0..tail).map(|i| 0xF0 | i as u8));
        data
    }

    #[test]
    fn filled_in_runs_leave_the_tables_as_hashing_every_byte_did() {
        let mut matcher = Matcher::new();
        let mut tokens = Tokens::new();
        let mut check = |matcher: &mut Matcher, data: &[u8], what: &str| {
            for max_chain in [1usize, 3, 64] {
                matcher.tokenize(data, max_chain, &mut tokens);
                assert_oracle_tokens(&tokens, data, max_chain, what);
            }
        };
        // A run that ends 0, 1, 2, 3 bytes before the input does: on, at
        // and short of `hash_end`, where inserts stop.
        for tail in 0..=3 {
            check(&mut matcher, &runs(tail), "run up to the end");
        }
        // One value for longer than the `prev` ring, from an offset that
        // puts the wrap mid-match, then runs that refer back across it.
        for lead in [0usize, 1, 77, 257] {
            let mut data = runs(2)[..lead].to_vec();
            data.extend(std::iter::repeat_n(0u8, WINDOW + 3 * MAX_MATCH + 11));
            data.extend(runs(1));
            check(&mut matcher, &data, "run across the ring wrap");
        }
        // The slide between two runs, inside the noise, and on the match
        // right after a run.
        let data = [runs(3), runs(0), runs(2)].concat();
        let want = tokenize_oracle(&data, 16);
        for before in [0u32, 1, 13, 300, 301, 600, data.len() as u32 - 1] {
            matcher.next = SLIDE_AT - before;
            matcher.tokenize(&data, 16, &mut tokens);
            assert!(
                oracle::steps(&tokens, &data) == want,
                "slide {before} bytes in"
            );
            assert!(matcher.next < SLIDE_AT - before, "the tables slid down");
        }
    }

    /// Noise holding a copy of every match length, each from a distance
    /// in the next distance code's range: every length symbol and every
    /// distance code comes out of the tokenizer.
    pub(crate) fn every_code() -> Vec<u8> {
        let mut state = 0x5EED_C0DEu64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        };
        let mut data: Vec<u8> = (0..WINDOW + 64).map(|_| noise()).collect();
        for (k, len) in (MIN_MATCH..=MAX_MATCH).enumerate() {
            let (base, extra) = DIST_TABLE[k % DIST_TABLE.len()];
            let dist = base as usize + k * 7 % (1 << extra);
            for _ in 0..len {
                data.push(data[data.len() - dist]);
            }
            data.extend((0..5).map(|_| noise()));
        }
        data
    }

    #[test]
    fn every_code_is_counted_as_the_histogram_pass_counts() {
        let data = every_code();
        let mut matcher = Matcher::new();
        let mut tokens = Tokens::new();
        for max_chain in [1usize, 64] {
            matcher.tokenize(&data, max_chain, &mut tokens);
            assert_oracle_tokens(&tokens, &data, max_chain, "every code");
        }
        // The deeper search finds every copy whole.
        assert!(tokens.lit_freq[257..].iter().all(|&f| f > 0));
        assert!(tokens.dist_freq.iter().all(|&f| f > 0));
    }

    #[test]
    fn tokens_reconstruct_the_input() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 37) as u8).collect();
        let tokens = tokenize(&data, 64);
        let mut back = Vec::new();
        for &t in &tokens {
            match t {
                Step::Lit(b) => back.push(b),
                Step::Copy { len, dist } => {
                    let start = back.len() - dist;
                    for k in 0..len {
                        let b = back[start + k];
                        back.push(b);
                    }
                }
            }
        }
        assert_eq!(back, data);
        assert!(tokens.len() < data.len() / 4, "period-37 data should match");
    }
}
