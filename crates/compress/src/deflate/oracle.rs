//! The decoder this module shipped with, kept as the oracle of the
//! differential tests: a flat `1 << max_len` lookup table allocated per
//! block, one checked symbol at a time, output pushed byte by byte. Slow,
//! but every check and the order they are made in is in plain sight —
//! which is what the fast decoder has to reproduce, down to which
//! [`DecodeError`] a damaged stream gets.
//!
//! Also here: the bit writer the encoders shipped with
//! ([`GrowingWriter`]), the encoder stages the block coder replaced
//! ([`histogram`], [`rle_code_lengths`]), and the streams and the damage
//! the differential tests of `decode` and of [`crate::Huff`] run over.

use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4};

use super::bits::LsbReader;
use super::encode::{fixed_dist_lens, fixed_litlen_lens, ClSym, MAX_HEADER_LENS};
use super::huffman::{lsb_codes, MAX_CODE_LEN, MAX_SYMBOLS};
use super::lz77::{self, Tokens, DIST_TABLE, EOB, LEN_TABLE, NUM_DIST, NUM_LITLEN};
use super::CLCODE_ORDER;
use crate::DecodeError;

/// The bit writer the encoders shipped with, kept as the oracle of
/// [`super::bits::LsbWriter`]: it appends to a vector that grows as it
/// goes, four bytes whenever 32 bits have collected, so it needs to be
/// told nothing about what is coming.
pub(crate) struct GrowingWriter<'a> {
    out: &'a mut Vec<u8>,
    bitbuf: u64,
    /// Pending bits in `bitbuf`; below 32 between calls.
    nbits: u32,
}

impl<'a> GrowingWriter<'a> {
    /// Starts writing at the end of `out`.
    pub(crate) fn new(out: &'a mut Vec<u8>) -> Self {
        GrowingWriter {
            out,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Writes the low `n` bits of `val`, LSB first (`n <= 32`).
    pub(crate) fn write_bits(&mut self, val: u32, n: u32) {
        debug_assert!(n == 32 || (val as u64) < (1u64 << n));
        self.bitbuf |= (val as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out
                .extend_from_slice(&(self.bitbuf as u32).to_le_bytes());
            self.bitbuf >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pads the final partial byte with zero bits and flushes it.
    pub(crate) fn finish(self) {
        let pending = self.nbits.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.bitbuf.to_le_bytes()[..pending]);
    }
}

/// Flat-table canonical Huffman decoder: entry `i` answers "if the next
/// `max_len` bits (LSB first) were `i`, which symbol starts here and how
/// long is its code".
pub(crate) struct FlatTable {
    /// `(len << 12) | symbol`; 0 means "no code starts with these bits".
    table: Vec<u16>,
    max_len: u32,
}

impl FlatTable {
    /// `Ok(None)` for an empty alphabet, `Err` for an oversubscribed one.
    pub(crate) fn from_lengths(lens: &[u8]) -> Result<Option<Self>, DecodeError> {
        let max_len = lens.iter().copied().max().unwrap_or(0) as u32;
        if max_len == 0 {
            return Ok(None);
        }
        assert!(max_len <= MAX_CODE_LEN as u32 && lens.len() <= MAX_SYMBOLS);
        let mut total = 0u64;
        for &l in lens {
            if l > 0 {
                total += 1u64 << (max_len - l as u32);
            }
        }
        if total > 1u64 << max_len {
            return Err(DecodeError::Corrupt("oversubscribed huffman code"));
        }
        let mut codes = [0u32; MAX_SYMBOLS];
        lsb_codes(lens, &mut codes[..lens.len()]);
        let mut table = vec![0u16; 1usize << max_len];
        for (sym, &l) in lens.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let entry = ((l as u16) << 12) | sym as u16;
            let mut i = (codes[sym] & 0xFFFF) as usize;
            while i < table.len() {
                table[i] = entry;
                i += 1usize << l;
            }
        }
        Ok(Some(FlatTable { table, max_len }))
    }

    pub(crate) fn decode(&self, r: &mut LsbReader<'_>) -> Result<usize, DecodeError> {
        r.refill();
        let bits = r.bits() & ((1u64 << self.max_len) - 1);
        let avail = r.available().min(self.max_len);
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

/// Decompresses one zlib stream: the payload and the input bytes used.
pub(crate) fn inflate(bytes: &[u8], limit: usize) -> Result<(Vec<u8>, usize), DecodeError> {
    if bytes.len() < 2 {
        return Err(DecodeError::Corrupt("truncated zlib header"));
    }
    let (cmf, flg) = (bytes[0], bytes[1]);
    if cmf & 0x0F != 8 {
        return Err(DecodeError::Corrupt("unsupported compression method"));
    }
    if cmf >> 4 > 7 {
        return Err(DecodeError::Corrupt("invalid window size"));
    }
    if !(cmf as u16 * 256 + flg as u16).is_multiple_of(31) {
        return Err(DecodeError::Corrupt("zlib header check failed"));
    }
    if flg & 0x20 != 0 {
        return Err(DecodeError::Corrupt("preset dictionary unsupported"));
    }
    let mut r = LsbReader::new(&bytes[2..]);
    let mut out = Vec::new();
    loop {
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => stored_block(&mut r, &mut out, limit)?,
            1 => {
                let table = |lens: &[u8]| FlatTable::from_lengths(lens).unwrap().unwrap();
                let (lit, dist) = (table(&fixed_litlen_lens()), table(&fixed_dist_lens()));
                decode_block(&mut r, &mut out, &lit, Some(&dist), limit)?;
            }
            2 => {
                let (lit, dist) = dynamic_tables(&mut r)?;
                decode_block(&mut r, &mut out, &lit, dist.as_ref(), limit)?;
            }
            _ => return Err(DecodeError::Corrupt("reserved block type")),
        }
        if bfinal == 1 {
            break;
        }
    }
    r.align_byte();
    let mut trailer = [0u8; 4];
    for b in &mut trailer {
        *b = r.read_byte()?;
    }
    if super::adler::adler32(&out) != u32::from_be_bytes(trailer) {
        return Err(DecodeError::Corrupt("adler-32 checksum mismatch"));
    }
    Ok((out, 2 + r.bytes_consumed()))
}

fn stored_block(r: &mut LsbReader<'_>, out: &mut Vec<u8>, limit: usize) -> Result<(), DecodeError> {
    r.align_byte();
    let len = r.read_byte()? as u16 | (r.read_byte()? as u16) << 8;
    let nlen = r.read_byte()? as u16 | (r.read_byte()? as u16) << 8;
    if len != !nlen {
        return Err(DecodeError::Corrupt("stored block length check failed"));
    }
    let room = limit - out.len();
    if len as usize > room && room < r.bytes_remaining() {
        return Err(DecodeError::Corrupt("decoded data exceeds expected length"));
    }
    out.extend_from_slice(r.read_bytes(len as usize)?);
    Ok(())
}

fn dynamic_tables(r: &mut LsbReader<'_>) -> Result<(FlatTable, Option<FlatTable>), DecodeError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > NUM_LITLEN {
        return Err(DecodeError::Corrupt("too many literal/length codes"));
    }
    if hdist > NUM_DIST {
        return Err(DecodeError::Corrupt("too many distance codes"));
    }
    let mut cl_lens = [0u8; 19];
    for &s in CLCODE_ORDER.iter().take(hclen) {
        cl_lens[s] = r.read_bits(3)? as u8;
    }
    let cl = FlatTable::from_lengths(&cl_lens)?
        .ok_or(DecodeError::Corrupt("empty code-length alphabet"))?;
    let total = hlit + hdist;
    let mut lens = vec![0u8; total];
    let mut i = 0usize;
    while i < total {
        match cl.decode(r)? {
            sym @ 0..=15 => {
                lens[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(DecodeError::Corrupt(
                        "length repeat with no previous length",
                    ));
                }
                let rep = 3 + r.read_bits(2)? as usize;
                if i + rep > total {
                    return Err(DecodeError::Corrupt("code lengths exceed table size"));
                }
                let v = lens[i - 1];
                lens[i..i + rep].fill(v);
                i += rep;
            }
            17 => {
                let rep = 3 + r.read_bits(3)? as usize;
                if i + rep > total {
                    return Err(DecodeError::Corrupt("code lengths exceed table size"));
                }
                i += rep;
            }
            18 => {
                let rep = 11 + r.read_bits(7)? as usize;
                if i + rep > total {
                    return Err(DecodeError::Corrupt("code lengths exceed table size"));
                }
                i += rep;
            }
            _ => return Err(DecodeError::Corrupt("invalid code-length symbol")),
        }
    }
    if lens[EOB] == 0 {
        return Err(DecodeError::Corrupt("missing end-of-block code"));
    }
    let lit = FlatTable::from_lengths(&lens[..hlit])?
        .ok_or(DecodeError::Corrupt("empty literal/length alphabet"))?;
    let dist = FlatTable::from_lengths(&lens[hlit..])?;
    Ok((lit, dist))
}

fn decode_block(
    r: &mut LsbReader<'_>,
    out: &mut Vec<u8>,
    lit: &FlatTable,
    dist: Option<&FlatTable>,
    limit: usize,
) -> Result<(), DecodeError> {
    loop {
        let sym = lit.decode(r)?;
        if sym == EOB {
            return Ok(());
        }
        if sym < 256 {
            if out.len() >= limit {
                return Err(DecodeError::Corrupt("decoded data exceeds expected length"));
            }
            out.push(sym as u8);
            continue;
        }
        let idx = sym - 257;
        if idx >= LEN_TABLE.len() {
            return Err(DecodeError::Corrupt("invalid length code"));
        }
        let (base, extra) = LEN_TABLE[idx];
        let len = base as usize + r.read_bits(extra as u32)? as usize;
        let dtab = dist.ok_or(DecodeError::Corrupt("match without distance code"))?;
        let dsym = dtab.decode(r)?;
        if dsym >= DIST_TABLE.len() {
            return Err(DecodeError::Corrupt("invalid distance code"));
        }
        let (dbase, dextra) = DIST_TABLE[dsym];
        let d = dbase as usize + r.read_bits(dextra as u32)? as usize;
        if d > out.len() {
            return Err(DecodeError::Corrupt("match distance before stream start"));
        }
        if out.len() + len > limit {
            return Err(DecodeError::Corrupt("decoded data exceeds expected length"));
        }
        let start = out.len() - d;
        for k in 0..len {
            let b = out[start + k];
            out.push(b);
        }
    }
}

/// One entry of the flat token list the tokenizer wrote before it wrote
/// [`super::lz77::Token`]s: a literal byte or a copy. What the oracles
/// count over and the decoder's tests spell their streams in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Lit(u8),
    Copy { len: usize, dist: usize },
}

/// `steps` as the tokenizer pushes them, and the bytes they stand for.
pub(crate) fn spell(steps: &[Step]) -> (Vec<u8>, Tokens) {
    let mut data = Vec::new();
    let mut tokens = Tokens::new();
    for &step in steps {
        match step {
            Step::Lit(b) => {
                tokens.count_literal(b);
                data.push(b);
            }
            Step::Copy { len, dist } => {
                tokens.push_match(data.len(), len, dist);
                for _ in 0..len {
                    data.push(data[data.len() - dist]);
                }
            }
        }
    }
    tokens.finish(data.len());
    (data, tokens)
}

/// The flat list `tokens` over `data` stand for, each match read back
/// from its codes.
pub(crate) fn steps(tokens: &Tokens, data: &[u8]) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut pos = 0usize;
    for t in &tokens.list {
        steps.extend(data[pos..pos + t.literals].iter().map(|&b| Step::Lit(b)));
        pos += t.literals;
        if let Some((len, dist)) = t.len_dist() {
            assert_eq!(len, t.len as usize, "a token's length is its codes'");
            steps.push(Step::Copy { len, dist });
            pos += len;
        }
    }
    assert_eq!(pos, data.len(), "the tokens cover the input");
    steps
}

/// The token histogram the block coder ran after tokenizing, before the
/// tokenizer counted as it went: each match's codes found from its length
/// and distance. Returns the literal/length counts (end-of-block
/// included), the distance counts and the extra bits.
pub(crate) fn histogram(steps: &[Step]) -> ([u64; NUM_LITLEN], [u64; NUM_DIST], usize) {
    let mut lit_freq = [0u64; NUM_LITLEN];
    let mut dist_freq = [0u64; NUM_DIST];
    let mut extra_bits = 0usize;
    lit_freq[EOB] = 1;
    for &step in steps {
        match step {
            Step::Lit(b) => lit_freq[b as usize] += 1,
            Step::Copy { len, dist } => {
                let (lc, _, lex) = lz77::length_to_code(len);
                let (dc, _, dex) = lz77::distance_to_code(dist);
                lit_freq[lc] += 1;
                dist_freq[dc] += 1;
                extra_bits += lex as usize + dex as usize;
            }
        }
    }
    (lit_freq, dist_freq, extra_bits)
}

/// The counts the tokenizer kept of `data` equal [`histogram`]'s over
/// its tokens.
pub(crate) fn assert_counted(tokens: &Tokens, data: &[u8], what: &str) {
    let (lit_freq, dist_freq, extra_bits) = histogram(&steps(tokens, data));
    assert!(tokens.lit_freq == lit_freq, "{what}: literal/length counts");
    assert!(tokens.dist_freq == dist_freq, "{what}: distance counts");
    assert_eq!(tokens.extra_bits, extra_bits, "{what}: extra bits");
}

/// The code-length run-length coder the dynamic header was planned with
/// before it went by precomputed runs: one scan per run, a branch per
/// length. Writes the RFC 1951 code-length symbols of `seq` (16 repeats
/// the previous length 3–6 times, 17 codes 3–10 zeros, 18 codes 11–138)
/// and returns how many.
pub(crate) fn rle_code_lengths(seq: &[u8], out: &mut [ClSym; MAX_HEADER_LENS]) -> usize {
    let mut count = 0usize;
    let mut push = |sym: ClSym| {
        out[count] = sym;
        count += 1;
    };
    let mut i = 0usize;
    while i < seq.len() {
        let v = seq[i];
        let mut run = 1usize;
        while i + run < seq.len() && seq[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut n = run;
            while n >= 11 {
                let take = n.min(138);
                push((18, 7, (take - 11) as u8));
                n -= take;
            }
            if n >= 3 {
                push((17, 3, (n - 3) as u8));
                n = 0;
            }
            for _ in 0..n {
                push((0, 0, 0));
            }
        } else {
            push((v, 0, 0));
            let mut n = run - 1;
            while n >= 3 {
                let take = n.min(6);
                push((16, 2, (take - 3) as u8));
                n -= take;
            }
            for _ in 0..n {
                push((v, 0, 0));
            }
        }
        i += run;
    }
    count
}

/// The tensors `tests/wire_golden.rs` pins the encoders on: the paper's
/// sparse end, its network average, a dense mix, and fully dense (which
/// `ActivationGen` renders constant: long runs, 258-byte matches).
pub(crate) const DENSITIES: [f64; 4] = [0.05, 0.38, 0.75, 1.0];

pub(crate) fn tensor(density: f64) -> Vec<f32> {
    ActivationGen::seeded(12 + (density * 100.0) as u64)
        .generate(Shape4::new(1, 16, 48, 48), Layout::Nchw, density)
        .into_vec()
}

/// Calls `f` with `stream` undamaged and then with every kind of damage
/// the decoders are fuzzed with — cut short, one bit flipped, one byte
/// replaced — at each of `positions`.
pub(crate) fn for_each_damage(
    stream: &[u8],
    positions: impl Iterator<Item = usize>,
    mut f: impl FnMut(&[u8]),
) {
    f(stream);
    let mut bad = stream.to_vec();
    for pos in positions {
        f(&stream[..pos]);
        for change in (0..8).map(|bit| 1u8 << bit).chain([0xA5, 0xFF]) {
            bad[pos] ^= change;
            f(&bad);
            bad[pos] ^= change;
        }
    }
}

/// Debug builds decode some thirty times slower than release builds,
/// so they sample where a release build sweeps (CI runs both).
pub(crate) const THOROUGH: bool = !cfg!(debug_assertions);

/// The first and last `edge` positions of a stream of `len` bytes —
/// headers, trailers, the hand-over to the careful loop — and every
/// `stride`-th one between.
pub(crate) fn positions(len: usize, edge: usize, stride: usize) -> impl Iterator<Item = usize> {
    (0..len).filter(move |&p| p < edge || p + edge >= len || p % stride == 0)
}

/// The positions to damage in window `w` of a tensor, `len` stream bytes
/// long: every one for two windows of a tensor, a sample for the rest.
pub(crate) fn window_positions(w: usize, len: usize) -> impl Iterator<Item = usize> {
    let (edge, stride) = match (w % 18 == 5, THOROUGH) {
        (true, true) => (0, 1),
        (true, false) => (24, 7),
        (false, true) => (24, 37),
        (false, false) => (4, 251),
    };
    positions(len, edge, stride)
}

/// Decoder and oracle on one stream: the same payload and consumed
/// count or the same error, returned.
pub(crate) fn inflate_both(stream: &[u8], limit: usize) -> Result<(Vec<u8>, usize), DecodeError> {
    let mut out = Vec::new();
    let got = super::decode::inflate_into(stream, limit, &mut out).map(|consumed| (out, consumed));
    let want = inflate(stream, limit);
    assert!(
        got == want,
        "{} stream bytes, limit {limit}: oracle {:?}, decoder {:?}",
        stream.len(),
        want.as_ref().map(|(out, n)| (out.len(), *n)),
        got.as_ref().map(|(out, n)| (out.len(), *n)),
    );
    got
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compressor, Zlib};

    fn assert_same(stream: &[u8], limit: usize) {
        let _ = inflate_both(stream, limit);
    }

    #[test]
    fn vendored_fixtures_decode_like_the_oracle_under_damage() {
        for stream in [
            &include_bytes!("../../tests/data/external_dynamic.zz")[..],
            &include_bytes!("../../tests/data/external_fixed.zz")[..],
            &include_bytes!("../../tests/data/external_stored.zz")[..],
        ] {
            let len = inflate(stream, usize::MAX).unwrap().0.len();
            for limit in [len, len - 1, len / 2] {
                assert_same(stream, limit);
            }
            // Tens of kilobytes each: the edges and a spread of the rest.
            let (edge, pieces) = if THOROUGH { (24, 64) } else { (6, 8) };
            for_each_damage(
                stream,
                positions(stream.len(), edge, stream.len() / pieces),
                |s| assert_same(s, usize::MAX),
            );
        }
    }

    #[test]
    fn activation_windows_decode_like_the_oracle_under_damage() {
        let zl = Zlib::new();
        for density in DENSITIES {
            let data = tensor(density);
            for (w, window) in data.chunks(1024).enumerate() {
                let stream = zl.compress(window);
                for_each_damage(&stream, window_positions(w, stream.len()), |s| {
                    assert_same(s, window.len() * 4)
                });
            }
        }
    }

    #[test]
    fn whole_tensors_decode_like_the_oracle_under_damage() {
        for density in DENSITIES {
            let data = tensor(density);
            let stream = Zlib::new().compress(&data);
            let (edge, pieces) = if THOROUGH { (24, 48) } else { (4, 6) };
            for_each_damage(
                &stream,
                positions(stream.len(), edge, stream.len() / pieces),
                |s| assert_same(s, data.len() * 4),
            );
        }
    }
}
