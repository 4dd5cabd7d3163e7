//! The RFC 1950/1951 inflate state machine.
//!
//! Decodes complete zlib streams from *any* conforming producer: header
//! validation (method, window size, check bits, no preset dictionary),
//! all three block types, the dynamic code-length alphabet with its
//! 16/17/18 repeat codes, and the Adler-32 trailer. Every malformed-input
//! path returns a [`DecodeError`]; nothing panics, and nothing is sized
//! from untrusted header fields (output grows only as bytes are actually
//! produced, capped by the caller's `limit`).
//!
//! The engine inflates one 4 KB DMA window per call, so nothing here is
//! set up per call either: a block's decode tables are this thread's
//! ([`super::huffman::with_tables`]), a dynamic header's length list is a
//! stack array, and [`inflate_with`] decodes into a per-thread buffer.
//! Once a thread is warm, inflating a window allocates nothing.
//!
//! # The two loops of a coded block
//!
//! `decode_block` runs a *fast loop* for as long as two margins hold, and
//! falls back to a *careful loop* for one symbol whenever they do not.
//! Both read the same tables and the same entries.
//!
//! * **Input margin** ([`FAST_INPUT`]): at least 15 bytes not yet loaded
//!   into the bit reader. An iteration refills before its first code and
//!   again before a match that follows literals; the first refill loads
//!   seven bytes at most, so both find the eight they need to be one word
//!   load each, and a word load leaves 56 bits or more of real input. No
//!   stretch between refills takes more than one whole match — 15 + 5 +
//!   15 + 13 = 48 bits — or three literals, 45. So the fast loop never
//!   asks whether a code was cut off by the end of input.
//! * **Output room** ([`FAST_LITERALS`]): space for three literals below
//!   `limit`, checked once per iteration; a match is checked against the
//!   room that is left when its length is known.
//!
//! The fast loop reports nothing. Whatever it cannot handle — the end of
//! block, a bit pattern without a code, a reserved symbol, a distance
//! before the start of the output, a match past `limit` — it leaves
//! *unconsumed* and exits; the careful loop then decodes that same symbol
//! with every check in the order this decoder has always made them, and
//! is the only place an error is built. The careful loop is also what
//! decodes the last bytes of the input and of the output, and blocks
//! without a distance code.

use std::cell::RefCell;
use std::sync::OnceLock;

use super::bits::LsbReader;
use super::encode::{fixed_dist_lens, fixed_litlen_lens, SCRATCH_KEEP};
use super::huffman::{
    entry, with_tables, BlockTables, ClTable, Coverage, DecodeTable, DistTable, LitlenTable,
    PLAIN_SYMBOLS,
};
use super::lz77::{DIST_TABLE, EOB, LEN_TABLE, NUM_DIST, NUM_LITLEN};
use super::CLCODE_ORDER;
use crate::DecodeError;

/// Unloaded input bytes the fast loop needs at the top of an iteration:
/// its first refill loads up to seven, its second must find eight.
const FAST_INPUT: usize = 7 + 8;

/// Output bytes the fast loop may write per iteration before it looks at
/// `limit` again (a match is checked on its own).
const FAST_LITERALS: usize = 3;

/// DEFLATE's best case: a 258-byte match in two bits.
const MAX_EXPANSION: usize = 1032;

/// The literal/length alphabet as table entries: literals, the end of
/// block, the 29 length symbols with their base and extra-bit count, and
/// the two symbols only the fixed code can spell.
const LITLEN_SYMBOLS: [u32; 288] = {
    let mut symbols = [entry::RESERVED; 288];
    let mut s = 0;
    while s < 256 {
        symbols[s] = PLAIN_SYMBOLS[s];
        s += 1;
    }
    symbols[EOB] = entry::END;
    let mut i = 0;
    while i < LEN_TABLE.len() {
        symbols[257 + i] = entry::symbol(entry::MATCH, LEN_TABLE[i].0, LEN_TABLE[i].1);
        i += 1;
    }
    symbols
};

/// The distance alphabet as table entries (30 and 31 are reserved).
const DIST_SYMBOLS: [u32; 32] = {
    let mut symbols = [entry::RESERVED; 32];
    let mut i = 0;
    while i < DIST_TABLE.len() {
        symbols[i] = entry::symbol(entry::MATCH, DIST_TABLE[i].0, DIST_TABLE[i].1);
        i += 1;
    }
    symbols
};

/// The fixed-Huffman decode tables of RFC 1951 §3.2.6, built on first use.
fn fixed_tables() -> &'static BlockTables {
    static TABLES: OnceLock<BlockTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = BlockTables {
            litlen: DecodeTable::new(),
            dist: DecodeTable::new(),
        };
        let litlen = tables.litlen.build(&fixed_litlen_lens(), &LITLEN_SYMBOLS);
        let dist = tables.dist.build(&fixed_dist_lens(), &DIST_SYMBOLS);
        assert_eq!(
            (litlen, dist),
            (Ok(Coverage::Complete), Ok(Coverage::Complete)),
            "the fixed codes are complete"
        );
        tables
    })
}

thread_local! {
    /// Where [`inflate_with`] decodes to.
    static PAYLOAD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Decompresses one zlib stream starting at `bytes[0]` into this thread's
/// buffer and hands `f` the decoded payload and how many input bytes the
/// stream occupied (callers with concatenated streams resume right
/// after). `limit` is the payload length the caller expects, and the
/// buffer is reserved for it up front — or for what `bytes` could at most
/// expand to, should that be less. Payloads past [`SCRATCH_KEEP`] do not
/// stay with the thread.
pub(crate) fn inflate_with<R>(
    bytes: &[u8],
    limit: usize,
    f: impl FnOnce(&[u8], usize) -> Result<R, DecodeError>,
) -> Result<R, DecodeError> {
    PAYLOAD.with_borrow_mut(|out| {
        out.reserve(limit.min(bytes.len().saturating_mul(MAX_EXPANSION)));
        let result = inflate_into(bytes, limit, out).and_then(|consumed| f(out, consumed));
        out.clear();
        out.shrink_to(SCRATCH_KEEP);
        result
    })
}

/// Decompresses one zlib stream starting at `bytes[0]` into `out`, which
/// must come in empty, and returns how many input bytes the stream
/// occupied. `limit` caps the output length; producing more is an error,
/// so a hostile stream cannot balloon memory past what the caller
/// expects.
pub(crate) fn inflate_into(
    bytes: &[u8],
    limit: usize,
    out: &mut Vec<u8>,
) -> Result<usize, DecodeError> {
    debug_assert!(
        out.is_empty(),
        "match distances count from the stream's start"
    );
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
    loop {
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => stored_block(&mut r, out, limit)?,
            1 => {
                let fixed = fixed_tables();
                decode_block(&mut r, out, &fixed.litlen, Some(&fixed.dist), limit)?;
            }
            2 => with_tables(|tables| {
                let has_dist = dynamic_tables(&mut r, tables)?;
                let dist = has_dist.then_some(&tables.dist);
                decode_block(&mut r, out, &tables.litlen, dist, limit)
            })?,
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
    if super::adler::adler32(out) != u32::from_be_bytes(trailer) {
        return Err(DecodeError::Corrupt("adler-32 checksum mismatch"));
    }
    Ok(2 + r.bytes_consumed())
}

fn stored_block(r: &mut LsbReader<'_>, out: &mut Vec<u8>, limit: usize) -> Result<(), DecodeError> {
    r.align_byte();
    let len = r.read_byte()? as u16 | (r.read_byte()? as u16) << 8;
    let nlen = r.read_byte()? as u16 | (r.read_byte()? as u16) << 8;
    if len != !nlen {
        return Err(DecodeError::Corrupt("stored block length check failed"));
    }
    // Byte at a time, the limit would trip before the end of input
    // exactly when it is the nearer of the two.
    let room = limit - out.len();
    if len as usize > room && room < r.bytes_remaining() {
        return Err(DecodeError::Corrupt("decoded data exceeds expected length"));
    }
    out.extend_from_slice(r.read_bytes(len as usize)?);
    Ok(())
}

/// Reads a dynamic block header (RFC 1951 §3.2.7) and builds its decode
/// tables into `tables`. Returns whether there is a distance table: it
/// may be absent when the block declares no usable distance codes — legal
/// as long as no match is then coded.
fn dynamic_tables(r: &mut LsbReader<'_>, tables: &mut BlockTables) -> Result<bool, DecodeError> {
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
    let mut cl = ClTable::new();
    if cl.build(&cl_lens, &PLAIN_SYMBOLS)? == Coverage::Empty {
        return Err(DecodeError::Corrupt("empty code-length alphabet"));
    }
    let total = hlit + hdist;
    let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
    let mut i = 0usize;
    while i < total {
        match entry::value(cl.decode(r)?) {
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
                i += rep; // already zero
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
    // Not empty: the end of block has a code.
    tables.litlen.build(&lens[..hlit], &LITLEN_SYMBOLS)?;
    Ok(tables.dist.build(&lens[hlit..total], &DIST_SYMBOLS)? != Coverage::Empty)
}

/// Appends `len` bytes that repeat the output from `dist` bytes back. A
/// match may overlap what it writes (`dist < len`): the bytes from
/// `start` on then repeat with period `dist`, so each pass copies all
/// there is and doubles it.
#[inline]
fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    if dist == 1 {
        let byte = out[start];
        out.resize(out.len() + len, byte);
        return;
    }
    let mut left = len;
    while left > 0 {
        let n = left.min(out.len() - start);
        out.extend_from_within(start..start + n);
        left -= n;
    }
}

fn decode_block(
    r: &mut LsbReader<'_>,
    out: &mut Vec<u8>,
    lit: &LitlenTable,
    dist: Option<&DistTable>,
    limit: usize,
) -> Result<(), DecodeError> {
    let mask = |n: u32| (1u64 << n) - 1;
    loop {
        // The fast loop (see the module docs for what makes it safe), on
        // a copy of the reader that never leaves registers.
        if let Some(dist) = dist {
            let mut fast = *r;
            while fast.unread() >= FAST_INPUT && limit - out.len() >= FAST_LITERALS {
                fast.refill_word();
                let mut e = lit.lookup(fast.bits());
                if e & entry::LITERAL != 0 {
                    fast.consume_code(e);
                    out.push(entry::value(e) as u8);
                    e = lit.lookup(fast.bits());
                    if e & entry::LITERAL != 0 {
                        fast.consume_code(e);
                        out.push(entry::value(e) as u8);
                        e = lit.lookup(fast.bits());
                        if e & entry::LITERAL != 0 {
                            fast.consume_code(e);
                            out.push(entry::value(e) as u8);
                            continue;
                        }
                    }
                    fast.refill_word();
                }
                if e & entry::MATCH == 0 {
                    break;
                }
                // A whole match is buffered; it is consumed only once
                // all of it is known to be good.
                let bits = fast.bits();
                let mut used = entry::code_len(e);
                let len =
                    (entry::value(e) as u64 + (bits >> used & mask(entry::extra_bits(e)))) as usize;
                used += entry::extra_bits(e);
                let de = dist.lookup(bits >> used);
                if de & entry::MATCH == 0 {
                    break;
                }
                used += entry::code_len(de);
                let d = (entry::value(de) as u64 + (bits >> used & mask(entry::extra_bits(de))))
                    as usize;
                used += entry::extra_bits(de);
                if d > out.len() || len > limit - out.len() {
                    break;
                }
                fast.consume(used);
                copy_match(out, d, len);
            }
            *r = fast;
        }

        // The careful loop: one symbol, every check.
        let e = lit.decode(r)?;
        if entry::is_end(e) {
            return Ok(());
        }
        if e & entry::LITERAL != 0 {
            if out.len() >= limit {
                return Err(DecodeError::Corrupt("decoded data exceeds expected length"));
            }
            out.push(entry::value(e) as u8);
            continue;
        }
        if e & entry::MATCH == 0 {
            return Err(DecodeError::Corrupt("invalid length code"));
        }
        let len = entry::value(e) as usize + r.read_bits(entry::extra_bits(e))? as usize;
        let dtab = dist.ok_or(DecodeError::Corrupt("match without distance code"))?;
        let de = dtab.decode(r)?;
        if de & entry::MATCH == 0 {
            return Err(DecodeError::Corrupt("invalid distance code"));
        }
        let d = entry::value(de) as usize + r.read_bits(entry::extra_bits(de))? as usize;
        if d > out.len() {
            return Err(DecodeError::Corrupt("match distance before stream start"));
        }
        if out.len() + len > limit {
            return Err(DecodeError::Corrupt("decoded data exceeds expected length"));
        }
        copy_match(out, d, len);
    }
}

#[cfg(test)]
mod tests {
    use super::super::bits::LsbWriter;
    use super::super::encode::{emit_dynamic_with, emit_fixed};
    use super::super::huffman::{code_lengths, MAX_CODE_LEN};
    use super::super::oracle::{self, inflate_both, spell, Step};
    use super::*;

    /// A zlib stream of one block written by `block` that decodes to
    /// `payload`.
    fn zlib_stream(payload: &[u8], block: impl FnOnce(&mut LsbWriter<'_>)) -> Vec<u8> {
        // Room for the worst these tests spell: 15-bit literals, a header.
        let mut stream = vec![0u8; 2 * payload.len() + 1024];
        stream[..2].copy_from_slice(&[0x78, 0x9C]);
        let mut w = LsbWriter::new(&mut stream[2..]);
        block(&mut w);
        let end = 2 + w.finish();
        stream.truncate(end);
        stream.extend(super::super::adler::adler32(payload).to_be_bytes());
        stream
    }

    /// A copy of `len` bytes `dist` back.
    fn copy(len: usize, dist: usize) -> Step {
        Step::Copy { len, dist }
    }

    fn literals(bytes: impl IntoIterator<Item = u8>) -> Vec<Step> {
        bytes.into_iter().map(Step::Lit).collect()
    }

    #[test]
    fn overlapping_matches_expand_like_a_byte_loop() {
        // Every length at the distances where the copy overlaps itself,
        // at `distance == length`, and just either side of it; the
        // 258-byte match at distance 1, 2 and 3 is among them.
        for dist in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31, 257, 258, 259] {
            for len in (3..=12).chain([dist.clamp(3, 258), 64, 129, 257, 258]) {
                let mut tokens = literals((0..dist.max(20)).map(|i| (i * 7 + 1) as u8));
                tokens.push(copy(len, dist));
                tokens.extend(literals(*b"tail that keeps the fast loop going"));
                tokens.push(copy(9, 3));
                tokens.extend(literals([0xEE; 24]));
                let (payload, spelled) = spell(&tokens);
                let stream = zlib_stream(&payload, |w| emit_fixed(w, &spelled.list, &payload));
                let (out, consumed) = inflate_both(&stream, payload.len()).unwrap();
                assert!(out == payload, "dist {dist} len {len}");
                assert_eq!(consumed, stream.len());
            }
        }
    }

    #[test]
    fn bytes_after_the_stream_only_move_the_hand_over() {
        // The final code ends 4 (the trailer) to 13 bytes before the end
        // of input: where the fast loop hands over shifts, the result
        // does not.
        let data = oracle::tensor(0.38);
        for window in data.chunks(1024).take(6) {
            let stream = crate::Zlib::new().compress_bytes(
                &window
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            );
            let (payload, _) = inflate_both(&stream, 4096).unwrap();
            for extra in 0..=9 {
                let mut longer = stream.clone();
                longer.extend((0..extra).map(|i| 0xF0 | i as u8));
                let (out, consumed) = inflate_both(&longer, 4096).unwrap();
                assert!(out == payload && consumed == stream.len(), "extra {extra}");
            }
        }
    }

    #[test]
    fn limits_at_below_and_inside_the_last_token() {
        let exceeds = Err(DecodeError::Corrupt("decoded data exceeds expected length"));
        let head = literals((0..200u8).map(|i| i.wrapping_mul(37)));
        // Ending in a maximal match, in a literal, in a short match, and
        // in every phase of the fast loop's three literals.
        let mut tails = vec![
            vec![copy(258, 70)],
            vec![copy(258, 1), Step::Lit(9)],
            vec![copy(30, 200), copy(5, 2)],
        ];
        tails.extend((1..=6).map(|n| literals(0..n)));
        for tail in tails {
            let tokens = [head.clone(), tail].concat();
            let (payload, spelled) = spell(&tokens);
            let stream = zlib_stream(&payload, |w| emit_fixed(w, &spelled.list, &payload));
            let n = payload.len();
            // Alone the block's last codes fall to the careful loop for
            // want of input; with another stream's worth of bytes behind
            // it the fast loop runs up to the end of block.
            for stream in [stream.clone(), [stream.clone(), vec![0xAB; 24]].concat()] {
                let consumed = stream.len() - if stream.ends_with(&[0xAB; 24]) { 24 } else { 0 };
                for limit in [n, n + 1, n + 2, usize::MAX] {
                    assert_eq!(
                        inflate_both(&stream, limit),
                        Ok((payload.clone(), consumed))
                    );
                }
                for limit in [n - 1, n - 2, n - 3, n - 100, 200, 199, 3, 0] {
                    assert_eq!(
                        inflate_both(&stream, limit),
                        exceeds,
                        "limit {limit} of {n}"
                    );
                }
            }
        }
    }

    /// Code lengths under Fibonacci frequencies — the deepest tree there
    /// is, cut off at 15 bits — handed out along `order`, rarest first.
    fn fibonacci_lens<const N: usize>(order: impl IntoIterator<Item = usize>) -> [u8; N] {
        let mut freqs = [0u64; N];
        let (mut a, mut b) = (1u64, 1u64);
        for s in order {
            freqs[s] = a;
            (a, b) = (b, a + b);
        }
        let mut lens = [0u8; N];
        code_lengths(&freqs, MAX_CODE_LEN, &mut lens);
        lens
    }

    #[test]
    fn fifteen_bit_codes_decode_in_both_loops() {
        // Literal, length and distance codes as deep as DEFLATE allows, so
        // that both tables link subtables. Literals 0 and 1, length symbol
        // 283 (five extra bits) and distance symbol 17 (seven) are the
        // rarest: a run of them is 15 + 15 + 15 + 5 + 15 + 7 = 72 bits,
        // more than one refill holds. Such runs come early, late and in
        // between, so both loops meet them, and every cut through one of
        // them has to read as the end of input, not as zeros.
        let lit_lens: [u8; NUM_LITLEN] = fibonacci_lens(
            [0, 283, 1]
                .into_iter()
                .chain(2..40)
                .chain([285, 260, 257, EOB]),
        );
        let dist_lens: [u8; NUM_DIST] = fibonacci_lens([17].into_iter().chain(0..17));
        for (s, lens) in [
            (0, &lit_lens[..]),
            (1, &lit_lens),
            (283, &lit_lens),
            (17, &dist_lens),
        ] {
            assert_eq!(lens[s], MAX_CODE_LEN, "symbol {s}");
        }
        let deep = [Step::Lit(0), Step::Lit(1), copy(200, 400)];
        let mut tokens = literals((0..40).chain((0..40).rev()));
        tokens.extend(literals((0..400u32).map(|i| (i * i % 40) as u8)));
        tokens.extend(deep);
        for (i, dist) in [
            1usize, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
        ]
        .into_iter()
        .enumerate()
        {
            tokens.push(copy([3, 6, 258][i % 3], dist));
            tokens.extend(literals([i as u8, 0, 39 - i as u8]));
            if i % 6 == 0 {
                tokens.extend(deep);
            }
        }
        tokens.extend(literals((0..40).chain((0..40).rev())));
        tokens.extend(deep);
        tokens.extend(deep);
        let (payload, spelled) = spell(&tokens);
        let stream = zlib_stream(&payload, |w| {
            emit_dynamic_with(w, &spelled.list, &payload, &lit_lens, &dist_lens)
        });
        assert!(inflate_both(&stream, payload.len()) == Ok((payload.clone(), stream.len())));
        oracle::for_each_damage(&stream, 0..stream.len(), |s| {
            let _ = inflate_both(s, payload.len());
        });
    }

    #[test]
    fn a_single_distance_code_is_an_incomplete_table() {
        // What zlib writes for data whose matches all share a distance
        // code: one 1-bit code, the other bit pattern unused.
        let mut lit_freq = [0u64; NUM_LITLEN];
        for s in [0usize, 1, 2, EOB, 285, 270] {
            lit_freq[s] = 1 + s as u64 % 5;
        }
        let mut lit_lens = [0u8; NUM_LITLEN];
        code_lengths(&lit_freq, MAX_CODE_LEN, &mut lit_lens);
        let mut dist_lens = [0u8; NUM_DIST];
        dist_lens[0] = 1;
        let mut tokens = literals([2, 1, 0]);
        for _ in 0..12 {
            tokens.push(copy(258, 1));
            tokens.push(copy(23, 1));
            tokens.push(Step::Lit(1));
        }
        let (payload, spelled) = spell(&tokens);
        let stream = zlib_stream(&payload, |w| {
            emit_dynamic_with(w, &spelled.list, &payload, &lit_lens, &dist_lens)
        });
        assert_eq!(
            inflate_both(&stream, payload.len()),
            Ok((payload.clone(), stream.len()))
        );
        // Somewhere a flipped bit selects the distance code that is not
        // there, in the fast loop's part of the block and in the last
        // bytes; the decoder has to say so exactly as the oracle does.
        let mut unused_code_hits = 0;
        oracle::for_each_damage(&stream, 0..stream.len(), |s| {
            if inflate_both(s, payload.len()) == Err(DecodeError::Corrupt("invalid huffman code")) {
                unused_code_hits += 1;
            }
        });
        assert!(unused_code_hits > 20, "only {unused_code_hits}");
    }

    #[test]
    fn blocks_without_a_distance_table_still_take_literals() {
        // HDIST spells one distance code of length zero: legal until a
        // match shows up, which is then an error rather than a panic.
        let mut lit_lens = [0u8; NUM_LITLEN];
        for s in [b'a' as usize, b'b' as usize, EOB, 257] {
            lit_lens[s] = 2;
        }
        let dist_lens = [0u8; NUM_DIST];
        let text = literals(*b"abbabaabbaababbabaab");
        let (payload, spelled) = spell(&text);
        let stream = zlib_stream(&payload, |w| {
            emit_dynamic_with(w, &spelled.list, &payload, &lit_lens, &dist_lens)
        });
        assert_eq!(inflate_both(&stream, 64), Ok((payload, stream.len())));
        let (with_match, spelled) = spell(&[text, vec![copy(3, 1)]].concat());
        let stream = zlib_stream(&[], |w| {
            emit_dynamic_with(w, &spelled.list, &with_match, &lit_lens, &dist_lens)
        });
        assert_eq!(
            inflate_both(&stream, 64),
            Err(DecodeError::Corrupt("match without distance code"))
        );
    }
}
