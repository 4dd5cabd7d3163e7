//! The RFC 1950/1951 encoder: zlib container around DEFLATE blocks.
//!
//! The whole input becomes one DEFLATE block — stored, fixed-Huffman or
//! dynamic-Huffman, whichever costs fewest bits (stored data above the
//! 65 535-byte block cap splits into multiple stored blocks). Dynamic
//! blocks carry their code lengths through the RFC code-length alphabet
//! (symbols 16/17/18 run-length encode the length tables).
//!
//! The engine calls this once per 4 KB DMA window, so nothing here is
//! sized or set up per call: the match tables, the token list and the
//! byte view of `f32` input live in one scratch per thread, and every
//! alphabet-sized table (frequencies, lengths, codes, the planned dynamic
//! header) is a stack array. Once a thread's scratch is warm, compressing
//! a window allocates nothing (inputs past [`SCRATCH_KEEP`] still pay for
//! their own buffers, so that they are not kept).

use std::cell::RefCell;

use super::bits::{LsbWriter, WRITER_SLACK};
use super::huffman::{code_lengths, lsb_codes, MAX_CODE_LEN};
use super::lz77::{self, Matcher, Token, EOB, NUM_DIST, NUM_LITLEN};
use super::CLCODE_ORDER;

/// Maximum payload of one stored block (16-bit LEN field).
const STORED_MAX: usize = 65_535;

/// The fixed literal/length code lengths of RFC 1951 §3.2.6.
pub(super) fn fixed_litlen_lens() -> [u8; 288] {
    let mut lens = [8u8; 288];
    lens[144..256].fill(9);
    lens[256..280].fill(7);
    lens
}

/// The fixed distance code lengths (32 five-bit codes; 30/31 never occur).
pub(super) fn fixed_dist_lens() -> [u8; 32] {
    [5u8; 32]
}

/// One RFC code-length-alphabet symbol: `(symbol, extra_bits, extra_val)`.
type ClSym = (u8, u8, u8);

/// Longest code-length sequence a dynamic header carries.
const MAX_HEADER_LENS: usize = NUM_LITLEN + NUM_DIST;

/// Run-length encodes a code-length sequence into the 19-symbol RFC
/// alphabet: 16 repeats the previous length 3–6 times, 17 encodes 3–10
/// zeros, 18 encodes 11–138 zeros. Returns how many symbols it wrote
/// (never more than `seq.len()`: every symbol covers at least one length).
fn rle_code_lengths(seq: &[u8], out: &mut [ClSym; MAX_HEADER_LENS]) -> usize {
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

/// A fully planned dynamic-Huffman block header.
struct DynHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    cl_lens: [u8; 19],
    cl_codes: [u32; 19],
    syms: [ClSym; MAX_HEADER_LENS],
    sym_count: usize,
    header_bits: usize,
}

fn plan_dynamic(lit_lens: &[u8], dist_lens: &[u8]) -> DynHeader {
    let hlit = (lit_lens.iter().rposition(|&l| l > 0).unwrap_or(0) + 1).max(257);
    let hdist = (dist_lens.iter().rposition(|&l| l > 0).unwrap_or(0) + 1).max(1);
    let mut seq = [0u8; MAX_HEADER_LENS];
    seq[..hlit].copy_from_slice(&lit_lens[..hlit]);
    seq[hlit..hlit + hdist].copy_from_slice(&dist_lens[..hdist]);
    let mut syms = [(0, 0, 0); MAX_HEADER_LENS];
    let sym_count = rle_code_lengths(&seq[..hlit + hdist], &mut syms);
    let mut cl_freq = [0u64; 19];
    for &(s, _, _) in &syms[..sym_count] {
        cl_freq[s as usize] += 1;
    }
    let mut cl_lens = [0u8; 19];
    code_lengths(&cl_freq, 7, &mut cl_lens);
    let mut cl_codes = [0u32; 19];
    lsb_codes(&cl_lens, &mut cl_codes);
    let hclen = CLCODE_ORDER
        .iter()
        .rposition(|&s| cl_lens[s] > 0)
        .map_or(4, |i| (i + 1).max(4));
    let header_bits = 5
        + 5
        + 4
        + hclen * 3
        + syms[..sym_count]
            .iter()
            .map(|&(s, eb, _)| cl_lens[s as usize] as usize + eb as usize)
            .sum::<usize>();
    DynHeader {
        hlit,
        hdist,
        hclen,
        cl_lens,
        cl_codes,
        syms,
        sym_count,
        header_bits,
    }
}

/// Bits the symbols counted in `freq` cost under `lens`.
fn coded_bits(freq: &[u64], lens: &[u8]) -> usize {
    freq.iter()
        .zip(lens)
        .map(|(&f, &l)| f as usize * l as usize)
        .sum()
}

/// Writes `tokens` and the end-of-block code under the canonical codes
/// of `lit_lens`/`dist_lens`, one flush a token: a match is at most
/// 15 + 5 + 15 + 13 bits.
fn emit_tokens(w: &mut LsbWriter<'_>, tokens: &[Token], lit_lens: &[u8], dist_lens: &[u8]) {
    let (mut lit_codes, mut dist_codes) = ([0u32; 288], [0u32; 32]);
    lsb_codes(lit_lens, &mut lit_codes[..lit_lens.len()]);
    lsb_codes(dist_lens, &mut dist_codes[..dist_lens.len()]);
    for t in tokens {
        match *t {
            Token::Literal(b) => w.push_code(lit_codes[b as usize]),
            Token::Match { len, dist } => {
                let (lc, lex, lexbits) = lz77::length_to_code(len as usize);
                w.push_code(lit_codes[lc]);
                w.push(lex as u64, lexbits as u32);
                let (dc, dex, dexbits) = lz77::distance_to_code(dist as usize);
                w.push_code(dist_codes[dc]);
                w.push(dex as u64, dexbits as u32);
            }
        }
        w.flush();
    }
    w.push_code(lit_codes[EOB]);
    w.flush();
}

/// One final fixed-Huffman block of `tokens`.
pub(super) fn emit_fixed(w: &mut LsbWriter<'_>, tokens: &[Token]) {
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // BTYPE=01 fixed
    emit_tokens(w, tokens, &fixed_litlen_lens(), &fixed_dist_lens());
}

/// One final dynamic-Huffman block of `tokens` under the header `p`
/// planned for `lit_lens`/`dist_lens`.
fn emit_dynamic(
    w: &mut LsbWriter<'_>,
    p: &DynHeader,
    tokens: &[Token],
    lit_lens: &[u8],
    dist_lens: &[u8],
) {
    w.write_bits(1, 1); // BFINAL
    w.write_bits(2, 2); // BTYPE=10 dynamic
    w.write_bits((p.hlit - 257) as u32, 5);
    w.write_bits((p.hdist - 1) as u32, 5);
    w.write_bits((p.hclen - 4) as u32, 4);
    for &s in CLCODE_ORDER.iter().take(p.hclen) {
        w.write_bits(p.cl_lens[s] as u32, 3);
    }
    for &(s, eb, ev) in &p.syms[..p.sym_count] {
        w.push_code(p.cl_codes[s as usize]);
        w.write_bits(ev as u32, eb as u32);
    }
    emit_tokens(w, tokens, lit_lens, dist_lens);
}

/// [`emit_dynamic`] under code lengths of the caller's choosing, which
/// is how the decoder's tests spell blocks this encoder would never
/// pick: 15-bit codes, a single distance code.
#[cfg(test)]
pub(super) fn emit_dynamic_with(
    w: &mut LsbWriter<'_>,
    tokens: &[Token],
    lit_lens: &[u8; NUM_LITLEN],
    dist_lens: &[u8; NUM_DIST],
) {
    emit_dynamic(
        w,
        &plan_dynamic(lit_lens, dist_lens),
        tokens,
        lit_lens,
        dist_lens,
    );
}

/// Stored blocks of `data` at the front of `out` (a stored block is whole
/// bytes: the three header bits padded out, LEN, its complement, the
/// data); returns the bytes written.
fn emit_stored(out: &mut [u8], data: &[u8]) -> usize {
    let blocks = data.len().div_ceil(STORED_MAX).max(1);
    let mut pos = 0usize;
    for i in 0..blocks {
        let chunk = &data[i * STORED_MAX..data.len().min((i + 1) * STORED_MAX)];
        let len = chunk.len() as u16;
        out[pos] = u8::from(i == blocks - 1); // BFINAL, BTYPE=00
        out[pos + 1..pos + 3].copy_from_slice(&len.to_le_bytes());
        out[pos + 3..pos + 5].copy_from_slice(&(!len).to_le_bytes());
        out[pos + 5..pos + 5 + chunk.len()].copy_from_slice(chunk);
        pos += 5 + chunk.len();
    }
    pos
}

/// Input bytes up to which a thread's scratch keeps its buffers between
/// calls: enough for 4 KB windows many times over, while one whole-tensor
/// call does not pin megabytes to the thread for good.
pub(super) const SCRATCH_KEEP: usize = 64 * 1024;

/// What one thread's encoder keeps between calls.
struct Scratch {
    matcher: Matcher,
    tokens: Vec<Token>,
    /// Little-endian byte view of `f32` input.
    bytes: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        matcher: Matcher::new(),
        tokens: Vec::new(),
        bytes: Vec::new(),
    });
}

/// Compresses `data` into a complete zlib stream appended to `out`.
pub(crate) fn compress(data: &[u8], max_chain: usize, out: &mut Vec<u8>) {
    SCRATCH.with_borrow_mut(|s| {
        compress_with(&mut s.matcher, &mut s.tokens, data, max_chain, out);
        s.tokens.shrink_to(SCRATCH_KEEP);
    });
}

/// [`compress`] over the little-endian bytes of `data`.
pub(crate) fn compress_words(data: &[f32], max_chain: usize, out: &mut Vec<u8>) {
    SCRATCH.with_borrow_mut(|s| {
        s.bytes.resize(data.len() * 4, 0);
        for (bytes, v) in s.bytes.chunks_exact_mut(4).zip(data) {
            bytes.copy_from_slice(&v.to_le_bytes());
        }
        compress_with(&mut s.matcher, &mut s.tokens, &s.bytes, max_chain, out);
        s.tokens.shrink_to(SCRATCH_KEEP);
        s.bytes.shrink_to(SCRATCH_KEEP);
    });
}

fn compress_with(
    matcher: &mut Matcher,
    tokens: &mut Vec<Token>,
    data: &[u8],
    max_chain: usize,
    out: &mut Vec<u8>,
) {
    matcher.tokenize(data, max_chain, tokens);
    let mut lit_freq = [0u64; NUM_LITLEN];
    let mut dist_freq = [0u64; NUM_DIST];
    // Length/distance extra bits cost the same under every code.
    let mut extra_bits = 0usize;
    lit_freq[EOB] = 1;
    for t in tokens.iter() {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (lc, _, lex) = lz77::length_to_code(len as usize);
                let (dc, _, dex) = lz77::distance_to_code(dist as usize);
                lit_freq[lc] += 1;
                dist_freq[dc] += 1;
                extra_bits += lex as usize + dex as usize;
            }
        }
    }
    let mut lit_lens = [0u8; NUM_LITLEN];
    let mut dist_lens = [0u8; NUM_DIST];
    code_lengths(&lit_freq, MAX_CODE_LEN, &mut lit_lens);
    code_lengths(&dist_freq, MAX_CODE_LEN, &mut dist_lens);
    if dist_lens.iter().all(|&l| l == 0) {
        // RFC requires at least one distance code in a dynamic header even
        // when no matches reference it (zlib emits the same placeholder).
        dist_lens[0] = 1;
    }

    // A dynamic litlen code with fewer than two used symbols would be
    // incomplete, which strict inflaters reject — fall back to fixed.
    let dynamic_ok = lit_freq.iter().filter(|&&f| f > 0).count() >= 2;
    let dyn_plan = dynamic_ok.then(|| plan_dynamic(&lit_lens, &dist_lens));
    let dyn_bits = dyn_plan.as_ref().map_or(usize::MAX, |p| {
        3 + p.header_bits
            + coded_bits(&lit_freq, &lit_lens)
            + coded_bits(&dist_freq, &dist_lens)
            + extra_bits
    });
    let fixed_ll = fixed_litlen_lens();
    let fixed_dl = fixed_dist_lens();
    let fixed_bits =
        3 + coded_bits(&lit_freq, &fixed_ll) + coded_bits(&dist_freq, &fixed_dl) + extra_bits;
    let stored_blocks = data.len().div_ceil(STORED_MAX).max(1);
    let stored_bits = (data.len() + 5 * stored_blocks) * 8;

    // Every block's size is known here, to the bit, so the output grows
    // once: the two header bytes, the block padded to a whole byte, the
    // Adler-32 of the input.
    let block_bits = stored_bits.min(dyn_bits).min(fixed_bits);
    let start = out.len();
    let end = start + 2 + block_bits.div_ceil(8) + 4;
    out.resize(end + WRITER_SLACK, 0);
    // CMF/FLG: CM=8 (deflate), CINFO=7 (32K window), FLEVEL=2, FCHECK
    // making the pair divisible by 31 — the standard 0x78 0x9C header.
    out[start..start + 2].copy_from_slice(&[0x78, 0x9C]);
    let block = &mut out[start + 2..];
    let written = if stored_bits == block_bits {
        emit_stored(block, data)
    } else {
        let mut w = LsbWriter::new(block);
        if dyn_bits <= fixed_bits {
            let p = dyn_plan.expect("dynamic cost is finite only when planned");
            emit_dynamic(&mut w, &p, tokens, &lit_lens, &dist_lens);
        } else {
            emit_fixed(&mut w, tokens);
        }
        w.finish()
    };
    debug_assert_eq!(written, block_bits.div_ceil(8), "block priced wrongly");
    out.truncate(end);
    out[end - 4..].copy_from_slice(&super::adler::adler32(data).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::super::oracle::{self, GrowingWriter};
    use super::*;

    /// The dynamic block this module used to write — every field its own
    /// `write_bits` on a vector that grows as it goes, a code and its
    /// extra bits fused into one write — kept as the oracle of the
    /// pre-sized writer.
    fn dynamic_block_oracle(tokens: &[Token], lit_lens: &[u8], dist_lens: &[u8]) -> Vec<u8> {
        let p = plan_dynamic(lit_lens, dist_lens);
        let (mut lit_codes, mut dist_codes) = ([0u32; NUM_LITLEN], [0u32; NUM_DIST]);
        lsb_codes(lit_lens, &mut lit_codes);
        lsb_codes(dist_lens, &mut dist_codes);
        let mut out = Vec::new();
        let mut w = GrowingWriter::new(&mut out);
        w.write_bits(1, 1);
        w.write_bits(2, 2);
        w.write_bits((p.hlit - 257) as u32, 5);
        w.write_bits((p.hdist - 1) as u32, 5);
        w.write_bits((p.hclen - 4) as u32, 4);
        for &s in CLCODE_ORDER.iter().take(p.hclen) {
            w.write_bits(p.cl_lens[s] as u32, 3);
        }
        for &(s, eb, ev) in &p.syms[..p.sym_count] {
            w.write_bits(
                p.cl_codes[s as usize] & 0xFFFF,
                p.cl_lens[s as usize] as u32,
            );
            w.write_bits(ev as u32, eb as u32);
        }
        let code = |w: &mut GrowingWriter<'_>, entry: u32, extra: u16, extra_bits: u8| {
            let bits = entry >> 16;
            w.write_bits(
                (entry & 0xFFFF) | (extra as u32) << bits,
                bits + extra_bits as u32,
            );
        };
        for t in tokens {
            match *t {
                Token::Literal(b) => code(&mut w, lit_codes[b as usize], 0, 0),
                Token::Match { len, dist } => {
                    let (lc, lex, lexbits) = lz77::length_to_code(len as usize);
                    code(&mut w, lit_codes[lc], lex, lexbits);
                    let (dc, dex, dexbits) = lz77::distance_to_code(dist as usize);
                    code(&mut w, dist_codes[dc], dex, dexbits);
                }
            }
        }
        code(&mut w, lit_codes[EOB], 0, 0);
        w.finish();
        out
    }

    fn dynamic_block(
        tokens: &[Token],
        lit_lens: &[u8; NUM_LITLEN],
        dist_lens: &[u8; NUM_DIST],
    ) -> Vec<u8> {
        let mut out = vec![0u8; 512 + 6 * tokens.len() + WRITER_SLACK];
        let mut w = LsbWriter::new(&mut out);
        emit_dynamic_with(&mut w, tokens, lit_lens, dist_lens);
        let written = w.finish();
        out.truncate(written);
        out
    }

    #[test]
    fn the_longest_tokens_fit_one_flush_in_every_phase() {
        // Nothing but 15-bit codes, every match with the most extra bits
        // there are (5 on the length, 13 on the distance): 48 bits a
        // match, on top of whatever the last flush left. Literals between
        // them walk the leftover through all eight phases.
        let (lit_lens, dist_lens) = ([MAX_CODE_LEN; NUM_LITLEN], [MAX_CODE_LEN; NUM_DIST]);
        let mut tokens = Vec::new();
        for k in 0..64u16 {
            tokens.push(Token::Match {
                len: 131 + (k * 37) % 127,
                dist: 16385 + (k * 1021) % 16384,
            });
            tokens.extend((0..k % 4).map(|i| Token::Literal((k * 5 + i) as u8)));
            tokens.push(Token::Match {
                len: 257,
                dist: 32768 - k,
            });
        }
        let block = dynamic_block(&tokens, &lit_lens, &dist_lens);
        assert_eq!(block, dynamic_block_oracle(&tokens, &lit_lens, &dist_lens));
        assert!(block.len() * 8 > 128 * 48, "the matches are in there");
    }

    #[test]
    fn activation_windows_come_out_as_the_growing_writer_wrote_them() {
        let mut matcher = Matcher::new();
        let mut tokens = Vec::new();
        for density in oracle::DENSITIES {
            let data = oracle::tensor(density);
            for window in data.chunks(1024).step_by(5) {
                let bytes: Vec<u8> = window.iter().flat_map(|v| v.to_le_bytes()).collect();
                matcher.tokenize(&bytes, 64, &mut tokens);
                let (mut lit_freq, mut dist_freq) = ([0u64; NUM_LITLEN], [0u64; NUM_DIST]);
                lit_freq[EOB] = 1;
                for t in &tokens {
                    match *t {
                        Token::Literal(b) => lit_freq[b as usize] += 1,
                        Token::Match { len, dist } => {
                            lit_freq[lz77::length_to_code(len as usize).0] += 1;
                            dist_freq[lz77::distance_to_code(dist as usize).0] += 1;
                        }
                    }
                }
                let (mut lit_lens, mut dist_lens) = ([0u8; NUM_LITLEN], [0u8; NUM_DIST]);
                code_lengths(&lit_freq, MAX_CODE_LEN, &mut lit_lens);
                code_lengths(&dist_freq, MAX_CODE_LEN, &mut dist_lens);
                assert_eq!(
                    dynamic_block(&tokens, &lit_lens, &dist_lens),
                    dynamic_block_oracle(&tokens, &lit_lens, &dist_lens),
                    "density {density}"
                );
            }
        }
    }
}
