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
use super::lz77::{Matcher, Token, Tokens, NO_DIST, NUM_DIST, NUM_LITLEN};
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
pub(super) type ClSym = (u8, u8, u8);

/// Longest code-length sequence a dynamic header carries.
pub(super) const MAX_HEADER_LENS: usize = NUM_LITLEN + NUM_DIST;

/// Room [`rle_code_lengths`] needs past its last symbol: every run's tail
/// is written two symbols wide.
const TAIL_SLACK: usize = 2;

/// How the code-length coder ends a run, by what is left of the run past
/// its whole chunks — up to 137 zeros past chunks of 138 (`18`), up to 5
/// repeats past chunks of six (`16`) — indexed `[non-zero][left]`: up to
/// two symbols, and how many. Symbol 0 stands for the run's own length,
/// which is 0 in a run of zeros.
const RUN_TAILS: [[([ClSym; 2], u8); 138]; 2] = {
    let mut tails = [[([(0u8, 0u8, 0u8); 2], 0u8); 138]; 2];
    let mut left = 0;
    while left < 138 {
        tails[0][left] = match left {
            0..=2 => ([(0, 0, 0); 2], left as u8),
            3..=10 => ([(17, 3, left as u8 - 3), (0, 0, 0)], 1),
            _ => ([(18, 7, left as u8 - 11), (0, 0, 0)], 1),
        };
        if left < 6 {
            tails[1][left] = match left {
                0..=2 => ([(0, 0, 0); 2], left as u8),
                _ => ([(16, 2, left as u8 - 3), (0, 0, 0)], 1),
            };
        }
        left += 1;
    }
    tails
};

/// Run-length encodes a code-length sequence into the 19-symbol RFC
/// alphabet: 16 repeats the previous length 3–6 times, 17 encodes 3–10
/// zeros, 18 encodes 11–138 zeros. Returns how many symbols it wrote
/// (never more than `seq.len()`: every symbol covers at least one length).
///
/// The sequence is a few hundred lengths in short runs of uneven length,
/// so nothing here branches on a run: the run lengths are counted in one
/// backward pass, and each run goes out as its first length (when it is
/// not zero), its whole chunks (a loop that almost never turns) and a
/// tail from [`RUN_TAILS`], written two symbols wide whatever its count.
fn rle_code_lengths(seq: &[u8], out: &mut [ClSym; MAX_HEADER_LENS + TAIL_SLACK]) -> usize {
    let mut runs = [0u16; MAX_HEADER_LENS];
    let runs = &mut runs[..seq.len()];
    // How many lengths from each position on equal it.
    let (mut run, mut next) = (0u16, u8::MAX);
    for (r, &v) in runs.iter_mut().zip(seq).rev() {
        run = if v == next { run + 1 } else { 1 };
        next = v;
        *r = run;
    }
    let mut count = 0usize;
    let mut i = 0usize;
    while i < seq.len() {
        let (v, run) = (seq[i], runs[i] as usize);
        i += run;
        let nonzero = usize::from(v != 0);
        out[count] = (v, 0, 0);
        count += nonzero;
        let n = run - nonzero;
        let (chunks, chunk) = if v != 0 {
            (n / 6, (16, 2, 3))
        } else {
            (n / 138, (18, 7, 127))
        };
        for _ in 0..chunks {
            out[count] = chunk;
            count += 1;
        }
        let left = n - chunks * if v != 0 { 6 } else { 138 };
        let (tail, tail_count) = RUN_TAILS[nonzero][left];
        for (slot, (sym, eb, ev)) in out[count..count + TAIL_SLACK].iter_mut().zip(tail) {
            *slot = (if sym == 0 { v } else { sym }, eb, ev);
        }
        count += tail_count as usize;
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
    syms: [ClSym; MAX_HEADER_LENS + TAIL_SLACK],
    sym_count: usize,
    header_bits: usize,
}

fn plan_dynamic(lit_lens: &[u8], dist_lens: &[u8]) -> DynHeader {
    let hlit = (lit_lens.iter().rposition(|&l| l > 0).unwrap_or(0) + 1).max(257);
    let hdist = (dist_lens.iter().rposition(|&l| l > 0).unwrap_or(0) + 1).max(1);
    let mut seq = [0u8; MAX_HEADER_LENS];
    seq[..hlit].copy_from_slice(&lit_lens[..hlit]);
    seq[hlit..hlit + hdist].copy_from_slice(&dist_lens[..hdist]);
    let mut syms = [(0, 0, 0); MAX_HEADER_LENS + TAIL_SLACK];
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
    // Only the repeat symbols carry extra bits: 2, 3 and 7 of them.
    let header_bits = 5
        + 5
        + 4
        + hclen * 3
        + coded_bits(&cl_freq, &cl_lens)
        + (2 * cl_freq[16] + 3 * cl_freq[17] + 7 * cl_freq[18]) as usize;
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

/// Writes the literals and symbols of `tokens` over `data` under the
/// canonical codes of `lit_lens`/`dist_lens`.
///
/// Literals are nineteen bytes in twenty of an activation window, so
/// they go out three codes to a flush (at most 45 bits) straight from
/// `data`, with nothing to decide per byte. A token's symbol goes out
/// with its four fields concatenated in one word — a match is at most
/// 15 + 5 + 15 + 13 bits — and the end token the same way: its distance
/// code is [`NO_DIST`], whose code is empty, and its extras are empty.
fn emit_tokens(
    w: &mut LsbWriter<'_>,
    tokens: &[Token],
    data: &[u8],
    lit_lens: &[u8],
    dist_lens: &[u8],
) {
    let (mut lit_codes, mut dist_codes) = ([0u32; 288], [0u32; NO_DIST as usize + 1]);
    lsb_codes(lit_lens, &mut lit_codes[..lit_lens.len()]);
    lsb_codes(dist_lens, &mut dist_codes[..dist_lens.len()]);
    let mut pos = 0usize;
    for t in tokens {
        let literals = &data[pos..pos + t.literals];
        pos += t.literals + t.len as usize;
        let mut triples = literals.chunks_exact(3);
        for triple in &mut triples {
            for &b in triple {
                w.push_code(lit_codes[b as usize]);
            }
            w.flush();
        }
        for &b in triples.remainder() {
            w.push_code(lit_codes[b as usize]);
        }
        w.flush();
        let lit = lit_codes[t.sym as usize];
        let dist = dist_codes[t.dist_code as usize];
        let at_len_extra = lit >> 16;
        let at_dist = at_len_extra + t.len_extra_bits as u32;
        let at_dist_extra = at_dist + (dist >> 16);
        let bits = (lit & 0xFFFF) as u64
            | (t.len_extra as u64) << at_len_extra
            | ((dist & 0xFFFF) as u64) << at_dist
            | (t.dist_extra as u64) << at_dist_extra;
        w.push(bits, at_dist_extra + t.dist_extra_bits as u32);
        w.flush();
    }
}

/// One final fixed-Huffman block of `tokens` over `data`.
pub(super) fn emit_fixed(w: &mut LsbWriter<'_>, tokens: &[Token], data: &[u8]) {
    w.write_bits(1, 1); // BFINAL
    w.write_bits(1, 2); // BTYPE=01 fixed
    emit_tokens(w, tokens, data, &fixed_litlen_lens(), &fixed_dist_lens());
}

/// One final dynamic-Huffman block of `tokens` over `data` under the
/// header `p` planned for `lit_lens`/`dist_lens`.
fn emit_dynamic(
    w: &mut LsbWriter<'_>,
    p: &DynHeader,
    tokens: &[Token],
    data: &[u8],
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
    // A code-length symbol is at most 7 bits with at most 7 extra: four
    // to a flush.
    for syms in p.syms[..p.sym_count].chunks(4) {
        for &(s, eb, ev) in syms {
            w.push_code(p.cl_codes[s as usize]);
            w.push(ev as u64, eb as u32);
        }
        w.flush();
    }
    emit_tokens(w, tokens, data, lit_lens, dist_lens);
}

/// [`emit_dynamic`] under code lengths of the caller's choosing, which
/// is how the decoder's tests spell blocks this encoder would never
/// pick: 15-bit codes, a single distance code.
#[cfg(test)]
pub(super) fn emit_dynamic_with(
    w: &mut LsbWriter<'_>,
    tokens: &[Token],
    data: &[u8],
    lit_lens: &[u8; NUM_LITLEN],
    dist_lens: &[u8; NUM_DIST],
) {
    emit_dynamic(
        w,
        &plan_dynamic(lit_lens, dist_lens),
        tokens,
        data,
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
    tokens: Tokens,
    /// Little-endian byte view of `f32` input.
    bytes: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        matcher: Matcher::new(),
        tokens: Tokens::new(),
        bytes: Vec::new(),
    });
}

/// Compresses `data` into a complete zlib stream appended to `out`.
pub(crate) fn compress(data: &[u8], max_chain: usize, out: &mut Vec<u8>) {
    SCRATCH.with_borrow_mut(|s| {
        compress_with(
            &mut s.matcher,
            &mut s.tokens,
            data,
            max_chain,
            usize::MAX,
            out,
        );
        s.tokens.list.shrink_to(SCRATCH_KEEP);
    });
}

/// [`compress`] over the little-endian bytes of `data`, if its stream
/// comes out shorter than `limit` bytes; returns whether it did, and
/// leaves `out` as it was if not. The stream is priced to the byte
/// before anything is written, so a losing one costs its tokens and its
/// code construction and no more.
pub(crate) fn compress_words_within(
    data: &[f32],
    max_chain: usize,
    limit: usize,
    out: &mut Vec<u8>,
) -> bool {
    SCRATCH.with_borrow_mut(|s| {
        s.bytes.resize(data.len() * 4, 0);
        for (bytes, v) in s.bytes.chunks_exact_mut(4).zip(data) {
            bytes.copy_from_slice(&v.to_le_bytes());
        }
        let written = compress_with(
            &mut s.matcher,
            &mut s.tokens,
            &s.bytes,
            max_chain,
            limit,
            out,
        );
        s.tokens.list.shrink_to(SCRATCH_KEEP);
        s.bytes.shrink_to(SCRATCH_KEEP);
        written
    })
}

/// Tokenizes and prices `data`, and appends its zlib stream to `out` if
/// that is shorter than `limit` bytes; returns whether it did.
fn compress_with(
    matcher: &mut Matcher,
    tokens: &mut Tokens,
    data: &[u8],
    max_chain: usize,
    limit: usize,
    out: &mut Vec<u8>,
) -> bool {
    matcher.tokenize(data, max_chain, tokens);
    let Tokens {
        list: tokens,
        lit_freq,
        dist_freq,
        extra_bits,
        ..
    } = &*tokens;
    let mut lit_lens = [0u8; NUM_LITLEN];
    let mut dist_lens = [0u8; NUM_DIST];
    code_lengths(lit_freq, MAX_CODE_LEN, &mut lit_lens);
    code_lengths(dist_freq, MAX_CODE_LEN, &mut dist_lens);
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
            + coded_bits(lit_freq, &lit_lens)
            + coded_bits(dist_freq, &dist_lens)
            + extra_bits
    });
    let fixed_ll = fixed_litlen_lens();
    let fixed_dl = fixed_dist_lens();
    let fixed_bits =
        3 + coded_bits(lit_freq, &fixed_ll) + coded_bits(dist_freq, &fixed_dl) + extra_bits;
    let stored_blocks = data.len().div_ceil(STORED_MAX).max(1);
    let stored_bits = (data.len() + 5 * stored_blocks) * 8;

    // Every block's size is known here, to the bit, so the output grows
    // once, and only if the stream is short enough: the two header
    // bytes, the block padded to a whole byte, the Adler-32 of the input.
    let block_bits = stored_bits.min(dyn_bits).min(fixed_bits);
    let stream_len = 2 + block_bits.div_ceil(8) + 4;
    if stream_len >= limit {
        return false;
    }
    let start = out.len();
    let end = start + stream_len;
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
            emit_dynamic(&mut w, &p, tokens, data, &lit_lens, &dist_lens);
        } else {
            emit_fixed(&mut w, tokens, data);
        }
        w.finish()
    };
    debug_assert_eq!(written, block_bits.div_ceil(8), "block priced wrongly");
    out.truncate(end);
    out[end - 4..].copy_from_slice(&super::adler::adler32(data).to_be_bytes());
    true
}

#[cfg(test)]
mod tests {
    use super::super::lz77;
    use super::super::lz77::EOB;
    use super::super::oracle::{self, GrowingWriter, Step};
    use super::*;

    /// The dynamic block this module used to write — every field its own
    /// `write_bits` on a vector that grows as it goes, a code and its
    /// extra bits fused into one write — kept as the oracle of the
    /// pre-sized writer.
    fn dynamic_block_oracle(steps: &[Step], lit_lens: &[u8], dist_lens: &[u8]) -> Vec<u8> {
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
        for &step in steps {
            match step {
                Step::Lit(b) => code(&mut w, lit_codes[b as usize], 0, 0),
                Step::Copy { len, dist } => {
                    let (lc, lex, lexbits) = lz77::length_to_code(len);
                    code(&mut w, lit_codes[lc], lex, lexbits);
                    let (dc, dex, dexbits) = lz77::distance_to_code(dist);
                    code(&mut w, dist_codes[dc], dex, dexbits);
                }
            }
        }
        code(&mut w, lit_codes[EOB], 0, 0);
        w.finish();
        out
    }

    fn dynamic_block(
        tokens: &Tokens,
        data: &[u8],
        lit_lens: &[u8; NUM_LITLEN],
        dist_lens: &[u8; NUM_DIST],
    ) -> Vec<u8> {
        let mut out = vec![0u8; 512 + 2 * data.len() + 6 * tokens.list.len() + WRITER_SLACK];
        let mut w = LsbWriter::new(&mut out);
        emit_dynamic_with(&mut w, &tokens.list, data, lit_lens, dist_lens);
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
        // A window's worth of literals first, for the copies to reach.
        let mut steps: Vec<Step> = (0..32768usize)
            .map(|i| Step::Lit((i * 7 / 3) as u8))
            .collect();
        for k in 0..64usize {
            steps.push(Step::Copy {
                len: 131 + (k * 37) % 127,
                dist: 16385 + (k * 1021) % 16384,
            });
            steps.extend((0..k % 4).map(|i| Step::Lit((k * 5 + i) as u8)));
            steps.push(Step::Copy {
                len: 257,
                dist: 32768 - k,
            });
        }
        let (data, tokens) = oracle::spell(&steps);
        let block = dynamic_block(&tokens, &data, &lit_lens, &dist_lens);
        assert_eq!(block, dynamic_block_oracle(&steps, &lit_lens, &dist_lens));
        assert!(block.len() * 8 > 128 * 48, "the matches are in there");
    }

    /// The tokens of `data`, counted as the histogram pass counts, and
    /// a block whose header is planned as the scan planned it and whose
    /// bits are the growing writer's.
    fn assert_window_as_the_oracles_did(matcher: &mut Matcher, data: &[u8], what: &str) {
        let mut tokens = Tokens::new();
        matcher.tokenize(data, 64, &mut tokens);
        oracle::assert_counted(&tokens, data, what);
        let (mut lit_lens, mut dist_lens) = ([0u8; NUM_LITLEN], [0u8; NUM_DIST]);
        code_lengths(&tokens.lit_freq, MAX_CODE_LEN, &mut lit_lens);
        code_lengths(&tokens.dist_freq, MAX_CODE_LEN, &mut dist_lens);
        dist_lens[0] = dist_lens[0].max(u8::from(dist_lens.iter().all(|&l| l == 0)));
        assert_plan_as_the_scan_planned(&lit_lens, &dist_lens, what);
        assert_eq!(
            dynamic_block(&tokens, data, &lit_lens, &dist_lens),
            dynamic_block_oracle(&oracle::steps(&tokens, data), &lit_lens, &dist_lens),
            "{what}"
        );
    }

    #[test]
    fn activation_windows_come_out_as_the_growing_writer_wrote_them() {
        let mut matcher = Matcher::new();
        for density in oracle::DENSITIES {
            let data = oracle::tensor(density);
            for window in data.chunks(1024).step_by(5) {
                let bytes: Vec<u8> = window.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_window_as_the_oracles_did(
                    &mut matcher,
                    &bytes,
                    &format!("density {density}"),
                );
            }
        }
        for tail in 0..=3 {
            let data = super::super::lz77::tests::runs(tail);
            assert_window_as_the_oracles_did(&mut matcher, &data, &format!("runs({tail})"));
        }
        let data = super::super::lz77::tests::every_code();
        assert_window_as_the_oracles_did(&mut matcher, &data, "every code");
    }

    /// [`plan_dynamic`]'s symbols and header size are what the scan
    /// oracle's symbols make of the same lengths.
    fn assert_plan_as_the_scan_planned(lit_lens: &[u8], dist_lens: &[u8], what: &str) {
        let p = plan_dynamic(lit_lens, dist_lens);
        let seq = [&lit_lens[..p.hlit], &dist_lens[..p.hdist]].concat();
        let mut want = [(0, 0, 0); MAX_HEADER_LENS];
        let count = oracle::rle_code_lengths(&seq, &mut want);
        assert_eq!(p.syms[..p.sym_count], want[..count], "{what}");
        let bits = 5
            + 5
            + 4
            + p.hclen * 3
            + want[..count]
                .iter()
                .map(|&(s, eb, _)| p.cl_lens[s as usize] as usize + eb as usize)
                .sum::<usize>();
        assert_eq!(p.header_bits, bits, "{what}");
    }

    #[test]
    fn every_run_of_every_length_is_coded_as_the_scan_coded_it() {
        // Each code length in a run of each length the header can hold,
        // alone, after a different length, and before two more.
        for v in 0..=MAX_CODE_LEN {
            let (x, y) = ((v + 1) % 16, (v + 9) % 16);
            for run in 1..=MAX_HEADER_LENS {
                for (lead, tail) in [(0, 0), (1, 0), (0, 2), (1, 2)] {
                    let seq: Vec<u8> = std::iter::repeat_n(x, lead)
                        .chain(std::iter::repeat_n(v, run))
                        .chain(std::iter::repeat_n(y, tail))
                        .take(MAX_HEADER_LENS)
                        .collect();
                    let mut got = [(0, 0, 0); MAX_HEADER_LENS + TAIL_SLACK];
                    let mut want = [(0, 0, 0); MAX_HEADER_LENS];
                    let count = rle_code_lengths(&seq, &mut got);
                    let want_count = oracle::rle_code_lengths(&seq, &mut want);
                    assert_eq!(
                        got[..count],
                        want[..want_count],
                        "{v} x {run}, {lead}/{tail}"
                    );
                }
            }
        }
    }

    #[test]
    fn alphabets_of_every_length_are_planned_as_the_scan_planned_them() {
        // Code lengths 0–15 in runs of every length up to past 138, the
        // zero runs longer on the whole, over full and trimmed alphabets.
        let mut state = 0xA1FA_BE75u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for round in 0..2000 {
            let mut lens = [0u8; NUM_LITLEN + NUM_DIST];
            let mut i = 0;
            while i < lens.len() {
                let v = if next(3) == 0 { 0 } else { next(16) as u8 };
                let run = 1 + next(if round % 4 == 0 {
                    160
                } else if v == 0 {
                    24
                } else {
                    9
                }) as usize;
                let end = (i + run).min(lens.len());
                lens[i..end].fill(v);
                i = end;
            }
            let (lit_lens, dist_lens) = lens.split_at(NUM_LITLEN);
            assert_plan_as_the_scan_planned(lit_lens, dist_lens, &format!("round {round}"));
        }
    }
}
