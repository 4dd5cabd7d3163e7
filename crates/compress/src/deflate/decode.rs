//! The RFC 1950/1951 inflate state machine.
//!
//! Decodes complete zlib streams from *any* conforming producer: header
//! validation (method, window size, check bits, no preset dictionary),
//! all three block types, the dynamic code-length alphabet with its
//! 16/17/18 repeat codes, and the Adler-32 trailer. Every malformed-input
//! path returns a [`DecodeError`]; nothing panics, and no allocation is
//! sized from untrusted header fields (output grows only as bytes are
//! actually produced, capped by the caller's `limit`).

use std::sync::OnceLock;

use super::bits::LsbReader;
use super::encode::{fixed_dist_lens, fixed_litlen_lens};
use super::huffman::DecodeTable;
use super::lz77::{DIST_TABLE, EOB, LEN_TABLE, NUM_DIST, NUM_LITLEN};
use super::CLCODE_ORDER;
use crate::DecodeError;

/// The fixed-Huffman decode tables of RFC 1951 §3.2.6, built on first use.
fn fixed_tables() -> &'static (DecodeTable, DecodeTable) {
    static TABLES: OnceLock<(DecodeTable, DecodeTable)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let table = |lens: &[u8]| {
            DecodeTable::from_lengths(lens)
                .ok()
                .flatten()
                .expect("the fixed codes are complete and non-empty")
        };
        (table(&fixed_litlen_lens()), table(&fixed_dist_lens()))
    })
}

/// Decompresses one zlib stream starting at `bytes[0]`. Returns the
/// decoded payload and how many input bytes the stream occupied (callers
/// with concatenated streams resume right after). `limit` caps the output
/// length; producing more is an error, so a hostile stream cannot balloon
/// memory past what the caller expects.
pub(crate) fn decompress(bytes: &[u8], limit: usize) -> Result<(Vec<u8>, usize), DecodeError> {
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
                let (lit, dist) = fixed_tables();
                decode_block(&mut r, &mut out, lit, Some(dist), limit)?;
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
/// tables. The distance table may be absent when the block declares no
/// usable distance codes — legal as long as no match is then coded.
#[allow(clippy::type_complexity)]
fn dynamic_tables(
    r: &mut LsbReader<'_>,
) -> Result<(DecodeTable, Option<DecodeTable>), DecodeError> {
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
    let cl = DecodeTable::from_lengths(&cl_lens)?
        .ok_or(DecodeError::Corrupt("empty code-length alphabet"))?;
    let total = hlit + hdist;
    // Fixed 316-entry bound — never sized from untrusted input.
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
    let lit = DecodeTable::from_lengths(&lens[..hlit])?
        .ok_or(DecodeError::Corrupt("empty literal/length alphabet"))?;
    let dist = DecodeTable::from_lengths(&lens[hlit..])?;
    Ok((lit, dist))
}

fn decode_block(
    r: &mut LsbReader<'_>,
    out: &mut Vec<u8>,
    lit: &DecodeTable,
    dist: Option<&DecodeTable>,
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
