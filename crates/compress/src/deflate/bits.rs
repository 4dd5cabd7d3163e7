//! LSB-first bit I/O for RFC 1951 DEFLATE streams.
//!
//! DEFLATE packs bits into bytes starting at each byte's *least*
//! significant bit (RFC 1951 §3.1.1). Huffman codes are the one
//! exception: they travel with their most significant code bit first, so
//! code values are bit-reversed on their way into and out of the
//! LSB-first stream.

use crate::DecodeError;

/// Reverses the low `len` bits of `code`, `len <= 16` (Huffman codes
/// enter the LSB-first stream most-significant-bit first). `len == 0`
/// needs no branch: everything is shifted out.
///
/// Two byte lookups: x86 has no instruction that reverses bits, and the
/// shift-and-mask ladder `u32::reverse_bits` compiles to there costs a
/// third of the canonical code assignment that calls this per symbol.
#[inline]
pub(crate) fn reverse_bits(code: u32, len: u8) -> u32 {
    let reversed = (REVERSED_BYTES[(code & 0xFF) as usize] as u32) << 8
        | REVERSED_BYTES[(code >> 8 & 0xFF) as usize] as u32;
    reversed >> (16 - len as u32)
}

/// Every byte with its bits in reverse order.
const REVERSED_BYTES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = (i as u8).reverse_bits();
        i += 1;
    }
    table
};

/// Bytes a writer's buffer must hold past the last byte it is asked to
/// write: [`LsbWriter::flush`] stores the whole accumulator every time.
pub(crate) const WRITER_SLACK: usize = 8;

/// LSB-first bit writer over a buffer its caller sized beforehand.
///
/// Every encoder knows the exact bit count of a block before its first
/// code goes out, so the output is grown once, by the caller, and the
/// writer only stores into it: codes are ORed into a 64-bit accumulator
/// ([`LsbWriter::push`]) and [`LsbWriter::flush`] stores all eight bytes
/// of it at the cursor, then moves the cursor past the whole ones. No
/// write grows anything and none branches on how full the accumulator is.
pub(crate) struct LsbWriter<'a> {
    /// [`WRITER_SLACK`] bytes longer than what will be written; what it
    /// holds beforehand does not matter.
    buf: &'a mut [u8],
    /// Where the accumulator's low byte belongs.
    pos: usize,
    bitbuf: u64,
    /// Pending bits in `bitbuf`; below 8 after a flush.
    nbits: u32,
}

impl<'a> LsbWriter<'a> {
    /// Most bits that may be [`LsbWriter::push`]ed between two flushes:
    /// with the up to seven a flush leaves behind they fill the
    /// accumulator short of one.
    pub(crate) const MAX_PENDING: u32 = 56;

    /// Starts writing at the front of `buf`.
    pub(crate) fn new(buf: &'a mut [u8]) -> Self {
        LsbWriter {
            buf,
            pos: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Adds the low `n` bits of `val` (which has no others set), LSB
    /// first, to the accumulator. Huffman codes go through here already
    /// bit-reversed ([`super::huffman::lsb_codes`]).
    #[inline(always)]
    pub(crate) fn push(&mut self, val: u64, n: u32) {
        debug_assert!(n <= Self::MAX_PENDING && val >> n == 0);
        debug_assert!(self.nbits + n < 64, "flush every MAX_PENDING bits");
        self.bitbuf |= val << self.nbits;
        self.nbits += n;
    }

    /// [`LsbWriter::push`] of a symbol's `code | len << 16` entry.
    #[inline(always)]
    pub(crate) fn push_code(&mut self, entry: u32) {
        self.push((entry & 0xFFFF) as u64, entry >> 16);
    }

    /// Stores the accumulator at the cursor and keeps what is left of its
    /// last, partial byte.
    #[inline(always)]
    pub(crate) fn flush(&mut self) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&self.bitbuf.to_le_bytes());
        self.pos += (self.nbits >> 3) as usize;
        self.bitbuf >>= self.nbits & !7;
        self.nbits &= 7;
    }

    /// Writes the low `n` bits of `val`, LSB first (`n <= 32`).
    #[inline]
    pub(crate) fn write_bits(&mut self, val: u32, n: u32) {
        self.push(val as u64, n);
        self.flush();
    }

    /// Pads the current partial byte with zero bits and returns how many
    /// bytes were written.
    pub(crate) fn finish(mut self) -> usize {
        self.flush();
        self.pos + usize::from(self.nbits > 0)
    }
}

/// LSB-first bit reader over a byte slice.
///
/// The reader never allocates and never reads past the slice; truncation
/// surfaces as a [`DecodeError`], not a panic.
///
/// Decoders use it at two speeds. The checked calls ([`read_bits`],
/// [`read_byte`], a table's `decode`) refill and test for the end of
/// input every time. A fast loop instead asks [`unread`] once per
/// iteration: while at least eight bytes have not been loaded yet,
/// [`refill`] is one unaligned 8-byte load that leaves at least 56 bits
/// of real input in [`bits`], and that many can be taken with
/// [`consume`] without looking at the end of input at all.
///
/// [`read_bits`]: LsbReader::read_bits
/// [`read_byte`]: LsbReader::read_byte
/// [`unread`]: LsbReader::unread
/// [`refill`]: LsbReader::refill
/// [`bits`]: LsbReader::bits
/// [`consume`]: LsbReader::consume
#[derive(Clone, Copy)]
pub(crate) struct LsbReader<'a> {
    data: &'a [u8],
    /// Next byte to load into the bit buffer.
    pos: usize,
    /// The next bit of the stream is bit 0. Bits at and above `nbits` are
    /// either zero or a preview of the bytes from `pos` on (a word load
    /// brings in more than it counts), so loading those bytes again ORs
    /// the same bits in and past the end of input they are zero.
    bitbuf: u64,
    nbits: u32,
}

impl<'a> LsbReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        LsbReader {
            data,
            pos: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Tops the bit buffer up to at least 56 bits, or to everything that
    /// is left of the input: one little-endian word load while eight
    /// bytes remain, a byte at a time for the tail.
    #[inline]
    pub(crate) fn refill(&mut self) {
        if self.unread() >= 8 {
            self.refill_word();
        } else {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.bitbuf |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// [`LsbReader::refill`] for a caller that knows eight bytes are
    /// [`LsbReader::unread`]: the word load alone, which always leaves
    /// 56 bits or more.
    ///
    /// # Panics
    ///
    /// Panics if fewer than eight bytes are unread.
    #[inline(always)]
    pub(crate) fn refill_word(&mut self) {
        let word = self.data[self.pos..self.pos + 8]
            .try_into()
            .expect("an 8-byte slice");
        self.bitbuf |= u64::from_le_bytes(word) << self.nbits;
        // Whole bytes that fit above the `nbits` already there.
        self.pos += ((63 - self.nbits) >> 3) as usize;
        self.nbits |= 56;
    }

    /// Input bytes not loaded into the bit buffer yet. While this is at
    /// least 8, a refill leaves 56 real bits or more.
    #[inline]
    pub(crate) fn unread(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The buffered bits, next bit of the stream lowest. Only the low
    /// [`LsbReader::available`] count as buffered; the ones above are
    /// the stream's next bits or zero, and zero past the end of input.
    #[inline]
    pub(crate) fn bits(&self) -> u64 {
        self.bitbuf
    }

    /// How many bits are buffered (at most 63).
    #[inline]
    pub(crate) fn available(&self) -> u32 {
        self.nbits
    }

    /// Consumes `n` buffered bits (`n <=` [`LsbReader::available`]).
    #[inline]
    pub(crate) fn consume(&mut self, n: u32) {
        debug_assert!(self.nbits >= n);
        self.bitbuf >>= n;
        self.nbits -= n;
    }

    /// Consumes the code a decode table found: [`LsbReader::consume`] of
    /// the length in the low byte of `entry`. The buffer is shifted by
    /// `entry` itself — a 64-bit shift looks at the low six bits of its
    /// count, which a length of at most 15 leaves to it — so it moves on
    /// without waiting for the length to be masked out.
    #[inline(always)]
    pub(crate) fn consume_code(&mut self, entry: u32) {
        debug_assert!(entry & 0xFF <= self.nbits.min(15));
        self.bitbuf = self.bitbuf.wrapping_shr(entry);
        self.nbits -= entry & 0xFF;
    }

    /// Reads `n` bits (`n <= 32`) LSB first; errors on truncation.
    #[inline]
    pub(crate) fn read_bits(&mut self, n: u32) -> Result<u32, DecodeError> {
        debug_assert!(n <= 32);
        self.refill();
        if self.nbits < n {
            return Err(DecodeError::Corrupt("unexpected end of stream"));
        }
        let v = (self.bitbuf & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(v)
    }

    /// Drops bits up to the next byte boundary (stored blocks, trailers).
    pub(crate) fn align_byte(&mut self) {
        self.consume(self.nbits % 8);
    }

    /// Reads one byte; the reader must be byte-aligned.
    pub(crate) fn read_byte(&mut self) -> Result<u8, DecodeError> {
        debug_assert_eq!(self.nbits % 8, 0, "read_byte requires byte alignment");
        Ok(self.read_bits(8)? as u8)
    }

    /// Borrows the next `n` whole bytes; the reader must be byte-aligned.
    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        debug_assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
        // Whole bytes waiting in the bit buffer go back to the slice.
        self.pos = self.bytes_consumed();
        self.bitbuf = 0;
        self.nbits = 0;
        let bytes = self.data[self.pos..]
            .get(..n)
            .ok_or(DecodeError::Corrupt("unexpected end of stream"))?;
        self.pos += n;
        Ok(bytes)
    }

    /// Input bytes not consumed yet (see [`LsbReader::bytes_consumed`]).
    pub(crate) fn bytes_remaining(&self) -> usize {
        self.data.len() - self.bytes_consumed()
    }

    /// Input bytes consumed so far. Whole bytes still sitting unread in
    /// the bit buffer do not count; a partially-consumed byte does.
    pub(crate) fn bytes_consumed(&self) -> usize {
        self.pos - (self.nbits as usize / 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `write` writes, in a buffer of `bytes` bytes and the slack.
    fn written(bytes: usize, write: impl FnOnce(&mut LsbWriter<'_>)) -> Vec<u8> {
        let mut buf = vec![0u8; bytes + WRITER_SLACK];
        let mut w = LsbWriter::new(&mut buf);
        write(&mut w);
        let n = w.finish();
        buf.truncate(n);
        buf
    }

    #[test]
    fn lsb_roundtrip_mixed_widths() {
        let bytes = written(8, |w| {
            w.write_bits(0b1, 1);
            w.write_bits(0b01, 2);
            w.write_bits(0x5A, 8);
            w.write_bits(0x1FFFF, 17);
            w.write_bits(0xFFFF_FFFF, 32);
        });
        assert_eq!(bytes.len(), 8);
        let mut r = LsbReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(2).unwrap(), 0b01);
        assert_eq!(r.read_bits(8).unwrap(), 0x5A);
        assert_eq!(r.read_bits(17).unwrap(), 0x1FFFF);
        assert_eq!(r.read_bits(32).unwrap(), 0xFFFF_FFFF);
        assert!(r.read_bits(8).is_err());
    }

    #[test]
    fn first_bit_lands_in_the_low_bit() {
        // RFC 1951 §3.1.1: bits fill each byte starting at bit 0.
        let bytes = written(1, |w| {
            w.write_bits(1, 1);
            w.write_bits(0, 2);
            w.write_bits(0b101, 3);
        });
        assert_eq!(bytes, vec![0b0010_1001]);
    }

    #[test]
    fn reverse_bits_matches_manual() {
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b101, 0), 0);
        assert_eq!(reverse_bits(0x0001, 16), 0x8000);
        // Every code of every length, against the word-wide reversal.
        for len in 0..=16u8 {
            for code in 0..1u32 << 16 {
                let want = code.reverse_bits() >> 1 >> (31 - len as u32);
                assert_eq!(reverse_bits(code, len), want, "{code:#x} {len}");
            }
        }
    }

    #[test]
    fn align_and_bytes_interleave() {
        let bytes = [0b11, 0xAB, 0xCD];
        let mut r = LsbReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        assert_eq!(r.read_byte().unwrap(), 0xAB);
        assert_eq!(r.bytes_remaining(), 1);
        assert_eq!(r.read_bytes(1).unwrap(), [0xCD]);
        assert_eq!(r.bytes_consumed(), 3);
        assert!(r.read_bytes(1).is_err());
    }

    #[test]
    fn bits_past_the_end_of_input_read_as_zero() {
        let bytes = [0xFF];
        let mut r = LsbReader::new(&bytes);
        r.refill();
        assert_eq!((r.bits(), r.available()), (0xFF, 8));
        r.consume(8);
        r.refill();
        assert_eq!((r.bits(), r.available()), (0, 0));
    }

    #[test]
    fn word_and_byte_refills_read_the_same_stream() {
        // Every read width against a bit-at-a-time model, over inputs
        // long enough for the word load and short enough for the byte
        // tail, with `bytes_consumed` checked at every step.
        let data: Vec<u8> = (0..41u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..data.len() {
            let data = &data[..len];
            let bit = |i: usize| (data[i / 8] >> (i % 8)) as u32 & 1;
            for width in 1..=32usize {
                let mut r = LsbReader::new(data);
                let mut at = 0usize;
                while at + width <= len * 8 {
                    let want = (0..width).fold(0u32, |v, k| v | bit(at + k) << k);
                    assert_eq!(r.read_bits(width as u32).unwrap(), want);
                    at += width;
                    assert_eq!(r.bytes_consumed(), at.div_ceil(8));
                    assert_eq!(r.bytes_remaining(), len - at.div_ceil(8));
                }
                assert!(r.read_bits(width as u32).is_err());
            }
        }
    }

    #[test]
    fn a_refill_with_eight_unread_bytes_buffers_56_real_bits() {
        let data: Vec<u8> = (1..=24u8).collect();
        let mut r = LsbReader::new(&data);
        let mut taken = 0usize;
        for step in [0u32, 3, 15, 48, 1, 56, 7] {
            r.consume(step);
            taken += step as usize;
            if r.unread() < 8 {
                break;
            }
            r.refill();
            assert!(r.available() >= 56);
            // Everything in the buffer is the stream from `taken` on,
            // including the preview bits above `available`.
            let bits = r.bits();
            for k in 0..64usize {
                let i = taken + k;
                let want = if i / 8 < data.len() {
                    (data[i / 8] >> (i % 8)) as u64 & 1
                } else {
                    0
                };
                if (k as u32) < r.available() {
                    assert_eq!(bits >> k & 1, want, "bit {k} after {taken}");
                } else {
                    assert!(bits >> k & 1 == 0 || bits >> k & 1 == want);
                }
            }
        }
    }
}
