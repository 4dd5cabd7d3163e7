//! LSB-first bit I/O for RFC 1951 DEFLATE streams.
//!
//! DEFLATE packs bits into bytes starting at each byte's *least*
//! significant bit (RFC 1951 §3.1.1). Huffman codes are the one
//! exception: they travel with their most significant code bit first, so
//! code values are bit-reversed on their way into and out of the
//! LSB-first stream.

use crate::DecodeError;

/// Reverses the low `len` bits of `code` (Huffman codes enter the
/// LSB-first stream most-significant-bit first).
#[inline]
pub(crate) fn reverse_bits(code: u32, len: u8) -> u32 {
    if len == 0 {
        return 0;
    }
    code.reverse_bits() >> (32 - len as u32)
}

/// LSB-first bit writer appending to a caller's byte buffer.
///
/// Bits collect in a 64-bit accumulator and leave four bytes at a time;
/// [`LsbWriter::align_byte`] (or [`LsbWriter::finish`]) flushes the rest.
pub(crate) struct LsbWriter<'a> {
    out: &'a mut Vec<u8>,
    bitbuf: u64,
    /// Pending bits in `bitbuf`; below 32 between calls.
    nbits: u32,
}

impl<'a> LsbWriter<'a> {
    /// Starts writing at the end of `out`.
    pub(crate) fn new(out: &'a mut Vec<u8>) -> Self {
        LsbWriter {
            out,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Writes the low `n` bits of `val`, LSB first (`n <= 32`). Huffman
    /// codes go through here already bit-reversed
    /// ([`super::huffman::lsb_codes`]).
    #[inline]
    pub(crate) fn write_bits(&mut self, val: u32, n: u32) {
        debug_assert!(n <= 32);
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

    /// Pads the current partial byte with zero bits and flushes every
    /// pending byte.
    pub(crate) fn align_byte(&mut self) {
        let pending = self.nbits.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.bitbuf.to_le_bytes()[..pending]);
        self.bitbuf = 0;
        self.nbits = 0;
    }

    /// Appends whole bytes; the writer must be byte-aligned.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "write_bytes requires align_byte first");
        self.out.extend_from_slice(bytes);
    }

    /// Flushes the final partial byte.
    pub(crate) fn finish(mut self) {
        self.align_byte();
    }
}

/// LSB-first bit reader over a byte slice.
///
/// The reader never allocates and never reads past the slice; truncation
/// surfaces as a [`DecodeError`], not a panic.
pub(crate) struct LsbReader<'a> {
    data: &'a [u8],
    /// Next byte to load into the bit buffer.
    pos: usize,
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

    #[inline]
    fn fill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.bitbuf |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `n` bits (`n <= 32`) LSB first; errors on truncation.
    pub(crate) fn read_bits(&mut self, n: u32) -> Result<u32, DecodeError> {
        debug_assert!(n <= 32);
        self.fill();
        if self.nbits < n {
            return Err(DecodeError::Corrupt("unexpected end of stream"));
        }
        let v = (self.bitbuf & ((1u64 << n) - 1)) as u32;
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Peeks up to `n` bits without consuming them. Returns the bits
    /// (zero-padded past end of input) and how many are really available.
    #[inline]
    pub(crate) fn peek(&mut self, n: u32) -> (u32, u32) {
        debug_assert!(n <= 32);
        self.fill();
        ((self.bitbuf & ((1u64 << n) - 1)) as u32, self.nbits.min(n))
    }

    /// Consumes `n` bits previously peeked (`n <=` available bits).
    #[inline]
    pub(crate) fn consume(&mut self, n: u32) {
        debug_assert!(self.nbits >= n);
        self.bitbuf >>= n;
        self.nbits -= n;
    }

    /// Drops bits up to the next byte boundary (stored blocks, trailers).
    pub(crate) fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.bitbuf >>= drop;
        self.nbits -= drop;
    }

    /// Reads one byte; the reader must be byte-aligned.
    pub(crate) fn read_byte(&mut self) -> Result<u8, DecodeError> {
        debug_assert_eq!(self.nbits % 8, 0, "read_byte requires byte alignment");
        self.fill();
        if self.nbits < 8 {
            return Err(DecodeError::Corrupt("unexpected end of stream"));
        }
        let b = self.bitbuf as u8;
        self.bitbuf >>= 8;
        self.nbits -= 8;
        Ok(b)
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

    #[test]
    fn lsb_roundtrip_mixed_widths() {
        let mut bytes = Vec::new();
        let mut w = LsbWriter::new(&mut bytes);
        w.write_bits(0b1, 1);
        w.write_bits(0b01, 2);
        w.write_bits(0x5A, 8);
        w.write_bits(0x1FFFF, 17);
        w.write_bits(0xFFFF_FFFF, 32);
        w.finish();
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
        let mut bytes = Vec::new();
        let mut w = LsbWriter::new(&mut bytes);
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.write_bits(0b101, 3);
        w.finish();
        assert_eq!(bytes, vec![0b0010_1001]);
    }

    #[test]
    fn reverse_bits_matches_manual() {
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0, 0), 0);
        assert_eq!(reverse_bits(0x0001, 16), 0x8000);
    }

    #[test]
    fn align_and_bytes_interleave() {
        let mut bytes = Vec::new();
        let mut w = LsbWriter::new(&mut bytes);
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bytes(&[0xAB, 0xCD]);
        w.finish();
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
    fn peek_reports_available_bits_at_end() {
        let bytes = [0xFF];
        let mut r = LsbReader::new(&bytes);
        let (bits, avail) = r.peek(15);
        assert_eq!(avail, 8);
        assert_eq!(bits, 0xFF);
        r.consume(8);
        let (_, avail) = r.peek(15);
        assert_eq!(avail, 0);
    }
}
