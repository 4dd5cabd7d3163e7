//! Adler-32 (RFC 1950 §8) — the zlib container's payload checksum.

use crate::Kernel;

/// Largest prime below 2^16; both running sums reduce modulo it.
const MOD: u32 = 65_521;

/// Longest run of bytes whose sums cannot overflow `u32` between
/// reductions (zlib's NMAX).
const NMAX: usize = 5552;

/// Bytes summed between two steps of the running sums.
const ROW: usize = 128;

/// `ROW, ROW - 1, …, 1`: how often each byte of a row counts in `b`.
const WEIGHTS: [i16; ROW] = {
    let mut weights = [0i16; ROW];
    let mut j = 0;
    while j < ROW {
        weights[j] = (ROW - j) as i16;
        j += 1;
    }
    weights
};

/// Computes the Adler-32 checksum of `data`, as stored (big-endian) in a
/// zlib stream's trailer.
///
/// The sums run through [`Kernel::run`]: compiled for the active ZVC
/// tier, they vectorize at that tier's width (AVX-512 takes a 4 KB
/// window in half the time the baseline does). They are integer sums,
/// so every tier returns the same checksum.
pub(crate) fn adler32(data: &[u8]) -> u32 {
    Kernel::active().run(|| sums(data))
}

/// [`adler32`]'s one loop, inlined into each tier's entry.
///
/// `a` is one plus the sum of the bytes and `b` the sum of every value
/// `a` took, so a row of [`ROW`] bytes moves `b` by `ROW·a` plus the
/// row's bytes weighted `ROW, ROW - 1, …, 1`, and `a` by their plain
/// sum. Both are dot products with no step that waits for the byte
/// before — which is what lets them run wide — and the modulos wait for
/// the end of each [`NMAX`] block.
#[inline(always)]
fn sums(data: &[u8]) -> u32 {
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for block in data.chunks(NMAX) {
        let mut rows = block.chunks_exact(ROW);
        for row in &mut rows {
            let (mut sum, mut weighted) = (0i32, 0i32);
            for (&byte, &weight) in row.iter().zip(&WEIGHTS) {
                sum += byte as i32;
                weighted += byte as i32 * weight as i32;
            }
            b += ROW as u32 * a + weighted as u32;
            a += sum as u32;
        }
        for &byte in rows.remainder() {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 1950 reference values.
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b"hello world"), 0x1A0B_045D);
    }

    #[test]
    fn every_length_matches_the_bytewise_definition() {
        // The definition, one byte at a time.
        let bytewise = |data: &[u8]| {
            let (mut a, mut b) = (1u64, 0u64);
            for &byte in data {
                a = (a + byte as u64) % MOD as u64;
                b = (b + a) % MOD as u64;
            }
            (b << 16 | a) as u32
        };
        // Every supported tier's build of the sums, at every length up to
        // a few rows, around the NMAX block edge and either side of the
        // first row past the second block, over bytes that are not all
        // alike and bytes that are all 0xFF (the sums' largest).
        let lens = (0..=300).chain(NMAX - 20..NMAX + 20).chain([
            2 * NMAX + ROW - 1,
            2 * NMAX + ROW,
            2 * NMAX + ROW + 1,
        ]);
        let mixed: Vec<u8> = (0..2 * NMAX + ROW + 1)
            .map(|i| (i * i / 7 + i) as u8)
            .collect();
        let ones = vec![0xFFu8; mixed.len()];
        for k in Kernel::supported() {
            for len in lens.clone() {
                for data in [&mixed[..len], &ones[..len]] {
                    let want = bytewise(data);
                    assert_eq!(k.run(|| sums(data)), want, "{} len={len}", k.tier());
                    assert_eq!(adler32(data), want, "active tier, len={len}");
                }
            }
        }
    }

    #[test]
    fn long_input_reduces_without_overflow() {
        // 1 MiB of 0xFF exercises many NMAX reduction boundaries;
        // reference value from Python's zlib.adler32.
        let data = vec![0xFFu8; 1 << 20];
        assert_eq!(adler32(&data), 0x8E88_EF11);
    }
}
