//! The **portable** ZVC kernel tier: branch-free word-at-a-time mask folds
//! and one payload word moved per set mask bit, in safe code with no
//! `std::arch` dependency.
//!
//! This is the tier every platform can run. Its window moves write into
//! the drivers' reservations as `MaybeUninit` slices, and every word
//! crosses the wire through `to_le_bytes` / `from_le_bytes`, so one path is
//! right on either endianness. Its packer moves the SSE2 tier's compress
//! payloads (SSE2 has no compaction shuffle) and every tier's tail window
//! on compress; its decoder is the SSE2 tier's window move too, and the
//! decompress driver's checked path for every tier. A set bit costs a
//! `trailing_zeros` and one word move, with no call and no branch on the
//! data, so mixed windows — the densities training produces — cost what
//! their non-zeros cost.

use std::mem::MaybeUninit;

/// Folds the per-word zero tests of one window into its presence mask
/// with shifts — branch-free, and chunked eight lanes at a time so the
/// fixed-length inner fold compiles to a wide compare + move-mask instead
/// of a data-dependent loop. A word is zero iff its bit pattern is:
/// `-0.0`, denormals and NaN payloads are all "non-zero", which is what
/// makes the codec bit-exact.
#[inline(always)]
pub(super) fn window_mask(chunk: &[f32]) -> u32 {
    let mut mask = 0u32;
    let (lanes, rest) = chunk.as_chunks::<8>();
    let mut base = 0u32;
    for ch in lanes {
        let mut m8 = 0u32;
        for (i, w) in ch.iter().enumerate() {
            m8 |= u32::from(w.to_bits() != 0) << i;
        }
        mask |= m8 << base;
        base += 8;
    }
    for (i, w) in rest.iter().enumerate() {
        mask |= u32::from(w.to_bits() != 0) << (base + i as u32);
    }
    mask
}

/// Writes the non-zero payload of `chunk` (whose presence mask is `mask`)
/// to the front of `dst`, in word order, and returns the number of words
/// written: a dense window as one straight copy, any other one word per
/// set bit, found by `trailing_zeros`.
///
/// # Panics
///
/// If `dst` is shorter than `mask.count_ones() * 4` bytes.
#[inline(always)]
pub(super) fn copy_nonzeros(mask: u32, chunk: &[f32], dst: &mut [MaybeUninit<u8>]) -> usize {
    let (words, _) = dst.as_chunks_mut::<4>();
    if mask.trailing_ones() as usize == chunk.len() {
        for (d, v) in words[..chunk.len()].iter_mut().zip(chunk) {
            *d = v.to_le_bytes().map(MaybeUninit::new);
        }
        return chunk.len();
    }
    let mut m = mask;
    let mut at = 0usize;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        words[at] = chunk[i].to_le_bytes().map(MaybeUninit::new);
        at += 1;
        m &= m - 1;
    }
    at
}

/// Writes one whole window of up to 32 words — its mask, then its packed
/// payload — to the front of `dst`, and returns the mask and the bytes
/// written: the portable full-window move, and every tier's tail window.
///
/// # Panics
///
/// If `dst` is shorter than the window's `4 + 4 * nonzeros` bytes.
#[inline(always)]
pub(super) fn pack_window(chunk: &[f32], dst: &mut [MaybeUninit<u8>]) -> (u32, usize) {
    let mask = window_mask(chunk);
    dst[..4].write_copy_of_slice(&mask.to_le_bytes());
    (mask, 4 + 4 * copy_nonzeros(mask, chunk, &mut dst[4..]))
}

/// Decodes one window of `dst.len()` words: zero-fills it, then writes
/// each payload word to the position of its mask bit (a dense window as
/// one straight copy). Writes every word of `dst` and reads exactly the
/// first `mask.count_ones() * 4` bytes of `payload`.
///
/// # Panics
///
/// If `payload` is shorter than that, or `mask` has a bit at or above
/// `dst.len()`.
#[inline(always)]
pub(super) fn expand_nonzeros(mask: u32, payload: &[u8], dst: &mut [MaybeUninit<f32>]) {
    let (words, _) = payload.as_chunks::<4>();
    let n = dst.len();
    if mask.trailing_ones() as usize == n {
        for (d, w) in dst.iter_mut().zip(&words[..n]) {
            d.write(f32::from_le_bytes(*w));
        }
        return;
    }
    dst.fill(MaybeUninit::new(0.0));
    let mut m = mask;
    for w in words {
        if m == 0 {
            break;
        }
        dst[m.trailing_zeros() as usize].write(f32::from_le_bytes(*w));
        m &= m - 1;
    }
    assert!(m == 0, "payload shorter than its mask");
}
