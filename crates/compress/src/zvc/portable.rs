//! The **portable** ZVC kernel tier: branch-free word-at-a-time mask folds
//! and run-granular payload moves, with no `std::arch` dependency.
//!
//! This is the tier every platform can run (and the only tier on
//! big-endian targets). Its run copier moves the SSE2 tier's compress
//! payloads (SSE2 has no compaction shuffle) and every SIMD tier's tail
//! window on compress; its decompress kernel is the SSE2 tier's too, and
//! its run decoder the decompress driver's checked path for every tier.

use super::kernel::decompress_stream;
use super::ZVC_WINDOW_ELEMS;
use crate::DecodeError;

/// Reinterprets activation words as their raw `u32` bit patterns.
///
/// SAFETY rationale: `f32` and `u32` have identical size (4) and alignment
/// (4), and every bit pattern is a valid `u32`, so the cast view is sound.
/// Zero-testing the bit pattern (rather than `== 0.0`) is what makes the
/// codec bit-exact: `-0.0`, denormals and NaN payloads are all "non-zero".
#[inline]
pub(crate) fn window_bits(chunk: &[f32]) -> &[u32] {
    unsafe { core::slice::from_raw_parts(chunk.as_ptr().cast::<u32>(), chunk.len()) }
}

/// Folds the per-word zero comparisons of one window into its presence
/// mask with shifts — branch-free, and chunked eight lanes at a time so
/// the fixed-length inner fold compiles to a wide compare + move-mask
/// instead of a data-dependent loop.
#[inline]
pub(super) fn window_mask(chunk: &[f32]) -> u32 {
    let bits = window_bits(chunk);
    let mut mask = 0u32;
    let mut lanes = bits.chunks_exact(8);
    let mut base = 0u32;
    for ch in lanes.by_ref() {
        let mut m8 = 0u32;
        for (i, w) in ch.iter().enumerate() {
            m8 |= u32::from(*w != 0) << i;
        }
        mask |= m8 << base;
        base += 8;
    }
    for (i, w) in lanes.remainder().iter().enumerate() {
        mask |= u32::from(*w != 0) << (base + i as u32);
    }
    mask
}

/// Copies the non-zero payload of one window (whose presence mask is
/// `mask`) from `src` to `dst` as contiguous runs found by
/// `trailing_zeros`/`trailing_ones` scans, returning the advanced cursor.
///
/// # Safety
///
/// `src` must point at `count` readable `f32` words and `dst` at
/// `mask.count_ones() * 4` writable bytes.
#[cfg(target_endian = "little")]
#[inline]
pub(super) unsafe fn copy_runs(
    mask: u32,
    count: usize,
    src: *const u8,
    mut dst: *mut u8,
) -> *mut u8 {
    if mask.count_ones() as usize == count {
        // Dense window: one straight copy.
        core::ptr::copy_nonoverlapping(src, dst, count * 4);
        return dst.add(count * 4);
    }
    let mut m = mask;
    while m != 0 {
        let run_start = m.trailing_zeros() as usize;
        let run = (m >> run_start).trailing_ones() as usize;
        core::ptr::copy_nonoverlapping(src.add(run_start * 4), dst, run * 4);
        dst = dst.add(run * 4);
        let end = run_start + run;
        m = if end >= 32 { 0 } else { m & (u32::MAX << end) };
    }
    dst
}

/// Emits one whole window (mask + run-copied payload) at `dst`, returning
/// the advanced cursor. The tail-window workhorse shared by every tier.
///
/// # Safety
///
/// `dst` must have `4 + chunk-nonzeros * 4` bytes of writable space.
#[cfg(target_endian = "little")]
#[inline]
pub(super) unsafe fn compress_window(chunk: &[f32], dst: *mut u8) -> *mut u8 {
    let mask = window_mask(chunk);
    core::ptr::copy_nonoverlapping(mask.to_le_bytes().as_ptr(), dst, 4);
    copy_runs(mask, chunk.len(), chunk.as_ptr().cast::<u8>(), dst.add(4))
}

/// The portable whole-stream compress kernel: writes into `out`'s reserved
/// spare capacity through a raw cursor — the mask and each contiguous
/// non-zero run land as straight `memcpy`s, one `set_len` publishes the
/// stream.
///
/// # Safety
///
/// The caller must have reserved the worst-case output size
/// ([`super::kernel::worst_case_bytes`]) in `out`'s spare capacity.
#[cfg(target_endian = "little")]
pub(super) unsafe fn compress(data: &[f32], out: &mut Vec<u8>) {
    // SAFETY: the caller reserved the worst-case output size, so every
    // write below lands in spare capacity; `dst` only ever advances past
    // bytes just written; on a little-endian target the in-memory bytes of
    // an `f32` are exactly its wire encoding (`to_le_bytes`); `set_len`
    // publishes exactly the bytes written.
    let base = out.len();
    debug_assert!(out.capacity() - base >= super::kernel::worst_case_bytes(data.len()));
    let start_ptr = out.as_mut_ptr().add(base);
    let mut dst = start_ptr;
    for chunk in data.chunks(ZVC_WINDOW_ELEMS) {
        dst = compress_window(chunk, dst);
    }
    out.set_len(base + usize::try_from(dst.offset_from(start_ptr)).unwrap());
}

/// Big-endian fallback: the same branch-free run scan through safe
/// appends, with per-word little-endian serialization (the wire format is
/// LE regardless of host).
#[cfg(not(target_endian = "little"))]
pub(super) unsafe fn compress(data: &[f32], out: &mut Vec<u8>) {
    for chunk in data.chunks(ZVC_WINDOW_ELEMS) {
        let mask = window_mask(chunk);
        out.extend_from_slice(&mask.to_le_bytes());
        let mut m = mask;
        while m != 0 {
            let start = m.trailing_zeros() as usize;
            let run = (m >> start).trailing_ones() as usize;
            for v in &chunk[start..start + run] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            let end = start + run;
            m = if end >= 32 { 0 } else { m & (u32::MAX << end) };
        }
    }
}

/// Run-decodes one window of `window` words to `dst`: zero gaps become
/// bulk `memset` fills, non-zero runs bulk word copies — no per-bit branch
/// on either side. Reads exactly `mask.count_ones() * 4` bytes at
/// `payload`.
///
/// # Safety
///
/// `payload` must hold `mask.count_ones() * 4` readable bytes and `dst`
/// `window` writable words; `mask` has no bit at or above `window`.
#[cfg(target_endian = "little")]
#[inline(always)]
unsafe fn expand_runs(mask: u32, window: usize, payload: *const u8, dst: *mut f32) {
    // Every byte of the `window` words is written exactly once (gaps by
    // `write_bytes`, runs by `copy_nonoverlapping`); all-zero bytes are a
    // valid `f32` (0.0), and on a little-endian target the wire bytes are
    // the in-memory representation.
    let dst = dst.cast::<u8>();
    if mask == 0 {
        core::ptr::write_bytes(dst, 0, window * 4);
    } else if mask.count_ones() as usize == window {
        core::ptr::copy_nonoverlapping(payload, dst, window * 4);
    } else {
        let mut m = mask;
        let mut next = 0usize; // next element index within the window
        let mut taken = 0usize; // payload bytes consumed
        while m != 0 {
            let start = m.trailing_zeros() as usize;
            core::ptr::write_bytes(dst.add(next * 4), 0, (start - next) * 4);
            let run = (m >> start).trailing_ones() as usize;
            core::ptr::copy_nonoverlapping(payload.add(taken), dst.add(start * 4), run * 4);
            taken += run * 4;
            next = start + run;
            m = if next >= 32 {
                0
            } else {
                m & (u32::MAX << next)
            };
        }
        core::ptr::write_bytes(dst.add(next * 4), 0, (window - next) * 4);
    }
}

/// The portable window move: one full window run-decoded through the raw
/// cursor, reading only the payload (no over-read).
///
/// # Safety
///
/// `payload` must hold `mask.count_ones() * 4` bytes and `dst` 32 writable
/// words.
#[cfg(target_endian = "little")]
#[inline(always)]
pub(super) unsafe fn expand_window(mask: u32, payload: &[u8], dst: *mut f32) {
    debug_assert!(mask.count_ones() as usize * 4 <= payload.len());
    expand_runs(mask, ZVC_WINDOW_ELEMS, payload.as_ptr(), dst);
}

/// Big-endian window move: the same mask walk, one little-endian word
/// deserialized per set bit.
///
/// # Safety
///
/// As the little-endian move.
#[cfg(not(target_endian = "little"))]
#[inline(always)]
pub(super) unsafe fn expand_window(mask: u32, payload: &[u8], dst: *mut f32) {
    let mut taken = 0usize;
    for i in 0..ZVC_WINDOW_ELEMS {
        let v = if mask & (1 << i) != 0 {
            let b = &payload[taken..taken + 4];
            taken += 4;
            f32::from_le_bytes([b[0], b[1], b[2], b[3]])
        } else {
            0.0
        };
        dst.add(i).write(v);
    }
}

/// The portable whole-stream decompress kernel: the shared driver with
/// the run-decoding window move.
pub(super) fn decompress(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
) -> Result<usize, DecodeError> {
    // SAFETY: `expand_window` reads only the window's payload (no
    // over-read) and writes exactly its 32 words; it needs no CPU feature.
    unsafe {
        decompress_stream::<0>(bytes, element_count, out, |mask, payload, dst| {
            expand_window(mask, payload, dst)
        })
    }
}

/// Run-decodes one checked window (the driver's path for every window the
/// unchecked run does not take, partial ones included) and publishes it.
///
/// `rest` is the remaining compressed stream starting at this window's
/// payload; only its first `payload_len` bytes belong to this window.
///
/// # Safety
///
/// The caller must guarantee `payload_len == mask.count_ones() * 4`,
/// `rest.len() >= payload_len`, no mask bit at or above `window`, and at
/// least `window` elements of spare capacity in `out`.
#[cfg(target_endian = "little")]
pub(super) unsafe fn decompress_window(
    mask: u32,
    window: usize,
    rest: &[u8],
    payload_len: usize,
    out: &mut Vec<f32>,
) {
    debug_assert!(payload_len == mask.count_ones() as usize * 4);
    debug_assert!(rest.len() >= payload_len);
    debug_assert!(out.capacity() - out.len() >= window);
    // SAFETY: the caller's contract is `expand_runs`'s; the run decode
    // writes every one of the `window` words before `set_len` publishes
    // them.
    expand_runs(mask, window, rest.as_ptr(), out.as_mut_ptr().add(out.len()));
    out.set_len(out.len() + window);
}

/// Big-endian fallback: the same run decoding through safe appends, with
/// per-word little-endian deserialization.
#[cfg(not(target_endian = "little"))]
pub(super) unsafe fn decompress_window(
    mask: u32,
    window: usize,
    rest: &[u8],
    payload_len: usize,
    out: &mut Vec<f32>,
) {
    let payload = &rest[..payload_len];
    let mut m = mask;
    let mut next = 0usize;
    let mut taken = 0usize;
    while m != 0 {
        let start = m.trailing_zeros() as usize;
        out.resize(out.len() + (start - next), 0.0);
        let run = (m >> start).trailing_ones() as usize;
        out.extend(
            payload[taken..taken + run * 4]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        taken += run * 4;
        next = start + run;
        m = if next >= 32 {
            0
        } else {
            m & (u32::MAX << next)
        };
    }
    out.resize(out.len() + (window - next), 0.0);
}
