//! x86/x86_64 ZVC kernel tiers: SSE2, AVX2 and AVX-512F.
//!
//! All three tiers zero-test whole windows with vector compares folded
//! into the presence mask by `movemask` (or a compare-into-mask-register
//! on AVX-512) — the software mirror of the paper's eight parallel
//! comparators (Fig. 10a). They differ in how payloads move:
//!
//! * **SSE2** — baseline x86_64: vector zero tests, portable run-copy
//!   payloads (SSE2 has no lane-compaction shuffle).
//! * **AVX2** — 8-lane `vpermps` compaction through a 256-entry
//!   shuffle-index LUT on compress; the inverse expansion permute plus a
//!   computed lane mask on decompress.
//! * **AVX-512F** — `vcompressps`/`vexpandps` do the compaction and
//!   expansion in one instruction over 16 lanes; decompress reads through
//!   masked expanding loads that touch exactly the payload bytes.
//!
//! # Overshooting stores and overreads
//!
//! The AVX2 compress kernel stores a full 32-byte vector per 8-lane sector
//! and then advances the cursor by only `popcount * 4` bytes; the AVX-512
//! kernel does the same with a 64-byte store per half-window. This is safe
//! because the caller reserves the worst-case (all-dense) output: while a
//! full sector remains to be processed, at least a vector's worth of that
//! reservation necessarily remains unused (see the inline proofs, which
//! debug builds check at every such store). SSE2 moves payloads with the
//! portable run copier and stores nothing past them. The AVX2
//! decompress move similarly loads 32 payload bytes per sector, so it
//! declares a 32-byte over-read: the shared driver
//! ([`super::kernel::decompress_stream`]) hands it only windows with 32
//! bytes of stream past their payload, and the last windows of a stream
//! take the driver's checked path. AVX-512's masked expanding loads read
//! exactly the payload and declare none. Tail windows (< 32 elements)
//! always take the portable path.

#![cfg(any(target_arch = "x86", target_arch = "x86_64"))]

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use super::kernel::decompress_stream;
use super::portable;
use super::ZVC_WINDOW_ELEMS;
use crate::DecodeError;

/// `COMPACT[m][j]` = lane index of the `j`-th set bit of the 8-bit mask
/// `m` (don't-care zero for `j >= popcount`): the `vpermps` index vector
/// that left-packs a sector's non-zero lanes.
static COMPACT: [[u32; 8]; 256] = {
    let mut t = [[0u32; 8]; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut j = 0usize;
        let mut i = 0usize;
        while i < 8 {
            if m & (1 << i) != 0 {
                t[m][j] = i as u32;
                j += 1;
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// `EXPAND[m][i]` = rank of bit `i` within `m` (don't-care zero for clear
/// bits): the inverse permute that scatters packed payload lanes back to
/// their window positions; clear lanes are zeroed by a computed mask.
static EXPAND: [[u32; 8]; 256] = {
    let mut t = [[0u32; 8]; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut rank = 0u32;
        let mut i = 0usize;
        while i < 8 {
            if m & (1 << i) != 0 {
                t[m][i] = rank;
                rank += 1;
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// Debug check of an overshooting compress store: the `width` bytes
/// stored at `dst` end inside the `reserved` bytes from `start` — the
/// [`super::kernel::worst_case_bytes`] reservation the store's inline
/// proof bounds it by.
#[inline(always)]
fn debug_assert_store_fits(start: *const u8, dst: *const u8, width: usize, reserved: usize) {
    debug_assert!(
        dst as usize - start as usize + width <= reserved,
        "{width}-byte compress store at byte {} overshoots the {reserved}-byte reservation",
        dst as usize - start as usize
    );
}

/// SSE2 whole-stream compress: 4-lane vector zero tests folded into the
/// window mask via `movmskps`, payloads moved by the portable run copier.
///
/// # Safety
///
/// `out` must hold [`super::kernel::worst_case_bytes`]`(data.len())` of
/// spare capacity; the CPU must support SSE2 (guaranteed on x86_64).
#[target_feature(enable = "sse2")]
pub(super) unsafe fn compress_sse2(data: &[f32], out: &mut Vec<u8>) {
    let base = out.len();
    debug_assert!(out.capacity() - base >= super::kernel::worst_case_bytes(data.len()));
    let start_ptr = out.as_mut_ptr().add(base);
    let mut dst = start_ptr;
    let mut windows = data.chunks_exact(ZVC_WINDOW_ELEMS);
    for chunk in windows.by_ref() {
        let p = chunk.as_ptr();
        let zero = _mm_setzero_si128();
        let mut mask = 0u32;
        for s in 0..8 {
            let v = _mm_loadu_si128(p.add(4 * s).cast::<__m128i>());
            let z = _mm_cmpeq_epi32(v, zero);
            let nz = !_mm_movemask_ps(_mm_castsi128_ps(z)) as u32 & 0xf;
            mask |= nz << (4 * s);
        }
        core::ptr::copy_nonoverlapping(mask.to_le_bytes().as_ptr(), dst, 4);
        dst = portable::copy_runs(mask, ZVC_WINDOW_ELEMS, p.cast::<u8>(), dst.add(4));
    }
    let tail = windows.remainder();
    if !tail.is_empty() {
        dst = portable::compress_window(tail, dst);
    }
    out.set_len(base + usize::try_from(dst.offset_from(start_ptr)).unwrap());
}

/// AVX2 whole-stream compress: 8-lane zero tests + LUT-driven `vpermps`
/// left-packing, one full-vector store per sector.
///
/// # Safety
///
/// `out` must hold [`super::kernel::worst_case_bytes`]`(data.len())` of
/// spare capacity; the CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn compress_avx2(data: &[f32], out: &mut Vec<u8>) {
    let base = out.len();
    let reserved = super::kernel::worst_case_bytes(data.len());
    debug_assert!(out.capacity() - base >= reserved);
    let start_ptr = out.as_mut_ptr().add(base);
    let mut dst = start_ptr;
    let mut windows = data.chunks_exact(ZVC_WINDOW_ELEMS);
    for chunk in windows.by_ref() {
        let p = chunk.as_ptr();
        let zero = _mm256_setzero_si256();
        let mut sector_nz = [0u32; 4];
        let mut mask = 0u32;
        for (s, nz_slot) in sector_nz.iter_mut().enumerate() {
            let v = _mm256_loadu_si256(p.add(8 * s).cast::<__m256i>());
            let z = _mm256_cmpeq_epi32(v, zero);
            let nz = !_mm256_movemask_ps(_mm256_castsi256_ps(z)) as u32 & 0xff;
            *nz_slot = nz;
            mask |= nz << (8 * s);
        }
        core::ptr::copy_nonoverlapping(mask.to_le_bytes().as_ptr(), dst, 4);
        dst = dst.add(4);
        for (s, &nz) in sector_nz.iter().enumerate() {
            let vals = _mm256_loadu_ps(p.add(8 * s));
            let idx = _mm256_loadu_si256(COMPACT[nz as usize].as_ptr().cast::<__m256i>());
            let packed = _mm256_permutevar8x32_ps(vals, idx);
            // Full 32-byte store, cursor advanced by the packed bytes only.
            // Safe: with e elements fully processed so far and w+1 masks
            // written, dst = 4(w+1) + 4·nz(e) and the reservation is
            // 4N + 4W; this sector leaves e ≤ N-8 and w ≤ W-1, so
            // dst + 32 ≤ 4W + 4(N-8) + 32 = 4N + 4W.
            debug_assert_store_fits(start_ptr, dst, 32, reserved);
            _mm256_storeu_ps(dst.cast::<f32>(), packed);
            dst = dst.add(4 * nz.count_ones() as usize);
        }
    }
    let tail = windows.remainder();
    if !tail.is_empty() {
        dst = portable::compress_window(tail, dst);
    }
    out.set_len(base + usize::try_from(dst.offset_from(start_ptr)).unwrap());
}

/// AVX-512F whole-stream compress: 16-lane zero tests straight into a mask
/// register, register-form `vcompressps` compaction followed by one full
/// 64-byte store per half-window (the register+store pair beats the
/// microcoded compress-to-memory form on every current microarchitecture).
///
/// # Safety
///
/// `out` must hold [`super::kernel::worst_case_bytes`]`(data.len())` of
/// spare capacity; the CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn compress_avx512(data: &[f32], out: &mut Vec<u8>) {
    let base = out.len();
    let reserved = super::kernel::worst_case_bytes(data.len());
    debug_assert!(out.capacity() - base >= reserved);
    let start_ptr = out.as_mut_ptr().add(base);
    let mut dst = start_ptr;
    let mut windows = data.chunks_exact(ZVC_WINDOW_ELEMS);
    for chunk in windows.by_ref() {
        let p = chunk.as_ptr();
        let lo = _mm512_loadu_ps(p);
        let hi = _mm512_loadu_ps(p.add(16));
        // test(v, v): bit i set iff lane i is a non-zero bit pattern.
        let mlo = _mm512_test_epi32_mask(_mm512_castps_si512(lo), _mm512_castps_si512(lo));
        let mhi = _mm512_test_epi32_mask(_mm512_castps_si512(hi), _mm512_castps_si512(hi));
        let mask = mlo as u32 | (mhi as u32) << 16;
        core::ptr::copy_nonoverlapping(mask.to_le_bytes().as_ptr(), dst, 4);
        dst = dst.add(4);
        // Full 64-byte stores, cursor advanced by the packed bytes only.
        // Safe: with e elements fully processed and w+1 masks written,
        // dst = 4(w+1) + 4·nz(e); a half-window still in flight leaves
        // e ≤ N-16 and w ≤ W-1, so dst + 64 ≤ 4W + 4(N-16) + 64 = 4N + 4W,
        // the reservation.
        debug_assert_store_fits(start_ptr, dst, 64, reserved);
        _mm512_storeu_ps(dst.cast::<f32>(), _mm512_maskz_compress_ps(mlo, lo));
        dst = dst.add(4 * mlo.count_ones() as usize);
        debug_assert_store_fits(start_ptr, dst, 64, reserved);
        _mm512_storeu_ps(dst.cast::<f32>(), _mm512_maskz_compress_ps(mhi, hi));
        dst = dst.add(4 * mhi.count_ones() as usize);
    }
    let tail = windows.remainder();
    if !tail.is_empty() {
        dst = portable::compress_window(tail, dst);
    }
    out.set_len(base + usize::try_from(dst.offset_from(start_ptr)).unwrap());
}

/// AVX2 window move: per 8-lane sector, one 32-byte payload load, the
/// inverse `vpermps` expansion, and a computed lane mask that zeroes the
/// gaps — four full-vector stores reconstruct the window. A sector's load
/// starts at its first payload byte, so the last one reads up to 32 bytes
/// past the window's payload.
///
/// # Safety
///
/// `payload` must hold `mask.count_ones() * 4 + 32` bytes and `dst` 32
/// writable words; the CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn expand_window_avx2(mask: u32, payload: &[u8], dst: *mut f32) {
    let src = payload.as_ptr();
    let bit_values = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let mut taken = 0usize;
    for s in 0..4 {
        let seg = (mask >> (8 * s)) & 0xff;
        debug_assert!(
            taken + 32 <= payload.len(),
            "AVX2 sector load past the stream"
        );
        let vals = _mm256_loadu_ps(src.add(taken).cast::<f32>());
        let idx = _mm256_loadu_si256(EXPAND[seg as usize].as_ptr().cast::<__m256i>());
        let expanded = _mm256_permutevar8x32_ps(vals, idx);
        // Lane mask: lane i live iff bit i of seg — computed, not a LUT.
        let seg_v = _mm256_set1_epi32(seg as i32);
        let live = _mm256_cmpeq_epi32(_mm256_and_si256(seg_v, bit_values), bit_values);
        let result = _mm256_and_ps(expanded, _mm256_castsi256_ps(live));
        _mm256_storeu_ps(dst.add(8 * s), result);
        taken += 4 * seg.count_ones() as usize;
    }
}

/// AVX2 whole-stream decompress: the shared driver with the `vpermps`
/// window move and its 32-byte over-read.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn decompress_avx2(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
) -> Result<usize, DecodeError> {
    // SAFETY: the declared over-read is the move's: its last sector load
    // ends at most 32 bytes past the payload; it writes exactly 32 words.
    decompress_stream::<32>(bytes, element_count, out, |mask, payload, dst| {
        expand_window_avx2(mask, payload, dst)
    })
}

/// AVX-512F window move: `vexpandps` masked expanding loads read exactly
/// the payload bytes (fault-suppressed beyond them), so the move declares
/// no over-read.
///
/// # Safety
///
/// `payload` must hold `mask.count_ones() * 4` bytes and `dst` 32 writable
/// words; the CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn expand_window_avx512(mask: u32, payload: &[u8], dst: *mut f32) {
    debug_assert!(mask.count_ones() as usize * 4 <= payload.len());
    let src = payload.as_ptr();
    let mlo = (mask & 0xffff) as u16;
    let mhi = (mask >> 16) as u16;
    let lo = _mm512_maskz_expandloadu_ps(mlo, src.cast());
    _mm512_storeu_ps(dst, lo);
    let hi = _mm512_maskz_expandloadu_ps(mhi, src.add(4 * mlo.count_ones() as usize).cast());
    _mm512_storeu_ps(dst.add(16), hi);
}

/// AVX-512F whole-stream decompress: the shared driver with the
/// `vexpandps` window move.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn decompress_avx512(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
) -> Result<usize, DecodeError> {
    // SAFETY: the masked loads read only the payload; the two stores write
    // exactly the window's 32 words.
    decompress_stream::<0>(bytes, element_count, out, |mask, payload, dst| {
        expand_window_avx512(mask, payload, dst)
    })
}

/// Calls `f` with AVX-512F enabled, so a body that inlines into it is
/// vectorized 16 lanes wide: [`super::Kernel::run`]'s AVX-512 entry.
#[target_feature(enable = "avx512f")]
#[inline]
pub(super) fn run_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Calls `f` with AVX2 enabled, so a body that inlines into it is
/// vectorized 8 lanes wide: [`super::Kernel::run`]'s AVX2 entry.
#[target_feature(enable = "avx2")]
#[inline]
pub(super) fn run_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}
