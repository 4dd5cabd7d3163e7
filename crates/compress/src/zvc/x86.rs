//! x86_64 ZVC kernel tiers: SSE2, AVX2 and AVX-512F.
//!
//! All three tiers zero-test whole windows with vector compares folded
//! into the presence mask by `movemask` (or a compare-into-mask-register
//! on AVX-512) — the software mirror of the paper's eight parallel
//! comparators (Fig. 10a). They differ in how payloads move:
//!
//! * **SSE2** — baseline x86_64: vector zero tests, portable per-bit
//!   payload moves (SSE2 has no lane-compaction shuffle).
//! * **AVX2** — 8-lane `vpermps` compaction through a 256-entry
//!   shuffle-index LUT on compress; the inverse expansion permute plus a
//!   computed lane mask on decompress.
//! * **AVX-512F** — `vcompressps`/`vexpandps` do the compaction and
//!   expansion in one instruction over 16 lanes; decompress reads through
//!   masked expanding loads that touch exactly the payload bytes.
//!
//! Each tier supplies only full-window moves; the drivers in
//! [`super::kernel`] own everything else, tail windows included. The AVX2
//! and AVX-512 entries are compiled with `popcnt` as well (every CPU with
//! either has it, and dispatch checks): the cursor advances by a mask's
//! bit count per sector, which is a dozen instructions without it.
//!
//! # Overshooting stores and overreads
//!
//! The AVX2 compress move stores a full 32-byte vector per 8-lane sector
//! and then advances its cursor by only `popcount * 4` bytes; the AVX-512
//! move does the same with a 64-byte store per half-window. They declare
//! that over-write (32 and 64 bytes) to
//! [`compress_stream`](super::kernel::compress_stream), whose worst-case
//! reservation always leaves room for it: a store starts where its
//! sector's payload does, and the reservation still holds that sector's
//! worst case, a full vector. Debug builds check it after every window.
//! SSE2 moves payloads with the portable packer and stores nothing
//! past them. The AVX2 decompress move similarly loads 32 payload bytes
//! per sector, so it declares a 32-byte over-read: the shared driver
//! ([`super::kernel::decompress_stream`]) hands it only windows with 32
//! bytes of stream past their payload, and the last windows of a stream
//! take the driver's checked path. AVX-512's masked expanding loads read
//! exactly the payload and declare none.

use core::arch::x86_64::*;

use super::kernel::{compress_stream, decompress_stream};
use super::portable;
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

/// SSE2 whole-stream compress: 4-lane vector zero tests folded into the
/// window mask via `movmskps`, payloads moved by the portable packer.
///
/// # Safety
///
/// The CPU must support SSE2 (guaranteed on x86_64).
#[target_feature(enable = "sse2")]
pub(super) unsafe fn compress_sse2(data: &[f32], out: &mut Vec<u8>) {
    // SAFETY: the move writes the mask and the packed words through
    // checked slices, nothing past them, and returns their length.
    compress_stream::<0>(data, out, |window, dst| {
        let p = window.as_ptr();
        let zero = _mm_setzero_si128();
        let mut mask = 0u32;
        for s in 0..8 {
            let v = _mm_loadu_si128(p.add(4 * s).cast::<__m128i>());
            let z = _mm_cmpeq_epi32(v, zero);
            let nz = !_mm_movemask_ps(_mm_castsi128_ps(z)) as u32 & 0xf;
            mask |= nz << (4 * s);
        }
        dst[..4].write_copy_of_slice(&mask.to_le_bytes());
        (
            mask,
            4 + 4 * portable::copy_nonzeros(mask, window, &mut dst[4..]),
        )
    })
}

/// AVX2 whole-stream compress: 8-lane zero tests + LUT-driven `vpermps`
/// left-packing, one full 32-byte store per sector (declared over-write
/// 32).
///
/// # Safety
///
/// The CPU must support AVX2 and POPCNT.
#[target_feature(enable = "avx2,popcnt")]
pub(super) unsafe fn compress_avx2(data: &[f32], out: &mut Vec<u8>) {
    // SAFETY: each 32-byte store starts where its sector's payload does,
    // the last one where the window's last 8 words' does (the declared
    // over-write), and the move returns the bytes its cursor passed.
    compress_stream::<32>(data, out, |window, dst| {
        let p = window.as_ptr();
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
        let start = dst.as_mut_ptr().cast::<u8>();
        start.cast::<[u8; 4]>().write_unaligned(mask.to_le_bytes());
        let mut at = start.add(4).cast::<f32>();
        for (s, &nz) in sector_nz.iter().enumerate() {
            let vals = _mm256_loadu_ps(p.add(8 * s));
            let idx = _mm256_loadu_si256(COMPACT[nz as usize].as_ptr().cast::<__m256i>());
            // Full 32-byte store, cursor advanced by the packed words only.
            _mm256_storeu_ps(at, _mm256_permutevar8x32_ps(vals, idx));
            at = at.add(nz.count_ones() as usize);
        }
        (mask, at.cast::<u8>().offset_from(start) as usize)
    })
}

/// AVX-512F whole-stream compress: 16-lane zero tests straight into a mask
/// register, register-form `vcompressps` compaction followed by one full
/// 64-byte store per half-window (declared over-write 64; the
/// register+store pair beats the microcoded compress-to-memory form on
/// every current microarchitecture).
///
/// # Safety
///
/// The CPU must support AVX-512F and POPCNT.
#[target_feature(enable = "avx512f,popcnt")]
pub(super) unsafe fn compress_avx512(data: &[f32], out: &mut Vec<u8>) {
    // SAFETY: each 64-byte store starts where its half-window's payload
    // does, the second where the window's last 16 words' does (the
    // declared over-write), and the move returns the bytes it passed.
    compress_stream::<64>(data, out, |window, dst| {
        let p = window.as_ptr();
        let lo = _mm512_loadu_ps(p);
        let hi = _mm512_loadu_ps(p.add(16));
        // test(v, v): bit i set iff lane i is a non-zero bit pattern.
        let mlo = _mm512_test_epi32_mask(_mm512_castps_si512(lo), _mm512_castps_si512(lo));
        let mhi = _mm512_test_epi32_mask(_mm512_castps_si512(hi), _mm512_castps_si512(hi));
        let mask = mlo as u32 | (mhi as u32) << 16;
        let start = dst.as_mut_ptr().cast::<u8>();
        start.cast::<[u8; 4]>().write_unaligned(mask.to_le_bytes());
        let at = start.add(4).cast::<f32>();
        // Full 64-byte stores, cursor advanced by the packed words only.
        _mm512_storeu_ps(at, _mm512_maskz_compress_ps(mlo, lo));
        let at = at.add(mlo.count_ones() as usize);
        _mm512_storeu_ps(at, _mm512_maskz_compress_ps(mhi, hi));
        let end = at.add(mhi.count_ones() as usize);
        (mask, end.cast::<u8>().offset_from(start) as usize)
    })
}

/// AVX2 whole-stream decompress: the shared driver with a `vpermps`
/// window move. Per 8-lane sector, one 32-byte payload load, the inverse
/// `vpermps` expansion, and a computed lane mask that zeroes the gaps —
/// four full-vector stores reconstruct the window. A sector's load starts
/// at its first payload byte, so the last one reads up to 32 bytes past
/// the window's payload: the declared over-read.
///
/// # Safety
///
/// The CPU must support AVX2 and POPCNT.
#[target_feature(enable = "avx2,popcnt")]
pub(super) unsafe fn decompress_avx2(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
) -> Result<usize, DecodeError> {
    // SAFETY: the last sector load ends at most 32 bytes past the payload
    // (the declared over-read); the four stores write all 32 words.
    decompress_stream::<32>(bytes, element_count, out, |mask, payload, dst| {
        let src = payload.as_ptr();
        let dst = dst.as_mut_ptr().cast::<f32>();
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
    })
}

/// AVX-512F whole-stream decompress: the shared driver with a `vexpandps`
/// window move, whose masked expanding loads read exactly the payload
/// bytes (fault-suppressed beyond them), so it declares no over-read.
///
/// # Safety
///
/// The CPU must support AVX-512F and POPCNT.
#[target_feature(enable = "avx512f,popcnt")]
pub(super) unsafe fn decompress_avx512(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
) -> Result<usize, DecodeError> {
    // SAFETY: the masked loads read only the payload; the two stores write
    // all 32 words.
    decompress_stream::<0>(bytes, element_count, out, |mask, payload, dst| {
        debug_assert!(mask.count_ones() as usize * 4 <= payload.len());
        let src = payload.as_ptr();
        let dst = dst.as_mut_ptr().cast::<f32>();
        let mlo = (mask & 0xffff) as u16;
        let mhi = (mask >> 16) as u16;
        _mm512_storeu_ps(dst, _mm512_maskz_expandloadu_ps(mlo, src.cast()));
        let hi = src.add(4 * mlo.count_ones() as usize);
        _mm512_storeu_ps(dst.add(16), _mm512_maskz_expandloadu_ps(mhi, hi.cast()));
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
