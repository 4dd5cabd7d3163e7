//! AArch64 NEON ZVC kernel tier.
//!
//! NEON has no cross-lane f32 permute driven by a runtime index vector,
//! but `vqtbl1q_u8` is a full 16-byte table lookup — so both directions
//! work at 4-lane (16-byte) granularity through 16-entry byte-shuffle
//! LUTs indexed by the 4-bit group mask. Zero tests use `vtstq_u32` folded
//! to a scalar mask via a `[1,2,4,8]` weighted horizontal add (NEON's
//! movemask idiom).
//!
//! Like the AVX2 tier, compress stores a full 16-byte vector per 4-lane
//! group and advances by `popcount * 4` (safe inside the caller's
//! worst-case reservation), and the decompress window move loads 16
//! payload bytes per group, so it declares a 16-byte over-read: the shared
//! driver ([`super::kernel::decompress_stream`]) hands it only windows
//! with 16 bytes of stream past their payload, and the last windows of a
//! stream and tail windows take the driver's checked path.

#![cfg(target_arch = "aarch64")]

use core::arch::aarch64::*;

use super::kernel::decompress_stream;
use super::portable;
use super::ZVC_WINDOW_ELEMS;
use crate::DecodeError;

/// `COMPACT[m]` = byte-shuffle indices that left-pack the words whose bits
/// are set in the 4-bit mask `m`; out-of-range index (0xFF) makes
/// `vqtbl1q_u8` produce a zero byte in the don't-care lanes.
static COMPACT: [[u8; 16]; 16] = {
    let mut t = [[0xFFu8; 16]; 16];
    let mut m = 0usize;
    while m < 16 {
        let mut j = 0usize;
        let mut i = 0usize;
        while i < 4 {
            if m & (1 << i) != 0 {
                let mut b = 0usize;
                while b < 4 {
                    t[m][j * 4 + b] = (i * 4 + b) as u8;
                    b += 1;
                }
                j += 1;
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// `EXPAND[m]` = byte-shuffle indices that scatter left-packed words back
/// to the lanes whose bits are set in `m`; clear lanes get 0xFF indices and
/// therefore decode to 0.0 directly — no separate masking step.
static EXPAND: [[u8; 16]; 16] = {
    let mut t = [[0xFFu8; 16]; 16];
    let mut m = 0usize;
    while m < 16 {
        let mut rank = 0usize;
        let mut i = 0usize;
        while i < 4 {
            if m & (1 << i) != 0 {
                let mut b = 0usize;
                while b < 4 {
                    t[m][i * 4 + b] = (rank * 4 + b) as u8;
                    b += 1;
                }
                rank += 1;
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// Movemask idiom: bit `i` of the result is set iff lane `i` of `v` is
/// all-ones (the output of `vtstq_u32` for a non-zero lane).
#[inline]
unsafe fn movemask4(v: uint32x4_t) -> u32 {
    let bits = vld1q_u32([1u32, 2, 4, 8].as_ptr());
    vaddvq_u32(vandq_u32(v, bits))
}

/// NEON whole-stream compress: 4-lane `vtstq` zero tests folded into the
/// window mask, `vqtbl1q_u8` left-packing with one 16-byte store per group.
///
/// # Safety
///
/// `out` must hold [`super::kernel::worst_case_bytes`]`(data.len())` of
/// spare capacity; the CPU must support NEON (baseline on AArch64).
#[target_feature(enable = "neon")]
pub(super) unsafe fn compress(data: &[f32], out: &mut Vec<u8>) {
    let base = out.len();
    debug_assert!(out.capacity() - base >= super::kernel::worst_case_bytes(data.len()));
    let start_ptr = out.as_mut_ptr().add(base);
    let mut dst = start_ptr;
    let mut windows = data.chunks_exact(ZVC_WINDOW_ELEMS);
    for chunk in windows.by_ref() {
        let p = chunk.as_ptr().cast::<u32>();
        let mut group_nz = [0u32; 8];
        let mut mask = 0u32;
        for (g, nz_slot) in group_nz.iter_mut().enumerate() {
            let v = vld1q_u32(p.add(4 * g));
            let nz = movemask4(vtstq_u32(v, v));
            *nz_slot = nz;
            mask |= nz << (4 * g);
        }
        core::ptr::copy_nonoverlapping(mask.to_le_bytes().as_ptr(), dst, 4);
        dst = dst.add(4);
        for (g, &nz) in group_nz.iter().enumerate() {
            let bytes = vld1q_u8(p.add(4 * g).cast::<u8>());
            let packed = vqtbl1q_u8(bytes, vld1q_u8(COMPACT[nz as usize].as_ptr()));
            // Full 16-byte store, cursor advanced by the packed bytes only;
            // safe inside the worst-case reservation by the same argument
            // as the AVX2 kernel (a full group still being processed means
            // ≥ 16 reserved bytes remain unused).
            vst1q_u8(dst, packed);
            dst = dst.add(4 * nz.count_ones() as usize);
        }
    }
    let tail = windows.remainder();
    if !tail.is_empty() {
        dst = portable::compress_window(tail, dst);
    }
    out.set_len(base + usize::try_from(dst.offset_from(start_ptr)).unwrap());
}

/// NEON window move: per 4-lane group, one 16-byte payload load and a
/// `vqtbl1q_u8` expansion whose out-of-range indices zero the gap lanes in
/// the same shuffle. A group's load starts at its first payload byte, so
/// the last one reads up to 16 bytes past the window's payload.
///
/// # Safety
///
/// `payload` must hold `mask.count_ones() * 4 + 16` bytes and `dst` 32
/// writable words; the CPU must support NEON.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn expand_window(mask: u32, payload: &[u8], dst: *mut f32) {
    let src = payload.as_ptr();
    let dst = dst.cast::<u8>();
    let mut taken = 0usize;
    for g in 0..8 {
        let seg = (mask >> (4 * g)) & 0xf;
        debug_assert!(
            taken + 16 <= payload.len(),
            "NEON group load past the stream"
        );
        let bytes = vld1q_u8(src.add(taken));
        let expanded = vqtbl1q_u8(bytes, vld1q_u8(EXPAND[seg as usize].as_ptr()));
        vst1q_u8(dst.add(16 * g), expanded);
        taken += 4 * seg.count_ones() as usize;
    }
}

/// NEON whole-stream decompress: the shared driver with the `vqtbl1q_u8`
/// window move and its 16-byte over-read.
///
/// # Safety
///
/// The CPU must support NEON.
#[target_feature(enable = "neon")]
pub(super) unsafe fn decompress(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
) -> Result<usize, DecodeError> {
    // SAFETY: the declared over-read is the move's: its last group load
    // ends at most 16 bytes past the payload; it writes exactly 32 words.
    decompress_stream::<16>(bytes, element_count, out, |mask, payload, dst| {
        expand_window(mask, payload, dst)
    })
}
