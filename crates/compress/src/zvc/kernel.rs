//! ZVC kernel descriptors and one-time runtime dispatch.
//!
//! Every tier implements the same two function-pointer contracts — a
//! whole-stream compress kernel and a single-window decompress kernel —
//! and a [`Kernel`] bundles a tier's pair behind a name. The stream-level
//! *driver* logic (worst-case output reservation, mask parsing, corruption
//! and truncation handling, where the stream ends) lives here, **once**,
//! tier-independent: the tiers only differ in how verified windows move,
//! so a corrupt or truncated stream takes byte-for-byte the same path
//! whichever tier is active, and error behaviour cannot drift between
//! tiers.
//!
//! [`Kernel::active`] picks the widest tier the running CPU supports, once,
//! via `is_x86_feature_detected!` (NEON is baseline on AArch64). The
//! `CDMA_ZVC_KERNEL` environment variable overrides the choice by tier name
//! (`portable`, `sse2`, `avx2`, `avx512`, `neon`) — used by the CI matrix
//! to force every tier through the full test suite on one machine — and
//! [`Kernel::supported`]/[`Kernel::for_tier`] expose the detected tiers so
//! differential tests can drive each one explicitly without touching the
//! environment.

use std::sync::OnceLock;

use super::portable;
#[cfg(all(
    any(target_arch = "x86", target_arch = "x86_64"),
    target_endian = "little"
))]
use super::x86;
use super::ZVC_WINDOW_ELEMS;
use crate::DecodeError;

#[cfg(all(target_arch = "aarch64", target_endian = "little"))]
use super::neon;

/// Whole-stream compress kernel: appends the ZVC stream for `data` to the
/// output vector, whose spare capacity must already hold
/// [`worst_case_bytes`]`(data.len())`.
type CompressFn = unsafe fn(&[f32], &mut Vec<u8>);

/// Single-window decompress kernel: `(mask, window, rest, payload_len,
/// out)` where `rest` is the remaining stream starting at this window's
/// payload. The contract (enforced by the driver before the call):
/// `payload_len == mask.count_ones() * 4`, `rest.len() >= payload_len`,
/// and `out` has at least `window` elements of spare capacity. Kernels may
/// read past `payload_len` but never past `rest`.
type DecompressWindowFn = unsafe fn(u32, usize, &[u8], usize, &mut Vec<f32>);

/// Worst-case ZVC output size for `len` activation words: every word
/// non-zero (4 bytes each) plus one 4-byte mask per (possibly partial)
/// window. Reserving this much is what licenses the kernels' raw-cursor
/// writes — including the SIMD tiers' full-vector overshooting stores.
pub(crate) fn worst_case_bytes(len: usize) -> usize {
    len * 4 + len.div_ceil(ZVC_WINDOW_ELEMS) * 4
}

/// The instruction-set tier a [`Kernel`] is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelTier {
    /// Word-at-a-time run kernels; every platform, and the only tier on
    /// big-endian targets.
    Portable,
    /// SSE2 vector zero tests (x86_64 baseline), portable payload moves.
    Sse2,
    /// AVX2 8-lane zero tests + `vpermps` LUT compaction/expansion.
    Avx2,
    /// AVX-512F 16-lane mask-register tests + `vcompressps`/`vexpandps`.
    Avx512,
    /// NEON 4-lane zero tests + `vqtbl1q_u8` compaction/expansion.
    Neon,
}

impl KernelTier {
    /// The tier's lowercase name — also the value `CDMA_ZVC_KERNEL`
    /// accepts to force it.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Neon => "neon",
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One ZVC kernel tier: a named (compress, decompress-window) pair.
///
/// All tiers produce byte-identical streams and identical
/// [`DecodeError`]s; they differ only in throughput.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    tier: KernelTier,
    compress: CompressFn,
    decompress_window: DecompressWindowFn,
}

impl Kernel {
    /// Which instruction-set tier this kernel runs on.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Every tier the running CPU supports, widest first. Always contains
    /// at least [`KernelTier::Portable`].
    pub fn supported() -> &'static [Kernel] {
        static SUPPORTED: OnceLock<Vec<Kernel>> = OnceLock::new();
        SUPPORTED.get_or_init(|| {
            #[allow(unused_mut)]
            let mut tiers = Vec::with_capacity(4);
            #[cfg(all(
                any(target_arch = "x86", target_arch = "x86_64"),
                target_endian = "little"
            ))]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    tiers.push(Kernel {
                        tier: KernelTier::Avx512,
                        compress: x86::compress_avx512,
                        decompress_window: x86::decompress_window_avx512,
                    });
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    tiers.push(Kernel {
                        tier: KernelTier::Avx2,
                        compress: x86::compress_avx2,
                        decompress_window: x86::decompress_window_avx2,
                    });
                }
                if std::arch::is_x86_feature_detected!("sse2") {
                    tiers.push(Kernel {
                        tier: KernelTier::Sse2,
                        compress: x86::compress_sse2,
                        // SSE2 has no lane-compaction shuffle; decompress
                        // stays on the portable run decoder.
                        decompress_window: portable::decompress_window,
                    });
                }
            }
            #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
            {
                if std::arch::is_aarch64_feature_detected!("neon") {
                    tiers.push(Kernel {
                        tier: KernelTier::Neon,
                        compress: neon::compress,
                        decompress_window: neon::decompress_window,
                    });
                }
            }
            tiers.push(Kernel {
                tier: KernelTier::Portable,
                compress: portable::compress,
                decompress_window: portable::decompress_window,
            });
            tiers
        })
    }

    /// The kernel for `tier`, or `None` if this CPU does not support it.
    pub fn for_tier(tier: KernelTier) -> Option<&'static Kernel> {
        Kernel::supported().iter().find(|k| k.tier == tier)
    }

    /// The kernel every [`Zvc`](super::Zvc) call dispatches through:
    /// resolved once per process — the widest supported tier, or the tier
    /// named by `CDMA_ZVC_KERNEL` if that variable is set.
    ///
    /// # Panics
    ///
    /// Panics (once, at first use) if `CDMA_ZVC_KERNEL` names an unknown
    /// tier or one this CPU cannot run — a forced tier that silently fell
    /// back would defeat the CI matrix that relies on it.
    pub fn active() -> &'static Kernel {
        &active_info().0
    }

    /// Appends the ZVC stream for `data` to `out`, reserving the
    /// worst-case output size first.
    pub fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        // O(1) worst-case bound (all words non-zero) — the exact analytic
        // size would cost a full extra pass over `data`. The reservation
        // licenses the kernel's raw-cursor (and overshooting SIMD) writes.
        out.reserve(worst_case_bytes(data.len()));
        // SAFETY: the reservation above is exactly the kernel contract.
        unsafe { (self.compress)(data, out) };
    }

    /// Decodes the ZVC stream of `element_count` words at the front of
    /// `bytes`, appending to `out`, and returns the stream's length in
    /// bytes. The driver loop here owns all validation; the tier kernel is
    /// only ever handed windows whose mask and payload are in bounds.
    ///
    /// # Errors
    ///
    /// Exactly the scalar reference decoder's errors short of its
    /// trailing-data check (which [`Compressor::decompress_append`]
    /// makes), with the same fields and the same partial output left in
    /// `out` — tier-independent, because truncated and corrupt windows
    /// never reach the tier kernel.
    ///
    /// [`Compressor::decompress_append`]: crate::Compressor::decompress_append
    pub fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        out.reserve(element_count);
        let base = out.len();
        let mut pos = 0usize;
        while out.len() - base < element_count {
            if pos + 4 > bytes.len() {
                return Err(DecodeError::Truncated {
                    expected: element_count,
                    decoded: out.len() - base,
                });
            }
            let mask =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            pos += 4;
            let window = (element_count - (out.len() - base)).min(ZVC_WINDOW_ELEMS);
            if window < ZVC_WINDOW_ELEMS && (mask >> window) != 0 {
                return Err(DecodeError::Corrupt("mask bits set beyond final window"));
            }
            let payload = mask.count_ones() as usize * 4;
            if pos + payload > bytes.len() {
                // Cold path: the payload is truncated mid-window. Walk the
                // window element by element like the scalar reference so the
                // partial output and the `Truncated` fields match it exactly.
                for i in 0..window {
                    if mask & (1 << i) != 0 {
                        if pos + 4 > bytes.len() {
                            return Err(DecodeError::Truncated {
                                expected: element_count,
                                decoded: out.len() - base,
                            });
                        }
                        let v = f32::from_le_bytes([
                            bytes[pos],
                            bytes[pos + 1],
                            bytes[pos + 2],
                            bytes[pos + 3],
                        ]);
                        pos += 4;
                        out.push(v);
                    } else {
                        out.push(0.0);
                    }
                }
                continue;
            }
            // SAFETY: `payload == mask.count_ones() * 4` by construction;
            // the bounds check above guarantees `bytes[pos..].len() >=
            // payload`; and the `reserve(element_count)` up top leaves
            // `capacity - len >= element_count - (len - base) >= window`
            // spare elements in `out`.
            unsafe { (self.decompress_window)(mask, window, &bytes[pos..], payload, out) };
            pos += payload;
        }
        Ok(pos)
    }
}

/// Which ZVC kernel tier this process dispatches through, and whether the
/// choice was forced by `CDMA_ZVC_KERNEL` rather than runtime-detected.
///
/// Displays as e.g. `avx2 (runtime-detected)` or
/// `portable (forced via CDMA_ZVC_KERNEL)`, so a recorded number can name
/// the code path that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelInfo {
    /// The active tier.
    pub tier: KernelTier,
    /// `true` iff `CDMA_ZVC_KERNEL` selected the tier.
    pub forced: bool,
}

impl std::fmt::Display for KernelInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let how = if self.forced {
            "forced via CDMA_ZVC_KERNEL"
        } else {
            "runtime-detected"
        };
        write!(f, "{} ({how})", self.tier)
    }
}

/// The active kernel tier and how it was selected. See [`Kernel::active`].
pub fn kernel_info() -> KernelInfo {
    active_info().1
}

fn active_info() -> &'static (Kernel, KernelInfo) {
    static ACTIVE: OnceLock<(Kernel, KernelInfo)> = OnceLock::new();
    ACTIVE.get_or_init(|| match std::env::var("CDMA_ZVC_KERNEL") {
        Ok(name) => {
            let tier = match name.as_str() {
                "portable" => KernelTier::Portable,
                "sse2" => KernelTier::Sse2,
                "avx2" => KernelTier::Avx2,
                "avx512" => KernelTier::Avx512,
                "neon" => KernelTier::Neon,
                other => panic!(
                    "CDMA_ZVC_KERNEL={other:?} names no ZVC kernel tier \
                     (expected portable, sse2, avx2, avx512, or neon)"
                ),
            };
            let kernel = *Kernel::for_tier(tier).unwrap_or_else(|| {
                panic!("CDMA_ZVC_KERNEL={name:?}: this CPU does not support the {tier} tier")
            });
            (kernel, KernelInfo { tier, forced: true })
        }
        Err(_) => {
            let kernel = Kernel::supported()[0];
            (
                kernel,
                KernelInfo {
                    tier: kernel.tier,
                    forced: false,
                },
            )
        }
    })
}
