//! ZVC kernel descriptors and one-time runtime dispatch.
//!
//! Every tier implements the same two whole-stream function-pointer
//! contracts — compress a slice, decompress a stream — and a [`Kernel`]
//! bundles a tier's pair behind a name, so a call pays one indirect call
//! per stream in either direction, never one per window.
//!
//! The decompress *driver* — the up-front output reservation, mask
//! parsing, tail-window validation, truncation and corruption errors,
//! where the stream ends — is written **once**, here, as
//! [`decompress_stream`]: an `#[inline(always)]` loop generic over a
//! tier's window move, which each SIMD tier's `#[target_feature]` entry
//! (and the portable kernel, which SSE2 shares) instantiates so the move
//! inlines into it. The tiers differ only in how a verified full window
//! moves. Every other window — a partial final window, a window that runs
//! past the stream, a corrupt tail — takes the driver's checked path,
//! which no tier touches, so a corrupt or truncated stream yields
//! byte-for-byte the same error and partial output whichever tier is
//! active.
//!
//! The table also runs caller code at a tier's width: [`Kernel::run`]
//! calls a closure from the tier's `#[target_feature]` entry (AVX-512F,
//! AVX2) so an inlined loop in it autovectorizes there — the serving and
//! inference payload generators run this way. Those two entry calls are
//! `unsafe` for the codec entries' reason, and are discharged the same
//! way: a `Kernel` exists only for a tier [`Kernel::supported`] detected,
//! so all the crate's `unsafe` stays in this directory.
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

/// Whole-stream decompress kernel: decodes the ZVC stream of
/// `element_count` words at the front of `bytes`, appends them to `out`
/// and returns the stream's length in bytes — [`Kernel::decompress_prefix`]
/// exactly. Every tier's entry is [`decompress_stream`] with the tier's
/// window move; calling it is only unsafe because the entry is compiled
/// for the tier's instruction set, which the CPU must support.
type DecompressFn = unsafe fn(&[u8], usize, &mut Vec<f32>) -> Result<usize, DecodeError>;

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

/// One ZVC kernel tier: a named (compress, decompress) pair of
/// whole-stream kernels, and an entry that runs caller code compiled for
/// the tier ([`Kernel::run`]).
///
/// All tiers produce byte-identical streams and identical
/// [`DecodeError`]s; they differ only in throughput.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    tier: KernelTier,
    compress: CompressFn,
    decompress: DecompressFn,
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
                        decompress: x86::decompress_avx512,
                    });
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    tiers.push(Kernel {
                        tier: KernelTier::Avx2,
                        compress: x86::compress_avx2,
                        decompress: x86::decompress_avx2,
                    });
                }
                if std::arch::is_x86_feature_detected!("sse2") {
                    tiers.push(Kernel {
                        tier: KernelTier::Sse2,
                        compress: x86::compress_sse2,
                        // SSE2 has no lane-expansion shuffle, and the run
                        // decoder needs no feature: the portable kernel.
                        decompress: portable::decompress,
                    });
                }
            }
            #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
            {
                if std::arch::is_aarch64_feature_detected!("neon") {
                    tiers.push(Kernel {
                        tier: KernelTier::Neon,
                        compress: neon::compress,
                        decompress: neon::decompress,
                    });
                }
            }
            tiers.push(Kernel {
                tier: KernelTier::Portable,
                compress: portable::compress,
                decompress: portable::decompress,
            });
            tiers
        })
    }

    /// The kernel for `tier`, or `None` if this CPU does not support it.
    // pub: kernel_tiers.rs runs every supported tier through it
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
    /// bytes. One call into the tier's whole-stream kernel, whose driver
    /// (`decompress_stream`) owns all validation.
    ///
    /// The output reservation is capped by what `bytes` can encode — a
    /// stream spends at least one 4-byte mask per 32 words — so a count
    /// the stream cannot back reserves no more than the stream's worth.
    ///
    /// # Errors
    ///
    /// Exactly the scalar reference decoder's errors short of its
    /// trailing-data check (which [`Compressor::decompress_append`]
    /// makes), with the same fields and the same partial output left in
    /// `out` — tier-independent, because truncated and corrupt windows
    /// never reach a tier's window move.
    ///
    /// [`Compressor::decompress_append`]: crate::Compressor::decompress_append
    pub fn decompress_prefix(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize, DecodeError> {
        // SAFETY: a `Kernel` exists only for a tier `supported()` detected
        // on this CPU, so the entry's instruction set is available.
        unsafe { (self.decompress)(bytes, element_count, out) }
    }

    /// Runs `f` compiled for this kernel's instruction-set tier and
    /// returns its result.
    ///
    /// On the AVX-512 and AVX2 tiers `f` is called from a
    /// `#[target_feature]` entry that enables exactly what
    /// [`Kernel::supported`] detected (`avx512f`, `avx2`), so a closure
    /// whose body inlines — an `#[inline(always)]` loop — is
    /// autovectorized at that tier's width. The other tiers call `f`
    /// plainly. A tier changes how fast `f` runs, never what it returns,
    /// provided `f` does only integer and exact floating-point work
    /// (which the optimiser may not reassociate into other bits).
    #[inline]
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        // SAFETY (both entries): a `Kernel` exists only for a tier
        // `supported()` detected on this CPU, so the entry's instruction
        // set is available.
        match self.tier {
            #[cfg(all(
                any(target_arch = "x86", target_arch = "x86_64"),
                target_endian = "little"
            ))]
            KernelTier::Avx512 => unsafe { x86::run_avx512(f) },
            #[cfg(all(
                any(target_arch = "x86", target_arch = "x86_64"),
                target_endian = "little"
            ))]
            KernelTier::Avx2 => unsafe { x86::run_avx2(f) },
            _ => f(),
        }
    }
}

/// The most words a ZVC stream of `stream_len` bytes can decode to: every
/// window, full or not, spends a 4-byte mask. Decoders cap their up-front
/// reservation at this, never at a caller's bare count.
pub(super) fn max_decoded_words(stream_len: usize) -> usize {
    stream_len / 4 * ZVC_WINDOW_ELEMS
}

/// The one ZVC decode loop, compiled into every tier's decompress entry
/// with that tier's window move.
///
/// A window takes `expand(mask, payload, dst)` — unchecked, through a raw
/// cursor into the up-front reservation — only when it is full, its mask
/// and payload lie inside `bytes`, and so do the `OVER_READ` bytes past
/// the payload the move may load. The first window that fails any of
/// those ends the unchecked run, and it and every later window take the
/// checked path: the partial final window, a window that runs past the
/// stream, a corrupt tail, and the few last windows a tier with an
/// over-read cannot reach. That path is one loop shared by every tier, so
/// errors and partial output cannot differ between tiers. Debug builds
/// check the writes here against the reservation; each move checks its
/// own loads against `payload`.
///
/// # Safety
///
/// `expand(mask, payload, dst)` is called with `payload` = the stream from
/// this window's first payload byte on, holding at least
/// `4 * mask.count_ones() + OVER_READ` bytes, and `dst` = 32 writable
/// words. It must write all 32 words at `dst`, from the mask and the first
/// `4 * mask.count_ones()` payload bytes, and read nothing past
/// `4 * mask.count_ones() + OVER_READ` payload bytes. The caller must also
/// run on a CPU whose features `expand` was compiled for.
#[inline(always)]
pub(super) unsafe fn decompress_stream<const OVER_READ: usize>(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
    expand: impl Fn(u32, &[u8], *mut f32),
) -> Result<usize, DecodeError> {
    out.reserve(element_count.min(max_decoded_words(bytes.len())));
    let base = out.len();
    let full_windows = element_count / ZVC_WINDOW_ELEMS;
    let dst = out.as_mut_ptr().add(base);
    let mut pos = 0usize;
    let mut moved = 0usize;
    while moved < full_windows && pos + 4 <= bytes.len() {
        // SAFETY: `pos + 4 <= bytes.len()` is the loop condition.
        let mask = u32::from_le_bytes(bytes.as_ptr().add(pos).cast::<[u8; 4]>().read());
        let end = pos + 4 + mask.count_ones() as usize * 4;
        if end + OVER_READ > bytes.len() {
            break;
        }
        let decoded = moved * ZVC_WINDOW_ELEMS;
        // The reservation is `min(element_count, max_decoded_words(len))`
        // words: this window is full, so `decoded + 32 <= element_count`;
        // the `moved + 1` masks read so far each took 4 bytes, so
        // `decoded + 32 <= max_decoded_words(len)`.
        debug_assert!(base + decoded + ZVC_WINDOW_ELEMS <= out.capacity());
        // SAFETY: the reads — payload plus the declared over-read — end
        // at or before `bytes.len()` (checked above); the 32 writes land
        // in the reservation (argued above), past every word written so
        // far. `expand`'s own contract is the caller's.
        expand(mask, bytes.get_unchecked(pos + 4..), dst.add(decoded));
        pos = end;
        moved += 1;
    }
    // SAFETY: `expand` wrote every one of these words.
    out.set_len(base + moved * ZVC_WINDOW_ELEMS);
    while out.len() - base < element_count {
        if pos + 4 > bytes.len() {
            return Err(DecodeError::Truncated {
                expected: element_count,
                decoded: out.len() - base,
            });
        }
        let mask = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        pos += 4;
        let window = (element_count - (out.len() - base)).min(ZVC_WINDOW_ELEMS);
        if window < ZVC_WINDOW_ELEMS && (mask >> window) != 0 {
            return Err(DecodeError::Corrupt("mask bits set beyond final window"));
        }
        let payload = mask.count_ones() as usize * 4;
        if pos + payload > bytes.len() {
            // The payload is truncated mid-window. Walk the window element
            // by element like the scalar reference so the partial output
            // and the `Truncated` fields match it exactly.
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
        // SAFETY: `payload == mask.count_ones() * 4` by construction; the
        // bounds check above guarantees `bytes[pos..].len() >= payload`;
        // and every window before this one was full and spent a 4-byte
        // mask, so `out.len() - base + window` is within both terms of the
        // reservation.
        portable::decompress_window(mask, window, &bytes[pos..], payload, out);
        pos += payload;
    }
    Ok(pos)
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
