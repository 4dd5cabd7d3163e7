//! ZVC kernel descriptors, the two whole-stream drivers, and one-time
//! runtime dispatch.
//!
//! Every tier implements the same two whole-stream function-pointer
//! contracts — compress a slice, decompress a stream — and a [`Kernel`]
//! bundles a tier's pair behind a name, so a call pays one indirect call
//! per stream in either direction, never one per window.
//!
//! Both directions are driven **once**, here. [`compress_stream`] owns the
//! worst-case output reservation, the window loop, the partial tail window
//! and the one publish of the written bytes; [`decompress_stream`] owns the
//! up-front reservation, mask parsing, tail-window validation, truncation
//! and corruption errors, and where the stream ends. Each is an
//! `#[inline(always)]` loop generic over a tier's full-window move, which
//! each SIMD tier's `#[target_feature]` entry (and the portable tier's
//! entries below, which SSE2's decompress shares) instantiates so the move
//! inlines into it. The tiers differ only in how a full window moves.
//! Every other window — a partial final window, a window that runs past
//! the stream, a corrupt tail — takes the portable window coder in the
//! driver, so a corrupt or truncated stream yields byte-for-byte the same
//! error and partial output whichever tier is active.
//!
//! The table also runs caller code at a tier's width: [`Kernel::run`]
//! calls a closure from the tier's `#[target_feature]` entry (AVX-512F,
//! AVX2) so an inlined loop in it autovectorizes there — the serving and
//! inference payload generators run this way. A `Kernel` exists only for
//! a tier [`Kernel::supported`] detected, which is what licenses entering
//! any of its functions.
//!
//! [`Kernel::active`] picks the widest tier the running CPU supports, once,
//! via `is_x86_feature_detected!`; other architectures run the portable
//! tier. The `CDMA_ZVC_KERNEL` environment variable overrides the choice by
//! tier name ([`KernelTier::name`]) — used by the CI matrix to force every
//! tier through the full test suite on one machine — and
//! [`Kernel::supported`]/[`Kernel::for_tier`] expose the detected tiers so
//! differential tests can drive each one explicitly without touching the
//! environment.

use std::mem::MaybeUninit;
use std::sync::OnceLock;

use super::portable;
#[cfg(target_arch = "x86_64")]
use super::x86;
use super::ZVC_WINDOW_ELEMS;
use crate::DecodeError;

/// Whole-stream compress kernel: appends the ZVC stream for `data` to the
/// output vector. Every tier's entry is [`compress_stream`] with the tier's
/// window move; calling it is only unchecked because the entry is compiled
/// for the tier's instruction set, which the CPU must support.
type CompressFn = unsafe fn(&[f32], &mut Vec<u8>);

/// Whole-stream decompress kernel: decodes the ZVC stream of
/// `element_count` words at the front of `bytes`, appends them to `out`
/// and returns the stream's length in bytes — [`Kernel::decompress_prefix`]
/// exactly. Every tier's entry is [`decompress_stream`] with the tier's
/// window move, entered under the same CPU-support condition.
type DecompressFn = unsafe fn(&[u8], usize, &mut Vec<f32>) -> Result<usize, DecodeError>;

/// Worst-case ZVC output size for `len` activation words: every word
/// non-zero (4 bytes each) plus one 4-byte mask per (possibly partial)
/// window. [`compress_stream`] reserves exactly this much, which is what
/// bounds the SIMD tiers' full-vector overshooting stores.
fn worst_case_bytes(len: usize) -> usize {
    len * 4 + len.div_ceil(ZVC_WINDOW_ELEMS) * 4
}

/// The instruction-set tier a [`Kernel`] is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelTier {
    /// Word-at-a-time run kernels in safe code; every platform.
    Portable,
    /// SSE2 vector zero tests (x86_64 baseline), portable payload moves.
    Sse2,
    /// AVX2 8-lane zero tests + `vpermps` LUT compaction/expansion.
    Avx2,
    /// AVX-512F 16-lane mask-register tests + `vcompressps`/`vexpandps`.
    Avx512,
}

impl KernelTier {
    /// Every tier, narrowest first: the one list the names are read from.
    const ALL: [KernelTier; 4] = [
        KernelTier::Portable,
        KernelTier::Sse2,
        KernelTier::Avx2,
        KernelTier::Avx512,
    ];

    /// The tier's lowercase name — also the value `CDMA_ZVC_KERNEL`
    /// accepts to force it.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
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
            let mut tiers = Vec::with_capacity(4);
            #[cfg(target_arch = "x86_64")]
            {
                // The AVX2 and AVX-512 entries count mask bits with POPCNT,
                // which every CPU with either has.
                let popcnt = std::arch::is_x86_feature_detected!("popcnt");
                if popcnt && std::arch::is_x86_feature_detected!("avx512f") {
                    tiers.push(Kernel {
                        tier: KernelTier::Avx512,
                        compress: x86::compress_avx512,
                        decompress: x86::decompress_avx512,
                    });
                }
                if popcnt && std::arch::is_x86_feature_detected!("avx2") {
                    tiers.push(Kernel {
                        tier: KernelTier::Avx2,
                        compress: x86::compress_avx2,
                        decompress: x86::decompress_avx2,
                    });
                }
                // SSE2 is baseline on x86_64. It has no lane-expansion
                // shuffle, and the per-bit decoder needs no feature: the
                // portable decompress kernel.
                tiers.push(Kernel {
                    tier: KernelTier::Sse2,
                    compress: x86::compress_sse2,
                    decompress: decompress_portable,
                });
            }
            tiers.push(Kernel {
                tier: KernelTier::Portable,
                compress: compress_portable,
                decompress: decompress_portable,
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

    /// Appends the ZVC stream for `data` to `out`. One call into the
    /// tier's whole-stream kernel, whose driver (`compress_stream`)
    /// reserves the worst-case output size first.
    pub fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        // SAFETY: a `Kernel` exists only for a tier `supported()` detected
        // on this CPU, so the entry's instruction set is available.
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
    /// `#[target_feature]` entry that enables the tier's vector set
    /// (`avx512f`, `avx2`), which [`Kernel::supported`] detected, so a closure
    /// whose body inlines — an `#[inline(always)]` loop — is
    /// autovectorized at that tier's width. The other tiers call `f`
    /// plainly. A tier changes how fast `f` runs, never what it returns,
    /// provided `f` does only integer and exact floating-point work
    /// (which the optimiser may not reassociate into other bits).
    #[inline]
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.tier {
            // SAFETY: a `Kernel` exists only for a tier `supported()`
            // detected on this CPU, so AVX-512F is available.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => unsafe { x86::run_avx512(f) },
            // SAFETY: as above, AVX2 is available.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => unsafe { x86::run_avx2(f) },
            _ => f(),
        }
    }
}

/// The portable tier's compress entry: the driver with `portable.rs`'s
/// per-bit packing window move.
fn compress_portable(data: &[f32], out: &mut Vec<u8>) {
    // SAFETY: `pack_window` writes the window's mask and packed payload
    // and nothing past them (no over-write), returns the mask and the
    // bytes it wrote, and needs no CPU feature.
    unsafe { compress_stream::<0>(data, out, |window, dst| portable::pack_window(window, dst)) }
}

/// The portable tier's decompress entry, which SSE2 shares: the driver
/// with `portable.rs`'s per-bit decoding window move.
fn decompress_portable(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
) -> Result<usize, DecodeError> {
    // SAFETY: `expand_nonzeros` reads only the window's payload (no
    // over-read), writes every one of its 32 words, and needs no CPU
    // feature.
    unsafe {
        decompress_stream::<0>(bytes, element_count, out, |mask, payload, dst| {
            portable::expand_nonzeros(mask, payload, dst)
        })
    }
}

/// The one ZVC encode loop, compiled into every tier's compress entry with
/// that tier's window move.
///
/// Reserves [`worst_case_bytes`] in `out`, hands every full window to
/// `pack(window, dst)` with `dst` = the rest of the reservation — never
/// less than the window's worst case, `4 + 4 * 32` bytes — packs the
/// partial final window (if any) with the portable window coder, and then
/// publishes the written bytes with one length update. A move's stores
/// may overshoot the window it writes by up to `OVER_WRITE` bytes; debug
/// builds check, after each window, that they stayed in the reservation.
///
/// # Safety
///
/// `pack(window, dst)` must write the window's 4-byte little-endian mask
/// and its packed non-zero words into `dst`, return that mask and the
/// number of bytes those take (`4 + 4 * mask.count_ones()`), and store
/// nothing past `OVER_WRITE` bytes from where the payload of the window's
/// last `OVER_WRITE / 4` words begins (for `OVER_WRITE = 0`: nothing past
/// the window's own bytes). The caller must also run on a CPU whose
/// features `pack` was compiled for.
#[inline(always)]
pub(super) unsafe fn compress_stream<const OVER_WRITE: usize>(
    data: &[f32],
    out: &mut Vec<u8>,
    pack: impl Fn(&[f32; ZVC_WINDOW_ELEMS], &mut [MaybeUninit<u8>]) -> (u32, usize),
) {
    out.reserve(worst_case_bytes(data.len()));
    let (windows, tail) = data.as_chunks::<ZVC_WINDOW_ELEMS>();
    let spare = out.spare_capacity_mut();
    let mut written = 0usize;
    for window in windows {
        // The windows before this one took at most their worst case, and
        // the reservation holds every window's: `dst` has 132 bytes or more.
        let dst = &mut spare[written..];
        let (mask, len) = pack(window, dst);
        debug_assert_eq!(len, 4 + 4 * mask.count_ones() as usize);
        // The move's farthest store: its last `OVER_WRITE`-byte store
        // starts where the payload of the last `OVER_WRITE / 4` words
        // does. The reservation left a full window's worst case, 132
        // bytes, so it fits; on an all-dense final window it ends on the
        // reservation's last byte.
        let head = mask & (u32::MAX >> (OVER_WRITE / 4));
        debug_assert!(
            4 + 4 * head.count_ones() as usize + OVER_WRITE <= dst.len(),
            "a {OVER_WRITE}-byte over-write at byte {written} overshoots the reservation"
        );
        written += len;
    }
    if !tail.is_empty() {
        written += portable::pack_window(tail, &mut spare[written..]).1;
    }
    // SAFETY: every window's move wrote its mask and payload, contiguous
    // from the old length, and `written` counts exactly those bytes.
    out.set_len(out.len() + written);
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
/// A window takes `expand(mask, payload, dst)` — straight into the
/// up-front reservation — only when it is full, its mask and payload lie
/// inside `bytes`, and so do the `OVER_READ` bytes past the payload the
/// move may load. The first window that fails any of those ends that run,
/// and it and every later window take the checked path: the partial final
/// window, a window that runs past the stream, a corrupt tail, and the few
/// last windows a tier with an over-read cannot reach. That path is one
/// loop shared by every tier, so errors and partial output cannot differ
/// between tiers. Each move checks its own loads against `payload` in
/// debug builds.
///
/// # Safety
///
/// `expand(mask, payload, dst)` is called with `payload` = the stream from
/// this window's first payload byte on, holding at least
/// `4 * mask.count_ones() + OVER_READ` bytes. It must write all 32 words of
/// `dst`, from the mask and the first `4 * mask.count_ones()` payload
/// bytes, and read nothing past `4 * mask.count_ones() + OVER_READ`
/// payload bytes. The caller must also run on a CPU whose features
/// `expand` was compiled for.
#[inline(always)]
pub(super) unsafe fn decompress_stream<const OVER_READ: usize>(
    bytes: &[u8],
    element_count: usize,
    out: &mut Vec<f32>,
    expand: impl Fn(u32, &[u8], &mut [MaybeUninit<f32>; ZVC_WINDOW_ELEMS]),
) -> Result<usize, DecodeError> {
    // Every window this loop moves spent a 4-byte mask, so the windows of
    // the reservation are never fewer than the windows it can move.
    out.reserve(element_count.min(max_decoded_words(bytes.len())));
    let base = out.len();
    let full_windows = element_count / ZVC_WINDOW_ELEMS;
    let (spare, _) = out.spare_capacity_mut().as_chunks_mut::<ZVC_WINDOW_ELEMS>();
    let mut pos = 0usize;
    let mut moved = 0usize;
    for dst in spare.iter_mut().take(full_windows) {
        let Some(&head) = bytes[pos..].first_chunk::<4>() else {
            break;
        };
        let mask = u32::from_le_bytes(head);
        let end = pos + 4 + mask.count_ones() as usize * 4;
        if end + OVER_READ > bytes.len() {
            break;
        }
        expand(mask, &bytes[pos + 4..], dst);
        pos = end;
        moved += 1;
    }
    // SAFETY: `expand` wrote every word of the `moved` windows.
    out.set_len(base + moved * ZVC_WINDOW_ELEMS);
    while out.len() - base < element_count {
        let Some(&head) = bytes[pos..].first_chunk::<4>() else {
            return Err(DecodeError::Truncated {
                expected: element_count,
                decoded: out.len() - base,
            });
        };
        let mask = u32::from_le_bytes(head);
        pos += 4;
        let window = (element_count - (out.len() - base)).min(ZVC_WINDOW_ELEMS);
        if window < ZVC_WINDOW_ELEMS && (mask >> window) != 0 {
            return Err(DecodeError::Corrupt("mask bits set beyond final window"));
        }
        let payload = mask.count_ones() as usize * 4;
        let Some(words) = bytes.get(pos..pos + payload) else {
            // The payload is truncated mid-window. Walk the window element
            // by element like the scalar reference so the partial output
            // and the `Truncated` fields match it exactly.
            for i in 0..window {
                if mask & (1 << i) != 0 {
                    let Some(&w) = bytes[pos..].first_chunk::<4>() else {
                        return Err(DecodeError::Truncated {
                            expected: element_count,
                            decoded: out.len() - base,
                        });
                    };
                    pos += 4;
                    out.push(f32::from_le_bytes(w));
                } else {
                    out.push(0.0);
                }
            }
            continue;
        };
        // Every window before this one was full and spent a 4-byte mask,
        // so the reservation holds this window's words too.
        portable::expand_nonzeros(mask, words, &mut out.spare_capacity_mut()[..window]);
        // SAFETY: `expand_nonzeros` wrote every one of the `window` words.
        out.set_len(out.len() + window);
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
// pub: a caller logs the dispatched tier; kernel_tiers.rs checks a forced tier took
pub fn kernel_info() -> KernelInfo {
    active_info().1
}

/// The supported kernel `CDMA_ZVC_KERNEL=name` forces, or why there is
/// none: an unknown name, or a tier this CPU cannot run.
fn forced(name: &str) -> Result<&'static Kernel, String> {
    let Some(tier) = KernelTier::ALL.into_iter().find(|t| t.name() == name) else {
        let names: Vec<_> = KernelTier::ALL.iter().map(|t| t.name()).collect();
        return Err(format!(
            "CDMA_ZVC_KERNEL={name:?} names no ZVC kernel tier (expected one of {})",
            names.join(", ")
        ));
    };
    Kernel::for_tier(tier).ok_or_else(|| {
        format!("CDMA_ZVC_KERNEL={name:?}: this CPU does not support the {tier} tier")
    })
}

fn active_info() -> &'static (Kernel, KernelInfo) {
    static ACTIVE: OnceLock<(Kernel, KernelInfo)> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let (kernel, by_name) = match std::env::var("CDMA_ZVC_KERNEL") {
            Ok(name) => (*forced(&name).unwrap_or_else(|e| panic!("{e}")), true),
            Err(_) => (Kernel::supported()[0], false),
        };
        let info = KernelInfo {
            tier: kernel.tier,
            forced: by_name,
        };
        (kernel, info)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_reference;

    #[test]
    fn every_supported_tier_is_forced_by_its_name_and_no_other_name_is() {
        for kernel in Kernel::supported() {
            let tier = kernel.tier();
            assert_eq!(forced(tier.name()).map(|k| k.tier()), Ok(tier));
        }
        for name in ["neon", ""] {
            let err = forced(name).map(|k| k.tier()).unwrap_err();
            assert!(
                err.ends_with("(expected one of portable, sse2, avx2, avx512)"),
                "{err}"
            );
        }
    }

    /// All-dense input is the worst case the reservation is sized for:
    /// with no tail, the last full window's last full-width store ends on
    /// the reservation's last byte, where the driver's debug check of the
    /// declared over-write is tight.
    #[test]
    fn a_dense_stream_fills_its_reservation_on_every_tier() {
        for kernel in Kernel::supported() {
            let tier = kernel.tier();
            for windows in [1usize, 2, 5, 32] {
                for tail in [0usize, 1, 7, 8, 16, 31] {
                    let n = windows * ZVC_WINDOW_ELEMS + tail;
                    let data: Vec<f32> = (0..n).map(|i| i as f32 - 0.5).collect();
                    let mut out = Vec::new();
                    kernel.compress_append(&data, &mut out);
                    assert_eq!(out.capacity(), worst_case_bytes(n), "{tier} n={n}");
                    assert_eq!(out.len(), worst_case_bytes(n), "{tier} n={n}");
                    let mut want = Vec::new();
                    scalar_reference::compress_append(&data, &mut want);
                    assert_eq!(out, want, "{tier} n={n}");
                }
            }
        }
    }
}
