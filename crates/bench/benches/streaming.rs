//! Streaming-codec throughput: the zero-copy API redesign *and* the
//! SIMD ZVC kernel tiers, measured in GB/s of uncompressed input.
//!
//! Four suites:
//!
//! 1. **dispatch** — the static [`Codec`] on one 4 KB window.
//! 2. **whole-offload** — the contiguous [`WindowedStream`], fresh and
//!    with recycled buffers, and the parallel window path.
//! 3. **memcpy baseline** — a plain `f32` copy of the sweep-sized buffer:
//!    the hardware ceiling every codec number is expressed against (the
//!    `*_memcpy_fraction` metrics), so "within a small factor of memcpy"
//!    is a tracked number rather than prose.
//! 4. **density sweep** — compress and decompress GB/s per codec at the
//!    activation densities that matter (d ∈ {0.05, 0.25, 0.38, 0.75, 1.0};
//!    0.38 is the paper's network average), with the active ZVC kernel
//!    (`ZV`), every other tier this CPU supports (`ZVportable`, `ZVsse2`,
//!    …), the pre-vectorization scalar kernel (`ZVscalar`), and the
//!    extension codecs — mask+Huffman (`HF`) and the per-window adaptive
//!    picker (`AD`) — side by side. ZVC's *ratio* is density-only, but
//!    its *throughput* is density-sensitive — sparser input means fewer
//!    payload bytes per window — which this suite makes visible. The
//!    entropy coders (`HF`, `ZL`, `AD`) also run the same input as 4 KB
//!    windows (`windowed_4k/*`), the granularity the engine calls them
//!    at: a coder whose set-up is sized for a whole file looks fine on
//!    the whole tensor and collapses there.
//!
//! Run with `cargo bench -p cdma-bench --bench streaming`; pass `--fast`
//! (after `--`) for the CI smoke mode: smaller inputs, no zlib rows, same
//! table shape. The summary asserts the acceptance bars in its output:
//! the SIMD kernels ≥ 2× the portable word-at-a-time tier (compress +
//! decompress) at d ≈ 0.38, and every entropy coder's 4 KB-window rate
//! within [`WINDOWED_BAR`] of its whole-tensor rate.

use cdma_bench::micro::{group, Harness};
use cdma_bench::trajectory::Trajectory;
use cdma_compress::{
    windowed::WindowedStream, Algorithm, Compressor, DecodeError, Kernel, KernelTier, Zvc,
};
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4};

/// The pre-vectorization ZVC codec, element-at-a-time with a branch per
/// word — the "before" row of the density sweep. Delegates to the same
/// `scalar_reference` module the property tests pin the fast kernels
/// against, so the baseline can never drift from the tested oracle.
struct ScalarZvc;

impl Compressor for ScalarZvc {
    fn name(&self) -> &'static str {
        "ZVscalar"
    }

    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        cdma_compress::scalar_reference::compress_append(data, out);
    }

    fn decompress_append(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        cdma_compress::scalar_reference::decompress_append(bytes, element_count, out)
    }
}

/// One explicit ZVC kernel tier, benchable beside the auto-dispatched
/// codec: the sweep shows every tier the CPU supports so the dispatch
/// choice is a measured decision, not an act of faith.
struct TierZvc {
    kernel: &'static Kernel,
}

/// The sweep label for an explicitly-forced tier.
fn tier_label(tier: KernelTier) -> &'static str {
    match tier {
        KernelTier::Portable => "ZVportable",
        KernelTier::Sse2 => "ZVsse2",
        KernelTier::Avx2 => "ZVavx2",
        KernelTier::Avx512 => "ZVavx512",
        KernelTier::Neon => "ZVneon",
        _ => "ZVtier",
    }
}

impl Compressor for TierZvc {
    fn name(&self) -> &'static str {
        tier_label(self.kernel.tier())
    }

    fn compress_append(&self, data: &[f32], out: &mut Vec<u8>) {
        self.kernel.compress_append(data, out);
    }

    fn decompress_append(
        &self,
        bytes: &[u8],
        element_count: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        self.kernel.decompress_append(bytes, element_count, out)
    }
}

const WINDOW: usize = 4096;

/// The sweep densities: 0.38 is the paper's network-average density; the
/// ends exercise the all-zero and all-dense window fast paths.
const DENSITIES: [f64; 5] = [0.05, 0.25, 0.38, 0.75, 1.0];

/// Sparse input in the multi-megabyte regime the redesign targets
/// (~4.5 MB, or ~0.5 MB in `--fast` mode).
fn large_sparse_input(fast: bool) -> Vec<f32> {
    let mut gen = ActivationGen::seeded(42);
    let shape = if fast {
        Shape4::new(1, 64, 48, 48)
    } else {
        Shape4::new(8, 64, 48, 48)
    };
    gen.generate(shape, Layout::Nchw, 0.35).into_vec()
}

/// Clustered activations at exactly the requested density for the sweep.
///
/// The working set is kept cache-resident (1 MB, or 256 KB in `--fast`
/// mode) on purpose: the hardware engine compresses out of its on-chip
/// staging buffer, so the interesting number is kernel throughput, not the
/// host's DRAM streaming bandwidth (which the 4.5 MB whole-offload suites
/// above already exercise).
fn density_input(d: f64, fast: bool) -> Vec<f32> {
    let mut gen = ActivationGen::seeded(7 + (d * 100.0) as u64);
    let shape = if fast {
        Shape4::new(1, 16, 64, 64) // 64 K words = 256 KB
    } else {
        Shape4::new(1, 64, 64, 64) // 256 K words = 1 MB
    };
    gen.generate(shape, Layout::Nchw, d).into_vec()
}

fn bench_dispatch(h: &mut Harness, fast: bool) {
    group("dispatch: static Codec (one 4 KB window)");
    let data = large_sparse_input(fast);
    let window: Vec<f32> = data[..WINDOW / 4].to_vec();
    let bytes = WINDOW as u64;
    for alg in Algorithm::ALL {
        let codec = alg.codec();
        let mut out = Vec::new();
        h.bench(&format!("static_into/{}", alg.label()), bytes, || {
            codec.compress_into(&window, &mut out)
        });
    }
}

fn bench_streams(h: &mut Harness, fast: bool) {
    let data = large_sparse_input(fast);
    let bytes = (data.len() * 4) as u64;
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    group(&format!(
        "whole-offload stream, {:.1} MB input ({threads} threads for parallel)",
        bytes as f64 / (1 << 20) as f64
    ));
    for alg in [Algorithm::Rle, Algorithm::Zvc] {
        let codec = alg.codec();
        h.bench(&format!("contiguous_stream/{}", alg.label()), bytes, || {
            WindowedStream::compress(&codec, &data, WINDOW)
        });
        let mut recycled = WindowedStream::compress(&codec, &data, WINDOW);
        h.bench(
            &format!("recompress_recycled/{}", alg.label()),
            bytes,
            || recycled.recompress(&codec, &data, WINDOW),
        );
        h.bench(
            &format!("parallel_x{threads}/{}", alg.label()),
            bytes,
            || WindowedStream::compress_parallel(&codec, &data, WINDOW, threads),
        );
    }
}

fn bench_decompress_stream(h: &mut Harness, fast: bool) {
    group("whole-offload decompress");
    let data = large_sparse_input(fast);
    let bytes = (data.len() * 4) as u64;
    for alg in [Algorithm::Rle, Algorithm::Zvc] {
        let codec = alg.codec();
        let stream = WindowedStream::compress(&codec, &data, WINDOW);
        h.bench(&format!("decompress_alloc/{}", alg.label()), bytes, || {
            stream.decompress(&codec).unwrap()
        });
        let mut out = Vec::new();
        h.bench(&format!("decompress_into/{}", alg.label()), bytes, || {
            stream.decompress_into(&codec, &mut out).unwrap()
        });
    }
}

/// Plain `f32` copy of a sweep-sized buffer: the memory-bandwidth ceiling
/// the codec numbers are expressed against. Same working set as the
/// density sweep so the fraction compares like with like.
fn bench_memcpy(h: &mut Harness, fast: bool) {
    group("memcpy baseline (sweep-sized f32 copy)");
    let data = density_input(0.38, fast);
    let bytes = (data.len() * 4) as u64;
    let mut out = vec![0.0f32; data.len()];
    h.bench("memcpy/f32", bytes, || {
        out.copy_from_slice(&data);
        out[0]
    });
}

/// Share of its whole-tensor compress rate an entropy coder must keep on
/// 4 KB windows. Per window it builds a code (and, for DEFLATE, restarts
/// the match search) for 4 KB instead of a megabyte, so some loss is the
/// format's; before that set-up was made window-sized the share was 0.04
/// for `HF` and 0.2 for `ZL`.
const WINDOWED_BAR: f64 = 0.25;

/// The entropy-coded lanes of the sweep: label, codec, and whether the
/// `--fast` smoke mode runs it (LZ77-powered zlib is too slow for it).
const ENTROPY_LANES: [(&str, Algorithm, bool); 3] = [
    ("HF", Algorithm::Huff, true),
    ("AD", Algorithm::Adaptive, true),
    ("ZL", Algorithm::Zlib, false),
];

/// One sweep row: compress + decompress GB/s for `codec` at density `d`.
fn sweep_codec<C: Compressor>(h: &mut Harness, label: &str, codec: &C, d: f64, data: &[f32]) {
    let bytes = (data.len() * 4) as u64;
    let mut compressed = Vec::new();
    h.bench(&format!("compress/{label}/d={d:.2}"), bytes, || {
        codec.compress_into(data, &mut compressed)
    });
    let mut back = Vec::new();
    h.bench(&format!("decompress/{label}/d={d:.2}"), bytes, || {
        codec
            .decompress_into(&compressed, data.len(), &mut back)
            .unwrap()
    });
}

fn bench_density_sweep(h: &mut Harness, fast: bool) {
    group(&format!(
        "density sweep, GB/s per codec ({} cache-resident input; d = fraction of non-zero words)",
        if fast { "256 KB" } else { "1 MB" }
    ));
    let active = cdma_compress::kernel_info().tier;
    for d in DENSITIES {
        let data = density_input(d, fast);
        sweep_codec(h, "ZV", &Zvc::new(), d, &data);
        // Every other tier this CPU supports, explicitly forced: the `ZV`
        // row above already covers the active tier.
        for kernel in Kernel::supported() {
            if kernel.tier() != active {
                let codec = TierZvc { kernel };
                sweep_codec(h, tier_label(kernel.tier()), &codec, d, &data);
            }
        }
        sweep_codec(h, "ZVscalar", &ScalarZvc, d, &data);
        sweep_codec(h, "RL", &Algorithm::Rle.codec(), d, &data);
        // The entropy-coded and adaptive codecs run in --fast too (the CI
        // smoke lane greps for their rows).
        let bytes = (data.len() * 4) as u64;
        for (label, alg, in_fast) in ENTROPY_LANES {
            if fast && !in_fast {
                continue;
            }
            let codec = alg.codec();
            sweep_codec(h, label, &codec, d, &data);
            let mut stream = WindowedStream::default();
            h.bench(&format!("windowed_4k/{label}/d={d:.2}"), bytes, || {
                stream.recompress(&codec, &data, WINDOW)
            });
        }
    }
}

fn gbps(h: &Harness, label: &str) -> f64 {
    h.get(label).and_then(|m| m.gb_per_s()).unwrap_or(0.0)
}

/// GB/s for `tier` at density `d` — the active tier was benched under the
/// plain `ZV` label, every other tier under its `ZV<tier>` label.
fn tier_gbps(h: &Harness, op: &str, tier: KernelTier, active: KernelTier, d: f64) -> f64 {
    let label = if tier == active {
        "ZV"
    } else {
        tier_label(tier)
    };
    gbps(h, &format!("{op}/{label}/d={d:.2}"))
}

/// Harmonic mean of compress + decompress GB/s: the round-trip rate.
fn combined(c: f64, d: f64) -> f64 {
    1.0 / (1.0 / c.max(1e-12) + 1.0 / d.max(1e-12))
}

fn print_summary(h: &Harness, fast: bool) {
    // Acceptance bar 1: an entropy coder keeps its rate at the engine's
    // 4 KB granularity, at the paper's average density.
    println!("\nentropy coders at d=0.38, whole tensor vs 4 KB windows (compress GB/s):");
    for (label, _, in_fast) in ENTROPY_LANES {
        if fast && !in_fast {
            continue;
        }
        let whole = gbps(h, &format!("compress/{label}/d=0.38"));
        let windowed = gbps(h, &format!("windowed_4k/{label}/d=0.38"));
        let share = windowed / whole.max(1e-12);
        let verdict = if share >= WINDOWED_BAR {
            "OK"
        } else {
            "WINDOW-BOUND"
        };
        println!(
            "{label}: whole {whole:.3}  windowed {windowed:.3}  share {share:.2}  [{verdict}]"
        );
    }

    // Acceptance bar 2: the active SIMD tier ≥ 2x the portable
    // word-at-a-time tier at the paper's average density, compress and
    // decompress combined. (On a machine with no SIMD tier the active
    // tier *is* portable and the bar degenerates to 1.00x [NO SIMD].)
    let active = cdma_compress::kernel_info().tier;
    let memcpy = gbps(h, "memcpy/f32");
    println!(
        "\nZVC kernel tiers at d=0.38 (active: {}; memcpy ceiling {memcpy:.2} GB/s):",
        cdma_compress::kernel_info()
    );
    println!(
        "{:>12} {:>12} {:>9} {:>12} {:>9}",
        "tier", "comp GB/s", "of-memcpy", "decomp GB/s", "of-memcpy"
    );
    let d = 0.38;
    for kernel in Kernel::supported() {
        let tier = kernel.tier();
        let c = tier_gbps(h, "compress", tier, active, d);
        let dc = tier_gbps(h, "decompress", tier, active, d);
        println!(
            "{:>12} {c:>12.2} {:>8.2}x {dc:>12.2} {:>8.2}x",
            tier.name(),
            c / memcpy.max(1e-12),
            dc / memcpy.max(1e-12),
        );
    }
    let sc = gbps(h, &format!("compress/ZVscalar/d={d:.2}"));
    let sd = gbps(h, &format!("decompress/ZVscalar/d={d:.2}"));
    println!(
        "{:>12} {sc:>12.2} {:>8.2}x {sd:>12.2} {:>8.2}x  (pre-vectorization)",
        "scalar",
        sc / memcpy.max(1e-12),
        sd / memcpy.max(1e-12),
    );

    println!("\nactive SIMD tier vs portable word-at-a-time (speedup = simd/portable):");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "d", "simd-c GB/s", "port-c GB/s", "simd-d GB/s", "port-d GB/s", "c-speedup", "d-speedup"
    );
    for d in DENSITIES {
        let fc = gbps(h, &format!("compress/ZV/d={d:.2}"));
        let pc = tier_gbps(h, "compress", KernelTier::Portable, active, d);
        let fd = gbps(h, &format!("decompress/ZV/d={d:.2}"));
        let pd = tier_gbps(h, "decompress", KernelTier::Portable, active, d);
        println!(
            "{d:>6.2} {fc:>12.2} {pc:>12.2} {fd:>12.2} {pd:>12.2} {:>8.2}x {:>8.2}x",
            fc / pc.max(1e-12),
            fd / pd.max(1e-12),
        );
    }
    let d = 0.38;
    let combined_fast = combined(
        gbps(h, &format!("compress/ZV/d={d:.2}")),
        gbps(h, &format!("decompress/ZV/d={d:.2}")),
    );
    let combined_portable = combined(
        tier_gbps(h, "compress", KernelTier::Portable, active, d),
        tier_gbps(h, "decompress", KernelTier::Portable, active, d),
    );
    let speedup = combined_fast / combined_portable.max(1e-12);
    let verdict = if active == KernelTier::Portable {
        "NO SIMD"
    } else if speedup >= 2.0 {
        "OK"
    } else {
        "BELOW BAR"
    };
    println!(
        "d=0.38 compress+decompress round-trip: {combined_fast:.2} GB/s vs portable \
         {combined_portable:.2} GB/s = {speedup:.2}x  [{verdict}]"
    );
    if fast {
        println!("(--fast smoke mode: 256 KB inputs, zlib rows skipped)");
    }
}

/// Appends the summary numbers to `BENCH_streaming.json` (`--record`).
fn record(h: &Harness, fast: bool) {
    let mut t = Trajectory::new("streaming");
    t.metric("fast_mode", fast as u64 as f64);
    for alg in [Algorithm::Rle, Algorithm::Zvc] {
        t.gbps_from(h, &format!("contiguous_stream/{}", alg.label()));
        t.gbps_from(h, &format!("recompress_recycled/{}", alg.label()));
    }
    t.gbps_from(h, "memcpy/f32");
    let memcpy = gbps(h, "memcpy/f32");
    let active = cdma_compress::kernel_info().tier;
    let portable_label = if active == KernelTier::Portable {
        "ZV"
    } else {
        "ZVportable"
    };
    for d in DENSITIES {
        for label in ["ZV", portable_label, "ZVscalar"] {
            t.gbps_from(h, &format!("compress/{label}/d={d:.2}"));
            t.gbps_from(h, &format!("decompress/{label}/d={d:.2}"));
        }
        for (label, _, in_fast) in ENTROPY_LANES {
            if fast && !in_fast {
                continue;
            }
            t.gbps_from(h, &format!("compress/{label}/d={d:.2}"));
            t.gbps_from(h, &format!("windowed_4k/{label}/d={d:.2}"));
            t.gbps_from(h, &format!("decompress/{label}/d={d:.2}"));
        }
        // Fraction-of-memcpy for the dispatched kernel: the honest "how
        // close to the memory ceiling" number the README quotes.
        for op in ["compress", "decompress"] {
            let frac = gbps(h, &format!("{op}/ZV/d={d:.2}")) / memcpy.max(1e-12);
            t.metric(&format!("{op}/ZV/d={d:.2}_memcpy_fraction"), frac);
        }
    }
    let path = t.append_default().expect("append BENCH_streaming.json");
    println!("recorded trajectory point in {}", path.display());
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    println!("ZVC kernel: {}", cdma_compress::kernel_info());
    let mut h = Harness::new();
    bench_dispatch(&mut h, fast);
    bench_streams(&mut h, fast);
    bench_decompress_stream(&mut h, fast);
    bench_memcpy(&mut h, fast);
    bench_density_sweep(&mut h, fast);
    print_summary(&h, fast);
    if std::env::args().any(|a| a == "--record") {
        record(&h, fast);
    }
}
