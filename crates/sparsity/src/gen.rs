use cdma_tensor::{Layout, Shape4, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spatial-structure parameters for synthesized activation maps.
///
/// Real post-ReLU activation maps are not salt-and-pepper noise: activity
/// concentrates in contiguous regions where the learned filter responds
/// (Fig. 5 of the paper shows exactly this blob structure), some channels go
/// entirely quiet, and — for early, class-invariant layers — the *same*
/// image regions light up across the minibatch. Those three properties are
/// what make RLE and zlib sensitive to the memory layout, so the generator
/// models each of them explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialClustering {
    /// Maximum number of Gaussian activity blobs per channel plane.
    pub blobs_per_plane: usize,
    /// Blob radius as a fraction of `min(H, W)`.
    pub radius_frac: f64,
    /// Log-normal σ of the per-channel gain; higher values mean more
    /// channels fall entirely below threshold (dead channels → full-plane
    /// zero runs in NCHW).
    pub channel_gain_sigma: f64,
    /// Positional jitter of blob centres across minibatch images, as a
    /// fraction of the plane extent. Small values model class-invariant
    /// early layers (high cross-image correlation).
    pub batch_jitter: f64,
    /// Amplitude of unstructured noise added on top of the blobs.
    pub noise: f64,
}

impl Default for SpatialClustering {
    fn default() -> Self {
        SpatialClustering {
            blobs_per_plane: 4,
            radius_frac: 0.18,
            channel_gain_sigma: 1.0,
            batch_jitter: 0.3,
            noise: 0.18,
        }
    }
}

impl SpatialClustering {
    /// No spatial structure at all — i.i.d. activations. Useful as the
    /// control case: with this setting RLE gains nothing from any layout.
    #[cfg(test)]
    fn unstructured() -> Self {
        SpatialClustering {
            blobs_per_plane: 0,
            radius_frac: 0.0,
            channel_gain_sigma: 0.0,
            batch_jitter: 1.0,
            noise: 1.0,
        }
    }
}

/// Deterministic activation-map synthesizer with controllable density and
/// spatial clustering.
///
/// The generator produces a continuous "response field" per channel plane
/// (sum of Gaussian blobs × per-channel gain + noise), then thresholds the
/// whole tensor at the quantile matching the requested density. The
/// threshold construction guarantees the measured density matches the target
/// to within one element, while the field's spatial correlation produces the
/// clustered zero patterns the paper observed.
///
/// A pixel's field value is *defined* by the per-blob expression
/// `amp * exp(-(dx² + dy²) / 2r²)` summed in blob order; it is *computed*
/// from per-(blob, image) row and column tables — `exp(-dx²/2r²)` and
/// `amp·exp(-dy²/2r²)`, so a plane costs `blobs × (w + h)` calls to `exp`,
/// not `blobs × w × h`. The table product is only an approximation with a
/// stated error bound, so each pixel certifies itself: when both ends of
/// the bound round to the same `f32` that value is stored, and the few that
/// do not (≈ 0.05%) are evaluated with the defining expression — every
/// tensor is bit-identical to the per-pixel loop by construction.
///
/// Cost per element, over the 56 AlexNet, SqueezeNet and VGG maps the
/// benchmark's `offload_zvc` set-up builds (21 M elements, one core of a
/// shared 2-vCPU Xeon, SSE2 code; MEASUREMENTS.md has the runs): ≈ 6 ns
/// for the field and ≈ 3 ns for the threshold. In the field, a pixel's noise is one
/// step of the serial xoshiro generator (≈ 2 ns, its state in registers for
/// a row's draws); the table sums and both certificate ends take about as
/// much, eight pixels a step; on small planes the tables' `exp` calls add
/// the rest (0.09 calls an element over the set). The threshold is a radix
/// select that reads the field twice and copies none of it (≈ 1 ns), then
/// a count per row and a store for each row that holds a kept element; the
/// output's first-touch page faults are most of what is left.
///
/// ```
/// use cdma_sparsity::ActivationGen;
/// use cdma_tensor::{Layout, Shape4};
/// let mut gen = ActivationGen::seeded(7);
/// let t = gen.generate(Shape4::new(2, 16, 27, 27), Layout::Nchw, 0.35);
/// assert!((t.density() - 0.35).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct ActivationGen {
    rng: StdRng,
    clustering: SpatialClustering,
}

impl ActivationGen {
    /// Creates a generator from a seed with default clustering.
    pub fn seeded(seed: u64) -> Self {
        ActivationGen {
            rng: StdRng::seed_from_u64(seed),
            clustering: SpatialClustering::default(),
        }
    }

    /// Creates a generator with explicit clustering parameters.
    #[cfg(test)]
    fn with_clustering(seed: u64, clustering: SpatialClustering) -> Self {
        ActivationGen {
            rng: StdRng::seed_from_u64(seed),
            clustering,
        }
    }

    /// Generates an activation tensor of `shape` in `layout` whose density
    /// is `density` (to within one element).
    ///
    /// # Panics
    ///
    /// Panics if `density` is outside `[0, 1]`.
    pub fn generate(&mut self, shape: Shape4, layout: Layout, density: f64) -> Tensor {
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be in [0, 1], got {density}"
        );
        let (field, _uncertified) = self.response_field(shape);
        threshold_to_density(field, shape, layout, density)
    }

    /// Continuous response field in logical NCHW order, and the number of
    /// pixels whose rounding the table form could not certify (they took
    /// the defining expression; the tests bound their share).
    fn response_field(&mut self, shape: Shape4) -> (Vec<f32>, usize) {
        let Shape4 { n, c, h, w } = shape;
        let cl = self.clustering;
        let mut field = vec![0f32; shape.len()];
        // `z` holds one image row's noise, `ex[b * w + wi]` and
        // `ey[hi * blobs + b]` per (blob, image). One allocation, after the
        // field: callers that keep the tensors allocate into the holes the
        // generator leaves, and their peak RSS read up to 10% apart with
        // where its small chunks sat (MEASUREMENTS.md, PR 22).
        let mut tables = vec![0f64; w + cl.blobs_per_plane * (w + h)];
        let (z, rest) = tables.split_at_mut(w);
        let (ex, ey) = rest.split_at_mut(cl.blobs_per_plane * w);
        let mut uncertified = 0usize;
        for ci in 0..c {
            // Per-channel gain: log-normal, so a heavy lower tail produces
            // fully-dead channels once thresholded.
            let gain = if cl.channel_gain_sigma > 0.0 {
                let g: f64 = self.rng.gen_range(-1.0..1.0) * cl.channel_gain_sigma * 1.6;
                g.exp()
            } else {
                1.0
            };
            // Blob layout is shared per channel (class-invariant response),
            // then jittered per image.
            let blob_count = if cl.blobs_per_plane == 0 {
                0
            } else {
                self.rng.gen_range(1..=cl.blobs_per_plane)
            };
            let blobs: Vec<Blob> = (0..blob_count)
                .map(|_| {
                    let cx = self.rng.gen_range(0.0..w as f64);
                    let cy = self.rng.gen_range(0.0..h as f64);
                    let r =
                        (cl.radius_frac * h.min(w) as f64).max(0.5) * self.rng.gen_range(0.5..1.5);
                    let amp = self.rng.gen_range(0.3..1.0);
                    (cx, cy, r, amp)
                })
                .collect();
            let delta = blobs.iter().map(|b| b.3).sum::<f64>() * CERTIFICATE_REL;
            for ni in 0..n {
                let (jx, jy) = (
                    self.rng.gen_range(-1.0..1.0) * cl.batch_jitter * w as f64,
                    self.rng.gen_range(-1.0..1.0) * cl.batch_jitter * h as f64,
                );
                let img_gain = gain * self.rng.gen_range(0.7..1.3);
                // What makes `F` below monotone.
                debug_assert!(img_gain > 0.0 && img_gain.is_finite());
                for (b, &(cx, cy, r, amp)) in blobs.iter().enumerate() {
                    for (wi, x) in ex[b * w..][..w].iter_mut().enumerate() {
                        let dx = wi as f64 - (cx + jx);
                        *x = (-(dx * dx) / (2.0 * r * r)).exp();
                    }
                    for hi in 0..h {
                        let dy = hi as f64 - (cy + jy);
                        ey[hi * blob_count + b] = amp * (-(dy * dy) / (2.0 * r * r)).exp();
                    }
                }
                // A pixel's value from its table sum `s` and noise `z`:
                // `F(s ± δ)` if both ends round alike, else `F(v)` with
                // `v` the defining sum; `true` for the latter.
                let pixel = |s: f64, z: f64, wi: usize, hi: usize| -> (f32, bool) {
                    let (lo, hi_end) = certificate(s, delta, img_gain, z);
                    if lo.to_bits() == hi_end.to_bits() {
                        (lo, false)
                    } else {
                        (
                            (blob_sum(&blobs, jx, jy, wi, hi) * img_gain + z) as f32,
                            true,
                        )
                    }
                };
                for hi in 0..h {
                    draw_noise(&mut self.rng, cl.noise, z);
                    let ys = &ey[hi * blob_count..][..blob_count];
                    let out_row = &mut field[((ni * c + ci) * h + hi) * w..][..w];
                    // s = Σ_b ey_b[hi] · ex_b[wi], in blob order, and both
                    // certificate ends, a chunk at a time; the rare chunk
                    // where some pixel's ends disagree is settled pixel by
                    // pixel. A row that is no whole number of chunks ends
                    // on one that overlaps the chunk before: its first
                    // pixels are computed twice, to the same bits.
                    if w < CHUNK {
                        for wi in 0..w {
                            let s = ys
                                .iter()
                                .enumerate()
                                .fold(0f64, |s, (b, &y)| s + y * ex[b * w + wi]);
                            let (v, fell_back) = pixel(s, z[wi], wi, hi);
                            out_row[wi] = v;
                            uncertified += usize::from(fell_back);
                        }
                        continue;
                    }
                    let mut done = 0;
                    while done < w {
                        let at = done.min(w - CHUNK);
                        let mut s = [0f64; CHUNK];
                        for (b, &y) in ys.iter().enumerate() {
                            for (s, &x) in s.iter_mut().zip(&ex[b * w + at..][..CHUNK]) {
                                *s += y * x;
                            }
                        }
                        let zs = &z[at..][..CHUNK];
                        let mut lo = [0f32; CHUNK];
                        let mut differ = 0u32;
                        for ((lo, &s), &z) in lo.iter_mut().zip(&s).zip(zs) {
                            let (lo_end, hi_end) = certificate(s, delta, img_gain, z);
                            *lo = lo_end;
                            differ |= lo_end.to_bits() ^ hi_end.to_bits();
                        }
                        if differ != 0 {
                            for (i, lo) in lo.iter_mut().enumerate() {
                                let (v, fell_back) = pixel(s[i], zs[i], at + i, hi);
                                *lo = v;
                                uncertified += usize::from(fell_back && at + i >= done);
                            }
                        }
                        out_row[at..][..CHUNK].copy_from_slice(&lo);
                        done = at + CHUNK;
                    }
                }
            }
        }
        (field, uncertified)
    }

    /// The per-pixel loop [`ActivationGen::response_field`] replaced, kept
    /// unchanged as the oracle it is held to bit for bit.
    #[cfg(test)]
    fn response_field_oracle(&mut self, shape: Shape4) -> Vec<f32> {
        let Shape4 { n, c, h, w } = shape;
        let cl = self.clustering;
        let mut field = vec![0f32; shape.len()];
        for ci in 0..c {
            // Per-channel gain: log-normal, so a heavy lower tail produces
            // fully-dead channels once thresholded.
            let gain = if cl.channel_gain_sigma > 0.0 {
                let g: f64 = self.rng.gen_range(-1.0..1.0) * cl.channel_gain_sigma * 1.6;
                g.exp()
            } else {
                1.0
            };
            // Blob layout is shared per channel (class-invariant response),
            // then jittered per image.
            let blob_count = if cl.blobs_per_plane == 0 {
                0
            } else {
                self.rng.gen_range(1..=cl.blobs_per_plane)
            };
            let blobs: Vec<(f64, f64, f64, f64)> = (0..blob_count)
                .map(|_| {
                    let cx = self.rng.gen_range(0.0..w as f64);
                    let cy = self.rng.gen_range(0.0..h as f64);
                    let r =
                        (cl.radius_frac * h.min(w) as f64).max(0.5) * self.rng.gen_range(0.5..1.5);
                    let amp = self.rng.gen_range(0.3..1.0);
                    (cx, cy, r, amp)
                })
                .collect();
            for ni in 0..n {
                let (jx, jy) = (
                    self.rng.gen_range(-1.0..1.0) * cl.batch_jitter * w as f64,
                    self.rng.gen_range(-1.0..1.0) * cl.batch_jitter * h as f64,
                );
                let img_gain = gain * self.rng.gen_range(0.7..1.3);
                for hi in 0..h {
                    for wi in 0..w {
                        let mut v = 0f64;
                        for &(cx, cy, r, amp) in &blobs {
                            let dx = wi as f64 - (cx + jx);
                            let dy = hi as f64 - (cy + jy);
                            v += amp * (-(dx * dx + dy * dy) / (2.0 * r * r)).exp();
                        }
                        v = v * img_gain + cl.noise * self.rng.gen_range(0.0..1.0);
                        let off = ((ni * c + ci) * h + hi) * w + wi;
                        field[off] = v as f32;
                    }
                }
            }
        }
        field
    }
}

/// One Gaussian activity blob: `(cx, cy, r, amp)`.
type Blob = (f64, f64, f64, f64);

/// Half-width of the interval [`ActivationGen::response_field`] certifies a
/// pixel's rounding over, relative to the plane's `Σamp`.
///
/// This comment is the whole correctness story. With `v` the defining
/// per-blob sum ([`blob_sum`]) and `s` the table sum, a pixel's value is
/// `F(v)`, `F(x) = ((x * img_gain) + z) as f32`. `F` is monotone
/// non-decreasing: `img_gain > 0`, and a rounded product by a positive
/// constant, a rounded `+ z` and the `f32` cast are each monotone. So if
/// `v ∈ [s − δ, s + δ]` and `F(s − δ)` and `F(s + δ)` are the same bits,
/// `F(v)` is those bits too.
///
/// `|v − s| ≤ Σamp · 2⁻⁴⁷`, with `u = 2⁻⁵³`, per blob of amplitude `amp`:
/// * the exponent: `a = −fl(X + Y)/D` against `a₁ + a₂ = −X/D − Y/D`
///   (`X = fl(dx²)`, `Y = fl(dy²)`, `D = 2r²`, spelled the same in both
///   forms) is one addition and three divisions apart, `|a − a₁ − a₂| ≤
///   4u·|a|`, and `|a|·eᵃ ≤ 1/e` for `a ≤ 0`, so `eᵃ` and `e^a₁·e^a₂`
///   differ by `≤ 4u/e`;
/// * three `exp` results at `≤ 2⁻⁵⁰` relative each (glibc's is within one
///   ulp, `2⁻⁵²`) on values `≤ 1`;
/// * three products at `u` each;
/// * and `blobs − 1 ≤ 3` additions in either sum at `u` on partial sums
///   `≤ Σamp`.
///
/// That is `≤ (1.5 + 24 + 3 + 6)·u·Σamp < Σamp · 2⁻⁴⁷` (results that
/// underflow add `< 2⁻¹⁰²²`, and `Σamp ≥ 0.3`). `δ = Σamp · 2⁻⁴⁰` holds it
/// with more than 100× to spare — enough for the rounding of `s ± δ`
/// itself (`≤ u·Σamp`) and for a libm hundreds of ulp worse than glibc's.
/// With no blobs `δ = 0` and `s = v = 0`.
const CERTIFICATE_REL: f64 = 1.0 / (1u64 << 40) as f64;

/// Pixels per step of [`ActivationGen::response_field`]'s row loop: the
/// table sums and both certificate ends of a chunk are fixed-width loops
/// the compiler vectorizes.
const CHUNK: usize = 8;

/// Fills `z` with one image row's noise, in pixel order. The generator is
/// copied into a local for the row and back after it, so its state stays
/// in registers across the draws.
fn draw_noise(rng: &mut StdRng, noise: f64, z: &mut [f64]) {
    let mut local = rng.clone();
    for z in z {
        *z = noise * local.gen_range(0.0..1.0);
    }
    *rng = local;
}

/// `F(s − δ)` and `F(s + δ)` of one pixel, `F(x) = ((x * img_gain) + z) as
/// f32` ([`CERTIFICATE_REL`]).
#[inline(always)]
fn certificate(s: f64, delta: f64, img_gain: f64, z: f64) -> (f32, f32) {
    (
        ((s - delta) * img_gain + z) as f32,
        ((s + delta) * img_gain + z) as f32,
    )
}

/// The definition of a pixel's blob response — the per-pixel loop's inner
/// expression, evaluated for the pixels the tables cannot certify.
fn blob_sum(blobs: &[Blob], jx: f64, jy: f64, wi: usize, hi: usize) -> f64 {
    let mut v = 0f64;
    for &(cx, cy, r, amp) in blobs {
        let dx = wi as f64 - (cx + jx);
        let dy = hi as f64 - (cy + jy);
        v += amp * (-(dx * dx + dy * dy) / (2.0 * r * r)).exp();
    }
    v
}

/// Thresholds a logical-NCHW response field at the quantile giving the
/// target density, writing the result in the requested layout.
fn threshold_to_density(field: Vec<f32>, shape: Shape4, layout: Layout, density: f64) -> Tensor {
    let len = shape.len();
    let keep = (density * len as f64).round() as usize;
    if keep == 0 {
        return Tensor::zeros(shape, layout);
    }
    let threshold = if keep >= len {
        f32::NEG_INFINITY
    } else {
        nth_smallest(&field, len - keep)
    };
    // Only rows holding a kept element are stored: the all-zero pages of a
    // sparse tensor are never touched.
    let mut out = Tensor::zeros(shape, layout);
    let (sn, sc, sh, sw) = layout.strides(shape);
    let data = out.as_mut_slice();
    let mut rows = field.chunks_exact(shape.w);
    let mut kept = 0usize;
    for ni in 0..shape.n {
        for ci in 0..shape.c {
            for hi in 0..shape.h {
                let base = ni * sn + ci * sc + hi * sh;
                let row = rows.next().expect("field has one row per (n, c, h)");
                let count = row.iter().map(|&v| u32::from(v >= threshold)).sum::<u32>() as usize;
                if count == 0 {
                    continue;
                }
                if kept + count <= keep && sw == 1 {
                    // Every element at or above the threshold is kept, so
                    // the loop below would store each one: the same stores,
                    // as a select instead of a branch.
                    for (out, &v) in data[base..][..row.len()].iter_mut().zip(row) {
                        *out = if v >= threshold {
                            v - threshold + 0.01
                        } else {
                            0.0
                        };
                    }
                    kept += count;
                    continue;
                }
                for (wi, &v) in row.iter().enumerate() {
                    // `>=` admits every exact duplicate of the threshold;
                    // `kept < keep` stops at exactly `keep` elements, in
                    // logical NCHW order whatever the layout.
                    if v >= threshold && kept < keep {
                        data[base + wi * sw] = v - threshold + 0.01;
                        kept += 1;
                    }
                }
            }
        }
    }
    out
}

/// The `rank`-th smallest value of `field` (0-based), selected on the
/// bit patterns.
///
/// From [`RADIX_MIN`] elements on, by a two-pass radix select without a
/// copy of the field: a count of the high 16 bits finds the bucket
/// holding the rank, a count of the low 16 bits inside that bucket finds
/// the value. Below it — the fully connected layers' maps, a few
/// thousand elements — the two passes over 2^16 counts cost more than
/// the field itself, and a select on a copy of the bits takes their
/// place. Both are exact, so both return the same bits.
///
/// The bits of finite `f32`s at or above `+0.0` sort as the values do,
/// and a response field holds no other: `s ≥ 0`, `img_gain > 0` and
/// `z ≥ 0`. That is asserted here, in every build.
fn nth_smallest(field: &[f32], rank: usize) -> f32 {
    if field.len() < RADIX_MIN {
        let mut bits: Vec<u32> = field.iter().map(|v| v.to_bits()).collect();
        let max = bits.iter().fold(0, |max, &b| max.max(b));
        assert!(max < f32::INFINITY.to_bits(), "{NOT_A_RESPONSE}");
        return f32::from_bits(*bits.select_nth_unstable(rank).1);
    }
    assert!(
        u32::try_from(field.len()).is_ok(),
        "a field of {} elements overflows the select's u32 counts",
        field.len()
    );
    // 2^16 counts, 256 KB: the table stays in L2. Allocated after the
    // field, as the field's tables are.
    let mut counts: Box<[u32; BUCKETS]> = vec![0u32; BUCKETS]
        .into_boxed_slice()
        .try_into()
        .expect("BUCKETS counts");
    for &v in field {
        counts[(v.to_bits() >> 16) as usize] += 1;
    }
    // `+inf`'s bucket and every one above it hold the NaNs, the infinity
    // and everything with the sign bit set, `-0.0` included.
    let above_max = (f32::INFINITY.to_bits() >> 16) as usize;
    assert!(
        counts[above_max..].iter().all(|&count| count == 0),
        "{NOT_A_RESPONSE}"
    );
    let (high, rank) = bucket_of(&counts, rank);
    counts.fill(0);
    // Few elements share the high bucket: a chunk is scanned for one (a
    // loop the compiler vectorizes) before its elements are counted.
    for chunk in field.chunks(32) {
        if chunk
            .iter()
            .fold(false, |hit, v| hit | (v.to_bits() >> 16 == high))
        {
            for &v in chunk {
                let bits = v.to_bits();
                if bits >> 16 == high {
                    counts[(bits & 0xFFFF) as usize] += 1;
                }
            }
        }
    }
    let (low, _) = bucket_of(&counts, rank);
    f32::from_bits(high << 16 | low)
}

/// Buckets of [`nth_smallest`]'s counts: one per 16-bit digit.
const BUCKETS: usize = 1 << 16;

/// Fields from this many elements on are radix-selected. Measured on
/// random non-negative values (best of 5), the radix select costs 37 ns
/// an element at 1 000 elements, 10 at 4 096 and 1.3 at 200 704, the
/// select on a copy 2.6–3.6 throughout; they cross between 16 384 and
/// 32 768.
const RADIX_MIN: usize = 1 << 14;

/// What [`nth_smallest`] panics with on a field it cannot order by bits.
const NOT_A_RESPONSE: &str = "the response field holds a NaN, an infinity or a value below +0.0";

/// The bucket holding the `rank`-th smallest counted element (0-based),
/// and that element's rank among the bucket's own.
fn bucket_of(counts: &[u32; BUCKETS], rank: usize) -> (u32, usize) {
    // Whole blocks are summed (a loop the compiler vectorizes) until the
    // one holding the rank.
    const BLOCK: usize = 64;
    let mut below = 0usize;
    for (i, block) in counts.chunks_exact(BLOCK).enumerate() {
        let total = block.iter().sum::<u32>() as usize;
        if below + total > rank {
            for (j, &count) in block.iter().enumerate() {
                if below + count as usize > rank {
                    return ((i * BLOCK + j) as u32, rank - below);
                }
                below += count as usize;
            }
        }
        below += total;
    }
    unreachable!("rank {rank} is not below the {below} elements counted")
}

/// The thresholding [`threshold_to_density`] replaced — a quantile by
/// `select_nth_unstable_by` on a copy of the field and a per-element
/// branch — kept unchanged as the oracle it is held to bit for bit.
#[cfg(test)]
fn threshold_to_density_oracle(
    field: Vec<f32>,
    shape: Shape4,
    layout: Layout,
    density: f64,
) -> Tensor {
    let len = shape.len();
    let keep = (density * len as f64).round() as usize;
    if keep == 0 {
        return Tensor::zeros(shape, layout);
    }
    let threshold = if keep >= len {
        f32::NEG_INFINITY
    } else {
        let mut sorted = field.clone();
        let idx = len - keep;
        sorted.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("field is finite"));
        sorted[idx]
    };
    let mut out = Tensor::zeros(shape, layout);
    let (sn, sc, sh, sw) = layout.strides(shape);
    let data = out.as_mut_slice();
    let mut rows = field.chunks_exact(shape.w);
    let mut kept = 0usize;
    for ni in 0..shape.n {
        for ci in 0..shape.c {
            for hi in 0..shape.h {
                let base = ni * sn + ci * sc + hi * sh;
                let row = rows.next().expect("field has one row per (n, c, h)");
                for (wi, &v) in row.iter().enumerate() {
                    if v >= threshold && kept < keep {
                        data[base + wi * sw] = v - threshold + 0.01;
                        kept += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_is_accurate() {
        let mut g = ActivationGen::seeded(1);
        for &d in &[0.0, 0.05, 0.3, 0.5, 0.8, 1.0] {
            let t = g.generate(Shape4::new(2, 8, 13, 13), Layout::Nchw, d);
            assert!(
                (t.density() - d).abs() < 0.01,
                "target {d}, got {}",
                t.density()
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = ActivationGen::seeded(99).generate(Shape4::new(1, 4, 9, 9), Layout::Nhwc, 0.4);
        let b = ActivationGen::seeded(99).generate(Shape4::new(1, 4, 9, 9), Layout::Nhwc, 0.4);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ActivationGen::seeded(1).generate(Shape4::new(1, 4, 9, 9), Layout::Nchw, 0.4);
        let b = ActivationGen::seeded(2).generate(Shape4::new(1, 4, 9, 9), Layout::Nchw, 0.4);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn layouts_hold_same_logical_data_statistics() {
        // Same seed, different layout: the raw stream differs but density
        // must match (ZVC layout-insensitivity depends on this).
        let d = 0.37;
        let shape = Shape4::new(2, 8, 11, 11);
        let a = ActivationGen::seeded(5).generate(shape, Layout::Nchw, d);
        let b = ActivationGen::seeded(5).generate(shape, Layout::Chwn, d);
        assert!((a.density() - b.density()).abs() < 1e-9);
    }

    #[test]
    fn clustered_zeros_give_longer_runs_in_nchw() {
        // Count zero-run lengths in the raw stream: NCHW must have a longer
        // mean zero run than NHWC for blob-structured data. This is the
        // micro-property behind the Fig. 11 layout sensitivity.
        let shape = Shape4::new(4, 32, 13, 13);
        let mean_zero_run = |t: &Tensor| -> f64 {
            let mut runs = Vec::new();
            let mut run = 0usize;
            for v in t.as_slice() {
                if *v == 0.0 {
                    run += 1;
                } else if run > 0 {
                    runs.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                runs.push(run);
            }
            if runs.is_empty() {
                return 0.0;
            }
            runs.iter().sum::<usize>() as f64 / runs.len() as f64
        };
        let nchw = ActivationGen::seeded(11).generate(shape, Layout::Nchw, 0.3);
        let nhwc = ActivationGen::seeded(11).generate(shape, Layout::Nhwc, 0.3);
        assert!(
            mean_zero_run(&nchw) > 1.5 * mean_zero_run(&nhwc),
            "NCHW {} vs NHWC {}",
            mean_zero_run(&nchw),
            mean_zero_run(&nhwc)
        );
    }

    #[test]
    fn fc_shapes_work() {
        let mut g = ActivationGen::seeded(3);
        let t = g.generate(Shape4::fc(8, 4096), Layout::Nchw, 0.1);
        assert!((t.density() - 0.1).abs() < 0.01);
    }

    #[test]
    fn unstructured_control_has_short_runs() {
        let shape = Shape4::new(2, 16, 13, 13);
        let g = |cl: SpatialClustering| {
            ActivationGen::with_clustering(7, cl).generate(shape, Layout::Nchw, 0.5)
        };
        let structured = g(SpatialClustering::default());
        let control = g(SpatialClustering::unstructured());
        let longest_run = |t: &Tensor| {
            let mut best = 0usize;
            let mut run = 0usize;
            for v in t.as_slice() {
                if *v == 0.0 {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 0;
                }
            }
            best
        };
        assert!(longest_run(&structured) > longest_run(&control));
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn invalid_density_rejected() {
        let _ = ActivationGen::seeded(0).generate(Shape4::new(1, 1, 2, 2), Layout::Nchw, 1.5);
    }

    /// The differential corpus: shapes (the last four are the degenerate
    /// planes — `h = 1`, `w = 1`, a wide row, FC), each with the number of
    /// seeds it gets in release and in debug.
    fn corpus() -> Vec<(Shape4, u64)> {
        [
            (Shape4::new(1, 64, 224, 224), 6, 1),
            (Shape4::new(1, 96, 55, 55), 10, 1),
            (Shape4::new(2, 24, 27, 27), 40, 4),
            (Shape4::new(1, 512, 14, 14), 40, 2),
            (Shape4::new(4, 16, 13, 13), 40, 4),
            (Shape4::new(1, 16, 1, 37), 40, 4),
            (Shape4::new(1, 16, 37, 1), 40, 4),
            (Shape4::new(1, 8, 5, 300), 40, 4),
            (Shape4::fc(4, 1000), 40, 4),
        ]
        .into_iter()
        .map(|(shape, release, debug)| {
            (
                shape,
                if cfg!(debug_assertions) {
                    debug
                } else {
                    release
                },
            )
        })
        .collect()
    }

    #[test]
    fn table_field_equals_the_per_pixel_loop_bit_for_bit() {
        let (mut pixels, mut uncertified) = (0usize, 0usize);
        for cl in [
            SpatialClustering::default(),
            SpatialClustering::unstructured(),
        ] {
            for (shape, seeds) in corpus() {
                for seed in 0..seeds {
                    let mut new = ActivationGen::with_clustering(seed, cl);
                    let mut old = new.clone();
                    let (field, fallbacks) = new.response_field(shape);
                    let oracle = old.response_field_oracle(shape);
                    let mismatches = field
                        .iter()
                        .zip(&oracle)
                        .filter(|(a, b)| a.to_bits() != b.to_bits())
                        .count();
                    assert_eq!(mismatches, 0, "{shape} seed {seed} {cl:?}");
                    // The draw order is untouched: both generators are in
                    // the same state for the next tensor.
                    assert_eq!(new.rng, old.rng, "{shape} seed {seed}");
                    if cl.blobs_per_plane == 0 {
                        assert_eq!(fallbacks, 0, "no blobs, nothing to certify");
                    } else {
                        pixels += field.len();
                        uncertified += fallbacks;
                    }
                }
            }
        }
        // The certificate certifies: a δ that sent every pixel to the
        // defining expression would still be bit-identical, and slow.
        // Reads 0.05%.
        assert!(
            uncertified * 100 <= pixels,
            "{uncertified} of {pixels} pixels took the fallback"
        );
        assert!(uncertified > 0, "the corpus never exercised the fallback");
    }

    #[test]
    fn ties_at_the_threshold_keep_the_same_logical_elements_in_every_layout() {
        // Four distinct values, so the threshold has ~50 exact duplicates
        // and `keep` cuts through the middle of them.
        let shape = Shape4::new(2, 3, 5, 7);
        let field: Vec<f32> = (0..shape.len()).map(|i| (i * 7 % 4) as f32).collect();
        let keep = 90;
        let density = keep as f64 / shape.len() as f64;
        let tensors = [Layout::Nchw, Layout::Nhwc, Layout::Chwn]
            .map(|layout| threshold_to_density(field.clone(), shape, layout, density));
        for t in &tensors {
            assert_eq!(t.as_slice().iter().filter(|v| **v != 0.0).count(), keep);
        }
        for ni in 0..shape.n {
            for ci in 0..shape.c {
                for hi in 0..shape.h {
                    for wi in 0..shape.w {
                        let v = tensors[0].get(ni, ci, hi, wi);
                        assert_eq!(v.to_bits(), tensors[1].get(ni, ci, hi, wi).to_bits());
                        assert_eq!(v.to_bits(), tensors[2].get(ni, ci, hi, wi).to_bits());
                    }
                }
            }
        }
    }

    /// Holds [`threshold_to_density`] to the oracle it replaced in the bits
    /// of every element, for `field` at every layout and each density.
    fn assert_threshold_equals_the_oracle(field: &[f32], shape: Shape4, densities: &[f64]) {
        for layout in Layout::ALL {
            for &density in densities {
                let new = threshold_to_density(field.to_vec(), shape, layout, density);
                let old = threshold_to_density_oracle(field.to_vec(), shape, layout, density);
                assert_eq!((new.shape(), new.layout()), (old.shape(), old.layout()));
                let mismatches = new
                    .as_slice()
                    .iter()
                    .zip(old.as_slice())
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count();
                assert_eq!(mismatches, 0, "{shape} {layout:?} density {density}");
            }
        }
    }

    #[test]
    fn threshold_equals_the_select_oracle_bit_for_bit() {
        // Generated fields: rows of odd widths, `w % 4 != 0`, `n > 1`,
        // the degenerate planes; `keep` at 0, 1, inside, `len − 1`, `len`.
        for (shape, seeds) in [
            (Shape4::new(2, 24, 27, 27), 3),
            (Shape4::new(4, 16, 13, 13), 3),
            (Shape4::new(1, 64, 56, 56), 1),
            (Shape4::new(1, 16, 1, 37), 3),
            (Shape4::new(1, 16, 37, 1), 3),
            (Shape4::new(2, 8, 5, 300), 3),
            (Shape4::fc(4, 1000), 3),
        ] {
            let len = shape.len() as f64;
            let densities = [
                0.0,
                1.0 / len,
                0.05,
                0.37,
                0.5,
                0.95,
                (len - 1.0) / len,
                1.0,
            ];
            for seed in 0..seeds {
                let (field, _) = ActivationGen::seeded(seed).response_field(shape);
                assert_threshold_equals_the_oracle(&field, shape, &densities);
            }
        }
        // Fields of a few values, each cut at every `keep`.
        let shape = Shape4::new(2, 3, 5, 7);
        let len = shape.len();
        let every_keep: Vec<f64> = (0..=len).map(|keep| keep as f64 / len as f64).collect();
        let from_bits = |bits: &dyn Fn(usize) -> u32| -> Vec<f32> {
            (0..len).map(|i| f32::from_bits(bits(i))).collect()
        };
        let one = 1.0f32.to_bits();
        assert_eq!(one & 0xFFFF, 0, "1.0 opens a bucket of the select");
        for field in [
            // All equal: the threshold is every element.
            vec![0.0f32; len],
            vec![0.5f32; len],
            vec![f32::MAX; len],
            // +0.0 and the smallest subnormals, all in the lowest bucket.
            from_bits(&|i| (i * 7 % 6) as u32),
            // Ties straddling a bucket boundary: the largest value below
            // 1.0 (the top of its bucket), 1.0 and the next one up.
            from_bits(&|i| one - 1 + (i * 5 % 3) as u32),
            // Both halves of the bits vary.
            from_bits(&|i| one + ((i * 37 % 11) as u32) * 0x1_0001),
        ] {
            assert_threshold_equals_the_oracle(&field, shape, &every_keep);
        }
        // The same patterns over a field the radix select takes, cut at a
        // spread of `keep`s.
        let shape = Shape4::new(1, 4, 64, 80);
        let len = shape.len();
        assert!(len >= RADIX_MIN);
        let keeps: Vec<f64> = (0..=len)
            .step_by(997)
            .chain([1, len - 1, len])
            .map(|keep| keep as f64 / len as f64)
            .collect();
        let from_bits = |bits: &dyn Fn(usize) -> u32| -> Vec<f32> {
            (0..len).map(|i| f32::from_bits(bits(i))).collect()
        };
        for field in [
            vec![0.5f32; len],
            from_bits(&|i| (i * 7 % 6) as u32),
            from_bits(&|i| one - 1 + (i * 5 % 3) as u32),
            from_bits(&|i| one + ((i * 37 % 11) as u32) * 0x1_0001),
        ] {
            assert_threshold_equals_the_oracle(&field, shape, &keeps);
        }
    }

    #[test]
    #[should_panic(expected = "holds a NaN, an infinity or a value below +0.0")]
    fn a_nan_in_the_field_panics() {
        let mut field = vec![1.0f32; 16];
        field[5] = f32::NAN;
        threshold_to_density(field, Shape4::new(1, 1, 4, 4), Layout::Nchw, 0.5);
    }

    #[test]
    #[should_panic(expected = "holds a NaN, an infinity or a value below +0.0")]
    fn a_negative_field_value_panics() {
        let mut field = vec![1.0f32; 16];
        field[9] = -1.0;
        threshold_to_density(field, Shape4::new(1, 1, 4, 4), Layout::Nchw, 0.5);
    }

    #[test]
    #[should_panic(expected = "holds a NaN, an infinity or a value below +0.0")]
    fn a_negative_value_in_a_radix_selected_field_panics() {
        let shape = Shape4::new(1, 1, 128, 128);
        assert!(shape.len() >= RADIX_MIN);
        let mut field = vec![1.0f32; shape.len()];
        field[9000] = -1.0;
        threshold_to_density(field, shape, Layout::Nchw, 0.5);
    }

    #[test]
    fn generated_tensors_are_pinned() {
        // FNV-1a 64 of `generate()`'s little-endian bytes at seed 42,
        // densities 0.05 / 0.5 / 0.95, recorded from the per-pixel loop
        // (commit f656090) — a moved bit fails here, not in a JSON hash
        // three crates downstream.
        fn fnv64(t: &Tensor) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in t.as_slice() {
                for b in v.to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        }
        use Layout::{Chwn, Nchw, Nhwc};
        let pins: [(Shape4, Layout, [u64; 3]); 9] = [
            (
                Shape4::new(2, 24, 27, 27),
                Nchw,
                [0x7a3ba91b224e9a7f, 0xd24475dd7b81f6b0, 0x275fcc0380fa65cb],
            ),
            (
                Shape4::new(2, 24, 27, 27),
                Nhwc,
                [0x4957561ba01b1703, 0x6ae50ab83c57511c, 0xd862eff47b4bcf3f],
            ),
            (
                Shape4::new(2, 24, 27, 27),
                Chwn,
                [0xe254c6f9a9924c83, 0x8971c2937b073288, 0x8091d2202cc831af],
            ),
            (
                Shape4::new(1, 512, 14, 14),
                Nchw,
                [0xec0f19830cc5b924, 0xe231496d301fbf54, 0xb51f3e4f90b117fb],
            ),
            (
                Shape4::new(1, 512, 14, 14),
                Nhwc,
                [0xef855d8ad8fae864, 0x3e8c13bce5cc74d8, 0xc767d3dd5982aa43],
            ),
            (
                Shape4::new(1, 512, 14, 14),
                Chwn,
                [0xec0f19830cc5b924, 0xe231496d301fbf54, 0xb51f3e4f90b117fb],
            ),
            (
                Shape4::fc(4, 1000),
                Nchw,
                [0xac0301810f4bc1ab, 0xa3d4cc702e7e354c, 0xdaba11d3c9a9f622],
            ),
            (
                Shape4::fc(4, 1000),
                Nhwc,
                [0xac0301810f4bc1ab, 0xa3d4cc702e7e354c, 0xdaba11d3c9a9f622],
            ),
            (
                Shape4::fc(4, 1000),
                Chwn,
                [0x763ef5aee9a19df3, 0x7d2832d026f9bffc, 0x32dfecfed2e580d6],
            ),
        ];
        for (shape, layout, hashes) in pins {
            for (density, want) in [0.05, 0.5, 0.95].into_iter().zip(hashes) {
                let t = ActivationGen::seeded(42).generate(shape, layout, density);
                assert_eq!(fnv64(&t), want, "{shape} {layout:?} density {density}");
            }
        }
    }
}
