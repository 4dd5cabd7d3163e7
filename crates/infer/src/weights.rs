//! Per-column CSC weight storage and the sparse matvec it serves.

use std::cell::RefCell;

use cdma_compress::{Compressor, Csc, CscNonzeros, Kernel};
use cdma_models::LayerSpec;

/// Accumulators a thread's matvec scratch keeps between calls: the
/// zoo's tallest FC layer (4096 rows) at batch 64, so a serving worker
/// re-allocates nothing from request to request while one outsized call
/// does not pin its buffer to the thread for good.
const SCRATCH_KEEP: usize = 4096 * 64;

/// What one thread's [`CscMatrix::matvec_batch_into`] keeps between
/// calls.
struct Scratch {
    /// The `(vector, activation)` pairs of the column being walked.
    active: Vec<(usize, f32)>,
    /// Batched accumulators, `rows x batch`.
    acc: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            active: Vec::new(),
            acc: Vec::new(),
        })
    };
}

/// A pruned FC weight matrix stored as one [`Csc`] stream per column,
/// packed back to back — EIE's weight memory. `y = W x` walks only the
/// retained entries, and the whole store is what a compressed weight
/// transfer would put on the wire.
///
/// ```
/// use cdma_infer::CscMatrix;
///
/// // W = [[1, 0], [0, 2], [0, 3]]  (3x2, row-major)
/// let w = CscMatrix::from_dense(3, 2, &[1.0, 0.0, 0.0, 2.0, 0.0, 3.0]);
/// assert_eq!(w.column_nonzeros(1).collect::<Vec<_>>(), [(1, 2.0), (2, 3.0)]);
/// assert_eq!(w.matvec(&[10.0, 100.0]), vec![10.0, 200.0, 300.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// All column streams, back to back.
    bytes: Vec<u8>,
    /// `cols + 1` byte offsets into `bytes`.
    col_offsets: Vec<usize>,
}

impl CscMatrix {
    /// Compresses a dense row-major `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not `rows * cols` long or a dimension is
    /// zero.
    // pub: differential.rs builds its matrices from dense ones
    pub fn from_dense(rows: usize, cols: usize, dense: &[f32]) -> Self {
        assert_eq!(dense.len(), rows * cols, "dense slice must be rows*cols");
        let mut col = vec![0.0f32; rows];
        Self::from_columns(rows, cols, |c, out| {
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = dense[r * cols + c];
            }
            out.copy_from_slice(&col);
        })
    }

    /// Builds the store column by column: `fill(c, out)` writes column
    /// `c` into the `rows`-long scratch slice. Columns stream straight
    /// into the compressor, so a matrix far larger than its dense form
    /// never materializes densely (the zoo's 100 MB FC layers compress
    /// from a single reused column buffer).
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension.
    // pub: differential.rs builds its matrices column by column
    pub fn from_columns(rows: usize, cols: usize, mut fill: impl FnMut(usize, &mut [f32])) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let csc = Csc::new();
        let mut scratch = vec![0.0f32; rows];
        let mut bytes = Vec::new();
        let mut col_offsets = Vec::with_capacity(cols + 1);
        col_offsets.push(0);
        for c in 0..cols {
            fill(c, &mut scratch);
            csc.compress_append(&scratch, &mut bytes);
            col_offsets.push(bytes.len());
        }
        CscMatrix {
            rows,
            cols,
            bytes,
            col_offsets,
        }
    }

    /// A synthetic pruned matrix: each weight survives with probability
    /// `density` and draws a signed value from a seeded stream — pure
    /// function of `(rows, cols, density, seed)`, mirroring
    /// `cdma_serve::fill_activations` for weights.
    pub fn synth(rows: usize, cols: usize, density: f64, seed: u64) -> Self {
        Self::from_columns(rows, cols, |c, out| {
            fill_weights(column_seed(seed, c), density, out)
        })
    }

    /// Output features (matrix rows / result length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input features (matrix columns / input length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The CSC stream of column `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of range.
    pub fn column(&self, c: usize) -> &[u8] {
        &self.bytes[self.col_offsets[c]..self.col_offsets[c + 1]]
    }

    /// Iterates column `c`'s retained `(row, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of range (the stream itself was produced
    /// by this store, so re-parsing it cannot fail).
    pub fn column_nonzeros(&self, c: usize) -> CscNonzeros<'_> {
        Csc::nonzeros(self.column(c)).expect("self-produced CSC stream parses")
    }

    /// Total compressed weight bytes: every column stream plus the EIE
    /// column-pointer table (`cols + 1` four-byte entries).
    pub fn compressed_bytes(&self) -> u64 {
        self.bytes.len() as u64 + 4 * (self.cols as u64 + 1)
    }

    /// Bytes of the dense `f32` form.
    pub fn dense_bytes(&self) -> u64 {
        4 * self.rows as u64 * self.cols as u64
    }

    /// Dense-to-compressed size ratio.
    pub fn ratio(&self) -> f64 {
        self.dense_bytes() as f64 / self.compressed_bytes() as f64
    }

    /// Decompresses back to the dense row-major form (the round-trip
    /// oracle; bit-exact).
    // pub: the infer bench's dense baseline (crates/bench/benches/infer.rs)
    pub fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0f32; self.rows * self.cols];
        for c in 0..self.cols {
            for (r, v) in self.column_nonzeros(c) {
                dense[r * self.cols + c] = v;
            }
        }
        dense
    }

    /// `y = W x` over the compressed store, appending nothing: `y` is
    /// cleared and resized to [`CscMatrix::rows`]. Zero activations are
    /// skipped exactly (their column contributes nothing). The
    /// batch-of-one call of [`CscMatrix::matvec_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics unless `x.len()` equals [`CscMatrix::cols`].
    // pub: the infer bench's vector-at-a-time bar (crates/bench/benches/infer.rs)
    pub fn matvec_into(&self, x: &[f32], y: &mut Vec<f32>) {
        assert_eq!(x.len(), self.cols, "input length must match columns");
        self.matvec_batch_into(x, y);
    }

    /// `Y = W X` for a batch: `xs` holds whole activation vectors of
    /// [`CscMatrix::cols`] elements back to back, `ys` is cleared and
    /// resized to one [`CscMatrix::rows`]-long result per vector, in
    /// the same order.
    ///
    /// A column's stream is walked **once per call**, not once per
    /// vector: the vectors whose activation in that column is non-zero
    /// are gathered first and every retained weight is applied to all
    /// of them — EIE's broadcast, where one fetched weight column is
    /// shared by every consumer of the activation. A column no vector
    /// activates is not walked at all. Per `(vector, row)` the products
    /// are the same `w * a` and arrive in the same ascending column
    /// order as in a vector-at-a-time loop, so every output is
    /// bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics unless `xs.len()` is a multiple of [`CscMatrix::cols`].
    pub fn matvec_batch_into(&self, xs: &[f32], ys: &mut Vec<f32>) {
        let (rows, cols) = (self.rows, self.cols);
        assert!(
            xs.len().is_multiple_of(cols),
            "input must be whole activation vectors"
        );
        let batch = xs.len() / cols;
        ys.clear();
        ys.resize(batch * rows, 0.0);
        SCRATCH.with_borrow_mut(|Scratch { active, acc }| {
            if batch == 1 {
                // One vector is already in accumulator order.
                self.accumulate(xs, 1, active, ys);
            } else {
                acc.clear();
                acc.resize(batch * rows, 0.0);
                self.accumulate(xs, batch, active, acc);
                for (b, y) in ys.chunks_exact_mut(rows).enumerate() {
                    for (slot, row) in y.iter_mut().zip(acc.chunks_exact(batch)) {
                        *slot = row[b];
                    }
                }
                acc.shrink_to(SCRATCH_KEEP);
            }
        });
    }

    /// The one walk over the weight streams: adds `W X` into `acc`,
    /// which is row-major over the batch (`acc[r * batch + b]`) so that
    /// one retained weight updates neighbouring words instead of
    /// `batch` words a whole result vector apart.
    fn accumulate(
        &self,
        xs: &[f32],
        batch: usize,
        active: &mut Vec<(usize, f32)>,
        acc: &mut [f32],
    ) {
        for c in 0..self.cols {
            active.clear();
            active.extend(
                xs.iter()
                    .skip(c)
                    .step_by(self.cols)
                    .enumerate()
                    .filter(|(_, &a)| a != 0.0)
                    .map(|(b, &a)| (b, a)),
            );
            if active.is_empty() {
                continue;
            }
            self.column_nonzeros(c).for_each(|(r, w)| {
                let row = &mut acc[r * batch..(r + 1) * batch];
                for &(b, a) in active.iter() {
                    row[b] += w * a;
                }
            });
        }
    }

    /// Allocating form of [`CscMatrix::matvec_into`].
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        self.matvec_into(x, &mut y);
        y
    }

    /// Deep-compression weight sharing: quantizes the retained values to
    /// at most `levels` uniformly spaced centroids and re-encodes every
    /// column. With `levels <= 256` the per-column streams switch to
    /// codebook payloads whenever that is smaller, which is the point —
    /// EIE stores 4-bit codebook indices for exactly this reason.
    /// Centroids that would collide with the zero bit pattern are nudged
    /// to the smallest positive value so the pruned structure (and every
    /// nnz count) is preserved.
    ///
    /// # Panics
    ///
    /// Panics when `levels` is zero.
    pub fn quantized(&self, levels: usize) -> CscMatrix {
        assert!(levels > 0, "need at least one quantization level");
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for c in 0..self.cols {
            for (_, v) in self.column_nonzeros(c) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if lo > hi {
            // No retained weights at all: nothing to quantize.
            return self.clone();
        }
        let step = ((hi - lo) as f64 / levels as f64).max(f64::MIN_POSITIVE);
        let quantize = |v: f32| -> f32 {
            let k = (((v - lo) as f64 / step) as usize).min(levels - 1);
            let q = (lo as f64 + (k as f64 + 0.5) * step) as f32;
            if q.to_bits() == 0 {
                f32::MIN_POSITIVE
            } else {
                q
            }
        };
        let mut scratch = vec![0.0f32; self.rows];
        Self::from_columns(self.rows, self.cols, |c, out| {
            scratch.iter_mut().for_each(|v| *v = 0.0);
            for (r, v) in self.column_nonzeros(c) {
                scratch[r] = quantize(v);
            }
            out.copy_from_slice(&scratch);
        })
    }
}

/// Mixes a per-column seed out of the matrix seed, so any column can be
/// regenerated independently (the analytic traffic sweeps regenerate
/// columns without building a store).
pub fn column_seed(seed: u64, col: usize) -> u64 {
    seed ^ (col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Fills `out` with synthetic pruned weights: a `density` fraction of
/// signed nonzero values, the rest exact zeros. Pure function of
/// `(seed, density, out.len())`.
///
/// Each word is built without a branch: the magnitude's bits, or-ed
/// with the draw's sign bit moved to bit 31, and-ed with an all-ones
/// mask when the draw survives the density cut (an all-zero one, `+0.0`,
/// when it does not). The cut and the sign are random per word, so a
/// branch on either mispredicts often.
///
/// The loop runs through [`Kernel::run`], so it is compiled for the
/// active ZVC tier and vectorizes at that tier's width (one splitmix64
/// draw per lane); `CDMA_ZVC_KERNEL=portable` runs it at the baseline
/// width. Every step is integer apart from an exact conversion of a
/// 17-bit integer to `f32` and a divide by 2¹⁶, so every tier writes
/// the same bits.
pub fn fill_weights(seed: u64, density: f64, out: &mut [f32]) {
    Kernel::active().run(|| fill_weights_body(seed, density, out))
}

/// [`fill_weights`]'s one loop, inlined into each tier's entry.
#[inline(always)]
fn fill_weights_body(seed: u64, density: f64, out: &mut [f32]) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        // splitmix64
        let mut z = state;
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let threshold = (density * (1u64 << 53) as f64) as u64;
    for slot in out.iter_mut() {
        let r = next() >> 11;
        // Signed weight in [-1, 1] \ {0}, kept below the threshold. The
        // 17-bit integer converts exactly, through `i32` so that every
        // vector width has the conversion.
        let mag = (((r & 0xFFFF) + 1) as i32 as f32) / 65536.0;
        let sign = ((r & 0x1_0000) as u32) << 15;
        let keep = u32::from(r < threshold).wrapping_neg();
        *slot = f32::from_bits((mag.to_bits() | sign) & keep);
    }
}

/// The weight-matrix dimensions `(rows, cols)` of a zoo FC layer —
/// `rows` its output features, `cols` its input features (recovered
/// from the parameter count, which includes one bias per output).
/// `None` for non-FC layers.
pub fn fc_weight_dims(layer: &LayerSpec) -> Option<(usize, usize)> {
    if !layer.is_fc() {
        return None;
    }
    let rows = layer.out.per_image();
    let cols = (layer.params / rows as u64) as usize - 1;
    Some((rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_models::zoo;

    #[test]
    fn roundtrips_dense_bit_for_bit() {
        let rows = 37;
        let cols = 23;
        let mut dense = vec![0.0f32; rows * cols];
        fill_weights(99, 0.3, &mut dense);
        dense[5] = -0.0; // retained: nonzero bit pattern
        dense[40] = f32::from_bits(0x7FC0_1234); // NaN payload
        let m = CscMatrix::from_dense(rows, cols, &dense);
        let back = m.to_dense();
        assert_eq!(back.len(), dense.len());
        for (a, b) in back.iter().zip(&dense) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matvec_matches_dense_oracle() {
        let rows = 64;
        let cols = 48;
        let m = CscMatrix::synth(rows, cols, 0.2, 7);
        let dense = m.to_dense();
        let mut x = vec![0.0f32; cols];
        fill_weights(13, 0.5, &mut x);
        let y = m.matvec(&x);
        for r in 0..rows {
            let want: f32 = (0..cols).map(|c| dense[r * cols + c] * x[c]).sum();
            assert!((y[r] - want).abs() <= 1e-6 * want.abs().max(1.0));
        }
    }

    #[test]
    fn sparse_store_is_much_smaller() {
        let m = CscMatrix::synth(512, 512, 0.1, 3);
        assert!(
            m.ratio() > 6.0,
            "10% density compresses ~8x, got {}",
            m.ratio()
        );
        let dense = CscMatrix::synth(512, 512, 1.0, 3);
        assert!(dense.ratio() < 1.0, "fully dense CSC carries overhead");
    }

    #[test]
    fn quantization_bounds_error_and_shrinks_store() {
        let m = CscMatrix::synth(128, 96, 0.25, 11);
        let q = m.quantized(16);
        let rows_of = |m: &CscMatrix| -> Vec<Vec<usize>> {
            (0..m.cols())
                .map(|c| m.column_nonzeros(c).map(|(r, _)| r).collect())
                .collect()
        };
        assert_eq!(
            rows_of(&q),
            rows_of(&m),
            "quantization must preserve structure"
        );
        assert!(
            q.compressed_bytes() < m.compressed_bytes(),
            "16 shared values switch columns to codebook payloads"
        );
        // Uniform quantization error is bounded by half a step.
        let (dm, dq) = (m.to_dense(), q.to_dense());
        let step = 2.0 / 16.0; // values span at most [-1, 1]
        for (a, b) in dm.iter().zip(&dq) {
            assert!((a - b).abs() <= step, "|{a} - {b}| > {step}");
        }
    }

    #[test]
    fn column_regeneration_matches_store() {
        let (rows, cols, density, seed) = (40, 17, 0.3, 21);
        let m = CscMatrix::synth(rows, cols, density, seed);
        let mut col = vec![0.0f32; rows];
        for c in 0..cols {
            fill_weights(column_seed(seed, c), density, &mut col);
            let nz: Vec<(usize, f32)> = m.column_nonzeros(c).collect();
            let want: Vec<(usize, f32)> = col
                .iter()
                .enumerate()
                .filter(|(_, v)| v.to_bits() != 0)
                .map(|(r, &v)| (r, v))
                .collect();
            assert_eq!(nz, want);
        }
    }

    /// The branchy loop `fill_weights` replaced: a zero above the
    /// density cut, else the magnitude negated on the draw's sign bit.
    fn fill_weights_branchy(seed: u64, density: f64, out: &mut [f32]) {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            let mut z = state;
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let threshold = (density * (1u64 << 53) as f64) as u64;
        for slot in out.iter_mut() {
            let r = next() >> 11;
            *slot = if r >= threshold {
                0.0
            } else {
                let mag = (((r & 0xFFFF) + 1) as f32) / 65536.0;
                if r & 0x1_0000 == 0 {
                    mag
                } else {
                    -mag
                }
            };
        }
    }

    #[test]
    fn fill_weights_equals_the_branchy_loop_in_bits() {
        // `fill_weights`, its plain body, and the body run at every tier
        // this CPU supports, against the branchy loop. Lengths 0–67 cross
        // every vector width's remainder loop; 1024 and 4099 run the
        // vector body long. Offset 1 starts the slice one word into the
        // buffer, off the allocation's alignment; nothing past the slice
        // may be written.
        let lens: Vec<usize> = (0..=67).chain([1024, 4099]).collect();
        let mut want = vec![0.0f32; 4101];
        let mut got = vec![0.0f32; 4101];
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        for density in [0.0, 0.1, 0.3, 0.5, 0.6, 1.0] {
            for s in 0..200u64 {
                let seed = s.wrapping_mul(0xD1B5_4A32_D192_ED03);
                for &len in &lens {
                    for off in [0, 1] {
                        let (slice, end) = (off..off + len, off + len + 1);
                        let case = (density, seed, len, off);
                        want[..end].fill(-2.0);
                        fill_weights_branchy(seed, density, &mut want[slice.clone()]);
                        got[..end].fill(-2.0);
                        fill_weights(seed, density, &mut got[slice.clone()]);
                        assert!(same(&got[..end], &want[..end]), "fill_weights, {case:?}");
                        got[..end].fill(-2.0);
                        fill_weights_body(seed, density, &mut got[slice.clone()]);
                        assert!(same(&got[..end], &want[..end]), "plain body, {case:?}");
                        for k in Kernel::supported() {
                            got[..end].fill(-2.0);
                            k.run(|| fill_weights_body(seed, density, &mut got[slice.clone()]));
                            assert!(
                                same(&got[..end], &want[..end]),
                                "{} tier, {case:?}",
                                k.tier()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zoo_fc_dims_recover_known_shapes() {
        let alexnet = zoo::alexnet();
        let dims: Vec<(usize, usize)> =
            alexnet.layers().iter().filter_map(fc_weight_dims).collect();
        assert_eq!(dims, vec![(4096, 9216), (4096, 4096), (1000, 4096)]);
        for net in zoo::all_networks() {
            for layer in net.layers().iter().filter(|l| l.is_fc()) {
                let (rows, cols) = fc_weight_dims(layer).unwrap();
                assert_eq!(((cols + 1) * rows) as u64, layer.params);
            }
        }
    }
}
