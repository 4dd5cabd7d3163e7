//! Differential suite: the CSC weight store and the serve-pool kernel
//! against independent reimplementations.
//!
//! Four pins:
//!
//! 1. **Byte identity** — every [`CscMatrix`] column is bit-for-bit the
//!    stream the raw [`Csc`] codec emits for the same dense column, and
//!    decompressing it recovers the dense column exactly, across the
//!    model zoo's FC layer shapes x densities.
//! 2. **Matvec** — the sparse matvec agrees within 1e-6 with an
//!    independently-written dense oracle (different loop order, f64
//!    accumulation), and the PE workload slicing conserves every
//!    column's nonzeros at every PE count.
//! 3. **Batching** — [`CscMatrix::matvec_batch_into`] equals, bit for
//!    bit, the vector-at-a-time loop it replaced (kept here as the
//!    oracle) across batch sizes, weight densities and activation
//!    densities, and on the inputs where the zero skip shows.
//! 4. **Pool sharing** — an inference tenant and a compress tenant run
//!    through the same virtual-time server, and the run is a pure
//!    function of the seed (rerun bit-identical).

use cdma_compress::{Algorithm, Compressor, Csc};
use cdma_infer::{column_seed, fc_weight_dims, fill_weights, CscMatrix, InferKernel, PeWorkload};
use cdma_models::zoo;
use cdma_serve::{run_virtual_with_kernel, ServerConfig, ServiceModel, TenantLoad, TenantSpec};

const DENSITIES: [f64; 2] = [0.05, 0.25];
const PE_COUNTS: [usize; 3] = [8, 33, 64];
/// Columns sampled per layer (full row count is kept; columns are
/// independent, so a strided sample exercises the same code paths as the
/// full layer at a fraction of the cost).
const SAMPLE_COLS: usize = 64;

/// Every distinct FC weight shape in the zoo.
fn zoo_fc_shapes() -> Vec<(usize, usize)> {
    let mut shapes = Vec::new();
    for net in zoo::all_networks() {
        for layer in net.layers() {
            if let Some(shape) = fc_weight_dims(layer) {
                if !shapes.contains(&shape) {
                    shapes.push(shape);
                }
            }
        }
    }
    assert!(!shapes.is_empty(), "the zoo must have FC layers");
    shapes
}

/// The sampled column indices of a `cols`-wide layer.
fn sampled(cols: usize) -> Vec<usize> {
    let stride = (cols / SAMPLE_COLS.min(cols)).max(1);
    (0..cols).step_by(stride).take(SAMPLE_COLS).collect()
}

/// An independent dense matvec: row-major weights, per-row f64
/// accumulation — the opposite loop order and a wider accumulator than
/// `CscMatrix::matvec`.
fn oracle_matvec(rows: usize, cols: usize, w: &[f32], x: &[f32]) -> Vec<f32> {
    (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| w[r * cols + c] as f64 * x[c] as f64)
                .sum::<f64>() as f32
        })
        .collect()
}

#[test]
fn csc_streams_are_byte_identical_with_the_raw_codec_across_the_zoo() {
    let csc = Csc::new();
    for (shape_i, &(rows, cols)) in zoo_fc_shapes().iter().enumerate() {
        for (d_i, &density) in DENSITIES.iter().enumerate() {
            let seed = 0xD1F + (shape_i as u64) * 31 + d_i as u64;
            let picked = sampled(cols);
            let matrix = CscMatrix::from_columns(rows, picked.len(), |i, col| {
                fill_weights(column_seed(seed, picked[i]), density, col);
            });
            let mut dense_col = vec![0.0f32; rows];
            let mut stream = Vec::new();
            let mut recovered = Vec::new();
            for (i, &c) in picked.iter().enumerate() {
                fill_weights(column_seed(seed, c), density, &mut dense_col);
                csc.compress_into(&dense_col, &mut stream);
                assert_eq!(
                    matrix.column(i),
                    &stream[..],
                    "{rows}x{cols} @ {density}: column {c} stream diverged"
                );
                csc.decompress_into(&stream, rows, &mut recovered)
                    .expect("self-produced stream decodes");
                // Bit-for-bit, not approximate: the store must round-trip
                // payload bit patterns exactly.
                let want: Vec<u32> = dense_col.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u32> = recovered.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, want,
                    "{rows}x{cols} @ {density}: column {c} round trip"
                );
            }
        }
    }
}

#[test]
fn sparse_matvec_matches_the_dense_oracle_across_the_zoo() {
    for (shape_i, &(rows, cols)) in zoo_fc_shapes().iter().enumerate() {
        for (d_i, &density) in DENSITIES.iter().enumerate() {
            let seed = 0xAB5 + (shape_i as u64) * 37 + d_i as u64;
            let picked = sampled(cols);
            let n = picked.len();
            let matrix = CscMatrix::from_columns(rows, n, |i, col| {
                fill_weights(column_seed(seed, picked[i]), density, col);
            });
            // Row-major dense copy built independently of `to_dense`.
            let mut w = vec![0.0f32; rows * n];
            let mut col = vec![0.0f32; rows];
            for (i, &c) in picked.iter().enumerate() {
                fill_weights(column_seed(seed, c), density, &mut col);
                for (r, &v) in col.iter().enumerate() {
                    w[r * n + i] = v;
                }
            }
            let mut x = vec![0.0f32; n];
            fill_weights(seed ^ 0xFEED, 0.5, &mut x);
            let got = matrix.matvec(&x);
            let want = oracle_matvec(rows, n, &w, &x);
            for r in 0..rows {
                assert!(
                    (got[r] - want[r]).abs() <= 1e-6 * want[r].abs().max(1.0),
                    "{rows}x{cols} @ {density}: y[{r}] = {} vs oracle {}",
                    got[r],
                    want[r]
                );
            }
            // The PE slicing conserves every column's nonzeros at every
            // array width.
            for &pes in &PE_COUNTS {
                let workload = PeWorkload::from_matrix(&matrix, pes);
                for c in 0..n {
                    let sliced: u32 = (0..pes).map(|k| workload.col_pe_nnz(c, k)).sum();
                    assert_eq!(
                        sliced as usize,
                        matrix.column_nonzeros(c).count(),
                        "{rows}x{cols} @ {density}, {pes} PEs: column {c} lost weights"
                    );
                }
            }
        }
    }
}

/// The matvec `CscMatrix` shipped before the batched walker, one vector
/// at a time: every active column re-walked per vector, entry by entry
/// through `next()` (a `for` loop never takes the iterator's `fold`).
fn per_vector_oracle(matrix: &CscMatrix, xs: &[f32]) -> Vec<f32> {
    let mut ys = Vec::new();
    for x in xs.chunks_exact(matrix.cols()) {
        let mut y = vec![0.0f32; matrix.rows()];
        for (c, &a) in x.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (r, w) in matrix.column_nonzeros(c) {
                y[r] += w * a;
            }
        }
        ys.extend_from_slice(&y);
    }
    ys
}

fn assert_batch_equals_oracle(matrix: &CscMatrix, xs: &[f32], ys: &mut Vec<f32>, what: &str) {
    matrix.matvec_batch_into(xs, ys);
    let want = per_vector_oracle(matrix, xs);
    assert_eq!(ys.len(), want.len(), "{what}: output length");
    for (i, (got, want)) in ys.iter().zip(&want).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: vector {} row {}: {got} vs {want}",
            i / matrix.rows(),
            i % matrix.rows()
        );
    }
}

#[test]
fn batched_matvec_equals_the_per_vector_oracle_bit_for_bit() {
    const BATCHES: [usize; 4] = [1, 2, 7, 32];
    const ACT_ZERO_DENSITIES: [f64; 3] = [0.0, 0.7, 1.0];
    // One output buffer throughout: results of different shapes land in
    // it back to back, so a stale word would show.
    let mut ys = Vec::new();
    for (shape_i, &(rows, cols)) in zoo_fc_shapes().iter().enumerate() {
        for (d_i, &density) in DENSITIES.iter().enumerate() {
            let seed = 0xBA7 + (shape_i as u64) * 41 + d_i as u64;
            let picked = sampled(cols);
            let n = picked.len();
            let matrix = CscMatrix::from_columns(rows, n, |i, col| {
                fill_weights(column_seed(seed, picked[i]), density, col);
            });
            for batch in BATCHES {
                for zeros in ACT_ZERO_DENSITIES {
                    // Signed activations, `zeros` of them exactly zero.
                    let mut xs = vec![0.0f32; batch * n];
                    fill_weights(seed ^ batch as u64, 1.0 - zeros, &mut xs);
                    let what =
                        format!("{rows}x{cols} @ {density}, batch {batch}, {zeros} zero acts");
                    assert_batch_equals_oracle(&matrix, &xs, &mut ys, &what);
                }
            }
        }
    }
}

#[test]
fn batched_matvec_keeps_the_zero_skip_exactly() {
    let (rows, cols, batch) = (48, 40, 5);
    let mut dense = vec![0.0f32; rows * cols];
    fill_weights(0x5C1, 0.3, &mut dense);
    // Weights whose product with a zero is not a zero: a column that is
    // skipped must stay skipped, per vector.
    dense[3 * cols + 7] = f32::INFINITY;
    dense[9 * cols + 7] = f32::from_bits(0x7FC0_1234);
    dense[5 * cols + 11] = f32::NEG_INFINITY;
    dense[6 * cols + 11] = -0.0; // a retained weight
    for r in 0..rows {
        dense[r * cols + 20] = 0.0; // an all-zero weight column
    }
    let matrix = CscMatrix::from_dense(rows, cols, &dense);
    assert_eq!(matrix.column_nonzeros(20).count(), 0);

    let mut xs = vec![0.0f32; batch * cols];
    fill_weights(0xAC7, 0.6, &mut xs);
    for b in 0..batch {
        let x = &mut xs[b * cols..(b + 1) * cols];
        // Column 7: some vectors hold +0.0, some -0.0, one is active.
        x[7] = [0.0, -0.0, 0.5, -0.0, 0.0][b];
        // Column 11: -0.0 everywhere but one vector.
        x[11] = if b == 3 { -2.0 } else { -0.0 };
        x[13] = 0.0; // a column no vector activates
        x[20] = 1.0 + b as f32; // every vector activates the empty column
    }
    let mut ys = Vec::new();
    assert_batch_equals_oracle(&matrix, &xs, &mut ys, "specials");
    // The skip is per vector: only the vectors that activate column 7 see
    // its infinity.
    for b in 0..batch {
        assert_eq!(ys[b * rows + 3].is_infinite(), b == 2, "vector {b}");
        assert_eq!(ys[b * rows + 9].is_nan(), b == 2, "vector {b}");
        assert_eq!(ys[b * rows + 5].is_infinite(), b == 3, "vector {b}");
    }

    // Codebook-mode streams go through the same walk.
    let shared = CscMatrix::synth(96, 64, 0.25, 17).quantized(16);
    assert!(
        (0..shared.cols()).any(|c| shared.column(c)[4] == 1),
        "16 shared values switch columns to codebook payloads"
    );
    let mut xs = vec![0.0f32; 7 * shared.cols()];
    fill_weights(0xC0DE, 0.3, &mut xs);
    assert_batch_equals_oracle(&shared, &xs, &mut ys, "quantized(16)");
    // A batch of none is a result of none.
    assert_batch_equals_oracle(&shared, &[], &mut ys, "empty batch");
    assert!(ys.is_empty());
}

#[test]
#[should_panic(expected = "whole activation vectors")]
fn ragged_batch_input_panics() {
    let matrix = CscMatrix::synth(8, 6, 0.5, 1);
    matrix.matvec_batch_into(&[1.0; 13], &mut Vec::new());
}

#[test]
fn infer_and_compress_tenants_share_one_pool_deterministically() {
    let (rows, cols) = (96, 128);
    let kernel = InferKernel::new(CscMatrix::synth(rows, cols, 0.1, 11));
    let cfg = ServerConfig {
        algorithm: Algorithm::Csc,
        ..ServerConfig::default()
    };
    let loads = vec![
        TenantLoad::new(TenantSpec::new("infer").weight(2.0), 30_000.0)
            .size_mix(vec![(cols, 1.0)])
            .inference(rows as u32),
        TenantLoad::new(TenantSpec::new("trainer"), 30_000.0),
    ];
    let run = || run_virtual_with_kernel(&cfg, &loads, 0.004, 7, ServiceModel::default(), &kernel);
    let report = run();
    for t in &report.tenants {
        assert!(t.counters.completed > 0, "{} starved", t.name);
        assert_eq!(t.counters.accepted, t.counters.completed, "{}", t.name);
        assert!(
            t.counters.wire_bytes < t.counters.uncompressed_bytes,
            "{} moved more than dense",
            t.name
        );
    }
    let again = run();
    assert_eq!(
        report.deterministic_summary_json(),
        again.deterministic_summary_json(),
        "virtual-time serving must be a pure function of the seed"
    );
    assert_eq!(report.latency_json(), again.latency_json());
}
