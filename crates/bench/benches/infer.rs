//! The compressed-sparse inference engine as a bench target: real
//! wall-clock matvec throughput, the cycle-level PE-array speedups, and
//! the serving-path determinism check.
//!
//! ```text
//! cargo bench -p cdma-bench --bench infer                 # full run
//! cargo bench -p cdma-bench --bench infer -- --fast       # CI smoke
//! ```
//!
//! Acceptance bars asserted here:
//! * the CSC matvec at 10% weight density beats a straight dense matvec
//!   loop by ≥ 2× wall-clock (the analytic bound is ~10×; the bar leaves
//!   room for noisy CI runners);
//! * one batch-32 call beats 32 dense loops by ≥ 8×: every weight column
//!   is walked once per call, not once per vector (a vector-at-a-time
//!   kernel reads the single-matvec speedup here, 3–4×);
//! * the simulated 16-PE array with activation skipping beats its dense
//!   schedule by ≥ 5× at 10% weights × 30% acts;
//! * the virtual-time serving run (InferKernel next to a compress
//!   tenant) replays bit-identically.
//!
//! The exact values it prints at full size (the PE array's speedups and
//! imbalance, the serving run's infer ratio and completed count) are
//! pinned in bits by `crates/infer/tests/bench_pins.rs`.

use std::time::Instant;

use cdma_compress::Algorithm;
use cdma_infer::{CscMatrix, InferKernel, PeArray, PeWorkload};
use cdma_serve::{
    fill_activations, run_virtual_with_kernel, ServerConfig, ServiceModel, TenantLoad, TenantSpec,
};

/// Whether `--fast` was passed (the CI smoke size).
fn parse_fast() -> bool {
    let mut fast = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--fast" => fast = true,
            "--bench" => {} // passed by `cargo bench`
            other => panic!("unknown flag {other:?}"),
        }
    }
    fast
}

const SEED: u64 = 42;
const DENSITY: f64 = 0.1;
/// Vectors in the batched call — `fig_inference`'s batched serving phase.
const BATCH: usize = 32;

/// Times `f` for at least `budget_s` seconds, returning seconds/call.
fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    // Warm up once so the first-touch cost is off the clock.
    f();
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_s {
            return elapsed / calls as f64;
        }
    }
}

fn main() {
    let fast = parse_fast();
    let (rows, cols) = if fast { (512, 512) } else { (1024, 1024) };
    let budget = if fast { 0.05 } else { 0.3 };

    let matrix = CscMatrix::synth(rows, cols, DENSITY, SEED);
    let dense = matrix.to_dense();
    let mut x = vec![0.0f32; cols];
    fill_activations(SEED ^ 0xA11, 0.7, &mut x);

    // --- Wall-clock matvec: straight dense loop vs the CSC store.
    let mut y_dense = vec![0.0f32; rows];
    let dense_s = time_per_call(budget, || {
        for (r, y) in y_dense.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (c, &xv) in x.iter().enumerate() {
                acc += dense[r * cols + c] * xv;
            }
            *y = acc;
        }
    });
    let mut y_csc = Vec::new();
    let csc_s = time_per_call(budget, || matrix.matvec_into(&x, &mut y_csc));
    let mut xs = vec![0.0f32; BATCH * cols];
    fill_activations(SEED ^ 0xBA7C, 0.7, &mut xs);
    let mut ys = Vec::new();
    let batch_s = time_per_call(budget, || matrix.matvec_batch_into(&xs, &mut ys));
    let weight_gb = (rows * cols * 4) as f64 / 1e9;
    let wall_speedup = dense_s / csc_s;
    let batch_speedup = BATCH as f64 * dense_s / batch_s;
    println!(
        "matvec {rows}x{cols} @ {:.0}% weights ({:.1}% acts nonzero):",
        DENSITY * 100.0,
        100.0 * x.iter().filter(|v| **v != 0.0).count() as f64 / cols as f64
    );
    println!(
        "  dense loop  {:>9.1} us/call  ({:.1} GB/s of weights)",
        dense_s * 1e6,
        weight_gb / dense_s
    );
    println!(
        "  csc store   {:>9.1} us/call  ({:.1} GB/s dense-equivalent, {:.1}x)",
        csc_s * 1e6,
        weight_gb / csc_s,
        wall_speedup
    );
    println!(
        "  csc batch   {:>9.1} us/call  ({BATCH} vectors, {:.1} us each, {:.1}x)",
        batch_s * 1e6,
        batch_s * 1e6 / BATCH as f64,
        batch_speedup
    );
    assert!(
        wall_speedup >= 2.0,
        "CSC matvec only {wall_speedup:.2}x faster than the dense loop"
    );
    assert!(
        batch_speedup >= 8.0,
        "batch-{BATCH} CSC matvec only {batch_speedup:.2}x faster than {BATCH} dense loops"
    );

    // --- Simulated PE array: dense schedule vs CSC vs CSC + LNZD.
    let pes = 16;
    let arr = PeArray::new(pes);
    let workload = PeWorkload::from_matrix(&matrix, pes);
    let csc_t = arr.run(&workload, &x, false);
    let act_t = arr.run(&workload, &x, true);
    let dense_cycles = arr.dense_cycles(rows, cols);
    let pe_speedup = dense_cycles as f64 / act_t.cycles.max(1) as f64;
    println!(
        "{pes}-PE array: dense {dense_cycles} cycles, csc {} ({:.1}x), csc+act {} ({:.1}x, imbalance {:.2}x)",
        csc_t.cycles,
        dense_cycles as f64 / csc_t.cycles.max(1) as f64,
        act_t.cycles,
        pe_speedup,
        act_t.load_imbalance()
    );
    assert!(
        pe_speedup >= 5.0,
        "PE-array speedup only {pe_speedup:.2}x at 10% weights"
    );

    // --- Serving determinism: the kernel on the shared virtual pool.
    let kernel = InferKernel::new(matrix);
    let cfg = ServerConfig {
        algorithm: Algorithm::Csc,
        ..ServerConfig::default()
    };
    let loads = vec![
        TenantLoad::new(TenantSpec::new("infer").weight(2.0), 20_000.0)
            .size_mix(vec![(cols, 1.0)])
            .zero_density(0.7)
            .inference(rows as u32),
        TenantLoad::new(TenantSpec::new("trainer"), 20_000.0),
    ];
    let horizon = if fast { 0.002 } else { 0.01 };
    let run = || {
        run_virtual_with_kernel(
            &cfg,
            &loads,
            horizon,
            SEED,
            ServiceModel::default(),
            &kernel,
        )
    };
    let virt = run();
    assert!(virt.total_completed() > 0, "serving completed nothing");
    assert_eq!(
        virt.deterministic_summary_json(),
        run().deterministic_summary_json(),
        "virtual serving must replay bit-identically"
    );
    let infer = &virt.tenants[0];
    let ratio = infer.counters.uncompressed_bytes as f64 / infer.counters.wire_bytes.max(1) as f64;
    println!(
        "serving: {} infer + {} compress requests, infer wire ratio {ratio:.2}x, rerun bit-identical",
        infer.counters.completed, virt.tenants[1].counters.completed
    );
}
