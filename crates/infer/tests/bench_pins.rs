//! The exact values of `crates/bench/benches/infer.rs` at its full size
//! (1024 x 1024 at 10% weights, 70% zero activations, seed 42), pinned
//! in bits: the PE array's speedups and imbalance, and the virtual-time
//! serving run's infer wire ratio and completed requests. The bench asserts
//! bars and timings; these are the numbers it prints that must not move.

use cdma_compress::Algorithm;
use cdma_infer::{CscMatrix, InferKernel, PeArray, PeWorkload};
use cdma_serve::{
    fill_activations, run_virtual_with_kernel, ServerConfig, ServiceModel, TenantLoad, TenantSpec,
};

const SEED: u64 = 42;
const DENSITY: f64 = 0.1;
const ROWS: usize = 1024;
const COLS: usize = 1024;

#[test]
fn bench_values_hold_their_bits() {
    let matrix = CscMatrix::synth(ROWS, COLS, DENSITY, SEED);
    let mut x = vec![0.0f32; COLS];
    fill_activations(SEED ^ 0xA11, 0.7, &mut x);

    let pes = 16;
    let arr = PeArray::new(pes);
    let workload = PeWorkload::from_matrix(&matrix, pes);
    let csc_t = arr.run(&workload, &x, false);
    let act_t = arr.run(&workload, &x, true);
    let dense_cycles = arr.dense_cycles(ROWS, COLS) as f64;
    let pe_speedup_csc = dense_cycles / csc_t.cycles.max(1) as f64;
    let pe_speedup_csc_act = dense_cycles / act_t.cycles.max(1) as f64;
    let pe_imbalance = act_t.load_imbalance();

    let kernel = InferKernel::new(matrix);
    let cfg = ServerConfig {
        algorithm: Algorithm::Csc,
        ..ServerConfig::default()
    };
    let loads = vec![
        TenantLoad::new(TenantSpec::new("infer").weight(2.0), 20_000.0)
            .size_mix(vec![(COLS, 1.0)])
            .zero_density(0.7)
            .inference(ROWS as u32),
        TenantLoad::new(TenantSpec::new("trainer"), 20_000.0),
    ];
    let virt = run_virtual_with_kernel(&cfg, &loads, 0.01, SEED, ServiceModel::default(), &kernel);
    let infer = &virt.tenants[0].counters;
    let serve_infer_ratio = infer.uncompressed_bytes as f64 / infer.wire_bytes.max(1) as f64;

    let bits = |v: f64| v.to_bits();
    assert_eq!(
        bits(pe_speedup_csc),
        0x4022_1BDE_E50C_8545,
        "{pe_speedup_csc}"
    ); // 9.054435
    assert_eq!(
        bits(pe_speedup_csc_act),
        0x403C_0AF4_476B_E626,
        "{pe_speedup_csc_act}"
    ); // 28.042790
    assert_eq!(bits(pe_imbalance), 0x3FF1_48FC_89DD_DBD9, "{pe_imbalance}"); // 1.080319
    assert_eq!(
        bits(serve_infer_ratio),
        0x401C_3924_0145_1419,
        "{serve_infer_ratio}"
    ); // 7.055801
    assert_eq!(virt.total_completed(), 384);
}
