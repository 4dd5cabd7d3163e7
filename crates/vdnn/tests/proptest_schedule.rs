//! Property tests of the vDNN timeline simulation: the oracle is a lower
//! bound, compression helps monotonically, and stalls account consistently.
//!
//! The proptest crate is unavailable offline, so these are deterministic
//! property loops over a seeded generator; every failure reproduces from
//! its case index.

use cdma_gpusim::SystemConfig;
use cdma_models::{PoolFlavor, SpecBuilder};
use cdma_vdnn::{
    ComputeModel, CudnnVersion, StepBreakdown, TimelineSim, TransferPolicy, UniformRatio,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Random small CNN specs: alternating conv/pool pyramids ending in an fc.
fn random_spec(rng: &mut StdRng) -> cdma_models::NetworkSpec {
    let stages = rng.gen_range(2usize..6);
    let base_c = rng.gen_range(8usize..64);
    let hw = rng.gen_range(32usize..120);
    let batch = rng.gen_range(16usize..128);
    let pools: Vec<bool> = (0..6).map(|_| rng.gen_range(0u32..2) == 1).collect();
    let mut b = SpecBuilder::new("random", batch, (3, hw, hw));
    let mut c = base_c;
    for s in 0..stages {
        b.conv(&format!("conv{s}"), c, 3, 1, 1, true);
        if pools[s % pools.len()] && b.current().h >= 4 {
            b.pool(&format!("pool{s}"), PoolFlavor::Max, 2, 2);
        }
        c = (c * 2).min(256);
    }
    b.fc("fc", 10, false);
    b.build()
}

fn sim() -> TimelineSim {
    TimelineSim::new(
        SystemConfig::titan_x_pcie3(),
        ComputeModel::titan_x(CudnnVersion::V5),
    )
}

fn step_time(spec: &cdma_models::NetworkSpec, policy: TransferPolicy) -> StepBreakdown {
    sim()
        .simulate(spec, &UniformRatio::new(spec, policy))
        .breakdown
}

fn for_each_case(seed: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ (case.wrapping_mul(0x9E3779B97F4A7C15)));
        check(case, &mut rng);
    }
}

/// The oracle lower-bounds every policy on every network.
#[test]
fn oracle_is_a_lower_bound() {
    for_each_case(0x04AC1E, |case, rng| {
        let spec = random_spec(rng);
        let ratio = rng.gen_range(1.0f64..20.0);
        let oracle = step_time(&spec, TransferPolicy::Oracle).total();
        let vdnn = step_time(&spec, TransferPolicy::uniform(&spec, 1.0)).total();
        let cdma = step_time(&spec, TransferPolicy::uniform(&spec, ratio)).total();
        assert!(oracle <= vdnn * 1.000001, "case {case}");
        assert!(oracle <= cdma * 1.000001, "case {case}");
    });
}

/// Higher compression ratio never hurts step time.
#[test]
fn compression_monotone() {
    for_each_case(0x4070, |case, rng| {
        let spec = random_spec(rng);
        let r1 = rng.gen_range(1.0f64..16.0);
        let r2 = rng.gen_range(1.0f64..16.0);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let t_lo = step_time(&spec, TransferPolicy::uniform(&spec, lo)).total();
        let t_hi = step_time(&spec, TransferPolicy::uniform(&spec, hi)).total();
        assert!(t_hi <= t_lo * 1.000001, "case {case}");
    });
}

/// Stalls never exceed the phase they occur in, and the step equals
/// forward + backward.
#[test]
fn breakdown_is_consistent() {
    for_each_case(0xB4EAD, |case, rng| {
        let spec = random_spec(rng);
        let b = step_time(&spec, TransferPolicy::uniform(&spec, 1.0));
        assert!(b.forward_stall <= b.forward + 1e-12, "case {case}");
        assert!(b.backward_stall <= b.backward + 1e-12, "case {case}");
        assert!(
            (b.total() - (b.forward + b.backward)).abs() < 1e-12,
            "case {case}"
        );
        assert!((0.0..=1.0).contains(&b.stall_fraction()), "case {case}");
    });
}

/// Conv-only offloading is never slower than offload-all at equal
/// ratios (it strictly transfers a subset).
#[test]
fn conv_only_never_slower() {
    for_each_case(0xC04F, |case, rng| {
        let spec = random_spec(rng);
        let ratio = rng.gen_range(1.0f64..8.0);
        let n = spec.layers().len();
        let all = step_time(&spec, TransferPolicy::OffloadAll(vec![ratio; n])).total();
        let conv = step_time(&spec, TransferPolicy::OffloadConv(vec![ratio; n])).total();
        assert!(conv <= all * 1.000001, "case {case}");
    });
}

/// Normalized performance is in (0, 1] for transfer policies.
#[test]
fn normalized_performance_bounded() {
    for_each_case(0x904B, |case, rng| {
        let spec = random_spec(rng);
        let ratio = rng.gen_range(1.0f64..32.0);
        let p = sim().normalized_performance(&spec, &UniformRatio::uniform(&spec, ratio));
        assert!(p > 0.0 && p <= 1.0 + 1e-9, "case {case}: perf {p}");
    });
}
