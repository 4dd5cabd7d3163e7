//! Host time at a reference clock.
//!
//! The sandbox's cores step between 3.3 and 4.2 GHz every few seconds
//! (turbo bins that follow the other tenants of the host). A 20 s run
//! lands mostly in one bin or another, so the wall time of core-bound code
//! — the entropy coders, the simulators — swings by up to 27% between runs
//! of one build (13-15% quartile spread), and no median inside one run can
//! take that out. What can: a canary whose speed is the clock and nothing
//! else, read next to each timed section, and the section reported as what
//! it would have taken at the reference clock:
//!
//! `reference seconds = wall seconds x (clock now / reference clock)`
//!
//! That is exact for core-bound code and wrong for code that moves at
//! memory speed. `offload_zvc` is such code, and its noise is larger: the
//! host's last-level cache and memory channels are shared, and its median
//! pass has read anything from 18 ms to 37 ms on one binary and seed over
//! an afternoon, with the clock flat. Its canary is the roadmap's own
//! ceiling for codecs — a plain copy of the same tensors, once a pass —
//! and its times are reported at a reference copy speed,
//! [`REFERENCE_MEMCPY_GBPS`]: over sixty runs in which the wall-clock
//! median ranged 27.2-37.3 ms (quartile spread 8.4%), the referred median
//! ranged 25.3-29.0 ms (3.8%). (A synthetic canary — stream compaction
//! over 8 MB — was tried first and dropped: it swung 0.53-0.91 of its
//! reference while the workload held within 3%. The footprint has to be
//! the workload's own.) Comparisons between two commits divide the
//! reference out; it only fixes the unit.

use std::hint::black_box;
use std::time::Instant;

/// Canary iterations per nanosecond at the sandbox's floor clock
/// (3.29 GHz; the chain retires one iteration every five cycles).
pub const REFERENCE_RATE: f64 = 0.657;

/// The copy speed `offload_zvc`'s times are referred to, GB/s: about what
/// `copy_from_slice` over its 84 MB of tensors reads on the sandbox.
pub const REFERENCE_MEMCPY_GBPS: f64 = 8.0;

/// Iterations per burst: ~6 us, short against anything that is timed.
const BURST_ITERS: u32 = 4_000;
/// Bursts per reading. A burst that is preempted can only read low, so
/// the fastest of three is the clock.
const BURSTS: usize = 3;

/// One burst of a serially dependent xorshift-multiply chain: five cycles
/// of latency per iteration, no memory traffic, nothing to vectorise.
fn burst() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..BURST_ITERS {
        x ^= x >> 12;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    f64::from(BURST_ITERS) / t0.elapsed().as_nanos().max(1) as f64
}

/// The clock now, as a multiple of the reference clock.
pub fn scale() -> f64 {
    (0..BURSTS).map(|_| burst()).fold(0.0, f64::max) / REFERENCE_RATE
}

/// Converts a stretch of wall time to reference time, given the clock
/// read at its two ends.
pub fn at_reference(wall_s: f64, scale_before: f64, scale_after: f64) -> f64 {
    wall_s * (scale_before + scale_after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_canary_reads_a_plausible_clock() {
        // Somewhere between a 1 GHz and a 7 GHz core.
        let s = scale();
        assert!((0.3..2.2).contains(&s), "clock scale {s}");
        // Two readings back to back agree unless a turbo bin changed
        // between them (bins are 3% apart; allow a few).
        let t = scale();
        assert!((s / t - 1.0).abs() < 0.35, "{s} vs {t}");
    }

    #[test]
    fn reference_time_scales_with_the_clock() {
        // At the reference clock nothing changes.
        assert_eq!(at_reference(2.0, 1.0, 1.0), 2.0);
        // A section timed at 1.25x the reference clock would have taken
        // 1.25x as long at the reference clock.
        assert_eq!(at_reference(2.0, 1.25, 1.25), 2.5);
        // A bin change mid-section: the mean of the two ends.
        assert_eq!(at_reference(1.0, 1.0, 1.5), 1.25);
    }
}
