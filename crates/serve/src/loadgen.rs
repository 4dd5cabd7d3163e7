//! Deterministic open-loop load generation.
//!
//! Each tenant gets a seeded Poisson arrival process (exponential
//! interarrivals) and a tensor-size mix; the per-tenant streams are
//! merged into one time-ordered [`Schedule`] that both drivers replay
//! identically. *Open-loop* means arrivals do not wait for completions —
//! exactly the regime where admission control matters, because offered
//! load can exceed capacity.
//!
//! Activation payloads are synthesised by [`fill_activations`]: a
//! splitmix64 stream thresholded at the configured zero density, so a
//! window's compressibility under ZVC matches the paper's activation
//! sparsity model while remaining a pure function of `(seed, density)`.

use cdma_compress::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::proto::JobKind;
use crate::sched::TenantSpec;

/// Offered load description for one tenant.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// The tenant's admission-control spec.
    pub spec: TenantSpec,
    /// Mean arrival rate in requests per second.
    pub rate: f64,
    /// Tensor-size mix: `(elements, probability-weight)` pairs. Weights
    /// are normalised internally; elements are f32 words per request.
    pub size_mix: Vec<(usize, f64)>,
    /// Fraction of zero-valued activations in generated payloads.
    pub zero_density: f64,
    /// The job kind this tenant submits ([`JobKind::Compress`] by
    /// default; [`JobKind::Infer`] via [`TenantLoad::inference`]).
    pub kind: JobKind,
    /// Output activations per inference request (infer tenants only).
    pub infer_out_elems: u32,
}

impl TenantLoad {
    /// A tenant offering `rate` requests/s of single-window (1024-word =
    /// 4 KB) tensors at the paper's ~60% average zero density.
    pub fn new(spec: TenantSpec, rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        TenantLoad {
            spec,
            rate,
            size_mix: vec![(1024, 1.0)],
            zero_density: 0.6,
            kind: JobKind::Compress,
            infer_out_elems: 0,
        }
    }

    /// Turns this tenant's jobs into inference requests producing
    /// `out_elems` output activations each. The generated payload stays
    /// an activation vector at the configured size/zero-density — for a
    /// matvec kernel, size the tensor mix to the weight matrix's column
    /// count (times the batch) and `out_elems` to its row count.
    ///
    /// # Panics
    ///
    /// Panics on a zero output size.
    pub fn inference(mut self, out_elems: u32) -> Self {
        assert!(out_elems > 0, "inference output must be non-empty");
        self.kind = JobKind::Infer;
        self.infer_out_elems = out_elems;
        self
    }

    /// Replaces the tensor-size mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or any weight is non-positive.
    pub fn size_mix(mut self, mix: Vec<(usize, f64)>) -> Self {
        assert!(!mix.is_empty(), "size mix must be non-empty");
        assert!(
            mix.iter().all(|&(n, w)| n > 0 && w > 0.0 && w.is_finite()),
            "size mix entries must have positive elements and weights"
        );
        self.size_mix = mix;
        self
    }

    /// Sets the zero density of generated activations.
    ///
    /// # Panics
    ///
    /// Panics unless `density` is in `[0, 1]`.
    pub fn zero_density(mut self, density: f64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        self.zero_density = density;
        self
    }
}

/// One scheduled request arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival time in seconds from harness start.
    pub at_s: f64,
    /// Index of the originating tenant in the [`Schedule`]'s load list.
    pub tenant: u16,
    /// Activation words in the request.
    pub elements: usize,
    /// Seed for [`fill_activations`] — unique per arrival so payloads
    /// differ while staying reproducible.
    pub fill_seed: u64,
}

/// A merged, time-ordered arrival schedule over a fixed horizon.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Arrivals sorted by time (ties broken by generation order).
    pub arrivals: Vec<Arrival>,
    /// The horizon in seconds arrivals were generated up to.
    pub horizon_s: f64,
    /// The master seed the schedule was built from.
    pub seed: u64,
}

impl Schedule {
    /// Generates the schedule: per-tenant Poisson streams over
    /// `horizon_s` seconds, merged and time-sorted. Each tenant's stream
    /// is seeded from `seed` and the tenant index, so adding a tenant
    /// never perturbs the others' arrivals.
    pub fn generate(loads: &[TenantLoad], horizon_s: f64, seed: u64) -> Self {
        assert!(horizon_s > 0.0, "horizon must be positive");
        let mut arrivals = Vec::new();
        for (idx, load) in loads.iter().enumerate() {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let total_w: f64 = load.size_mix.iter().map(|&(_, w)| w).sum();
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.gen_range(0.0..1.0);
                // Exponential interarrival; (1 - u) keeps ln's argument
                // in (0, 1].
                t += -(1.0 - u).ln() / load.rate;
                if t >= horizon_s {
                    break;
                }
                let mut pick: f64 = rng.gen_range(0.0..1.0) * total_w;
                let mut elements = load.size_mix[load.size_mix.len() - 1].0;
                for &(n, w) in &load.size_mix {
                    if pick < w {
                        elements = n;
                        break;
                    }
                    pick -= w;
                }
                let fill_seed: u64 = rng.gen_range(0..u64::MAX);
                arrivals.push(Arrival {
                    at_s: t,
                    tenant: idx as u16,
                    elements,
                    fill_seed,
                });
            }
        }
        // Stable sort: equal times keep per-tenant generation order.
        arrivals.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        Schedule {
            arrivals,
            horizon_s,
            seed,
        }
    }

    /// Total offered requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when no arrivals were generated.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Offered uncompressed bytes across the whole schedule.
    pub fn offered_bytes(&self) -> u64 {
        self.arrivals.iter().map(|a| a.elements as u64 * 4).sum()
    }
}

/// Fills `out` with synthetic activations: a `zero_density` fraction of
/// exact zeros, the rest small positive values. Pure function of
/// `(seed, zero_density, out.len())` — both drivers and any replay
/// produce bit-identical payloads.
///
/// The loop runs through [`Kernel::run`], so it is compiled for the
/// active ZVC tier and vectorizes at that tier's width (one splitmix64
/// draw per lane); `CDMA_ZVC_KERNEL=portable` runs it at the baseline
/// width. Every step is integer apart from an exact conversion of a
/// 17-bit integer to `f32` and a divide by 2¹⁶, so every tier writes
/// the same bits.
pub fn fill_activations(seed: u64, zero_density: f64, out: &mut [f32]) {
    Kernel::active().run(|| fill_activations_body(seed, zero_density, out))
}

/// [`fill_activations`]'s one loop, inlined into each tier's entry.
#[inline(always)]
fn fill_activations_body(seed: u64, zero_density: f64, out: &mut [f32]) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        // splitmix64
        let mut z = state;
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let threshold = (zero_density * (1u64 << 53) as f64) as u64;
    for slot in out.iter_mut() {
        // 53 uniform bits.
        let r = next() >> 11;
        // Non-zero activation in (0, 1]; never rounds to zero. The 17-bit
        // integer converts exactly, through `i32` so that every vector
        // width has the conversion.
        let v = (((r & 0xFFFF) + 1) as i32 as f32) / 65536.0;
        *slot = if r < threshold { 0.0 } else { v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(rate: f64) -> TenantLoad {
        TenantLoad::new(TenantSpec::new("t"), rate)
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let loads = vec![load(10_000.0), load(5_000.0)];
        let a = Schedule::generate(&loads, 0.1, 42);
        let b = Schedule::generate(&loads, 0.1, 42);
        assert_eq!(a.arrivals, b.arrivals);
        assert!(a.arrivals.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        let c = Schedule::generate(&loads, 0.1, 43);
        assert_ne!(a.arrivals, c.arrivals, "seed must matter");
    }

    #[test]
    fn arrival_count_tracks_offered_rate() {
        // 20k req/s over 0.5 s => ~10k arrivals; Poisson sd ~100.
        let s = Schedule::generate(&[load(20_000.0)], 0.5, 7);
        assert!(
            (9_500..=10_500).contains(&s.len()),
            "got {} arrivals",
            s.len()
        );
    }

    #[test]
    fn adding_a_tenant_preserves_existing_streams() {
        let one = Schedule::generate(&[load(8_000.0)], 0.1, 9);
        let two = Schedule::generate(&[load(8_000.0), load(3_000.0)], 0.1, 9);
        let first: Vec<_> = two.arrivals.iter().filter(|a| a.tenant == 0).collect();
        assert_eq!(first.len(), one.len());
        for (a, b) in first.iter().zip(&one.arrivals) {
            assert_eq!(a.at_s, b.at_s);
            assert_eq!(a.elements, b.elements);
        }
    }

    #[test]
    fn size_mix_draws_every_bucket() {
        let l = load(50_000.0).size_mix(vec![(256, 1.0), (1024, 2.0), (4096, 1.0)]);
        let s = Schedule::generate(&[l], 0.2, 11);
        let n = s.len() as f64;
        let count = |e: usize| s.arrivals.iter().filter(|a| a.elements == e).count() as f64;
        assert!((count(256) / n - 0.25).abs() < 0.05);
        assert!((count(1024) / n - 0.50).abs() < 0.05);
        assert!((count(4096) / n - 0.25).abs() < 0.05);
    }

    /// The loop `fill_activations` ran before it went through
    /// `Kernel::run`, converting the 17-bit magnitude from `u64` (an x86
    /// vector conversion only AVX-512DQ has).
    fn fill_activations_scalar(seed: u64, zero_density: f64, out: &mut [f32]) {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            let mut z = state;
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let threshold = (zero_density * (1u64 << 53) as f64) as u64;
        for slot in out.iter_mut() {
            let r = next() >> 11;
            *slot = if r < threshold {
                0.0
            } else {
                (((r & 0xFFFF) + 1) as f32) / 65536.0
            };
        }
    }

    #[test]
    fn every_tier_fills_the_scalar_loops_bits() {
        // `fill_activations`, its plain body, and the body run at every
        // tier this CPU supports, against the retained scalar loop.
        // Lengths 0–67 cross every vector width's remainder loop; 1024
        // and 4099 run the vector body long. Offset 1 starts the slice one
        // word into the buffer, off the allocation's alignment; nothing
        // past the slice may be written.
        let lens: Vec<usize> = (0..=67).chain([1024, 4099]).collect();
        let mut want = vec![0.0f32; 4101];
        let mut got = vec![0.0f32; 4101];
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        for density in [0.0, 0.3, 0.6, 1.0] {
            for s in 0..200u64 {
                let seed = s.wrapping_mul(0xD1B5_4A32_D192_ED03);
                for &len in &lens {
                    for off in [0, 1] {
                        let (slice, end) = (off..off + len, off + len + 1);
                        let case = (density, seed, len, off);
                        want[..end].fill(-2.0);
                        fill_activations_scalar(seed, density, &mut want[slice.clone()]);
                        got[..end].fill(-2.0);
                        fill_activations(seed, density, &mut got[slice.clone()]);
                        assert!(
                            same(&got[..end], &want[..end]),
                            "fill_activations, {case:?}"
                        );
                        got[..end].fill(-2.0);
                        fill_activations_body(seed, density, &mut got[slice.clone()]);
                        assert!(same(&got[..end], &want[..end]), "plain body, {case:?}");
                        for k in Kernel::supported() {
                            got[..end].fill(-2.0);
                            k.run(|| fill_activations_body(seed, density, &mut got[slice.clone()]));
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
    fn fill_density_matches_request() {
        let mut buf = vec![0.0f32; 100_000];
        fill_activations(123, 0.6, &mut buf);
        let zeros = buf.iter().filter(|&&v| v == 0.0).count() as f64;
        assert!((zeros / 1e5 - 0.6).abs() < 0.01);
        assert!(buf.iter().all(|v| v.is_finite() && *v >= 0.0));
        // Bit-identical replay.
        let mut again = vec![9.0f32; 100_000];
        fill_activations(123, 0.6, &mut again);
        assert_eq!(buf, again);
        // Degenerate densities.
        fill_activations(5, 0.0, &mut buf[..64]);
        assert!(buf[..64].iter().all(|&v| v != 0.0));
        fill_activations(5, 1.0, &mut buf[..64]);
        assert!(buf[..64].iter().all(|&v| v == 0.0));
    }
}
