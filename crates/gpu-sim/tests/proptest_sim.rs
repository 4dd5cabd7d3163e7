//! Property tests: conservation and monotonicity invariants of the
//! discrete-event offload pipeline and the engine cycle models.
//!
//! The proptest crate is unavailable offline, so these are deterministic
//! property loops over a seeded generator; every failure reproduces from
//! its case index.

use std::collections::VecDeque;

use cdma_gpusim::{
    staging, DmaPipeline, LineSchedule, OffloadSim, OffloadSimResult, SystemConfig, ZvcEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

fn line_set(rng: &mut StdRng) -> Vec<(u32, u32)> {
    let n = rng.gen_range(1usize..200);
    (0..n)
        .map(|_| {
            let u = rng.gen_range(1u32..=4096);
            let frac = rng.gen_range(0.02f64..1.2);
            let c = ((u as f64 * frac).ceil() as u32).max(1);
            (u, c)
        })
        .collect()
}

fn for_each_case(seed: u64, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ (case.wrapping_mul(0x9E3779B97F4A7C15)));
        check(case, &mut rng);
    }
}

/// Byte accounting is conserved: the sim reports exactly the bytes fed.
#[test]
fn byte_conservation() {
    for_each_case(0xB17E5, |case, rng| {
        let lines = line_set(rng);
        let sim = OffloadSim::new(SystemConfig::titan_x_pcie3());
        let r = sim.run_lines(lines.iter().copied());
        let u: u64 = lines.iter().map(|&(u, _)| u as u64).sum();
        let c: u64 = lines.iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(r.uncompressed_bytes, u, "case {case}");
        assert_eq!(r.compressed_bytes, c, "case {case}");
    });
}

/// Physical lower bounds always hold: the transfer can be no faster
/// than the link moving the compressed bytes, the read path moving the
/// uncompressed bytes, or one memory latency.
#[test]
fn physical_lower_bounds() {
    for_each_case(0xB007, |case, rng| {
        let lines = line_set(rng);
        let cfg = SystemConfig::titan_x_pcie3();
        let r = OffloadSim::new(cfg).run_lines(lines.iter().copied());
        let link = r.compressed_bytes as f64 / cfg.pcie_bw;
        let read = r.uncompressed_bytes as f64 / cfg.usable_comp_bw();
        assert!(
            r.total_time >= link * 0.999,
            "case {case}: {} < {link}",
            r.total_time
        );
        assert!(r.total_time >= read * 0.999, "case {case}");
        assert!(r.total_time >= cfg.mem_latency, "case {case}");
        assert!(r.link_utilization() <= 1.0 + 1e-9, "case {case}");
    });
}

/// The DMA buffer never exceeds its capacity, for any traffic mix.
#[test]
fn buffer_capacity_respected() {
    for_each_case(0xCAFE, |case, rng| {
        let lines = line_set(rng);
        let cfg = SystemConfig::titan_x_pcie3();
        let r = OffloadSim::new(cfg).run_lines(lines.iter().copied());
        assert!(
            r.max_buffer_occupancy <= cfg.dma_buffer as f64 + 1.0,
            "case {case}: occupancy {} > buffer {}",
            r.max_buffer_occupancy,
            cfg.dma_buffer
        );
    });
}

/// Better compression never slows an offload down (uniform-ratio case).
#[test]
fn monotone_in_ratio() {
    for_each_case(0x4A710, |case, rng| {
        let bytes = rng.gen_range(1u64..(8 << 20));
        let r1 = rng.gen_range(1.0f64..4.0);
        let r2 = rng.gen_range(1.0f64..4.0);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let sim = OffloadSim::new(SystemConfig::titan_x_pcie3());
        let t_lo = sim.run_uniform(bytes, lo).total_time;
        let t_hi = sim.run_uniform(bytes, hi).total_time;
        assert!(
            t_hi <= t_lo * 1.001,
            "case {case}: ratio {hi} slower than {lo}: {t_hi} vs {t_lo}"
        );
    });
}

/// A bigger buffer never hurts.
#[test]
fn monotone_in_buffer() {
    for_each_case(0xB0FFE4, |case, rng| {
        let bytes = rng.gen_range(1u64..(4 << 20));
        let ratio = rng.gen_range(1.0f64..16.0);
        let kb = rng.gen_range(8usize..70);
        let base = SystemConfig::titan_x_pcie3();
        let small = SystemConfig {
            dma_buffer: kb * 1024,
            ..base
        };
        let t_small = OffloadSim::new(small).run_uniform(bytes, ratio).total_time;
        let t_big = OffloadSim::new(base).run_uniform(bytes, ratio).total_time;
        assert!(t_big <= t_small * 1.001, "case {case}");
    });
}

/// Engine cycle counts: streaming n sectors is always cheaper than
/// n separate lines, and throughput-consistent.
#[test]
fn engine_cycles_pipeline_properly() {
    for_each_case(0xC1C1E5, |case, rng| {
        let sectors = rng.gen_range(1usize..500);
        let e = ZvcEngine::new(1e9);
        let streamed = e.compress_cycles(sectors * 32);
        let separate = sectors as u64 * e.compress_cycles(32);
        assert!(streamed <= separate, "case {case}");
        assert_eq!(streamed, 3 + sectors as u64 - 1, "case {case}");
    });
}

/// The stepping `DmaPipeline` replaced, kept as the oracle: every issued
/// line stays in a table and the buffer's occupancy is re-summed line by
/// line at each backpressure pass and each arrival. O(resident lines) a
/// pass, obviously the model of Section V-B — which is what it is for.
struct ScanPipeline {
    read_bw: f64,
    link_bw: f64,
    capacity: f64,
    latency: f64,
    now: f64,
    t_read_free: f64,
    drain_free: f64,
    /// `(arrival, compressed, drain_start, drain_end)` in issue order.
    sched: Vec<(f64, f64, f64, f64)>,
    head: usize,
    /// `(arrival, uncompressed)` of reads whose reservations are held.
    inflight: VecDeque<(f64, f64)>,
    reserved: f64,
    max_occ: f64,
    total_u: u64,
    total_c: u64,
}

impl ScanPipeline {
    fn new(cfg: SystemConfig) -> Self {
        ScanPipeline {
            read_bw: cfg.usable_comp_bw(),
            link_bw: cfg.pcie_bw,
            capacity: cfg.dma_buffer as f64,
            latency: cfg.mem_latency,
            now: 0.0,
            t_read_free: 0.0,
            drain_free: 0.0,
            sched: Vec::new(),
            head: 0,
            inflight: VecDeque::new(),
            reserved: 0.0,
            max_occ: 0.0,
            total_u: 0,
            total_c: 0,
        }
    }

    fn occupancy_at(&self, t: f64) -> f64 {
        let mut occ = 0.0;
        for &(t_arr, c, drain_start, drain_end) in &self.sched[self.head..] {
            if t_arr > t {
                break;
            }
            if drain_end <= t {
                continue;
            }
            if drain_start >= t {
                occ += c;
            } else {
                occ += c * (drain_end - t) / (drain_end - drain_start);
            }
        }
        occ
    }

    fn retire(&mut self, t: f64) {
        while let Some(&(ta, u)) = self.inflight.front() {
            if ta > t {
                break;
            }
            self.inflight.pop_front();
            self.reserved -= u;
        }
        while self.head < self.sched.len() && self.sched[self.head].3 <= t {
            self.head += 1;
        }
    }

    fn push_line(&mut self, not_before: f64, uncompressed: u32, compressed: u32) -> LineSchedule {
        let (u, c) = (uncompressed as f64, compressed as f64);
        self.total_u += uncompressed as u64;
        self.total_c += compressed as u64;
        let mut t = self.t_read_free.max(not_before).max(self.now);
        loop {
            self.retire(t);
            let occ = self.occupancy_at(t);
            let need = staging::shortfall(self.reserved, occ, u, self.capacity);
            if need <= staging::ADMIT_TOLERANCE {
                break;
            }
            let next_arrival = self.inflight.front().map(|&(ta, _)| ta);
            if need <= occ + staging::ADMIT_TOLERANCE {
                let t_drain = t + need / self.link_bw;
                match next_arrival {
                    Some(ta) if ta < t_drain => t = ta,
                    _ => {
                        t = t_drain;
                        break;
                    }
                }
            } else {
                t = next_arrival.expect("backpressure with nothing in flight");
            }
        }
        let issue = t;
        self.t_read_free = issue + u / self.read_bw;
        let arrival = issue + self.latency;
        let drain_start = self.drain_free.max(arrival);
        let drain_end = drain_start + c / self.link_bw;
        self.drain_free = drain_end;
        self.sched.push((arrival, c, drain_start, drain_end));
        self.inflight.push_back((arrival, u));
        self.reserved += u;
        self.max_occ = self.max_occ.max(self.occupancy_at(arrival));
        LineSchedule {
            issue,
            read_done: self.t_read_free,
            arrival,
            drain_start,
            drain_end,
        }
    }

    fn advance_to(&mut self, now: f64) {
        self.now = self.now.max(now);
        self.retire(self.now);
        self.sched.drain(..self.head);
        self.head = 0;
    }

    fn result(&self) -> OffloadSimResult {
        OffloadSimResult {
            uncompressed_bytes: self.total_u,
            compressed_bytes: self.total_c,
            total_time: self.drain_free,
            link_busy: self.total_c as f64 / self.link_bw,
            max_buffer_occupancy: self.max_occ,
        }
    }
}

/// One line of an adversarial mix for a `buffer`-byte staging buffer.
fn mixed_line(rng: &mut StdRng, buffer: u32) -> (u32, u32) {
    let u = match rng.gen_range(0u32..16) {
        0 => rng.gen_range(1u32..256),        // sub-line runt
        1 => buffer,                          // fills the buffer by itself
        2 => rng.gen_range(1u32..=4096) & !3, // ragged tail window
        _ => 4096,
    };
    let c = match rng.gen_range(0u32..8) {
        // What ZVC emits on dense data: every word plus the mask bits.
        0 => u + u.div_ceil(32),
        1 => rng.gen_range(0u32..=16),
        _ => ((u as f64 * rng.gen_range(0.05f64..1.0)).ceil() as u32).max(1),
    };
    (u, c)
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Seed of the stepping suites' mixes.
const MIX_SEED: u64 = 0x0DD5_CA11;
/// Lines each stepping case pushes.
const MIX_LINES: u32 = 8_000;

/// The platform of one stepping case: PCIe and NVLink alternate, and
/// every other pair runs an 8 KB buffer instead of the 70 KB one.
fn mix_config(case: u64) -> SystemConfig {
    let mut cfg = if case.is_multiple_of(2) {
        SystemConfig::titan_x_pcie3()
    } else {
        SystemConfig::titan_x_nvlink()
    };
    if case % 4 >= 2 {
        cfg.dma_buffer = 8 * 1024;
    }
    cfg
}

/// The seeded traffic of the stepping suites: adversarial lines with
/// uniform stretches, transfers released at scattered instants, and the
/// caller's clock moved mid-flight.
struct Mix {
    buffer: u32,
    /// The longest any one line of the mix holds the link.
    line_time: f64,
    release: f64,
    line: (u32, u32),
    run: u32,
}

/// One step of a [`Mix`]: move the caller's clock first (if `advance`),
/// then push `line` released at `release`.
struct MixStep {
    advance: Option<f64>,
    release: f64,
    line: (u32, u32),
}

impl Mix {
    fn new(cfg: &SystemConfig) -> Self {
        let buffer = cfg.dma_buffer as u32;
        Mix {
            buffer,
            line_time: (buffer + buffer.div_ceil(32)) as f64 / cfg.pcie_bw,
            release: 0.0,
            line: (4096, 4096),
            run: 0,
        }
    }

    /// The next step, given the pipeline's last issue time and the instant
    /// its link finishes draining everything pushed so far.
    fn next(&mut self, rng: &mut StdRng, last_issue: f64, drain_free: f64) -> MixStep {
        let mut advance = None;
        match rng.gen_range(0u32..64) {
            // A new transfer, released while the previous one is still
            // draining or well after the pipeline has idled.
            0 => self.release = last_issue + rng.gen_range(0.0..4.0) * self.line_time,
            // The caller's clock moves to an arbitrary instant between
            // the last issue and just past the last drain.
            1 => advance = Some(last_issue + rng.gen_range(0.0..1.1) * (drain_free - last_issue)),
            // A uniform stretch, where arrivals and drains fall into
            // step with each other.
            2 => self.run = rng.gen_range(64u32..512),
            _ => {}
        }
        if self.run == 0 {
            self.line = mixed_line(rng, self.buffer);
        }
        self.run = self.run.saturating_sub(1);
        MixStep {
            advance,
            release: self.release,
            line: self.line,
        }
    }
}

/// The O(1) stepping is the scan-based stepping: the same seeded mixes
/// through both, pushed with the same release times and advanced at the
/// same mid-flight instants. Bytes and lines agree exactly and the
/// aggregates to 1e-12; schedules are bit-identical on all but the few
/// lines downstream of a last-place rounding difference or of the tie
/// `push_line` documents, and those stay within one line's link time.
#[test]
fn running_sum_stepping_matches_the_scan_oracle() {
    let mut total_lines = 0u64;
    let mut identical = 0u64;
    for_each_case(MIX_SEED, |case, rng| {
        let cfg = mix_config(case);
        let mut mix = Mix::new(&cfg);
        let line_time = mix.line_time;

        let mut fast = DmaPipeline::new(cfg);
        let mut oracle = ScanPipeline::new(cfg);
        let mut last_issue = 0.0f64;
        for i in 0..MIX_LINES {
            let step = mix.next(rng, last_issue, oracle.drain_free);
            if let Some(now) = step.advance {
                fast.advance_to(now);
                oracle.advance_to(now);
            }
            let (u, c) = step.line;
            let got = fast.push_line(step.release, u, c);
            let want = oracle.push_line(step.release, u, c);
            total_lines += 1;
            last_issue = want.issue;
            if got == want {
                identical += 1;
                continue;
            }
            for (name, g, w) in [
                ("issue", got.issue, want.issue),
                ("read_done", got.read_done, want.read_done),
                ("arrival", got.arrival, want.arrival),
                ("drain_start", got.drain_start, want.drain_start),
                ("drain_end", got.drain_end, want.drain_end),
            ] {
                assert!(
                    (g - w).abs() <= line_time,
                    "case {case} line {i}: {name} {g:e} vs oracle {w:e}"
                );
            }
        }

        let (got, want) = (fast.result(), oracle.result());
        assert_eq!(fast.lines_pushed(), MIX_LINES as u64, "case {case}");
        assert_eq!(
            got.uncompressed_bytes, want.uncompressed_bytes,
            "case {case}"
        );
        assert_eq!(got.compressed_bytes, want.compressed_bytes, "case {case}");
        assert_eq!(got.link_busy, want.link_busy, "case {case}");
        assert!(
            rel_close(got.total_time, want.total_time),
            "case {case}: total_time {:e} vs {:e}",
            got.total_time,
            want.total_time
        );
        assert!(
            rel_close(got.max_buffer_occupancy, want.max_buffer_occupancy),
            "case {case}: max occupancy {} vs {}",
            got.max_buffer_occupancy,
            want.max_buffer_occupancy
        );
    });
    assert!(
        identical * 100 >= total_lines * 99,
        "only {identical} of {total_lines} line schedules are bit-identical to the oracle"
    );
}

/// Folds the little-endian bytes of a sequence of words into the FNV-1a
/// state `h`.
fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Digest of [`DmaPipeline`]'s schedules over the stepping mixes,
/// recorded before the schedule storage went from a ring to a linear
/// buffer compacted in place.
const SCHEDULE_DIGEST: u64 = 0xC3F8_DE70_EB1C_4D19;

/// The scan oracle's mixes through `DmaPipeline` alone, bit for bit:
/// every `LineSchedule` field and the `OffloadSimResult` of each run folded
/// into one FNV-1a digest, with a `reset()` halfway through every case
/// (the second half restarts its mix from a clock of zero). The oracle
/// suite's tolerances absorb a schedule moved by a rounding; this does not.
#[test]
fn stepping_schedules_are_pinned_bit_for_bit() {
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for_each_case(MIX_SEED, |case, rng| {
        let cfg = mix_config(case);
        let mut pipe = DmaPipeline::new(cfg);
        for half in 0..2 {
            if half == 1 {
                pipe.reset();
            }
            let mut mix = Mix::new(&cfg);
            let mut last_issue = 0.0f64;
            for _ in 0..MIX_LINES / 2 {
                let step = mix.next(rng, last_issue, pipe.result().total_time);
                if let Some(now) = step.advance {
                    pipe.advance_to(now);
                }
                let (u, c) = step.line;
                let s = pipe.push_line(step.release, u, c);
                last_issue = s.issue;
                digest = fnv(
                    digest,
                    [s.issue, s.read_done, s.arrival, s.drain_start, s.drain_end].map(f64::to_bits),
                );
            }
            assert_eq!(pipe.lines_pushed(), (MIX_LINES / 2) as u64, "case {case}");
            let r = pipe.result();
            digest = fnv(
                digest,
                [
                    r.uncompressed_bytes,
                    r.compressed_bytes,
                    r.total_time.to_bits(),
                    r.link_busy.to_bits(),
                    r.max_buffer_occupancy.to_bits(),
                ],
            );
        }
    });
    assert_eq!(digest, SCHEDULE_DIGEST, "got {digest:#018x}");
}
