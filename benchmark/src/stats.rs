//! The statistics every reported number rests on: nearest-rank
//! percentiles, the "highest percentile with at least ten samples beyond
//! it" rule, the windowed-median tail used for serve latency, and the
//! section-wise quiet time the single-threaded workloads report.

/// Percentiles a tail may be reported at, lowest first, in per mille so
/// that the ten-beyond rule is integer arithmetic.
const TAIL_LADDER_PER_MILLE: [usize; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts `samples` ascending (`total_cmp`, so NaN cannot poison the
/// order) and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    // The epsilon keeps a product such as 0.999 * 1000 = 999.0000000000001
    // from being rounded up a whole rank.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// The highest rung of the ladder 50 / 90 / 99 / 99.9 that still has at
/// least [`MIN_BEYOND`] of `n` samples beyond it. With fewer than twenty
/// samples no rung qualifies and the median is all that can be reported.
pub fn supported_tail(n: usize) -> f64 {
    TAIL_LADDER_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n - (n * pm).div_ceil(1000) >= MIN_BEYOND)
        .map_or(50.0, |&pm| pm as f64 / 10.0)
}

/// The percentile a section's *quiet* time is read at.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// Host seconds of the timed sections of a step — the calls into the
/// program it is made of — one row per step, and the step's **quiet
/// time**: the sum over the sections of each section's
/// [`QUIET_PERCENTILE`] over the run.
///
/// The sandbox is a few cores of a shared host. What its other tenants do
/// only ever adds to a call's time, in bursts from tens of milliseconds
/// to minutes long, so the upper part of a call's distribution measures
/// the neighbours and the lower edge the program. A percentile of whole
/// steps does not get at that edge — a step of a second is hit somewhere
/// nearly every time — but each of its calls, a few milliseconds to a few
/// tens of them, runs undisturbed in some steps. Ten runs of
/// `offload_entropy` spread 8.4% at the median step, 8.2% at the tenth
/// percentile of steps and 3.9% at the sum of the calls' tenth
/// percentiles.
#[derive(Debug, Clone)]
pub struct Sections {
    width: usize,
    /// Row-major, `width` seconds per step.
    seconds: Vec<f64>,
}

impl Sections {
    /// For steps of `width` sections.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "a step has at least one section");
        Sections {
            width,
            seconds: Vec::new(),
        }
    }

    /// Sections per step.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Appends one step's section times.
    pub fn push_step(&mut self, seconds: &[f64]) {
        assert_eq!(
            seconds.len(),
            self.width,
            "a step has {} sections",
            self.width
        );
        self.seconds.extend_from_slice(seconds);
    }

    /// Quiet seconds of the sections in `columns`: each one's
    /// [`QUIET_PERCENTILE`] over the steps, summed.
    ///
    /// # Panics
    ///
    /// Panics when no step was recorded.
    pub fn quiet_s(&self, columns: std::ops::Range<usize>) -> f64 {
        assert!(columns.end <= self.width);
        columns
            .map(|c| {
                let column = self.seconds.iter().skip(c).step_by(self.width);
                percentile(&sorted(column.copied().collect()), QUIET_PERCENTILE)
            })
            .sum()
    }

    /// Quiet seconds of a whole step.
    pub fn quiet_step_s(&self) -> f64 {
        self.quiet_s(0..self.width)
    }

    /// Each step's total, in milliseconds.
    pub fn step_ms(&self) -> Vec<f64> {
        self.seconds
            .chunks_exact(self.width)
            .map(|step| step.iter().sum::<f64>() * 1e3)
            .collect()
    }
}

/// Latency samples bucketed into fixed windows of the time each request
/// was *due*, so one stall of the shared box lands in one window instead
/// of owning the whole run's tail.
#[derive(Debug, Clone)]
pub struct Windowed {
    window_s: f64,
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    /// Windows of `window_s` seconds covering `[0, horizon_s)`.
    pub fn new(window_s: f64, horizon_s: f64) -> Self {
        assert!(window_s > 0.0 && horizon_s > 0.0);
        let n = (horizon_s / window_s).ceil().max(1.0) as usize;
        Windowed {
            window_s,
            windows: vec![Vec::new(); n],
        }
    }

    /// Files `value` under the window holding `due_s` (late stragglers
    /// land in the last window).
    pub fn record(&mut self, due_s: f64, value: f64) {
        let i = ((due_s / self.window_s) as usize).min(self.windows.len() - 1);
        self.windows[i].push(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Each window's `p`-th percentile, skipping windows too thin to
    /// support `p`.
    fn per_window(&self, p: f64) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| !w.is_empty() && supported_tail(w.len()) >= p)
            .map(|w| percentile(&sorted(w.clone()), p))
            .collect()
    }

    /// Median over the windows of each window's `p`-th percentile; also
    /// returns how many windows took part. `None` when no window
    /// qualifies.
    pub fn median_of(&self, p: f64) -> Option<(f64, usize)> {
        self.percentile_of(p, 50.0)
    }

    /// The `across`-th percentile over the windows of each window's
    /// `p`-th percentile, and how many windows took part.
    pub fn percentile_of(&self, p: f64, across: f64) -> Option<(f64, usize)> {
        let per_window = sorted(self.per_window(p));
        (!per_window.is_empty()).then(|| (percentile(&per_window, across), per_window.len()))
    }

    /// The quietest window's `p`-th percentile. What the host's other
    /// tenants do to a latency tail only ever adds to it, so the lowest
    /// window is the one that says most about the program.
    pub fn quietest_of(&self, p: f64) -> Option<f64> {
        self.percentile_of(p, 0.0).map(|(v, _)| v)
    }
}

/// FNV-1a 64-bit — printed beside `core.report.json_bytes` so two runs
/// can be compared without keeping the megabyte of JSON.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Peak resident set (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Fewer than 20 samples: nothing above the median is supported.
        assert_eq!(supported_tail(1), 50.0);
        assert_eq!(supported_tail(19), 50.0);
        assert_eq!(supported_tail(20), 50.0);
        // p90 needs 100 samples (10 beyond), p99 needs 1000, p99.9 10 000.
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(9_999), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
        let samples: Vec<f64> = (0..400).map(f64::from).collect();
        let p = supported_tail(samples.len());
        assert_eq!(p, 90.0);
        // Exactly 40 samples lie beyond the reported value.
        let v = percentile(&samples, p);
        assert_eq!(samples.iter().filter(|&&x| x > v).count(), 40);
    }

    #[test]
    fn quiet_time_is_read_section_by_section() {
        // 20 steps of four 10 ms sections. A neighbour's burst lands on a
        // different section of every step and doubles it: every step takes
        // 50 ms, no step was ever quiet, every section was 15 times in 20.
        let mut s = Sections::new(4);
        for step in 0..20 {
            let mut row = [0.010; 4];
            row[step % 4] = 0.020;
            s.push_step(&row);
        }
        assert_eq!((s.step_ms().len(), s.width()), (20, 4));
        assert!(s.step_ms().iter().all(|&ms| (ms - 50.0).abs() < 1e-9));
        assert!((s.quiet_step_s() - 0.040).abs() < 1e-12);
        assert!((s.quiet_s(1..3) - 0.020).abs() < 1e-12);
        // A slow-down of the program itself is in every sample and shows.
        let mut slower = Sections::new(4);
        for step in 0..20 {
            let mut row = [0.010, 0.013, 0.010, 0.010];
            row[step % 4] *= 2.0;
            slower.push_step(&row);
        }
        assert!((slower.quiet_step_s() - 0.043).abs() < 1e-12);
        // The quiet time is the tenth percentile: of 20 samples the second
        // smallest, so one freak fast reading does not set it.
        let mut one_freak = Sections::new(1);
        one_freak.push_step(&[0.001]);
        for _ in 0..19 {
            one_freak.push_step(&[0.010]);
        }
        assert_eq!(one_freak.quiet_step_s(), 0.010);
    }

    #[test]
    fn windowed_median_ignores_one_stalled_window() {
        // Ten windows of 1 000 samples at ~100 µs; one window stalls.
        let mut w = Windowed::new(0.5, 5.0);
        for win in 0..10 {
            for i in 0..1000 {
                let due = win as f64 * 0.5 + i as f64 * 0.0005;
                let base = 100.0 + (i % 10) as f64;
                let v = if win == 3 { base + 19_000.0 } else { base };
                w.record(due, v);
            }
        }
        assert_eq!(w.count(), 10_000);
        assert_eq!(w.quietest_of(99.0), Some(109.0));
        assert_eq!(w.percentile_of(99.0, 10.0), Some((109.0, 10)));
        assert!(w.percentile_of(99.0, 100.0).unwrap().0 > 19_000.0);
        let (p99, n) = w.median_of(99.0).unwrap();
        assert_eq!(n, 10);
        assert!(p99 < 200.0, "windowed p99 {p99} must not see the stall");
        // The whole-run p99 is owned by the stalled window.
        let all = sorted(w.windows.iter().flatten().copied().collect());
        assert!(percentile(&all, 99.0) > 19_000.0);
    }

    #[test]
    fn windowed_skips_windows_too_thin_for_the_percentile() {
        let mut w = Windowed::new(1.0, 2.0);
        for i in 0..1000 {
            w.record(0.5, f64::from(i));
        }
        for i in 0..50 {
            w.record(1.5, 1e6 + f64::from(i));
        }
        // Window 1 has 50 samples: enough for p50, not for p99.
        assert_eq!(w.median_of(99.0).unwrap().1, 1);
        assert_eq!(w.median_of(50.0).unwrap().1, 2);
        // Past-the-horizon stragglers land in the last window.
        w.record(7.0, 0.0);
        assert_eq!(w.count(), 1051);
        assert!(Windowed::new(1.0, 1.0).median_of(50.0).is_none());
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
