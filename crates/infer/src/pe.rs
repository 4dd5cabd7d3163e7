//! The cycle-level processing-element array model.
//!
//! EIE's sparse matvec engine: N PEs each own a slice of the weight
//! matrix (row `r` lives on PE `r % N`), and a central unit broadcasts
//! one input activation — one matrix *column* — per cycle into every
//! PE's FIFO. Each PE drains its FIFO in order, spending one cycle per
//! retained weight of its slice of that column. Two hazards shape the
//! timeline, and both are modeled explicitly:
//!
//! * **FIFO backpressure** — the broadcaster stalls when any PE still
//!   has its copy of the activation from `fifo_depth` broadcasts ago in
//!   flight (Section VI of the EIE paper sizes these queues to smooth
//!   transient imbalance).
//! * **Load imbalance** — a PE whose slice is denser than its siblings'
//!   finishes columns late; the array's speedup over dense is bounded by
//!   the *maximum* per-PE work, not the mean. This is EIE's Fig. 9
//!   effect and the reason measured speedup trails `1 / density`.
//!
//! Leading-nonzero detection (SparseNN-style input sparsity) is the
//! `skip_zeros` switch of [`PeArray::run`]: zero activations are never
//! broadcast, so their columns vanish from the timeline entirely.

use crate::weights::CscMatrix;

/// Per-(column, PE) retained-weight counts — the only thing the timing
/// model needs to know about a matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeWorkload {
    rows: usize,
    cols: usize,
    pes: usize,
    /// `cols * pes` counts, column-major: entry `c * pes + k` is the
    /// retained weights PE `k` holds of column `c`.
    nnz: Vec<u32>,
}

impl PeWorkload {
    /// Slices `matrix` across `pes` processing elements, row-interleaved
    /// (row `r` on PE `r % pes`) exactly as EIE distributes rows.
    ///
    /// # Panics
    ///
    /// Panics on a zero PE count.
    pub fn from_matrix(matrix: &CscMatrix, pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let mut nnz = vec![0u32; cols * pes];
        for c in 0..cols {
            for (r, _) in matrix.column_nonzeros(c) {
                nnz[c * pes + (r % pes)] += 1;
            }
        }
        PeWorkload {
            rows,
            cols,
            pes,
            nnz,
        }
    }

    /// The dense baseline's workload: every PE multiplies its whole row
    /// slice for every column, `ceil(rows / pes)` MACs each.
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension or PE count.
    pub fn dense(rows: usize, cols: usize, pes: usize) -> Self {
        assert!(
            rows > 0 && cols > 0 && pes > 0,
            "dimensions must be non-zero"
        );
        let mut nnz = vec![0u32; cols * pes];
        for c in 0..cols {
            for k in 0..pes {
                // PE k owns rows k, k+pes, ... — count them exactly.
                nnz[c * pes + k] = (rows.saturating_sub(k).div_ceil(pes)) as u32;
            }
        }
        PeWorkload {
            rows,
            cols,
            pes,
            nnz,
        }
    }

    /// Matrix rows this workload slices.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns (broadcast slots).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Processing elements.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Retained weights PE `k` holds of column `c`.
    // pub: test oracle: differential.rs sums each column's PE slices
    pub fn col_pe_nnz(&self, c: usize, k: usize) -> u32 {
        self.nnz[c * self.pes + k]
    }

    /// Mutable access for property tests that perturb one slice.
    #[cfg(test)]
    fn col_pe_nnz_mut(&mut self, c: usize, k: usize) -> &mut u32 {
        &mut self.nnz[c * self.pes + k]
    }
}

/// One PE's busy time, as coalesced `[start, end)` cycle intervals —
/// the same shape the event-log/Gantt reports render.
pub type BusyIntervals = Vec<(u64, u64)>;

/// The result of one array run.
#[derive(Debug, Clone, PartialEq)]
pub struct PeTimeline {
    /// Total cycles from first broadcast to last retired MAC.
    pub cycles: u64,
    /// Columns actually broadcast.
    pub broadcasts: u64,
    /// Columns skipped by leading-nonzero detection (zero activations).
    pub skipped: u64,
    /// Cycles the broadcaster spent stalled on a full PE FIFO.
    pub stall_cycles: u64,
    /// MAC cycles per PE (its retained work across broadcast columns).
    pub busy_cycles: Vec<u64>,
    /// Per-PE coalesced busy intervals, cycle-granular.
    pub intervals: Vec<BusyIntervals>,
}

impl PeTimeline {
    /// Max-over-mean per-PE busy cycles: 1.0 is perfectly balanced, and
    /// the array's useful throughput divides by this factor.
    pub fn load_imbalance(&self) -> f64 {
        let max = self.busy_cycles.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.busy_cycles.iter().sum::<u64>() as f64 / self.busy_cycles.len() as f64;
        max as f64 / mean
    }

    /// Fraction of `pes x cycles` spent on retained MACs.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.busy_cycles.iter().sum::<u64>() as f64
            / (self.cycles as f64 * self.busy_cycles.len() as f64)
    }
}

/// Execution trace kept by [`PeArray::run_traced`] for invariant checks:
/// exact broadcast and per-PE start/finish times per column.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
struct PeTrace {
    /// Cycle each processed column was broadcast at.
    pub broadcast_cycles: Vec<u64>,
    /// `spans[k][n] = (start, finish)` of PE `k` on the `n`-th processed
    /// column (equal start/finish when the PE held no weights there).
    pub spans: Vec<Vec<(u64, u64)>>,
}

/// The array configuration: PE count, FIFO depth, clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeArray {
    /// Processing elements (EIE builds 64).
    pub pes: usize,
    /// Activation-FIFO entries per PE (broadcast-ahead window).
    pub fifo_depth: usize,
    /// Clock in Hz, used only to convert cycle timelines to seconds
    /// (EIE signs off at 800 MHz).
    pub clock_hz: f64,
}

impl PeArray {
    /// An array of `pes` elements at EIE's defaults: 8-deep activation
    /// FIFOs, 800 MHz.
    ///
    /// # Panics
    ///
    /// Panics on a zero PE count.
    pub fn new(pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        PeArray {
            pes,
            fifo_depth: 8,
            clock_hz: 800e6,
        }
    }

    /// Overrides the FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics on a zero depth (a depth-1 FIFO means fully synchronous
    /// broadcast: every PE must finish a column before the next one).
    pub fn fifo_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "FIFO needs at least one slot");
        self.fifo_depth = depth;
        self
    }

    /// Cycles a dense array of this PE count spends on a `rows x cols`
    /// matvec: every column costs the full `ceil(rows / pes)` slice.
    pub fn dense_cycles(&self, rows: usize, cols: usize) -> u64 {
        cols as u64 * (rows.div_ceil(self.pes)) as u64
    }

    /// Runs one matvec through the array. `acts` supplies the input
    /// activations (only their zero pattern matters to timing); with
    /// `skip_zeros` the broadcaster's leading-nonzero detector drops
    /// zero activations before they reach the FIFOs.
    ///
    /// # Panics
    ///
    /// Panics unless `acts` has one entry per workload column and the
    /// workload was sliced for this array's PE count.
    pub fn run(&self, workload: &PeWorkload, acts: &[f32], skip_zeros: bool) -> PeTimeline {
        self.simulate(workload, acts, skip_zeros, |_, _, _, _| {})
    }

    /// [`PeArray::run`] keeping a full [`PeTrace`] — quadratic memory in
    /// the matrix size, meant for tests.
    #[cfg(test)]
    fn run_traced(
        &self,
        workload: &PeWorkload,
        acts: &[f32],
        skip_zeros: bool,
    ) -> (PeTimeline, PeTrace) {
        let mut trace = PeTrace {
            broadcast_cycles: Vec::new(),
            spans: vec![Vec::new(); self.pes],
        };
        let timeline = self.simulate(workload, acts, skip_zeros, |k, t, start, finish| {
            if k == 0 {
                trace.broadcast_cycles.push(t);
            }
            trace.spans[k].push((start, finish));
        });
        (timeline, trace)
    }

    fn simulate(
        &self,
        workload: &PeWorkload,
        acts: &[f32],
        skip_zeros: bool,
        mut observe: impl FnMut(usize, u64, u64, u64),
    ) -> PeTimeline {
        assert_eq!(
            acts.len(),
            workload.cols(),
            "one activation per matrix column"
        );
        assert_eq!(workload.pes(), self.pes, "workload sliced for this array");
        let pes = self.pes;
        let depth = self.fifo_depth;
        // finish[k] of the previous column, and a ring of the last
        // `depth` finishes per PE for the FIFO-space constraint.
        let mut finish_prev = vec![0u64; pes];
        let mut finish_ring = vec![0u64; pes * depth];
        let mut busy = vec![0u64; pes];
        let mut intervals: Vec<BusyIntervals> = vec![Vec::new(); pes];
        let mut t_prev: Option<u64> = None;
        let mut processed = 0u64;
        let mut skipped = 0u64;
        let mut stall_cycles = 0u64;
        let mut makespan = 0u64;

        for (c, &a) in acts.iter().enumerate() {
            if skip_zeros && a == 0.0 {
                skipped += 1;
                continue;
            }
            let n = processed as usize;
            // Earliest issue: one broadcast per cycle, and every PE must
            // have retired its entry from `depth` broadcasts ago.
            let mut t = match t_prev {
                None => 0,
                Some(p) => p + 1,
            };
            if n >= depth {
                let slot = n % depth;
                let gate = (0..pes)
                    .map(|k| finish_ring[k * depth + slot])
                    .max()
                    .unwrap_or(0);
                if gate > t {
                    stall_cycles += gate - t;
                    t = gate;
                }
            }
            for k in 0..pes {
                let w = u64::from(workload.col_pe_nnz(c, k));
                let start = t.max(finish_prev[k]);
                let finish = start + w;
                if w > 0 {
                    busy[k] += w;
                    match intervals[k].last_mut() {
                        Some(last) if last.1 == start => last.1 = finish,
                        _ => intervals[k].push((start, finish)),
                    }
                }
                finish_prev[k] = finish;
                finish_ring[k * depth + n % depth] = finish;
                makespan = makespan.max(finish);
                observe(k, t, start, finish);
            }
            makespan = makespan.max(t + 1);
            t_prev = Some(t);
            processed += 1;
        }

        PeTimeline {
            cycles: makespan,
            broadcasts: processed,
            skipped,
            stall_cycles,
            busy_cycles: busy,
            intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synth_workload(rng: &mut StdRng, rows: usize, cols: usize, pes: usize) -> PeWorkload {
        let density = rng.gen_range(0.05..0.5);
        let seed = rng.gen_range(0..u64::MAX);
        PeWorkload::from_matrix(&CscMatrix::synth(rows, cols, density, seed), pes)
    }

    #[test]
    fn dense_workload_is_perfectly_balanced() {
        let w = PeWorkload::dense(64, 100, 8);
        let acts = vec![1.0f32; 100];
        let t = PeArray::new(8).run(&w, &acts, false);
        assert_eq!(t.load_imbalance(), 1.0);
        assert_eq!(t.broadcasts, 100);
        assert_eq!(t.skipped, 0);
        // 8 MACs per PE per column; the pipeline drains at one column
        // per 8 cycles after the FIFO fills.
        assert_eq!(t.busy_cycles, vec![100 * 8; 8]);
        assert!(t.cycles >= PeArray::new(8).dense_cycles(64, 100));
        // Rows not divisible by PEs: the last PEs hold one fewer row.
        let w = PeWorkload::dense(13, 4, 8);
        assert_eq!(w.col_pe_nnz(0, 0), 2);
        assert_eq!(w.col_pe_nnz(0, 4), 2);
        assert_eq!(w.col_pe_nnz(0, 5), 1);
    }

    #[test]
    fn sparse_beats_dense_and_skipping_beats_sparse() {
        let m = CscMatrix::synth(256, 256, 0.1, 42);
        let arr = PeArray::new(16);
        let w = PeWorkload::from_matrix(&m, 16);
        let mut acts = vec![0.0f32; 256];
        crate::weights::fill_weights(5, 0.3, &mut acts);
        let dense = arr.run(&PeWorkload::dense(256, 256, 16), &acts, false);
        let csc = arr.run(&w, &acts, false);
        let csc_act = arr.run(&w, &acts, true);
        assert!(csc.cycles < dense.cycles / 3, "10% weights cut most MACs");
        assert!(csc_act.cycles < csc.cycles, "LNZD removes ~70% of columns");
        assert_eq!(csc_act.broadcasts + csc_act.skipped, 256);
        assert!(csc_act.skipped > 256 / 2);
        assert!(csc.load_imbalance() > 1.0, "random slices are imbalanced");
        // First broadcast issues at cycle 0, so the uniform pipeline
        // hits the closed-form dense bound exactly.
        assert_eq!(dense.cycles, arr.dense_cycles(256, 256));
    }

    #[test]
    fn single_pe_serializes_all_work() {
        let m = CscMatrix::synth(32, 20, 0.4, 9);
        let w = PeWorkload::from_matrix(&m, 1);
        let acts = vec![1.0f32; 20];
        let t = PeArray::new(1).run(&w, &acts, false);
        let nnz: u64 = (0..m.cols())
            .map(|c| m.column_nonzeros(c).count() as u64)
            .sum();
        assert_eq!(t.busy_cycles[0], nnz);
        // One PE: makespan is total work plus any cycles where a column
        // broadcast outpaces an empty slice.
        assert!(t.cycles >= nnz);
        assert_eq!(t.load_imbalance(), 1.0);
        assert_eq!(t.utilization(), nnz as f64 / t.cycles as f64);
    }

    #[test]
    fn fifo_depth_one_forces_synchronous_columns() {
        // depth 1: every PE finishes column n before n+1 broadcasts, so
        // makespan is the sum over columns of the max per-PE work.
        let m = CscMatrix::synth(64, 40, 0.3, 4);
        let w = PeWorkload::from_matrix(&m, 4);
        let acts = vec![1.0f32; 40];
        let t = PeArray::new(4).fifo_depth(1).run(&w, &acts, false);
        let mut t_issue = 0u64;
        let mut drain = 0u64;
        let mut want = 0u64;
        for c in 0..40 {
            let peak = (0..4).map(|k| u64::from(w.col_pe_nnz(c, k))).max().unwrap();
            // Issue at max(prev issue + 1, prev column fully drained);
            // the column retires `peak` cycles later.
            if c > 0 {
                t_issue = (t_issue + 1).max(drain);
            }
            drain = t_issue + peak;
            want = want.max(drain);
        }
        assert_eq!(t.cycles, want.max(t_issue + 1));
        // Deeper FIFOs can only help.
        let deep = PeArray::new(4).fifo_depth(16).run(&w, &acts, false);
        assert!(deep.cycles <= t.cycles);
        assert!(deep.stall_cycles <= t.stall_cycles);
    }

    #[test]
    fn work_conservation_no_idle_pe_with_backlog() {
        // Recorded invariant: whenever PE k sat idle between consecutive
        // columns (start > previous finish), the gap existed because its
        // queue was empty — the next column had not been broadcast yet,
        // so its start coincides with that broadcast.
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..20 {
            let pes = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
            let rows = rng.gen_range(8usize..64);
            let cols = rng.gen_range(4usize..48);
            let w = synth_workload(&mut rng, rows, cols, pes);
            let mut acts = vec![0.0f32; w.cols()];
            crate::weights::fill_weights(rng.gen_range(0..u64::MAX), 0.5, &mut acts);
            let skip = rng.gen_range(0u32..2) == 1;
            let (timeline, trace) = PeArray::new(pes)
                .fifo_depth([1usize, 2, 8][rng.gen_range(0usize..3)])
                .run_traced(&w, &acts, skip);
            for k in 0..pes {
                for n in 1..trace.spans[k].len() {
                    let (start, _) = trace.spans[k][n];
                    let (_, prev_finish) = trace.spans[k][n - 1];
                    if start > prev_finish {
                        assert_eq!(
                            start, trace.broadcast_cycles[n],
                            "idle PE must be waiting on the broadcaster"
                        );
                    }
                }
                // Busy accounting matches the trace.
                let traced: u64 = trace.spans[k].iter().map(|&(a, b)| b - a).sum();
                assert_eq!(traced, timeline.busy_cycles[k]);
            }
            // Broadcasts issue at least one cycle apart.
            assert!(trace.broadcast_cycles.windows(2).all(|p| p[1] > p[0]));
        }
    }

    #[test]
    fn cycles_monotone_in_nnz() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let pes = [2usize, 4, 8][rng.gen_range(0usize..3)];
            let rows = rng.gen_range(8usize..64);
            let cols = rng.gen_range(4usize..32);
            let mut w = synth_workload(&mut rng, rows, cols, pes);
            let acts = vec![1.0f32; w.cols()];
            let arr = PeArray::new(pes).fifo_depth(rng.gen_range(1usize..9));
            let before = arr.run(&w, &acts, false);
            // Grow one random slice; total time can never shrink.
            let c = rng.gen_range(0..w.cols());
            let k = rng.gen_range(0..pes);
            *w.col_pe_nnz_mut(c, k) += rng.gen_range(1u32..4);
            let after = arr.run(&w, &acts, false);
            assert!(
                after.cycles >= before.cycles,
                "adding work shrank the makespan"
            );
            assert!(after.busy_cycles[k] > before.busy_cycles[k]);
        }
    }

    #[test]
    fn intervals_are_coalesced_and_convertible() {
        let m = CscMatrix::synth(64, 32, 0.3, 1);
        let w = PeWorkload::from_matrix(&m, 4);
        let acts = vec![1.0f32; 32];
        let t = PeArray::new(4).run(&w, &acts, false);
        for k in 0..4 {
            let iv = &t.intervals[k];
            assert!(iv.iter().all(|&(a, b)| b > a));
            assert!(iv.windows(2).all(|p| p[0].1 < p[1].0), "coalesced + sorted");
            let busy: u64 = iv.iter().map(|&(a, b)| b - a).sum();
            assert_eq!(busy, t.busy_cycles[k]);
        }
    }
}
