//! Seeded property suite driving [`CalendarQueue`] against a retained
//! `BinaryHeap` oracle — the exact priority queue the simulators used
//! before the calendar refactor. The queue's contract is *bit-exact
//! order equivalence*: minimum `(time, seq)` with [`f64::total_cmp`]
//! times and insertion-sequence tie-breaks, under arbitrary interleaved
//! pushes and pops. ≥1000 random interleavings across the properties,
//! plus adversarial deterministic cases:
//!
//! 1. **random interleavings** — several hundred seeded trials of mixed
//!    push/pop traffic (clustered times, heavy ties, occasional past
//!    inserts) pop in exactly the oracle's order;
//! 2. **tie storms** — batches of equal-time events pop in insertion
//!    order (the synchronized stage-boundary shape of a 1000-GPU step);
//! 3. **bucket boundaries** — times sitting exactly on multiples of the
//!    bucket width, straddling adjacent buckets, and denormal-scale gaps
//!    below any sane width;
//! 4. **far future and non-finite** — events many "years" beyond the
//!    calendar (wrapping the bucket array arbitrarily often) and `±∞`
//!    order correctly with everything else.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cdma_vdnn::calendar::CalendarQueue;

/// Heap entry replicating the pre-refactor simulators' ordering: min by
/// `(time, seq)` via `total_cmp`, inverted for `BinaryHeap`'s max-heap.
#[derive(Debug, PartialEq)]
struct OracleEntry {
    time: f64,
    seq: u64,
}

impl Eq for OracleEntry {}

impl PartialOrd for OracleEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OracleEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The retained `BinaryHeap` oracle, assigning the same monotone
/// sequence numbers the calendar assigns.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<OracleEntry>,
    seq: u64,
}

impl Oracle {
    fn push(&mut self, time: f64) {
        self.heap.push(OracleEntry {
            time,
            seq: self.seq,
        });
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        self.heap.pop().map(|e| (e.time, e.seq))
    }

    fn min_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }
}

/// Deterministic LCG in [0, 1).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) % 1_000_000) as f64 / 1_000_000.0
}

/// Drains both queues, asserting every pop matches `(time, seq)` by bit
/// pattern.
fn drain_identically(q: &mut CalendarQueue<u64>, oracle: &mut Oracle, what: &str) {
    loop {
        assert_eq!(
            q.min_time().map(f64::to_bits),
            oracle.min_time().map(f64::to_bits),
            "{what}: min_time diverged"
        );
        match (q.pop(), oracle.pop()) {
            (None, None) => break,
            (a, b) => {
                let (at, aseq) = a.unwrap_or_else(|| panic!("{what}: calendar empty, oracle not"));
                let (bt, bseq) = b.unwrap_or_else(|| panic!("{what}: oracle empty, calendar not"));
                assert_eq!(at.to_bits(), bt.to_bits(), "{what}: time {at} vs {bt}");
                assert_eq!(aseq, bseq, "{what}: seq at t={at}");
            }
        }
    }
    assert!(q.is_empty(), "{what}: calendar not empty after drain");
}

#[test]
fn random_interleavings_match_the_heap_oracle() {
    // 600 seeded trials × (pushes + interleaved pops): every pop — and
    // every min_time peek — agrees with the heap, including ties.
    for trial in 0..600u64 {
        let mut seed = 0x5EED ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut q = CalendarQueue::new();
        let mut oracle = Oracle::default();
        let ops = 20 + (lcg(&mut seed) * 180.0) as usize;
        // Clustered times: a handful of "instants" most events share,
        // so ties are the common case, as in a synchronized step.
        let instants: Vec<f64> = (0..4 + (lcg(&mut seed) * 4.0) as usize)
            .map(|_| lcg(&mut seed) * 10.0)
            .collect();
        let mut t_base = 0.0f64;
        for _ in 0..ops {
            let r = lcg(&mut seed);
            if r < 0.6 || q.is_empty() {
                let time = match (lcg(&mut seed) * 4.0) as usize {
                    // An exact repeat of a shared instant (a tie).
                    0 | 1 => instants[(lcg(&mut seed) * instants.len() as f64) as usize],
                    // Monotone progress.
                    2 => {
                        t_base += lcg(&mut seed) * 0.5;
                        t_base
                    }
                    // A past insert: earlier than anything recent.
                    _ => lcg(&mut seed) * 0.1,
                };
                q.push(time, oracle.seq);
                oracle.push(time);
            } else {
                let (at, aseq) = q.pop().expect("non-empty");
                let (bt, bseq) = oracle.pop().expect("oracle tracks the calendar");
                assert_eq!(at.to_bits(), bt.to_bits(), "trial {trial}: pop time");
                assert_eq!(aseq, bseq, "trial {trial}: pop seq at t={at}");
            }
        }
        drain_identically(&mut q, &mut oracle, &format!("trial {trial}"));
    }
}

#[test]
fn tie_storms_pop_in_insertion_order() {
    // Batches of identical times — growing past several resizes — drain
    // strictly in sequence order, interleaved across two instants.
    let mut q = CalendarQueue::new();
    let mut oracle = Oracle::default();
    for i in 0..2000u64 {
        let t = if i % 2 == 0 { 1.25 } else { 3.75 };
        q.push(t, i);
        oracle.push(t);
    }
    drain_identically(&mut q, &mut oracle, "tie storm");
}

#[test]
fn bucket_boundary_times_order_correctly() {
    // Times on exact multiples of the initial width (1.0), epsilon
    // below/above them, and sub-width gaps: adjacent-bucket straddles
    // must not reorder.
    let mut q = CalendarQueue::new();
    let mut oracle = Oracle::default();
    let mut times = Vec::new();
    for k in 0..20 {
        let t = k as f64;
        times.extend([
            t,
            t - f64::EPSILON * t.abs().max(1.0),
            t + f64::EPSILON * t.abs().max(1.0),
            t + 0.5,
            t + 1e-300, // denormal-scale gap, far below any bucket width
        ]);
    }
    // Interleave from both ends so pushes are far from sorted.
    let n = times.len();
    for i in 0..n {
        let t = if i % 2 == 0 {
            times[i / 2]
        } else {
            times[n - 1 - i / 2]
        };
        q.push(t, oracle.seq);
        oracle.push(t);
    }
    drain_identically(&mut q, &mut oracle, "bucket boundaries");
}

#[test]
fn far_future_and_non_finite_times_order_correctly() {
    // Events 1e0 .. 1e300 apart wrap the bucket array arbitrarily many
    // "years"; ±∞ saturate; and near-term traffic pushed afterwards
    // still pops first.
    let mut q = CalendarQueue::new();
    let mut oracle = Oracle::default();
    for exp in 0..=300 {
        let t = 10f64.powi(exp);
        q.push(t, oracle.seq);
        oracle.push(t);
    }
    for t in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e-9] {
        q.push(t, oracle.seq);
        oracle.push(t);
    }
    // Past inserts after far-future ones rewind the scan.
    for i in 0..50u64 {
        let t = i as f64 * 1e-3;
        q.push(t, oracle.seq);
        oracle.push(t);
    }
    drain_identically(&mut q, &mut oracle, "far future");
}

#[test]
fn pop_times_are_monotone_under_random_traffic() {
    // Independent of the oracle: pops never go backwards unless a past
    // insert legitimately rewound the minimum, in which case the pop
    // still returns the true minimum (checked against a sorted shadow).
    for trial in 0..400u64 {
        let mut seed = 0xCA1E ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut q = CalendarQueue::new();
        let mut shadow: Vec<(u64, u64)> = Vec::new(); // (time_bits_ordered, seq)
        let mut pushed = 0u64;
        for _ in 0..120 {
            if lcg(&mut seed) < 0.55 || shadow.is_empty() {
                let time = lcg(&mut seed) * 16.0;
                q.push(time, pushed);
                // Order-preserving map of non-negative f64s to u64.
                shadow.push((time.to_bits(), pushed));
                pushed += 1;
            } else {
                let (t, v) = q.pop().expect("shadow says non-empty");
                let min = *shadow.iter().min().expect("shadow says non-empty");
                assert_eq!((t.to_bits(), v), min, "trial {trial}: not the minimum");
                let at = shadow.iter().position(|&e| e == min).expect("present");
                shadow.swap_remove(at);
            }
        }
    }
}
