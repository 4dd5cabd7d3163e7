//! # Indexed calendar event queue
//!
//! [`CalendarQueue`] is a classic Brown-style *calendar queue* — an array
//! of time buckets of width `w`, where an event at time `t` lives in
//! bucket `⌊t/w⌋ mod n`. Each bucket is kept sorted by `(time, seq)`, so
//! the bucket minimum is always its front: near-future pops touch one
//! deque end instead of re-heapifying, and a batch of simultaneous events
//! drains in O(1) per event instead of rescanning the bucket.
//!
//! No simulator uses it. It held the cluster simulator's stage starts
//! until those moved to a `BinaryHeap` with a FIFO lane for same-instant
//! starts (`StartQueue` in `cluster.rs`), which pops in the same order at
//! a lower cost. The queue stays because the benchmark's `sim_step`
//! workload times it (`vdnn.calendar.mops_per_s`, a hold model).
//!
//! ## Ordering contract
//!
//! Pop order is **exactly** a binary heap's: the minimum by `(time,
//! seq)` where times compare with [`f64::total_cmp`] and `seq` is the
//! insertion sequence number the queue assigns monotonically. Ties in
//! time therefore pop in insertion order (pinned against a `BinaryHeap`
//! oracle by `crates/vdnn/tests/calendar_queue_props.rs`).
//!
//! ## Robustness
//!
//! * **Far-future events** (times far beyond the bucket array's current
//!   "year") wrap modulo the array; because wrapped entries have strictly
//!   larger times they sort behind the current year's entries, so the
//!   scan decides each bucket by its front alone, and falls back to a
//!   direct minimum search over bucket fronts when a whole year is empty.
//! * **Past inserts** (an event scheduled before the last popped time)
//!   rewind the scan cursor, so the queue never skips them.
//! * **Non-finite times**: `±∞` saturate to the extreme virtual buckets
//!   and order correctly; `NaN` times are rejected (debug assertion) —
//!   the simulators never produce them.
//! * The bucket array doubles when occupancy exceeds two entries per
//!   bucket and halves when it drops below an eighth, re-deriving the
//!   bucket width from the queued span so the queue adapts to the
//!   simulation's event density.
//!
//! ```
//! use cdma_vdnn::calendar::CalendarQueue;
//!
//! let mut q = CalendarQueue::new();
//! q.push(2.0, "late");
//! q.push(1.0, "early");
//! q.push(1.0, "early-tie"); // same time: insertion order breaks the tie
//! assert_eq!(q.min_time(), Some(1.0));
//! assert_eq!(q.pop(), Some((1.0, "early")));
//! assert_eq!(q.pop(), Some((1.0, "early-tie")));
//! assert_eq!(q.pop(), Some((2.0, "late")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::VecDeque;

/// Smallest bucket count the array ever shrinks to (a power of two, so
/// the modulo is a mask).
const MIN_BUCKETS: usize = 16;

#[derive(Debug, Clone)]
struct Slot<T> {
    time: f64,
    seq: u64,
    value: T,
}

impl<T> Slot<T> {
    /// `(time, seq)` comparison against a key — the queue's total order.
    #[inline]
    fn cmp_key(&self, time: f64, seq: u64) -> Ordering {
        self.time.total_cmp(&time).then(self.seq.cmp(&seq))
    }
}

/// A bucketed calendar event queue with the heap's exact pop order. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Each bucket is sorted ascending by `(time, seq)`, so its minimum
    /// is the front.
    buckets: Vec<VecDeque<Slot<T>>>,
    /// Bucket width in seconds of simulated time.
    width: f64,
    len: usize,
    /// Next insertion sequence number (total across the queue's life).
    seq: u64,
    /// Virtual bucket number (`⌊t/w⌋`, unwrapped) the pop scan resumes
    /// from; never exceeds the minimum queued entry's virtual bucket.
    cursor: u64,
    /// Memoized bucket holding the current minimum (at its front);
    /// invalidated by every push and consumed by every pop.
    cached: Option<usize>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            width: 1.0,
            len: 0,
            seq: 0,
            cursor: 0,
            cached: None,
        }
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries pushed over the queue's lifetime (the sequence counter —
    /// also the tie-break key of the next push).
    pub fn pushed(&self) -> u64 {
        self.seq
    }

    #[inline]
    fn mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    /// Unwrapped bucket number of `time`. Saturating: `-∞` maps to 0,
    /// `+∞` to `u64::MAX`, so the mapping is weakly monotone in
    /// `total_cmp` order for every non-NaN time.
    #[inline]
    fn virtual_bucket(&self, time: f64) -> u64 {
        (time / self.width) as u64
    }

    /// Schedules `value` at `time`. Ties in time pop in push order.
    ///
    /// The common case — event times arriving in nondecreasing order per
    /// bucket, as simulators produce them — appends at the bucket's back
    /// in O(1); out-of-order times binary-search their slot.
    pub fn push(&mut self, time: f64, value: T) {
        debug_assert!(
            !time.is_nan(),
            "event times must be totally ordered (no NaN)"
        );
        let seq = self.seq;
        self.seq += 1;
        let vb = self.virtual_bucket(time);
        if self.len == 0 || vb < self.cursor {
            self.cursor = vb;
        }
        let b = (vb & self.mask()) as usize;
        let bucket = &mut self.buckets[b];
        let in_order = match bucket.back() {
            None => true,
            Some(s) => s.cmp_key(time, seq) == Ordering::Less,
        };
        if in_order {
            bucket.push_back(Slot { time, seq, value });
        } else {
            let i = bucket.partition_point(|s| s.cmp_key(time, seq) == Ordering::Less);
            bucket.insert(i, Slot { time, seq, value });
        }
        self.len += 1;
        self.cached = None;
        if self.len > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Time of the earliest entry (the one [`CalendarQueue::pop`] would
    /// return), or `None` when empty. `&mut` because the located minimum
    /// is memoized for the following pop.
    pub fn min_time(&mut self) -> Option<f64> {
        let b = self.locate()?;
        let front = self.buckets[b]
            .front()
            .expect("located bucket is non-empty");
        Some(front.time)
    }

    /// Removes and returns the earliest entry: minimum time
    /// ([`f64::total_cmp`]), ties broken by insertion sequence.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let b = self.locate()?;
        let slot = self.buckets[b]
            .pop_front()
            .expect("located bucket is non-empty");
        self.len -= 1;
        self.cached = None;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 8 {
            let half = self.buckets.len() / 2;
            self.resize(half.max(MIN_BUCKETS));
        }
        Some((slot.time, slot.value))
    }

    /// Locates the bucket whose front is the minimum entry, memoizing it:
    /// scans forward from the cursor one bucket per virtual step. No
    /// queued entry's virtual bucket precedes the scan position (the
    /// cursor invariant), and buckets are sorted, so a bucket's front
    /// either belongs to the scanned virtual bucket — and is the year's
    /// minimum — or the whole bucket is wrapped future and is skipped.
    /// When an entire year of buckets is empty, falls back to a direct
    /// minimum search over bucket fronts.
    fn locate(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        if self.cached.is_some() {
            return self.cached;
        }
        let nb = self.buckets.len() as u64;
        // One year: `nb` virtual steps from the cursor (saturating at
        // the +∞ bucket).
        for v in self.cursor..=self.cursor.saturating_add(nb - 1) {
            let b = (v & self.mask()) as usize;
            if let Some(front) = self.buckets[b].front() {
                if self.virtual_bucket(front.time) == v {
                    self.cursor = v;
                    self.cached = Some(b);
                    return self.cached;
                }
            }
        }
        // A whole year ahead of the cursor is empty: every remaining
        // entry is far in the future. Each bucket's minimum is its front,
        // so the global minimum is the least front; jump the cursor to
        // it.
        let mut best: Option<usize> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(s) = bucket.front() {
                let better = match best {
                    None => true,
                    Some(ob) => {
                        let o = self.buckets[ob].front().expect("candidate is non-empty");
                        s.cmp_key(o.time, o.seq) == Ordering::Less
                    }
                };
                if better {
                    best = Some(b);
                }
            }
        }
        let b = best.expect("non-empty queue has a minimum");
        let min_time = self.buckets[b]
            .front()
            .expect("candidate is non-empty")
            .time;
        self.cursor = self.virtual_bucket(min_time);
        self.cached = Some(b);
        self.cached
    }

    /// Rebuilds the bucket array at `new_len` buckets (a power of two),
    /// re-deriving the bucket width from the span of queued times so a
    /// bucket holds a few entries on average. Entries are redistributed
    /// in globally sorted order, which keeps every bucket sorted.
    fn resize(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two());
        let mut slots: Vec<Slot<T>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &slots {
            if s.time.is_finite() {
                lo = lo.min(s.time);
                hi = hi.max(s.time);
            }
        }
        if hi > lo && slots.len() > 1 {
            // Three average gaps per bucket keeps per-pop scans short
            // without making a year too brief.
            let w = (hi - lo) / slots.len() as f64 * 3.0;
            if w.is_finite() && w > 0.0 {
                self.width = w;
            }
        }
        slots.sort_by(|a, b| a.cmp_key(b.time, b.seq));
        self.buckets = (0..new_len).map(|_| VecDeque::new()).collect();
        self.cursor = u64::MAX;
        for s in slots {
            let vb = self.virtual_bucket(s.time);
            self.cursor = self.cursor.min(vb);
            let b = (vb & self.mask()) as usize;
            self.buckets[b].push_back(s);
        }
        if self.len == 0 {
            self.cursor = 0;
        }
        self.cached = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = CalendarQueue::new();
        q.push(3.0, 'c');
        q.push(1.0, 'a');
        q.push(2.0, 'b');
        q.push(1.0, 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!['a', 'd', 'b', 'c']);
    }

    #[test]
    fn survives_growth_shrink_and_far_future() {
        let mut q = CalendarQueue::new();
        for i in 0..200u64 {
            q.push(i as f64 * 1e-5, i);
        }
        q.push(1e12, 999); // far future: wraps many years
        q.push(f64::INFINITY, 1000);
        let mut prev = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.total_cmp(&prev) != Ordering::Less, "pop went backwards");
            prev = t;
            n += 1;
        }
        assert_eq!(n, 202);
        assert!(q.is_empty());
    }

    #[test]
    fn past_insert_rewinds_the_cursor() {
        let mut q = CalendarQueue::new();
        q.push(100.0, "far");
        assert_eq!(q.min_time(), Some(100.0));
        q.push(1.0, "near");
        assert_eq!(q.pop(), Some((1.0, "near")));
        assert_eq!(q.pop(), Some((100.0, "far")));
    }

    #[test]
    fn simultaneous_batch_drains_in_insertion_order() {
        // The 1000-GPU stage-boundary shape: one big batch at a single
        // instant, all landing in one bucket. Must drain front-to-back
        // in seq order without rescanning the bucket per pop.
        let mut q = CalendarQueue::new();
        for i in 0..1024u64 {
            q.push(0.5, i);
        }
        for i in 0..1024u64 {
            assert_eq!(q.pop(), Some((0.5, i)));
        }
        assert!(q.is_empty());
    }
}
