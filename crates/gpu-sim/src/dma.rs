use crate::staging;
use crate::SystemConfig;

/// Compression-window granularity of the offload pipeline (one 4 KB window
/// per request, matching the evaluation's compression window).
pub const LINE_BYTES: usize = 4 * 1024;

/// Ticks of [`DmaPipeline`]'s clock per second: it counts femtoseconds,
/// which puts five hours in a `u64`.
const FS_PER_S: f64 = 1e15;

/// Seconds of `fs` femtoseconds — a [`DmaPipeline`] clock reading or busy
/// total in the unit the rest of the workspace keeps time in.
pub fn fs_to_seconds(fs: u64) -> f64 {
    fs as f64 * 1e-15
}

/// The femtosecond nearest `s` seconds (0 for a negative time).
fn seconds_to_fs(s: f64) -> u64 {
    (s * FS_PER_S + 0.5) as u64
}

/// Femtoseconds `bytes` take at `fs_per_byte`, to the nearest tick. Adding
/// a half and truncating keeps a libm `round` off the per-line path.
fn duration(bytes: u32, fs_per_byte: f64) -> u64 {
    (bytes as f64 * fs_per_byte + 0.5) as i64 as u64
}

/// `fs` (positive) rounded up to a whole tick.
fn ceil_fs(fs: f64) -> u64 {
    let whole = fs as i64;
    (whole + i64::from((whole as f64) < fs)) as u64
}

/// A byte count or a time difference as `f64`. These stay far below 2^63,
/// so the one-instruction signed conversion serves; `u64`'s takes several
/// on x86-64, and this runs a few times per line.
fn small_f64(x: u64) -> f64 {
    x as i64 as f64
}

/// Result of one simulated offload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadSimResult {
    /// Uncompressed bytes read from GPU DRAM.
    pub uncompressed_bytes: u64,
    /// Compressed bytes that crossed the link.
    pub compressed_bytes: u64,
    /// Wall-clock seconds from first read to last byte on the link.
    pub total_time: f64,
    /// Seconds the link spent busy.
    pub link_busy: f64,
    /// High-water mark of the DMA staging buffer (compressed bytes
    /// actually resident).
    pub max_buffer_occupancy: f64,
}

impl OffloadSimResult {
    /// Link utilization in `[0, 1]`.
    pub fn link_utilization(&self) -> f64 {
        if self.total_time == 0.0 {
            return 1.0;
        }
        self.link_busy / self.total_time
    }

    /// Effective offload bandwidth in uncompressed bytes/second — the
    /// number the vDNN latency model consumes.
    pub fn effective_bw(&self) -> f64 {
        if self.total_time == 0.0 {
            return f64::INFINITY;
        }
        self.uncompressed_bytes as f64 / self.total_time
    }
}

/// One issued line of the link schedule, times in femtoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    arrival: u64,
    drain_start: u64,
    drain_end: u64,
    uncompressed: u32,
    compressed: u32,
}

/// The computed schedule of one pushed line (all times absolute seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSchedule {
    /// When the DMA engine issued the read request.
    pub issue: f64,
    /// When the read-path slot frees (`issue + uncompressed / COMP_BW`).
    pub read_done: f64,
    /// When the compressed line lands in the staging buffer.
    pub arrival: f64,
    /// When PCIe starts draining the line.
    pub drain_start: f64,
    /// When the line's last byte leaves on the link.
    pub drain_end: f64,
}

/// What [`DmaPipeline::push_table`] did with a repeated line table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableRun {
    /// When everything pushed so far, the table's last line included,
    /// has left on the link (absolute seconds).
    pub end: f64,
    /// Femtoseconds the read path spent issuing the table: each line's
    /// read time, times the repeat count.
    pub read_busy_fs: u64,
    /// Femtoseconds the link spent draining the table, likewise.
    pub link_busy_fs: u64,
    /// Repeats pushed line by line; the rest were extrapolated.
    pub stepped: usize,
}

/// The pipeline's state relative to its read clock at the start of one
/// repeat of a table: everything a push reads once the read clock has
/// passed the table's release time, with every instant stored as its
/// (wrapping) offset from that clock.
#[derive(Debug, Clone, Default, PartialEq)]
struct Snapshot {
    drain_free: u64,
    /// `arrived - head` and `peak_head - head`.
    cursors: (usize, usize),
    /// `reserved`, `resident` and `peak_resident`.
    bytes: (u64, u64, u64),
    /// `sched[head..]`.
    live: Vec<Line>,
}

/// Incremental, event-stepped form of the cDMA offload path (Section V-B).
///
/// The modelled pipeline: the DMA engine issues read requests, paced by the
/// provisioned compression read bandwidth (`COMP_BW`); each request returns
/// after the 350 ns memory latency, compressed at the memory controllers on
/// the way; compressed lines land in the DMA staging buffer, which PCIe
/// drains continuously.
///
/// Backpressure reproduces the paper's provisioning argument verbatim: the
/// engine "does not know a priori which responses will be compressed or
/// not", so every in-flight request reserves its full **uncompressed** size
/// in the buffer, and issuing stalls when `reserved + occupancy + next`
/// would exceed the buffer capacity. Undersizing the buffer therefore
/// throttles the read stream and starves PCIe exactly as Section V-C
/// predicts.
///
/// The pipeline is a clocked unit, like the engine it models: it keeps
/// time in integer femtoseconds and bytes in integers. Each line's read
/// and drain times are rounded to a tick once, when it is pushed (on PCIe
/// they are exact: 5 000 fs a byte read, 78 125 fs a byte on the link, a
/// 350 000 000 fs latency); times cross into seconds only at the API.
/// Every step after that reads time differences only, so a schedule
/// shifted in time evolves as the same schedule shifted — which is what
/// lets [`DmaPipeline::push_table`] replay a repeated table once.
///
/// The pipeline is *incremental*: lines are pushed with a release time
/// (`not_before`), so callers — notably `cdma_vdnn`'s event-driven
/// training-step timeline — schedule transfers on a shared simulation
/// clock, overlapping them with compute events instead of timing each
/// transfer as an isolated standalone run.
#[derive(Debug, Clone)]
pub struct DmaPipeline {
    /// Femtoseconds the read path takes per uncompressed byte.
    read_fs_per_byte: f64,
    /// Femtoseconds the link takes per compressed byte.
    link_fs_per_byte: f64,
    /// Its inverse, the link rate per femtosecond.
    link_bytes_per_fs: f64,
    capacity: u64,
    /// `capacity`, for the admission rule's arithmetic.
    capacity_f64: f64,
    latency: u64,
    /// High-water mark of [`DmaPipeline::advance_to`]: state before this
    /// time has been retired, so no line may issue earlier.
    now: u64,
    /// When the read path can issue the next request.
    t_read_free: u64,
    /// When the link finishes draining everything pushed so far.
    drain_free: u64,
    /// Issued lines in issue order, read through three forward-only
    /// cursors, `head <= arrived` and `head <= peak_head`. Lines stay where
    /// they were pushed; only a push that finds the storage full, with at
    /// least half of it drained, moves the live `sched[head..]` to the
    /// front ([`DmaPipeline::compact`]).
    sched: Vec<Line>,
    /// Issue-clock cursor: `sched[..head]` have fully drained at the issue
    /// clock and are dead.
    head: usize,
    /// Issue-clock cursor: `sched[head..arrived]` have landed in the
    /// buffer, `sched[arrived..]` are reads still in flight.
    arrived: usize,
    /// Uncompressed reservations of the in-flight `sched[arrived..]`.
    reserved: u64,
    /// Compressed bytes of the landed `sched[head..arrived]`.
    resident: u64,
    /// Arrival-clock cursor: `sched[..peak_head]` are fully drained at the
    /// newest line's arrival instant, where the high-water mark is read.
    peak_head: usize,
    /// Compressed bytes of `sched[peak_head..]`.
    peak_resident: u64,
    max_occ: f64,
    total_u: u64,
    total_c: u64,
    lines: u64,
    /// Femtoseconds the link has spent draining.
    link_fs: u64,
}

impl DmaPipeline {
    /// Creates an idle pipeline over a platform configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        DmaPipeline {
            read_fs_per_byte: FS_PER_S / cfg.usable_comp_bw(),
            link_fs_per_byte: FS_PER_S / cfg.pcie_bw,
            link_bytes_per_fs: cfg.pcie_bw / FS_PER_S,
            capacity: cfg.dma_buffer as u64,
            capacity_f64: cfg.dma_buffer as f64,
            latency: seconds_to_fs(cfg.mem_latency),
            now: 0,
            t_read_free: 0,
            drain_free: 0,
            sched: Vec::new(),
            head: 0,
            arrived: 0,
            reserved: 0,
            resident: 0,
            peak_head: 0,
            peak_resident: 0,
            max_occ: 0.0,
            total_u: 0,
            total_c: 0,
            lines: 0,
            link_fs: 0,
        }
    }

    /// Moves the issue clock to `t`: reads that arrived by `t` swap their
    /// uncompressed reservation for their compressed footprint, and lines
    /// fully drained by `t` fall behind `head`. The cursors only move
    /// forward (issue times are monotone), so a line is visited once by
    /// each.
    fn retire(&mut self, t: u64) {
        while let Some(e) = self.sched.get(self.arrived) {
            if e.arrival > t {
                break;
            }
            self.reserved -= e.uncompressed as u64;
            self.resident += e.compressed as u64;
            self.arrived += 1;
        }
        while let Some(e) = self.sched.get(self.head) {
            if e.drain_end > t {
                break;
            }
            self.resident -= e.compressed as u64;
            // The arrival clock runs a memory latency ahead of the issue
            // clock except across an idle gap or an `advance_to`, where it
            // lags until the next push: a line it has not passed yet leaves
            // its sum here, and `peak_head` is carried up to `head` below.
            if self.peak_head <= self.head {
                self.peak_resident -= e.compressed as u64;
            }
            self.head += 1;
        }
        self.peak_head = self.peak_head.max(self.head);
    }

    /// Moves the live `sched[head..]` to the front of the storage, so the
    /// next push reuses the slots of drained lines instead of growing it.
    fn compact(&mut self) {
        let dead = self.head;
        self.sched.drain(..dead);
        self.head = 0;
        self.arrived -= dead;
        self.peak_head -= dead;
    }

    /// Pushes one `(uncompressed, compressed)` line into the pipeline. The
    /// read issues no earlier than `not_before` (the moment the transfer is
    /// requested — e.g. the start of the layer's compute stage), subject to
    /// read-path pacing and buffer backpressure. Returns the line's
    /// schedule; the transfer's `total_time` ([`DmaPipeline::result`]) moves
    /// to its drain end.
    ///
    /// The backpressure search steps through the pipeline's own events:
    /// every pass either consumes one in-flight arrival or computes the
    /// final issue time directly from the continuous link drain, so it
    /// terminates after at most one pass per in-flight line plus one — no
    /// iteration bound required. A pass costs O(1): issue and arrival times
    /// are monotone and the link drains in issue order, so the buffer's
    /// content at the issue clock is an exact running byte sum between two
    /// forward-only cursors, plus what is left of the one line part-way
    /// out on the link. Storing the line is amortised O(1) too: when the
    /// storage is full and at least half its lines have drained, the live
    /// ones move to the front (at most one move per push, amortised), and
    /// otherwise it grows — so it never exceeds four times the most lines
    /// ever live at once, however many are pushed.
    ///
    /// # Panics
    ///
    /// Panics if the uncompressed line exceeds the DMA buffer capacity (it
    /// could never be issued).
    // Inlined so that a caller which ignores the schedule (the engine, the
    // benchmark) does not pay for converting it to seconds.
    #[inline]
    pub fn push_line(
        &mut self,
        not_before: f64,
        uncompressed: u32,
        compressed: u32,
    ) -> LineSchedule {
        let (issue, line) = self.push(seconds_to_fs(not_before), uncompressed, compressed);
        LineSchedule {
            issue: fs_to_seconds(issue),
            read_done: fs_to_seconds(self.t_read_free),
            arrival: fs_to_seconds(line.arrival),
            drain_start: fs_to_seconds(line.drain_start),
            drain_end: fs_to_seconds(line.drain_end),
        }
    }

    /// Pushes `repeat` back-to-back copies of the line table `lines`, all
    /// released at `not_before` — a minibatch of images sharing one
    /// per-image table. Leaves the pipeline exactly as pushing every line
    /// with [`DmaPipeline::push_line`] would, usually without doing so.
    ///
    /// Once the read clock has passed `not_before` (and the last
    /// [`DmaPipeline::advance_to`]), every push reads time differences
    /// only, so a repeat is a function of the state it starts in, taken
    /// relative to the read clock. From then on each repeat starts with a
    /// snapshot of that state. When one equals the snapshot before it
    /// (integer for integer), the schedule has turned periodic: every
    /// repeat left is the one just stepped, shifted by the interval it
    /// took. They are then skipped — the clocks and the live lines move by
    /// that interval times the repeats left, the byte and line counts grow
    /// by the table's, and the high-water mark already holds, since the
    /// repeat just stepped saw every occupancy the skipped ones would.
    ///
    /// # Panics
    ///
    /// Panics if a line exceeds the DMA buffer capacity, as
    /// [`DmaPipeline::push_line`] does.
    pub fn push_table(&mut self, not_before: f64, lines: &[(u32, u32)], repeat: usize) -> TableRun {
        let not_before = seconds_to_fs(not_before);
        let (mut table_u, mut table_c, mut read_fs, mut drain_fs) = (0u64, 0u64, 0u64, 0u64);
        for &(u, c) in lines {
            table_u += u as u64;
            table_c += c as u64;
            read_fs += duration(u, self.read_fs_per_byte);
            drain_fs += duration(c, self.link_fs_per_byte);
        }
        // The previous repeat's snapshot and the read clock it was taken
        // at, and this repeat's.
        let (mut prev, mut snap) = (Snapshot::default(), Snapshot::default());
        let mut prev_start = None;
        let mut stepped = 0;
        while stepped < repeat && !lines.is_empty() {
            let start = self.t_read_free;
            if start >= not_before.max(self.now) {
                self.snapshot(&mut snap);
                if let Some(t) = prev_start.filter(|_| snap == prev) {
                    let left = (repeat - stepped) as u64;
                    self.shift((start - t) * left);
                    self.total_u += table_u * left;
                    self.total_c += table_c * left;
                    self.lines += lines.len() as u64 * left;
                    self.link_fs += drain_fs * left;
                    break;
                }
                std::mem::swap(&mut prev, &mut snap);
                prev_start = Some(start);
            }
            for &(u, c) in lines {
                self.push(not_before, u, c);
            }
            stepped += 1;
        }
        TableRun {
            end: fs_to_seconds(self.drain_free),
            read_busy_fs: read_fs * repeat as u64,
            link_busy_fs: drain_fs * repeat as u64,
            stepped,
        }
    }

    /// Compressed bytes resident in the buffer at time `t`, from `sum`, the
    /// exact byte count of the lines that have arrived and not fully
    /// drained by `t`, and the oldest such line. The link drains in issue
    /// order, so only that one can be part-way out; what is left of it is
    /// its remaining drain time at the link rate (a multiply: this runs
    /// once or twice a line).
    fn occupancy(&self, sum: u64, oldest: Option<&Line>, t: u64) -> f64 {
        match oldest {
            Some(e) if e.drain_start < t => {
                let left = small_f64(e.drain_end - t) * self.link_bytes_per_fs;
                small_f64(sum - e.compressed as u64) + left
            }
            _ => small_f64(sum),
        }
    }

    /// Records the state relative to the read clock into `into`.
    fn snapshot(&self, into: &mut Snapshot) {
        let origin = self.t_read_free;
        let rel = |t: u64| t.wrapping_sub(origin);
        into.drain_free = rel(self.drain_free);
        into.cursors = (self.arrived - self.head, self.peak_head - self.head);
        into.bytes = (self.reserved, self.resident, self.peak_resident);
        into.live.clear();
        into.live
            .extend(self.sched[self.head..].iter().map(|e| Line {
                arrival: rel(e.arrival),
                drain_start: rel(e.drain_start),
                drain_end: rel(e.drain_end),
                ..*e
            }));
    }

    /// Moves the read clock, the link clock and every live line `by`
    /// femtoseconds later.
    fn shift(&mut self, by: u64) {
        self.t_read_free += by;
        self.drain_free += by;
        for e in &mut self.sched[self.head..] {
            e.arrival += by;
            e.drain_start += by;
            e.drain_end += by;
        }
    }

    /// [`DmaPipeline::push_line`] on the clock: issues one line released at
    /// `not_before` and returns its issue instant and its stored line.
    fn push(&mut self, not_before: u64, uncompressed: u32, compressed: u32) -> (u64, Line) {
        assert!(
            uncompressed as u64 <= self.capacity,
            "line of {uncompressed} bytes cannot fit the {}-byte DMA buffer",
            self.capacity
        );
        self.total_u += uncompressed as u64;
        self.total_c += compressed as u64;
        self.lines += 1;

        // Find the earliest issue time satisfying buffer backpressure. A
        // release time before the last `advance_to` is clamped to it:
        // earlier state has been retired, so time cannot rewind.
        let u = uncompressed as f64;
        let mut t = self.t_read_free.max(not_before).max(self.now);
        loop {
            self.retire(t);
            let occ = self.occupancy(self.resident, self.sched.get(self.head), t);
            // The single admission rule shared with the real-queue
            // [`staging::StagingPool`]: in-flight uncompressed
            // reservations plus resident compressed bytes plus the
            // incoming line must fit the buffer.
            let need = staging::shortfall(small_f64(self.reserved), occ, u, self.capacity_f64);
            if need <= staging::ADMIT_TOLERANCE {
                break;
            }
            let next_arrival = self.sched.get(self.arrived).map(|e| e.arrival);
            // The byte tolerance absorbs rounding in `need` at the
            // exact-fit boundary.
            if need <= occ + staging::ADMIT_TOLERANCE {
                // Every arrived line's drain chains directly onto its
                // predecessor's, so resident bytes leave back-to-back at
                // the link rate and the shortfall is met once `need` bytes
                // have drained — rounded up to a tick, so the admission
                // rule holds at the instant found — unless an in-flight
                // arrival lands first and re-shapes the buffer.
                let t_drain = t + ceil_fs(need * self.link_fs_per_byte);
                match next_arrival {
                    Some(ta) if ta < t_drain => t = ta,
                    _ => {
                        t = t_drain;
                        break;
                    }
                }
            } else {
                // Draining everything resident still leaves the in-flight
                // reservations over budget; only an arrival (which swaps an
                // uncompressed reservation for its smaller compressed
                // footprint) frees more. `need > occ` implies
                // `reserved > 0`, so an arrival is guaranteed in flight.
                t = next_arrival.expect("backpressure with nothing in flight");
            }
        }

        // Issue the read; it arrives after the memory latency and is queued
        // for the link drain.
        let issue = t;
        self.t_read_free = issue + duration(uncompressed, self.read_fs_per_byte);
        let arrival = issue + self.latency;
        let drain_start = self.drain_free.max(arrival);
        let drain = duration(compressed, self.link_fs_per_byte);
        let drain_end = drain_start + drain;
        self.drain_free = drain_end;
        self.link_fs += drain;
        if self.sched.len() == self.sched.capacity() && 2 * self.head >= self.sched.len() {
            self.compact();
        }
        let line = Line {
            arrival,
            drain_start,
            drain_end,
            uncompressed,
            compressed,
        };
        self.sched.push(line);
        self.reserved += uncompressed as u64;
        // Occupancy peaks at arrival instants, and every line pushed so far
        // has arrived by this one's.
        self.peak_resident += compressed as u64;
        while let Some(e) = self.sched.get(self.peak_head) {
            if e.drain_end > arrival {
                break;
            }
            self.peak_resident -= e.compressed as u64;
            self.peak_head += 1;
        }
        let occ_at_arrival =
            self.occupancy(self.peak_resident, self.sched.get(self.peak_head), arrival);
        self.max_occ = self.max_occ.max(occ_at_arrival);
        (issue, line)
    }

    /// Returns the pipeline to its idle initial state while keeping the
    /// capacity of its schedule storage — so a long-running caller (one
    /// offload per request, thousands of requests per second) reruns
    /// transfers with zero per-run allocation. The platform configuration
    /// is retained.
    pub fn reset(&mut self) {
        self.now = 0;
        self.t_read_free = 0;
        self.drain_free = 0;
        self.sched.clear();
        self.head = 0;
        self.arrived = 0;
        self.reserved = 0;
        self.resident = 0;
        self.peak_head = 0;
        self.peak_resident = 0;
        self.max_occ = 0.0;
        self.total_u = 0;
        self.total_c = 0;
        self.lines = 0;
        self.link_fs = 0;
    }

    /// Moves the pipeline's clock to `now` (seconds), retiring the lines
    /// that have drained by then. Advancing the clock is one-way: a
    /// subsequent push whose `not_before` lies earlier than the latest
    /// `advance_to` issues no earlier than that point (the state needed to
    /// schedule it in the past has been discarded). Memory does not depend
    /// on calling this: every push retires up to its own issue time.
    pub fn advance_to(&mut self, now: f64) {
        self.now = self.now.max(seconds_to_fs(now));
        self.retire(self.now);
    }

    /// Lines pushed so far, extrapolated ones included.
    // pub: test oracle: proptest_sim.rs counts the lines push_table extrapolates
    pub fn lines_pushed(&self) -> u64 {
        self.lines
    }

    /// Aggregate accounting of everything pushed so far.
    pub fn result(&self) -> OffloadSimResult {
        OffloadSimResult {
            uncompressed_bytes: self.total_u,
            compressed_bytes: self.total_c,
            total_time: fs_to_seconds(self.drain_free),
            link_busy: fs_to_seconds(self.link_fs),
            max_buffer_occupancy: self.max_occ,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::titan_x_pcie3()
    }

    const MB64: u64 = 64 << 20;

    /// A whole transfer of `bytes` that compresses uniformly by `ratio`:
    /// its full 4 KB lines as one repeated table, then the tail line.
    fn run_uniform(cfg: SystemConfig, bytes: u64, ratio: f64) -> OffloadSimResult {
        let line = LINE_BYTES as u64;
        let compressed = |u: u64| (u as f64 / ratio).ceil() as u32;
        let mut pipe = DmaPipeline::new(cfg);
        pipe.push_table(
            0.0,
            &[(line as u32, compressed(line))],
            (bytes / line) as usize,
        );
        let tail = bytes % line;
        if tail > 0 {
            pipe.push_line(0.0, tail as u32, compressed(tail));
        }
        pipe.result()
    }

    /// A whole transfer of explicit `(uncompressed, compressed)` lines,
    /// pushed one by one.
    fn run_lines(
        cfg: SystemConfig,
        lines: impl IntoIterator<Item = (u32, u32)>,
    ) -> OffloadSimResult {
        let mut pipe = DmaPipeline::new(cfg);
        for (u, c) in lines {
            pipe.push_line(0.0, u, c);
        }
        pipe.result()
    }

    #[test]
    fn incompressible_data_moves_at_link_rate() {
        let r = run_uniform(cfg(), MB64, 1.0);
        let ideal = MB64 as f64 / cfg().pcie_bw;
        assert!(
            (r.total_time - ideal) / ideal < 0.01,
            "time {} vs ideal {}",
            r.total_time,
            ideal
        );
        assert!(r.link_utilization() > 0.99);
    }

    #[test]
    fn compressible_data_saturates_link_with_compressed_bytes() {
        let r = run_uniform(cfg(), MB64, 2.6);
        // Effective uncompressed bandwidth ~= 2.6x the link.
        let speedup = r.effective_bw() / cfg().pcie_bw;
        assert!(
            (speedup - 2.6).abs() < 0.1,
            "speedup {speedup}, expected ~2.6"
        );
        assert!(r.link_utilization() > 0.95);
    }

    #[test]
    fn extreme_ratio_is_limited_by_read_bandwidth() {
        // At 32x compression, the engine would need 32 x 12.8 = 410 GB/s of
        // reads; only 200 GB/s is provisioned, so the effective bandwidth
        // caps at COMP_BW and the link goes partly idle.
        let r = run_uniform(cfg(), MB64, 32.0);
        let eff = r.effective_bw();
        assert!(
            (eff - 200e9).abs() / 200e9 < 0.05,
            "effective bw {eff:.3e} should cap at ~200 GB/s"
        );
        assert!(r.link_utilization() < 0.5);
    }

    #[test]
    fn buffer_never_exceeds_capacity() {
        for ratio in [1.0, 1.5, 2.6, 8.0, 13.8, 32.0] {
            let r = run_uniform(cfg(), 8 << 20, ratio);
            assert!(
                r.max_buffer_occupancy <= cfg().dma_buffer as f64 + 1.0,
                "ratio {ratio}: occupancy {} exceeds buffer",
                r.max_buffer_occupancy
            );
        }
    }

    #[test]
    fn undersized_buffer_starves_the_link_on_compressible_data() {
        // Section V-C: the buffer must cover the bandwidth-delay product of
        // the *read* path (70 KB) because requests reserve uncompressed
        // space. With only 8 KB the read stream stalls and highly
        // compressible data can no longer keep up.
        let small = SystemConfig {
            dma_buffer: 8 * 1024,
            ..cfg()
        };
        let full = run_uniform(cfg(), MB64, 13.8);
        let starved = run_uniform(small, MB64, 13.8);
        assert!(
            starved.effective_bw() < 0.5 * full.effective_bw(),
            "starved {:.3e} vs full {:.3e}",
            starved.effective_bw(),
            full.effective_bw()
        );
        // On incompressible data the small buffer is harmless (the link is
        // the bottleneck anyway, 12.8 GB/s x 350 ns = 4.5 KB).
        let ok = run_uniform(small, MB64, 1.0);
        assert!(ok.link_utilization() > 0.95);
    }

    #[test]
    fn seventy_kb_buffer_is_sufficient_for_max_observed_ratio() {
        // The design point: 70 KB suffices to run the paper's maximum
        // observed per-layer ratio (13.8x) at near-full link utilization.
        let r = run_uniform(cfg(), MB64, 13.8);
        assert!(
            r.link_utilization() > 0.9,
            "utilization {}",
            r.link_utilization()
        );
    }

    #[test]
    fn mixed_line_sizes_roundtrip_accounting() {
        let lines: Vec<(u32, u32)> = (0..1000)
            .map(|i| {
                let u = 4096u32;
                let c = match i % 3 {
                    0 => 128,  // 32x
                    1 => 1575, // 2.6x
                    _ => 4096, // 1x
                };
                (u, c)
            })
            .collect();
        let r = run_lines(cfg(), lines.iter().copied());
        assert_eq!(r.uncompressed_bytes, 4096 * 1000);
        // i % 3 == 0 occurs 334 times in 0..1000; the others 333 each.
        assert_eq!(r.compressed_bytes, 334 * 128 + 333 * 1575 + 333 * 4096);
        assert!(r.total_time > 0.0);
        assert!(r.effective_bw() > cfg().pcie_bw);
    }

    #[test]
    fn nvlink_shifts_the_crossover() {
        // With an 72 GB/s effective link, COMP_BW/link = 2.8: even moderate
        // ratios hit the read-bandwidth wall.
        let nv = SystemConfig::titan_x_nvlink();
        let r = run_uniform(nv, MB64, 8.0);
        let eff = r.effective_bw();
        assert!(
            (eff - 200e9).abs() / 200e9 < 0.1,
            "NVLink at 8x should cap near COMP_BW, got {eff:.3e}"
        );
    }

    #[test]
    fn zero_byte_transfer_is_trivial() {
        let r = run_uniform(cfg(), 0, 2.0);
        assert_eq!(r.total_time, 0.0);
        assert_eq!(r.uncompressed_bytes, 0);
        assert_eq!(r.link_utilization(), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_line_rejected() {
        let _ = run_lines(cfg(), [(100_000, 50_000)]);
    }

    /// Deterministic LCG for adversarial line mixes.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn pathological_line_mix_terminates_and_respects_capacity() {
        // Regression for the old bounded `for _ in 0..1_000_000`
        // backpressure search: a tiny 8 KB buffer, lines alternating
        // between incompressible (must drain before the next issue) and
        // near-infinitely compressible (drain in nanoseconds, so arrivals
        // — not drains — gate the search), plus full-buffer-sized lines
        // that require the pipeline to empty entirely.
        let small = SystemConfig {
            dma_buffer: 8 * 1024,
            ..cfg()
        };
        let mut lines = Vec::new();
        for i in 0..5_000u32 {
            lines.push(match i % 4 {
                0 => (4096, 4096),   // incompressible
                1 => (4096, 4),      // ~1000x compressible
                2 => (8 * 1024, 16), // fills the whole buffer by itself
                _ => (64, 64),       // sub-line runt
            });
        }
        let r = run_lines(small, lines.iter().copied());
        let cap = small.dma_buffer as f64;
        assert!(
            r.max_buffer_occupancy <= cap + 1.0,
            "occupancy {} exceeds {cap}",
            r.max_buffer_occupancy
        );
        // The link can never beat its own drain time, and the read path can
        // never beat COMP_BW.
        assert!(r.total_time >= r.link_busy - 1e-12);
        assert!(r.total_time >= r.uncompressed_bytes as f64 / small.usable_comp_bw() - 1e-9);
    }

    #[test]
    fn seeded_mixes_match_between_batch_and_incremental_forms() {
        // `advance_to` compaction must be an implementation detail: pushing
        // the same lines through a periodically-compacted pipeline gives
        // bit-identical results to one whole-transfer run.
        let mut seed = 0xC0FFEE;
        for case in 0..8 {
            let lines: Vec<(u32, u32)> = (0..600)
                .map(|_| {
                    let u = 256 + (lcg(&mut seed) % 3841) as u32; // 256..=4096
                    let c = 4 + (lcg(&mut seed) % u as u64) as u32;
                    (u, c)
                })
                .collect();
            let batch = run_lines(cfg(), lines.iter().copied());
            let mut pipe = DmaPipeline::new(cfg());
            let mut last_issue = 0.0;
            for (i, &(u, c)) in lines.iter().enumerate() {
                if i % 50 == 0 {
                    pipe.advance_to(last_issue);
                }
                last_issue = pipe.push_line(0.0, u, c).issue;
            }
            assert_eq!(pipe.result(), batch, "case {case}");
            assert_eq!(pipe.lines_pushed(), lines.len() as u64);
        }
    }

    #[test]
    fn release_time_delays_issue() {
        let mut pipe = DmaPipeline::new(cfg());
        let a = pipe.push_line(0.0, 4096, 1024);
        assert_eq!(a.issue, 0.0);
        // A line released long after the pipeline idles issues exactly at
        // its release time.
        let b = pipe.push_line(1.0, 4096, 1024);
        assert_eq!(b.issue, 1.0);
        assert!(pipe.result().total_time >= b.drain_end - 1e-15);
        // A line released in the past cannot issue before the read path
        // frees.
        let c = pipe.push_line(0.0, 4096, 1024);
        assert!(c.issue >= b.read_done);
    }

    #[test]
    fn reset_pipeline_matches_fresh_and_keeps_capacity() {
        let lines: Vec<(u32, u32)> = (0..500).map(|i| (4096, 512 + (i % 7) * 512)).collect();
        let fresh = run_lines(cfg(), lines.iter().copied());
        let mut pipe = DmaPipeline::new(cfg());
        for &(u, c) in &lines {
            pipe.push_line(0.0, u, c);
        }
        assert_eq!(pipe.result(), fresh);
        let cap = pipe.sched.capacity();
        pipe.reset();
        assert_eq!(pipe.result().total_time, 0.0);
        assert_eq!(pipe.lines_pushed(), 0);
        assert_eq!(pipe.sched.capacity(), cap, "reset keeps schedule storage");
        for &(u, c) in &lines {
            pipe.push_line(0.0, u, c);
        }
        assert_eq!(pipe.result(), fresh, "rerun after reset is bit-identical");
    }

    /// Lines not yet fully drained at the issue clock.
    fn live(pipe: &DmaPipeline) -> usize {
        pipe.sched.len() - pipe.head
    }

    /// The most lines a `capacity`-byte buffer can hold live at once under
    /// [`push_zvc_lines`]: a live line either holds its 4 KB reservation
    /// (in flight) or at least 1 KB of the buffer (resident; the one
    /// part-way out on the link may hold less), and the admission rule
    /// caps the two sums at the capacity.
    fn live_bound(capacity: usize) -> usize {
        capacity / 4096 + capacity / 1024 + 1
    }

    /// Pushes `n` ZVC-shaped 4 KB lines (4x compressible up to expanded by
    /// their mask bits), with no `advance_to` anywhere. With `burst`, every
    /// `burst` lines form a transfer released a microsecond after the
    /// previous one has fully drained, so the buffer empties between them.
    /// Returns the most lines live at once.
    fn push_zvc_lines(pipe: &mut DmaPipeline, n: usize, burst: Option<usize>) -> usize {
        let mut seed = 0xB0B;
        let mut release = 0.0;
        let mut peak = 0;
        for i in 0..n {
            let gap = burst.is_some_and(|b| i % b == 0);
            if gap {
                release = pipe.result().total_time + 1e-6;
            }
            let c = 1024 + (lcg(&mut seed) % (4096 + 128 - 1024 + 1)) as u32;
            pipe.push_line(release, 4096, c);
            if gap {
                assert_eq!(live(pipe), 1, "line {i} issued into a non-empty buffer");
            }
            peak = peak.max(live(pipe));
        }
        peak
    }

    #[test]
    fn schedule_ring_stays_at_the_resident_plus_in_flight_bound() {
        // A million lines through one pipeline: the live lines stay under
        // the bound, and compacting drained lines away keeps the storage
        // under twice that.
        let bound = live_bound(cfg().dma_buffer);
        let mut pipe = DmaPipeline::new(cfg());
        let peak = push_zvc_lines(&mut pipe, 1_000_000, None);
        assert_eq!(pipe.lines_pushed(), 1_000_000);
        assert!(peak <= bound, "{peak} lines live, bound {bound}");
        assert!(
            pipe.sched.capacity() < 2 * bound,
            "schedule storage grew to {} lines",
            pipe.sched.capacity()
        );
    }

    #[test]
    fn schedule_storage_holds_its_bound_at_8_kb_across_idle_gaps_and_resets() {
        // The regimes compaction sees differently: a buffer that holds a
        // dozen lines, transfers that leave the buffer empty between them
        // (every stored line is dead when each one starts), and a rerun
        // after `reset()`, which must neither grow the storage nor move a
        // bit of the result.
        let small = SystemConfig {
            dma_buffer: 8 * 1024,
            ..cfg()
        };
        for platform in [cfg(), small] {
            let bound = live_bound(platform.dma_buffer);
            for burst in [None, Some(97)] {
                let what = format!("{} B buffer, burst {burst:?}", platform.dma_buffer);
                let mut pipe = DmaPipeline::new(platform);
                let peak = push_zvc_lines(&mut pipe, 200_000, burst);
                assert!(peak <= bound, "{what}: {peak} lines live, bound {bound}");
                let cap = pipe.sched.capacity();
                assert!(cap < 2 * bound, "{what}: storage grew to {cap} lines");
                let first = pipe.result();
                pipe.reset();
                assert_eq!(push_zvc_lines(&mut pipe, 200_000, burst), peak, "{what}");
                assert_eq!(pipe.result(), first, "{what}: rerun after reset");
                assert_eq!(pipe.sched.capacity(), cap, "{what}: reset keeps storage");
            }
        }
    }

    #[test]
    fn advance_to_is_one_way() {
        // A push released before the latest advance_to cannot rewind the
        // clock: the compacted state could not schedule it in the past.
        let mut pipe = DmaPipeline::new(cfg());
        pipe.advance_to(1.0);
        let s = pipe.push_line(0.0, 4096, 1024);
        assert_eq!(s.issue, 1.0);
        // Advancing backwards is a no-op.
        pipe.advance_to(0.5);
        let s2 = pipe.push_line(0.0, 4096, 1024);
        assert!(s2.issue >= s.read_done);
    }

    #[test]
    fn line_schedule_is_internally_consistent() {
        let mut pipe = DmaPipeline::new(cfg());
        let mut prev_drain_end = 0.0;
        for i in 0..200u32 {
            let s = pipe.push_line(0.0, 4096, 512 + (i % 7) * 512);
            assert!(s.read_done > s.issue);
            assert!((s.arrival - (s.issue + cfg().mem_latency)).abs() < 1e-15);
            assert!(s.drain_start >= s.arrival);
            assert!(s.drain_start >= prev_drain_end, "link drains in order");
            assert!(s.drain_end >= s.drain_start);
            prev_drain_end = s.drain_end;
        }
        assert_eq!(pipe.result().total_time, prev_drain_end);
    }

    #[test]
    fn pcie_line_times_are_whole_femtoseconds() {
        let pipe = DmaPipeline::new(cfg());
        assert_eq!(pipe.read_fs_per_byte, 5_000.0);
        assert_eq!(pipe.link_fs_per_byte, 78_125.0);
        assert_eq!(pipe.latency, 350_000_000);
        assert_eq!(duration(4096, pipe.link_fs_per_byte), 4096 * 78_125);
        assert_eq!(ceil_fs(2.0), 2);
        assert_eq!(ceil_fs(2.25), 3);
    }

    /// Everything a later push or `result()` can read, absolute.
    fn state(p: &DmaPipeline) -> impl PartialEq + std::fmt::Debug {
        (
            (p.t_read_free, p.drain_free, p.now),
            (p.arrived - p.head, p.peak_head - p.head),
            (p.reserved, p.resident, p.peak_resident),
            p.sched[p.head..].to_vec(),
            (p.total_u, p.total_c, p.lines, p.link_fs),
            p.max_occ.to_bits(),
        )
    }

    #[test]
    fn a_repeated_table_leaves_the_state_its_lines_pushed_one_by_one_leave() {
        // A ZVC-shaped per-image table behind earlier traffic still on the
        // link, on buffers that saturate (8 KB) and that keep up (70 KB).
        let table: Vec<(u32, u32)> = (0..37u32)
            .map(|i| (4096, 256 + i.wrapping_mul(2_654_435_761) % 3970))
            .collect();
        let small = SystemConfig {
            dma_buffer: 8 * 1024,
            ..cfg()
        };
        for platform in [cfg(), small, SystemConfig::titan_x_nvlink()] {
            let mut extrapolated = DmaPipeline::new(platform);
            for i in 0..50 {
                extrapolated.push_line(0.0, 4096, 64 + 80 * i);
            }
            let mut stepped = extrapolated.clone();
            let release = 2e-6;
            let run = extrapolated.push_table(release, &table, 300);
            for _ in 0..300 {
                for &(u, c) in &table {
                    stepped.push_line(release, u, c);
                }
            }
            let what = format!(
                "{} B buffer at {} B/s",
                platform.dma_buffer, platform.pcie_bw
            );
            assert!(
                run.stepped < 300,
                "{what}: stepped all {} repeats",
                run.stepped
            );
            assert_eq!(state(&extrapolated), state(&stepped), "{what}");
            assert_eq!(run.end, stepped.result().total_time, "{what}");
            assert_eq!(extrapolated.result(), stepped.result(), "{what}");
            assert_eq!(
                extrapolated.push_line(0.0, 4096, 1000),
                stepped.push_line(0.0, 4096, 1000),
                "{what}: the next line"
            );
        }
    }

    #[test]
    fn a_table_whose_schedule_alternates_is_stepped_in_full() {
        // One 13.8x line into an 8 KB buffer: the schedule repeats every
        // other line, so no repeat starts as the one before it did.
        let small = SystemConfig {
            dma_buffer: 8 * 1024,
            ..cfg()
        };
        let mut whole = DmaPipeline::new(small);
        let mut stepped = whole.clone();
        let run = whole.push_table(0.0, &[(4096, 297)], 1000);
        for _ in 0..1000 {
            stepped.push_line(0.0, 4096, 297);
        }
        assert_eq!(run.stepped, 1000);
        assert_eq!(state(&whole), state(&stepped));
    }

    #[test]
    fn a_table_steps_until_its_period_shows_and_counts_busy_time_exactly() {
        // The first repeat starts at the release, ahead of the read clock:
        // not a snapshot. The second is the first snapshot, so nothing can
        // recur before the third.
        let mut pipe = DmaPipeline::new(cfg());
        let run = pipe.push_table(1e-3, &[(4096, 1024)], 2);
        assert_eq!(run.stepped, 2);
        assert_eq!(pipe.lines_pushed(), 2);
        // Reads outpace the link 4:1, so the buffer fills (about 170
        // lines) before the schedule turns periodic.
        let busy = pipe.push_table(0.0, &[(4096, 1024); 3], 1000);
        assert_eq!(busy.read_busy_fs, 3000 * 4096 * 5_000);
        assert_eq!(busy.link_busy_fs, 3000 * 1024 * 78_125);
        assert!(busy.stepped < 100, "stepped {}", busy.stepped);
        assert_eq!(pipe.lines_pushed(), 3002);
        assert_eq!(pipe.result().total_time, busy.end);
    }
}
