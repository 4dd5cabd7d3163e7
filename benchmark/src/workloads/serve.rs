//! `serve_4k`: an in-process `Server` under two tenants — `trainer`
//! (weight 3, 70% of requests, compress one 1024-word window) and
//! `prefetch` (weight 1, 30%, decompress one pre-compressed window).
//!
//! It is the only workload where admission (`TenantScheduler` +
//! `StagingPool`), the worker deques, condvar parking and buffer
//! recycling dominate: the codec kernel is about a hundredth of the
//! median latency. Independent tenants make it an **open loop** (phase
//! A, and the phase-B rate ladder); the **closed loop** of phase C (one
//! client, 32 requests in flight) gives the capacity an offered-load
//! number never measures.
//!
//! Load-generator hygiene: payloads are pre-generated in set-up into a
//! ring (filling them inline makes the generator the bottleneck), pacing
//! spins and harvests completions while it spins, latency runs from the
//! time a request was *due* — not from when a late generator got round
//! to sending it — and how late the generator ran is reported. An arrival
//! the server refuses in phase A is offered again until it is taken
//! ([`PATIENCE_S`]): the refusal is waiting time, not a failed request.

use std::hint::black_box;
use std::time::Instant;

use cdma_compress::windowed::append_windows;
use cdma_compress::{Algorithm, Compressor};
use cdma_gpusim::staging::StagingPool;
use cdma_serve::{
    fill_activations, Completion, DefaultKernel, JobKernel, JobKind, OutputBufs, Request, Schedule,
    Server, ServerConfig, TenantId, TenantLoad, TenantSpec,
};

use super::{timed_setup, RunArgs};
use crate::metrics::Outcome;
use crate::stats::{self, Windowed};
use crate::trace::Tracer;

/// Payloads per tenant in the ring. More than the server will hold in
/// flight ([`STAGING_POOLS`]), so a slot is home again before its turn
/// comes round.
const RING: usize = 4096;
/// One request = one 4 KB window.
const WINDOW_WORDS: usize = 1024;
/// The paper's average activation sparsity.
const ZERO_DENSITY: f64 = 0.6;
/// Share of requests from the `trainer` tenant.
const TRAINER_SHARE: f64 = 0.7;
const TRAINER: u16 = 0;
const PREFETCH: u16 = 1;

/// Phase A's offered rate, requests per second.
const RATE_A: f64 = 40_000.0;
/// Phase B's open-loop ladder.
const LADDER: [f64; 3] = [100_000.0, 200_000.0, 300_000.0];
/// Phase C: requests one closed-loop client keeps in flight.
const IN_FLIGHT: usize = 32;
/// Latency windows (by due time) whose per-window percentiles are
/// medianed.
const WINDOW_S: f64 = 0.5;
/// Windows (by due time) of the quiet median latency: short, so that some
/// of them fall between the bursts of the host's other tenants, and with
/// ~2000 requests each at phase A's rate.
const QUIET_WINDOW_S: f64 = 0.05;
/// One response in this many is verified while the clock runs; all of
/// them are in the post-run sweep.
const VERIFY_EVERY: u64 = 64;
/// A ladder rate is "in SLO" with windowed p99 at most this and at most
/// [`SLO_FAIL_SHARE`] of its requests failed.
const SLO_P99_US: f64 = 1000.0;
const SLO_FAIL_SHARE: f64 = 0.001;
/// Staging pool: sixteen of the default sixteen-buffer pools (~4500
/// windows in flight instead of ~280), and tenant queues as deep as the
/// ring. On a two-core box the host takes a core away for tens of
/// milliseconds a few times an hour; at 40 k req/s a 70 ms stall is a
/// backlog of 2800 requests, which the default pool turns into as many
/// sheds. The benchmark wants that to be a latency event — the contract
/// asks for a workload on which no operation fails — so the server has
/// room for ~110 ms of arrivals, and a longer stall meets [`PATIENCE_S`].
const STAGING_POOLS: u64 = 16;
/// How long phase A's generator keeps offering an arrival the server
/// refused (or whose ring slot is still in flight a lap later) before it
/// gives it up as shed. The host has taken a core away for 150 ms and
/// more — one run in ten shed 1000-5000 requests that way, through a
/// pool with room for 110 ms of arrivals — and a client that is refused
/// waits and asks again: the wait is in the request's latency, which runs
/// from its due time, and in the generator's lateness. The ladder of the
/// traced run, whose sheds are the finding, has no patience.
const PATIENCE_S: f64 = 5.0;
/// Length of the slices a closed loop's completions are counted in. Over
/// ten runs the median of 0.1 s slices spread 3.6%, of 0.5 s slices 4.9%
/// and of the issue's four 2 s slices 6.0%: a slice that a burst of the
/// host's other tenants lands in is lost, and short slices lose less.
const CAPACITY_SLICE_S: f64 = 0.1;
/// The percentile of the slices reported as capacity ([`capacity_of`]).
const CAPACITY_PERCENTILE: f64 = 75.0;
/// Closed-loop warm-up inside set-up, seconds.
const WARM_UP_S: f64 = 0.1;

const SPAN_SUBMIT: &str = "serve.sched.submit";
const SPAN_DRAIN: &str = "serve.server.drain_completions";
const SPAN_RECYCLE: &str = "serve.server.recycle";
const SPAN_SOJOURN: &str = "serve.server.sojourn";

// ---------------------------------------------------------------------
// Open-loop pacing, generic over clock and sink so that the due-time
// bookkeeping can be tested against a generator that stalls.
// ---------------------------------------------------------------------

/// Seconds since the phase began.
pub trait Clock {
    /// Reads the clock.
    fn now_s(&mut self) -> f64;
}

/// Where the open loop sends arrivals and collects completions.
pub trait Sink {
    /// Offers arrival `index`; `false` means it was refused, and it may
    /// be offered again.
    fn submit(&mut self, index: usize) -> bool;
    /// Gives up arrival `index` after a refusal: it is shed.
    fn abandon(&mut self, index: usize);
    /// Appends the indices of arrivals completed since the last call.
    fn harvest(&mut self, done: &mut Vec<usize>);
    /// Accepted arrivals not yet harvested.
    fn outstanding(&self) -> usize;
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    /// `(arrival index, seconds from its due time to its harvest)`.
    pub latency_s: Vec<(usize, f64)>,
    /// Seconds each arrival's first offer ran behind its due time.
    pub late_s: Vec<f64>,
    /// Offers that were refused and repeated.
    pub retries: u64,
    /// Arrivals given up as shed.
    pub shed: u64,
}

/// Replays `due` (ascending seconds) against `sink`: spins until each
/// arrival is due, harvesting while it spins, and times every completion
/// from the arrival's **due** time on the generator's clock. A generator
/// that falls behind therefore lengthens the latency of the requests it
/// delayed instead of hiding the delay. An arrival the sink refuses is
/// offered again, harvesting in between, for `patience_s` seconds — its
/// wait, and that of the arrivals queued up behind it, is latency — and
/// then abandoned as shed; with no patience a refusal is a shed.
pub fn run_open_loop(
    due: &[f64],
    patience_s: f64,
    clock: &mut impl Clock,
    sink: &mut impl Sink,
) -> OpenLoopLog {
    let mut log = OpenLoopLog {
        latency_s: Vec::with_capacity(due.len()),
        late_s: Vec::with_capacity(due.len()),
        retries: 0,
        shed: 0,
    };
    let mut done = Vec::with_capacity(512);
    let mut collect = |clock: &mut dyn Clock, sink: &mut dyn Sink, log: &mut OpenLoopLog| {
        sink.harvest(&mut done);
        if !done.is_empty() {
            let stamp = clock.now_s();
            log.latency_s
                .extend(done.drain(..).map(|i| (i, stamp - due[i])));
        }
    };
    for (index, &due_s) in due.iter().enumerate() {
        let mut now = clock.now_s();
        while now < due_s {
            collect(clock, sink, &mut log);
            std::hint::spin_loop();
            now = clock.now_s();
        }
        log.late_s.push(now - due_s);
        let mut accepted = sink.submit(index);
        while !accepted && clock.now_s() - now < patience_s {
            log.retries += 1;
            collect(clock, sink, &mut log);
            std::hint::spin_loop();
            accepted = sink.submit(index);
        }
        if !accepted {
            sink.abandon(index);
            log.shed += 1;
        }
        collect(clock, sink, &mut log);
    }
    while sink.outstanding() > 0 {
        collect(clock, sink, &mut log);
        std::hint::spin_loop();
    }
    collect(clock, sink, &mut log);
    log
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_s(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

// ---------------------------------------------------------------------
// The payload ring and the client around the real server.
// ---------------------------------------------------------------------

/// Pre-generated payloads with the response each must produce.
struct Ring {
    /// Trainer payloads; `None` while the words are inside a request.
    words: Vec<Option<Vec<f32>>>,
    /// The `append_windows` reference for each trainer payload.
    ref_bytes: Vec<Vec<u8>>,
    ref_offsets: Vec<Vec<u32>>,
    /// Prefetch payloads: one compressed window each.
    packed: Vec<Option<Vec<u8>>>,
    /// The words each prefetch payload must decode to.
    originals: Vec<Vec<f32>>,
}

impl Ring {
    fn build(seed: u64) -> Self {
        let codec = Algorithm::Zvc.codec();
        let window = |fill_seed: u64| {
            let mut w = vec![0.0f32; WINDOW_WORDS];
            fill_activations(fill_seed, ZERO_DENSITY, &mut w);
            w
        };
        let mut ring = Ring {
            words: Vec::with_capacity(RING),
            ref_bytes: Vec::with_capacity(RING),
            ref_offsets: Vec::with_capacity(RING),
            packed: Vec::with_capacity(RING),
            originals: Vec::with_capacity(RING),
        };
        for i in 0..RING as u64 {
            // Distinct, seed-derived fill streams for the two tenants.
            let w = window(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(2 * i));
            let (mut bytes, mut offsets) = (Vec::new(), Vec::new());
            append_windows(&codec, &w, WINDOW_WORDS, &mut bytes, &mut offsets);
            ring.words.push(Some(w));
            ring.ref_bytes.push(bytes);
            ring.ref_offsets.push(offsets);
            let o = window(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(2 * i + 1),
            );
            ring.packed.push(Some(codec.compress(&o)));
            ring.originals.push(o);
        }
        ring
    }
}

/// Request ids carry everything the client needs to route a response
/// home — `sequence << 13 | tenant << 12 | slot` — so a closed loop that
/// completes millions of requests keeps no per-request memory (and
/// `peak_rss_mb` does not grow with throughput).
const SLOT_BITS: u32 = RING.trailing_zeros();
const _: () = assert!(RING.is_power_of_two());

fn pack_id(sequence: u64, tenant: u16, slot: usize) -> u64 {
    sequence << (SLOT_BITS + 1) | u64::from(tenant) << SLOT_BITS | slot as u64
}

/// `(sequence, tenant, slot)` of a request id.
fn unpack_id(id: u64) -> (u64, u16, usize) {
    (
        id >> (SLOT_BITS + 1),
        (id >> SLOT_BITS & 1) as u16,
        (id & (RING as u64 - 1)) as usize,
    )
}

/// Per-phase counters, printed for every phase.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseCounts {
    attempted: u64,
    completed: u64,
    /// Offers the server refused that were repeated (open loop with
    /// patience); not failures.
    retried: u64,
    shed: u64,
    errored: u64,
    wrong: u64,
}

impl PhaseCounts {
    fn fail_share(&self) -> f64 {
        (self.shed + self.errored + self.wrong) as f64 / self.attempted.max(1) as f64
    }
}

/// The load generator's side of the server: owns the ring, maps request
/// ids to ring slots, verifies and recycles responses.
struct Client<'a> {
    server: &'a Server,
    ring: &'a mut Ring,
    tracer: &'a mut Tracer,
    /// Tenant of each arrival of the current phase (open loop).
    tenants: Vec<u16>,
    /// Requests sent this phase; the next request's sequence number.
    sent: u64,
    /// Requests accepted and not yet harvested.
    in_flight: usize,
    cursor: [usize; 2],
    completions: Vec<Completion>,
    counts: PhaseCounts,
    /// Verify every response (sweep) or one in [`VERIFY_EVERY`].
    verify_all: bool,
    /// Server-stamped sojourn (`finished_s - arrival_s`) of each
    /// completion of an open-loop phase, seconds.
    sojourn_s: Vec<f64>,
    /// Offset from the server's clock to the recorder's epoch, ns.
    server_epoch_ns: i64,
}

impl<'a> Client<'a> {
    fn new(server: &'a Server, ring: &'a mut Ring, tracer: &'a mut Tracer) -> Self {
        let server_epoch_ns = tracer
            .recorder()
            .map_or(0, |r| r.now_ns() as i64 - (server.now_s() * 1e9) as i64);
        Client {
            server,
            ring,
            tracer,
            tenants: Vec::new(),
            sent: 0,
            in_flight: 0,
            cursor: [0; 2],
            completions: Vec::with_capacity(1024),
            counts: PhaseCounts::default(),
            verify_all: false,
            sojourn_s: Vec::new(),
            server_epoch_ns,
        }
    }

    /// Starts a phase: clears per-phase state and returns the previous
    /// phase's counters.
    fn begin_phase(&mut self, tenants: Vec<u16>) -> PhaseCounts {
        self.sent = 0;
        self.sojourn_s.clear();
        self.sojourn_s.reserve(tenants.len());
        self.tenants = tenants;
        std::mem::take(&mut self.counts)
    }

    /// Sends the next payload of `tenant`.
    fn send(&mut self, tenant: u16) -> bool {
        let slot = self.cursor[tenant as usize];
        self.cursor[tenant as usize] = (slot + 1) % RING;
        let id = pack_id(self.sent, tenant, slot);
        self.sent += 1;
        self.counts.attempted += 1;
        let req = if tenant == TRAINER {
            match self.ring.words[slot].take() {
                Some(w) => Request::compress(TenantId(TRAINER), id, Algorithm::Zvc, w),
                None => return self.lost(),
            }
        } else {
            match self.ring.packed[slot].take() {
                Some(b) => Request::decompress(
                    TenantId(PREFETCH),
                    id,
                    Algorithm::Zvc,
                    b,
                    WINDOW_WORDS as u32,
                ),
                None => return self.lost(),
            }
        };
        let span = self.tracer.begin(SPAN_SUBMIT, id);
        let result = self.server.submit(req);
        self.tracer.end(span);
        match result {
            Ok(_) => {
                self.in_flight += 1;
                true
            }
            Err((_, req)) => {
                self.counts.shed += 1;
                self.home(tenant, slot, req.words, req.bytes);
                false
            }
        }
    }

    /// A slot whose payload is still in flight a whole lap later: the
    /// request cannot be built, which counts against the phase.
    fn lost(&mut self) -> bool {
        self.counts.shed += 1;
        false
    }

    fn home(&mut self, tenant: u16, slot: usize, words: Vec<f32>, bytes: Vec<u8>) {
        if tenant == TRAINER {
            self.ring.words[slot] = Some(words);
        } else {
            self.ring.packed[slot] = Some(bytes);
        }
    }

    /// Drains finished jobs: verifies, recycles, and appends their
    /// sequence numbers to `done`.
    fn drain(&mut self, done: &mut Vec<usize>) {
        // A job leaves the server's outstanding count as it lands in the
        // completion list, so one atomic load says whether there is
        // anything to fetch. Polling the list itself from the pacing spin
        // would fight the workers for its lock on every iteration and put
        // the contention the generator causes into the latency it reports.
        if self.server.outstanding() >= self.in_flight {
            return;
        }
        // Most drains are the pacing spin finding nothing; only a drain
        // that returned work is a span.
        let t0 = self.tracer.enabled().then(Instant::now);
        self.server.drain_completions(&mut self.completions);
        if let (Some(t0), false, Some(rec)) =
            (t0, self.completions.is_empty(), self.tracer.recorder_mut())
        {
            rec.record(SPAN_DRAIN, self.sent, t0, Instant::now());
        }
        let mut completions = std::mem::take(&mut self.completions);
        for c in completions.drain(..) {
            let id = c.response.id;
            let (sequence, tenant, slot) = unpack_id(id);
            self.counts.completed += 1;
            self.in_flight -= 1;
            // Only open-loop phases (which know their arrival count) keep
            // per-request samples.
            if !self.tenants.is_empty() {
                self.sojourn_s.push(c.finished_s - c.arrival_s);
            }
            if c.response.error.is_some() {
                self.counts.errored += 1;
            } else if self.verify_all || sequence % VERIFY_EVERY == 0 {
                let r = &c.response;
                let ok = if tenant == TRAINER {
                    r.kind == JobKind::Compress
                        && r.bytes == self.ring.ref_bytes[slot]
                        && r.offsets == self.ring.ref_offsets[slot]
                } else {
                    let want = &self.ring.originals[slot];
                    r.kind == JobKind::Decompress
                        && r.words.len() == want.len()
                        && r.words
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                };
                self.counts.wrong += u64::from(!ok);
            }
            if let Some(rec) = self.tracer.recorder_mut() {
                let at = |s: f64| ((s * 1e9) as i64 + self.server_epoch_ns).max(0) as u64;
                rec.record_foreign(SPAN_SOJOURN, id, at(c.arrival_s), at(c.finished_s));
            }
            let span = self.tracer.begin(SPAN_RECYCLE, id);
            let (words, bytes) = self.server.recycle(c.response);
            self.tracer.end(span);
            self.home(tenant, slot, words, bytes);
            done.push(sequence as usize);
        }
        self.completions = completions;
    }

    /// Closed loop: one client keeping `IN_FLIGHT` requests outstanding
    /// for `seconds`, in the phase's tenant mix. Returns completions per
    /// second in each of its [`CAPACITY_SLICE_S`] slices.
    fn closed_loop(&mut self, seconds: f64) -> Vec<f64> {
        let slices = ((seconds / CAPACITY_SLICE_S).round() as usize).max(1);
        self.begin_phase(Vec::new());
        let mut done = Vec::with_capacity(256);
        let mut per_slice = vec![0u64; slices];
        // The 70/30 mix as a fixed pattern of ten.
        let pattern = |n: u64| {
            if (n % 10) < (TRAINER_SHARE * 10.0) as u64 {
                TRAINER
            } else {
                PREFETCH
            }
        };
        let t0 = Instant::now();
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= seconds {
                break;
            }
            while self.in_flight < IN_FLIGHT {
                self.send(pattern(self.sent));
            }
            self.drain(&mut done);
            let slice = ((elapsed / seconds * slices as f64) as usize).min(slices - 1);
            per_slice[slice] += done.len() as u64;
            done.clear();
        }
        self.drain_all(&mut done);
        let slice_s = seconds / slices as f64;
        per_slice.iter().map(|&n| n as f64 / slice_s).collect()
    }

    /// Waits for everything in flight.
    fn drain_all(&mut self, done: &mut Vec<usize>) {
        while self.in_flight > 0 {
            self.drain(done);
            std::hint::spin_loop();
        }
        done.clear();
    }

    /// Every ring slot once, every response verified.
    fn sweep(&mut self) -> PhaseCounts {
        self.begin_phase(Vec::new());
        self.verify_all = true;
        let mut done = Vec::with_capacity(256);
        for n in 0..2 * RING as u64 {
            while self.in_flight >= IN_FLIGHT {
                self.drain(&mut done);
            }
            self.send((n % 2) as u16);
        }
        self.drain_all(&mut done);
        self.verify_all = false;
        self.begin_phase(Vec::new())
    }
}

impl Sink for Client<'_> {
    fn submit(&mut self, index: usize) -> bool {
        debug_assert_eq!(index as u64, self.sent);
        let tenant = self.tenants[index];
        // A refused offer leaves no trace but its count, so that the
        // arrival can be offered again under the same id.
        let before = (self.sent, self.cursor, self.counts);
        let accepted = self.send(tenant);
        if !accepted {
            (self.sent, self.cursor, self.counts) = before;
            self.counts.retried += 1;
        }
        accepted
    }

    fn abandon(&mut self, index: usize) {
        debug_assert_eq!(index as u64, self.sent);
        self.sent += 1;
        self.counts.attempted += 1;
        self.counts.shed += 1;
        // The last refused offer became the shed.
        self.counts.retried -= 1;
    }

    fn harvest(&mut self, done: &mut Vec<usize>) {
        self.drain(done);
    }

    fn outstanding(&self) -> usize {
        self.in_flight
    }
}

// ---------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------

fn tenant_specs() -> Vec<TenantSpec> {
    let tenant = |name: &str, weight: f64| TenantSpec {
        queue_depth: RING,
        ..TenantSpec::new(name).weight(weight)
    };
    vec![tenant("trainer", 3.0), tenant("prefetch", 1.0)]
}

/// The merged Poisson schedule of the two tenants at `rate` req/s.
fn schedule(rate: f64, horizon_s: f64, seed: u64) -> (Vec<f64>, Vec<u16>) {
    let specs = tenant_specs();
    let loads = [
        TenantLoad::new(specs[0].clone(), rate * TRAINER_SHARE),
        TenantLoad::new(specs[1].clone(), rate * (1.0 - TRAINER_SHARE)),
    ];
    let s = Schedule::generate(&loads, horizon_s, seed);
    (
        s.arrivals.iter().map(|a| a.at_s).collect(),
        s.arrivals.iter().map(|a| a.tenant).collect(),
    )
}

/// The capacity a closed loop's slices show: their upper quartile. A
/// slice in which the host took a core away completes less, never more,
/// so the upper half of the slices is the program's; the top of it is
/// not used because the loop has a second, faster mode in which the
/// worker never parks, and how many slices fall into it varies from run
/// to run (the p90 of the slices spread 17% over ten runs, the p75 2.7%,
/// the median 3.6%; under a synthetic neighbour the median fell by
/// 30-65%, the p75 by 20-40%).
fn capacity_of(slices_rps: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(slices_rps.to_vec()), CAPACITY_PERCENTILE)
}

/// Result of one open-loop phase.
struct OpenPhase {
    counts: PhaseCounts,
    p50_us: Option<(f64, usize)>,
    /// p90 of the quietest window.
    quiet_p90_us: Option<f64>,
    p99_us: Option<(f64, usize)>,
    samples: usize,
    gen_late_us_p99: f64,
    sojourn_us: Vec<f64>,
    /// The quiet median: [`stats::QUIET_PERCENTILE`] over the
    /// [`QUIET_WINDOW_S`] windows of each window's p50, with the number of
    /// windows.
    quiet_p50_us: Option<(f64, usize)>,
}

fn open_phase(
    client: &mut Client<'_>,
    rate: f64,
    horizon_s: f64,
    patience_s: f64,
    seed: u64,
) -> OpenPhase {
    let (due, tenants) = schedule(rate, horizon_s, seed);
    client.begin_phase(tenants);
    let log = run_open_loop(&due, patience_s, &mut WallClock(Instant::now()), client);
    debug_assert_eq!(
        (log.retries, log.shed),
        (client.counts.retried, client.counts.shed)
    );
    let mut windows = Windowed::new(WINDOW_S, horizon_s);
    let mut fine = Windowed::new(QUIET_WINDOW_S, horizon_s);
    for &(i, lat) in &log.latency_s {
        windows.record(due[i], lat * 1e6);
        fine.record(due[i], lat * 1e6);
    }
    let late = stats::sorted(log.late_s.iter().map(|s| s * 1e6).collect());
    let sojourn_us = client.sojourn_s.iter().map(|s| s * 1e6).collect();
    OpenPhase {
        counts: client.counts,
        p50_us: windows.median_of(50.0),
        quiet_p90_us: windows.quietest_of(90.0),
        p99_us: windows.median_of(99.0),
        samples: windows.count(),
        gen_late_us_p99: stats::percentile(&late, 99.0),
        sojourn_us,
        quiet_p50_us: fine.percentile_of(50.0, stats::QUIET_PERCENTILE),
    }
}

fn note_phase(outcome: &mut Outcome, label: &str, c: PhaseCounts) {
    outcome.notes.push(format!(
        "phase {label}: attempted {} completed {} shed {} errored {} wrong {} (refused and offered again: {})",
        c.attempted, c.completed, c.shed, c.errored, c.wrong, c.retried
    ));
}

/// Adds a phase's counters to the run's totals.
fn fold(outcome: &mut Outcome, label: &str, c: PhaseCounts) {
    note_phase(outcome, label, c);
    outcome.attempted += c.attempted;
    outcome.failed += c.shed + c.errored + c.wrong;
    outcome.wrong += c.errored + c.wrong;
}

struct Inputs {
    ring: Ring,
    /// `Some` until shut down; `Server` has no `Drop`, so a set-up repeat
    /// that is thrown away must still join its workers.
    server: Option<Server>,
    workers: usize,
}

impl Inputs {
    fn shutdown(&mut self) -> Option<cdma_serve::ServerStats> {
        self.server.take().map(Server::shutdown)
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The staging pool the workload's server runs with, bytes.
fn staging_bytes() -> u64 {
    STAGING_POOLS * ServerConfig::default().staging_bytes
}

fn build(seed: u64, workers: usize) -> Inputs {
    let mut ring = Ring::build(seed);
    let server = Server::start(
        ServerConfig {
            workers,
            staging_bytes: staging_bytes(),
            ..ServerConfig::default()
        },
        tenant_specs(),
    );
    // Warm-up: a short closed loop so the buffer pools, deques and
    // worker threads are hot before the clock starts.
    let mut tracer = Tracer::off();
    Client::new(&server, &mut ring, &mut tracer).closed_loop(WARM_UP_S);
    Inputs {
        ring,
        server: Some(server),
        workers,
    }
}

/// Runs the workload.
pub fn run(args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.saturating_sub(1).max(1);
    // One generator thread plus the workers: never more threads than
    // cores, so a single-core box cannot run this workload.
    assert!(
        workers < nproc,
        "serve_4k needs a generator thread and a worker: 2 threads on {nproc} core(s)"
    );
    outcome.notes.push(format!(
        "threads: 1 generator + {workers} worker(s) on {nproc} core(s)"
    ));

    let inputs = timed_setup(&mut outcome, |_| build(args.seed, workers));
    if tracer.enabled() {
        traced(args, inputs, &mut outcome, tracer);
    } else {
        untraced(args, inputs, &mut outcome);
    }
    outcome
}

fn untraced(args: RunArgs, mut inputs: Inputs, outcome: &mut Outcome) {
    let mut off = Tracer::off();
    let server = inputs
        .server
        .as_ref()
        .expect("set-up leaves the server running");
    let mut client = Client::new(server, &mut inputs.ring, &mut off);

    // Phase A: open loop at 40 k req/s for 60% of the run.
    let a = open_phase(
        &mut client,
        RATE_A,
        args.seconds * 0.6,
        PATIENCE_S,
        args.seed,
    );
    // Phase C: closed loop for the rest.
    let slices = client.closed_loop(args.seconds * 0.4);
    let c = client.begin_phase(Vec::new());
    let sweep = client.sweep();
    drop(client);

    fold(outcome, "A open 40k", a.counts);
    fold(outcome, "C closed", c);
    fold(outcome, "sweep", sweep);
    let (p50, w50) = a.p50_us.expect("phase A has a full window");
    let p90 = a
        .quiet_p90_us
        .expect("phase A has a window with 100 samples");
    let (p99, w99) = a.p99_us.expect("phase A has a window with 1000 samples");
    let capacity = capacity_of(&slices);
    let by_rate = stats::sorted(slices.clone());
    outcome.notes.push(format!(
        "phase C: {} slices of {CAPACITY_SLICE_S} s, req/s min {:.0} p25 {:.0} p75 {:.0} max {:.0}",
        by_rate.len(),
        by_rate[0],
        stats::percentile(&by_rate, 25.0),
        stats::percentile(&by_rate, 75.0),
        by_rate[by_rate.len() - 1],
    ));
    outcome.notes.push(format!(
        "phase A: {} latencies in {w50} windows ({w99} support p99); generator late p99 {:.1} us",
        a.samples, a.gen_late_us_p99
    ));
    outcome.native("serve_p50_us", p50, a.samples);
    outcome.native("serve_p99_us", p99, a.samples);
    outcome.native(
        "serve_fail_share",
        a.counts.fail_share(),
        a.counts.attempted as usize,
    );
    outcome.e2e("serve_capacity_rps", capacity, slices.len());
    // Step: one request, phase A latency from its due time. At 40 k
    // req/s the worker is parked when most requests arrive, so the latency
    // distribution is the host's wake-up latency: the median is its body,
    // and everything above it follows the host's other tenants — p99 sits
    // on the knee (it reads ~60 us or ~350 us depending on which side of
    // 1% the share of slow wake-ups falls in a run), and even the quietest
    // window's p90 read 30 and 42 us in two sets of ten runs an hour
    // apart. Both are printed; no bound the contract allows can rest on
    // them. The median itself moves with the host too — while the host
    // takes the cores away for milliseconds at a time it has read 250 us
    // and 1250 us — so `step_ms` is the quiet median: the tenth percentile
    // over 50 ms windows of each window's median. Under a synthetic
    // neighbour (one or two bursty busy loops in the guest) the median of
    // the 0.5 s windows rose 15-30%, the quiet median 5-15%.
    outcome
        .notes
        .push(format!("phase A: p90 of the quietest window {p90:.1} us"));
    let (quiet, quiet_windows) = a.quiet_p50_us.expect("phase A has a full short window");
    outcome.notes.push(format!(
        "phase A: quiet median over {quiet_windows} windows of {QUIET_WINDOW_S} s"
    ));
    outcome.e2e("step_ms", quiet / 1e3, a.samples);
    outcome.native("step_ms_p50", p50 / 1e3, a.samples);
    outcome.e2e("peak_rss_mb", stats::peak_rss_mb(), 1);
}

fn traced(args: RunArgs, mut inputs: Inputs, outcome: &mut Outcome, tracer: &mut Tracer) {
    let workers = inputs.workers;
    let server = inputs
        .server
        .as_ref()
        .expect("set-up leaves the server running");

    // Phase A with spans around submit, drain and recycle.
    let mut client = Client::new(server, &mut inputs.ring, tracer);
    let a = open_phase(
        &mut client,
        RATE_A,
        args.seconds * 0.30,
        PATIENCE_S,
        args.seed,
    );
    fold(outcome, "A open 40k, traced", a.counts);
    drop(client);
    let spans_of_a = tracer.recorder().map_or(0, |r| r.spans().len());

    // Phase B, the ladder, and the closed-loop baseline run with the
    // recorder out of the loop: their numbers come from the generator's
    // own log. Sheds on the ladder are findings, not failures of the
    // workload: they are reported per rate and decide the SLO rate.
    let mut off = Tracer::off();
    let mut client = Client::new(server, &mut inputs.ring, &mut off);
    let rungs: Vec<OpenPhase> = LADDER
        .iter()
        .map(|&rate| {
            let p = open_phase(
                &mut client,
                rate,
                args.seconds * 0.10,
                0.0,
                args.seed ^ rate as u64,
            );
            note_phase(outcome, &format!("B open {:.0}k", rate / 1e3), p.counts);
            p
        })
        .collect();
    let mut ladder = vec![(RATE_A, &a)];
    ladder.extend(LADDER.iter().copied().zip(&rungs));
    let mut max_in_slo = 0.0f64;
    for (rate, p) in &ladder {
        let p99 = p.p99_us.map_or(0.0, |(v, _)| v);
        outcome.layer(
            format!("serve.server.p99_us_at_{:.0}k", rate / 1e3),
            p99,
            p.samples,
        );
        if p.p99_us.is_some() && p99 <= SLO_P99_US && p.counts.fail_share() <= SLO_FAIL_SHARE {
            max_in_slo = max_in_slo.max(*rate);
        }
    }
    outcome.layer("serve.server.max_rate_in_slo_rps", max_in_slo, ladder.len());
    let late = ladder
        .iter()
        .map(|(_, p)| p.gen_late_us_p99)
        .fold(0.0, f64::max);
    outcome.layer("serve.server.gen_late_us_p99", late, ladder.len());

    // Phase C twice, back to back on the warm server: untraced, then
    // traced. Their ratio is the tracing overhead.
    let base = capacity_of(&client.closed_loop(args.seconds * 0.15));
    fold(
        outcome,
        "C closed, untraced",
        client.begin_phase(Vec::new()),
    );
    drop(client);
    let mut client = Client::new(server, &mut inputs.ring, tracer);
    let rps = client.closed_loop(args.seconds * 0.15);
    fold(outcome, "C closed, traced", client.begin_phase(Vec::new()));
    let capacity = capacity_of(&rps);
    let sweep = client.sweep();
    fold(outcome, "sweep", sweep);
    drop(client);

    // serve.sched / serve.server from phase A's spans.
    let rec = tracer.recorder().expect("traced run has a recorder");
    let us = |name: &str| {
        stats::sorted(
            rec.spans()[..spans_of_a]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect(),
        )
    };
    let submit = us(SPAN_SUBMIT);
    outcome.layer(
        "serve.sched.submit_us_p50",
        stats::percentile(&submit, 50.0),
        submit.len(),
    );
    outcome.layer(
        "serve.sched.submit_us_p99",
        stats::percentile(&submit, 99.0),
        submit.len(),
    );
    // A harvest is one drain that found work plus the recycle it led to.
    let (drain, recycle) = (us(SPAN_DRAIN), us(SPAN_RECYCLE));
    let harvest = stats::percentile(&drain, 50.0) + stats::percentile(&recycle, 50.0);
    outcome.layer("serve.server.harvest_us_p50", harvest, recycle.len());
    let sojourn = stats::sorted(a.sojourn_us.clone());
    let sojourn_p50 = stats::percentile(&sojourn, 50.0);
    outcome.layer("serve.server.sojourn_us_p50", sojourn_p50, sojourn.len());
    outcome.layer(
        "serve.server.sojourn_us_p99",
        stats::percentile(&sojourn, 99.0),
        sojourn.len(),
    );
    outcome.layer("serve.server.capacity_rps", capacity, rps.len());
    outcome.layer(
        "serve.server.fail_share",
        a.counts.fail_share(),
        a.counts.attempted as usize,
    );
    outcome.layer(
        "bench.trace.overhead_share",
        1.0 - capacity / base,
        rps.len(),
    );

    // serve.exec: the kernel alone on the ring's payloads, no server.
    let kernel_us = kernel_alone(&mut inputs.ring);
    outcome.layer("serve.exec.kernel_us_p50", kernel_us, RING);
    outcome.layer(
        "serve.server.overhead_us_p50",
        sojourn_p50 - kernel_us,
        sojourn.len(),
    );
    let zvc_4k_bps = zvc_rate_4k(&inputs.ring);
    outcome.layer("compress.zvc.compress_gbps", zvc_4k_bps / 1e9, RING);
    // Goodput one worker delivers, as a share of what its kernel could.
    outcome.layer(
        "serve.exec.goodput_share_of_kernel",
        capacity * (WINDOW_WORDS * 4) as f64 / workers as f64 / zvc_4k_bps,
        rps.len(),
    );
    outcome.layer("gpusim.staging.mops_per_s", staging_mops(), 1);

    let shed = [TRAINER, PREFETCH].map(|t| {
        server
            .counters(TenantId(t))
            .map_or(0, |c| c.shed_queue + c.shed_staging + c.quota_rejected)
    });
    let stats = inputs.shutdown().expect("the server was still running");
    outcome.layer("serve.sched.shed_trainer", shed[0] as f64, 1);
    outcome.layer("serve.sched.shed_prefetch", shed[1] as f64, 1);
    outcome.layer("serve.server.steals", stats.steals as f64, 1);
    outcome.layer(
        "serve.server.buffer_pool_misses",
        stats.buffer_pool.misses as f64,
        1,
    );
    outcome.layer(
        "serve.server.staging_high_water_bytes",
        stats.staging_high_water as f64,
        1,
    );
}

// ---------------------------------------------------------------------
// Layer micro-measurements of the traced run.
// ---------------------------------------------------------------------

/// Median microseconds of `DefaultKernel::execute` per request over the
/// ring's trainer and prefetch payloads in the workload's 70/30 mix,
/// timed in batches of sixteen so the clock is not the measurement.
fn kernel_alone(ring: &mut Ring) -> f64 {
    const BATCH: usize = 16;
    let kernel = DefaultKernel;
    let mut bufs = OutputBufs::default();
    let mut samples = Vec::with_capacity(RING / BATCH);
    for batch in 0..RING / BATCH {
        let t0 = Instant::now();
        for k in 0..BATCH {
            let slot = batch * BATCH + k;
            let req = if k % 10 < 7 {
                let w = ring.words[slot]
                    .take()
                    .expect("ring is home between phases");
                Request::compress(TenantId(TRAINER), slot as u64, Algorithm::Zvc, w)
            } else {
                let b = ring.packed[slot]
                    .take()
                    .expect("ring is home between phases");
                Request::decompress(
                    TenantId(PREFETCH),
                    slot as u64,
                    Algorithm::Zvc,
                    b,
                    WINDOW_WORDS as u32,
                )
            };
            let mut resp = kernel.execute(req, WINDOW_WORDS, bufs);
            if resp.kind == JobKind::Compress {
                ring.words[slot] = Some(std::mem::take(&mut resp.input_words));
            } else {
                ring.packed[slot] = Some(std::mem::take(&mut resp.input_bytes));
            }
            bufs = OutputBufs {
                bytes: resp.bytes,
                offsets: resp.offsets,
                words: resp.words,
            };
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    black_box(&bufs);
    stats::median(&samples)
}

/// Bytes per second of the bare ZVC codec on the ring's 4 KB windows.
fn zvc_rate_4k(ring: &Ring) -> f64 {
    let codec = Algorithm::Zvc.codec();
    let mut out = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for w in ring.words.iter().flatten() {
            codec.compress_into(w, &mut out);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    black_box(out.len());
    (RING * WINDOW_WORDS * 4) as f64 / best
}

/// Millions of `StagingPool` admit/release pairs per second, at the
/// server's pool size and one window's footprint.
fn staging_mops() -> f64 {
    const PAIRS: u64 = 5_000_000;
    let footprint = (WINDOW_WORDS * 4) as u64;
    let mut pool = StagingPool::new(staging_bytes());
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        black_box(pool.admit(footprint)).expect("an empty pool admits one window");
        pool.release(footprint);
    }
    black_box(pool.high_water());
    PAIRS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that advances 10 us per read and can be told to stall.
    struct FakeClock {
        now: Rc<Cell<f64>>,
        stall_at: f64,
        stall_for: f64,
        stalled: bool,
    }

    impl Clock for FakeClock {
        fn now_s(&mut self) -> f64 {
            let mut t = self.now.get() + 10e-6;
            if !self.stalled && t >= self.stall_at {
                // The generator loses the CPU: time passes, it sends nothing.
                self.stalled = true;
                t += self.stall_for;
            }
            self.now.set(t);
            t
        }
    }

    /// A server that finishes every request a fixed time after submit,
    /// and refuses everything offered during `[refuse_from, refuse_until)`.
    struct FakeSink {
        now: Rc<Cell<f64>>,
        service_s: f64,
        refuse_from: f64,
        refuse_until: f64,
        in_flight: Vec<(usize, f64)>,
        submitted_at: Vec<f64>,
        abandoned: Vec<usize>,
    }

    impl Sink for FakeSink {
        fn submit(&mut self, index: usize) -> bool {
            let t = self.now.get();
            if (self.refuse_from..self.refuse_until).contains(&t) {
                return false;
            }
            self.submitted_at.push(t);
            self.in_flight.push((index, t + self.service_s));
            true
        }

        fn abandon(&mut self, index: usize) {
            self.abandoned.push(index);
        }

        fn harvest(&mut self, done: &mut Vec<usize>) {
            // A harvest takes a microsecond, so waiting on the sink alone
            // still lets time pass.
            let t = self.now.get() + 1e-6;
            self.now.set(t);
            self.in_flight.retain(|&(i, finish)| {
                if finish <= t {
                    done.push(i);
                }
                finish > t
            });
        }

        fn outstanding(&self) -> usize {
            self.in_flight.len()
        }
    }

    fn replay(stall_for: f64) -> (OpenLoopLog, Vec<f64>, Vec<f64>) {
        let now = Rc::new(Cell::new(0.0));
        let due: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let mut clock = FakeClock {
            now: now.clone(),
            stall_at: 0.0105,
            stall_for,
            stalled: stall_for == 0.0,
        };
        let mut sink = FakeSink {
            now,
            service_s: 100e-6,
            refuse_from: 0.0,
            refuse_until: 0.0,
            in_flight: Vec::new(),
            submitted_at: Vec::new(),
            abandoned: Vec::new(),
        };
        let log = run_open_loop(&due, 0.0, &mut clock, &mut sink);
        (log, due, sink.submitted_at)
    }

    /// A punctual generator against a server that refuses for 20 ms.
    fn replay_refusing(patience_s: f64) -> (OpenLoopLog, Vec<usize>) {
        let now = Rc::new(Cell::new(0.0));
        let due: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let mut clock = FakeClock {
            now: now.clone(),
            stall_at: 0.0,
            stall_for: 0.0,
            stalled: true,
        };
        let mut sink = FakeSink {
            now,
            service_s: 100e-6,
            refuse_from: 0.0295,
            refuse_until: 0.0495,
            in_flight: Vec::new(),
            submitted_at: Vec::new(),
            abandoned: Vec::new(),
        };
        let log = run_open_loop(&due, patience_s, &mut clock, &mut sink);
        (log, sink.abandoned)
    }

    #[test]
    fn a_refused_arrival_waits_and_its_wait_is_latency() {
        // Arrival 29 (due at 30 ms) is refused until 49.5 ms. A patient
        // generator keeps offering it: nothing is shed, the 19.5 ms are in
        // its latency, and the arrivals that fell due meanwhile queue up
        // behind it and carry their own share of the wait.
        let (log, abandoned) = replay_refusing(1.0);
        assert_eq!((log.shed, abandoned.len()), (0, 0));
        assert!(log.retries > 100, "{} retries", log.retries);
        assert_eq!(log.latency_s.len(), 100);
        let latency: std::collections::BTreeMap<usize, f64> =
            log.latency_s.iter().copied().collect();
        assert!(latency[&28] < 300e-6);
        assert!(latency[&29] > 19e-3, "arrival 29 waited: {}", latency[&29]);
        assert!(latency[&40] > 8e-3, "arrival 40 queued: {}", latency[&40]);
        assert!(log.late_s[40] > 8e-3);
        assert!(latency[&60] < 300e-6 && log.late_s[60] <= 20e-6);
        // Without patience every refusal is a shed, as on the ladder.
        let (log, abandoned) = replay_refusing(0.0);
        assert_eq!(log.retries, 0);
        assert_eq!(log.shed, 20);
        assert_eq!(abandoned, (29..49).collect::<Vec<_>>());
        assert_eq!(log.latency_s.len(), 80);
        // Patience runs out: the arrival is given up, the next is offered.
        let (log, abandoned) = replay_refusing(5e-3);
        assert!(log.shed >= 1 && abandoned[0] == 29);
        assert_eq!(log.latency_s.len() + abandoned.len(), 100);
    }

    #[test]
    fn a_punctual_generator_measures_service_time() {
        let (log, _, _) = replay(0.0);
        assert_eq!(log.latency_s.len(), 100);
        assert_eq!(log.shed, 0);
        assert!(log.late_s.iter().all(|&l| (0.0..=20e-6).contains(&l)));
        assert!(log
            .latency_s
            .iter()
            .all(|&(_, l)| (100e-6..200e-6).contains(&l)));
    }

    #[test]
    fn a_stalled_generator_lengthens_later_latencies_instead_of_hiding_them() {
        // The generator stalls 50 ms just after arrival 10 is sent.
        let (log, due, submitted_at) = replay(50e-3);
        assert_eq!(log.latency_s.len(), 100);
        let latency: std::collections::BTreeMap<usize, f64> =
            log.latency_s.iter().copied().collect();
        // Arrivals due during the stall were sent late...
        assert!(log.late_s[11] > 45e-3 && log.late_s[59] > 0.0);
        // ...and the time they waited for the generator is in their latency:
        assert!(
            latency[&11] > 45e-3,
            "arrival 11 waited the stall out: {}",
            latency[&11]
        );
        assert!(latency[&40] > 15e-3);
        // timing from the submit instead would have hidden all of it.
        let from_submit = due[11] + latency[&11] - submitted_at[11];
        assert!(
            from_submit < 300e-6,
            "submit-relative latency {from_submit} hides the stall"
        );
        // Once the backlog is sent the generator is punctual again.
        assert!(log.late_s[90] <= 20e-6 && latency[&90] < 300e-6);
        // Lateness is exactly submit time minus due time.
        for i in [0usize, 11, 40, 90] {
            assert!((log.late_s[i] - (submitted_at[i] - due[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn schedule_splits_seventy_thirty_and_repeats_per_seed() {
        let (due, tenants) = schedule(10_000.0, 1.0, 7);
        assert_eq!(schedule(10_000.0, 1.0, 7), (due.clone(), tenants.clone()));
        assert_ne!(schedule(10_000.0, 1.0, 8).0, due);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let trainer = tenants.iter().filter(|&&t| t == TRAINER).count() as f64;
        let share = trainer / tenants.len() as f64;
        assert!(
            (share - TRAINER_SHARE).abs() < 0.03,
            "trainer share {share}"
        );
        assert!((due.len() as f64 - 10_000.0).abs() < 400.0);
    }

    #[test]
    fn the_ring_round_trips_through_a_real_server() {
        let mut inputs = build(3, 1);
        let mut tracer = Tracer::off();
        let server = inputs.server.as_ref().unwrap();
        let mut client = Client::new(server, &mut inputs.ring, &mut tracer);
        let sweep = client.sweep();
        drop(client);
        assert_eq!(sweep.attempted, 2 * RING as u64);
        assert_eq!(sweep.completed, sweep.attempted);
        assert_eq!((sweep.shed, sweep.errored, sweep.wrong), (0, 0, 0));
        // Every payload came home.
        assert!(inputs.ring.words.iter().all(Option::is_some));
        assert!(inputs.ring.packed.iter().all(Option::is_some));
        // A corrupted reference is caught by the sweep.
        inputs.ring.ref_bytes[5][0] ^= 0xFF;
        inputs.ring.originals[9][0] = f32::from_bits(inputs.ring.originals[9][0].to_bits() ^ 1);
        let mut client = Client::new(server, &mut inputs.ring, &mut tracer);
        assert_eq!(client.sweep().wrong, 2);
    }
}
