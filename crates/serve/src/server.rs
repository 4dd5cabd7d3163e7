//! The thread-per-core worker pool: the engine as a long-running service.
//!
//! Layout mirrors the paper's DMA engine turned inside out for a host
//! service:
//!
//! * **Admission** — one [`TenantScheduler`] + [`StagingPool`] behind a
//!   single mutex answers accept/shed at submit time (the staging-buffer
//!   backpressure model applied to real queue depths).
//! * **Dispatch** — workers pull jobs from the scheduler `dispatch_batch`
//!   at a time into per-worker deques, and **steal** from the back of
//!   each other's deques when their own runs dry, so one slow tenant's
//!   burst cannot idle the pool.
//! * **Execution** — the shared `exec::execute` kernel, its unwind
//!   caught so a panicking kernel fails one request and not the pool,
//!   with output buffers recycled through [`Pool`]s, so the steady state
//!   allocates nothing per request.
//!
//! Completions land in a shared vector drained by the client
//! ([`Server::drain_completions`]); [`Server::recycle`] closes the buffer
//! loop.
//!
//! # The hand-off
//!
//! The paper's engine moves a line from compressor to staging buffer to
//! PCIe with no software on the path. Here the path is software, so its
//! cost is paid per *batch*, not per request, by three rules:
//!
//! 1. **Wake only sleepers.** A condvar notify is a `futex_wake` system
//!    call whether or not anybody sleeps, so every sleeper registers
//!    under the mutex its notifier already holds, and the notifier reads
//!    the count in the same critical section as the change the sleeper
//!    waits for. A worker counts itself into `idle` under the `state`
//!    mutex after finding the scheduler empty under that same hold;
//!    [`Server::submit`] enqueues and reads `idle` under it, and so does a
//!    worker that pulled overflow a sibling could steal. A
//!    [`Server::wait_drained`] caller counts itself into `waiters` under
//!    the `completions` mutex, under which a publish appends, lowers
//!    `outstanding` and — when that reached zero, the one value a waiter
//!    waits for — reads `waiters`. One lock orders registration with the
//!    enqueue or the push, so no wake-up is lost. Whoever notifies takes
//!    the sleepers it wakes off the count, so a sleeper costs one system
//!    call however many submits arrive while it wakes up; a sleeper that
//!    the millisecond `wait_timeout` backstop woke takes itself off.
//! 2. **Publish per batch.** A worker keeps finished jobs in a buffer of
//!    its own, sized once at start, and publishes them in one flush: one
//!    `state` acquisition releases their staging footprints and records
//!    their accounting, one `completions` acquisition appends them and
//!    lowers `outstanding` by their number. It flushes when the buffer
//!    holds `dispatch_batch` jobs or `dispatch_batch` windows of
//!    footprint (`DEFAULT_WINDOW_BYTES`, 4 KB, each), *before* starting a
//!    job that would take it past that footprint, and whenever its own
//!    deque is empty. So a reservation is held exactly until its
//!    completion is visible; a finished job waits behind at most
//!    `dispatch_batch − 1` later jobs of less than a batch of windows in
//!    all, never behind a multi-window job and never behind a worker that
//!    pulls, steals, spins or parks; and at low load every job publishes
//!    at once. Output buffers leave the pool the same way, one lock per
//!    pulled batch.
//! 3. **Spin before parking.** A worker with nothing to do polls the
//!    lock-free `backlog` counter for `SPIN_BUDGET` (50 µs, derived at
//!    its definition), yielding its core between looks, and only then
//!    parks: a server left alone sleeps, a server under tens of thousands
//!    of requests a second stops paying a futex wake-up per request. The
//!    budget is a constant, not a knob: it is a property of what it
//!    amortises (the host's wake-up latency), not of any workload, and no
//!    caller has a second value to set it to.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cdma_compress::pool::{Pool, PoolStats};
use cdma_compress::windowed::DEFAULT_WINDOW_BYTES;
use cdma_compress::Algorithm;
use cdma_gpusim::staging::StagingPool;

use crate::error::ServeError;
use crate::exec::{execute_caught, DefaultKernel, JobKernel, OutputBufs};
use crate::proto::{Request, Response};
use crate::sched::{Job, TenantScheduler, TenantSpec};

/// How long an idle worker polls for work before it parks.
///
/// Parking costs the *next* request a futex round trip: the submitter's
/// `futex_wake` plus the kernel getting the worker back on a core, which
/// `serve_4k` measured as its whole median latency (~20 µs of wake-up
/// around a ~1 µs kernel). Polling for as long as parking costs is the
/// ski-rental bound: an idle gap shorter than the budget costs the poll
/// and no wake-up, a longer one costs the budget on top of the wake-up
/// it would have paid anyway, so the worker never spends more than
/// about twice the better choice in hindsight, and never more than the
/// budget per idle period however long that lasts. Two round trips
/// rather than one because the round trip is what the host makes it
/// (longer when virtualised or busy). Arrivals less than the budget apart
/// — 86% of Poisson arrivals at 40 k requests a second — never meet a
/// parked worker.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Longest a parked worker or drain waiter sleeps before it looks again:
/// the backstop behind the registered wake-ups.
const PARK_BACKSTOP: Duration = Duration::from_millis(1);

/// Static configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Codec applied to every job.
    pub algorithm: Algorithm,
    /// Worker threads.
    pub workers: usize,
    /// Shared staging-pool capacity in bytes — the admission-control
    /// budget every in-flight request reserves its uncompressed footprint
    /// from.
    pub staging_bytes: u64,
    /// Jobs a worker pulls from the scheduler per lock acquisition, and
    /// the most finished jobs it publishes per lock acquisition.
    pub dispatch_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            algorithm: Algorithm::Zvc,
            workers: 4,
            // Sixteen default staging buffers' worth (Section V-C sizes
            // one engine's buffer at 70 KB): room for ~280 four-KB
            // windows in flight.
            staging_bytes: 16 * 70 * 1024,
            dispatch_batch: 4,
        }
    }
}

/// One finished job, as drained by the client.
#[derive(Debug)]
pub struct Completion {
    /// The job's result (with the request's input buffers inside, ready
    /// for [`Server::recycle`]).
    pub response: Response,
    /// Submit time, seconds since server start.
    pub arrival_s: f64,
    /// Completion time, seconds since server start: when the response
    /// became drainable (jobs published together share the stamp).
    pub finished_s: f64,
}

/// Lifetime statistics, from [`Server::stats`] while the server runs and
/// from [`Server::shutdown`] when it stops.
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    /// Jobs moved between workers by stealing.
    pub steals: u64,
    /// Output-buffer pool accounting; a warm steady state stops missing.
    pub buffer_pool: PoolStats,
    /// Staging-pool high-water mark in bytes.
    pub staging_high_water: u64,
    /// Staging bytes reserved right now: the footprints of every admitted
    /// job whose completion is not published yet. Zero whenever
    /// [`Server::outstanding`] is.
    pub staging_in_use: u64,
    /// Times a worker went to sleep on the work condvar.
    pub parks: u64,
    /// Condvar notifies actually issued (to parked workers and drain
    /// waiters); a saturated server issues next to none.
    pub wakes: u64,
    /// Flushes that made completions drainable; requests over this is
    /// the mean publish batch.
    pub completion_batches: u64,
    /// Worker threads [`Server::shutdown`] found dead (a bug in the
    /// server, not in a kernel: kernel panics are caught).
    pub workers_lost: u64,
}

struct SchedState {
    sched: TenantScheduler,
    pool: StagingPool,
    /// Workers asleep on `work_cv` that nobody has woken yet (hand-off
    /// rule 1).
    idle: usize,
    parks: u64,
    wakes: u64,
}

impl SchedState {
    /// Takes one sleeping worker off the count, if there is one; the
    /// caller owes it a `work_cv.notify_one()` once the lock is released.
    fn wake_one(&mut self) -> bool {
        let sleeper = self.idle > 0;
        if sleeper {
            self.idle -= 1;
            self.wakes += 1;
        }
        sleeper
    }
}

struct Completions {
    list: Vec<Completion>,
    /// [`Server::wait_drained`] callers asleep on `done_cv` that nobody
    /// has woken yet (rule 1).
    waiters: usize,
    batches: u64,
    wakes: u64,
}

/// A job that ran and whose completion is not published yet.
struct Finished {
    tenant: u16,
    footprint: u64,
    arrival_s: f64,
    response: Response,
}

/// What a worker keeps between lock acquisitions (hand-off rule 2). Both
/// vectors are sized once and never outgrow `dispatch_batch`.
struct Local {
    finished: Vec<Finished>,
    /// Staging bytes the jobs in `finished` still hold.
    footprint: u64,
    /// Output buffers checked out for the jobs in the worker's deque.
    bufs: Vec<OutputBufs>,
}

struct Shared {
    config: ServerConfig,
    start: Instant,
    state: Mutex<SchedState>,
    /// Workers park here; notified only while `SchedState::idle > 0`.
    work_cv: Condvar,
    /// Per-worker deques: owner pops the front, thieves pop the back.
    deques: Vec<Mutex<VecDeque<Job>>>,
    completions: Mutex<Completions>,
    /// [`Server::wait_drained`] parks here; notified only while
    /// `Completions::waiters > 0`.
    done_cv: Condvar,
    /// Admitted jobs not yet in `completions`.
    outstanding: AtomicUsize,
    /// The scheduler's backlog, for spinning workers to poll: written
    /// under the `state` mutex, read without it. Relaxed — it publishes
    /// nothing; whoever sees it rise takes the mutex to get the job.
    backlog: AtomicUsize,
    shutdown: AtomicBool,
    steals: AtomicU64,
    out_pool: Mutex<Pool<OutputBufs>>,
    kernel: Arc<dyn JobKernel>,
}

impl Shared {
    /// Staging footprint at which a worker's finished jobs publish.
    fn flush_bytes(&self) -> u64 {
        (self.config.dispatch_batch * DEFAULT_WINDOW_BYTES) as u64
    }

    /// Makes the worker's finished jobs drainable (hand-off rule 2).
    fn publish(&self, local: &mut Local) {
        let n = local.finished.len();
        if n == 0 {
            return;
        }
        {
            let mut st = self.state.lock().unwrap();
            for f in &local.finished {
                st.pool.release(f.footprint);
                st.sched.complete(
                    f.tenant,
                    f.response.uncompressed_bytes,
                    f.response.wire_bytes,
                );
            }
        }
        local.footprint = 0;
        let finished_s = self.start.elapsed().as_secs_f64();
        let wake = {
            let mut done = self.completions.lock().unwrap();
            done.list
                .extend(local.finished.drain(..).map(|f| Completion {
                    response: f.response,
                    arrival_s: f.arrival_s,
                    finished_s,
                }));
            // Lowered under the lock a drain waiter registers under, and
            // after the push: whoever reads the new count finds the
            // completions.
            let drained = self.outstanding.fetch_sub(n, Ordering::AcqRel) == n;
            done.batches += 1;
            // A waiter waits for zero and nothing else.
            let wake = drained && done.waiters > 0;
            if wake {
                done.waiters = 0;
                done.wakes += 1;
            }
            wake
        };
        if wake {
            self.done_cv.notify_all();
        }
    }

    /// Tops the worker's output buffers up to `want`, one lock for all.
    /// Only the buffer the next job needs is worth a pool miss; the rest
    /// are taken if they are there.
    fn checkout(&self, local: &mut Local, want: usize) {
        if local.bufs.len() < want {
            let mut pool = self.out_pool.lock().unwrap();
            while local.bufs.len() < want && (local.bufs.is_empty() || pool.idle() > 0) {
                local.bufs.push(pool.get());
            }
        }
    }

    fn run_job(&self, mut job: Job, local: &mut Local) {
        // A finished job never waits behind more than a batch of windows.
        if local.footprint + job.footprint > self.flush_bytes() {
            self.publish(local);
        }
        let req = job.req.take().expect("job carries its request");
        self.checkout(local, 1);
        let bufs = local.bufs.pop().expect("checked out above");
        let window_elems = DEFAULT_WINDOW_BYTES / 4;
        // Codec choice travels in the frame; the kernel resolves it.
        let response = execute_caught(&*self.kernel, req, window_elems, bufs);
        local.footprint += job.footprint;
        local.finished.push(Finished {
            tenant: job.tenant,
            footprint: job.footprint,
            arrival_s: job.arrival_s,
            response,
        });
        if local.finished.len() >= self.config.dispatch_batch
            || local.footprint >= self.flush_bytes()
        {
            self.publish(local);
        }
    }

    /// Pulls up to `dispatch_batch` jobs from the scheduler: returns the
    /// first, leaves the rest in the worker's own deque, and checks out an
    /// output buffer for each.
    fn pull(&self, me: usize, local: &mut Local) -> Option<Job> {
        let (first, pulled, wake) = {
            let mut st = self.state.lock().unwrap();
            let first = st.sched.pop_next()?;
            let mut pulled = 1;
            {
                let mut mine = self.deques[me].lock().unwrap();
                while pulled < self.config.dispatch_batch {
                    match st.sched.pop_next() {
                        Some(j) => mine.push_back(j),
                        None => break,
                    }
                    pulled += 1;
                }
            }
            let left = st.sched.backlog();
            self.backlog.store(left, Ordering::Relaxed);
            // A sleeper is worth a system call only if there is
            // something for it: overflow to steal, or backlog left.
            let wake = (pulled > 1 || left > 0) && st.wake_one();
            (first, pulled, wake)
        };
        if wake {
            self.work_cv.notify_one();
        }
        self.checkout(local, pulled);
        Some(first)
    }

    /// The next job for worker `me`, from wherever there is one.
    fn next_job(&self, me: usize, local: &mut Local) -> Option<Job> {
        // 1. Own deque, front (FIFO within a worker).
        let own = self.deques[me].lock().unwrap().pop_front();
        if own.is_some() {
            return own;
        }
        // Own deque empty: nothing finished waits behind a pull, a
        // steal, the spin, a park or the exit.
        self.publish(local);
        // 2. The scheduler (fairness decisions live there).
        if let Some(job) = self.pull(me, local) {
            return Some(job);
        }
        // 3. Steal from the back of a sibling's deque.
        let n = self.deques.len();
        let stolen = (0..n)
            .filter(|&i| i != me)
            .find_map(|i| self.deques[(me + 1 + i) % n].lock().unwrap().pop_back());
        if stolen.is_some() {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        stolen
    }

    /// Polls for work without a lock, for at most [`SPIN_BUDGET`]
    /// (hand-off rule 3).
    fn spin(&self) {
        let t0 = Instant::now();
        while self.backlog.load(Ordering::Relaxed) == 0
            && !self.shutdown.load(Ordering::Acquire)
            && t0.elapsed() < SPIN_BUDGET
        {
            // Not `spin_loop`: the kernel likes to wake a worker on the
            // core of the submitter that woke it, and a worker that
            // busy-waits there keeps off the core the only thread that
            // can end its wait. Measured on two cores with a submitter
            // that never sleeps: every job then cost a wake-up plus the
            // whole budget (~85 us a job against ~20 us with no spin at
            // all); yielding, the same loop never parks.
            thread::yield_now();
        }
    }

    /// Sleeps until woken or [`PARK_BACKSTOP`], unless work arrived in
    /// the meantime. Returns whether the worker should exit instead.
    fn park(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.sched.backlog() > 0 {
            return false;
        }
        if self.shutdown.load(Ordering::Acquire) {
            drop(st);
            // A sibling's deque may still hold overflow it pulled before
            // the flag went up: stay to steal it.
            return self.deques.iter().all(|d| d.lock().unwrap().is_empty());
        }
        st.idle += 1;
        st.parks += 1;
        let (mut st, backstop) = self.work_cv.wait_timeout(st, PARK_BACKSTOP).unwrap();
        if backstop.timed_out() {
            // Nobody woke this sleeper, so nobody took it off the count.
            st.idle = st.idle.saturating_sub(1);
        }
        false
    }

    fn worker_loop(&self, me: usize) {
        let batch = self.config.dispatch_batch;
        let mut local = Local {
            finished: Vec::with_capacity(batch),
            footprint: 0,
            bufs: Vec::with_capacity(batch),
        };
        loop {
            let job = self.next_job(me, &mut local).or_else(|| {
                // Nothing anywhere: spin, then look everywhere once more —
                // a sibling's overflow does not show in `backlog`.
                self.spin();
                self.next_job(me, &mut local)
            });
            match job {
                Some(job) => self.run_job(job, &mut local),
                None => {
                    if self.park() {
                        return;
                    }
                }
            }
        }
    }
}

/// The multi-tenant compression-offload service.
///
/// ```
/// use cdma_compress::Algorithm;
/// use cdma_serve::{Request, Server, ServerConfig, TenantId, TenantSpec};
///
/// let server = Server::start(
///     ServerConfig { workers: 2, ..ServerConfig::default() },
///     vec![TenantSpec::new("trainer")],
/// );
/// let words = vec![0.0f32; 1024];
/// server.submit(Request::compress(TenantId(0), 1, Algorithm::Zvc, words)).unwrap();
/// server.wait_drained();
/// let mut done = Vec::new();
/// server.drain_completions(&mut done);
/// assert_eq!(done.len(), 1);
/// assert!(done[0].response.wire_bytes < 4096, "zeros compress");
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool over the given tenant table.
    ///
    /// # Panics
    ///
    /// Panics on a zero worker count, zero dispatch batch, or an
    /// empty/oversized tenant table.
    pub fn start(config: ServerConfig, tenants: Vec<TenantSpec>) -> Self {
        Server::start_with_kernel(config, tenants, Arc::new(DefaultKernel))
    }

    /// Starts the worker pool with a custom [`JobKernel`] — the hook
    /// that lets inference (or any future job kind) share this server's
    /// admission control, work stealing, and buffer recycling instead of
    /// standing up a second service. The kernel runs on every worker
    /// thread; if it panics, that request completes with
    /// [`KERNEL_PANICKED`](crate::proto::KERNEL_PANICKED) and the worker
    /// carries on.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Server::start`].
    // pub: the entry point for a caller's own JobKernel (handoff.rs, zero_alloc.rs)
    pub fn start_with_kernel(
        config: ServerConfig,
        tenants: Vec<TenantSpec>,
        kernel: Arc<dyn JobKernel>,
    ) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.dispatch_batch > 0, "dispatch batch must be positive");
        let sched = TenantScheduler::new(tenants);
        let pool = StagingPool::new(config.staging_bytes);
        // Enough buffer sets for every admissible 4 KB-window job plus
        // one in flight per worker, so a bounded steady state never
        // misses the pool.
        let max_live =
            (config.staging_bytes / DEFAULT_WINDOW_BYTES as u64) as usize + config.workers;
        let shared = Arc::new(Shared {
            start: Instant::now(),
            state: Mutex::new(SchedState {
                sched,
                pool,
                idle: 0,
                parks: 0,
                wakes: 0,
            }),
            work_cv: Condvar::new(),
            deques: (0..config.workers)
                .map(|_| Mutex::new(VecDeque::with_capacity(config.dispatch_batch * 2)))
                .collect(),
            completions: Mutex::new(Completions {
                list: Vec::with_capacity(max_live),
                waiters: 0,
                batches: 0,
                wakes: 0,
            }),
            done_cv: Condvar::new(),
            outstanding: AtomicUsize::new(0),
            backlog: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            out_pool: Mutex::new(Pool::with_capacity(config.workers * 2)),
            kernel,
            config,
        });
        let handles = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("cdma-serve-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, handles }
    }

    /// Seconds since the server started (the clock completions are
    /// stamped on).
    pub fn now_s(&self) -> f64 {
        self.shared.start.elapsed().as_secs_f64()
    }

    /// Offers a request to admission control. On acceptance the request's
    /// footprint is reserved and a worker will pick it up; on a shed the
    /// request comes back untouched with the typed reason.
    ///
    /// # Errors
    ///
    /// Returns the shed reason and the original request.
    pub fn submit(&self, req: Request) -> Result<u64, (ServeError, Request)> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err((ServeError::ShuttingDown, req));
        }
        let arrival_s = self.now_s();
        let (seq, wake) = {
            let mut st = self.shared.state.lock().unwrap();
            let SchedState { sched, pool, .. } = &mut *st;
            let seq = sched.try_enqueue(req, arrival_s, pool)?;
            self.shared
                .backlog
                .store(sched.backlog(), Ordering::Relaxed);
            // Counted before a worker can see the job, so a publish never
            // lowers the count below zero.
            self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
            (seq, st.wake_one())
        };
        if wake {
            self.shared.work_cv.notify_one();
        }
        Ok(seq)
    }

    /// Moves all finished jobs into `out` (appending; `out` is not
    /// cleared). Pre-reserve `out` to keep the drain allocation-free.
    pub fn drain_completions(&self, out: &mut Vec<Completion>) {
        let mut done = self.shared.completions.lock().unwrap();
        out.append(&mut done.list);
    }

    /// Admitted jobs not yet drained into a completion.
    pub fn outstanding(&self) -> usize {
        self.shared.outstanding.load(Ordering::Acquire)
    }

    /// Blocks until every admitted job has completed.
    // pub: the serve suites wait on it before they count
    pub fn wait_drained(&self) {
        let mut done = self.shared.completions.lock().unwrap();
        while self.shared.outstanding.load(Ordering::Acquire) > 0 {
            done.waiters += 1;
            let (woken, backstop) = self
                .shared
                .done_cv
                .wait_timeout(done, PARK_BACKSTOP)
                .unwrap();
            done = woken;
            if backstop.timed_out() {
                // Nobody woke this waiter, so nobody took it off the count.
                done.waiters = done.waiters.saturating_sub(1);
            }
        }
    }

    /// Returns a response's output buffers to the server's pool and hands
    /// the request's input buffers back to the caller — the two halves of
    /// the zero-allocation loop.
    pub fn recycle(&self, mut response: Response) -> (Vec<f32>, Vec<u8>) {
        let input_words = std::mem::take(&mut response.input_words);
        let input_bytes = std::mem::take(&mut response.input_bytes);
        let bufs = OutputBufs {
            bytes: response.bytes,
            offsets: response.offsets,
            words: response.words,
        };
        self.shared.out_pool.lock().unwrap().put(bufs);
        (input_words, input_bytes)
    }

    /// Per-tenant counters so far.
    pub fn counters(&self, tenant: crate::proto::TenantId) -> Option<crate::sched::TenantCounters> {
        self.shared.state.lock().unwrap().sched.counters(tenant)
    }

    /// Staging-pool high-water mark in bytes.
    pub fn staging_high_water(&self) -> u64 {
        self.shared.state.lock().unwrap().pool.high_water()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ServerStats {
        let shared = &*self.shared;
        let (staging_in_use, staging_high_water, parks, work_wakes) = {
            let st = shared.state.lock().unwrap();
            (st.pool.in_use(), st.pool.high_water(), st.parks, st.wakes)
        };
        let (completion_batches, done_wakes) = {
            let done = shared.completions.lock().unwrap();
            (done.batches, done.wakes)
        };
        ServerStats {
            steals: shared.steals.load(Ordering::Relaxed),
            buffer_pool: shared.out_pool.lock().unwrap().stats(),
            staging_high_water,
            staging_in_use,
            parks,
            wakes: work_wakes + done_wakes,
            completion_batches,
            workers_lost: 0,
        }
    }

    /// Stops accepting work, drains the backlog, joins the workers, and
    /// returns lifetime statistics. A worker that died is counted in
    /// [`ServerStats::workers_lost`], not re-raised. Dropping the server
    /// stops and joins the same way, without the statistics.
    pub fn shutdown(mut self) -> ServerStats {
        let workers_lost = self.stop_and_join();
        ServerStats {
            workers_lost,
            ..self.stats()
        }
    }

    /// Raises the shutdown flag, wakes every sleeper and joins the
    /// workers (which drain the backlog first); returns how many of them
    /// had died. Joins nothing the second time round, and never panics:
    /// `Drop` runs it too.
    fn stop_and_join(&mut self) -> u64 {
        self.shared.shutdown.store(true, Ordering::Release);
        // A worker reads the flag under `state` before it registers, so
        // either it saw the flag or it is counted here: one notify, no
        // lost wake-up to paper over. A poisoned `state` kills every
        // worker that touches it, so there is nothing to count: notify
        // whoever is still asleep and join.
        let sleepers = self.shared.state.lock().map_or(true, |mut st| {
            let sleepers = std::mem::take(&mut st.idle) > 0;
            st.wakes += u64::from(sleepers);
            sleepers
        });
        if sleepers {
            self.shared.work_cv.notify_all();
        }
        self.handles
            .drain(..)
            .map(|h| u64::from(h.join().is_err()))
            .sum()
    }
}

/// A server dropped without [`Server::shutdown`] (an early return, a
/// panicking caller) still stops and joins its workers instead of leaving
/// them parked for the life of the process.
impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.shared.config.workers)
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::fill_activations;
    use crate::proto::TenantId;
    use cdma_compress::Compressor;

    fn words(n: usize, seed: u64) -> Vec<f32> {
        let mut v = vec![0.0; n];
        fill_activations(seed, 0.6, &mut v);
        v
    }

    #[test]
    fn serves_and_roundtrips_under_concurrency() {
        let server = Server::start(
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
            vec![TenantSpec::new("a"), TenantSpec::new("b").weight(2.0)],
        );
        let mut originals = std::collections::HashMap::new();
        let mut id = 0u64;
        for round in 0..50 {
            for t in 0..2u16 {
                let w = words(1024, round * 2 + t as u64);
                originals.insert((t, id), w.clone());
                server
                    .submit(Request::compress(TenantId(t), id, Algorithm::Zvc, w))
                    .unwrap();
                id += 1;
            }
        }
        server.wait_drained();
        let mut done = Vec::new();
        server.drain_completions(&mut done);
        assert_eq!(done.len(), 100);
        // Every response decompresses back to its original words.
        let codec = Algorithm::Zvc.codec();
        for c in &done {
            let orig = &originals[&(c.response.tenant.0, c.response.id)];
            let mut back = Vec::new();
            for pair in c.response.offsets.windows(2) {
                codec
                    .decompress_append(
                        &c.response.bytes[pair[0] as usize..pair[1] as usize],
                        1024,
                        &mut back,
                    )
                    .unwrap();
            }
            assert_eq!(&back, orig);
            assert!(c.finished_s >= c.arrival_s);
        }
        let stats = server.shutdown();
        assert_eq!(stats.staging_high_water % 4096, 0);
    }

    #[test]
    fn shed_when_staging_pool_exhausted() {
        // One worker, a pool of two 4 KB windows, and the deliberately
        // slow Zlib codec: the submit loop outruns service by orders of
        // magnitude, so the open-loop burst must hit a full pool.
        let server = Server::start(
            ServerConfig {
                workers: 1,
                staging_bytes: 8192,
                algorithm: Algorithm::Zlib,
                ..ServerConfig::default()
            },
            vec![TenantSpec::new("t")],
        );
        let mut accepted = 0;
        let mut shed = 0;
        for i in 0..256 {
            match server.submit(Request::compress(
                TenantId(0),
                i,
                Algorithm::Zlib,
                vec![1.0; 1024],
            )) {
                Ok(_) => accepted += 1,
                Err((ServeError::Overloaded(full), _)) => {
                    shed += 1;
                    assert!(full.in_use + full.needed > full.capacity);
                }
                Err((other, _)) => panic!("unexpected shed reason {other}"),
            }
        }
        assert!(accepted >= 2, "pool holds two windows");
        assert!(shed > 0, "open-loop burst must shed on a tiny pool");
        server.wait_drained();
        // Released capacity readmits.
        server
            .submit(Request::compress(
                TenantId(0),
                999,
                Algorithm::Zvc,
                vec![1.0; 1024],
            ))
            .unwrap();
        server.wait_drained();
        let c = server.counters(TenantId(0)).unwrap();
        assert_eq!(c.accepted, accepted + 1);
        assert_eq!(c.completed, accepted + 1);
        assert_eq!(c.shed_staging, shed);
        server.shutdown();
    }

    #[test]
    fn recycle_closes_the_buffer_loop() {
        let server = Server::start(
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            vec![TenantSpec::new("t")],
        );
        let mut input = words(1024, 1);
        let mut done = Vec::new();
        for i in 0..32 {
            server
                .submit(Request::compress(TenantId(0), i, Algorithm::Zvc, input))
                .unwrap();
            server.wait_drained();
            done.clear();
            server.drain_completions(&mut done);
            assert_eq!(done.len(), 1);
            let (w, _b) = server.recycle(done.pop().unwrap().response);
            input = w;
            assert_eq!(input.len(), 1024, "input words come back intact");
        }
        let stats = server.shutdown();
        // Pre-seeded pool: the sequential loop never misses.
        assert_eq!(stats.buffer_pool.misses, 0);
        server_stats_sanity(stats);
    }

    fn server_stats_sanity(stats: ServerStats) {
        assert!(stats.staging_high_water >= 4096);
    }

    #[test]
    fn rejects_after_shutdown() {
        let server = Server::start(ServerConfig::default(), vec![TenantSpec::new("t")]);
        let shared = Arc::clone(&server.shared);
        shared.shutdown.store(true, Ordering::Release);
        let err = server
            .submit(Request::compress(
                TenantId(0),
                0,
                Algorithm::Zvc,
                vec![1.0; 8],
            ))
            .unwrap_err();
        assert_eq!(err.0, ServeError::ShuttingDown);
        shared.shutdown.store(false, Ordering::Release);
        server.shutdown();
    }

    #[test]
    fn decompress_requests_flow_through() {
        let codec = Algorithm::Zvc.codec();
        let original = words(1024, 7);
        let stream = codec.compress(&original);
        let server = Server::start(ServerConfig::default(), vec![TenantSpec::new("t")]);
        server
            .submit(Request::decompress(
                TenantId(0),
                5,
                Algorithm::Zvc,
                stream,
                1024,
            ))
            .unwrap();
        server.wait_drained();
        let mut done = Vec::new();
        server.drain_completions(&mut done);
        assert_eq!(done[0].response.words, original);
        assert!(done[0].response.error.is_none());
        server.shutdown();
    }
}
