//! Invariants of the threaded server's hand-off — the path a job takes
//! from `submit` to a drainable completion — over every worker count and
//! dispatch batch the rules have a case for:
//!
//! 1. **conservation under shed storms** — whatever a tiny staging pool
//!    lets in comes out exactly once, the tenants' counters equal what
//!    was drained, every reservation is back once the server is drained,
//!    and each shed's carried accounting still justifies it;
//! 2. **wake gating** — a parked worker is woken by the submit that needs
//!    it, a saturated server issues next to no wake-ups and publishes in
//!    batches, and one-at-a-time traffic publishes each job on its own;
//! 3. **the flush bound** — a finished job never waits behind a
//!    multi-window job the same worker runs next;
//! 4. **kernel panics** — a panicking [`JobKernel`] fails the requests it
//!    panicked on and nothing else;
//! 5. **shutdown and drop** — either way the server serves what it
//!    admitted and joins every worker.
//!
//! Interleavings a test depends on are forced with barriers; the rest
//! hold under any schedule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Once};
use std::time::{Duration, Instant};

use cdma_compress::Algorithm;
use cdma_serve::{
    fill_activations, Completion, DefaultKernel, JobKernel, JobKind, OutputBufs, Request, Response,
    ServeError, Server, ServerConfig, TenantId, TenantSpec, KERNEL_PANICKED,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WINDOW_WORDS: usize = 1024;
const WINDOW_BYTES: u64 = 4096;

fn request(tenant: u16, id: u64, windows: usize) -> Request {
    let mut words = vec![0.0f32; windows * WINDOW_WORDS];
    fill_activations(id, 0.6, &mut words);
    Request::compress(TenantId(tenant), id, Algorithm::Zvc, words)
}

/// Spins until `ready()`; a hand-off that never gets there is a failure,
/// not a hang.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

#[test]
fn accepted_work_is_conserved_under_shed_storms() {
    // A pool of sixteen windows against requests of one to sixteen, from
    // a submitter that offers each request again until it is taken: the
    // pool is full most of the time, so most offers shed, and what is in
    // flight is always a mix of batched single-window jobs and
    // multi-window jobs that publish alone. Tenant 0's lifetime quota
    // runs out part of the way through; tenant 1's never does.
    const REQUESTS: usize = 300;
    const POOL_WINDOWS: u64 = 16;
    let mut rng = StdRng::seed_from_u64(0x5EED_0F0F);
    for workers in [1usize, 2, 4] {
        for dispatch_batch in [1usize, 4, 16] {
            let label = format!("workers={workers} dispatch_batch={dispatch_batch}");
            let requests: Vec<Request> = (0..REQUESTS as u64)
                .map(|id| request(rng.gen_range(0u32..2) as u16, id, rng.gen_range(1usize..17)))
                .collect();
            let offered_bytes = |tenant: u16| -> u64 {
                requests
                    .iter()
                    .filter(|r| r.tenant.0 == tenant)
                    .map(Request::footprint_bytes)
                    .sum()
            };
            let server = Server::start(
                ServerConfig {
                    workers,
                    dispatch_batch,
                    staging_bytes: POOL_WINDOWS * WINDOW_BYTES,
                    ..ServerConfig::default()
                },
                vec![
                    TenantSpec::new("capped").quota_bytes(offered_bytes(0) * 6 / 10),
                    TenantSpec::new("roomy").quota_bytes(offered_bytes(1) * 2),
                ],
            );

            let mut done: Vec<Completion> = Vec::new();
            let mut accepted: HashMap<u64, u16> = HashMap::new();
            let (mut offers, mut sheds, mut over_quota) = (0u64, 0u64, [0u64; 2]);
            for mut req in requests {
                loop {
                    offers += 1;
                    match server.submit(req) {
                        Ok(_) => break,
                        Err((ServeError::Overloaded(full), back)) => {
                            sheds += 1;
                            assert!(
                                full.in_use + full.needed > full.capacity,
                                "{label}: shed while {} + {} fit in {}",
                                full.in_use,
                                full.needed,
                                full.capacity
                            );
                            assert_eq!(full.needed, back.footprint_bytes(), "{label}");
                            req = back;
                            server.drain_completions(&mut done);
                        }
                        Err((ServeError::QuotaExceeded { tenant, .. }, _)) => {
                            over_quota[tenant.0 as usize] += 1;
                            break;
                        }
                        Err((other, _)) => panic!("{label}: unexpected rejection {other}"),
                    }
                }
            }
            server.wait_drained();
            assert_eq!(server.outstanding(), 0, "{label}");
            assert_eq!(server.stats().staging_in_use, 0, "{label}");
            server.drain_completions(&mut done);

            assert!(
                sheds * 10 >= offers,
                "{label}: only {sheds} of {offers} offers shed; the pool is not small enough"
            );
            assert!(over_quota[0] > 0 && over_quota[1] == 0, "{label}");

            // Exactly once, and the counters agree with what came out.
            let mut drained = [(0u64, 0u64, 0u64); 2];
            for c in &done {
                let r = &c.response;
                assert!(r.error.is_none(), "{label}: request {} failed", r.id);
                assert!(
                    accepted.insert(r.id, r.tenant.0).is_none(),
                    "{label}: request {} completed twice",
                    r.id
                );
                let t = &mut drained[r.tenant.0 as usize];
                *t = (t.0 + 1, t.1 + r.uncompressed_bytes, t.2 + r.wire_bytes);
            }
            for tenant in 0..2u16 {
                let c = server.counters(TenantId(tenant)).unwrap();
                let (completed, uncompressed, wire) = drained[tenant as usize];
                assert_eq!(c.accepted, completed, "{label}: tenant {tenant} lost work");
                assert_eq!(c.completed, completed, "{label}: tenant {tenant}");
                assert_eq!(c.uncompressed_bytes, uncompressed, "{label}");
                assert_eq!(c.wire_bytes, wire, "{label}");
                assert_eq!(c.quota_rejected, over_quota[tenant as usize], "{label}");
            }
            let shed_staging: u64 = (0..2u16)
                .map(|t| server.counters(TenantId(t)).unwrap().shed_staging)
                .sum();
            assert_eq!(shed_staging, sheds, "{label}");
            assert_eq!(
                accepted.len() as u64 + over_quota[0],
                REQUESTS as u64,
                "{label}: every request was taken or refused for good"
            );

            let stats = server.shutdown();
            assert_eq!(stats.workers_lost, 0, "{label}");
            assert!(stats.staging_high_water <= POOL_WINDOWS * WINDOW_BYTES);
            assert!(
                (1..=accepted.len() as u64).contains(&stats.completion_batches),
                "{label}: {} batches for {} jobs",
                stats.completion_batches,
                accepted.len()
            );
        }
    }
}

/// Runs one request to completion and hands its input buffer back.
fn round_trip(server: &Server, done: &mut Vec<Completion>, id: u64, words: Vec<f32>) -> Vec<f32> {
    server
        .submit(Request::compress(TenantId(0), id, Algorithm::Zvc, words))
        .expect("one request at a time cannot shed");
    server.wait_drained();
    server.drain_completions(done);
    assert_eq!(done.len(), 1);
    server.recycle(done.pop().unwrap().response).0
}

#[test]
fn a_parked_worker_is_woken_by_the_submit_that_needs_it() {
    let server = Server::start(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        vec![TenantSpec::new("t")],
    );
    // Left alone, the workers spin out their budget and go to sleep.
    wait_until("an idle worker parks", || server.stats().parks >= 1);
    let before = server.stats();
    assert_eq!(before.wakes, 0, "nobody to wake yet");
    // A submit that finds a worker asleep wakes it. The one that finds
    // both between two sleeps (the millisecond backstop) does not have
    // to, so offer until one does.
    let mut done = Vec::new();
    let mut words = vec![0.5f32; WINDOW_WORDS];
    let mut id = 0;
    wait_until("a submit wakes a parked worker", || {
        words = round_trip(&server, &mut done, id, std::mem::take(&mut words));
        id += 1;
        server.stats().wakes > before.wakes
    });
    assert_eq!(
        server.shutdown().completion_batches,
        id,
        "one job, one publish"
    );
}

#[test]
fn one_at_a_time_traffic_publishes_every_job_on_its_own() {
    // Batching must add no latency at low load: a worker whose deque is
    // empty publishes what it has before it looks for more.
    const REQUESTS: u64 = 500;
    for dispatch_batch in [1usize, 4, 16] {
        let server = Server::start(
            ServerConfig {
                workers: 2,
                dispatch_batch,
                ..ServerConfig::default()
            },
            vec![TenantSpec::new("t")],
        );
        let mut done = Vec::new();
        let mut words = vec![0.5f32; WINDOW_WORDS];
        for id in 0..REQUESTS {
            words = round_trip(&server, &mut done, id, words);
        }
        let stats = server.shutdown();
        assert_eq!(stats.completion_batches, REQUESTS);
        assert_eq!(stats.buffer_pool.misses, 0, "the pre-seeded pool suffices");
    }
}

#[test]
fn a_saturated_server_wakes_nobody_and_publishes_in_batches() {
    // One closed-loop client keeping 32 single-window requests in flight
    // at one worker, the shape of the benchmark's capacity phase: the
    // scheduler is never empty for long, so the worker has no reason to
    // park and the client no one to wake.
    const REQUESTS: u64 = 100_000;
    const IN_FLIGHT: usize = 32;
    let server = Server::start(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        vec![TenantSpec::new("t")],
    );
    let mut free: Vec<Vec<f32>> = (0..IN_FLIGHT as u64)
        .map(|i| request(0, i, 1).words)
        .collect();
    let mut done: Vec<Completion> = Vec::with_capacity(IN_FLIGHT);
    let (mut sent, mut completed) = (0u64, 0u64);
    while completed < REQUESTS {
        while sent < REQUESTS {
            let Some(words) = free.pop() else { break };
            server
                .submit(Request::compress(TenantId(0), sent, Algorithm::Zvc, words))
                .expect("32 windows fit the default pool");
            sent += 1;
        }
        server.drain_completions(&mut done);
        for c in done.drain(..) {
            assert!(c.response.error.is_none());
            completed += 1;
            free.push(server.recycle(c.response).0);
        }
    }
    assert_eq!(server.outstanding(), 0);
    let stats = server.shutdown();
    assert!(
        stats.wakes < REQUESTS / 10,
        "{} wake-ups for {REQUESTS} requests",
        stats.wakes
    );
    assert!(
        stats.completion_batches < REQUESTS,
        "{} publishes for {REQUESTS} requests: nothing batched",
        stats.completion_batches
    );
    assert_eq!(stats.staging_in_use, 0);
}

/// [`DefaultKernel`], except that a request whose id is in `held` meets
/// the test at `gate` twice: once on entry, once before it runs.
struct Held {
    held: Vec<u64>,
    gate: Barrier,
}

impl JobKernel for Held {
    fn execute(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Response {
        if self.held.contains(&req.id) {
            self.gate.wait();
            self.gate.wait();
        }
        DefaultKernel.execute(req, window_elems, bufs)
    }
}

#[test]
fn a_finished_job_is_drainable_while_the_multi_window_job_behind_it_runs() {
    const BLOCKER: u64 = 0;
    const SMALL: u64 = 1;
    const BIG: u64 = 2;
    let kernel = Arc::new(Held {
        held: vec![BLOCKER, BIG],
        gate: Barrier::new(2),
    });
    let server = Server::start_with_kernel(
        ServerConfig {
            workers: 1,
            dispatch_batch: 4,
            ..ServerConfig::default()
        },
        vec![TenantSpec::new("t")],
        kernel.clone(),
    );
    // Hold the worker inside BLOCKER so that SMALL and BIG queue up and
    // leave the scheduler in one pull, SMALL first.
    server.submit(request(0, BLOCKER, 1)).unwrap();
    kernel.gate.wait();
    server.submit(request(0, SMALL, 1)).unwrap();
    server.submit(request(0, BIG, 16)).unwrap();
    kernel.gate.wait();
    // The worker is now inside BIG. SMALL ran before it on the same
    // worker, one job short of a full batch of four — and must not be
    // waiting for BIG.
    kernel.gate.wait();
    let mut done = Vec::new();
    server.drain_completions(&mut done);
    let ids: Vec<u64> = done.iter().map(|c| c.response.id).collect();
    assert_eq!(ids, [BLOCKER, SMALL], "published before BIG started");
    assert_eq!(server.outstanding(), 1);
    assert_eq!(server.stats().staging_in_use, 16 * WINDOW_BYTES);
    kernel.gate.wait();
    server.wait_drained();
    server.drain_completions(&mut done);
    assert_eq!(done.len(), 3);
    assert_eq!(server.shutdown().staging_in_use, 0);
}

/// [`DefaultKernel`], except that it panics on every `every`-th id.
struct Flaky {
    every: u64,
    ran: AtomicUsize,
}

const FLAKY_PANIC: &str = "flaky kernel: injected panic";

impl JobKernel for Flaky {
    fn execute(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Response {
        self.ran.fetch_add(1, Ordering::Relaxed);
        assert!(!req.id.is_multiple_of(self.every), "{FLAKY_PANIC}");
        DefaultKernel.execute(req, window_elems, bufs)
    }
}

/// Keeps the injected panics out of the test log; every other panic is
/// reported as before.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains(FLAKY_PANIC));
            if !injected {
                default(info);
            }
        }));
    });
}

#[test]
fn a_panicking_kernel_fails_one_request_not_the_pool() {
    silence_injected_panics();
    const REQUESTS: u64 = 400;
    const EVERY: u64 = 7;
    let mut rng = StdRng::seed_from_u64(0xBAD_C0DE);
    for workers in [1usize, 4] {
        let kernel = Arc::new(Flaky {
            every: EVERY,
            ran: AtomicUsize::new(0),
        });
        let server = Server::start_with_kernel(
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
            vec![TenantSpec::new("a"), TenantSpec::new("b")],
            kernel.clone(),
        );
        let mut done: Vec<Completion> = Vec::new();
        let mut sent: HashMap<u64, (u16, u64)> = HashMap::new();
        for id in 0..REQUESTS {
            let mut req = request(rng.gen_range(0u32..2) as u16, id, rng.gen_range(1usize..6));
            sent.insert(id, (req.tenant.0, req.footprint_bytes()));
            // The default pool holds ~280 windows: wait for room.
            while let Err((shed, back)) = server.submit(req) {
                assert!(matches!(shed, ServeError::Overloaded(_)), "{shed}");
                req = back;
                server.drain_completions(&mut done);
            }
        }
        server.wait_drained();
        assert_eq!(server.outstanding(), 0, "workers={workers}");
        assert_eq!(server.stats().staging_in_use, 0, "workers={workers}");
        server.drain_completions(&mut done);

        assert_eq!(done.len() as u64, REQUESTS, "workers={workers}");
        let mut completed = [0u64; 2];
        for c in &done {
            let r = &c.response;
            let (tenant, footprint) = sent
                .remove(&r.id)
                .unwrap_or_else(|| panic!("request {} completed twice", r.id));
            assert_eq!((r.tenant.0, r.kind), (tenant, JobKind::Compress));
            completed[tenant as usize] += 1;
            if r.id.is_multiple_of(EVERY) {
                assert_eq!(r.error, Some(KERNEL_PANICKED), "request {}", r.id);
                assert_eq!((r.uncompressed_bytes, r.wire_bytes), (0, 0));
                assert!(r.bytes.is_empty() && r.words.is_empty());
            } else {
                assert_eq!(r.error, None, "request {}", r.id);
                assert_eq!(r.uncompressed_bytes, footprint);
            }
        }
        for tenant in 0..2u16 {
            let c = server.counters(TenantId(tenant)).unwrap();
            assert_eq!(c.completed, completed[tenant as usize]);
            assert_eq!(c.accepted, c.completed);
        }
        // The workers that caught the panics are the ones still serving.
        assert_eq!(kernel.ran.load(Ordering::Relaxed) as u64, REQUESTS);
        let stats = server.shutdown();
        assert_eq!(stats.workers_lost, 0, "workers={workers}");
        assert_eq!(stats.staging_in_use, 0, "workers={workers}");
    }
}

#[test]
fn shutdown_serves_what_was_admitted() {
    // No wait_drained: shutdown itself drains the backlog, and a worker
    // publishes what it holds before it exits — an unpublished job would
    // still own its staging reservation. A server that is only dropped
    // stops the same way.
    for (workers, dropped) in [(1usize, false), (4, false), (1, true), (4, true)] {
        let kernel = Arc::new(Flaky {
            every: u64::MAX,
            ran: AtomicUsize::new(0),
        });
        let server = Server::start_with_kernel(
            ServerConfig {
                workers,
                dispatch_batch: 16,
                ..ServerConfig::default()
            },
            vec![TenantSpec::new("t")],
            kernel.clone(),
        );
        let mut admitted = 0;
        for id in 1..=200 {
            admitted += usize::from(server.submit(request(0, id, 1)).is_ok());
        }
        assert!(admitted > 0);
        if dropped {
            drop(server);
        } else {
            let stats = server.shutdown();
            assert_eq!(stats.staging_in_use, 0, "workers={workers}");
            assert_eq!(stats.workers_lost, 0);
        }
        assert_eq!(kernel.ran.load(Ordering::Relaxed), admitted);
        // The workers held the only other references to the kernel
        // (through the state they share with the server): back to one
        // means every one of them has exited.
        assert_eq!(
            Arc::strong_count(&kernel),
            1,
            "workers={workers} dropped={dropped}"
        );
    }
}
