//! The deterministic virtual-time driver.
//!
//! Replays a [`Schedule`] through the *same* admission control
//! ([`TenantScheduler`] + [`StagingPool`]) and the *same* execution
//! kernel (`exec::execute`) as the threaded server, but on a
//! simulated clock: service time comes from a [`ServiceModel`] instead
//! of the host's scheduler, so every accept/shed decision, byte count,
//! and latency percentile is a pure function of `(config, loads,
//! horizon, seed)`. CI leans on this — the `serve_load` experiment runs
//! its overload phase twice and compares the summaries, and `experiments
//! all` is `cmp`ed across runs — and so do the admission-control property
//! tests, which need to provoke overload without depending on how fast
//! the test machine happens to be.
//!
//! Compression still *really runs* (wire bytes in the report are
//! measured, not modeled); only the clock is simulated. A payload is
//! synthesised when its request is dispatched to a worker — admission
//! reads a request's size and nothing else, so a shed arrival is never
//! filled.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cdma_compress::pool::Pool;
use cdma_compress::windowed::DEFAULT_WINDOW_BYTES;
use cdma_gpusim::staging::StagingPool;

use crate::exec::{DefaultKernel, JobKernel, OutputBufs};
use crate::loadgen::{fill_activations, Schedule, TenantLoad};
use crate::metrics::{LatencyRecorder, LoadReport, TenantLoadReport};
use crate::proto::{JobKind, Request, TenantId};
use crate::sched::TenantScheduler;
use crate::server::ServerConfig;

/// First-order service-time model for the virtual clock:
/// `per_request_s + footprint_bytes / bytes_per_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Streaming compression bandwidth of one worker, bytes/second.
    pub bytes_per_s: f64,
    /// Fixed per-request overhead (dispatch, locking), seconds.
    pub per_request_s: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        // A software ZVC worker sustains a few GB/s; 2 GB/s + 2 µs is a
        // conservative mid-range host core.
        ServiceModel {
            bytes_per_s: 2e9,
            per_request_s: 2e-6,
        }
    }
}

impl ServiceModel {
    /// Modeled service time for one request of `footprint` bytes.
    pub fn service_s(&self, footprint: u64) -> f64 {
        self.per_request_s + footprint as f64 / self.bytes_per_s
    }
}

/// A completion event on the virtual clock. Ordered by `(time, seq)`
/// via `total_cmp`, so heap order — and therefore the whole run — is
/// deterministic even with tied timestamps.
struct Ev {
    t: f64,
    seq: u64,
    tenant: u16,
    footprint: u64,
    arrival_s: f64,
    uncompressed: u64,
    wire: u64,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Runs the load described by `loads` against a virtual server and
/// returns the full report. Deterministic: same arguments, same report,
/// bit for bit.
pub fn run_virtual(
    config: &ServerConfig,
    loads: &[TenantLoad],
    horizon_s: f64,
    seed: u64,
    model: ServiceModel,
) -> LoadReport {
    run_virtual_with_kernel(config, loads, horizon_s, seed, model, &DefaultKernel)
}

/// [`run_virtual`] with a custom [`JobKernel`] — the virtual-time twin
/// of [`Server::start_with_kernel`](crate::Server::start_with_kernel),
/// so inference loads replay through the same admission control and
/// latency accounting as compression loads.
pub fn run_virtual_with_kernel(
    config: &ServerConfig,
    loads: &[TenantLoad],
    horizon_s: f64,
    seed: u64,
    model: ServiceModel,
    kernel: &dyn JobKernel,
) -> LoadReport {
    let schedule = Schedule::generate(loads, horizon_s, seed);
    run_schedule_with_kernel(config, loads, &schedule, model, kernel)
}

/// Replays an existing [`Schedule`] (the tests inspect the exact arrival
/// stream beside the report).
fn run_schedule_with_kernel(
    config: &ServerConfig,
    loads: &[TenantLoad],
    schedule: &Schedule,
    model: ServiceModel,
    kernel: &dyn JobKernel,
) -> LoadReport {
    assert!(config.workers > 0, "need at least one worker");
    let specs: Vec<_> = loads.iter().map(|l| l.spec.clone()).collect();
    let mut sched = TenantScheduler::new(specs);
    let mut pool = StagingPool::new(config.staging_bytes);
    let window_elems = DEFAULT_WINDOW_BYTES / 4;

    // Per-tenant latency recorders sized to the offered load.
    let mut recorders: Vec<LatencyRecorder> = loads
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let n = schedule
                .arrivals
                .iter()
                .filter(|a| a.tenant as usize == i)
                .count();
            LatencyRecorder::with_capacity(n)
        })
        .collect();

    let mut events: BinaryHeap<Ev> = BinaryHeap::with_capacity(config.workers + 1);
    let mut free = config.workers;
    let mut word_pool: Pool<Vec<f32>> = Pool::with_capacity(8);
    let mut out_pool: Pool<OutputBufs> = Pool::with_capacity(2);
    let mut last_t = 0.0f64;

    // One completion: free the worker, return the reservation, record.
    fn complete(
        ev: Ev,
        free: &mut usize,
        sched: &mut TenantScheduler,
        pool: &mut StagingPool,
        recorders: &mut [LatencyRecorder],
        last_t: &mut f64,
    ) {
        *free += 1;
        pool.release(ev.footprint);
        sched.complete(ev.tenant, ev.uncompressed, ev.wire);
        recorders[ev.tenant as usize].record(ev.t - ev.arrival_s);
        *last_t = last_t.max(ev.t);
    }

    // Dispatch queued jobs onto free virtual workers at time `now`.
    // Compression runs for real here; only the service *time* is modeled.
    // The payload is filled here, not at arrival: it is a pure function
    // of the arrival, and the recycled buffer is overwritten end to end.
    macro_rules! dispatch {
        ($now:expr) => {
            while free > 0 {
                let Some(mut job) = sched.pop_next() else {
                    break;
                };
                free -= 1;
                let mut req = job.req.take().expect("job carries its request");
                let origin = &schedule.arrivals[req.id as usize];
                let zero_density = loads[origin.tenant as usize].zero_density;
                fill_activations(origin.fill_seed, zero_density, &mut req.words);
                let bufs = out_pool.get();
                let response = kernel.execute(req, window_elems, bufs);
                word_pool.put(response.input_words);
                let ev = Ev {
                    t: $now + model.service_s(job.footprint),
                    seq: job.seq,
                    tenant: job.tenant,
                    footprint: job.footprint,
                    arrival_s: job.arrival_s,
                    uncompressed: response.uncompressed_bytes,
                    wire: response.wire_bytes,
                };
                out_pool.put(OutputBufs {
                    bytes: response.bytes,
                    offsets: response.offsets,
                    words: response.words,
                });
                events.push(ev);
            }
        };
    }

    for (next_id, arrival) in schedule.arrivals.iter().enumerate() {
        // Retire everything that finishes before this arrival.
        while events.peek().is_some_and(|e| e.t <= arrival.at_s) {
            let ev = events.pop().unwrap();
            let t = ev.t;
            complete(
                ev,
                &mut free,
                &mut sched,
                &mut pool,
                &mut recorders,
                &mut last_t,
            );
            dispatch!(t);
        }
        let load = &loads[arrival.tenant as usize];
        // Sized but unfilled: admission needs the footprint only.
        let mut words = word_pool.get();
        words.resize(arrival.elements, 0.0);
        let req = match load.kind {
            JobKind::Infer => Request::infer(
                TenantId(arrival.tenant),
                next_id as u64,
                config.algorithm,
                words,
                load.infer_out_elems,
            ),
            _ => Request::compress(
                TenantId(arrival.tenant),
                next_id as u64,
                config.algorithm,
                words,
            ),
        };
        match sched.try_enqueue(req, arrival.at_s, &mut pool) {
            Ok(_) => dispatch!(arrival.at_s),
            Err((_, req)) => word_pool.put(req.words),
        }
    }
    // Drain the tail.
    while let Some(ev) = events.pop() {
        let t = ev.t;
        complete(
            ev,
            &mut free,
            &mut sched,
            &mut pool,
            &mut recorders,
            &mut last_t,
        );
        dispatch!(t);
    }
    assert_eq!(sched.backlog(), 0, "virtual drain leaves no backlog");
    assert_eq!(pool.in_use(), 0, "every admitted footprint released");

    let elapsed_s = schedule.horizon_s.max(last_t);
    let tenants = loads
        .iter()
        .enumerate()
        .map(|(i, l)| TenantLoadReport {
            name: l.spec.name.clone(),
            weight: l.spec.weight,
            counters: sched.counters(TenantId(i as u16)).unwrap(),
            latency: recorders[i].stats(),
        })
        .collect();
    LoadReport {
        seed: schedule.seed,
        workers: config.workers,
        elapsed_s,
        tenants,
        staging_high_water: pool.high_water(),
        staging_capacity: pool.capacity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Response;
    use crate::sched::TenantSpec;

    fn config(workers: usize, staging: u64) -> ServerConfig {
        ServerConfig {
            workers,
            staging_bytes: staging,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn virtual_runs_are_bit_identical() {
        let loads = vec![
            TenantLoad::new(TenantSpec::new("a"), 20_000.0),
            TenantLoad::new(TenantSpec::new("b").weight(2.0), 10_000.0),
        ];
        let a = run_virtual(
            &config(4, 70 * 1024),
            &loads,
            0.05,
            42,
            ServiceModel::default(),
        );
        let b = run_virtual(
            &config(4, 70 * 1024),
            &loads,
            0.05,
            42,
            ServiceModel::default(),
        );
        assert_eq!(
            a.deterministic_summary_json(),
            b.deterministic_summary_json()
        );
        assert_eq!(a.latency_json(), b.latency_json());
        assert!(a.total_completed() > 0);
    }

    #[test]
    fn low_load_sheds_nothing() {
        // 1k req/s of 4 KB against 4 modeled workers at 2 GB/s each:
        // utilisation ~0.1%, nothing may shed.
        let loads = vec![TenantLoad::new(TenantSpec::new("light"), 1_000.0)];
        let r = run_virtual(
            &config(4, 70 * 1024),
            &loads,
            0.1,
            7,
            ServiceModel::default(),
        );
        assert_eq!(r.total_shed(), 0);
        assert_eq!(r.total_completed(), r.tenants[0].counters.submitted);
        let l = r.tenants[0].latency.unwrap();
        assert!(l.p99_s >= l.p50_s && l.max_s >= l.p99_s);
        // Service model floor: nothing completes (meaningfully) faster
        // than one service time; `(t + s) - t` can round a few ulps low.
        assert!(l.p50_s >= ServiceModel::default().service_s(4096) * 0.999);
    }

    #[test]
    fn overload_sheds_and_justifies() {
        // One modeled worker at 2 GB/s ≈ 325k 4 KB-req/s of service;
        // tiny staging pool (two windows) + 500k req/s offered forces
        // queue growth to hit the pool bound immediately.
        let loads = vec![TenantLoad::new(TenantSpec::new("hot"), 500_000.0)];
        let r = run_virtual(&config(1, 8192), &loads, 0.02, 3, ServiceModel::default());
        assert!(r.total_shed() > 0, "overload must shed");
        let c = r.tenants[0].counters;
        assert_eq!(c.submitted, c.accepted + c.shed_staging + c.shed_queue);
        assert_eq!(c.accepted, c.completed, "accepted work is never dropped");
        assert_eq!(r.staging_high_water, 8192, "pool fills to capacity");
    }

    #[test]
    fn every_executed_request_carries_its_own_arrivals_payload() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Checks each request it runs against the payload its arrival
        /// names, then runs it.
        struct CheckedPayloads<'a> {
            schedule: &'a Schedule,
            loads: &'a [TenantLoad],
            executed: AtomicU64,
        }
        impl JobKernel for CheckedPayloads<'_> {
            fn execute(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Response {
                let arrival = &self.schedule.arrivals[req.id as usize];
                assert_eq!(req.tenant.0, arrival.tenant, "request {}", req.id);
                let mut want = vec![0.0f32; arrival.elements];
                let zero_density = self.loads[arrival.tenant as usize].zero_density;
                fill_activations(arrival.fill_seed, zero_density, &mut want);
                let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&req.words), bits(&want), "request {}", req.id);
                self.executed.fetch_add(1, Ordering::Relaxed);
                DefaultKernel.execute(req, window_elems, bufs)
            }
        }

        // Three sizes, so a recycled buffer shrinks and grows between
        // uses; two densities, so a payload filled for the wrong tenant
        // shows; one worker behind a two-request pool, so most arrivals
        // are shed and a request's id runs ahead of its admission order.
        let mix = vec![(256, 1.0), (1024, 2.0), (4096, 1.0)];
        let loads = vec![
            TenantLoad::new(TenantSpec::new("a"), 300_000.0)
                .size_mix(mix.clone())
                .zero_density(0.3),
            TenantLoad::new(TenantSpec::new("b").weight(2.0), 200_000.0)
                .size_mix(mix)
                .zero_density(0.8),
        ];
        let cfg = config(1, 32 * 1024);
        let schedule = Schedule::generate(&loads, 0.01, 17);
        let run = || {
            let kernel = CheckedPayloads {
                schedule: &schedule,
                loads: &loads,
                executed: AtomicU64::new(0),
            };
            let report =
                run_schedule_with_kernel(&cfg, &loads, &schedule, ServiceModel::default(), &kernel);
            (report, kernel.executed.into_inner())
        };
        let (report, executed) = run();
        let accepted: u64 = report.tenants.iter().map(|t| t.counters.accepted).sum();
        assert_eq!(executed, accepted, "every admitted request ran, once");
        assert!(report.total_shed() > 0, "the schedule must overload");
        assert!(executed > 100, "and still serve: {executed}");
        let (again, _) = run();
        assert_eq!(
            report.deterministic_summary_json(),
            again.deterministic_summary_json()
        );
        assert_eq!(report.latency_json(), again.latency_json());
    }

    #[test]
    fn wire_bytes_track_density() {
        let dense = vec![TenantLoad::new(TenantSpec::new("d"), 5_000.0).zero_density(0.0)];
        let sparse = vec![TenantLoad::new(TenantSpec::new("s"), 5_000.0).zero_density(0.9)];
        let rd = run_virtual(
            &config(2, 70 * 1024),
            &dense,
            0.05,
            9,
            ServiceModel::default(),
        );
        let rs = run_virtual(
            &config(2, 70 * 1024),
            &sparse,
            0.05,
            9,
            ServiceModel::default(),
        );
        let ratio = |r: &LoadReport| {
            let c = r.tenants[0].counters;
            c.uncompressed_bytes as f64 / c.wire_bytes as f64
        };
        assert!(ratio(&rd) < 1.05, "dense data barely compresses");
        assert!(ratio(&rs) > 3.0, "90% zeros compress well under ZVC");
    }
}
