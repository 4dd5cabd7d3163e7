//! Per-tenant bounded queues, quotas, and the weighted-fair tenant
//! scheduler.
//!
//! The scheduler plays the role of the paper's PCIe arbiter, lifted from
//! wire bandwidth to engine time: where
//! [`LinkPolicy::BandwidthShare`](cdma_vdnn::LinkPolicy) splits a shared
//! link among DMA flows, [`TenantScheduler`] splits the worker pool among
//! tenants by weight, as start-time-fair virtual-time scheduling (each
//! tenant's virtual clock advances by `footprint / weight` per dispatched
//! job; the backlogged tenant with the smallest clock goes next).
//!
//! Admission runs in strict order **quota → queue depth → staging pool**,
//! so a rejection at any stage needs no unwinding of earlier stages, and
//! the only shed that depends on *other* tenants' behaviour is the last
//! one ([`ServeError::Overloaded`]).

use std::collections::VecDeque;

use cdma_gpusim::staging::StagingPool;

use crate::error::ServeError;
use crate::proto::{Request, TenantId};

/// Static configuration of one tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable label used in reports.
    pub name: String,
    /// Fairness weight (relative share of engine throughput when
    /// saturated). Must be positive.
    pub weight: f64,
    /// Lifetime uncompressed-byte quota, or `None` for unlimited.
    pub quota_bytes: Option<u64>,
    /// Bound on the tenant's pending queue (jobs admitted but not yet
    /// dispatched to a worker).
    pub queue_depth: usize,
}

impl TenantSpec {
    /// A tenant with the given label, weight 1, no quota, and a queue
    /// depth of 1024.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1.0,
            quota_bytes: None,
            queue_depth: 1024,
        }
    }

    /// Sets the fairness weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant weight must be positive, got {weight}"
        );
        self.weight = weight;
        self
    }

    /// Sets the lifetime uncompressed-byte quota.
    // pub: handoff.rs caps a tenant with it
    pub fn quota_bytes(mut self, quota: u64) -> Self {
        self.quota_bytes = Some(quota);
        self
    }

    /// Sets the pending-queue bound.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        self.queue_depth = depth;
        self
    }
}

/// One unit of admitted work flowing from a tenant queue to a worker.
///
/// Crate-internal: the public surface is [`Request`] in and
/// [`Response`](crate::proto::Response) out; `Job` adds the scheduling
/// envelope (sequence number, staging footprint, arrival stamp).
#[derive(Debug)]
pub(crate) struct Job {
    /// Global admission sequence number (dispatch tie-break, determinism).
    pub seq: u64,
    /// Owning tenant index.
    pub tenant: u16,
    /// Reserved uncompressed footprint in bytes.
    pub footprint: u64,
    /// Arrival time in seconds: on the virtual driver's clock, or since
    /// the threaded server started.
    pub arrival_s: f64,
    /// The payload. `Option` so completion paths can take it by value.
    pub req: Option<Request>,
}

/// Per-tenant counters, all monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests offered to [`TenantScheduler::try_enqueue`].
    pub submitted: u64,
    /// Requests admitted (quota, queue, and staging checks all passed).
    pub accepted: u64,
    /// Sheds due to the tenant's own full queue.
    pub shed_queue: u64,
    /// Sheds due to the shared staging pool being full.
    pub shed_staging: u64,
    /// Rejections due to the tenant's byte quota.
    pub quota_rejected: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Uncompressed bytes across completed requests.
    pub uncompressed_bytes: u64,
    /// Compressed (wire) bytes across completed requests.
    pub wire_bytes: u64,
}

#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    queue: VecDeque<Job>,
    /// Uncompressed bytes counted against the quota so far.
    quota_used: u64,
    /// Virtual finish time (bytes / weight).
    vtime: f64,
    counters: TenantCounters,
}

/// The admission-control and fairness core shared by the threaded server
/// and the deterministic virtual-time driver.
///
/// Single-threaded by design (the server wraps it in one mutex): every
/// decision — admit, shed, pick-next — is a pure function of scheduler
/// state plus the staging pool, which is what makes the two drivers
/// byte-identical in their accept/shed/dispatch sequences.
#[derive(Debug)]
pub struct TenantScheduler {
    tenants: Vec<TenantState>,
    /// Jobs admitted and not yet dispatched, across all tenants.
    backlog: usize,
    /// Global virtual clock: vtime of the last dispatched job. New
    /// backlog joins at `max(own vtime, vclock)` so an idle tenant cannot
    /// bank credit and then monopolise the engine.
    vclock: f64,
    seq: u64,
}

impl TenantScheduler {
    /// A scheduler over the given tenant table.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or has more than `u16::MAX` entries.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(tenants.len() <= u16::MAX as usize, "too many tenants");
        let tenants = tenants
            .into_iter()
            .map(|spec| TenantState {
                queue: VecDeque::with_capacity(spec.queue_depth),
                spec,
                quota_used: 0,
                vtime: 0.0,
                counters: TenantCounters::default(),
            })
            .collect();
        TenantScheduler {
            tenants,
            backlog: 0,
            vclock: 0.0,
            seq: 0,
        }
    }

    /// The tenant's configured spec.
    pub fn spec(&self, tenant: TenantId) -> Option<&TenantSpec> {
        self.tenants.get(tenant.0 as usize).map(|t| &t.spec)
    }

    /// The tenant's counters so far.
    pub fn counters(&self, tenant: TenantId) -> Option<TenantCounters> {
        self.tenants.get(tenant.0 as usize).map(|t| t.counters)
    }

    /// Jobs admitted but not yet dispatched, across all tenants.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Stamps the next admission sequence number.
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Runs admission control on `req` and, if it passes, enqueues it and
    /// reserves its footprint in `pool`.
    ///
    /// Check order is quota → queue depth → staging pool; the request
    /// travels back in the error so the caller keeps its buffers.
    ///
    /// # Errors
    ///
    /// Returns the shed reason plus the original request.
    pub fn try_enqueue(
        &mut self,
        req: Request,
        arrival_s: f64,
        pool: &mut StagingPool,
    ) -> Result<u64, (ServeError, Request)> {
        let idx = req.tenant.0 as usize;
        if idx >= self.tenants.len() {
            return Err((ServeError::UnknownTenant(req.tenant), req));
        }
        let footprint = req.footprint_bytes();
        let t = &mut self.tenants[idx];
        t.counters.submitted += 1;
        if let Some(quota) = t.spec.quota_bytes {
            if t.quota_used.saturating_add(footprint) > quota {
                t.counters.quota_rejected += 1;
                return Err((
                    ServeError::QuotaExceeded {
                        tenant: req.tenant,
                        used: t.quota_used,
                        quota,
                        requested: footprint,
                    },
                    req,
                ));
            }
        }
        if t.queue.len() >= t.spec.queue_depth {
            t.counters.shed_queue += 1;
            return Err((
                ServeError::QueueFull {
                    tenant: req.tenant,
                    depth: t.spec.queue_depth,
                },
                req,
            ));
        }
        if let Err(full) = pool.admit(footprint) {
            t.counters.shed_staging += 1;
            return Err((ServeError::Overloaded(full), req));
        }
        t.quota_used += footprint;
        t.counters.accepted += 1;
        if t.queue.is_empty() {
            // Re-activation: forfeit idle credit (start-time fairness).
            t.vtime = t.vtime.max(self.vclock);
        }
        let seq = self.next_seq();
        let tenant = req.tenant.0;
        self.tenants[idx].queue.push_back(Job {
            seq,
            tenant,
            footprint,
            arrival_s,
            req: Some(req),
        });
        self.backlog += 1;
        Ok(seq)
    }

    /// Picks and dequeues the next job — the backlogged tenant with the
    /// smallest virtual time, lowest index on ties (for determinism) — or
    /// `None` when every queue is empty.
    pub(crate) fn pop_next(&mut self) -> Option<Job> {
        if self.backlog == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for (i, t) in self.tenants.iter().enumerate() {
            if t.queue.is_empty() {
                continue;
            }
            if best.is_none_or(|b| t.vtime < self.tenants[b].vtime) {
                best = Some(i);
            }
        }
        let idx = best?;
        let job = self.tenants[idx].queue.pop_front()?;
        self.backlog -= 1;
        let t = &mut self.tenants[idx];
        t.vtime += job.footprint as f64 / t.spec.weight;
        self.vclock = self.vclock.max(t.vtime);
        Some(job)
    }

    /// Records a completed job's byte accounting.
    pub fn complete(&mut self, tenant: u16, uncompressed: u64, wire: u64) {
        let t = &mut self.tenants[tenant as usize];
        t.counters.completed += 1;
        t.counters.uncompressed_bytes += uncompressed;
        t.counters.wire_bytes += wire;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobKind;
    use cdma_compress::Algorithm;

    fn req(tenant: u16, id: u64, words: usize) -> Request {
        Request::compress(TenantId(tenant), id, Algorithm::Zvc, vec![1.0; words])
    }

    fn pop_ids(sched: &mut TenantScheduler, n: usize) -> Vec<u16> {
        (0..n).map(|_| sched.pop_next().unwrap().tenant).collect()
    }

    #[test]
    fn admission_order_quota_queue_pool() {
        let spec = TenantSpec::new("t").quota_bytes(8192).queue_depth(1);
        let mut sched = TenantScheduler::new(vec![spec]);
        let mut pool = StagingPool::new(4096);
        // Quota fires before the queue or pool are even consulted.
        let (e, r) = sched
            .try_enqueue(req(0, 0, 4096), 0.0, &mut pool)
            .unwrap_err();
        assert!(matches!(e, ServeError::QuotaExceeded { .. }));
        assert_eq!(r.kind, JobKind::Compress);
        assert_eq!(pool.in_use(), 0);
        // Fits quota and pool.
        sched.try_enqueue(req(0, 1, 1024), 0.0, &mut pool).unwrap();
        assert_eq!(pool.in_use(), 4096);
        // Queue full fires before the pool: no reservation leaks.
        let (e, _) = sched.try_enqueue(req(0, 2, 1), 0.0, &mut pool).unwrap_err();
        assert!(matches!(e, ServeError::QueueFull { .. }));
        assert_eq!(pool.in_use(), 4096);
        // Drain the queue; now the pool is the limiting stage.
        sched.pop_next().unwrap();
        let (e, _) = sched
            .try_enqueue(req(0, 3, 1024), 0.0, &mut pool)
            .unwrap_err();
        assert!(matches!(e, ServeError::Overloaded(_)));
        let c = sched.counters(TenantId(0)).unwrap();
        assert_eq!(c.submitted, 4);
        assert_eq!(c.accepted, 1);
        assert_eq!(c.quota_rejected, 1);
        assert_eq!(c.shed_queue, 1);
        assert_eq!(c.shed_staging, 1);
    }

    #[test]
    fn unknown_tenant_is_typed() {
        let mut sched = TenantScheduler::new(vec![TenantSpec::new("only")]);
        let mut pool = StagingPool::new(1 << 20);
        let (e, _) = sched
            .try_enqueue(req(5, 0, 16), 0.0, &mut pool)
            .unwrap_err();
        assert_eq!(e, ServeError::UnknownTenant(TenantId(5)));
    }

    #[test]
    fn bandwidth_share_dispatches_by_weight() {
        // Weights 3:1 — over a long backlog, dispatch counts track 3:1.
        let specs = vec![
            TenantSpec::new("heavy").weight(3.0).queue_depth(4096),
            TenantSpec::new("light").weight(1.0).queue_depth(4096),
        ];
        let mut sched = TenantScheduler::new(specs);
        let mut pool = StagingPool::new(1 << 30);
        for i in 0..400 {
            sched.try_enqueue(req(0, i, 1024), 0.0, &mut pool).unwrap();
            sched.try_enqueue(req(1, i, 1024), 0.0, &mut pool).unwrap();
        }
        let first = pop_ids(&mut sched, 400);
        let heavy = first.iter().filter(|&&t| t == 0).count();
        // Exactly 3 of every 4 equal-size dispatches go to weight 3.
        assert_eq!(heavy, 300);
    }

    #[test]
    fn idle_tenant_gains_no_credit() {
        let specs = vec![
            TenantSpec::new("busy").queue_depth(4096),
            TenantSpec::new("late").queue_depth(4096),
        ];
        let mut sched = TenantScheduler::new(specs);
        let mut pool = StagingPool::new(1 << 30);
        // Tenant 0 runs alone for a while, advancing the virtual clock.
        for i in 0..100 {
            sched.try_enqueue(req(0, i, 1024), 0.0, &mut pool).unwrap();
        }
        for _ in 0..100 {
            sched.pop_next().unwrap();
        }
        // Tenant 1 arrives late; both stay backlogged from here on.
        for i in 0..100 {
            sched
                .try_enqueue(req(0, 100 + i, 1024), 1.0, &mut pool)
                .unwrap();
            sched.try_enqueue(req(1, i, 1024), 1.0, &mut pool).unwrap();
        }
        // If the latecomer kept vtime 0 it would now get every dispatch
        // until it "caught up" 100 jobs. The vclock clamp forfeits that:
        // the next 20 dispatches alternate.
        let next = pop_ids(&mut sched, 20);
        let late = next.iter().filter(|&&t| t == 1).count();
        assert!(
            (9..=11).contains(&late),
            "latecomer burst not suppressed: {late}/20"
        );
    }

    #[test]
    fn completion_accounting_is_per_tenant() {
        let mut sched = TenantScheduler::new(vec![TenantSpec::new("a"), TenantSpec::new("b")]);
        sched.complete(1, 4096, 1000);
        sched.complete(1, 4096, 900);
        let c = sched.counters(TenantId(1)).unwrap();
        assert_eq!(c.completed, 2);
        assert_eq!(c.uncompressed_bytes, 8192);
        assert_eq!(c.wire_bytes, 1900);
        assert_eq!(sched.counters(TenantId(0)).unwrap().completed, 0);
    }
}
