//! # The link fabric: one arbiter for flat and hierarchical topologies
//!
//! The paper's §IX platform is 4–8 GPUs on one PCIe switch: a single
//! shared link. Datacenter platforms stack that link: each node's GPUs
//! share a PCIe/NVLink tier, and the nodes' NICs share a spine whose
//! bandwidth is usually *oversubscribed* relative to the sum of the node
//! tiers. Both are one model here — a spine fed directly (the **flat**
//! fabric, zero node tiers) or through node tiers:
//!
//! * [`FabricSpec`] / [`FabricShape`] — the topology: [`FabricSpec::flat`]
//!   (one link) or [`FabricSpec::new`] (`n` nodes × `g` GPUs each,
//!   per-tier bandwidth);
//! * [`FluidFabric`] — the arbiter every [`ClusterSim`] runs on: each
//!   transfer traverses its node tier (if any) *and* the spine, and its
//!   instantaneous service rate is the max-min fair allocation across
//!   both, so the bottleneck tier determines progress;
//! * [`FabricSim`] / [`Job`] — trace-driven tenant churn: jobs arrive on
//!   an open-loop schedule (same seeding discipline as
//!   `cdma_serve::loadgen::Schedule`), are admitted when GPUs are free,
//!   run multi-step with density evolving across
//!   [`FidelitySource`] checkpoints (the §IV
//!   trajectories), and depart mid-run — with per-step results folded
//!   into streaming [`RunStats`] so a long run stays in bounded memory;
//! * [`churn_trace`] — the seeded random job-mix generator behind
//!   `fig_datacenter`'s churn run.
//!
//! ## Tier composition model
//!
//! Rates are *fluid*: at every schedule change the fabric solves a
//! max-min fair allocation by progressive filling: every tier is a shared
//! pipe filled water-filling style ([`LinkPolicy::BandwidthShare`], the
//! one arbitration). Gradient all-reduce streams are inter-node
//! traffic: they traverse the spine only (`node = None`), while per-GPU
//! offload/prefetch flows traverse their node tier and then the spine.
//! Every tier keeps its own busy profile and wire-byte counter, so the
//! conservation invariant `spine bytes = Σ node bytes + all-reduce bytes`
//! is checkable after any run.
//!
//! A flat bandwidth-share fabric and a one-node fabric with both tiers at
//! the same bandwidth run the same solver on the same constraints and are
//! bit-identical (`tests/fabric_cross_validation.rs`).
//!
//! The symmetric case has a closed form — each of `g·n` identical flows
//! gets `min(cap, node_bw/g, spine_bw/(g·n))` — which the independent
//! oracle in `tests/fabric_cross_validation.rs` pins within 1e-9.
//!
//! ```
//! use cdma_vdnn::fabric::{FabricSpec, FluidFabric};
//!
//! // 2 nodes × 10 B/s, spine of 10 B/s shared by both.
//! let spec = FabricSpec::new(2, 2, 10.0, 10.0);
//! let mut fab = FluidFabric::new(spec);
//! let a = fab.flow(Some(0));
//! let b = fab.flow(Some(1));
//! let ra = fab.submit(a, 0.0, 40.0, f64::INFINITY);
//! let rb = fab.submit(b, 0.0, 40.0, f64::INFINITY);
//! fab.run_until_idle();
//! // Node tiers could carry 10 B/s each, but the 10 B/s spine is the
//! // bottleneck: each flow gets 5 B/s.
//! assert_eq!(fab.completion(ra), Some(8.0));
//! assert_eq!(fab.completion(rb), Some(8.0));
//! ```

use std::collections::VecDeque;

use cdma_gpusim::SystemConfig;
use cdma_models::NetworkSpec;

use crate::cluster::{ClusterSim, Tenant};
use crate::timeline::{push_busy, FidelitySource, FlowId, LinkPolicy, RequestId};

/// The fabric topology of a scenario, as a parseable axis value
/// (`fabric=flat`, `fabric=node8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricShape {
    /// Every GPU on one shared link ([`FabricSpec::flat`]) — what
    /// [`ClusterSim::new`] runs on.
    Flat,
    /// Two tiers: nodes of `gpus_per_node` GPUs, each node's link feeding
    /// a shared spine.
    Hierarchical {
        /// GPUs per node (the node-tier fan-in).
        gpus_per_node: usize,
    },
}

impl FabricShape {
    /// The shapes every sweep iterates, smallest first.
    pub const ALL: [FabricShape; 2] = [
        FabricShape::Flat,
        FabricShape::Hierarchical { gpus_per_node: 8 },
    ];

    /// The stable label used in scenario keys (`flat`, `node8`).
    pub fn label(&self) -> String {
        match self {
            FabricShape::Flat => "flat".to_owned(),
            FabricShape::Hierarchical { gpus_per_node } => format!("node{gpus_per_node}"),
        }
    }

    /// Concretizes the shape for a platform and GPU count: `Flat` is
    /// `None` — nothing to hand [`ClusterSim::with_fabric`], a new
    /// [`ClusterSim`] already runs on the platform's one flat link —
    /// and `Hierarchical` gets `⌈gpus / gpus_per_node⌉` nodes at the
    /// platform's PCIe bandwidth each, feeding a 2:1-oversubscribed
    /// spine (`node_bw · max(nodes/2, 1)`). `_policy` is ignored: bandwidth
    /// sharing is the only arbitration.
    pub fn spec_for(
        &self,
        cfg: &SystemConfig,
        gpus: usize,
        _policy: LinkPolicy,
    ) -> Option<FabricSpec> {
        match *self {
            FabricShape::Flat => None,
            FabricShape::Hierarchical { gpus_per_node } => {
                assert!(gpus_per_node > 0, "need at least one GPU per node");
                let nodes = gpus.div_ceil(gpus_per_node).max(1);
                let node_bw = cfg.pcie_bw;
                let spine_bw = node_bw * (nodes as f64 / 2.0).max(1.0);
                Some(FabricSpec::new(nodes, gpus_per_node, node_bw, spine_bw))
            }
        }
    }
}

impl std::fmt::Display for FabricShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for FabricShape {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "flat" {
            return Ok(FabricShape::Flat);
        }
        if let Some(g) = s.strip_prefix("node") {
            let gpus_per_node: usize = g
                .parse()
                .map_err(|_| format!("unknown fabric shape {s:?} (expected flat|node<g>)"))?;
            if gpus_per_node == 0 {
                return Err(format!(
                    "fabric shape {s:?} needs at least one GPU per node"
                ));
            }
            return Ok(FabricShape::Hierarchical { gpus_per_node });
        }
        Err(format!(
            "unknown fabric shape {s:?} (expected flat|node<g>)"
        ))
    }
}

/// A concrete fabric: one shared spine of `spine_bw` bytes/second, fed
/// either directly by every flow (the **flat** form, `nodes == 0`: 4–8
/// GPUs on one PCIe switch) or through `nodes` node links of `node_bw`
/// bytes/second each (fan-in `gpus_per_node`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSpec {
    /// Node count (node-tier arbiter count); zero on a flat fabric.
    pub nodes: usize,
    /// GPUs per node; `nodes · gpus_per_node` bounds the cluster's GPUs
    /// (zero on a flat fabric, which has no slots to run out of).
    pub gpus_per_node: usize,
    /// Per-node link bandwidth, wire bytes/second (unused when flat).
    pub node_bw: f64,
    /// Spine bandwidth, wire bytes/second.
    pub spine_bw: f64,
}

impl FabricSpec {
    /// A validated two-tier fabric.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `gpus_per_node` is zero, or a bandwidth is
    /// not positive and finite.
    pub fn new(nodes: usize, gpus_per_node: usize, node_bw: f64, spine_bw: f64) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(gpus_per_node > 0, "need at least one GPU per node");
        assert!(
            node_bw > 0.0 && node_bw.is_finite(),
            "node bandwidth must be positive"
        );
        assert!(
            spine_bw > 0.0 && spine_bw.is_finite(),
            "spine bandwidth must be positive"
        );
        FabricSpec {
            nodes,
            gpus_per_node,
            node_bw,
            spine_bw,
        }
    }

    /// The flat fabric: no node tiers, every flow directly on one shared
    /// link of `bw` wire bytes/second — what
    /// [`ClusterSim::new`] runs on.
    ///
    /// # Panics
    ///
    /// Panics if `bw` is not positive and finite.
    pub fn flat(bw: f64) -> Self {
        assert!(
            bw > 0.0 && bw.is_finite(),
            "link bandwidth must be positive"
        );
        FabricSpec {
            nodes: 0,
            gpus_per_node: 0,
            node_bw: bw,
            spine_bw: bw,
        }
    }

    /// Whether this is the flat form (no node tiers).
    pub fn is_flat(&self) -> bool {
        self.nodes == 0
    }

    /// GPU slots in the fabric: `nodes · gpus_per_node`, unbounded
    /// (`usize::MAX`) on a flat fabric.
    pub fn capacity(&self) -> usize {
        if self.is_flat() {
            usize::MAX
        } else {
            self.nodes * self.gpus_per_node
        }
    }

    /// Which node tier a tenant-major global GPU index lands on (`None`
    /// on a flat fabric: its GPUs sit directly on the shared link).
    pub fn node_of(&self, gpu: usize) -> Option<usize> {
        (!self.is_flat()).then(|| gpu / self.gpus_per_node)
    }
}

#[derive(Debug)]
struct Flow {
    /// `Some(k)` — traverses node tier `k` then the spine; `None` —
    /// directly on the spine: every flow of a flat fabric, and
    /// inter-node traffic (gradient all-reduce) on a tiered one.
    node: Option<usize>,
    /// FIFO of not-yet-finished request indices (head is in service).
    queue: VecDeque<usize>,
    offered: f64,
    delivered: f64,
}

#[derive(Debug)]
struct Request {
    flow: usize,
    arrival: f64,
    /// Cap on the instantaneous wire rate this flow can sustain
    /// (engine-bound production or consumption), bytes/second.
    max_rate: f64,
    remaining: f64,
    completion: Option<f64>,
}

/// One active head-of-line request in the fluid schedule's working set.
#[derive(Debug, Clone, Copy)]
struct Head {
    req: usize,
    /// The node tier it crosses, if any.
    tier: Option<usize>,
    ceil: f64,
    rate: f64,
    /// Still rising in the current rate solve.
    open: bool,
    /// Completion time under the current rates.
    candidate: f64,
}

/// Per-node-tier tallies of the fluid schedule's working set.
#[derive(Debug, Clone, Copy, Default)]
struct Tier {
    /// Heads (during a solve: still-open heads) crossing the tier.
    open: usize,
    /// Rate already allocated on the tier.
    used: f64,
    /// Whether the tier moved bytes this interval.
    active: bool,
}

/// Working set of one fluid rate-change interval, kept between intervals
/// so the schedule loop allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// Head-of-line request of every flow with work that has arrived.
    heads: Vec<Head>,
    /// One entry per node tier (none on a flat fabric).
    tiers: Vec<Tier>,
    /// Earliest arrival strictly after the instant `heads` was taken at.
    next_arrival: Option<f64>,
    /// Whether `heads` (rates included) and `next_arrival` describe the
    /// fabric as it stands: [`FluidFabric::next_event`] leaves them behind
    /// for the `advance_to` that follows it, which would otherwise solve
    /// the same instant a second time; any submission or service spoils
    /// them.
    planned: bool,
}

/// The link arbiter of the workspace: per-GPU DMA read paths and gradient
/// all-reduce streams contend for a [`FabricSpec`] — one flat shared link,
/// or node tiers feeding a spine — as a discrete-event resource.
///
/// Flows submit transfers as *wire bytes* (compressed size for offloads)
/// plus a per-transfer rate cap modelling the compression/decompression
/// engines; the fabric advances a fluid service schedule — see the
/// [module docs](self) — records per-tier busy intervals and wire bytes,
/// and reports completions.
///
/// Invariants (pinned by the seeded property loops in
/// `crates/vdnn/tests/link_arbiter_props.rs`):
///
/// * **byte conservation** — every flow's delivered bytes equal its
///   offered bytes once drained;
/// * **work conservation** — the link never idles while an uncapped flow
///   is backlogged;
/// * **monotonicity** — adding a flow never completes an existing
///   transfer earlier.
///
/// ```
/// use cdma_vdnn::fabric::{FabricSpec, FluidFabric};
///
/// let mut link = FluidFabric::new(FabricSpec::flat(10.0));
/// let a = link.flow(None);
/// let b = link.flow(None);
/// let ra = link.submit(a, 0.0, 40.0, f64::INFINITY);
/// let rb = link.submit(b, 0.0, 40.0, f64::INFINITY);
/// link.run_until_idle();
/// // Two symmetric flows each get half the wire: 40 bytes at 5 B/s.
/// assert_eq!(link.completion(ra), Some(8.0));
/// assert_eq!(link.completion(rb), Some(8.0));
/// ```
#[derive(Debug)]
pub struct FluidFabric {
    spec: FabricSpec,
    now: f64,
    flows: Vec<Flow>,
    requests: Vec<Request>,
    /// Per-node-tier busy intervals, coalesced.
    node_busy: Vec<Vec<(f64, f64)>>,
    spine_busy: Vec<(f64, f64)>,
    /// Wire bytes each node tier has carried.
    node_bytes: Vec<f64>,
    /// Wire bytes the spine has carried (every flow crosses it).
    spine_bytes: f64,
    completions: Vec<(RequestId, f64)>,
    events_processed: u64,
    scratch: Scratch,
}

impl FluidFabric {
    /// An idle fabric of `spec`'s shape.
    pub fn new(spec: FabricSpec) -> Self {
        FluidFabric {
            spec,
            now: 0.0,
            flows: Vec::new(),
            requests: Vec::new(),
            node_busy: vec![Vec::new(); spec.nodes],
            spine_busy: Vec::new(),
            node_bytes: vec![0.0; spec.nodes],
            spine_bytes: 0.0,
            completions: Vec::new(),
            events_processed: 0,
            scratch: Scratch::default(),
        }
    }

    /// Registers a flow (one contender for the wire). `node = Some(k)`
    /// routes it through node tier `k` and the spine; `None` puts it
    /// directly on the spine — the only choice on a flat fabric, and
    /// inter-node traffic on a tiered one.
    ///
    /// # Panics
    ///
    /// Panics if `node` names a tier outside the fabric.
    pub fn flow(&mut self, node: Option<usize>) -> FlowId {
        if let Some(k) = node {
            assert!(k < self.spec.nodes, "node {k} outside the fabric");
        }
        self.flows.push(Flow {
            node,
            queue: VecDeque::new(),
            offered: 0.0,
            delivered: 0.0,
        });
        FlowId::from_index(self.flows.len() - 1)
    }

    /// Submits a transfer of `wire_bytes` on `flow`, arriving at `at`,
    /// whose service rate is additionally capped at `max_rate` wire
    /// bytes/second (pass `f64::INFINITY` for a link-bound transfer).
    /// Requests on one flow are served FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `wire_bytes` or `max_rate` is not positive, or `at`
    /// precedes the clock or the flow's previous submission.
    pub fn submit(&mut self, flow: FlowId, at: f64, wire_bytes: f64, max_rate: f64) -> RequestId {
        assert!(wire_bytes > 0.0, "transfer must move at least one byte");
        assert!(max_rate > 0.0, "rate cap must be positive");
        assert!(
            at >= self.now,
            "submission at {at} precedes the fabric clock {}",
            self.now
        );
        let f = &mut self.flows[flow.index()];
        if let Some(&prev) = f.queue.back() {
            assert!(
                at >= self.requests[prev].arrival,
                "per-flow submissions must be in arrival order"
            );
        }
        let id = self.requests.len();
        self.requests.push(Request {
            flow: flow.index(),
            arrival: at,
            max_rate,
            remaining: wire_bytes,
            completion: None,
        });
        f.queue.push_back(id);
        f.offered += wire_bytes;
        self.scratch.planned = false;
        RequestId::from_index(id)
    }

    /// The fabric's clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Wire bytes submitted on `flow` so far.
    pub fn offered(&self, flow: FlowId) -> f64 {
        self.flows[flow.index()].offered
    }

    /// Wire bytes delivered for `flow` so far.
    // pub: link_arbiter_props.rs checks conservation per flow
    pub fn delivered(&self, flow: FlowId) -> f64 {
        self.flows[flow.index()].delivered
    }

    /// Completion time of a request, once it has fully drained.
    pub fn completion(&self, req: RequestId) -> Option<f64> {
        self.requests[req.index()].completion
    }

    /// Busy intervals of the shared tier — the one link of a flat fabric,
    /// the spine of a tiered one — time-ordered and coalesced where they
    /// touch.
    pub fn spine_busy(&self) -> &[(f64, f64)] {
        &self.spine_busy
    }

    /// Busy intervals of every node tier (empty on a flat fabric).
    pub fn node_busy(&self) -> &[Vec<(f64, f64)>] {
        &self.node_busy
    }

    /// Wire bytes the shared tier has carried. A conservation counter
    /// accumulated in service order: compare it with a tolerance, not by
    /// bit pattern.
    pub fn spine_bytes(&self) -> f64 {
        self.spine_bytes
    }

    /// Wire bytes each node tier has carried (empty on a flat fabric).
    pub fn node_bytes(&self) -> &[f64] {
        &self.node_bytes
    }

    /// Internal events processed. The counting rule follows the topology
    /// and is part of the reported output (`fig_datacenter` prints it,
    /// events/s rates divide by it), so it is fixed here rather than
    /// unified:
    ///
    /// * flat — one per schedule-loop iteration of
    ///   [`advance_to`](Self::advance_to): each rate-change interval,
    ///   each idle jump to an arrival, and the final idle check;
    /// * tiered — one per active flow per rate-change interval, plus one
    ///   per idle jump.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Moves the completions produced since the last call onto the end
    /// of `out`, in completion order; `out` is the caller's to reuse.
    pub fn drain_completions(&mut self, out: &mut Vec<(RequestId, f64)>) {
        out.append(&mut self.completions);
    }

    /// The flow `req` was submitted on.
    pub(crate) fn flow_of(&self, req: RequestId) -> FlowId {
        FlowId::from_index(self.requests[req.index()].flow)
    }

    /// Whether any submitted transfer still has bytes to move.
    // pub: link_arbiter_props.rs drives the arbiter by hand
    pub fn has_backlog(&self) -> bool {
        self.flows.iter().any(|f| !f.queue.is_empty())
    }

    /// One pass over the flows: collects the head-of-line request of
    /// every flow with work that has arrived into `scratch.heads` and
    /// the earliest arrival strictly in the future into
    /// `scratch.next_arrival`.
    fn scan(&mut self) {
        let s = &mut self.scratch;
        s.heads.clear();
        s.next_arrival = None;
        for f in &self.flows {
            if let Some(&req) = f.queue.front() {
                let a = self.requests[req].arrival;
                if a <= self.now {
                    s.heads.push(Head {
                        req,
                        tier: f.node,
                        ceil: 0.0,
                        rate: 0.0,
                        open: true,
                        candidate: 0.0,
                    });
                } else {
                    s.next_arrival = Some(s.next_arrival.map_or(a, |b| b.min(a)));
                }
            }
        }
    }

    /// Brings `scratch` up to date with the fluid schedule at this
    /// instant: the active heads, the next arrival and, if any head is
    /// active, the rates.
    fn plan(&mut self) {
        if !self.scratch.planned {
            self.scan();
            if !self.scratch.heads.is_empty() {
                self.solve_rates();
            }
            self.scratch.planned = true;
        }
    }

    /// Max-min fair rates of the freshly scanned `scratch.heads` across
    /// every tier, by progressive filling.
    ///
    /// Per-flow ceilings start at the request's rate cap. Then all open
    /// flows' rates rise together until one hits its ceiling or a tier
    /// saturates, whose member flows freeze; repeat until every flow is
    /// frozen. The bottleneck tier of
    /// each flow's path therefore determines its rate; with no node tiers
    /// this is water-filling on the one link. A round is two passes over
    /// the heads plus one over the tiers, and there are at most as many
    /// rounds as distinct ceilings plus tiers.
    fn solve_rates(&mut self) {
        let FluidFabric {
            spec,
            requests,
            scratch: s,
            ..
        } = self;
        let n = s.heads.len();
        let tiered = !spec.is_flat();

        s.tiers.clear();
        s.tiers.resize(spec.nodes, Tier::default());
        for k in s.heads.iter().filter_map(|h| h.tier) {
            s.tiers[k].open += 1;
        }
        for h in &mut s.heads {
            // A tier also caps a lone flow: no amount of filling can
            // exceed the tier, so fold it into the ceiling (this keeps the
            // symmetric case exact instead of tolerance-frozen).
            let mut c = requests[h.req].max_rate;
            if h.tier.is_some() {
                c = c.min(spec.node_bw);
            }
            h.ceil = c.min(spec.spine_bw);
        }
        let mut open_count = n;
        // Rate allocated on the spine: the sum of the rates in head order,
        // taken as each round ends and still current when the next one
        // starts (as is `used`, per node tier).
        let mut spine_used = 0.0f64;
        // Each round freezes at least one flow or one tier, so the loop
        // is bounded by flows + tiers.
        for _ in 0..(n + spec.nodes + 2) {
            if open_count == 0 {
                break;
            }
            let mut delta = f64::INFINITY;
            for h in s.heads.iter().filter(|h| h.open) {
                delta = delta.min(h.ceil - h.rate);
            }
            if tiered {
                for tier in s.tiers.iter().filter(|tier| tier.open > 0) {
                    delta = delta.min((spec.node_bw - tier.used) / tier.open as f64);
                }
            }
            delta = delta.min((spec.spine_bw - spine_used) / open_count as f64);
            let delta = delta.max(0.0);
            // Raise the open flows and freeze those at their ceilings
            // (snapping exactly, so a capped flow gets its cap
            // bit-for-bit), re-tallying each tier as we go.
            spine_used = 0.0;
            s.tiers.fill(Tier::default());
            for h in &mut s.heads {
                if h.open {
                    h.rate += delta;
                    if h.ceil - h.rate <= h.ceil * 1e-12 {
                        h.rate = h.ceil;
                        h.open = false;
                        open_count -= 1;
                    }
                }
                spine_used += h.rate;
                if let Some(k) = h.tier {
                    s.tiers[k].used += h.rate;
                    s.tiers[k].open += usize::from(h.open);
                }
            }
            // Freeze members of saturated node tiers at their current
            // (fair) rates.
            if tiered {
                for h in s.heads.iter_mut().filter(|h| h.open) {
                    let Some(tier) = h.tier.map(|k| &mut s.tiers[k]) else {
                        continue;
                    };
                    if spec.node_bw - tier.used <= spec.node_bw * 1e-12 {
                        h.open = false;
                        open_count -= 1;
                        tier.open -= 1;
                    }
                }
            }
            if spec.spine_bw - spine_used <= spec.spine_bw * 1e-12 {
                break;
            }
        }
    }

    /// The earliest future time at which the schedule changes on its own
    /// (a completion or a queued arrival becoming active), or `None` when
    /// fully drained.
    pub fn next_event(&mut self) -> Option<f64> {
        self.plan();
        let s = &self.scratch;
        if s.heads.is_empty() {
            return s.next_arrival;
        }
        let dt = s
            .heads
            .iter()
            .map(|h| self.requests[h.req].remaining / h.rate)
            .fold(f64::INFINITY, f64::min);
        // A queued arrival re-divides the shares, so it is a schedule
        // change even while heads are in service.
        let completion = self.now + dt;
        Some(s.next_arrival.map_or(completion, |a| completion.min(a)))
    }

    /// Runs the schedule until every submitted transfer has drained;
    /// returns the drain time.
    // pub: link_arbiter_props.rs drives the arbiter by hand
    pub fn run_until_idle(&mut self) -> f64 {
        while let Some(t) = self.next_event() {
            self.advance_to(t.max(self.now));
            if !self.has_backlog() {
                break;
            }
        }
        self.now
    }

    fn complete(&mut self, req: usize, at: f64) {
        let flow = self.requests[req].flow;
        self.requests[req].remaining = 0.0;
        self.requests[req].completion = Some(at);
        let popped = self.flows[flow].queue.pop_front();
        debug_assert_eq!(popped, Some(req), "only the head of a flow completes");
        self.completions.push((RequestId::from_index(req), at));
    }

    /// Advances the service schedule to `t` (monotone).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the fabric clock.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.now, "cannot advance backwards");
        let flat = self.spec.is_flat();
        loop {
            self.plan();
            self.scratch.planned = false;
            let next_arrival = self.scratch.next_arrival;
            let n = self.scratch.heads.len();
            if n == 0 {
                // Idle: jump to the next arrival inside the window, else
                // to t.
                let jump = next_arrival.filter(|&a| a <= t);
                self.events_processed += u64::from(flat || jump.is_some());
                self.now = jump.unwrap_or(t);
                if jump.is_none() {
                    return;
                }
                continue;
            }
            self.events_processed += if flat { 1 } else { n as u64 };
            // Candidate completion times under the current rate vector.
            let mut next_change = next_arrival.unwrap_or(f64::INFINITY);
            for h in &mut self.scratch.heads {
                h.candidate = self.now + self.requests[h.req].remaining / h.rate;
                next_change = next_change.min(h.candidate);
            }
            let step_to = next_change.min(t);
            let dt = step_to - self.now;
            for tier in &mut self.scratch.tiers {
                tier.active = false;
            }
            for i in 0..n {
                let h = self.scratch.heads[i];
                let flow = self.requests[h.req].flow;
                let moved = if h.candidate <= step_to {
                    let left = self.requests[h.req].remaining;
                    self.flows[flow].delivered += left;
                    self.complete(h.req, h.candidate);
                    left
                } else if dt > 0.0 {
                    let m = h.rate * dt;
                    self.requests[h.req].remaining -= m;
                    self.flows[flow].delivered += m;
                    m
                } else {
                    0.0
                };
                if moved > 0.0 {
                    self.spine_bytes += moved;
                    if let Some(k) = h.tier {
                        self.node_bytes[k] += moved;
                        self.scratch.tiers[k].active = true;
                    }
                }
            }
            if dt > 0.0 {
                push_busy(&mut self.spine_busy, self.now, step_to);
                for (busy, tier) in self.node_busy.iter_mut().zip(&self.scratch.tiers) {
                    if tier.active {
                        push_busy(busy, self.now, step_to);
                    }
                }
            }
            self.now = step_to;
            if self.now >= t {
                return;
            }
        }
    }
}

/// One job in a churn trace: a network trained for `steps` synchronized
/// steps on `gpus` GPUs, arriving at `arrival` and (optionally) departing
/// early, with activation density evolving across `checkpoints` (the §IV
/// trajectories — checkpoint `⌊done · k / steps⌋` feeds step `done`).
#[derive(Clone, Copy)]
pub struct Job<'a> {
    /// The trained network.
    pub spec: &'a NetworkSpec,
    /// Data-parallel width.
    pub gpus: usize,
    /// Submission time, seconds.
    pub arrival: f64,
    /// Training steps requested.
    pub steps: usize,
    /// If set, the job leaves at the first step boundary at or after
    /// this time, cancelling its unfinished steps.
    pub departure: Option<f64>,
    /// Density-evolution checkpoints, earliest epoch first (at least
    /// one).
    pub checkpoints: &'a [FidelitySource],
}

impl std::fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("spec", &self.spec.name())
            .field("gpus", &self.gpus)
            .field("arrival", &self.arrival)
            .field("steps", &self.steps)
            .field("departure", &self.departure)
            .field("checkpoints", &self.checkpoints.len())
            .finish()
    }
}

/// Streaming aggregate over every per-GPU step a churn run simulates —
/// the bounded-memory replacement for retaining 1000 `StepTimeline`s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Per-GPU steps folded in.
    pub gpu_steps: u64,
    /// Running mean per-GPU step time, seconds.
    pub mean_step: f64,
    /// Slowest per-GPU step, seconds.
    pub max_step: f64,
    /// Total PCIe stall seconds across every folded step.
    pub total_stall: f64,
}

impl RunStats {
    /// Folds one per-GPU step in (Welford-style incremental mean, so the
    /// aggregate never retains the samples).
    pub fn fold(&mut self, total: f64, stall: f64) {
        self.gpu_steps += 1;
        self.mean_step += (total - self.mean_step) / self.gpu_steps as f64;
        self.max_step = self.max_step.max(total);
        self.total_stall += stall;
    }
}

/// One synchronized cluster step of a churn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStat {
    /// Absolute start time, seconds.
    pub start: f64,
    /// Step duration (the `ClusterTimeline` makespan).
    pub makespan: f64,
    /// Tenants resident during the step.
    pub tenants: usize,
    /// GPUs busy during the step.
    pub gpus: usize,
    /// Shared-tier (spine) utilisation during the step.
    pub link_utilisation: f64,
    /// Events the step's simulation processed.
    pub events: u64,
}

/// Per-job accounting of a churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's network.
    pub network: String,
    /// Data-parallel width.
    pub gpus: usize,
    /// Submission time.
    pub arrival: f64,
    /// When the job was admitted (`None` — never fit before the run
    /// drained, or it departed while still queued).
    pub admitted: Option<f64>,
    /// Steps the job asked for.
    pub steps_requested: usize,
    /// Steps that ran to completion.
    pub steps_completed: usize,
    /// Steps cancelled by early departure.
    pub steps_cancelled: usize,
    /// When the job's last step finished (`None` if it departed or never
    /// ran).
    pub finished: Option<f64>,
    /// When the job departed early (`None` if it ran to completion).
    pub departed: Option<f64>,
}

/// The outcome of one trace-driven churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRun {
    /// Every synchronized cluster step, in time order.
    pub steps: Vec<StepStat>,
    /// Per-job outcomes, in trace order.
    pub jobs: Vec<JobOutcome>,
    /// Shared-tier (spine) busy intervals across the whole run, absolute
    /// time, coalesced.
    pub spine_busy: Vec<(f64, f64)>,
    /// Spine busy seconds `spine_busy` has no interval for: the measured
    /// offload lines of steps that ran on the dedicated single-GPU path
    /// ([`ClusterTimeline::link_busy`](crate::cluster::ClusterTimeline::link_busy)).
    pub spine_line_busy: f64,
    /// Streaming per-GPU-step aggregates.
    pub stats: RunStats,
    /// When the last admitted work drained.
    pub makespan: f64,
    /// Total events across every step simulation.
    pub events_processed: u64,
}

impl FabricRun {
    /// Fraction of the makespan the shared tier spent busy.
    pub fn spine_utilisation(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.spine_busy.iter().map(|&(s, e)| e - s).sum();
        (busy + self.spine_line_busy) / self.makespan
    }
}

/// Trace-driven tenant churn over a [`ClusterSim`]: admits [`Job`]s as
/// GPUs free up, simulates synchronized cluster steps of whoever is
/// resident, advances each job's density checkpoint per completed step,
/// and retires or cancels jobs at step boundaries. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct FabricSim {
    cluster: ClusterSim,
}

impl FabricSim {
    /// A churn driver over `cluster`, whose fabric bounds admission at
    /// [`FabricSpec::capacity`] GPUs (a flat cluster admits everyone
    /// immediately).
    pub fn new(cluster: ClusterSim) -> Self {
        FabricSim { cluster }
    }

    /// The underlying cluster simulator.
    pub fn cluster(&self) -> &ClusterSim {
        &self.cluster
    }

    /// Runs `jobs` to completion (or departure).
    ///
    /// Admission is in arrival order with skip-ahead: a queued job too
    /// wide for the currently free GPUs does not block a later, narrower
    /// one. Steps are synchronized cluster-wide — the resident set is
    /// fixed for a step and re-evaluated at every step boundary, which is
    /// also when departures take effect ("cleanly cancelled": a departing
    /// job never abandons a step midway).
    ///
    /// # Panics
    ///
    /// Panics if a job has zero GPUs or steps, no checkpoints, or is
    /// wider than the fabric's capacity.
    pub fn run(&self, jobs: &[Job<'_>]) -> FabricRun {
        let capacity = self.cluster.fabric().capacity();
        for job in jobs {
            assert!(job.gpus > 0, "{}: need at least one GPU", job.spec.name());
            assert!(job.steps > 0, "{}: need at least one step", job.spec.name());
            assert!(
                !job.checkpoints.is_empty(),
                "{}: need at least one density checkpoint",
                job.spec.name()
            );
            assert!(
                job.gpus <= capacity,
                "{}: {} GPUs exceed the fabric capacity {capacity}",
                job.spec.name(),
                job.gpus
            );
        }
        let mut outcomes: Vec<JobOutcome> = jobs
            .iter()
            .map(|j| JobOutcome {
                network: j.spec.name().to_owned(),
                gpus: j.gpus,
                arrival: j.arrival,
                admitted: None,
                steps_requested: j.steps,
                steps_completed: 0,
                steps_cancelled: 0,
                finished: None,
                departed: None,
            })
            .collect();
        // Pending jobs in arrival order (stable on ties by trace order).
        let mut pending: Vec<usize> = (0..jobs.len()).collect();
        pending.sort_by(|&a, &b| jobs[a].arrival.total_cmp(&jobs[b].arrival));
        let mut active: Vec<usize> = Vec::new();
        let mut clock = 0.0f64;
        let mut steps: Vec<StepStat> = Vec::new();
        let mut spine_busy: Vec<(f64, f64)> = Vec::new();
        let mut spine_line_busy = 0.0;
        let mut stats = RunStats::default();
        let mut events_processed = 0u64;
        loop {
            // Step boundary: departures first (a queued job can also give
            // up waiting), then admission in arrival order.
            let depart = |j: usize, outcomes: &mut Vec<JobOutcome>, at: f64| {
                let o = &mut outcomes[j];
                o.steps_cancelled = o.steps_requested - o.steps_completed;
                o.departed = Some(at);
            };
            active.retain(|&j| {
                let leaving = jobs[j].departure.is_some_and(|d| d <= clock);
                if leaving {
                    depart(j, &mut outcomes, clock);
                }
                !leaving
            });
            pending.retain(|&j| {
                let leaving = jobs[j].departure.is_some_and(|d| d <= clock);
                if leaving {
                    depart(j, &mut outcomes, clock);
                }
                !leaving
            });
            let mut used: usize = active.iter().map(|&j| jobs[j].gpus).sum();
            pending.retain(|&j| {
                if jobs[j].arrival <= clock && used + jobs[j].gpus <= capacity {
                    used += jobs[j].gpus;
                    outcomes[j].admitted = Some(clock);
                    active.push(j);
                    false
                } else {
                    true
                }
            });
            if active.is_empty() {
                // Idle: jump to the next arrival, or drain.
                match pending.iter().map(|&j| jobs[j].arrival).next() {
                    Some(a) => {
                        clock = clock.max(a);
                        continue;
                    }
                    None => break,
                }
            }
            // One synchronized step of the resident set, each job at its
            // current density checkpoint.
            let tenants: Vec<Tenant<'_>> = active
                .iter()
                .map(|&j| {
                    let job = &jobs[j];
                    let n = job.checkpoints.len();
                    let idx = (outcomes[j].steps_completed * n / job.steps).min(n - 1);
                    Tenant {
                        spec: job.spec,
                        source: &job.checkpoints[idx],
                        gpus: job.gpus,
                    }
                })
                .collect();
            let tl = self.cluster.simulate(&tenants);
            steps.push(StepStat {
                start: clock,
                makespan: tl.makespan(),
                tenants: active.len(),
                gpus: used,
                link_utilisation: tl.link_utilisation(),
                events: tl.events_processed(),
            });
            events_processed += tl.events_processed();
            for t in tl.tenants() {
                // Every GPU of the tenant walks the same plan; fold the
                // slowest GPU's breakdown per resident GPU.
                for _ in 0..t.gpus {
                    stats.fold(t.step.total(), t.step.forward_stall + t.step.backward_stall);
                }
            }
            for &(s, e) in tl.link_busy() {
                push_busy(&mut spine_busy, clock + s, clock + e);
            }
            spine_line_busy += tl.link_line_seconds();
            clock += tl.makespan();
            active.retain(|&j| {
                outcomes[j].steps_completed += 1;
                let done = outcomes[j].steps_completed == jobs[j].steps;
                if done {
                    outcomes[j].finished = Some(clock);
                }
                !done
            });
        }
        FabricRun {
            steps,
            jobs: outcomes,
            spine_busy,
            spine_line_busy,
            stats,
            makespan: clock,
            events_processed,
        }
    }
}

/// One job of a generated churn trace, naming its network by index into
/// the caller's network list (so the trace is spec-agnostic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTemplate {
    /// Submission time, seconds.
    pub arrival: f64,
    /// Training steps requested (1–4).
    pub steps: usize,
    /// Data-parallel width (a power of two ≤ the requested maximum).
    pub gpus: usize,
    /// Early-departure time, if the job leaves mid-run.
    pub departure: Option<f64>,
    /// Index into the caller's network list.
    pub network: usize,
}

/// `splitmix64` — the same generator `loadgen::fill_activations` uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from 53 mantissa bits.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates a seeded open-loop job mix: exponential interarrivals at
/// `1/mean_interarrival_s` over `horizon_s`, each job drawing its shape
/// (steps 1–4, power-of-two width ≤ `max_gpus`, network index below
/// `networks`, 30% chance of early departure) from a stream derived as
/// `seed ^ idx · φ64` — the same per-index splitting discipline as
/// `cdma_serve::loadgen::Schedule`, so churn scenarios and serving
/// scenarios can share seeds.
///
/// # Panics
///
/// Panics if `networks` or `max_gpus` is zero, or the horizon or mean
/// interarrival is not positive.
pub fn churn_trace(
    seed: u64,
    horizon_s: f64,
    mean_interarrival_s: f64,
    networks: usize,
    max_gpus: usize,
) -> Vec<JobTemplate> {
    assert!(networks > 0, "need at least one network to draw from");
    assert!(max_gpus > 0, "need at least one GPU to grant");
    assert!(horizon_s > 0.0, "horizon must be positive");
    assert!(
        mean_interarrival_s > 0.0,
        "mean interarrival must be positive"
    );
    let mut arrivals = seed;
    let mut trace = Vec::new();
    let mut t = 0.0f64;
    for idx in 0u64.. {
        let u = unit(&mut arrivals);
        t += -(1.0 - u).ln() * mean_interarrival_s;
        if t >= horizon_s {
            break;
        }
        let mut job = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let steps = 1 + (splitmix64(&mut job) % 4) as usize;
        let width_exp = splitmix64(&mut job) % (max_gpus.ilog2() as u64 + 1);
        let gpus = 1usize << width_exp;
        let network = (splitmix64(&mut job) % networks as u64) as usize;
        let departure = (unit(&mut job) < 0.3).then(|| t + unit(&mut job) * horizon_s * 0.5);
        trace.push(JobTemplate {
            arrival: t,
            steps,
            gpus,
            departure,
            network,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{MeasuredStream, UniformRatio};
    use crate::{ComputeModel, CudnnVersion};
    use cdma_models::zoo;

    fn two_tier() -> FabricSpec {
        FabricSpec::new(2, 2, 10.0, 10.0)
    }

    #[test]
    fn shape_labels_round_trip() {
        for shape in [
            FabricShape::Flat,
            FabricShape::Hierarchical { gpus_per_node: 8 },
            FabricShape::Hierarchical { gpus_per_node: 2 },
        ] {
            let label = shape.label();
            assert_eq!(label.parse::<FabricShape>().unwrap(), shape);
        }
        assert!("node0".parse::<FabricShape>().is_err());
        assert!("mesh".parse::<FabricShape>().is_err());
    }

    #[test]
    fn spine_is_the_bottleneck_when_oversubscribed() {
        // Two nodes of 10 B/s each feed a 10 B/s spine: one flow per
        // node could do 10 B/s locally but the spine halves both.
        let mut fab = FluidFabric::new(two_tier());
        let a = fab.flow(Some(0));
        let b = fab.flow(Some(1));
        let ra = fab.submit(a, 0.0, 40.0, f64::INFINITY);
        let rb = fab.submit(b, 0.0, 40.0, f64::INFINITY);
        fab.run_until_idle();
        assert_eq!(fab.completion(ra), Some(8.0));
        assert_eq!(fab.completion(rb), Some(8.0));
        // Conservation: every byte crossed its node tier and the spine.
        assert!((fab.spine_bytes() - 80.0).abs() < 1e-9);
        assert!((fab.node_bytes()[0] - 40.0).abs() < 1e-9);
        assert!((fab.node_bytes()[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn node_tier_is_the_bottleneck_when_flows_share_a_node() {
        // Both flows on node 0: its 10 B/s link halves them even though
        // the spine has headroom; node 1 stays idle.
        let spec = FabricSpec::new(2, 2, 10.0, 100.0);
        let mut fab = FluidFabric::new(spec);
        let a = fab.flow(Some(0));
        let b = fab.flow(Some(0));
        let ra = fab.submit(a, 0.0, 40.0, f64::INFINITY);
        let rb = fab.submit(b, 0.0, 40.0, f64::INFINITY);
        fab.run_until_idle();
        assert_eq!(fab.completion(ra), Some(8.0));
        assert_eq!(fab.completion(rb), Some(8.0));
        assert!(fab.node_busy()[1].is_empty());
        assert_eq!(fab.node_bytes()[1], 0.0);
    }

    #[test]
    fn spine_only_flows_skip_the_node_tiers() {
        let mut fab = FluidFabric::new(two_tier());
        let ar = fab.flow(None);
        let r = fab.submit(ar, 0.0, 50.0, f64::INFINITY);
        fab.run_until_idle();
        // Full spine bandwidth, node tiers untouched.
        assert_eq!(fab.completion(r), Some(5.0));
        assert_eq!(fab.node_bytes()[0], 0.0);
        assert!(fab.node_busy()[0].is_empty());
        assert!((fab.spine_bytes() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rate_caps_leave_bandwidth_to_uncapped_flows() {
        // A capped flow (2 B/s) shares a 10 B/s spine with an uncapped
        // one: water-filling gives the uncapped flow the remaining 8.
        let spec = FabricSpec::new(1, 2, 100.0, 10.0);
        let mut fab = FluidFabric::new(spec);
        let a = fab.flow(Some(0));
        let b = fab.flow(Some(0));
        let ra = fab.submit(a, 0.0, 4.0, 2.0);
        let rb = fab.submit(b, 0.0, 16.0, f64::INFINITY);
        fab.run_until_idle();
        assert_eq!(fab.completion(ra), Some(2.0));
        assert_eq!(fab.completion(rb), Some(2.0));
    }

    #[test]
    fn busy_intervals_stay_disjoint_per_tier() {
        let mut fab = FluidFabric::new(two_tier());
        let a = fab.flow(Some(0));
        let b = fab.flow(Some(1));
        fab.submit(a, 0.0, 10.0, f64::INFINITY);
        fab.submit(b, 3.0, 10.0, f64::INFINITY);
        fab.submit(a, 9.0, 5.0, f64::INFINITY);
        fab.run_until_idle();
        for busy in [fab.spine_busy(), &fab.node_busy()[0], &fab.node_busy()[1]] {
            let mut prev = f64::NEG_INFINITY;
            for &(s, e) in busy {
                assert!(e > s && s >= prev - 1e-12, "tier double-booked");
                prev = e;
            }
        }
    }

    #[test]
    fn churn_trace_is_deterministic_and_in_bounds() {
        let a = churn_trace(7, 100.0, 5.0, 3, 16);
        let b = churn_trace(7, 100.0, 5.0, 3, 16);
        assert_eq!(a, b, "same seed, same trace");
        assert!(!a.is_empty());
        let c = churn_trace(8, 100.0, 5.0, 3, 16);
        assert_ne!(a, c, "different seed, different trace");
        let mut prev = 0.0;
        for j in &a {
            assert!(j.arrival >= prev && j.arrival < 100.0);
            prev = j.arrival;
            assert!((1..=4).contains(&j.steps));
            assert!(j.gpus.is_power_of_two() && j.gpus <= 16);
            assert!(j.network < 3);
            if let Some(d) = j.departure {
                assert!(d >= j.arrival);
            }
        }
    }

    #[test]
    fn churn_run_conserves_every_job() {
        let spec = zoo::alexnet();
        let source = FidelitySource::Uniform(UniformRatio::uniform(&spec, 2.0));
        let checkpoints = [source];
        let cluster = ClusterSim::new(
            SystemConfig::titan_x_pcie3(),
            ComputeModel::titan_x(CudnnVersion::V5),
            LinkPolicy::BandwidthShare,
        )
        .with_fabric(FabricSpec::new(
            2,
            2,
            SystemConfig::titan_x_pcie3().pcie_bw,
            SystemConfig::titan_x_pcie3().pcie_bw,
        ));
        let jobs: Vec<Job<'_>> = vec![
            Job {
                spec: &spec,
                gpus: 2,
                arrival: 0.0,
                steps: 3,
                departure: None,
                checkpoints: &checkpoints,
            },
            Job {
                spec: &spec,
                gpus: 4,
                arrival: 0.0,
                steps: 2,
                departure: None,
                checkpoints: &checkpoints,
            },
            Job {
                spec: &spec,
                gpus: 1,
                arrival: 0.1,
                steps: 10,
                departure: Some(0.2),
                checkpoints: &checkpoints,
            },
        ];
        let run = FabricSim::new(cluster).run(&jobs);
        // Job 1 (4-wide) cannot co-reside with job 0 on 4 slots — the
        // skip-ahead admits job 2 (1-wide) instead.
        for o in &run.jobs {
            assert_eq!(
                o.steps_completed + o.steps_cancelled,
                o.steps_requested,
                "{}: steps leaked",
                o.network
            );
        }
        assert!(run.jobs[0].finished.is_some());
        assert!(run.jobs[1].finished.is_some());
        assert!(run.jobs[2].departed.is_some());
        assert!(run.stats.gpu_steps > 0);
        assert!(run.makespan > 0.0);
        assert!(run.spine_utilisation() > 0.0 && run.spine_utilisation() <= 1.0 + 1e-12);
        let folded: u64 = run.steps.iter().map(|s| s.gpus as u64).sum();
        assert_eq!(run.stats.gpu_steps, folded, "streaming fold missed a GPU");
    }

    #[test]
    fn a_lone_gpu_books_its_measured_lines_on_the_spine() {
        // One 1-GPU job on a flat fabric takes the dedicated path, whose
        // link intervals leave out the offload lines: the run must still
        // count them, or the spine reads idle while it drains.
        let spec = zoo::alexnet();
        let table = vec![(4096, 1024); 8];
        let stream =
            MeasuredStream::replicated(table.clone(), vec![table; spec.layers().len()], 16);
        let checkpoints = [FidelitySource::Measured(stream.into())];
        let cluster = ClusterSim::new(
            SystemConfig::titan_x_pcie3(),
            ComputeModel::titan_x(CudnnVersion::V5),
            LinkPolicy::BandwidthShare,
        );
        let step = cluster.simulate(&[Tenant {
            spec: &spec,
            source: &checkpoints[0],
            gpus: 1,
        }]);
        assert!(step.link_line_seconds() > 0.0);
        let run = FabricSim::new(cluster).run(&[Job {
            spec: &spec,
            gpus: 1,
            arrival: 0.0,
            steps: 2,
            departure: None,
            checkpoints: &checkpoints,
        }]);
        assert_eq!(run.spine_line_busy, 2.0 * step.link_line_seconds());
        let (got, want) = (run.spine_utilisation(), step.link_utilisation());
        assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
    }
}
