//! # Multi-GPU shared-link cluster simulation (Section IX)
//!
//! The paper argues cDMA matters *most* on multi-GPU platforms where 4–8
//! GPUs share one host channel: per-GPU activation traffic shrinks with
//! the per-GPU batch, the gradient all-reduce does not, and the link share
//! thins — so transfer stalls grow exactly where compression helps.
//!
//! [`ClusterSim`] grows that scenario onto the event-driven timeline: each
//! GPU of each [`Tenant`] walks [`TimelineSim`]'s stage program and books
//! every stage through the same per-GPU step recorder, which builds its
//! [`StepTimeline`]; only the link differs. Its offloads and
//! prefetches contend for one bandwidth-shared [`FluidFabric`], together
//! with one gradient all-reduce stream per data-parallel tenant. The fabric is the
//! platform's one flat link unless [`ClusterSim::with_fabric`] stacks
//! node tiers under a spine. Heterogeneous tenants
//! (independent networks and checkpoints on one link) model the
//! heavy-traffic sharing the ROADMAP asks for.
//!
//! Two exactness anchors keep the subsystem honest:
//!
//! * a **single-GPU single-tenant** cluster on a flat fabric takes the
//!   dedicated-link fast path and is *bit-identical* to `TimelineSim` —
//!   event log included (`tests/cluster_differential.rs`);
//! * in the contention-free symmetric case the fluid
//!   bandwidth-share arbitration reduces to the paper's static `PCIe/g`
//!   split, so the cluster matches an independent reimplementation of
//!   the analytic multi-GPU closed form within 1e-9
//!   (`tests/multi_gpu_cross_validation.rs`).
//!
//! Modelling fidelity at `g > 1`: transfers become *fluid flows* — wire
//! bytes plus an engine-side rate cap — so the cDMA read path
//! ([`Resource::DmaRead`](crate::timeline::Resource)) is folded into each
//! flow's cap instead of booked as busy intervals, and the dedicated
//! `DmaPipeline`'s staging-buffer backpressure is abstracted away.
//! Per-GPU `DmaRead` intervals therefore only appear on the single-GPU
//! fast path, where the full line-level pipeline runs.
//!
//! ```
//! use cdma_gpusim::SystemConfig;
//! use cdma_models::zoo;
//! use cdma_vdnn::cluster::{ClusterSim, Tenant};
//! use cdma_vdnn::timeline::{LinkPolicy, UniformRatio};
//! use cdma_vdnn::{ComputeModel, CudnnVersion};
//!
//! let spec = zoo::squeezenet();
//! let source = UniformRatio::uniform(&spec, 2.6);
//! let sim = ClusterSim::new(
//!     SystemConfig::titan_x_pcie3(),
//!     ComputeModel::titan_x(CudnnVersion::V5),
//!     LinkPolicy::BandwidthShare,
//! );
//! let tl = sim.simulate(&[Tenant { spec: &spec, source: &source, gpus: 4 }]);
//! assert_eq!(tl.gpus().len(), 4);
//! // Four GPUs leave each DMA path a quarter of the wire, and the
//! // gradient all-reduce serializes behind the step.
//! let t = &tl.tenants()[0];
//! assert!(t.allreduce > 0.0);
//! assert!((t.total - tl.makespan()).abs() < 1e-12);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cdma_gpusim::{SystemConfig, ZvcEngine};
use cdma_models::NetworkSpec;

use crate::fabric::{FabricSpec, FluidFabric};
use crate::timeline::{
    busy_total, line_totals, FlowId, LinkPolicy, Payload, Phase, Resource, Stage, StepRecorder,
    StepTimeline, TimelineSim, Transfer, TransferSource,
};
use crate::{ComputeModel, StepBreakdown};

/// The gradient all-reduce traffic of one data-parallel tenant, with the
/// byte accounting checked against [`NetworkSpec`] exactly.
///
/// Deriving the all-reduce volume from weight counts at f32 inline leaves
/// nothing asserting the two unit systems (parameter counts vs byte
/// totals) agree. This constructor is the single
/// checked conversion point: it recomputes the byte total from
/// `total_params() × size_of::<f32>()` with overflow-checked integer
/// arithmetic and asserts it equals [`NetworkSpec::weight_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradientAllReduce {
    weight_bytes: u64,
    gpus: usize,
    total_wire_bytes: u64,
}

impl GradientAllReduce {
    /// Ring all-reduce of `spec`'s weight gradients across `gpus` GPUs:
    /// `2·(g−1)` full weight images cross the shared host channel in
    /// total (each GPU sends and receives `2·(g−1)/g` of the weights).
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero, if the byte total overflows `u64`, or if
    /// `spec`'s reported weight bytes disagree with `parameters × 4`.
    pub fn ring(spec: &NetworkSpec, gpus: usize) -> Self {
        assert!(gpus > 0, "need at least one GPU");
        let params = spec.total_params();
        let weight_bytes = params
            .checked_mul(std::mem::size_of::<f32>() as u64)
            .expect("weight bytes overflow u64");
        assert_eq!(
            weight_bytes,
            spec.weight_bytes(),
            "{}: NetworkSpec weight bytes disagree with f32 × parameter count",
            spec.name()
        );
        let total_wire_bytes = weight_bytes
            .checked_mul(2 * (gpus as u64 - 1))
            .expect("ring traffic overflows u64");
        GradientAllReduce {
            weight_bytes,
            gpus,
            total_wire_bytes,
        }
    }

    /// One full weight image, bytes (f32 parameters).
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// GPUs in the ring.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// Exact bytes crossing the shared host channel (`2·(g−1)·weights`;
    /// zero for a single GPU).
    pub fn total_wire_bytes(&self) -> u64 {
        self.total_wire_bytes
    }

    /// Bytes each GPU contributes over its own link share
    /// (`2·(g−1)/g·weights`).
    pub fn per_gpu_wire_bytes(&self) -> f64 {
        self.total_wire_bytes as f64 / self.gpus as f64
    }

    /// The ring traffic split into per-layer gradient chunks (the
    /// overlapped all-reduce submits one per layer as backward retires
    /// it), with the same overflow-checked arithmetic as the total.
    ///
    /// # Panics
    ///
    /// Panics if a layer's chunk overflows `u64` or the chunks do not sum
    /// to [`GradientAllReduce::total_wire_bytes`] exactly (i.e. `spec` is
    /// not the network this ring was built for).
    fn per_layer_wire_bytes(&self, spec: &NetworkSpec) -> Vec<u64> {
        let rounds = 2 * (self.gpus as u64 - 1);
        let wires: Vec<u64> = spec
            .layers()
            .iter()
            .map(|l| {
                l.params
                    .checked_mul(std::mem::size_of::<f32>() as u64)
                    .and_then(|b| b.checked_mul(rounds))
                    .expect("layer ring traffic overflows u64")
            })
            .collect();
        assert_eq!(
            wires.iter().sum::<u64>(),
            self.total_wire_bytes,
            "{}: per-layer ring chunks must sum to the checked total",
            spec.name()
        );
        wires
    }
}

/// One job sharing the cluster's host link: a network trained
/// data-parallel across `gpus` GPUs, with transfers supplied at any
/// fidelity level by `source`.
#[derive(Clone, Copy)]
pub struct Tenant<'a> {
    /// The trained network.
    pub spec: &'a NetworkSpec,
    /// Transfer payloads (full-batch; the cluster scales per-GPU work by
    /// `1/gpus`, mirroring the legacy analytic convention).
    pub source: &'a dyn TransferSource,
    /// Data-parallel width.
    pub gpus: usize,
}

impl std::fmt::Debug for Tenant<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("spec", &self.spec.name())
            .field("fidelity", &self.source.fidelity())
            .field("gpus", &self.gpus)
            .finish()
    }
}

/// Per-tenant outcome of a cluster simulation.
#[derive(Debug, Clone)]
pub struct TenantResult {
    /// The tenant's network name.
    pub network: String,
    /// Data-parallel width.
    pub gpus: usize,
    /// Per-GPU step breakdown (of the slowest GPU).
    pub step: StepBreakdown,
    /// Time every GPU of the tenant finished its training step.
    pub step_end: f64,
    /// Seconds the gradient all-reduce extended past the step barrier
    /// (zero for a single GPU, and shrinks when overlapped with backward).
    pub allreduce: f64,
    /// Wall-clock span of the gradient stream, if any.
    pub allreduce_span: Option<(f64, f64)>,
    /// End-to-end completion (step + exposed all-reduce).
    pub total: f64,
}

/// The result of one cluster simulation: per-GPU step timelines plus
/// per-tenant aggregates and the shared link's busy profile.
#[derive(Debug, Clone)]
pub struct ClusterTimeline {
    gpus: Vec<StepTimeline>,
    gpu_tenant: Vec<usize>,
    tenants: Vec<TenantResult>,
    link_busy: Vec<(f64, f64)>,
    /// Busy seconds of the shared tier that `link_busy` has no interval
    /// for: the dedicated path's measured DMA lines, which the pipeline
    /// books as one total; zero on a shared run.
    link_line_seconds: f64,
    node_busy: Vec<Vec<(f64, f64)>>,
    spine_wire_bytes: f64,
    node_wire_bytes: Vec<f64>,
    makespan: f64,
    events_processed: u64,
}

impl ClusterTimeline {
    /// Per-GPU step timelines, tenant-major (tenant 0's GPUs first).
    pub fn gpus(&self) -> &[StepTimeline] {
        &self.gpus
    }

    /// The timeline of one GPU.
    pub fn gpu(&self, i: usize) -> &StepTimeline {
        &self.gpus[i]
    }

    /// Which tenant GPU `i` belongs to.
    pub fn tenant_of(&self, i: usize) -> usize {
        self.gpu_tenant[i]
    }

    /// Per-tenant aggregates, in submission order.
    pub fn tenants(&self) -> &[TenantResult] {
        &self.tenants
    }

    /// Aggregate busy intervals of the shared tier, coalesced: the one
    /// link on a flat fabric, the spine on a hierarchical one. On the
    /// dedicated single-GPU path these are the timeline's link intervals,
    /// which leave out measured offload lines (see
    /// [`StepTimeline::busy`]): add [`ClusterTimeline::link_line_seconds`]
    /// to their sum for the tier's busy time.
    pub fn link_busy(&self) -> &[(f64, f64)] {
        &self.link_busy
    }

    /// Busy seconds of the shared tier outside [`ClusterTimeline::link_busy`]:
    /// the measured offload lines of a dedicated single-GPU run, zero on a
    /// shared one.
    pub fn link_line_seconds(&self) -> f64 {
        self.link_line_seconds
    }

    /// Per-node-tier busy intervals of a hierarchical fabric (empty on a
    /// flat fabric or the dedicated single-GPU fast path).
    pub fn node_busy(&self) -> &[Vec<(f64, f64)>] {
        &self.node_busy
    }

    /// Wire bytes the shared tier carried (shared runs only; zero on the
    /// dedicated single-GPU fast path, which books busy time instead).
    /// A conservation counter accumulated in service order: compare it
    /// with a tolerance, as `churn_conservation.rs` does, not by bit
    /// pattern. No report prints it.
    pub fn spine_wire_bytes(&self) -> f64 {
        self.spine_wire_bytes
    }

    /// Wire bytes each node tier carried (empty on a flat fabric).
    pub fn node_wire_bytes(&self) -> &[f64] {
        &self.node_wire_bytes
    }

    /// End-to-end completion of the whole cluster.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Fraction of the makespan the shared link spent serving at least
    /// one flow.
    pub fn link_utilisation(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (busy_total(&self.link_busy) + self.link_line_seconds) / self.makespan
    }

    /// Events processed across the shared queue: the fabric's service
    /// events (counted per topology, see
    /// [`FluidFabric::events_processed`]) plus every per-GPU timeline
    /// event.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// One stage of a tenant's per-GPU program: the schedule's [`Stage`] with
/// its batch-linear quantities scaled by `1/gpus`.
struct StagePlan {
    stage: Stage,
    compute: f64,
    demand: Option<Demand>,
}

/// A transfer as the fabric sees it: wire bytes plus the engine-side
/// rate cap.
#[derive(Debug, Clone, Copy)]
struct Demand {
    wire_bytes: f64,
    max_rate: f64,
}

/// Fluid-flow view of a transfer's payload: compressed bytes on the wire,
/// at a rate capped by the engines. An offload's lines are produced no
/// faster than the read path compresses them, a prefetch's consumed no
/// faster than the memory-controller engines decompress; the analytic
/// levels keep the paper's symmetric-bandwidth model, same as the
/// dedicated timeline.
fn demand(
    cfg: &SystemConfig,
    transfer: Transfer,
    payload: Payload<'_>,
    scale: f64,
) -> Option<Demand> {
    match payload {
        Payload::None => None,
        Payload::Analytic { bytes, ratio } => {
            assert!(ratio > 0.0, "compression ratio must be positive");
            let wire = bytes as f64 * scale / ratio;
            (wire > 0.0).then_some(Demand {
                wire_bytes: wire,
                max_rate: cfg.usable_comp_bw() / ratio,
            })
        }
        Payload::Lines { lines, repeat } => {
            let (u, c) = line_totals(lines, repeat);
            if c == 0 || u == 0 {
                return None;
            }
            let engine_bw = match transfer {
                Transfer::Prefetch(_) => {
                    ZvcEngine::new(cfg.engine_clock).aggregate_throughput(cfg.mem_controllers)
                }
                _ => cfg.usable_comp_bw(),
            };
            Some(Demand {
                wire_bytes: c as f64 * scale,
                max_rate: engine_bw * c as f64 / u as f64,
            })
        }
    }
}

/// Event-driven simulator of a multi-GPU, multi-tenant platform sharing
/// one host link. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct ClusterSim {
    cfg: SystemConfig,
    compute: ComputeModel,
    overlap_allreduce: bool,
    fabric: FabricSpec,
    record: bool,
}

impl ClusterSim {
    /// Creates a cluster simulator over `cfg`'s link — a flat fabric of
    /// `cfg.pcie_bw`. `_policy` is ignored: bandwidth sharing is the only
    /// arbitration. The gradient all-reduce serializes after the step by
    /// default (the paper's conservative assumption).
    pub fn new(cfg: SystemConfig, compute: ComputeModel, _policy: LinkPolicy) -> Self {
        ClusterSim {
            cfg,
            compute,
            overlap_allreduce: false,
            fabric: FabricSpec::flat(cfg.pcie_bw),
            record: true,
        }
    }

    /// Overlap the gradient all-reduce with backward propagation: each
    /// layer's gradient chunk enters the link stream as soon as every GPU
    /// of the tenant has computed it, contending with the prefetches.
    pub fn overlap_allreduce(mut self, on: bool) -> Self {
        self.overlap_allreduce = on;
        self
    }

    /// Runs the cluster on `fabric` instead of the platform's one flat
    /// link. On a hierarchical fabric GPU flows traverse their node tier
    /// (GPU `i` lands on node `i / gpus_per_node`, tenant-major) plus the
    /// spine, and gradient all-reduce streams ride the spine alone.
    pub fn with_fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = fabric;
        self
    }

    /// Opt out of copy-free event logging (`on = false`): per-GPU event
    /// logs, stage records and busy intervals are skipped (empty in the
    /// result) while every aggregate — breakdowns, tenant results, link
    /// busy profile, event counts — stays identical. This is what keeps
    /// a 1000-GPU step in bounded memory. Applies to shared runs; the
    /// dedicated single-GPU fast path always records.
    pub fn record_events(mut self, on: bool) -> Self {
        self.record = on;
        self
    }

    /// The fabric the cluster's flows contend for.
    pub fn fabric(&self) -> FabricSpec {
        self.fabric
    }

    /// The platform configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The compute model.
    pub fn compute_model(&self) -> ComputeModel {
        self.compute
    }

    /// Simulates one synchronized training step (plus gradient
    /// all-reduce) of every tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or any tenant has zero GPUs.
    pub fn simulate(&self, tenants: &[Tenant<'_>]) -> ClusterTimeline {
        assert!(!tenants.is_empty(), "need at least one tenant");
        for t in tenants {
            assert!(t.gpus > 0, "{}: need at least one GPU", t.spec.name());
        }
        // Dedicated fast path: one tenant on one GPU of a *flat* fabric
        // has nothing to arbitrate, so the cluster IS the single-GPU
        // timeline — bit-identically. A hierarchical fabric still
        // arbitrates (node tier plus spine), so it always takes the shared
        // path.
        if let [t] = tenants {
            if t.gpus == 1 && self.fabric.is_flat() {
                return self.dedicated(t);
            }
        }
        self.shared(tenants)
    }

    fn dedicated(&self, t: &Tenant<'_>) -> ClusterTimeline {
        let tl = TimelineSim::new(self.cfg, self.compute).simulate(t.spec, t.source);
        let total = tl.total();
        let result = TenantResult {
            network: t.spec.name().to_owned(),
            gpus: 1,
            step: tl.breakdown,
            step_end: total,
            allreduce: 0.0,
            allreduce_span: None,
            total,
        };
        let link_busy = tl.busy(Resource::Link).to_vec();
        let link_line_seconds = tl.line_busy_seconds(Resource::Link);
        let events_processed = tl.events_processed();
        ClusterTimeline {
            gpus: vec![tl],
            gpu_tenant: vec![0],
            tenants: vec![result],
            link_busy,
            link_line_seconds,
            node_busy: Vec::new(),
            spine_wire_bytes: 0.0,
            node_wire_bytes: Vec::new(),
            makespan: total,
            events_processed,
        }
    }

    /// Builds the per-GPU stage program of one tenant.
    fn plan(&self, t: &Tenant<'_>) -> Vec<StagePlan> {
        let scale = 1.0 / t.gpus as f64;
        Stage::program(t.spec.layers().len())
            .map(|stage| {
                let payload = stage.payload(t.spec, t.source);
                StagePlan {
                    stage,
                    compute: stage.compute(&self.compute, t.spec) * scale,
                    demand: demand(&self.cfg, stage.transfer, payload, scale),
                }
            })
            .collect()
    }

    fn shared(&self, tenants: &[Tenant<'_>]) -> ClusterTimeline {
        let mut engine = SharedEngine::new(self, tenants);
        engine.run();
        engine.finish()
    }
}

/// What a completed link request belongs to.
#[derive(Debug, Clone, Copy)]
enum Owner {
    Stage { gpu: usize },
    AllReduce { tenant: usize },
}

/// Registers a flow on `links` and records what its completions belong
/// to, so `owners` stays indexed by [`FlowId`].
fn register(
    links: &mut FluidFabric,
    owners: &mut Vec<Owner>,
    node: Option<usize>,
    owner: Owner,
) -> FlowId {
    let flow = links.flow(node);
    debug_assert_eq!(flow.index(), owners.len(), "owners indexed by flow");
    owners.push(owner);
    flow
}

/// Stage starts, popped earliest first with ties in push order — the
/// order of `(time, seq)`. Times are never negative, and for a
/// sign-positive `f64` the bits order as the value does. A start pushed
/// at the instant the loop is handling (a transfer-bound stage ends
/// exactly at the completion that closes it) goes to a FIFO lane rather
/// than the heap, so a boundary at which every GPU finishes costs O(1)
/// per start. Every lane entry carries the lane's instant and a rising
/// seq, so the lane is sorted, and popping the lesser of its front and
/// the heap's top keeps the order exact.
#[derive(Default)]
struct StartQueue {
    /// `(time.to_bits(), seq, gpu)`, least first.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// `(seq, gpu)` of the starts at `instant`, in push order.
    lane: VecDeque<(u64, usize)>,
    /// The bits of the lane's instant.
    instant: u64,
    seq: u64,
}

impl StartQueue {
    /// Makes `t` the lane's instant; starts left in the lane from an
    /// earlier one move to the heap.
    fn open_instant(&mut self, t: f64) {
        for (seq, gpu) in self.lane.drain(..) {
            self.heap.push(Reverse((self.instant, seq, gpu)));
        }
        self.instant = t.to_bits();
    }

    fn push(&mut self, time: f64, gpu: usize) {
        debug_assert!(time.is_sign_positive(), "stage start {time} before 0");
        let key = time.to_bits();
        if key == self.instant {
            self.lane.push_back((self.seq, gpu));
        } else {
            self.heap.push(Reverse((key, self.seq, gpu)));
        }
        self.seq += 1;
    }

    /// Whether the least start is the lane's front rather than the
    /// heap's top.
    fn lane_first(&self) -> bool {
        match (self.heap.peek(), self.lane.front()) {
            (Some(&Reverse((key, seq, _))), Some(&(lane_seq, _))) => {
                (self.instant, lane_seq) < (key, seq)
            }
            (None, lane) => lane.is_some(),
            (Some(_), None) => false,
        }
    }

    fn min_time(&self) -> Option<f64> {
        if self.lane_first() {
            Some(f64::from_bits(self.instant))
        } else {
            self.heap
                .peek()
                .map(|&Reverse((key, _, _))| f64::from_bits(key))
        }
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        if self.lane_first() {
            let (_, gpu) = self.lane.pop_front()?;
            Some((f64::from_bits(self.instant), gpu))
        } else {
            let Reverse((key, _, gpu)) = self.heap.pop()?;
            Some((f64::from_bits(key), gpu))
        }
    }
}

struct GpuRun {
    tenant: usize,
    flow: FlowId,
    next_stage: usize,
    rec: StepRecorder,
    /// The start of the stage whose transfer is in flight.
    waiting: Option<f64>,
}

struct TenantRun {
    gpus: usize,
    running: usize,
    step_end: f64,
    allreduce: Option<GradientAllReduce>,
    allreduce_flow: Option<FlowId>,
    /// Per-layer ring wire bytes (overlap mode).
    layer_wire: Vec<f64>,
    /// Per backward layer (overlap mode): the GPUs still owing it and
    /// the latest time a GPU has finished it.
    layer_pending: Vec<(usize, f64)>,
    chunks_in_flight: usize,
    allreduce_start: Option<f64>,
    allreduce_end: f64,
}

/// The shared-link event loop: per-GPU stage machines plus the arbiter,
/// advanced strictly in time order.
struct SharedEngine {
    plans: Vec<Vec<StagePlan>>,
    networks: Vec<String>,
    links: FluidFabric,
    gpus: Vec<GpuRun>,
    tenants: Vec<TenantRun>,
    /// What each flow's completions belong to, by [`FlowId`]: a GPU
    /// flow has one transfer in flight, a gradient flow one tenant.
    owners: Vec<Owner>,
    starts: StartQueue,
    overlap: bool,
}

impl SharedEngine {
    fn new(sim: &ClusterSim, tenants: &[Tenant<'_>]) -> Self {
        let fabric = sim.fabric;
        let total: usize = tenants.iter().map(|t| t.gpus).sum();
        assert!(
            total <= fabric.capacity(),
            "{total} GPUs exceed the fabric capacity {}",
            fabric.capacity()
        );
        let mut links = FluidFabric::new(fabric);
        let mut gpus = Vec::new();
        let mut tenant_runs = Vec::new();
        let mut plans = Vec::new();
        let mut networks = Vec::new();
        let mut owners = Vec::new();
        for (ti, t) in tenants.iter().enumerate() {
            plans.push(sim.plan(t));
            networks.push(t.spec.name().to_owned());
            let allreduce = (t.gpus > 1).then(|| GradientAllReduce::ring(t.spec, t.gpus));
            // Gradient rings cross between nodes: spine-only traffic on
            // any fabric.
            let allreduce_flow = allreduce.map(|_| {
                register(
                    &mut links,
                    &mut owners,
                    None,
                    Owner::AllReduce { tenant: ti },
                )
            });
            // Overlap mode splits the same checked ring total into
            // per-layer chunks — both modes go through the one audited
            // weight-count-to-bytes conversion.
            let layer_wire = match (&allreduce, sim.overlap_allreduce) {
                (Some(ar), true) => ar
                    .per_layer_wire_bytes(t.spec)
                    .into_iter()
                    .map(|b| b as f64)
                    .collect(),
                _ => Vec::new(),
            };
            tenant_runs.push(TenantRun {
                gpus: t.gpus,
                running: t.gpus,
                step_end: 0.0,
                allreduce,
                allreduce_flow,
                layer_pending: vec![(t.gpus, 0.0); layer_wire.len()],
                layer_wire,
                chunks_in_flight: 0,
                allreduce_start: None,
                allreduce_end: 0.0,
            });
            for _ in 0..t.gpus {
                let node = fabric.node_of(gpus.len());
                let owner = Owner::Stage { gpu: gpus.len() };
                let flow = register(&mut links, &mut owners, node, owner);
                gpus.push(GpuRun {
                    tenant: ti,
                    flow,
                    next_stage: 0,
                    rec: StepRecorder::new(sim.record, t.source.fidelity()),
                    waiting: None,
                });
            }
        }
        SharedEngine {
            plans,
            networks,
            links,
            gpus,
            tenants: tenant_runs,
            owners,
            starts: StartQueue::default(),
            overlap: sim.overlap_allreduce,
        }
    }

    fn run(&mut self) {
        for gpu in 0..self.gpus.len() {
            self.starts.push(0.0, gpu);
        }
        let mut done = Vec::new();
        loop {
            let t_start = self.starts.min_time();
            let t_arb = self.links.next_event();
            let t = match (t_start, t_arb) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            // The arbiter never completes anything strictly before its
            // reported next event, so advancing to `t` surfaces
            // completions only at exactly `t` — follow-on submissions
            // can never land in the past.
            self.links.advance_to(t.max(self.links.now()));
            // A transfer-bound stage ends at its completion, at `t`: the
            // starts that completions release take the queue's lane.
            self.starts.open_instant(t);
            self.links.drain_completions(&mut done);
            for (req, tc) in done.drain(..) {
                let flow = self.links.flow_of(req);
                self.handle_completion(flow, tc);
            }
            while self.starts.min_time().is_some_and(|t0| t0 <= t) {
                let (time, gpu) = self.starts.pop().expect("peeked");
                debug_assert!(time >= self.links.now() - 1e-12, "stage start in the past");
                self.start_stage(gpu, time.max(self.links.now()));
            }
        }
    }

    fn start_stage(&mut self, gpu: usize, t: f64) {
        let run = &mut self.gpus[gpu];
        let plan = &self.plans[run.tenant][run.next_stage];
        run.rec.compute(&plan.stage, t, plan.compute);
        match plan.demand {
            None => self.finish_stage(gpu, t, None),
            Some(d) => {
                run.rec.event(t, plan.stage.transfer.events()[0]);
                run.waiting = Some(t);
                let flow = run.flow;
                self.links.submit(flow, t, d.wire_bytes, d.max_rate);
            }
        }
    }

    /// Closes the stage a GPU started at `start`: books the transfer end
    /// (if any) and the stage, which ends at the later of its compute and
    /// its transfer, then schedules the next stage or retires the GPU.
    fn finish_stage(&mut self, gpu: usize, start: f64, transfer_end: Option<f64>) {
        let run = &mut self.gpus[gpu];
        let plan = &self.plans[run.tenant][run.next_stage];
        let stage = plan.stage;
        let compute_end = start + plan.compute;
        let (end, transfer) = match transfer_end {
            Some(tc) => {
                run.rec.event(tc, stage.transfer.events()[1]);
                run.rec.busy(Resource::Link, start, tc);
                (compute_end.max(tc), tc - start)
            }
            None => (compute_end, 0.0),
        };
        run.rec
            .close(&stage, start, plan.compute, transfer, end - start, end);
        let backward_layer =
            (self.overlap && stage.record && stage.phase == Phase::Backward).then_some(stage.layer);
        let tenant = run.tenant;
        run.next_stage += 1;
        let retired = run.next_stage == self.plans[tenant].len();
        if !retired {
            self.starts.push(end, gpu);
        }
        if let Some(layer) = backward_layer {
            self.gradient_ready(tenant, layer, end);
        }
        if retired {
            let tr = &mut self.tenants[tenant];
            tr.running -= 1;
            tr.step_end = tr.step_end.max(end);
            if tr.running == 0 {
                self.step_barrier(tenant);
            }
        }
    }

    /// Overlap mode: one backward stage of `layer` finished on some GPU;
    /// once every GPU of the tenant has, the layer's gradient chunk
    /// enters the all-reduce stream.
    fn gradient_ready(&mut self, tenant: usize, layer: usize, at: f64) {
        let tr = &mut self.tenants[tenant];
        if tr.layer_wire.is_empty() {
            return;
        }
        let pending = &mut tr.layer_pending[layer];
        pending.0 -= 1;
        pending.1 = pending.1.max(at);
        if pending.0 > 0 {
            return;
        }
        let (_, ready_at) = std::mem::replace(pending, (tr.gpus, 0.0));
        let wire = tr.layer_wire[layer];
        if wire <= 0.0 {
            return;
        }
        let flow = tr.allreduce_flow.expect("overlap implies a gradient flow");
        tr.chunks_in_flight += 1;
        tr.allreduce_start = Some(tr.allreduce_start.map_or(ready_at, |s| s.min(ready_at)));
        self.links
            .submit(flow, ready_at.max(self.links.now()), wire, f64::INFINITY);
    }

    /// Every GPU of the tenant finished its step: launch the serialized
    /// ring all-reduce (unless overlapped, where the chunks already flow).
    fn step_barrier(&mut self, tenant: usize) {
        let tr = &mut self.tenants[tenant];
        let Some(ar) = tr.allreduce else { return };
        if !tr.layer_wire.is_empty() {
            return; // overlap mode: chunks were submitted layer by layer
        }
        let wire = ar.total_wire_bytes() as f64;
        if wire <= 0.0 {
            return;
        }
        let flow = tr.allreduce_flow.expect("multi-GPU tenants have a flow");
        tr.chunks_in_flight += 1;
        tr.allreduce_start = Some(tr.step_end);
        let at = tr.step_end.max(self.links.now());
        self.links.submit(flow, at, wire, f64::INFINITY);
    }

    fn handle_completion(&mut self, flow: FlowId, tc: f64) {
        match self.owners[flow.index()] {
            Owner::Stage { gpu } => {
                let start = self.gpus[gpu].waiting.take().expect("stage in flight");
                self.finish_stage(gpu, start, Some(tc));
            }
            Owner::AllReduce { tenant } => {
                let tr = &mut self.tenants[tenant];
                tr.chunks_in_flight -= 1;
                tr.allreduce_end = tr.allreduce_end.max(tc);
            }
        }
    }

    fn finish(self) -> ClusterTimeline {
        let mut gpu_timelines = Vec::with_capacity(self.gpus.len());
        let mut gpu_tenant = Vec::with_capacity(self.gpus.len());
        let mut per_tenant_worst: Vec<Option<StepBreakdown>> = vec![None; self.tenants.len()];
        let mut arbiter_events = self.links.events_processed();
        for run in self.gpus {
            debug_assert_eq!(run.next_stage, self.plans[run.tenant].len(), "GPU retired");
            // The recorder counts every event whether or not it logs it,
            // so opting out of recording cannot change the event totals.
            let tl = run.rec.finish();
            arbiter_events += tl.events_processed();
            let worst = &mut per_tenant_worst[run.tenant];
            if worst.is_none_or(|w| tl.breakdown.total() > w.total()) {
                *worst = Some(tl.breakdown);
            }
            gpu_tenant.push(run.tenant);
            gpu_timelines.push(tl);
        }
        let mut results = Vec::with_capacity(self.tenants.len());
        let mut makespan = 0.0f64;
        for (ti, tr) in self.tenants.iter().enumerate() {
            debug_assert_eq!(tr.chunks_in_flight, 0, "gradient stream drained");
            let total = tr.step_end.max(tr.allreduce_end);
            makespan = makespan.max(total);
            results.push(TenantResult {
                network: self.networks[ti].clone(),
                gpus: tr.gpus,
                step: per_tenant_worst[ti].expect("tenant has GPUs"),
                step_end: tr.step_end,
                allreduce: (tr.allreduce_end - tr.step_end).max(0.0),
                allreduce_span: tr.allreduce_start.map(|s| (s, tr.allreduce_end.max(s))),
                total,
            });
        }
        ClusterTimeline {
            gpus: gpu_timelines,
            gpu_tenant,
            tenants: results,
            link_busy: self.links.spine_busy().to_vec(),
            link_line_seconds: 0.0,
            node_busy: self.links.node_busy().to_vec(),
            spine_wire_bytes: self.links.spine_bytes(),
            node_wire_bytes: self.links.node_bytes().to_vec(),
            makespan,
            events_processed: arbiter_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::tests::assert_stage_invariants;
    use crate::timeline::UniformRatio;
    use crate::CudnnVersion;
    use cdma_models::zoo;

    fn sim() -> ClusterSim {
        ClusterSim::new(
            SystemConfig::titan_x_pcie3(),
            ComputeModel::titan_x(CudnnVersion::V5),
            LinkPolicy::BandwidthShare,
        )
    }

    #[test]
    fn ring_allreduce_bytes_are_exact() {
        let spec = zoo::alexnet();
        let ar = GradientAllReduce::ring(&spec, 4);
        assert_eq!(ar.weight_bytes(), spec.total_params() * 4);
        assert_eq!(ar.total_wire_bytes(), spec.total_params() * 4 * 6);
        assert_eq!(GradientAllReduce::ring(&spec, 1).total_wire_bytes(), 0);
        let per_gpu = ar.per_gpu_wire_bytes();
        assert!((per_gpu * 4.0 - ar.total_wire_bytes() as f64).abs() < 1.0);
    }

    #[test]
    fn allreduce_seconds_match_the_checked_byte_accounting() {
        // The simulated all-reduce time must be exactly the checked ring
        // bytes over the full link (g flows at 1/g share each).
        let spec = zoo::alexnet();
        let source = UniformRatio::uniform(&spec, 1.0);
        let tl = sim().simulate(&[Tenant {
            spec: &spec,
            source: &source,
            gpus: 4,
        }]);
        let ring = GradientAllReduce::ring(&spec, 4);
        assert_eq!(ring.total_wire_bytes(), spec.total_params() * 4 * 6);
        let ar = tl.tenants()[0].allreduce;
        let expect = ring.total_wire_bytes() as f64 / SystemConfig::titan_x_pcie3().pcie_bw;
        assert!(
            (ar - expect).abs() / expect < 1e-9,
            "all-reduce {ar} vs checked bytes {expect}"
        );
    }

    #[test]
    fn symmetric_gpus_finish_together_under_fair_share() {
        let spec = zoo::squeezenet();
        let source = UniformRatio::uniform(&spec, 2.6);
        let tl = sim().simulate(&[Tenant {
            spec: &spec,
            source: &source,
            gpus: 4,
        }]);
        assert_eq!(tl.gpus().len(), 4);
        let t0 = tl.gpu(0).total();
        for g in tl.gpus() {
            assert_eq!(g.total().to_bits(), t0.to_bits(), "symmetric GPUs diverged");
        }
        let t = &tl.tenants()[0];
        assert!(t.allreduce > 0.0, "4-GPU tenant all-reduces");
        assert!((t.total - (t.step_end + t.allreduce)).abs() < 1e-12);
        assert!(tl.link_utilisation() > 0.0 && tl.link_utilisation() <= 1.0 + 1e-12);
    }

    #[test]
    fn more_gpus_stall_more_per_gpu() {
        // The Section IX effect: compute shrinks with the per-GPU batch,
        // activation transfer time does not (the link share thins at the
        // same rate), so the stall fraction grows with g.
        let spec = zoo::vgg();
        let source = UniformRatio::uniform(&spec, 1.0);
        let mut prev = 0.0;
        for g in [1usize, 2, 4, 8] {
            let tl = sim().simulate(&[Tenant {
                spec: &spec,
                source: &source,
                gpus: g,
            }]);
            let frac = tl.tenants()[0].step.stall_fraction();
            assert!(
                frac >= prev - 1e-12,
                "stall fraction should grow with g: {frac} after {prev}"
            );
            prev = frac;
        }
    }

    #[test]
    fn second_tenant_never_speeds_up_the_first() {
        let a = zoo::alexnet();
        let b = zoo::vgg();
        let sa = UniformRatio::uniform(&a, 2.0);
        let sb = UniformRatio::uniform(&b, 2.0);
        let alone = sim().simulate(&[Tenant {
            spec: &a,
            source: &sa,
            gpus: 2,
        }]);
        let shared = sim().simulate(&[
            Tenant {
                spec: &a,
                source: &sa,
                gpus: 2,
            },
            Tenant {
                spec: &b,
                source: &sb,
                gpus: 2,
            },
        ]);
        assert!(
            shared.tenants()[0].total >= alone.tenants()[0].total - 1e-9,
            "tenant sped up under contention"
        );
        assert_eq!(shared.gpus().len(), 4);
        assert_eq!(shared.tenant_of(0), 0);
        assert_eq!(shared.tenant_of(2), 1);
    }

    #[test]
    fn overlapped_allreduce_is_never_slower() {
        let spec = zoo::alexnet();
        let source = UniformRatio::uniform(&spec, 2.6);
        let tenant = [Tenant {
            spec: &spec,
            source: &source,
            gpus: 4,
        }];
        let serial = sim().simulate(&tenant);
        let overlapped = sim().overlap_allreduce(true).simulate(&tenant);
        assert!(overlapped.tenants()[0].total <= serial.tenants()[0].total + 1e-9);
        // AlexNet is weight-heavy: hiding the ring behind backward must
        // actually help, not just tie.
        assert!(overlapped.tenants()[0].total < serial.tenants()[0].total * 0.999);
        let span = overlapped.tenants()[0]
            .allreduce_span
            .expect("gradients flowed");
        assert!(span.0 < overlapped.tenants()[0].step_end);
    }

    #[test]
    fn per_gpu_busy_intervals_never_overlap() {
        let spec = zoo::googlenet();
        let source = UniformRatio::uniform(&spec, 1.3);
        let tl = sim().simulate(&[Tenant {
            spec: &spec,
            source: &source,
            gpus: 3,
        }]);
        for g in tl.gpus() {
            assert_eq!(g.stages().len(), 2 * spec.layers().len());
            assert_stage_invariants(g);
        }
    }

    /// The order `StartQueue` must reproduce: `(time, seq)` under
    /// `f64::total_cmp`, least first out of a max-heap.
    struct OracleStart(f64, u64);

    impl Ord for OracleStart {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
        }
    }

    impl PartialOrd for OracleStart {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl PartialEq for OracleStart {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }

    impl Eq for OracleStart {}

    #[test]
    fn start_queue_pops_in_time_then_push_order() {
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for case in 0..1200 {
            let mut q = StartQueue::default();
            let mut oracle = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            // A start at the current instant, or at a coarse future time
            // (ties across pushes).
            let mut push = |q: &mut StartQueue, oracle: &mut BinaryHeap<_>, now: f64, r: u64| {
                let time = if r.is_multiple_of(2) {
                    now
                } else {
                    now + (1 + r % 5) as f64 * 0.25
                };
                q.push(time, seq as usize);
                oracle.push(OracleStart(time, seq));
                seq += 1;
            };
            let check_pop = |q: &mut StartQueue, oracle: &mut BinaryHeap<OracleStart>| {
                let want = oracle.pop().map(|o| (o.0.to_bits(), o.1 as usize));
                let got = q.pop().map(|(t, gpu)| (t.to_bits(), gpu));
                assert_eq!(got, want, "case {case}: pop order");
            };
            for _ in 0..40 {
                match next(4) {
                    // A tie storm, or a few future starts.
                    0 | 1 => {
                        for _ in 0..=next(24) {
                            push(&mut q, &mut oracle, now, next(1 << 20));
                        }
                    }
                    // A pop outside any drain.
                    2 => check_pop(&mut q, &mut oracle),
                    // The engine's step: open the earliest instant and
                    // drain it, pushing mid-drain; sometimes stop early,
                    // leaving the lane to the next instant.
                    _ => {
                        let Some(t) = oracle.peek().map(|o| o.0) else {
                            continue;
                        };
                        now = t;
                        q.open_instant(t);
                        while oracle.peek().is_some_and(|o| o.0 <= t) && next(16) != 0 {
                            assert_eq!(
                                q.min_time().map(f64::to_bits),
                                oracle.peek().map(|o| o.0.to_bits()),
                                "case {case}: min_time"
                            );
                            check_pop(&mut q, &mut oracle);
                            if next(3) == 0 {
                                push(&mut q, &mut oracle, now, next(1 << 20));
                            }
                        }
                    }
                }
            }
            while !oracle.is_empty() {
                check_pop(&mut q, &mut oracle);
            }
            assert_eq!(q.pop(), None, "case {case}: drained");
        }
    }
}
