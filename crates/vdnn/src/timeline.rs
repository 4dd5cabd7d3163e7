//! # Event-driven training-step timeline
//!
//! [`TimelineSim`] simulates one training step as a stream of timestamped
//! events over three shared resources — the GPU **compute** stream, the
//! cDMA **read path** (DRAM fetch + per-memory-controller compression), and
//! the **PCIe link**. With the [`UniformRatio`] source it reproduces the
//! closed-form per-layer `max(compute, offload)` arithmetic of vDNN's
//! Fig. 2b model exactly (`tests/timeline_cross_validation.rs` keeps the
//! closed form).
//!
//! What crosses the link is abstracted behind the [`TransferSource`] trait,
//! giving the same timeline **three fidelity levels** from two sources:
//!
//! | source | level | transfer payload | used by |
//! |---|---|---|---|
//! | [`UniformRatio`] | [`Fidelity::UniformRatio`] | the paper's analytic model: per-layer scalar ratios through [`SystemConfig::effective_offload_bw`] | Fig. 3b, Fig. 13 |
//! | [`UniformRatio::at_checkpoint`] | [`Fidelity::ProfiledDensity`] | the same model, its ratios read from `cdma-sparsity` density trajectories at a training checkpoint | Fig. 13 per-checkpoint variants, training-run projections |
//! | [`MeasuredStream`] | [`Fidelity::MeasuredStream`] | real per-window `(uncompressed, compressed)` line sizes produced by `CdmaEngine::memcpy_compressed` on actual activations, driven through the incremental [`DmaPipeline`] | Fig. 2 timeline, measured-fidelity experiments |
//!
//! At the measured level each offload's 4 KB lines are pushed into one
//! [`DmaPipeline`] shared across the whole step, released at their stage's
//! start time — the transfer is scheduled on the step's own clock and
//! overlaps that layer's compute, rather than being timed as an isolated
//! standalone run. (Under vDNN's stage barrier the pipeline always drains
//! before the next stage begins; the incremental form is what lets looser
//! schedules interleave lines across stages.) A layer's payload is a
//! per-image line table repeated once per image of the minibatch, and
//! [`DmaPipeline::push_table`] steps it only until its schedule turns
//! periodic; the offload's read-path and link busy time come back as exact
//! femtosecond totals rather than per-line intervals.
//!
//! The simulation reproduces vDNN's synchronization (Fig. 2 of the paper):
//! forward stage *n* computes layer *n* while offloading layer *n−1*'s
//! output, and stage *n+1* starts only when both finish; backward stage *n*
//! overlaps its computation with the prefetch for stage *n−1*, after a
//! serial prefetch of the deepest offloaded input.
//!
//! The CPU→GPU (prefetch) direction has one source of truth,
//! [`prefetch_seconds`]: the link moves compressed bytes while the
//! memory-controller engines decompress at their aggregate throughput,
//! whichever is slower. `CdmaEngine::prefetch_time` delegates here.

use std::sync::Arc;

use cdma_compress::Algorithm;
use cdma_gpusim::{fs_to_seconds, DmaPipeline, SystemConfig, ZvcEngine};
use cdma_models::profiles::NetworkProfile;
use cdma_models::NetworkSpec;
use cdma_tensor::Layout;

use crate::{ComputeModel, RatioTable};

/// Seconds to move `compressed_bytes` CPU→GPU and re-inflate them to
/// `uncompressed_bytes`: the link drains the compressed stream while the
/// memory-controller engines decompress at their aggregate throughput, so
/// the slower of the two dominates. The single source of truth for the
/// prefetch direction (`CdmaEngine::prefetch_time` and the timeline's
/// measured prefetch path both call this).
pub fn prefetch_seconds(cfg: &SystemConfig, uncompressed_bytes: u64, compressed_bytes: u64) -> f64 {
    let link = compressed_bytes as f64 / cfg.pcie_bw;
    let engines = ZvcEngine::new(cfg.engine_clock);
    let decompress = uncompressed_bytes as f64 / engines.aggregate_throughput(cfg.mem_controllers);
    link.max(decompress)
}

/// Arbitration of a host link shared by several DMA streams (Section IX:
/// 4–8 GPUs on one channel). Bandwidth sharing is the only policy: each
/// tier of the [`FluidFabric`](crate::fabric::FluidFabric) splits its wire
/// fairly among concurrently backlogged flows, and the contention-free
/// symmetric case reduces to the paper's static `PCIe / g` division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkPolicy {
    /// Fluid fair sharing: backlogged flows split the wire evenly, with
    /// water-filling redistribution when a flow is capped below its fair
    /// share (e.g. its compression engine cannot feed the link faster).
    BandwidthShare,
}

impl std::fmt::Display for LinkPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("bandwidth-share")
    }
}

/// Handle of one DMA stream registered with a
/// [`FluidFabric`](crate::fabric::FluidFabric) (a GPU's offload/prefetch
/// path, or a tenant's gradient all-reduce stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(usize);

impl FlowId {
    /// Mints a flow handle.
    pub(crate) fn from_index(i: usize) -> Self {
        FlowId(i)
    }

    /// The flow's registration index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Handle of one transfer submitted to a
/// [`FluidFabric`](crate::fabric::FluidFabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(usize);

impl RequestId {
    /// Mints a request handle.
    pub(crate) fn from_index(i: usize) -> Self {
        RequestId(i)
    }

    /// The request's submission index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// The timeline's fidelity level as a first-class value.
///
/// Experiments used to pick a fidelity by calling three different
/// constructors at three call sites; carrying the level as a value lets a
/// scenario descriptor name it declaratively and lets one call site build
/// the matching [`TransferSource`] (see [`FidelitySource`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// The paper's coarsest analytic model: one scalar ratio per layer
    /// (or uniformly across the network) through the effective-bandwidth
    /// throttling formula.
    UniformRatio,
    /// Per-layer analytic ratios from the calibrated density trajectories
    /// sampled at a training checkpoint.
    ProfiledDensity,
    /// Real per-window `(uncompressed, compressed)` line sizes through the
    /// incremental DMA pipeline.
    MeasuredStream,
}

impl Fidelity {
    /// Every fidelity level, coarsest first.
    pub const ALL: [Fidelity; 3] = [
        Fidelity::UniformRatio,
        Fidelity::ProfiledDensity,
        Fidelity::MeasuredStream,
    ];

    /// The stable label used in experiment tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::UniformRatio => "uniform-ratio",
            Fidelity::ProfiledDensity => "profiled-density",
            Fidelity::MeasuredStream => "measured-stream",
        }
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform-ratio" | "uniform" => Ok(Fidelity::UniformRatio),
            "profiled-density" | "profiled" => Ok(Fidelity::ProfiledDensity),
            "measured-stream" | "measured" => Ok(Fidelity::MeasuredStream),
            other => Err(format!(
                "unknown fidelity {other:?} (expected uniform|profiled|measured)"
            )),
        }
    }
}

/// A [`TransferSource`] whose fidelity level was chosen at runtime from a
/// [`Fidelity`] value — the single dispatch point that replaces picking one
/// of the two concrete source types at every call site.
#[derive(Debug, Clone)]
pub enum FidelitySource {
    /// An analytic source, uniform or profiled.
    Uniform(UniformRatio),
    /// A [`MeasuredStream`] source, shared: a stream is up to millions of
    /// line sizes, and whoever memoised it hands the same one out again.
    Measured(Arc<MeasuredStream>),
}

impl FidelitySource {
    /// The fidelity level this source realizes.
    pub fn level(&self) -> Fidelity {
        match self {
            FidelitySource::Uniform(s) => s.level,
            FidelitySource::Measured(_) => Fidelity::MeasuredStream,
        }
    }

    fn inner(&self) -> &dyn TransferSource {
        match self {
            FidelitySource::Uniform(s) => s,
            FidelitySource::Measured(s) => s.as_ref(),
        }
    }
}

impl TransferSource for FidelitySource {
    fn fidelity(&self) -> &'static str {
        self.inner().fidelity()
    }

    fn input_payload(&self, spec: &NetworkSpec) -> Payload<'_> {
        self.inner().input_payload(spec)
    }

    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_> {
        self.inner().layer_payload(spec, layer)
    }
}

impl From<UniformRatio> for FidelitySource {
    fn from(s: UniformRatio) -> Self {
        FidelitySource::Uniform(s)
    }
}

impl From<MeasuredStream> for FidelitySource {
    fn from(s: MeasuredStream) -> Self {
        FidelitySource::Measured(Arc::new(s))
    }
}

impl From<Arc<MeasuredStream>> for FidelitySource {
    fn from(s: Arc<MeasuredStream>) -> Self {
        FidelitySource::Measured(s)
    }
}

/// What travels over the CPU–GPU link during a training step.
#[derive(Debug, Clone)]
pub enum TransferPolicy {
    /// No transfers (the paper's "orac" baseline: offload/prefetch latency
    /// always hidden).
    Oracle,
    /// Offload every layer output; element `i` is the compression ratio of
    /// layer `i`'s activations (1.0 everywhere = plain vDNN).
    OffloadAll(Vec<f64>),
    /// Offload only convolution-layer outputs (vDNN's memory-saving
    /// alternative policy), with per-layer ratios as above.
    OffloadConv(Vec<f64>),
}

impl TransferPolicy {
    /// Offload-all with one uniform ratio (1.0 reproduces baseline vDNN).
    pub fn uniform(spec: &NetworkSpec, ratio: f64) -> Self {
        TransferPolicy::OffloadAll(vec![ratio; spec.layers().len()])
    }
}

/// Timing breakdown of one simulated training step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepBreakdown {
    /// Forward compute + stalls, seconds.
    pub forward: f64,
    /// Backward compute + stalls, seconds.
    pub backward: f64,
    /// Seconds of forward time attributable to offload stalls.
    pub forward_stall: f64,
    /// Seconds of backward time attributable to prefetch stalls.
    pub backward_stall: f64,
}

impl StepBreakdown {
    /// Total step latency.
    pub fn total(&self) -> f64 {
        self.forward + self.backward
    }

    /// Fraction of the step spent stalled on PCIe.
    pub fn stall_fraction(&self) -> f64 {
        (self.forward_stall + self.backward_stall) / self.total()
    }
}

/// What one transfer moves across the link.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// Nothing (the data is not offloaded under the active policy, or the
    /// oracle hides it).
    None,
    /// `bytes` of data compressing uniformly by `ratio` — the paper's
    /// analytic throttling model (Section VI).
    Analytic {
        /// Uncompressed bytes.
        bytes: u64,
        /// Compression ratio (1.0 = uncompressed vDNN).
        ratio: f64,
    },
    /// Measured per-window `(uncompressed, compressed)` line sizes of a
    /// real compressed stream: `lines`, back to back `repeat` times.
    Lines {
        /// One pass of the line table.
        lines: &'a [(u32, u32)],
        /// How many passes cross the link.
        repeat: usize,
    },
}

/// Supplies the transfer payloads of one simulated training step — the
/// fidelity knob of [`TimelineSim`].
pub trait TransferSource {
    /// Short label of the fidelity level (for experiment tables).
    fn fidelity(&self) -> &'static str;

    /// Payload of the network input offload (overlapped with forward
    /// stage 0).
    fn input_payload(&self, spec: &NetworkSpec) -> Payload<'_>;

    /// Payload of layer `layer`'s output activations.
    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_>;
}

/// The analytic fidelity levels (the vDNN Fig. 2b / Fig. 13 model): a
/// [`TransferPolicy`] (oracle, uniform or per-layer scalar ratios,
/// offload-all or conv-only) through the effective-bandwidth throttle.
/// The ratios are given ([`Fidelity::UniformRatio`]) or read from the
/// density trajectories at a training checkpoint
/// ([`UniformRatio::at_checkpoint`], [`Fidelity::ProfiledDensity`]); the
/// level is carried as the source's label and changes no payload.
#[derive(Debug, Clone)]
pub struct UniformRatio {
    policy: TransferPolicy,
    level: Fidelity,
}

/// [`UniformRatio`] under the profiled level's former type name, which
/// `benchmark/src/workloads/sim.rs` still calls `at_checkpoint` through.
pub type ProfiledDensity = UniformRatio;

impl UniformRatio {
    /// Wraps a transfer policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's ratio vector length does not match the layer
    /// count of `spec`.
    pub fn new(spec: &NetworkSpec, policy: TransferPolicy) -> Self {
        match &policy {
            TransferPolicy::OffloadAll(r) | TransferPolicy::OffloadConv(r) => {
                assert_eq!(
                    r.len(),
                    spec.layers().len(),
                    "one compression ratio per layer required"
                );
            }
            TransferPolicy::Oracle => {}
        }
        UniformRatio {
            policy,
            level: Fidelity::UniformRatio,
        }
    }

    /// Offload-all with one uniform ratio (1.0 reproduces baseline vDNN).
    pub fn uniform(spec: &NetworkSpec, ratio: f64) -> Self {
        UniformRatio::new(spec, TransferPolicy::uniform(spec, ratio))
    }

    /// The profiled level: offload-all with each layer's ratio at training
    /// checkpoint `t` in `[0, 1]` — its density trajectory sampled at `t`
    /// and mapped through the measured [`RatioTable`], the methodology
    /// behind Fig. 11–13.
    ///
    /// # Panics
    ///
    /// Panics if `profile` does not cover every layer of `spec`.
    pub fn at_checkpoint(
        spec: &NetworkSpec,
        profile: &NetworkProfile,
        t: f64,
        alg: Algorithm,
        layout: Layout,
        table: &RatioTable,
    ) -> Self {
        let ratios = spec
            .layers()
            .iter()
            .map(|l| {
                let d = profile
                    .trajectory(&l.name)
                    .unwrap_or_else(|| panic!("profile missing layer {}", l.name))
                    .density_at(t);
                table.ratio(alg, layout, d)
            })
            .collect();
        UniformRatio {
            policy: TransferPolicy::OffloadAll(ratios),
            level: Fidelity::ProfiledDensity,
        }
    }
}

impl TransferSource for UniformRatio {
    fn fidelity(&self) -> &'static str {
        self.level.label()
    }

    fn input_payload(&self, spec: &NetworkSpec) -> Payload<'_> {
        match &self.policy {
            TransferPolicy::Oracle => Payload::None,
            // The network input is dense (ratio 1) under both offload
            // policies.
            _ => Payload::Analytic {
                bytes: (spec.input().per_image() * spec.batch() * 4) as u64,
                ratio: 1.0,
            },
        }
    }

    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_> {
        let (offload_all, ratios) = match &self.policy {
            TransferPolicy::Oracle => return Payload::None,
            TransferPolicy::OffloadAll(r) => (true, r),
            TransferPolicy::OffloadConv(r) => (false, r),
        };
        let l = &spec.layers()[layer];
        if !offload_all && !l.is_conv() {
            return Payload::None;
        }
        Payload::Analytic {
            bytes: l.activation_bytes(spec.batch()),
            ratio: ratios[layer],
        }
    }
}

/// The measured fidelity level: real per-window `(uncompressed,
/// compressed)` line sizes, one table per layer output (plus one for the
/// network input), as produced by `CdmaEngine::memcpy_compressed` on actual
/// activation data. Offloads run line by line through the shared
/// [`DmaPipeline`]; prefetches use [`prefetch_seconds`] on the table's byte
/// totals.
#[derive(Debug, Clone)]
pub struct MeasuredStream {
    input: Vec<(u32, u32)>,
    layers: Vec<Vec<(u32, u32)>>,
    /// Every table stands for this many back-to-back copies of itself.
    repeat: usize,
}

impl MeasuredStream {
    /// Builds a stream from the input's line table and one line table per
    /// layer (in layer order).
    pub fn new(input: Vec<(u32, u32)>, layers: Vec<Vec<(u32, u32)>>) -> Self {
        MeasuredStream::replicated(input, layers, 1)
    }

    /// A stream whose every table is `repeat` back-to-back copies of the
    /// given one — a minibatch of `repeat` images with the same per-image
    /// line table, stored once.
    pub fn replicated(input: Vec<(u32, u32)>, layers: Vec<Vec<(u32, u32)>>, repeat: usize) -> Self {
        MeasuredStream {
            input,
            layers,
            repeat,
        }
    }

    /// Layer `i`'s per-image line table and how many times it repeats.
    pub fn layer_table(&self, i: usize) -> (&[(u32, u32)], usize) {
        (&self.layers[i], self.repeat)
    }

    /// Number of layer tables.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

/// Appends a busy interval to a time-ordered list, coalescing with the
/// previous one when they touch — the one implementation shared by the
/// step recorder and the fabric's tiers.
pub(crate) fn push_busy(v: &mut Vec<(f64, f64)>, start: f64, end: f64) {
    if end <= start {
        return;
    }
    if let Some(last) = v.last_mut() {
        debug_assert!(start >= last.1 - 1e-12, "resource double-booked");
        if start <= last.1 {
            last.1 = last.1.max(end);
            return;
        }
    }
    v.push((start, end));
}

/// Seconds covered by a busy-interval list, added in time order: the
/// interval half of [`StepTimeline::busy_seconds`], and the whole of a
/// shared cluster run's link busy time.
pub(crate) fn busy_total(v: &[(f64, f64)]) -> f64 {
    v.iter().map(|&(s, e)| e - s).sum()
}

/// `(uncompressed, compressed)` byte totals of `repeat` passes of a line
/// table.
pub(crate) fn line_totals(lines: &[(u32, u32)], repeat: usize) -> (u64, u64) {
    let (u, c) = lines.iter().fold((0u64, 0u64), |(u, c), &(lu, lc)| {
        (u + lu as u64, c + lc as u64)
    });
    (u * repeat as u64, c * repeat as u64)
}

impl TransferSource for MeasuredStream {
    fn fidelity(&self) -> &'static str {
        Fidelity::MeasuredStream.label()
    }

    fn input_payload(&self, _spec: &NetworkSpec) -> Payload<'_> {
        Payload::Lines {
            lines: &self.input,
            repeat: self.repeat,
        }
    }

    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_> {
        assert_eq!(
            self.layers.len(),
            spec.layers().len(),
            "measured stream covers {} layers but the spec has {}",
            self.layers.len(),
            spec.layers().len()
        );
        Payload::Lines {
            lines: &self.layers[layer],
            repeat: self.repeat,
        }
    }
}

/// The three contended resources of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The GPU compute stream.
    Compute,
    /// The cDMA engine path at the memory controllers: `COMP_BW`-paced
    /// DRAM fetch + compression on offloads, decompression on prefetches.
    /// Busy only at the measured fidelity level; the analytic levels fold
    /// engine throttling into the effective link bandwidth.
    DmaRead,
    /// The PCIe link (offloads forward, prefetches backward).
    Link,
}

/// Training-step phase of a stage or event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
}

/// What happened at one timeline event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A layer's computation began.
    ComputeStart {
        /// Phase it belongs to.
        phase: Phase,
        /// Layer index.
        layer: usize,
    },
    /// A layer's computation finished.
    ComputeEnd {
        /// Phase it belongs to.
        phase: Phase,
        /// Layer index.
        layer: usize,
    },
    /// A GPU→CPU offload began (`None` = the network input).
    OffloadStart {
        /// Offloaded layer output (`None` = the network input).
        layer: Option<usize>,
    },
    /// A GPU→CPU offload's last byte crossed the link.
    OffloadEnd {
        /// Offloaded layer output (`None` = the network input).
        layer: Option<usize>,
    },
    /// A CPU→GPU prefetch began.
    PrefetchStart {
        /// Prefetched layer output.
        layer: usize,
    },
    /// A CPU→GPU prefetch finished decompressing.
    PrefetchEnd {
        /// Prefetched layer output.
        layer: usize,
    },
}

/// One timestamped entry of the event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Absolute time in seconds from step start.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Per-stage summary: one forward or backward pipeline stage with its
/// overlapped transfer (the rows of a Fig. 2-style Gantt chart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Phase the stage belongs to.
    pub phase: Phase,
    /// The layer computed during the stage.
    pub layer: usize,
    /// Stage start time.
    pub start: f64,
    /// Seconds of layer computation.
    pub compute: f64,
    /// Seconds until the overlapped transfer finished, measured from stage
    /// start (0 = no transfer).
    pub transfer: f64,
    /// Stage end time (`start + max(compute, transfer)`).
    pub end: f64,
}

impl StageRecord {
    /// Seconds the GPU sat stalled on the transfer during this stage.
    pub fn stall(&self) -> f64 {
        (self.transfer - self.compute).max(0.0)
    }
}

/// The result of one simulated training step: the timing breakdown plus the
/// full chronological event log, per-stage records and per-resource busy
/// time.
#[derive(Debug, Clone)]
pub struct StepTimeline {
    /// Timing breakdown of the step.
    pub breakdown: StepBreakdown,
    fidelity: &'static str,
    events: Vec<Event>,
    stages: Vec<StageRecord>,
    busy: [Vec<(f64, f64)>; 3],
    /// Busy femtoseconds of the DMA pipeline's lines, which keep no
    /// intervals.
    busy_fs: [u64; 3],
    events_processed: u64,
    lines_stepped: u64,
}

impl StepTimeline {
    /// Total step latency.
    pub fn total(&self) -> f64 {
        self.breakdown.total()
    }

    /// Fidelity label of the source that produced this timeline.
    pub fn fidelity(&self) -> &'static str {
        self.fidelity
    }

    /// The chronological event log.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Per-stage records in execution order (forward stages, then backward
    /// stages).
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Busy intervals of one resource, in time order, coalesced where they
    /// touch — intervals never overlap (a resource does one thing at a
    /// time). The measured level's offload lines are not among them: the
    /// DMA pipeline reports their busy time as one exact total, which
    /// [`StepTimeline::busy_seconds`] adds.
    pub fn busy(&self, r: Resource) -> &[(f64, f64)] {
        &self.busy[r as usize]
    }

    /// Seconds one resource was busy over the step: its intervals, added
    /// in time order, plus the DMA pipeline's total for the offload lines
    /// no interval covers. A link utilisation printed from a memoised step
    /// and one printed from the cluster's dedicated path take this same
    /// sum, so they agree to the bit.
    pub fn busy_seconds(&self, r: Resource) -> f64 {
        busy_total(&self.busy[r as usize]) + self.line_busy_seconds(r)
    }

    /// Seconds of one resource's busy time that no interval of
    /// [`StepTimeline::busy`] covers: the DMA pipeline's femtosecond total
    /// for the measured level's offload lines.
    pub(crate) fn line_busy_seconds(&self, r: Resource) -> f64 {
        fs_to_seconds(self.busy_fs[r as usize])
    }

    /// Total events processed: every event booked, logged or not (a
    /// cluster run with recording off keeps no log), plus the
    /// line-granularity DMA pipeline events of the measured fidelity level
    /// (the "events/second" denominator of the timeline micro-benchmark).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// DMA lines the pipeline stepped one at a time. The rest of each
    /// repeated line table was extrapolated from its period
    /// ([`DmaPipeline::push_table`]); they count in
    /// [`StepTimeline::events_processed`] all the same.
    // pub: measured_step.rs pins the stepped-line count
    pub fn lines_stepped(&self) -> u64 {
        self.lines_stepped
    }
}

/// What rides the link during one stage of the schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Transfer {
    /// Nothing: backward stages 1 and 0 have no input left to fetch.
    Idle,
    /// GPU→CPU offload of a layer's output (`None` = the network input).
    Offload(Option<usize>),
    /// CPU→GPU prefetch of a layer's output.
    Prefetch(usize),
}

impl Transfer {
    /// The log entries of the transfer's start and end.
    pub(crate) fn events(self) -> [EventKind; 2] {
        match self {
            Transfer::Offload(layer) => [
                EventKind::OffloadStart { layer },
                EventKind::OffloadEnd { layer },
            ],
            Transfer::Prefetch(layer) => [
                EventKind::PrefetchStart { layer },
                EventKind::PrefetchEnd { layer },
            ],
            Transfer::Idle => unreachable!("an idle stage moves nothing"),
        }
    }
}

/// One stage of vDNN's per-GPU schedule (Fig. 2 of the paper): the layer
/// it computes and the transfer it overlaps, closed by a barrier on both.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stage {
    pub(crate) phase: Phase,
    pub(crate) layer: usize,
    pub(crate) transfer: Transfer,
    /// Whether the stage computes and emits a [`StageRecord`]; only the
    /// serial head prefetch does neither.
    pub(crate) record: bool,
}

impl Stage {
    /// The stage program of a `layers`-deep network, in execution order:
    /// forward stage *i* computes layer *i* while offloading its input
    /// (layer *i−1*'s output; the network input for stage 0 — the last
    /// layer's output feeds the loss directly and is never offloaded);
    /// then a serial prefetch of the deepest offloaded input, with nothing
    /// to overlap; then backward stage *i* computes layer *i* while
    /// prefetching the input of layer *i−1* (= the output of layer *i−2*).
    pub(crate) fn program(layers: usize) -> impl Iterator<Item = Stage> {
        let forward = (0..layers).map(|i| Stage {
            phase: Phase::Forward,
            layer: i,
            transfer: Transfer::Offload(i.checked_sub(1)),
            record: true,
        });
        let head = (layers > 0).then(|| Stage {
            phase: Phase::Backward,
            layer: layers.saturating_sub(2),
            transfer: Transfer::Prefetch(layers.saturating_sub(2)),
            record: false,
        });
        let backward = (0..layers).rev().map(|i| Stage {
            phase: Phase::Backward,
            layer: i,
            transfer: i.checked_sub(2).map_or(Transfer::Idle, Transfer::Prefetch),
            record: true,
        });
        forward.chain(head).chain(backward)
    }

    /// Full-batch seconds of the stage's computation (0 for the head).
    pub(crate) fn compute(&self, model: &ComputeModel, spec: &NetworkSpec) -> f64 {
        if !self.record {
            return 0.0;
        }
        let layer = &spec.layers()[self.layer];
        match self.phase {
            Phase::Forward => model.forward_time(layer, spec.batch()),
            Phase::Backward => model.backward_time(layer, spec.batch()),
        }
    }

    /// What `source` moves during the stage.
    pub(crate) fn payload<'a>(
        &self,
        spec: &NetworkSpec,
        source: &'a dyn TransferSource,
    ) -> Payload<'a> {
        match self.transfer {
            Transfer::Idle => Payload::None,
            Transfer::Offload(None) => source.input_payload(spec),
            Transfer::Offload(Some(layer)) | Transfer::Prefetch(layer) => {
                source.layer_payload(spec, layer)
            }
        }
    }
}

/// One GPU's step as its simulator books it, stage by stage: the stage
/// rule's bookkeeping, written once for [`TimelineSim`] and the cluster's
/// shared path. A simulator times each stage with its own arithmetic, books
/// the compute and the transfer's events and busy time, and hands the
/// timing to [`StepRecorder::close`].
pub(crate) struct StepRecorder {
    /// Whether the event log, stage records and busy intervals are kept;
    /// the event count and the breakdown are kept either way.
    record: bool,
    /// The step so far, its log in booking order.
    step: StepTimeline,
}

impl StepRecorder {
    pub(crate) fn new(record: bool, fidelity: &'static str) -> Self {
        let step = StepTimeline {
            breakdown: StepBreakdown::default(),
            fidelity,
            events: Vec::new(),
            stages: Vec::new(),
            busy: Default::default(),
            busy_fs: [0; 3],
            events_processed: 0,
            lines_stepped: 0,
        };
        StepRecorder { record, step }
    }

    /// Books one event: counted always, logged when recording.
    pub(crate) fn event(&mut self, time: f64, kind: EventKind) {
        if self.record {
            self.step.events.push(Event { time, kind });
        }
        self.step.events_processed += 1;
    }

    /// Books busy time, coalescing with the previous interval when they
    /// touch.
    pub(crate) fn busy(&mut self, r: Resource, start: f64, end: f64) {
        if self.record {
            push_busy(&mut self.step.busy[r as usize], start, end);
        }
    }

    /// Books `compute` seconds of the stage's computation from `t`.
    #[inline]
    pub(crate) fn compute(&mut self, stage: &Stage, t: f64, compute: f64) {
        if compute > 0.0 {
            let Stage { phase, layer, .. } = *stage;
            self.event(t, EventKind::ComputeStart { phase, layer });
            self.event(t + compute, EventKind::ComputeEnd { phase, layer });
            self.busy(Resource::Compute, t, t + compute);
        }
    }

    /// Closes a stage the simulator timed: `dur` joins its phase's time,
    /// `(transfer − compute)⁺` its phase's stall, and a stage that records
    /// leaves its [`StageRecord`].
    pub(crate) fn close(
        &mut self,
        stage: &Stage,
        start: f64,
        compute: f64,
        transfer: f64,
        dur: f64,
        end: f64,
    ) {
        let b = &mut self.step.breakdown;
        let (total, stall) = match stage.phase {
            Phase::Forward => (&mut b.forward, &mut b.forward_stall),
            Phase::Backward => (&mut b.backward, &mut b.backward_stall),
        };
        *total += dur;
        *stall += (transfer - compute).max(0.0);
        if stage.record && self.record {
            self.step.stages.push(StageRecord {
                phase: stage.phase,
                layer: stage.layer,
                start,
                compute,
                transfer,
                end,
            });
        }
    }

    /// The finished step. The log goes in time order, ties in booking
    /// order (the sort is stable).
    pub(crate) fn finish(mut self) -> StepTimeline {
        self.step.events.sort_by(|a, b| a.time.total_cmp(&b.time));
        self.step
    }
}

/// Event-driven simulator of one training step. See the [module
/// docs](self) for the fidelity levels and synchronization model.
#[derive(Debug, Clone, Copy)]
pub struct TimelineSim {
    cfg: SystemConfig,
    compute: ComputeModel,
}

impl TimelineSim {
    /// Creates a simulator.
    pub fn new(cfg: SystemConfig, compute: ComputeModel) -> Self {
        TimelineSim { cfg, compute }
    }

    /// The platform configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The compute model.
    pub fn compute_model(&self) -> ComputeModel {
        self.compute
    }

    /// Simulates one training step of `spec` with transfers supplied by
    /// `source`.
    pub fn simulate(&self, spec: &NetworkSpec, source: &dyn TransferSource) -> StepTimeline {
        let mut rec = StepRecorder::new(true, source.fidelity());
        // One pipeline for the whole step: layer offloads contend for the
        // read path and the staging buffer across stage boundaries.
        let mut pipeline = DmaPipeline::new(self.cfg);
        let mut t = 0.0f64;
        for stage in Stage::program(spec.layers().len()) {
            let compute = stage.compute(&self.compute, spec);
            let payload = stage.payload(spec, source);
            let transfer = self.transfer(&mut rec, &mut pipeline, t, stage.transfer, payload);
            rec.compute(&stage, t, compute);
            // The stage barrier: the next stage may start only when both
            // the computation and the transfer have finished.
            let dur = compute.max(transfer);
            rec.close(&stage, t, compute, transfer, dur, t + dur);
            t += dur;
        }
        rec.finish()
    }

    /// Performance with `source`'s transfers normalized to the oracle
    /// baseline (the y-axis of Fig. 13; 1.0 = no virtualization overhead).
    pub fn normalized_performance(&self, spec: &NetworkSpec, source: &dyn TransferSource) -> f64 {
        let oracle = self.simulate(spec, &UniformRatio::new(spec, TransferPolicy::Oracle));
        oracle.total() / self.simulate(spec, source).total()
    }

    /// Starts a stage's transfer at its start `t`; returns the transfer's
    /// duration measured from `t`.
    fn transfer(
        &self,
        rec: &mut StepRecorder,
        pipeline: &mut DmaPipeline,
        t: f64,
        transfer: Transfer,
        payload: Payload<'_>,
    ) -> f64 {
        if let Transfer::Offload(_) = transfer {
            pipeline.advance_to(t);
        }
        let dur = match payload {
            Payload::None => 0.0,
            // The analytic levels keep the paper's symmetric-bandwidth
            // model; the whole duration books the link (the analytic model
            // does not separate wire time from decompression).
            Payload::Analytic { bytes, ratio } => {
                let dur = bytes as f64 / self.cfg.effective_offload_bw(ratio);
                rec.busy(Resource::Link, t, t + dur);
                dur
            }
            Payload::Lines { lines, repeat } if matches!(transfer, Transfer::Prefetch(_)) => {
                let (u, c) = line_totals(lines, repeat);
                let dur = prefetch_seconds(&self.cfg, u, c);
                // The link is busy only while compressed bytes cross it;
                // the engines at the memory controllers hold the
                // decompression for the rest of the duration.
                rec.busy(Resource::Link, t, t + c as f64 / self.cfg.pcie_bw);
                rec.busy(Resource::DmaRead, t, t + dur);
                dur
            }
            Payload::Lines { lines, repeat } => {
                if lines.is_empty() || repeat == 0 {
                    return 0.0;
                }
                let run = pipeline.push_table(t, lines, repeat);
                let [start, end] = transfer.events();
                rec.event(t, start);
                rec.event(run.end, end);
                let step = &mut rec.step;
                step.busy_fs[Resource::DmaRead as usize] += run.read_busy_fs;
                step.busy_fs[Resource::Link as usize] += run.link_busy_fs;
                // Issue, arrival and drain of every line each count as a
                // processed pipeline event, extrapolated lines included.
                step.events_processed += 3 * (lines.len() * repeat) as u64;
                step.lines_stepped += (lines.len() * run.stepped) as u64;
                return run.end - t;
            }
        };
        if dur > 0.0 {
            let [start, end] = transfer.events();
            rec.event(t, start);
            rec.event(t + dur, end);
        }
        dur
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::CudnnVersion;
    use cdma_models::zoo;

    /// The stage rule's invariants over one GPU's step, whichever simulator
    /// booked it: the log is in time order and no resource is
    /// double-booked; the stage records abut, but for the one gap the
    /// serial head prefetch (nothing computed, no record) leaves before
    /// the first backward stage; each ends at `start + max(compute,
    /// transfer)` and the last at the step total; and the stalls close —
    /// the records' stalls plus that gap are the breakdown's, and total −
    /// stalls is the records' compute.
    pub(crate) fn assert_stage_invariants(tl: &StepTimeline) {
        let events = tl.events();
        assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "log out of order"
        );
        for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
            let busy = tl.busy(r);
            assert!(busy.iter().all(|&(s, e)| e > s), "{r:?}: empty interval");
            let overlap = busy.windows(2).any(|w| w[1].0 < w[0].1 - 1e-12);
            assert!(!overlap, "{r:?} double-booked");
        }
        let (mut t, mut stall, mut compute) = (0.0, 0.0, 0.0);
        let mut phase = Phase::Forward;
        for (k, s) in tl.stages().iter().enumerate() {
            if s.phase != phase {
                assert!(s.start >= t - 1e-12, "stage {k} starts inside the forward");
                (stall, t, phase) = (stall + (s.start - t), s.start, s.phase);
            }
            assert!((s.start - t).abs() < 1e-12, "stage {k} does not abut");
            let end = s.start + s.compute.max(s.transfer);
            assert!((s.end - end).abs() < 1e-15, "stage {k} ends at {}", s.end);
            (stall, compute, t) = (stall + s.stall(), compute + s.compute, s.end);
        }
        let total = tl.total();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * total;
        let b = tl.breakdown;
        assert!(close(t, total), "stages end at {t}, the step at {total}");
        assert!(
            close(stall, b.forward_stall + b.backward_stall),
            "stalls do not close"
        );
        assert!(
            close(compute, total - stall),
            "total - stalls is not the compute"
        );
    }

    fn sim() -> TimelineSim {
        sim_at(CudnnVersion::V5)
    }

    fn sim_at(v: CudnnVersion) -> TimelineSim {
        TimelineSim::new(SystemConfig::titan_x_pcie3(), ComputeModel::titan_x(v))
    }

    /// The breakdown of one step at the analytic level.
    fn step(spec: &NetworkSpec, policy: TransferPolicy) -> StepBreakdown {
        sim()
            .simulate(spec, &UniformRatio::new(spec, policy))
            .breakdown
    }

    /// Plain vDNN's normalized performance (every ratio 1.0).
    fn vdnn_performance(sim: TimelineSim, spec: &NetworkSpec) -> f64 {
        sim.normalized_performance(spec, &UniformRatio::uniform(spec, 1.0))
    }

    #[test]
    fn oracle_equals_pure_compute() {
        let spec = zoo::alexnet();
        let oracle = step(&spec, TransferPolicy::Oracle);
        let compute = ComputeModel::titan_x(CudnnVersion::V5).step_compute_time(&spec);
        assert!((oracle.total() - compute).abs() / compute < 1e-9);
        assert_eq!(oracle.forward_stall, 0.0);
        assert_eq!(oracle.backward_stall, 0.0);
    }

    #[test]
    fn vdnn_is_never_faster_than_oracle() {
        for spec in zoo::all_networks() {
            let perf = vdnn_performance(sim(), &spec);
            assert!(perf <= 1.0 + 1e-9, "{}: {perf}", spec.name());
        }
    }

    #[test]
    fn vdnn_overhead_matches_paper_band_on_v5() {
        // Section I / Fig. 3b: vDNN loses 31% on average (worst 52%)
        // versus the oracle on cuDNN v5-class compute.
        let perfs: Vec<f64> = zoo::all_networks()
            .iter()
            .map(|spec| vdnn_performance(sim(), spec))
            .collect();
        let avg_loss = 1.0 - perfs.iter().sum::<f64>() / perfs.len() as f64;
        let worst_loss = 1.0 - perfs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (0.18..0.45).contains(&avg_loss),
            "avg vDNN loss {avg_loss:.3}, paper ~0.31 (perfs {perfs:?})"
        );
        assert!(
            (0.35..0.65).contains(&worst_loss),
            "worst vDNN loss {worst_loss:.3}, paper ~0.52"
        );
    }

    #[test]
    fn overhead_grows_with_cudnn_version() {
        // Fig. 3(b): faster compute shrinks the overlap window, so the
        // vDNN penalty grows from v1 to v5.
        let spec = zoo::squeezenet();
        let mut prev_perf = 0.0;
        for v in CudnnVersion::ALL {
            let perf = vdnn_performance(sim_at(v), &spec);
            if prev_perf > 0.0 {
                assert!(
                    perf <= prev_perf + 1e-9,
                    "{}: perf {perf} should not exceed {prev_perf}",
                    v.label()
                );
            }
            prev_perf = perf;
        }
    }

    #[test]
    fn compression_recovers_performance() {
        for spec in zoo::all_networks() {
            let vdnn = vdnn_performance(sim(), &spec);
            let cdma = sim().normalized_performance(&spec, &UniformRatio::uniform(&spec, 2.6));
            assert!(
                cdma > vdnn,
                "{}: cDMA {cdma} should beat vDNN {vdnn}",
                spec.name()
            );
        }
    }

    #[test]
    fn infinite_compression_approaches_oracle() {
        let spec = zoo::vgg();
        // Ratio beyond COMP_BW/PCIe: transfers still take bytes/COMP_BW, so
        // performance approaches but does not exceed the oracle.
        let perf = sim().normalized_performance(&spec, &UniformRatio::uniform(&spec, 1000.0));
        assert!(perf > 0.9 && perf <= 1.0 + 1e-9, "perf {perf}");
    }

    #[test]
    fn conv_only_policy_transfers_less() {
        let spec = zoo::vgg();
        let all = step(&spec, TransferPolicy::uniform(&spec, 1.0)).total();
        let conv = step(
            &spec,
            TransferPolicy::OffloadConv(vec![1.0; spec.layers().len()]),
        )
        .total();
        assert!(conv <= all);
    }

    #[test]
    fn stall_fraction_is_consistent() {
        let spec = zoo::squeezenet();
        let b = step(&spec, TransferPolicy::uniform(&spec, 1.0));
        assert!(b.stall_fraction() > 0.0 && b.stall_fraction() < 1.0);
        assert!(b.forward_stall <= b.forward);
    }

    #[test]
    #[should_panic(expected = "one compression ratio per layer")]
    fn wrong_conv_ratio_length_rejected() {
        let spec = zoo::alexnet();
        let _ = step(&spec, TransferPolicy::OffloadConv(vec![1.0; 3]));
    }

    #[test]
    fn oracle_timeline_has_no_transfers() {
        let spec = zoo::alexnet();
        let tl = sim().simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
        assert!(tl.busy(Resource::Link).is_empty());
        assert!(tl.busy(Resource::DmaRead).is_empty());
        assert_eq!(tl.breakdown.forward_stall, 0.0);
        assert_eq!(tl.breakdown.backward_stall, 0.0);
        // 2 stages per layer, 2 events per stage.
        assert_eq!(tl.events().len(), 4 * spec.layers().len());
    }

    #[test]
    fn events_are_chronological_and_stall_accounting_closes() {
        let spec = zoo::squeezenet();
        let tl = sim().simulate(&spec, &UniformRatio::uniform(&spec, 1.0));
        assert_stage_invariants(&tl);
        let compute = ComputeModel::titan_x(CudnnVersion::V5).step_compute_time(&spec);
        let stalls = tl.breakdown.forward_stall + tl.breakdown.backward_stall;
        assert!(
            ((tl.total() - stalls) - compute).abs() / compute < 1e-9,
            "total - stalls should equal pure compute"
        );
    }

    #[test]
    fn stage_records_tile_the_step() {
        let spec = zoo::vgg();
        let tl = sim().simulate(&spec, &UniformRatio::uniform(&spec, 2.6));
        assert_eq!(tl.stages().len(), 2 * spec.layers().len());
        let forward = &tl.stages()[..spec.layers().len()];
        assert!(forward.iter().all(|s| s.phase == Phase::Forward));
        assert_stage_invariants(&tl);
    }

    #[test]
    fn busy_intervals_never_overlap() {
        let spec = zoo::googlenet();
        for ratio in [1.0, 2.6, 13.8] {
            assert_stage_invariants(&sim().simulate(&spec, &UniformRatio::uniform(&spec, ratio)));
        }
    }

    #[test]
    fn measured_lines_drive_the_dma_read_path() {
        let spec = zoo::alexnet();
        // Synthetic line tables: every window 4 KB, compressing 2x; the
        // input dense.
        let table_for = |bytes: u64, ratio: u32| -> Vec<(u32, u32)> {
            (0..bytes.div_ceil(4096))
                .map(|_| (4096u32, 4096 / ratio))
                .collect()
        };
        let input_bytes = (spec.input().per_image() * spec.batch() * 4) as u64;
        let stream = MeasuredStream::new(
            table_for(input_bytes, 1),
            spec.layers()
                .iter()
                .map(|l| table_for(l.activation_bytes(spec.batch()), 2))
                .collect(),
        );
        let tl = sim().simulate(&spec, &stream);
        assert_eq!(tl.fidelity(), "measured-stream");
        assert_stage_invariants(&tl);
        // Offloads keep the read path busy for exactly their lines' read
        // time, 4096 B at 5 000 fs a byte each (three events a line); the
        // interval list holds only the prefetches.
        let lines = (tl.events_processed() - tl.events().len() as u64) / 3;
        assert_eq!(
            tl.busy_seconds(Resource::DmaRead),
            busy_total(tl.busy(Resource::DmaRead)) + fs_to_seconds(lines * 4096 * 5_000)
        );
        assert!(tl.busy_seconds(Resource::Link) > busy_total(tl.busy(Resource::Link)));
        assert!(tl.lines_stepped() > 0);
        // 2x compression beats uncompressed vDNN, loses to the oracle.
        let vdnn = sim().simulate(&spec, &UniformRatio::uniform(&spec, 1.0));
        let oracle = sim().simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
        assert!(tl.total() < vdnn.total());
        assert!(tl.total() >= oracle.total() - 1e-12);
        // Line-level pipeline events dominate the processed-event count.
        assert!(tl.events_processed() > tl.events().len() as u64);
    }

    #[test]
    fn a_repeated_table_simulates_as_its_materialised_copies() {
        // A minibatch of `k` images sharing per-image line tables, stored
        // once, against the same tables written out `k` times: the first
        // replays each table until its period shows, the second steps every
        // line.
        let spec = zoo::alexnet();
        let k = 128;
        let table = |seed: u32, lines: u32| -> Vec<(u32, u32)> {
            (0..lines)
                .map(|i| (4096, 256 + (i + seed).wrapping_mul(2_654_435_761) % 3841))
                .collect()
        };
        let input = table(1, 37);
        let layers: Vec<_> = (0..spec.layers().len() as u32)
            .map(|l| table(l + 2, 11 + 7 * l))
            .collect();
        let copies = |t: &Vec<(u32, u32)>| t.repeat(k);
        let materialised = MeasuredStream::new(copies(&input), layers.iter().map(copies).collect());
        let repeated = MeasuredStream::replicated(input, layers, k);
        // The same lines, the input's and every layer's, repeats written out.
        let expand = |(t, r): (&[(u32, u32)], usize)| t.repeat(r);
        assert_eq!(expand((&repeated.input, k)), materialised.input);
        for i in 0..spec.layers().len() {
            assert_eq!(
                expand(repeated.layer_table(i)),
                expand(materialised.layer_table(i))
            );
        }

        let a = sim().simulate(&spec, &repeated);
        let b = sim().simulate(&spec, &materialised);
        assert_eq!(a.total().to_bits(), b.total().to_bits());
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.stages(), b.stages());
        for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
            assert_eq!(a.busy(r), b.busy(r), "{r:?}");
            assert_eq!(
                a.busy_seconds(r).to_bits(),
                b.busy_seconds(r).to_bits(),
                "{r:?}"
            );
        }
        assert_eq!(
            b.lines_stepped() * 3,
            b.events_processed() - b.events().len() as u64
        );
        assert!(
            a.lines_stepped() * 4 < b.lines_stepped(),
            "{} of {} lines stepped",
            a.lines_stepped(),
            b.lines_stepped()
        );
    }

    #[test]
    fn prefetch_seconds_is_link_bound_for_modest_compression() {
        let cfg = SystemConfig::titan_x_pcie3();
        let t = prefetch_seconds(&cfg, 4 << 20, 2 << 20);
        assert!((t - (2 << 20) as f64 / cfg.pcie_bw).abs() < 1e-12);
        // Extreme compression: decompression throughput dominates.
        let t2 = prefetch_seconds(&cfg, 4 << 20, 1024);
        let engines = ZvcEngine::new(cfg.engine_clock);
        let floor = (4 << 20) as f64 / engines.aggregate_throughput(cfg.mem_controllers);
        assert!((t2 - floor).abs() / floor < 1e-9);
    }

    #[test]
    fn profiled_density_matches_equivalent_uniform_ratios() {
        let spec = zoo::alexnet();
        let profile = cdma_models::profiles::density_profile(&spec);
        let table = RatioTable::build_fast(3);
        let profiled =
            UniformRatio::at_checkpoint(&spec, &profile, 0.5, Algorithm::Zvc, Layout::Nchw, &table);
        let ratios: Vec<f64> = spec
            .layers()
            .iter()
            .map(|l| {
                let d = profile.trajectory(&l.name).unwrap().density_at(0.5);
                table.ratio(Algorithm::Zvc, Layout::Nchw, d)
            })
            .collect();
        let via_policy = UniformRatio::new(&spec, TransferPolicy::OffloadAll(ratios));
        let a = sim().simulate(&spec, &profiled);
        let b = sim().simulate(&spec, &via_policy);
        assert_eq!(a.breakdown, b.breakdown);
        // The level is a label only: the same payloads, reported apart.
        assert_eq!(a.fidelity(), Fidelity::ProfiledDensity.label());
        assert_eq!(b.fidelity(), Fidelity::UniformRatio.label());
        let src: FidelitySource = profiled.into();
        assert_eq!(src.level(), Fidelity::ProfiledDensity);
    }

    #[test]
    fn fidelity_values_round_trip_labels_and_sources() {
        for f in Fidelity::ALL {
            assert_eq!(f.label().parse::<Fidelity>().unwrap(), f);
        }
        assert_eq!(
            "uniform".parse::<Fidelity>().unwrap(),
            Fidelity::UniformRatio
        );
        assert!("bogus".parse::<Fidelity>().is_err());

        let spec = zoo::alexnet();
        let src: FidelitySource = UniformRatio::uniform(&spec, 2.0).into();
        assert_eq!(src.level(), Fidelity::UniformRatio);
        assert_eq!(src.fidelity(), Fidelity::UniformRatio.label());
        // Dispatching through the enum gives the same timeline as the
        // concrete source.
        let a = sim().simulate(&spec, &src);
        let b = sim().simulate(&spec, &UniformRatio::uniform(&spec, 2.0));
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    #[should_panic(expected = "one compression ratio per layer")]
    fn wrong_ratio_length_rejected() {
        let spec = zoo::alexnet();
        let _ = UniformRatio::new(&spec, TransferPolicy::OffloadAll(vec![1.0; 3]));
    }
}
